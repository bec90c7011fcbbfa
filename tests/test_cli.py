import json
import tracemalloc

import numpy as np
import pytest

from lrlm import cli
from lrlm import transformer as tfm
from lrlm.checkpoint import load_checkpoint
from lrlm.trainer import byte_tokenize


def run(tmp_path, name, *argv, seed=0):
    out = tmp_path / name
    rc = cli.main(["--seed", str(seed), "--out", str(out), *argv])
    report = out / "report.json"
    return rc, out, (json.loads(report.read_text()) if report.exists() else None)


class TestPlanCommands:
    def test_params_table(self, tmp_path, capsys):
        rc, _, report = run(tmp_path, "p", "plan", "params", "--preset", "llama2-7b")
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "536.87" in stdout and "1442.84" in stdout and "131.07" in stdout
        assert report["counts"]["total"] == 6_738_411_520

    def test_params_runtime_under_a_second(self, tmp_path):
        import time

        start = time.perf_counter()
        rc, _, _ = run(tmp_path, "p2", "plan", "params", "--preset", "llama2-13b")
        assert rc == 0
        assert time.perf_counter() - start < 1.0

    def test_mem_nominal_cells(self, tmp_path, capsys):
        rc, _, report = run(tmp_path, "m", "plan", "mem", "--preset", "llama2-7b",
                            "--batch", "1", "--seq", "4096")
        assert rc == 0
        rep = report["report"]
        assert rep["params_gb"] == pytest.approx(14.0)
        assert rep["grads_gb"] == pytest.approx(14.0)
        assert rep["optimizer_gb"] == pytest.approx(84.0)
        assert rep["intermediates_gb"] == pytest.approx(81.0, rel=0.03)

    def test_flops_plan(self, tmp_path):
        rc, _, report = run(tmp_path, "f", "plan", "flops", "--preset", "llama2-7b",
                            "--l-in", "100", "--gen", "100", "--profile", "phone")
        assert rc == 0
        rep = report["report"]
        assert rep["token_passes"] == 14950
        assert rep["total_flops"] == pytest.approx(210e12, rel=0.02)
        assert rep["est_seconds"]["fp16"] == pytest.approx(105.0, rel=0.02)

    def test_pipeline_plan(self, tmp_path, capsys):
        rc, _, report = run(tmp_path, "pl", "plan", "pipeline", "--stages", "4", "--micro-batches", "1")
        assert rc == 0
        assert report["plan"]["utilization"] == 0.25
        assert "stage 0" in capsys.readouterr().out

    def test_shard_plan(self, tmp_path):
        rc, _, report = run(tmp_path, "s", "plan", "shard", "--params-b", "70", "--gpus", "8")
        assert rc == 0
        assert report["plan"]["total_gb_per_gpu"] == pytest.approx(262.5)

    def test_federated_plan(self, tmp_path):
        rc, _, report = run(tmp_path, "fd", "plan", "federated", "--nodes", "4",
                            "--model-gb", "14", "--iterations", "296000")
        assert rc == 0
        rep = report["report"]
        assert rep["center_bytes_per_iter"] == pytest.approx(84e9)
        assert rep["center_total_bytes"] == pytest.approx(24.864e15)

    def test_plan_allocates_no_model_tensors(self, tmp_path):
        tracemalloc.start()
        rc = cli.main(["--seed", "0", "--out", str(tmp_path / "mm"),
                       "plan", "mem", "--preset", "llama2-70b", "--batch", "16", "--seq", "4096"])
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert rc == 0
        assert peak < 20e6  # pure arithmetic; a single 70B tensor would be >> this

    def test_reports_byte_identical_across_runs(self, tmp_path):
        rc1, out1, _ = run(tmp_path, "r1", "plan", "params", "--preset", "llama2-7b", seed=5)
        rc2, out2, _ = run(tmp_path, "r2", "plan", "params", "--preset", "llama2-7b", seed=5)
        assert rc1 == rc2 == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


class TestTrainingCommands:
    def test_pretrain_writes_artifacts(self, tmp_path):
        rc, out, report = run(tmp_path, "t", "pretrain", "--preset", "toy", "--method", "dense",
                              "--steps", "3", "--batch", "2", "--seq", "16", seed=3)
        assert rc == 0
        assert (out / "metrics.csv").exists()
        assert (out / "model.lrlm").exists()
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header == "step,loss,lr,alpha,peak_tape_bytes"
        assert report["steps_run"] == 3

    def test_pretrain_metrics_reproducible(self, tmp_path):
        _, out1, _ = run(tmp_path, "t1", "pretrain", "--preset", "toy", "--method", "dense",
                         "--steps", "3", "--batch", "2", "--seq", "16", seed=7)
        _, out2, _ = run(tmp_path, "t2", "pretrain", "--preset", "toy", "--method", "dense",
                         "--steps", "3", "--batch", "2", "--seq", "16", seed=7)
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
        assert (out1 / "model.lrlm").read_bytes() == (out2 / "model.lrlm").read_bytes()

    def test_method3_pretrain(self, tmp_path):
        rc, out, _ = run(tmp_path, "m3", "pretrain", "--preset", "toy", "--method", "method3",
                         "--rank", "4", "--end-step", "2", "--steps", "4",
                         "--batch", "2", "--seq", "16", seed=1)
        assert rc == 0
        lines = (out / "metrics.csv").read_text().splitlines()[1:]
        alphas = [float(l.split(",")[3]) for l in lines]
        assert alphas[0] > 0 and alphas[-1] == 0.0
        # A finished schedule collapses to the pure low-rank path.
        final = load_checkpoint(out / "model.lrlm")
        assert final.layers[0].wq.kind == "lowrank"

    def test_method2_continues_from_decomposed_checkpoint(self, tmp_path):
        rc, out, _ = run(tmp_path, "donor", "pretrain", "--preset", "toy", "--method", "dense",
                         "--steps", "2", "--batch", "2", "--seq", "16", seed=6)
        assert rc == 0
        rc, dout, _ = run(tmp_path, "dec2", "decompose",
                          "--checkpoint", str(out / "model.lrlm"), "--rank", "8")
        assert rc == 0
        rc, fout, rep = run(tmp_path, "m2", "pretrain",
                            "--checkpoint", str(dout / "decomposed.lrlm"),
                            "--method", "method2", "--steps", "2", "--batch", "2", "--seq", "16",
                            seed=6)
        assert rc == 0 and rep["method"] == "method2"

    def test_full_flow_decompose_finetune_quantize_merge_infer(self, tmp_path):
        rc, out, _ = run(tmp_path, "base", "pretrain", "--preset", "toy", "--method", "dense",
                         "--steps", "2", "--batch", "2", "--seq", "16", seed=2)
        assert rc == 0
        ckpt = out / "model.lrlm"

        rc, dout, rep = run(tmp_path, "dec", "decompose", "--checkpoint", str(ckpt),
                            "--rank", "8", "--workers", "2")
        assert rc == 0 and rep["decomposed_params"] < rep["source_params"]

        rc, fout, rep = run(tmp_path, "ft", "finetune", "--checkpoint", str(ckpt),
                            "--rank", "2", "--targets", "wq,wv", "--steps", "2",
                            "--batch", "2", "--seq", "16", seed=2)
        assert rc == 0
        assert rep["trainable_params"] == 2 * 2 * 2 * (64 + 64)

        rc, qout, _ = run(tmp_path, "qz", "quantize", "--checkpoint", str(fout / "adapters.lrlm"),
                          "--bits", "8", "--targets", "wu,wg,wd")
        assert rc == 0
        rc, _, qrep = run(tmp_path, "qinf", "infer",
                          "--checkpoint", str(qout / "quantized.lrlm"),
                          "--prompt", "hello", "--max-new", "3")
        assert rc == 0 and len(qrep["generated_ids"]) == 3

        rc, mout, _ = run(tmp_path, "mg", "merge", "--checkpoint", str(fout / "adapters.lrlm"))
        assert rc == 0

        rc, _, rep = run(tmp_path, "inf", "infer", "--checkpoint", str(mout / "merged.lrlm"),
                         "--prompt", "hello", "--max-new", "4")
        assert rc == 0 and len(rep["generated_ids"]) == 4

        rc, _, rep2 = run(tmp_path, "inf2", "infer", "--checkpoint", str(mout / "merged.lrlm"),
                          "--prompt", "hello", "--max-new", "4", "--no-kv-cache")
        assert rc == 0
        assert rep2["generated_ids"] == rep["generated_ids"]
        assert rep2["token_passes"] > rep["token_passes"]

    def test_quantized_infer_close_to_dense(self, tmp_path):
        rc, out, _ = run(tmp_path, "b2", "pretrain", "--preset", "toy", "--method", "dense",
                         "--steps", "5", "--batch", "2", "--seq", "16", seed=5)
        ckpt = out / "model.lrlm"
        rc, qout, _ = run(tmp_path, "q2", "quantize", "--checkpoint", str(ckpt), "--bits", "8")
        assert rc == 0
        dense = load_checkpoint(ckpt)
        quant = load_checkpoint(qout / "quantized.lrlm")
        tokens = byte_tokenize(b"abcabc")
        ld, _ = tfm.model_forward(dense, tokens)
        lq, _ = tfm.model_forward(quant, tokens)
        # Dequantization oracle bound: logits differ by the accumulated rounding.
        assert np.max(np.abs(ld - lq)) < 0.5
        assert np.mean(np.abs(ld - lq)) < 0.1

    def test_gradcheck_command(self, tmp_path, capsys):
        rc, _, report = run(tmp_path, "gc", "gradcheck", "--preset", "toy", seed=4)
        assert rc == 0
        assert report["passed"] is True
        assert "PASS" in capsys.readouterr().out


class TestConfigHandling:
    def test_unknown_section_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"model": {"preset": "toy"}, "cats": {}}))
        rc = cli.main(["--out", str(tmp_path / "o"), "pretrain", "--config", str(cfg)])
        assert rc == 1

    def test_unknown_model_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad2.json"
        cfg.write_text(json.dumps({"model": {"preset": "toy", "depth": 4}}))
        rc = cli.main(["--out", str(tmp_path / "o"), "pretrain", "--config", str(cfg)])
        assert rc == 1

    def test_unknown_matrix_rejected(self, tmp_path):
        cfg = tmp_path / "bad3.json"
        cfg.write_text(json.dumps({"model": {"preset": "toy"},
                                   "layers": {"wx": {"kind": "dense"}}}))
        rc = cli.main(["--out", str(tmp_path / "o"), "pretrain", "--config", str(cfg)])
        assert rc == 1

    def test_valid_config_runs(self, tmp_path):
        cfg = tmp_path / "good.json"
        cfg.write_text(json.dumps({
            "model": {"preset": "toy"},
            "layers": {"wq": {"kind": "lowrank", "r": 4}, "wv": {"kind": "lowrank", "r": 4}},
            "train": {"method": "method1", "steps": 2, "batch": 2, "seq": 16, "lr": 1e-3},
        }))
        rc = cli.main(["--seed", "1", "--out", str(tmp_path / "o"), "pretrain", "--config", str(cfg)])
        assert rc == 0

    def test_missing_checkpoint_is_config_error(self, tmp_path):
        rc = cli.main(["--out", str(tmp_path / "o"), "infer",
                       "--checkpoint", str(tmp_path / "nope.lrlm"), "--prompt", "x"])
        assert rc == 1

    def test_unknown_preset_is_config_error(self, tmp_path):
        rc = cli.main(["--out", str(tmp_path / "o"), "plan", "params", "--preset", "toy",
                       ])
        assert rc == 0
        rc = cli.main(["--out", str(tmp_path / "o2"), "plan", "flops", "--preset", "toy"])
        assert rc == 0


@pytest.mark.parametrize("preset", ["llama9", ["toy"]], ids=["unknown-name", "not-a-name"])
def test_unknown_preset_in_config_is_config_error(tmp_path, capsys, preset):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"model": {"preset": preset}}))
    rc = cli.main(["--out", str(tmp_path / "o"), "pretrain", "--config", str(cfg)])
    assert rc == 1
    assert f"error: unknown preset {preset!r}; available: gpt2-1.5b" in capsys.readouterr().err


def test_internal_key_error_is_not_relabelled(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise KeyError("internal table slot")

    monkeypatch.setattr(cli.costmodel, "count_params", broken)
    with pytest.raises(KeyError, match="internal table slot"):
        cli.main(["--out", str(tmp_path / "o"), "plan", "params", "--preset", "toy"])
    assert "error:" not in capsys.readouterr().err


@pytest.mark.parametrize("section", [
    {"model": {"preset": "toy"}, "layers": {"wq": {"kind": "lowrank", "r": 4, "bogus": 1}}},
    {"model": {"vocab": 10}},
], ids=["unknown-layer-key", "missing-model-keys"])
def test_malformed_model_dict_is_config_error(tmp_path, capsys, section):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(section))
    rc = cli.main(["--out", str(tmp_path / "o"), "pretrain", "--config", str(cfg)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("train, message", [
    ({"method": "bogus"}, "unknown method 'bogus'"),
    ({"batch": 3, "micro_batches": 2}, "batch must divide evenly into micro_batches"),
    ({"beta1": 1.5}, "betas must lie in (0, 1)"),
    ({"lr": -1.0}, "lr must be > 0"),
], ids=["unknown-method", "micro-batches", "beta1", "negative-lr"])
def test_malformed_train_settings_are_config_errors(tmp_path, capsys, train, message):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"model": {"preset": "toy"}, "train": train}))
    rc = cli.main(["--out", str(tmp_path / "o"), "pretrain", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"error: {message}" in err and "numeric failure" not in err


def test_negative_lr_flag_is_config_error(tmp_path, capsys):
    rc = cli.main(["--out", str(tmp_path / "o"), "pretrain", "--preset", "toy", "--steps", "1", "--lr", "-1"])
    assert rc == 1
    assert "error: lr must be > 0" in capsys.readouterr().err
