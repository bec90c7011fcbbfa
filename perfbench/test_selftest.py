"""Self-test of the benchmark's own code, at every workload's smallest size.

    python3 -m pytest perfbench -q

It checks that each run reports every metric of BENCHMARK.json with its unit,
that a wrong output is counted as a failed operation rather than passed, and
that the benchmark refuses to run where the lrlm sources are absent.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def small_run(capsys, workload: str, trace: int) -> dict:
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace), "--size", "small"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_reported_with_its_unit(capsys, workload, trace):
    result = small_run(capsys, workload, trace)
    group = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in group)
    for m in group:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])


def _wrong_decode(model, prompt, max_new, use_cache=True):
    return [0] * (max_new - 1), 0


def _wrong_round(nodes, mode, state, config):
    res = ORIGINAL_ROUND(nodes, mode, state, config)
    return {**res, "payload_bytes": res["payload_bytes"] + 4}


def _wrong_load(path):
    model = ORIGINAL_LOAD(path)
    model.layers[0].norm1.data = model.layers[0].norm1.data + 1.0
    return model


ORIGINAL_ROUND = workloads.distsim.federated_round
ORIGINAL_LOAD = workloads.checkpoint.load_checkpoint


@pytest.mark.parametrize("workload,module,name,fake", [
    ("serve", workloads.tfm, "greedy_decode", _wrong_decode),
    ("compress", workloads.distsim, "federated_round", _wrong_round),
    ("pretrain", workloads.checkpoint, "load_checkpoint", _wrong_load),
])
def test_wrong_output_counts_as_failed(capsys, monkeypatch, workload, module, name, fake):
    monkeypatch.setattr(module, name, fake)
    result = small_run(capsys, workload, 0)
    assert result["correct"] is False
    assert 1 <= result["failed"] <= result["attempted"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "serve", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
