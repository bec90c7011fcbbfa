"""Command-line front end: planning reports, training runs, checkpoint
surgery, and greedy inference. Every run writes a JSON report (byte-identical
for identical config + seed) under the output directory."""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import costmodel, distsim, lowrank, trainer, thread_cap
from . import transformer as tfm
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .linalg import SvdConvergenceError
from .presets import PRESETS, get_preset
from .trainer import TrainConfig, TrainError
from .transformer import LayerSpec, ModelConfig, ModelError, RecomputePolicy

__all__ = ["main", "load_experiment_config", "ConfigError"]


class ConfigError(ValueError):
    pass


_EXPERIMENT_SECTIONS = {"model", "layers", "train", "hardware", "pipeline", "shard", "federated"}
_MODEL_KEYS = {"preset", "vocab", "dim", "heads", "layers", "ffn_dim", "max_seq", "rope_base"}
_TRAIN_KEYS = {
    "lr", "beta1", "beta2", "eps", "weight_decay", "steps", "batch", "seq",
    "method", "recompute", "selective_drop", "seed", "micro_batches",
}


def load_experiment_config(path) -> dict:
    """Strict JSON experiment config; unknown keys are rejected."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - _EXPERIMENT_SECTIONS
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    model = raw.get("model", {})
    bad = set(model) - _MODEL_KEYS
    if bad:
        raise ConfigError(f"unknown model keys: {sorted(bad)}")
    train = raw.get("train", {})
    bad = set(train) - _TRAIN_KEYS
    if bad:
        raise ConfigError(f"unknown train keys: {sorted(bad)}")
    layers = raw.get("layers", {})
    for name, spec in layers.items():
        if name not in tfm.MATRIX_NAMES:
            raise ConfigError(f"unknown matrix name in layers section: {name!r}")
        if not isinstance(spec, dict) or "kind" not in spec:
            raise ConfigError(f"layers.{name} must be an object with a 'kind'")
    return raw


def _model_config_from(section: dict) -> tuple[ModelConfig, str]:
    if "preset" in section:
        name = section["preset"]
        if not isinstance(name, str) or name not in PRESETS:
            raise ConfigError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
        preset = PRESETS[name]
        overrides = {k: v for k, v in section.items() if k != "preset"}
        if overrides:
            merged = {**preset.config.to_dict(), **overrides}
            return ModelConfig.from_dict(merged), preset.arch
        return preset.config, preset.arch
    return ModelConfig.from_dict(section), "llama"


def _policy_from(train_section: dict) -> RecomputePolicy:
    name = train_section.get("recompute", "store_all")
    if name == "store_all":
        return tfm.STORE_ALL
    if name == "per_layer":
        return tfm.PER_LAYER
    if name == "selective":
        return tfm.selective(tuple(train_section.get("selective_drop", ("qkT", "s"))))
    raise ConfigError(f"unknown recompute policy {name!r}")


def _specs_from(layers_section: dict) -> dict:
    return {name: LayerSpec.from_dict(spec) for name, spec in layers_section.items()}


def _run_dir(args) -> Path:
    base = Path(args.out) if args.out else Path("runs") / f"{time.strftime('%Y%m%d-%H%M%S')}-{args.seed}"
    base.mkdir(parents=True, exist_ok=True)
    return base


def _emit(args, report: dict) -> Path:
    run_dir = _run_dir(args)
    path = run_dir / "report.json"
    path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return path


def _table(rows, headers) -> str:
    widths = [max(len(str(r[i])) for r in [headers] + rows) for i in range(len(headers))]
    def fmt(row):
        return "  ".join(str(c).ljust(w) for c, w in zip(row, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# plan subcommands
# ---------------------------------------------------------------------------


def _cmd_plan_params(args) -> int:
    preset = get_preset(args.preset)
    specs = {}
    if args.lowrank_r:
        targets = args.targets.split(",") if args.targets else list(tfm.MATRIX_NAMES)
        specs = {t: LayerSpec(kind="lowrank", r=args.lowrank_r) for t in targets}
    counts = costmodel.count_params(preset.config, specs, preset.arch)
    rows = [
        [r.name, r.size, f"{r.millions:.2f}",
         f"{r.count * 2 / costmodel.GB:.2f}", f"{100 * r.count / counts.total:.2f}"]
        for r in counts.rows
    ]
    print(_table(rows, ["module", "size", "amount (M)", "storage GB (16-bit)", "percent"]))
    print(f"total: {counts.total} params ({counts.total / 1e9:.2f} B); trainable {counts.trainable}")
    report = {"command": "plan params", "preset": preset.name, "counts": counts.to_dict()}
    if args.lowrank_r:
        report["savings"] = costmodel.lowrank_savings(preset.config, args.lowrank_r)
    print(f"report: {_emit(args, report)}")
    return 0


def _cmd_plan_mem(args) -> int:
    preset = get_preset(args.preset)
    policy = _policy_from({"recompute": args.policy})
    specs = {}
    method = "dense"
    if args.lora_r:
        targets = (args.targets or "wq,wv").split(",")
        specs = {t: LayerSpec(kind="lora", r=args.lora_r) for t in targets}
        method = "lora_finetune"
    rep = costmodel.memory_report(
        preset.config, args.batch, args.seq, args.precision, policy,
        layer_specs=specs, method=method,
        nominal_params=None if args.exact else preset.nominal_params,
        arch=preset.arch,
    )
    rows = [
        ["parameters", f"{rep.params_gb:.2f}"],
        ["gradients", f"{rep.grads_gb:.2f}"],
        ["optimizer states", f"{rep.optimizer_gb:.2f}"],
        [f"intermediates ({rep.policy})", f"{rep.intermediates_gb:.2f}"],
        ["total", f"{rep.total_gb:.2f}"],
    ]
    print(_table(rows, ["component", "GB"]))
    print("\nper-variable (GB):")
    for k, v in rep.per_variable_gb.items():
        flag = "  [flagged: not retained for backward]" if k == "x_d" else ""
        print(f"  {k:10s} {v:8.2f}{flag}")
    for note in rep.annotations:
        print(f"note: {note}")
    print(f"report: {_emit(args, {'command': 'plan mem', 'preset': preset.name, 'report': rep.to_dict()})}")
    return 0


def _cmd_plan_flops(args) -> int:
    if args.params_b is not None:
        count = int(args.params_b * 1e9)
        label = f"{args.params_b} B nominal"
    else:
        preset = get_preset(args.preset)
        count = preset.nominal_params or costmodel.count_params(preset.config, None, preset.arch).total
        label = preset.name
    profile = costmodel.PROFILES[args.profile] if args.profile else None
    rep = costmodel.inference_workload(args.l_in, args.gen, count, args.kv_cache, profile)
    print(f"model: {label}  params {count / 1e9:.2f} B  flops/token {rep.flops_per_token / 1e9:.2f} GF")
    print(f"token passes: {rep.token_passes}  total {rep.total_flops / 1e12:.2f} TFLOP  kv_cache={rep.kv_cache}")
    for prec, sec in rep.est_seconds.items():
        print(f"  {prec}: {sec:.2f} s")
    print(f"report: {_emit(args, {'command': 'plan flops', 'model': label, 'report': rep.to_dict()})}")
    return 0


def _cmd_plan_pipeline(args) -> int:
    plan = distsim.pipeline_schedule(args.stages, args.micro_batches, args.fwd_cost, args.bwd_cost)
    print(plan.gantt())
    print(f"makespan {plan.makespan:.1f} cost units; utilization {plan.utilization:.4f} "
          f"(M/(N+M-1) = {args.micro_batches / (args.stages + args.micro_batches - 1):.4f})")
    print(f"report: {_emit(args, {'command': 'plan pipeline', 'plan': plan.to_dict()})}")
    return 0


def _cmd_plan_shard(args) -> int:
    if args.params_b is not None:
        count = int(args.params_b * 1e9)
    else:
        preset = get_preset(args.preset)
        count = preset.nominal_params or costmodel.count_params(preset.config, None, preset.arch).total
    plan = distsim.shard_plan(count, count, args.gpus)
    d = plan.to_dict()
    rows = [[k, f"{v:.2f}"] for k, v in d.items() if k != "gpus"]
    print(_table(rows, [f"shard over {args.gpus} GPUs", "GB"]))
    print(f"report: {_emit(args, {'command': 'plan shard', 'plan': d})}")
    return 0


def _cmd_plan_federated(args) -> int:
    if args.model_gb is not None:
        payload = args.model_gb * costmodel.GB
    elif args.adapter_params is not None:
        payload = args.adapter_params * (args.bits / 8.0)
    else:
        raise ConfigError("plan federated needs --model-gb or --adapter-params")
    cfg = distsim.FederatedConfig(args.nodes, payload, args.iterations, args.net_mbps)
    rep = distsim.federated_comm_report(cfg)
    print(f"nodes {rep.nodes}; payload {rep.payload_bytes / 1e6:.2f} MB")
    print(f"center/iter {rep.center_bytes_per_iter / costmodel.GB:.4f} GB; "
          f"worker/iter {rep.worker_bytes_per_iter / costmodel.GB:.4f} GB")
    print(f"totals over {rep.iterations} iterations: center {rep.center_total_bytes / 1e15:.3f} PB "
          f"(full precision, not rounded); worker {rep.worker_total_bytes / 1e15:.3f} PB")
    print(f"center seconds/iter at {cfg.net_mbps} MB/s: {rep.center_seconds_per_iter:.3f}")
    print(f"report: {_emit(args, {'command': 'plan federated', 'report': rep.to_dict()})}")
    return 0


# ---------------------------------------------------------------------------
# training / checkpoint subcommands
# ---------------------------------------------------------------------------

_DEFAULT_CORPUS = (
    b"low rank layers factor a wide linear map into two narrow ones. "
    b"the pipeline fills, drains, and the optimizer states shard cleanly. "
    b"0123456789 abcdefghijklmnopqrstuvwxyz. "
)


def _load_corpus(args) -> np.ndarray:
    if getattr(args, "corpus", None):
        data = Path(args.corpus).read_bytes()
    else:
        data = _DEFAULT_CORPUS * 1024
    return trainer.byte_tokenize(data)


def _train_config_from(args, section: dict | None = None) -> TrainConfig:
    section = dict(section or {})
    for key in ("lr", "steps", "batch", "seq", "method", "micro_batches"):
        v = getattr(args, key, None)
        if v is not None:
            section[key] = v
    if getattr(args, "seed_given", True) or "seed" not in section:
        section["seed"] = args.seed
    policy = _policy_from(section)
    section.pop("recompute", None)
    section.pop("selective_drop", None)
    try:
        return TrainConfig(recompute=policy, **section)
    except TrainError as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_pretrain(args) -> int:
    if args.config:
        exp = load_experiment_config(args.config)
        config, _arch = _model_config_from(exp.get("model", {"preset": "toy"}))
        specs = _specs_from(exp.get("layers", {}))
        tcfg = _train_config_from(args, exp.get("train", {}))
        model = tfm.build_model(config, specs, seed=tcfg.seed)
    elif args.checkpoint:
        # Continue training an existing model, e.g. a decomposed one (method 2).
        model = load_checkpoint(args.checkpoint)
        tcfg = _train_config_from(args)
    else:
        config = get_preset(args.preset or "toy").config
        specs = {}
        if args.rank:
            targets = (args.targets or "wq,wk,wv,wo,wu,wg,wd").split(",")
            kind = "blend" if args.method == "method3" else "lowrank"
            for t in targets:
                specs[t] = LayerSpec(kind=kind, r=args.rank,
                                     start_alpha=args.start_alpha, end_step=args.end_step)
        tcfg = _train_config_from(args)
        model = tfm.build_model(config, specs, seed=tcfg.seed)
    tokens = _load_corpus(args)
    result = trainer.train(model, tokens, tcfg)
    if tcfg.method == "method3":
        # Finished schedules leave alpha at 0: keep only the low-rank path.
        model = lowrank.collapse_blend(model, len(result.losses))
    run_dir = _run_dir(args)
    (run_dir / "metrics.csv").write_text(result.metrics_csv())
    ckpt = run_dir / "model.lrlm"
    save_checkpoint(ckpt, model)
    report = {
        "command": "pretrain",
        "method": tcfg.method,
        "steps_run": len(result.losses),
        "final_loss": result.losses[-1],
        "first_loss": result.losses[0],
        "seed": tcfg.seed,
        "checkpoint": ckpt.name,
        "param_count": model.param_count(),
    }
    print(f"pretrain [{tcfg.method}]: {len(result.losses)} steps, "
          f"loss {result.losses[0]:.4f} -> {result.losses[-1]:.4f}")
    print(f"report: {_emit(args, report)}")
    return 0


def _cmd_decompose(args) -> int:
    model = load_checkpoint(args.checkpoint)
    workers = args.workers if args.workers else thread_cap()
    targets = args.targets.split(",") if args.targets else None
    low = lowrank.decompose_model(model, args.rank, workers, targets)
    run_dir = _run_dir(args)
    out = Path(args.output) if args.output else run_dir / "decomposed.lrlm"
    save_checkpoint(out, low)
    report = {
        "command": "decompose",
        "rank": args.rank,
        "source_params": model.param_count(),
        "decomposed_params": low.param_count(),
        "checkpoint": str(out),
    }
    print(f"decompose rank {args.rank}: {model.param_count()} -> {low.param_count()} params")
    print(f"report: {_emit(args, report)}")
    return 0


def _cmd_finetune(args) -> int:
    model = load_checkpoint(args.checkpoint)
    targets = (args.targets or "wq,wv").split(",")
    model = lowrank.attach_adapters(model, args.rank, targets, seed=args.seed)
    tcfg = _train_config_from(args, {"method": "lora_finetune"})
    tokens = _load_corpus(args)
    result = trainer.train(model, tokens, tcfg)
    run_dir = _run_dir(args)
    (run_dir / "metrics.csv").write_text(result.metrics_csv())
    out = Path(args.output) if args.output else run_dir / "adapters.lrlm"
    save_checkpoint(out, model)
    trainable = sum(p.data.size for p in model.trainable_parameters().values())
    report = {
        "command": "finetune",
        "rank": args.rank,
        "targets": targets,
        "trainable_params": trainable,
        "steps_run": len(result.losses),
        "final_loss": result.losses[-1],
        "checkpoint": str(out),
    }
    print(f"finetune lora r={args.rank} on {targets}: trainable {trainable}, "
          f"loss {result.losses[0]:.4f} -> {result.losses[-1]:.4f}")
    print(f"report: {_emit(args, report)}")
    return 0


def _cmd_quantize(args) -> int:
    model = load_checkpoint(args.checkpoint)
    targets = args.targets.split(",") if args.targets else None
    qmodel = tfm.quantize_model(model, args.bits, targets)
    run_dir = _run_dir(args)
    out = Path(args.output) if args.output else run_dir / "quantized.lrlm"
    save_checkpoint(out, qmodel)
    report = {"command": "quantize", "bits": args.bits, "checkpoint": str(out)}
    print(f"quantized to {args.bits}-bit: {out}")
    print(f"report: {_emit(args, report)}")
    return 0


def _cmd_merge(args) -> int:
    model = load_checkpoint(args.checkpoint)
    merged = lowrank.merge_model(model)
    run_dir = _run_dir(args)
    out = Path(args.output) if args.output else run_dir / "merged.lrlm"
    save_checkpoint(out, merged)
    report = {"command": "merge", "checkpoint": str(out)}
    print(f"merged adapters into dense weights: {out}")
    print(f"report: {_emit(args, report)}")
    return 0


def _cmd_infer(args) -> int:
    model = load_checkpoint(args.checkpoint)
    prompt = trainer.byte_tokenize(args.prompt.encode("utf-8"))
    if prompt.size == 0:
        raise ConfigError("prompt must not be empty")
    generated, passes = tfm.greedy_decode(model, prompt, args.max_new, use_cache=not args.no_kv_cache)
    text = trainer.byte_detokenize(np.array(generated)).decode("utf-8", errors="replace")
    report = {
        "command": "infer",
        "kv_cache": not args.no_kv_cache,
        "token_passes": passes,
        "generated_ids": generated,
        "generated_text": text,
    }
    print(f"generated ({passes} token passes): {text!r}")
    print(f"report: {_emit(args, report)}")
    return 0


def _cmd_gradcheck(args) -> int:
    if args.checkpoint:
        model = load_checkpoint(args.checkpoint)
    else:
        model = tfm.build_model(get_preset(args.preset or "toy").config, seed=args.seed)
    gen = np.random.default_rng(args.seed)
    inputs = gen.integers(0, model.config.vocab, size=(2, 6))
    targets = gen.integers(0, model.config.vocab, size=(2, 6))
    rep = trainer.grad_check(model, (inputs, targets), tol=args.tol, seed=args.seed)
    status = "PASS" if rep.passed else "FAIL"
    print(f"gradcheck {status}: max rel error {rep.max_rel_error:.2e} over {rep.checked} entries "
          f"(worst: {rep.worst_tensor or 'n/a'}; tol {rep.tol:g})")
    _emit(args, {"command": "gradcheck", "passed": rep.passed,
                 "max_rel_error": rep.max_rel_error, "checked": rep.checked})
    return 0 if rep.passed else 2


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lrlm", description=__doc__)
    p.add_argument("--seed", type=int, default=None,
                   help="overrides any config-file seed (default 0)")
    p.add_argument("--out", help="output directory (default runs/<timestamp>-<seed>)")
    sub = p.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="closed-form planning reports")
    plan_sub = plan.add_subparsers(dest="plan_command", required=True)

    pp = plan_sub.add_parser("params")
    pp.add_argument("--preset", required=True, choices=sorted(PRESETS))
    pp.add_argument("--lowrank-r", type=int, default=0)
    pp.add_argument("--targets")
    pp.set_defaults(func=_cmd_plan_params)

    pm = plan_sub.add_parser("mem")
    pm.add_argument("--preset", required=True, choices=sorted(PRESETS))
    pm.add_argument("--batch", type=int, default=1)
    pm.add_argument("--seq", type=int, default=4096)
    pm.add_argument("--precision", default="fp16", choices=sorted(costmodel.BYTES_PER_PARAM))
    pm.add_argument("--policy", default="store_all", choices=["store_all", "per_layer", "selective"])
    pm.add_argument("--lora-r", type=int, default=0)
    pm.add_argument("--targets")
    pm.add_argument("--exact", action="store_true", help="price exact counts, not nominal")
    pm.set_defaults(func=_cmd_plan_mem)

    pf = plan_sub.add_parser("flops")
    pf.add_argument("--preset", choices=sorted(PRESETS))
    pf.add_argument("--params-b", type=float, help="override with a nominal count in billions")
    pf.add_argument("--l-in", type=int, default=100)
    pf.add_argument("--gen", type=int, default=100)
    pf.add_argument("--kv-cache", action="store_true")
    pf.add_argument("--profile", choices=sorted(costmodel.PROFILES))
    pf.set_defaults(func=_cmd_plan_flops)

    pl = plan_sub.add_parser("pipeline")
    pl.add_argument("--stages", type=int, required=True)
    pl.add_argument("--micro-batches", type=int, required=True)
    pl.add_argument("--fwd-cost", type=float, default=1.0)
    pl.add_argument("--bwd-cost", type=float, default=None)
    pl.set_defaults(func=_cmd_plan_pipeline)

    ps = plan_sub.add_parser("shard")
    ps.add_argument("--preset", choices=sorted(PRESETS))
    ps.add_argument("--params-b", type=float)
    ps.add_argument("--gpus", type=int, required=True)
    ps.set_defaults(func=_cmd_plan_shard)

    pd = plan_sub.add_parser("federated")
    pd.add_argument("--nodes", type=int, required=True)
    pd.add_argument("--model-gb", type=float)
    pd.add_argument("--adapter-params", type=float)
    pd.add_argument("--bits", type=int, default=16)
    pd.add_argument("--iterations", type=int, default=1)
    pd.add_argument("--net-mbps", type=float, default=50.0)
    pd.set_defaults(func=_cmd_plan_federated)

    tr = sub.add_parser("pretrain", help="methods 1/3, dense, or continued training")
    tr.add_argument("--config", help="experiment config JSON")
    tr.add_argument("--checkpoint", help="continue from an existing model (e.g. after decompose)")
    tr.add_argument("--preset", choices=sorted(PRESETS))
    tr.add_argument("--method", choices=list(trainer.METHODS))
    tr.add_argument("--rank", type=int, default=0)
    tr.add_argument("--targets")
    tr.add_argument("--start-alpha", type=float, default=0.9)
    tr.add_argument("--end-step", type=int, default=50)
    tr.add_argument("--steps", type=int)
    tr.add_argument("--batch", type=int)
    tr.add_argument("--seq", type=int)
    tr.add_argument("--lr", type=float)
    tr.add_argument("--corpus")
    tr.set_defaults(func=_cmd_pretrain)

    dc = sub.add_parser("decompose", help="SVD-initialize a low-rank model (method 2)")
    dc.add_argument("--checkpoint", required=True)
    dc.add_argument("--rank", type=int, required=True)
    dc.add_argument("--workers", type=int, default=0)
    dc.add_argument("--targets")
    dc.add_argument("--output")
    dc.set_defaults(func=_cmd_decompose)

    ft = sub.add_parser("finetune", help="LoRA finetuning of a checkpoint")
    ft.add_argument("--checkpoint", required=True)
    ft.add_argument("--rank", type=int, default=8)
    ft.add_argument("--targets")
    ft.add_argument("--steps", type=int)
    ft.add_argument("--batch", type=int)
    ft.add_argument("--seq", type=int)
    ft.add_argument("--lr", type=float)
    ft.add_argument("--corpus")
    ft.add_argument("--output")
    ft.set_defaults(func=_cmd_finetune)

    qt = sub.add_parser("quantize")
    qt.add_argument("--checkpoint", required=True)
    qt.add_argument("--bits", type=int, default=8, choices=[4, 8])
    qt.add_argument("--targets")
    qt.add_argument("--output")
    qt.set_defaults(func=_cmd_quantize)

    mg = sub.add_parser("merge")
    mg.add_argument("--checkpoint", required=True)
    mg.add_argument("--output")
    mg.set_defaults(func=_cmd_merge)

    inf = sub.add_parser("infer")
    inf.add_argument("--checkpoint", required=True)
    inf.add_argument("--prompt", required=True)
    inf.add_argument("--max-new", type=int, default=16)
    inf.add_argument("--no-kv-cache", action="store_true")
    inf.set_defaults(func=_cmd_infer)

    gc = sub.add_parser("gradcheck")
    gc.add_argument("--preset", choices=sorted(PRESETS))
    gc.add_argument("--checkpoint")
    gc.add_argument("--tol", type=float, default=1e-3)
    gc.set_defaults(func=_cmd_gradcheck)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.seed_given = args.seed is not None
    if args.seed is None:
        args.seed = 0
    try:
        return args.func(args)
    except (ConfigError, ModelError, CheckpointError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SvdConvergenceError, TrainError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
