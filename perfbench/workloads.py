"""The pretrain, compress and serve workloads, timed from outside lrlm.

Every workload is a closed loop from one client: the next operation starts
when the previous one has returned. Inputs come only from the seed. Each
operation is counted as attempted, and as failed when any check on its output
fails.

A workload times its own operations. The end-to-end metrics that a workload
does not exercise come from the other workloads run at their small size in
the same process ("companions"), so that every run reports every metric; the
result's details name the companion each such metric came from.

With a tracer, a workload first repeats its operations untraced as a
reference, then makes the equivalent sequence of public calls with a span
around each, and checks that losses, factors and tokens are bit-identical.
"""

import math
import re
import resource
import time
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import numpy as np

from lrlm import checkpoint, costmodel, distsim, lowrank, trainer
from lrlm import transformer as tfm
from lrlm.presets import get_preset

from tracer import Tracer

WORKLOADS = ("pretrain", "compress", "serve")
KINDS = ("wq", "wk", "wv", "wo", "wu", "wg", "wd")
# decompose_ms is reported per matrix shape: dim x dim, ffn x dim and dim x ffn.
SHAPE_OF = {"wq": "attn", "wk": "attn", "wv": "attn", "wo": "attn",
            "wu": "ffn_up", "wg": "ffn_up", "wd": "ffn_down"}
LAYERS = ("transformer", "trainer", "lowrank", "quant", "checkpoint", "distsim")
LR = 3e-3
CORPUS_BYTES = 1 << 16
EVAL_WINDOWS = 32
# AdamW reads a float32 gradient, float64 m, v and master; writes m, v, master
# and the float32 weight: 4 + 3*8 + 3*8 + 4 bytes per element.
ADAMW_BYTES_PER_ELEMENT = 56

SIZES = {
    "pretrain": {
        "full": dict(batch=16, seq=128, loss_steps=150, save_every=25, setup_reps=5),
        "small": dict(batch=4, seq=32, loss_steps=300, save_every=25, setup_reps=3),
    },
    "compress": {
        "full": dict(dim=128, ffn=256, heads=4, layers=2, rank=16, steps=40, batch=8, seq=64,
                     lora_rank=8, rounds=20, lora_batch=4, min_pipelines=3, setup_reps=3),
        "small": dict(dim=32, ffn=64, heads=4, layers=2, rank=4, steps=10, batch=4, seq=16,
                      lora_rank=2, rounds=20, lora_batch=2, min_pipelines=3, setup_reps=3),
    },
    "serve": {
        "full": dict(dim=256, ffn=768, heads=8, layers=4, max_seq=256, rank=32,
                     chat_prompt=(8, 16), chat_new=(48, 64), long_prompt=(160, 200), long_new=(1, 4),
                     min_requests=12, kv_checks=6, setup_reps=3),
        "small": dict(dim=32, ffn=64, heads=4, layers=2, max_seq=64, rank=4,
                      chat_prompt=(4, 8), chat_new=(12, 16), long_prompt=(40, 50), long_new=(1, 4),
                      min_requests=120, kv_checks=6, setup_reps=3),
    },
}


class Ledger:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


@dataclass
class Ctx:
    seed: int
    seconds: float
    size: str                   # "full" or "small"
    ledger: Ledger
    scratch: Path               # every checkpoint goes to a fresh file here; removed after the run
    tracer: Tracer | None       # None for the untraced run
    err_factor: float
    info: dict = field(default_factory=dict)
    _files: int = 0

    def fresh_path(self, stem: str) -> Path:
        self._files += 1
        return self.scratch / f"{stem}-{self._files}.lrlm"


def now() -> float:
    return time.perf_counter()


def median(xs) -> float:
    return float(np.median(xs))


def p90(xs) -> float:
    return float(np.percentile(xs, 90))


def _lexicon() -> list[bytes]:
    """400 fixed words, so corpora of different seeds share their statistics."""
    rng = np.random.default_rng(0)
    letters = np.frombuffer(b"etaoinshrdlcumwfgypbvkjxqz", dtype=np.uint8)
    letter_p = 1.0 / np.arange(1, 27)
    return [bytes(rng.choice(letters, size=int(rng.integers(2, 9)), p=letter_p / letter_p.sum()))
            for _ in range(400)]


def synthetic_corpus(seed: int, nbytes: int = CORPUS_BYTES) -> np.ndarray:
    """Seeded sentences of words drawn with Zipf frequencies from a fixed lexicon."""
    words = _lexicon()
    rng = np.random.default_rng(seed)
    word_p = 1.0 / np.arange(1, 401) ** 1.1
    word_p /= word_p.sum()
    out = bytearray()
    while len(out) < nbytes:
        picks = rng.choice(400, size=int(rng.integers(4, 13)), p=word_p)
        out += b" ".join(words[i] for i in picks) + b". "
    return trainer.byte_tokenize(bytes(out[:nbytes]))


def timed_setup(reps: int, build):
    """Run build() reps times; return the last result and the median seconds."""
    times = []
    for _ in range(reps):
        t = now()
        result = build()
        times.append(now() - t)
    return result, median(times)


def eval_batch(tokens, seq: int, seed: int):
    """A fixed held-out batch of EVAL_WINDOWS windows for the fixed-step loss."""
    return next(trainer.sample_batches(tokens, EVAL_WINDOWS, seq, seed + 1))


def eval_loss(model, batch) -> float:
    inputs, targets = batch
    logits, _ = tfm.model_forward(model, inputs)
    return tfm.cross_entropy_loss(logits, targets)


def save_and_reload(ctx: Ctx, model, stem: str) -> tuple[float, float]:
    """Save to a fresh file and load it back; the reload must match exactly.

    Returns (save ms, load ms). The file is removed afterwards.
    """
    path = ctx.fresh_path(stem)
    t = now()
    checkpoint.save_checkpoint(path, model)
    save_ms = (now() - t) * 1e3
    t = now()
    loaded = checkpoint.load_checkpoint(path)
    load_ms = (now() - t) * 1e3
    ctx.ledger.op(loaded.state_signature() == model.state_signature(),
                  f"{stem}: checkpoint reload differs from the saved model")
    path.unlink()
    return save_ms, load_ms


def traced_save_and_reload(ctx: Ctx, model, stem: str, op: int, samples: dict) -> None:
    """Traced save, load and (for build_share) the build_model that load performs."""
    tr = ctx.tracer
    path = ctx.fresh_path(stem)
    with tr.span("checkpoint.save", op) as s_save:
        checkpoint.save_checkpoint(path, model)
    with tr.span("checkpoint.load", op) as s_load:
        loaded = checkpoint.load_checkpoint(path)
    with tr.span("checkpoint.build", op) as s_build:
        tfm.build_model(model.config, model.specs, seed=0)
    ctx.ledger.op(loaded.state_signature() == model.state_signature(),
                  f"{stem}: checkpoint reload differs from the saved model")
    load = s_load["end"] - s_load["start"]
    samples.setdefault("save_ms", []).append((s_save["end"] - s_save["start"]) * 1e3)
    samples.setdefault("load_ms", []).append(load * 1e3)
    samples.setdefault("build_share", []).append((s_build["end"] - s_build["start"]) / load)
    samples.setdefault("bytes", []).append(path.stat().st_size)
    path.unlink()


def checkpoint_metrics(samples: dict) -> dict:
    return {
        "checkpoint.save_ms": median(samples["save_ms"]),
        "checkpoint.load_ms": median(samples["load_ms"]),
        "checkpoint.build_share": median(samples["build_share"]),
        "checkpoint.bytes": median(samples["bytes"]),
    }


def traced_train_step(tr: Tracer, op: int, model, batch, config, state):
    """train_step as its public calls: forward, loss and gradient, backward, AdamW."""
    inputs, targets = (np.asarray(a) for a in batch)
    step = state.step
    with tr.span("transformer.forward", op):
        logits, tape = tfm.model_forward(model, inputs, config.recompute, step=step)
    with tr.span("transformer.loss", op):
        loss = tfm.cross_entropy_loss(logits, targets)
        dlogits = tfm.cross_entropy_grad(logits, targets)
    with tr.span("transformer.backward", op):
        grads = tfm.model_backward(model, tape, dlogits, step=step)
    params = model.trainable_parameters()
    with tr.span("trainer.adamw", op):
        trainer.adamw_step(state, params, grads, config)
    adamw_bytes = sum(p.data.size for p in params.values()) * ADAMW_BYTES_PER_ELEMENT
    return loss, tape.peak_bytes, adamw_bytes


def predicted_tape_bytes(config, batch: int, seq: int, policy) -> float:
    """costmodel's retained intermediates, rescaled from 16-bit to float32."""
    report = costmodel.memory_report(config, batch, seq, policy=policy)
    return report.intermediates_gb * costmodel.GB / costmodel.ACTIVATION_BYTES * 4


def train_layer_metrics(tr: Tracer, config, batch: int, seq: int, policy,
                        tape_bytes: int, adamw_bytes: int) -> dict:
    return {
        "transformer.forward_ms": median(tr.durations_ms("transformer.forward")),
        "transformer.backward_ms": median(tr.durations_ms("transformer.backward")),
        "transformer.tape_bytes": tape_bytes,
        "transformer.tape_bytes_ratio": tape_bytes / predicted_tape_bytes(config, batch, seq, policy),
        "trainer.adamw_ms": median(tr.durations_ms("trainer.adamw")),
        "trainer.adamw_bytes": adamw_bytes,
    }


# ---------------------------------------------------------------------------
# pretrain: dense toy training, checkpoint saved every save_every steps
# ---------------------------------------------------------------------------


def _pretrain_state(seed: int, config):
    model = tfm.build_model(config, seed=seed)
    trainer.configure_trainable(model, "dense")
    return model, trainer.AdamWState(model.trainable_parameters())


def pretrain(ctx: Ctx) -> dict:
    p = SIZES["pretrain"][ctx.size]
    config = get_preset("toy").config

    def setup():
        tokens = synthetic_corpus(ctx.seed)
        return (tokens, *_pretrain_state(ctx.seed, config))

    (tokens, model, state), setup_s = timed_setup(p["setup_reps"], setup)
    tc = trainer.TrainConfig(lr=LR, batch=p["batch"], seq=p["seq"], method="dense",
                             recompute=tfm.STORE_ALL, seed=ctx.seed)
    if ctx.tracer is not None:
        return _pretrain_traced(ctx, p, config, tokens, tc)

    entropy = trainer.unigram_entropy(tokens)
    held_out = eval_batch(tokens, p["seq"], ctx.seed)
    batches = trainer.sample_batches(tokens, p["batch"], p["seq"], ctx.seed)
    step_s, save_ms, load_ms = [], [], []
    loss_final = math.nan
    deadline = now() + ctx.seconds
    while len(step_s) < p["loss_steps"] or now() < deadline:
        batch = next(batches)
        t = now()
        loss = trainer.train_step(model, batch, tc, state)
        step_s.append(now() - t)
        ctx.ledger.op(math.isfinite(loss), f"pretrain step {len(step_s)}: loss {loss}")
        if len(step_s) == p["loss_steps"]:
            loss_final = eval_loss(model, held_out)
            ctx.ledger.op(loss_final < entropy,
                          f"pretrain: loss {loss_final:.4f} after {len(step_s)} steps is not "
                          f"below the corpus unigram entropy {entropy:.4f}")
        if len(step_s) % p["save_every"] == 0:
            s, l = save_and_reload(ctx, model, "pretrain")
            save_ms.append(s)
            load_ms.append(l)
    ctx.info["pretrain"] = {"steps": len(step_s), "saves": len(save_ms)}
    return {
        "setup_s": setup_s,
        "train_tok_s": len(step_s) * p["batch"] * p["seq"] / sum(step_s),
        "step_ms_p50": median(step_s) * 1e3,
        "step_ms_p90": p90(step_s) * 1e3,
        "loss_final": loss_final,
        "ckpt_save_ms": median(save_ms),
        "ckpt_load_ms": median(load_ms),
    }


def _pretrain_traced(ctx: Ctx, p: dict, config, tokens, tc) -> dict:
    tr = ctx.tracer
    model, state = _pretrain_state(ctx.seed, config)
    batches = trainer.sample_batches(tokens, p["batch"], p["seq"], ctx.seed)
    ref_loss, ref_s = [], []
    deadline = now() + ctx.seconds / 2
    while len(ref_s) < p["save_every"] or now() < deadline:
        batch = next(batches)
        t = now()
        ref_loss.append(trainer.train_step(model, batch, tc, state))
        ref_s.append(now() - t)

    model, state = _pretrain_state(ctx.seed, config)
    batches = trainer.sample_batches(tokens, p["batch"], p["seq"], ctx.seed)
    ckpt: dict = {}
    for i, batch in enumerate(islice(batches, len(ref_loss))):
        with tr.span("bench.step", i):
            loss, tape_bytes, adamw_bytes = traced_train_step(tr, i, model, batch, tc, state)
        ctx.ledger.op(loss == ref_loss[i], f"pretrain traced step {i}: loss differs from untraced")
        if (i + 1) % p["save_every"] == 0:
            traced_save_and_reload(ctx, model, "pretrain", i, ckpt)

    fwd_flops = costmodel.recompute_ratios(config, p["seq"], tc.recompute)["forward_flops"] * p["batch"]
    fwd_ms = tr.durations_ms("transformer.forward")
    return {
        **train_layer_metrics(tr, config, p["batch"], p["seq"], tc.recompute, tape_bytes, adamw_bytes),
        "transformer.forward_gflop_s": fwd_flops / (median(fwd_ms) * 1e-3) / 1e9,
        **checkpoint_metrics(ckpt),
        "bench.trace_overhead_ratio": median(tr.durations_ms("bench.step")) / (median(ref_s) * 1e3),
    }


# ---------------------------------------------------------------------------
# compress: load, decompose, method-2 training, 8-bit base, federated LoRA
# ---------------------------------------------------------------------------


def _spectral(rng, rows: int, cols: int) -> np.ndarray:
    """Random singular vectors with a power-law spectrum, at the init scale."""
    k = min(rows, cols)
    u, _ = np.linalg.qr(rng.standard_normal((rows, k)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, k)))
    s = 1.0 / np.arange(1, k + 1)
    s *= tfm.INIT_STD * math.sqrt(rows * cols) / np.linalg.norm(s)
    return ((u * s) @ v.T).astype(np.float32)


def _compress_setup(ctx: Ctx, p: dict):
    config = tfm.ModelConfig(vocab=trainer.BYTE_VOCAB, dim=p["dim"], heads=p["heads"],
                             layers=p["layers"], ffn_dim=p["ffn"], max_seq=p["seq"])
    model = tfm.build_model(config, seed=ctx.seed)
    rng = np.random.default_rng(ctx.seed)
    for layer in model.layers:
        for mat in layer.matrices().values():
            mat.weight.data = _spectral(rng, *mat.weight.data.shape)
    path = ctx.fresh_path("compress-base")
    checkpoint.save_checkpoint(path, model)
    return synthetic_corpus(ctx.seed), path


def _decompose_err_ratio(base, low, r: int) -> float:
    """Worst Frobenius error of the factors over the Eckart-Young optimum."""
    worst = 0.0
    for lb, ll in zip(base.layers, low.layers):
        for k in KINDS:
            w = lb.matrices()[k].weight.data.astype(np.float64)
            f = ll.matrices()[k]
            err = np.linalg.norm(w - f.up.data.astype(np.float64) @ f.down.data.astype(np.float64))
            tail = np.linalg.svd(w, compute_uv=False)[r:]
            worst = max(worst, float(err / math.sqrt(float(np.sum(tail**2)))))
    return worst


def _assemble_lowrank(base, factors: dict, r: int):
    """The model decompose_model returns, from per-matrix decompose_linear factors."""
    layers = [
        tfm.DecoderLayer(layer.index, layer.norm1, layer.norm2, {
            k: (tfm.LowRankLinear(m.name, factors[m.name].down, factors[m.name].up) if k in KINDS else m)
            for k, m in layer.matrices().items()
        })
        for layer in base.layers
    ]
    specs = dict(base.specs)
    specs.update({k: tfm.LayerSpec(kind="lowrank", r=r) for k in KINDS})
    return tfm.DecoderModel(base.config, specs, base.embed, layers, base.head, base.dtype)


def _lora_replicas(q8, p: dict, seed: int):
    """Two identical replicas with adapters over the 8-bit base, and the AdamW state."""
    replicas = [lowrank.attach_adapters(q8, p["lora_rank"], ("wq", "wv"), seed=seed) for _ in range(2)]
    for rep in replicas:
        trainer.configure_trainable(rep, "lora_finetune")
    return replicas, trainer.AdamWState(replicas[0].trainable_parameters())


def _lora_payload(p: dict) -> int:
    """Adapter bytes per transfer: wq and wv in every layer, float32 down and up."""
    return p["layers"] * 2 * p["lora_rank"] * (p["dim"] + p["dim"]) * 4


def _check_round(ctx: Ctx, p: dict, res: dict, what: str) -> None:
    payload = _lora_payload(p)
    expect = distsim.federated_comm_report(distsim.FederatedConfig(nodes=2, payload_bytes=payload))
    ctx.ledger.op(res["payload_bytes"] == payload
                  and res["center_bytes"] == expect.center_bytes_per_iter
                  and res["worker_bytes"] == expect.worker_bytes_per_iter
                  and math.isfinite(res["loss_mean"]),
                  f"{what}: payload {res['payload_bytes']} / center {res['center_bytes']} "
                  f"do not match federated_comm_report ({payload} / {expect.center_bytes_per_iter})")


def _lora_streams(tokens, p: dict, seed: int):
    return [trainer.sample_batches(tokens, p["lora_batch"], p["seq"], seed + 2 + k) for k in range(2)]


def compress(ctx: Ctx) -> dict:
    p = SIZES["compress"][ctx.size]
    (tokens, base_path), setup_s = timed_setup(p["setup_reps"], lambda: _compress_setup(ctx, p))
    m2_cfg = trainer.TrainConfig(lr=LR, batch=p["batch"], seq=p["seq"], method="method2",
                                 recompute=tfm.PER_LAYER, seed=ctx.seed)
    lora_cfg = trainer.TrainConfig(lr=LR, batch=p["lora_batch"], seq=p["seq"], method="lora_finetune",
                                   seed=ctx.seed)
    if ctx.tracer is not None:
        return _compress_traced(ctx, p, tokens, base_path, m2_cfg, lora_cfg)

    r = p["rank"]
    held_out = eval_batch(tokens, p["seq"], ctx.seed)
    load_ms, decompose_s, step_s, save_ms, round_s = [], [], [], [], []
    first_signature = None
    loss_final = math.nan
    pipelines = 0
    deadline = now() + ctx.seconds
    while pipelines < p["min_pipelines"] or now() < deadline:
        pipelines += 1
        t = now()
        base = checkpoint.load_checkpoint(base_path)
        load_ms.append((now() - t) * 1e3)
        t = now()
        low = lowrank.decompose_model(base, r, targets=KINDS)
        decompose_s.append(now() - t)
        signature = low.state_signature()
        if first_signature is None:
            first_signature = signature
            ratio = _decompose_err_ratio(base, low, r)
            ctx.ledger.op(ratio <= ctx.err_factor,
                          f"decompose: error ratio {ratio:.6f} exceeds {ctx.err_factor}")
        else:
            ctx.ledger.op(signature == first_signature,
                          f"decompose pipeline {pipelines}: factors differ from the first pipeline")

        trainer.configure_trainable(low, "method2")
        state = trainer.AdamWState(low.trainable_parameters())
        for batch in islice(trainer.sample_batches(tokens, p["batch"], p["seq"], ctx.seed), p["steps"]):
            t = now()
            loss = trainer.train_step(low, batch, m2_cfg, state)
            step_s.append(now() - t)
            ctx.ledger.op(math.isfinite(loss), f"method2 step: loss {loss}")
        loss_final = eval_loss(low, held_out)

        # decompose_model shares embed, norms and head with `base`, so the
        # 8-bit base below starts from the method-2-trained copies of them.
        replicas, state = _lora_replicas(tfm.quantize_model(base, 8), p, ctx.seed)
        for k, batches in enumerate(zip(*_lora_streams(tokens, p, ctx.seed))):
            if k == p["rounds"]:
                break
            nodes = list(zip(replicas, batches))
            t = now()
            res = distsim.federated_round(nodes, "lora", state, lora_cfg)
            round_s.append(now() - t)
            _check_round(ctx, p, res, f"lora round {k}")
        save_ms.append(save_and_reload(ctx, replicas[0], "compress-adapters")[0])
    ctx.info["compress"] = {"pipelines": pipelines, "method2_steps": len(step_s),
                            "lora_rounds": len(round_s)}
    return {
        "setup_s": setup_s,
        "train_tok_s": len(step_s) * p["batch"] * p["seq"] / sum(step_s),
        "step_ms_p50": median(step_s) * 1e3,
        "step_ms_p90": p90(step_s) * 1e3,
        "loss_final": loss_final,
        "decompose_s": median(decompose_s),
        "finetune_tok_s": len(round_s) * 2 * p["lora_batch"] * p["seq"] / sum(round_s),
        "ckpt_save_ms": median(save_ms),
        "ckpt_load_ms": median(load_ms),
    }


def _compress_traced(ctx: Ctx, p: dict, tokens, base_path: Path, m2_cfg, lora_cfg) -> dict:
    tr = ctx.tracer
    r = p["rank"]
    base = checkpoint.load_checkpoint(base_path)
    ref_low = lowrank.decompose_model(base, r, targets=KINDS)
    ref_signature = ref_low.state_signature()
    err_ratio = _decompose_err_ratio(base, ref_low, r)
    trainer.configure_trainable(ref_low, "method2")
    state = trainer.AdamWState(ref_low.trainable_parameters())
    ref_loss, ref_s = [], []
    for batch in islice(trainer.sample_batches(tokens, p["batch"], p["seq"], ctx.seed), p["steps"]):
        t = now()
        ref_loss.append(trainer.train_step(ref_low, batch, m2_cfg, state))
        ref_s.append(now() - t)

    decompose_ms = {shape: [] for shape in SHAPE_OF.values()}
    ckpt: dict = {}
    round_ms, signature_ms, quantize_ms = [], [], []
    tape_bytes = adamw_bytes = 0
    op = 0
    pipelines = 0
    deadline = now() + ctx.seconds / 2
    while pipelines < 1 or now() < deadline:
        pipelines += 1
        with tr.span("checkpoint.load", op):
            base = checkpoint.load_checkpoint(base_path)
        factors = {}
        for layer in base.layers:
            for k in KINDS:
                mat = layer.matrices()[k]
                with tr.span("lowrank.decompose_linear", op) as s:
                    factors[mat.name] = lowrank.decompose_linear(mat.weight.data, r)
                decompose_ms[SHAPE_OF[k]].append((s["end"] - s["start"]) * 1e3)
        low = _assemble_lowrank(base, factors, r)
        ctx.ledger.op(low.state_signature() == ref_signature,
                      "compress traced: decompose_linear factors differ from decompose_model's")

        trainer.configure_trainable(low, "method2")
        state = trainer.AdamWState(low.trainable_parameters())
        batches = trainer.sample_batches(tokens, p["batch"], p["seq"], ctx.seed)
        for i, batch in enumerate(islice(batches, p["steps"])):
            op += 1
            with tr.span("bench.step", op):
                loss, tape_bytes, adamw_bytes = traced_train_step(tr, op, low, batch, m2_cfg, state)
            ctx.ledger.op(loss == ref_loss[i], f"compress traced step {i}: loss differs from untraced")

        with tr.span("quant.quantize_model", op) as s:
            q8 = tfm.quantize_model(base, 8)
        quantize_ms.append((s["end"] - s["start"]) * 1e3)
        replicas, state = _lora_replicas(q8, p, ctx.seed)
        for k, batches in enumerate(zip(*_lora_streams(tokens, p, ctx.seed))):
            if k == p["rounds"]:
                break
            op += 1
            with tr.span("distsim.federated_round", op) as s:
                res = distsim.federated_round(list(zip(replicas, batches)), "lora", state, lora_cfg)
            round_ms.append((s["end"] - s["start"]) * 1e3)
            _check_round(ctx, p, res, f"traced lora round {k}")
            with tr.span("distsim.state_signature", op) as s:
                replicas[0].state_signature()
            signature_ms.append((s["end"] - s["start"]) * 1e3)
        traced_save_and_reload(ctx, replicas[0], "compress-adapters", op, ckpt)

    return {
        **train_layer_metrics(tr, base.config, p["batch"], p["seq"], m2_cfg.recompute, tape_bytes, adamw_bytes),
        **{f"lowrank.decompose_ms.{shape}": median(v) for shape, v in decompose_ms.items()},
        "lowrank.decompose_err_ratio": err_ratio,
        "quant.quantize_ms": median(quantize_ms),
        "distsim.round_ms": median(round_ms),
        "distsim.payload_bytes": res["payload_bytes"],
        "distsim.signature_ms": median(signature_ms),
        **checkpoint_metrics(ckpt),
        "bench.trace_overhead_ratio": median(tr.durations_ms("bench.step")) / (median(ref_s) * 1e3),
    }


# ---------------------------------------------------------------------------
# serve: load a checkpoint and greedy-decode, rotating dense / q8 / low-rank
# ---------------------------------------------------------------------------

BACKENDS = ("dense", "q8", "lowrank")


def _serve_setup(ctx: Ctx, p: dict):
    config = tfm.ModelConfig(vocab=trainer.BYTE_VOCAB, dim=p["dim"], heads=p["heads"],
                             layers=p["layers"], ffn_dim=p["ffn"], max_seq=p["max_seq"])
    dense = tfm.build_model(config, seed=ctx.seed)
    # Built with low-rank specs, not decomposed, so no SVD cost lands here.
    low = tfm.build_model(config, {k: tfm.LayerSpec(kind="lowrank", r=p["rank"]) for k in KINDS},
                          seed=ctx.seed + 1)
    paths = {}
    for name, model in (("dense", dense), ("q8", tfm.quantize_model(dense, 8)), ("lowrank", low)):
        paths[name] = ctx.fresh_path(f"serve-{name}")
        checkpoint.save_checkpoint(paths[name], model)
    return synthetic_corpus(ctx.seed), paths


def _requests(p: dict, tokens, seed: int):
    """Endless request plan: backends rotate, chat and long alternate every three."""
    rng = np.random.default_rng(seed)
    i = 0
    while True:
        cls = ("chat", "long")[(i // 3) % 2]
        lo, hi = p[f"{cls}_prompt"]
        n = int(rng.integers(lo, hi + 1))
        start = int(rng.integers(0, tokens.size - n))
        lo, hi = p[f"{cls}_new"]
        yield BACKENDS[i % 3], cls, tokens[start:start + n], int(rng.integers(lo, hi + 1))
        i += 1


def serve(ctx: Ctx) -> dict:
    p = SIZES["serve"][ctx.size]
    (tokens, paths), setup_s = timed_setup(p["setup_reps"], lambda: _serve_setup(ctx, p))
    if ctx.tracer is not None:
        return _serve_traced(ctx, p, tokens, paths)
    return _serve_untraced(ctx, p, tokens, paths, setup_s)


def _check_tokens(ctx: Ctx, gen, max_new: int, what: str, reference=None) -> None:
    ok = len(gen) == max_new and all(0 <= g < trainer.BYTE_VOCAB for g in gen)
    if reference is not None:
        ok = ok and gen == reference
    ctx.ledger.op(ok, f"{what}: {len(gen)} of {max_new} tokens, or differs from the reference")


def _serve_untraced(ctx: Ctx, p: dict, tokens, paths: dict, setup_s: float) -> dict:
    kv_checked = set(np.random.default_rng(ctx.seed + 3).choice(p["min_requests"], p["kv_checks"],
                                                                 replace=False).tolist())
    req_ms, load_ms, prefill_ms = [], [], []
    chat_tokens, chat_s = 0, 0.0
    deadline = now() + ctx.seconds
    for i, (backend, cls, prompt, max_new) in enumerate(_requests(p, tokens, ctx.seed)):
        if i >= p["min_requests"] and now() >= deadline:
            break
        t0 = now()
        model = checkpoint.load_checkpoint(paths[backend])
        t1 = now()
        gen, _ = tfm.greedy_decode(model, prompt, max_new)
        t2 = now()
        req_ms.append((t2 - t0) * 1e3)
        load_ms.append((t1 - t0) * 1e3)
        if cls == "long":
            prefill_ms.append((t2 - t1) * 1e3)
        else:
            chat_tokens += len(gen)
            chat_s += t2 - t1
        reference = None
        if i in kv_checked:  # untimed: the no-KV path must give the same tokens
            reference, _ = tfm.greedy_decode(model, prompt, max_new, use_cache=False)
        _check_tokens(ctx, gen, max_new, f"request {i} ({backend}, {cls})", reference)
    ctx.info["serve"] = {"requests": len(req_ms), "long_requests": len(prefill_ms)}
    return {
        "setup_s": setup_s,
        "ckpt_load_ms": median(load_ms),
        "prefill_ms_p50": median(prefill_ms),
        "prefill_ms_p90": p90(prefill_ms),
        "decode_tok_s": chat_tokens / chat_s,
        "req_ms_p50": median(req_ms),
        "req_ms_p90": p90(req_ms),
    }


def _serve_traced(ctx: Ctx, p: dict, tokens, paths: dict) -> dict:
    tr = ctx.tracer
    ref = []
    deadline = now() + ctx.seconds / 2
    for i, (backend, _, prompt, max_new) in enumerate(_requests(p, tokens, ctx.seed)):
        if i >= p["min_requests"] and now() >= deadline:
            break
        model = checkpoint.load_checkpoint(paths[backend])
        t = now()
        gen, _ = tfm.greedy_decode(model, prompt, max_new)
        ref.append((gen, now() - t))

    load_ms, build_share, ratio = [], [], []
    prefill_per_tok = []
    decode_per_tok = {b: [] for b in BACKENDS}
    for i, (backend, cls, prompt, max_new) in enumerate(islice(_requests(p, tokens, ctx.seed), len(ref))):
        with tr.span("checkpoint.load", i) as s_load:
            model = checkpoint.load_checkpoint(paths[backend])
        with tr.span("checkpoint.build", i) as s_build:
            tfm.build_model(model.config, model.specs, seed=0)
        with tr.span("transformer.greedy_decode", i) as s:
            gen, _ = tfm.greedy_decode(model, prompt, max_new)
        _check_tokens(ctx, gen, max_new, f"traced request {i}", ref[i][0])
        load = s_load["end"] - s_load["start"]
        load_ms.append(load * 1e3)
        build_share.append((s_build["end"] - s_build["start"]) / load)
        decode = s["end"] - s["start"]
        ratio.append(decode / ref[i][1])
        if cls == "long":
            prefill_per_tok.append(decode * 1e3 / len(prompt))
        else:
            decode_per_tok[backend].append(decode * 1e3 / max_new)
    return {
        "transformer.prefill_ms_per_tok": median(prefill_per_tok),
        **{f"transformer.decode_ms_per_tok.{b}": median(v) for b, v in decode_per_tok.items()},
        "checkpoint.load_ms": median(load_ms),
        "checkpoint.build_share": median(build_share),
        "checkpoint.bytes": median([paths[b].stat().st_size for b in BACKENDS]),
        "bench.trace_overhead_ratio": median(ratio),
    }


# ---------------------------------------------------------------------------
# One run: the workload, then companions for the metrics it does not exercise
# ---------------------------------------------------------------------------

RUNNERS = {"pretrain": pretrain, "compress": compress, "serve": serve}


def err_factor_from(spec: dict) -> float:
    """The decompose error-ratio limit stated in BENCHMARK.json's compress entry."""
    why = next(w["why"] for w in spec["workloads"] if w["name"] == "compress")
    found = re.search(r"decompose_err_ratio <= ([0-9.]+)", why)
    if found is None:
        raise ValueError("BENCHMARK.json: the compress workload must state 'decompose_err_ratio <= <factor>'")
    return float(found.group(1))


def run(workload: str, seed: int, seconds: float, trace: bool, expected: list,
        err_factor: float, scratch: Path, size: str = "full") -> tuple[dict, Ledger, dict, Tracer | None]:
    """Run a workload; return (metrics by name, ledger, details, tracer).

    expected lists the metric names the run must report; the ones the workload
    does not measure itself come from companions at their small size.
    """
    scratch.mkdir(parents=True, exist_ok=True)
    ctx = Ctx(seed=seed, seconds=seconds, size=size, ledger=Ledger(), scratch=scratch,
              tracer=Tracer() if trace else None, err_factor=err_factor)
    t = now()
    if trace:
        ctx.tracer.workload = workload
    metrics = RUNNERS[workload](ctx)
    filled_from = {}
    for other in WORKLOADS:
        missing = [m for m in expected if m not in metrics]
        if other == workload or not missing:
            continue
        if trace:
            ctx.tracer.workload = other
        # A companion measures for a tenth of the run's seconds, so that its
        # medians and tails rest on more than one burst of machine noise.
        companion = RUNNERS[other](Ctx(seed=seed, seconds=seconds / 10, size="small",
                                       ledger=ctx.ledger, scratch=scratch, tracer=ctx.tracer,
                                       err_factor=err_factor, info=ctx.info))
        for m in missing:
            if m in companion:
                metrics[m] = companion[m]
                filled_from[m] = f"{other}@small"
    if trace:
        self_s = ctx.tracer.self_seconds_by_layer()
        total = sum(self_s.values())
        metrics.update({f"{layer}.self_share": self_s.get(layer, 0.0) / total for layer in LAYERS})
    else:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ctx.info.update({"workload": workload, "size": size, "seed": seed, "wall_s": now() - t,
                     "filled_from_companions": filled_from, "failures": ctx.ledger.failures})
    return metrics, ctx.ledger, ctx.info, ctx.tracer
