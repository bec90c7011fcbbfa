"""AdamW optimization, the pretraining/finetuning methods as training loops,
gradient checking, and byte-level corpus handling.

Working parameters stay float32; the optimizer keeps float64 master copies and
moment buffers, so a fixed seed yields a bit-identical loss trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .transformer import (
    STORE_ALL,
    DecoderModel,
    RecomputePolicy,
    cross_entropy_grad,
    cross_entropy_loss,
    model_backward,
    model_forward,
)

__all__ = [
    "TrainError",
    "AdamWState",
    "TrainConfig",
    "adamw_step",
    "configure_trainable",
    "train_step",
    "train",
    "TrainResult",
    "grad_check",
    "GradCheckReport",
    "byte_tokenize",
    "byte_detokenize",
    "BYTE_VOCAB",
    "unigram_entropy",
    "sample_batches",
]

# Byte identity mapping plus reserved specials (pad, bos).
BYTE_VOCAB = 258
PAD_TOKEN = 256
BOS_TOKEN = 257

METHODS = ("dense", "method1", "method2", "method3", "lora_finetune")


class TrainError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01
    steps: int = 100
    batch: int = 4
    seq: int = 64
    method: str = "dense"
    recompute: RecomputePolicy = STORE_ALL
    seed: int = 0
    micro_batches: int = 1

    def __post_init__(self):
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise TrainError("betas must lie in (0, 1)")
        if self.lr <= 0:
            raise TrainError("lr must be > 0")
        if self.method not in METHODS:
            raise TrainError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.batch % self.micro_batches:
            raise TrainError("batch must divide evenly into micro_batches")


class AdamWState:
    """Per-tensor momentum/variance plus float64 master copies of the weights."""

    def __init__(self, params: dict):
        self.step = 0
        self.m = {k: np.zeros(p.data.shape, dtype=np.float64) for k, p in params.items()}
        self.v = {k: np.zeros(p.data.shape, dtype=np.float64) for k, p in params.items()}
        self.master = {k: p.data.astype(np.float64) for k, p in params.items()}


def adamw_step(state: AdamWState, params: dict, grads: dict, config: TrainConfig):
    """One decoupled-weight-decay Adam update over the given gradient set.

    Masters update in float64; working copies are rounded back to the
    parameter dtype. Raises naming the tensor on any non-finite gradient.
    """
    state.step += 1
    t = state.step
    b1, b2 = config.beta1, config.beta2
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t
    for name in sorted(grads):
        g = grads[name].astype(np.float64)
        if not np.all(np.isfinite(g)):
            raise TrainError(f"non-finite gradient for tensor {name}")
        if name not in state.m:
            raise TrainError(f"optimizer state missing for tensor {name}")
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * np.square(g)
        m_hat = m / bias1
        v_hat = v / bias2
        w = state.master[name]
        w -= config.lr * (m_hat / (np.sqrt(v_hat) + config.eps) + config.weight_decay * w)
        params[name].data[...] = w.astype(params[name].data.dtype)


def configure_trainable(model: DecoderModel, method: str) -> DecoderModel:
    """Set trainable flags to match the training method; returns the model.

    A full-rank weight that shares its matrix with a factored term (a LoRA or
    blend base) is frozen under every method. lora_finetune trains only those
    factored terms; every other method trains all remaining tensors.
    """
    if method not in METHODS:
        raise TrainError(f"unknown method {method!r}")
    paired = [m for _, m in model.named_matrices() if m.paired]
    factors = {p for m in paired for p in (m.down, m.up)}
    bases = {m.weight for m in paired}
    for p in model.named_parameters().values():
        p.trainable = p in factors if method == "lora_finetune" else p not in bases
    return model


def _check_method_layers(model: DecoderModel, method: str):
    kinds = {m.kind for _, m in model.named_matrices()}
    if method == "lora_finetune" and "lora" not in kinds:
        raise TrainError("lora_finetune requires adapters on at least one matrix")
    if method == "method3" and "blend" not in kinds:
        raise TrainError("method3 requires blend layers")
    if method in ("method1", "method2") and "lowrank" not in kinds:
        raise TrainError(f"{method} requires low-rank layers")


def train_step(model: DecoderModel, batch, config: TrainConfig, state: AdamWState) -> float:
    """Forward (with the recompute policy), backward, one AdamW update.

    Gradients from micro-batches are summed and averaged by micro-batch count.
    Frozen tensors are byte-identical before and after.
    """
    _check_method_layers(model, config.method)
    inputs, targets = batch
    inputs = np.asarray(inputs)
    targets = np.asarray(targets)
    step = state.step
    micro = config.micro_batches
    if inputs.ndim != 2 or inputs.shape != targets.shape:
        raise TrainError(f"batch arrays must be 2-D and congruent, got {inputs.shape} / {targets.shape}")

    total: dict[str, np.ndarray] = {}
    loss_sum = 0.0
    peak = 0
    for chunk_in, chunk_tgt in zip(np.array_split(inputs, micro), np.array_split(targets, micro)):
        logits, tape = model_forward(model, chunk_in, config.recompute, step=step)
        loss_sum += cross_entropy_loss(logits, chunk_tgt)
        grads = model_backward(model, tape, cross_entropy_grad(logits, chunk_tgt), step=step)
        peak = max(peak, tape.peak_bytes)
        for k, g in grads.items():
            if k in total:
                total[k] += g
            else:
                total[k] = g
    if micro > 1:
        for g in total.values():
            g /= micro
    adamw_step(state, model.trainable_parameters(), total, config)
    train_step.last_peak_tape_bytes = peak
    return loss_sum / micro


train_step.last_peak_tape_bytes = 0


def _current_alpha(model: DecoderModel, step: int) -> float:
    blends = [m for _, m in model.named_matrices() if m.kind == "blend"]
    return blends[0].alpha(step) if blends else 0.0


@dataclass
class TrainResult:
    losses: list = field(default_factory=list)
    metrics_lines: list = field(default_factory=list)

    def metrics_csv(self) -> str:
        header = "step,loss,lr,alpha,peak_tape_bytes"
        return "\n".join([header] + self.metrics_lines) + "\n"


def train(model: DecoderModel, tokens: np.ndarray, config: TrainConfig,
          stop_below: float | None = None) -> TrainResult:
    """Run config.steps optimization steps over seeded corpus windows.

    stop_below ends training early once the step loss drops under it.
    """
    configure_trainable(model, config.method)
    state = AdamWState(model.trainable_parameters())
    batches = sample_batches(tokens, config.batch, config.seq, config.seed)
    result = TrainResult()
    for step_idx in range(config.steps):
        batch = next(batches)
        loss = train_step(model, batch, config, state)
        alpha = _current_alpha(model, step_idx)
        result.losses.append(loss)
        result.metrics_lines.append(
            f"{step_idx},{loss:.10f},{config.lr:.6g},{alpha:.6f},{train_step.last_peak_tape_bytes}"
        )
        if stop_below is not None and loss < stop_below:
            break
    return result


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_tensor: str
    checked: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tol


def grad_check(model: DecoderModel, batch, tol: float = 1e-3, step: int = 0,
               samples_per_tensor: int = 8, fd_step: float = 1e-4, seed: int = 0) -> GradCheckReport:
    """Central finite differences (float64) against the analytic gradients.

    Entries are sampled per tensor; relative error uses an absolute floor so
    near-zero derivatives do not blow up the ratio.
    """
    inputs, targets = batch
    m64 = model.astype(np.float64)
    # Mirror the caller's freeze pattern.
    params64 = m64.named_parameters()
    for name, p in model.named_parameters().items():
        params64[name].trainable = p.trainable

    logits, tape = model_forward(m64, inputs, step=step)
    grads = model_backward(m64, tape, cross_entropy_grad(logits, targets), step=step)

    rng = np.random.default_rng(seed)
    worst = ("", 0.0)
    checked = 0
    for name, param in sorted(m64.trainable_parameters().items()):
        flat = param.data.ravel()
        gflat = grads[name].ravel()
        idxs = rng.choice(flat.size, size=min(samples_per_tensor, flat.size), replace=False)
        for i in idxs:
            original = flat[i]
            flat[i] = original + fd_step
            up = cross_entropy_loss(model_forward(m64, inputs, step=step)[0], targets)
            flat[i] = original - fd_step
            down = cross_entropy_loss(model_forward(m64, inputs, step=step)[0], targets)
            flat[i] = original
            fd = (up - down) / (2.0 * fd_step)
            rel = float(abs(gflat[i] - fd) / max(abs(fd), abs(gflat[i]), 1e-6))
            checked += 1
            if rel > worst[1]:
                worst = (name, rel)
    return GradCheckReport(max_rel_error=worst[1], worst_tensor=worst[0], checked=checked, tol=tol)


# ---------------------------------------------------------------------------
# Corpus handling
# ---------------------------------------------------------------------------


def byte_tokenize(corpus: bytes) -> np.ndarray:
    """Identity byte mapping into int32 token ids."""
    return np.frombuffer(corpus, dtype=np.uint8).astype(np.int32)


def byte_detokenize(tokens: np.ndarray) -> bytes:
    tokens = np.asarray(tokens)
    if tokens.size and (tokens.min() < 0 or tokens.max() > 255):
        raise TrainError("detokenize: token outside byte range")
    return tokens.astype(np.uint8).tobytes()


def unigram_entropy(tokens: np.ndarray) -> float:
    """Entropy (nats) of the empirical unigram distribution."""
    counts = np.bincount(np.asarray(tokens).ravel())
    probs = counts[counts > 0] / counts.sum()
    return float(-np.sum(probs * np.log(probs)))


def sample_batches(tokens: np.ndarray, batch: int, seq: int, seed: int):
    """Infinite iterator of (inputs, targets) windows; targets shift by one."""
    tokens = np.asarray(tokens)
    if tokens.size <= seq:
        raise TrainError(f"corpus of {tokens.size} tokens is too short for seq {seq}")
    limit = tokens.size - seq - 1
    gen = linalg.SplitMix64(seed)

    def _iter():
        while True:
            offsets = (gen.next_uint64(batch) % np.uint64(limit + 1)).astype(np.int64)
            inputs = np.stack([tokens[o : o + seq] for o in offsets])
            targets = np.stack([tokens[o + 1 : o + seq + 1] for o in offsets])
            yield inputs, targets

    return _iter()
