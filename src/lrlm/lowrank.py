"""Low-rank factor pairs, LoRA adapters, alpha-blend layers, and SVD
decomposition of dense weights or whole models.

Orientation is fixed as down-then-up: y = up @ (down @ x), with down = V_r^T
(applied first) and up = U_r S_r when factors come from an SVD.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import linalg, thread_cap
from .quant import QuantizedMatrix, dequantize_rows
from .transformer import (
    BlendLinear,
    DecoderModel,
    DenseLinear,
    Embedding,
    Linear,
    LoraLinear,
    LowRankEmbedding,
    LowRankLinear,
    ModelError,
    QuantizedLinear,
)

__all__ = [
    "LowRankFactors",
    "lr_param_count",
    "decompose_linear",
    "decompose_model",
    "attach_adapters",
    "lora_merge",
    "merge_model",
    "blend_model",
    "collapse_blend",
]


@dataclass
class LowRankFactors:
    """Factor pair of a rank-r linear map: down (r x fan_in), up (fan_out x r)."""

    down: np.ndarray
    up: np.ndarray

    def __post_init__(self):
        if self.down.ndim != 2 or self.up.ndim != 2 or self.down.shape[0] != self.up.shape[1]:
            raise ModelError(
                f"inconsistent factors: down {self.down.shape}, up {self.up.shape}"
            )

    @property
    def rank(self) -> int:
        return self.down.shape[0]

    @property
    def fan_in(self) -> int:
        return self.down.shape[1]

    @property
    def fan_out(self) -> int:
        return self.up.shape[0]

    def param_count(self) -> int:
        return self.down.size + self.up.size


def lr_param_count(r: int, fan_in: int, fan_out: int) -> int:
    return r * (fan_in + fan_out)


def decompose_linear(w: np.ndarray, r: int) -> LowRankFactors:
    """Rank-r SVD factors of a dense weight.

    Where 2 * (r + linalg.SKETCH_OVERSAMPLE) <= min(w.shape) the factors come
    from a seeded randomized sketch (linalg.sketched_svd): near-optimal rather
    than exact, and identical for identical w and r. Smaller matrices get the
    exact truncated SVD, the Eckart-Young optimum.
    """
    u_sigma, v_t = linalg.sketched_svd(w, r)
    return LowRankFactors(down=v_t, up=u_sigma)


def _decompose_backend(mat, r: int):
    if mat.weight is None or mat.down is not None:
        raise ModelError(f"{mat.name}: cannot decompose a {mat.kind} matrix")
    w = mat.weight.data
    if isinstance(w, QuantizedMatrix):
        w = dequantize_rows(w, dtype=np.float32)
    embedding = isinstance(mat, Embedding)
    if embedding:
        w = w.T  # a (vocab, dim) table is the transpose of its linear-equivalent weight
    if r >= min(w.shape):
        raise ModelError(f"{mat.name}: rank {r} does not reduce a {w.shape} matrix")
    f = decompose_linear(w, r)
    return (LowRankEmbedding if embedding else LowRankLinear)(mat.name, f.down, f.up)


def decompose_model(
    model: DecoderModel,
    r: int,
    worker_count: int | None = None,
    targets=None,
) -> DecoderModel:
    """Replace every targeted matrix (by default all, the embedding table
    included) with its rank-r SVD factors.

    Matrices are decomposed independently (one worker each, pool size capped by
    worker_count / LRLM_THREADS); the result is bit-stable regardless of
    scheduling because each matrix is reassembled under its own key.
    """
    targets = tuple(targets or ("wq", "wk", "wv", "wo", "wu", "wg", "wd", "we", "wh"))
    workers = worker_count if worker_count is not None else thread_cap()
    jobs = model.named_matrices(targets)

    def run(key_mat):
        key, mat = key_mat
        try:
            return key, _decompose_backend(mat, r)
        except Exception as exc:  # re-raised with the matrix name below
            return key, exc

    if workers > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            done = dict(pool.map(run, jobs))
    else:
        done = dict(map(run, jobs))
    failures = sorted(k for k, res in done.items() if isinstance(res, Exception))
    if failures:
        raise ModelError(f"decomposition failed for {failures[0]}: {done[failures[0]]}") from done[failures[0]]
    return model.map_matrices(lambda mat: done[mat.name], targets)


# ---------------------------------------------------------------------------
# LoRA
# ---------------------------------------------------------------------------


def _check_rank(mat: Linear, r: int):
    if r >= min(mat.fan_in, mat.fan_out):
        raise ModelError(f"{mat.name}: rank {r} must be < min(fan_in, fan_out)")


def attach_adapters(model: DecoderModel, r: int, targets=("wq", "wv"), seed: int = 0) -> DecoderModel:
    """Wrap targeted dense/quantized matrices with trainable low-rank deltas.

    The base weight is frozen; down is gaussian(0.02), up starts at zero so the
    adapter is initially the identity delta.
    """
    targets = tuple(targets)
    if "we" in targets:
        raise ModelError("adapters on the embedding lookup are not supported")
    counter = itertools.count(1)

    def wrap(mat):
        i = next(counter)
        if mat.kind not in ("dense", "quantized"):
            raise ModelError(f"{mat.name}: adapters need a dense or quantized base, found {mat.kind}")
        _check_rank(mat, r)
        name, w = mat.name + ".base", mat.weight.data
        base = QuantizedLinear(name, w) if mat.kind == "quantized" else DenseLinear(name, w, trainable=False)
        down = linalg.seeded_random(r, mat.fan_in, seed * 7919 + i, "gaussian", std=0.02, dtype=model.dtype)
        return LoraLinear(mat.name, base, down, np.zeros((mat.fan_out, r), dtype=model.dtype))

    return model.map_matrices(wrap, targets)


def _folded(adapter: Linear) -> np.ndarray:
    """W + up @ down, a new array; the adapter is left as it is."""
    if isinstance(adapter.weight.data, QuantizedMatrix):
        raise ModelError(
            f"{adapter.name}: cannot merge onto a quantized base; dequantize it explicitly first"
        )
    return adapter.weight.data + linalg.matmul(adapter.up.data, adapter.down.data)


def lora_merge(adapter: Linear) -> np.ndarray:
    """Fold the delta into the base: W + up @ down. Full-precision bases only.

    The adapter itself switches to the folded weight, inference only.
    """
    if adapter.merged:
        raise ModelError(f"{adapter.name}: adapter already merged")
    merged = _folded(adapter)
    adapter.merged = True
    adapter._merged_weight = merged
    return merged


def merge_model(model: DecoderModel) -> DecoderModel:
    """A model with every LoRA adapter folded into a plain dense matrix; the
    input model and its adapters are not changed."""
    return model.map_matrices(lambda m: DenseLinear(m.name, _folded(m)) if m.kind == "lora" else m)


# ---------------------------------------------------------------------------
# Alpha-blend transition layers
# ---------------------------------------------------------------------------


def collapse_blend(model: DecoderModel, step: int) -> DecoderModel:
    """Drop the frozen bases of blend layers whose schedule has reached zero.

    Once alpha hits 0 the layer is exactly its low-rank path, so the result is
    a plain low-rank model. Layers still mid-schedule are left untouched.
    """
    def fold(mat):
        if mat.kind == "blend" and mat.alpha(step) == 0.0:
            return LowRankLinear(mat.name, mat.down.data, mat.up.data)
        return mat

    return model.map_matrices(fold)


def blend_model(
    model: DecoderModel,
    r: int,
    start_alpha: float = 0.9,
    end_step: int = 100,
    targets=("wq", "wk", "wv", "wo", "wu", "wg", "wd"),
    seed: int = 0,
) -> DecoderModel:
    """Put trainable low-rank factors on a parallel path of frozen dense weights."""
    targets = tuple(targets)
    if "we" in targets:
        raise ModelError("blend layers on the embedding lookup are not supported")
    counter = itertools.count(1)

    def wrap(mat):
        i = seed * 104729 + next(counter)
        if mat.kind != "dense":
            raise ModelError(f"{mat.name}: blend needs a dense base, found {mat.kind}")
        _check_rank(mat, r)
        down = linalg.seeded_random(r, mat.fan_in, i, "gaussian", std=0.02, dtype=model.dtype)
        up = linalg.seeded_random(mat.fan_out, r, i + 500000, "gaussian", std=0.02, dtype=model.dtype)
        return BlendLinear(mat.name, mat.weight.data, down, up, start_alpha, end_step)

    return model.map_matrices(wrap, targets)
