"""Independent single-vector references that the tests compare the batched
decoder against; the library itself never calls them."""

import math

import numpy as np

from lrlm import linalg
from lrlm.transformer import ModelError, _mm, _silu, softmax


def lr_forward(down: np.ndarray, up: np.ndarray, x: np.ndarray) -> np.ndarray:
    """up @ (down @ x) for one vector; 2*r*(fan_in + fan_out) multiplies, up@down never formed."""
    x = np.asarray(x)
    if x.shape[0] != down.shape[1]:
        raise ModelError(f"lr_forward dimension mismatch: fan_in {down.shape[1]}, x {x.shape}")
    return linalg.matvec(up, linalg.matvec(down, x))


def rope_apply(v: np.ndarray, position: int, base: float = 10000.0) -> np.ndarray:
    """Rotary position encoding of a single head vector (even length).

    Pair (v[2i], v[2i+1]) rotates by position * base**(-2i/d).
    """
    v = np.asarray(v)
    d = v.shape[-1]
    if d % 2:
        raise ModelError(f"rope needs an even dimension, got {d}")
    half = d // 2
    even = v[..., 0::2]
    odd = v[..., 1::2]
    angles = position * (base ** (-2.0 * np.arange(half) / d))
    c = np.cos(angles).astype(v.dtype)
    s = np.sin(angles).astype(v.dtype)
    out = np.empty_like(v)
    out[..., 0::2] = even * c - odd * s
    out[..., 1::2] = even * s + odd * c
    return out


def attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Single-head attention on (head_dim, seq) grids.

    Scores are q.T @ k / sqrt(d) plus the additive mask; each softmax row sums
    to one over the allowed positions. Returns the (head_dim, seq) context.
    """
    q = np.asarray(q)
    k = np.asarray(k)
    v = np.asarray(v)
    if q.shape != k.shape or q.shape[1] != v.shape[1]:
        raise ModelError(f"attention shape mismatch: q{q.shape} k{k.shape} v{v.shape}")
    d = q.shape[0]
    scores = _mm(q.T, k) / np.asarray(math.sqrt(d), dtype=q.dtype)
    if mask is not None:
        scores = scores + mask
    probs = softmax(scores, axis=-1)
    return _mm(v, probs.T)


def ffn_forward(x: np.ndarray, w_up: np.ndarray, w_gate: np.ndarray, w_down: np.ndarray) -> np.ndarray:
    """Gated feed-forward: w_down @ (w_up x * SiLU(w_gate x))."""
    up = _mm(np.asarray(x)[None, :], np.asarray(w_up).T)[0]
    gate = _mm(np.asarray(x)[None, :], np.asarray(w_gate).T)[0]
    return _mm((up * _silu(gate))[None, :], np.asarray(w_down).T)[0]


def sigmoid_masked(x: np.ndarray) -> np.ndarray:
    """Stable logistic by boolean masks: 1/(1+e^-x) where x >= 0, e^x/(1+e^x) elsewhere."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax_three_temps(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-shifted softmax as max, exp(z - max) and the normalized quotient."""
    m = np.max(z, axis=axis, keepdims=True)
    e = np.exp(z - m)
    return e / np.sum(e, axis=axis, keepdims=True)


def softmax_backward(s: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """d loss / dz = s * (ds - sum(ds * s)) over the last axis, for s = softmax(z)."""
    return s * (ds - np.sum(ds * s, axis=-1, keepdims=True))
