"""Decoder-only transformer with hand-written backward, one term-sum linear
map behind every weight (dense / low-rank / LoRA / quantized / alpha-blend),
recompute policies, and KV-cached greedy decoding.

Layout conventions: activations are (batch, seq, dim); a weight is stored
(fan_out, fan_in) and applied as x @ W.T. Per-head views reshape dim into
(heads, head_dim) contiguously.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .quant import QuantizedMatrix, qmatmul, qmatmul_t, quantize_rows

__all__ = [
    "ModelConfig",
    "LayerSpec",
    "ModelError",
    "Param",
    "Linear",
    "Embedding",
    "DenseLinear",
    "LowRankLinear",
    "LoraLinear",
    "BlendLinear",
    "QuantizedLinear",
    "RecomputePolicy",
    "STORE_ALL",
    "PER_LAYER",
    "selective",
    "DecoderTape",
    "DecoderModel",
    "KvCache",
    "MATRIX_NAMES",
    "softmax",
    "rmsnorm",
    "cross_entropy_loss",
    "cross_entropy_grad",
    "build_model",
    "model_forward",
    "model_backward",
    "kv_decode_step",
    "greedy_decode",
    "quantize_model",
]

RMSNORM_EPS = 1e-5
INIT_STD = 0.02

MATRIX_NAMES = ("wq", "wk", "wv", "wo", "wu", "wg", "wd", "we", "wh")
LAYER_MATRICES = ("wq", "wk", "wv", "wo", "wu", "wg", "wd")


class ModelError(ValueError):
    pass


_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


def _from_dict(cls, d, what: str):
    """cls(**d) for a JSON object, with every key known, present and typed."""
    if not isinstance(d, dict):
        raise ModelError(f"{what} must be an object, got {type(d).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(d) - set(fields))
    missing = sorted(k for k, f in fields.items() if f.default is dataclasses.MISSING and k not in d)
    problems = [f"{label} keys {keys}" for label, keys in (("unknown", unknown), ("missing", missing)) if keys]
    if problems:
        raise ModelError(f"{what}: " + ", ".join(problems))
    for k, v in d.items():
        if isinstance(v, bool) or not isinstance(v, _JSON_TYPES[fields[k].type]):
            raise ModelError(f"{what}: {k} must be {fields[k].type}, got {v!r}")
    return cls(**d)


@dataclass(frozen=True)
class ModelConfig:
    vocab: int
    dim: int
    heads: int
    layers: int
    ffn_dim: int
    max_seq: int
    rope_base: float = 10000.0

    def __post_init__(self):
        for name in ("vocab", "dim", "heads", "ffn_dim", "max_seq"):
            if getattr(self, name) < 1:
                raise ModelError(f"{name} must be >= 1")
        if self.layers < 0:  # 0 layers allowed for degenerate counting configs
            raise ModelError("layers must be >= 0")
        if self.dim % self.heads:
            raise ModelError(f"dim {self.dim} not divisible by heads {self.heads}")
        if self.head_dim % 2:
            raise ModelError(f"head_dim {self.head_dim} must be even for rotary embedding")

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        return _from_dict(ModelConfig, d, "model config")

    def to_dict(self) -> dict:
        return {
            "vocab": self.vocab,
            "dim": self.dim,
            "heads": self.heads,
            "layers": self.layers,
            "ffn_dim": self.ffn_dim,
            "max_seq": self.max_seq,
            "rope_base": self.rope_base,
        }


@dataclass(frozen=True)
class LayerSpec:
    """Implementation choice for one named weight matrix."""

    kind: str = "dense"  # dense | lowrank | lora | quantized | blend
    r: int = 0
    bits: int = 8
    start_alpha: float = 1.0
    end_step: int = 1

    def __post_init__(self):
        if self.kind not in ("dense", "lowrank", "lora", "quantized", "blend"):
            raise ModelError(f"unknown layer kind {self.kind!r}")
        if self.kind in ("lowrank", "lora", "blend") and self.r < 1:
            raise ModelError(f"{self.kind} spec needs r >= 1")
        if self.kind == "quantized" and self.bits not in (4, 8):
            raise ModelError("quantized spec needs bits in {4, 8}")
        if self.kind == "blend" and not 0.0 <= self.start_alpha <= 1.0:
            raise ModelError("blend start_alpha must lie in [0, 1]")

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.kind in ("lowrank", "lora", "blend"):
            d["r"] = self.r
        if self.kind == "quantized":
            d["bits"] = self.bits
        if self.kind == "blend":
            d["start_alpha"] = self.start_alpha
            d["end_step"] = self.end_step
        return d

    @staticmethod
    def from_dict(d: dict) -> "LayerSpec":
        return _from_dict(LayerSpec, d, "layer spec")


class Param:
    __slots__ = ("name", "data", "trainable")

    def __init__(self, name: str, data: np.ndarray, trainable: bool = True):
        self.name = name
        self.data = data
        self.trainable = trainable

    def __repr__(self):
        return f"Param({self.name}, shape={self.data.shape}, trainable={self.trainable})"


def _accumulate(grads: dict, param: Param, g: np.ndarray):
    if not param.trainable:
        return
    if param.name in grads:
        grads[param.name] += g
    else:
        grads[param.name] = g


def _flat2(x: np.ndarray) -> np.ndarray:
    return x.reshape(-1, x.shape[-1])


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matmul with float64 accumulation, result in the promoted input dtype."""
    out = a.astype(np.float64, copy=False) @ b.astype(np.float64, copy=False)
    return out.astype(np.result_type(a.dtype, b.dtype), copy=False)


# ---------------------------------------------------------------------------
# Weight matrices as sums of terms
# ---------------------------------------------------------------------------


class _Terms:
    """A weight matrix held as at most one full-rank term and one factored term.

    The full-rank term `weight` is a Param holding a dense array or a
    QuantizedMatrix; the factored term is the pair `down` (r x fan_in), `up`
    (fan_out x r). A full-rank term that shares its matrix with a factored
    term (a LoRA or blend base) is frozen.
    """

    merged = None  # True/False on LoRA adapters only
    _merged_weight = None

    def __init__(self, name: str, spec: LayerSpec, weight=None, down=None, up=None):
        if down is not None and down.data.shape[0] != up.data.shape[1]:
            raise ModelError(f"{name}: rank mismatch {down.data.shape} vs {up.data.shape}")
        self.name = name
        self.spec = spec
        self.weight = weight
        self.down = down
        self.up = up
        if self.paired:
            weight.trainable = False

    @property
    def paired(self) -> bool:
        """True when a full-rank term shares the matrix with a factored term."""
        return self.weight is not None and self.down is not None

    @property
    def kind(self) -> str:
        return self.spec.kind

    def terms(self) -> list:
        return [p for p in (self.weight, self.down, self.up) if p is not None]

    def params(self) -> list:
        """The terms an optimizer can update (quantized terms are code grids)."""
        return [p for p in self.terms() if not isinstance(p.data, QuantizedMatrix)]

    def astype(self, dtype):
        def cast(p):
            if p is None or isinstance(p.data, QuantizedMatrix):
                return p
            return Param(p.name, p.data.astype(dtype), p.trainable)

        clone = type(self)(self.name, self.spec, cast(self.weight), cast(self.down), cast(self.up))
        clone.merged = self.merged
        if self._merged_weight is not None:
            clone._merged_weight = self._merged_weight.astype(dtype)
        return clone


class Linear(_Terms):
    """y = a * W(x) + b * up @ (down @ x), x (..., fan_in) -> (..., fan_out).

    The coefficients are 1 and 1, or alpha(step) and 1 - alpha(step) for a
    blend, where alpha decays linearly from start_alpha to 0 at end_step and
    stays clamped. up @ down is never materialized and a quantized W is never
    dequantized. A merged LoRA adapter runs its folded weight, inference only.
    """

    @property
    def fan_out(self):
        return self.up.data.shape[0] if self.weight is None else _rows_cols(self.weight.data)[0]

    @property
    def fan_in(self):
        return self.down.data.shape[1] if self.weight is None else _rows_cols(self.weight.data)[1]

    @property
    def start_alpha(self):
        return self.spec.start_alpha

    @property
    def end_step(self):
        return self.spec.end_step

    def alpha(self, step: int) -> float:
        if step < 0:
            raise ModelError("step must be >= 0")
        frac = 1.0 - step / self.spec.end_step
        return self.spec.start_alpha * min(max(frac, 0.0), 1.0)

    def _coefficients(self, step: int):
        if self.spec.kind != "blend":
            return 1.0, 1.0
        a = self.alpha(step)
        return a, 1.0 - a

    def forward(self, x, step: int = 0):
        if self.merged:
            return _mm(x, self._merged_weight.T)
        a, b = self._coefficients(step)
        y = None
        if self.weight is not None and a != 0.0:
            w = self.weight.data
            if isinstance(w, QuantizedMatrix):
                y = qmatmul(w, x).astype(x.dtype, copy=False)
            else:
                y = _mm(x, w.T)
            if a != 1.0:
                y = a * y
        if self.down is not None:
            low = _mm(_mm(x, self.down.data.T), self.up.data.T)
            if b != 1.0:
                low = b * low
            y = low if y is None else y + low
        return y

    def backward(self, x, dy, grads, step: int = 0):
        if self.merged:
            raise ModelError(f"{self.name}: merged adapter is inference-only")
        a, b = self._coefficients(step)
        dx = None
        if self.down is not None:
            dy_low = dy if b == 1.0 else b * dy
            hidden = _mm(x, self.down.data.T)
            _accumulate(grads, self.up, _mm(_flat2(dy_low).T, _flat2(hidden)))
            dh = _mm(dy_low, self.up.data)
            _accumulate(grads, self.down, _mm(_flat2(dh).T, _flat2(x)))
            dx = _mm(dh, self.down.data)
        if self.weight is not None and a != 0.0:
            w = self.weight.data
            if isinstance(w, QuantizedMatrix):
                dx_full = qmatmul_t(w, dy).astype(dy.dtype, copy=False)
            else:
                if self.weight.trainable:  # only when alone, so its coefficient is 1
                    _accumulate(grads, self.weight, _mm(_flat2(dy).T, _flat2(x)))
                dx_full = _mm(dy, w)
            if a != 1.0:
                dx_full = a * dx_full
            dx = dx_full if dx is None else dx + dx_full
        return dx


def _rows_cols(w) -> tuple:
    return (w.rows, w.cols) if isinstance(w, QuantizedMatrix) else w.shape


def DenseLinear(name: str, weight: np.ndarray, trainable: bool = True) -> Linear:
    return Linear(name, LayerSpec(), weight=Param(name + ".weight", weight, trainable))


def LowRankLinear(name: str, down: np.ndarray, up: np.ndarray, trainable: bool = True) -> Linear:
    """Two narrow layers: y = up @ (down @ x)."""
    return Linear(name, LayerSpec("lowrank", r=down.shape[0]),
                  down=Param(name + ".down", down, trainable), up=Param(name + ".up", up, trainable))


def QuantizedLinear(name: str, q: QuantizedMatrix) -> Linear:
    """Frozen quantized weight, stored under the matrix name itself."""
    return Linear(name, LayerSpec("quantized", bits=q.bits), weight=Param(name, q, trainable=False))


def LoraLinear(name: str, base: Linear, down: np.ndarray, up: np.ndarray) -> Linear:
    """Frozen dense or quantized base plus a trainable delta: y = base(x) + up @ (down @ x)."""
    lin = Linear(name, LayerSpec("lora", r=down.shape[0]), weight=base.weight,
                 down=Param(name + ".down", down), up=Param(name + ".up", up))
    lin.merged = False
    return lin


def BlendLinear(name: str, base_weight: np.ndarray, down, up, start_alpha: float, end_step: int) -> Linear:
    """y = alpha(step) * base(x) + (1 - alpha(step)) * up @ (down @ x), base frozen."""
    spec = LayerSpec("blend", r=down.shape[0], start_alpha=start_alpha, end_step=end_step)
    return Linear(name, spec, weight=Param(name + ".base", base_weight, trainable=False),
                  down=Param(name + ".down", down), up=Param(name + ".up", up))


class Embedding(_Terms):
    """Token lookup from a dense (vocab, dim) table or from factors shaped like
    a vocab -> dim linear: row(t) = down.T[t] @ up.T."""

    def forward(self, tokens):
        if self.weight is not None:
            return self.weight.data[tokens]
        return _mm(self.down.data.T[tokens], self.up.data.T)

    def backward(self, tokens, dx, grads):
        if self.weight is not None:
            if self.weight.trainable:
                g = np.zeros_like(self.weight.data)
                np.add.at(g, tokens.ravel(), _flat2(dx))
                _accumulate(grads, self.weight, g)
            return
        rows = self.down.data.T[tokens]
        _accumulate(grads, self.up, _mm(_flat2(dx).T, _flat2(rows)))
        drows = _mm(dx, self.up.data)
        gdown = np.zeros_like(self.down.data.T)
        np.add.at(gdown, tokens.ravel(), _flat2(drows))
        _accumulate(grads, self.down, gdown.T)


def DenseEmbedding(name: str, weight: np.ndarray, trainable: bool = True) -> Embedding:
    return Embedding(name, LayerSpec(), weight=Param(name + ".weight", weight, trainable))


def LowRankEmbedding(name: str, down: np.ndarray, up: np.ndarray, trainable: bool = True) -> Embedding:
    return Embedding(name, LayerSpec("lowrank", r=down.shape[0]),
                     down=Param(name + ".down", down, trainable), up=Param(name + ".up", up, trainable))


# ---------------------------------------------------------------------------
# Elementwise pieces
# ---------------------------------------------------------------------------


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    e = z - np.max(z, axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= np.sum(e, axis=axis, keepdims=True)
    return e


def _softmax_backward(s: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """d loss / dz from s = softmax(z) and ds = d loss / ds, written into ds; s is never written."""
    ds -= np.sum(ds * s, axis=-1, keepdims=True)
    return np.multiply(ds, s, out=ds)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below, so exp never overflows."""
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e)
    return np.divide(out, np.add(e, 1.0, out=e), out=out)


def _silu(x: np.ndarray) -> np.ndarray:
    return x * _sigmoid(x)


def rmsnorm(x: np.ndarray, gain: np.ndarray, eps: float = RMSNORM_EPS) -> np.ndarray:
    """x_i / sqrt(mean(x^2) + eps) * gain_i over the last axis."""
    x = np.asarray(x)
    ms = np.mean(np.square(x, dtype=np.float64), axis=-1, keepdims=True)
    inv = (1.0 / np.sqrt(ms + eps)).astype(x.dtype)
    return x * inv * gain


def _rmsnorm_backward(x, gain_param: Param, dy, grads, eps: float = RMSNORM_EPS):
    n = x.shape[-1]
    ms = np.mean(np.square(x, dtype=np.float64), axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(ms + eps)
    xhat = x * inv.astype(x.dtype)
    if gain_param.trainable:
        _accumulate(grads, gain_param, np.sum(_flat2(dy * xhat), axis=0))
    gdy = dy * gain_param.data
    inner = np.sum((gdy * x).astype(np.float64), axis=-1, keepdims=True)
    dx = gdy * inv.astype(x.dtype) - x * ((inner * inv**3) / n).astype(x.dtype)
    return dx


def _rope_tables(length: int, head_dim: int, base: float, dtype, offset: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """cos/sin rows for positions offset..offset + length, (length, head_dim / 2) each."""
    half = head_dim // 2
    freqs = base ** (-2.0 * np.arange(half, dtype=np.float64) / head_dim)
    angles = np.arange(offset, offset + length, dtype=np.float64)[:, None] * freqs[None, :]
    return np.cos(angles).astype(dtype), np.sin(angles).astype(dtype)


def _rope_rotate(x: np.ndarray, cos: np.ndarray, sin: np.ndarray, heads: int, sign: float):
    """Rotate adjacent pairs of each head vector; sign -1 applies the inverse."""
    shape = x.shape
    d = shape[-1] // heads
    xh = x.reshape(*shape[:-1], heads, d // 2, 2)
    even = xh[..., 0]
    odd = xh[..., 1]
    # cos/sin are (L, d/2); broadcast over batch and heads.
    c = cos.reshape(cos.shape[0], 1, cos.shape[1])
    s = sin.reshape(sin.shape[0], 1, sin.shape[1]) * sign
    out = np.empty_like(xh)
    out[..., 0] = even * c - odd * s
    out[..., 1] = even * s + odd * c
    return out.reshape(shape)


def cross_entropy_loss(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean over positions of -log softmax(logits)[target], log-sum-exp stabilized."""
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets)
    flat = logits.reshape(-1, logits.shape[-1])
    tgt = targets.reshape(-1)
    m = flat.max(axis=-1)
    lse = m + np.log(np.exp(flat - m[:, None]).sum(axis=-1))
    picked = flat[np.arange(flat.shape[0]), tgt]
    return float(np.mean(lse - picked))


def cross_entropy_grad(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """d loss / d logits for the mean cross entropy above, in the logits dtype."""
    probs = softmax(np.asarray(logits, dtype=np.float64), axis=-1)
    flat = probs.reshape(-1, probs.shape[-1])
    tgt = np.asarray(targets).reshape(-1)
    flat[np.arange(flat.shape[0]), tgt] -= 1.0
    flat /= flat.shape[0]
    return probs.reshape(logits.shape).astype(np.asarray(logits).dtype)


def causal_mask(length: int, dtype, offset: int = 0) -> np.ndarray:
    """Additive (length, offset + length) mask for queries at positions
    offset.. over keys 0..offset + length: 0 up to the query, -inf after it."""
    return np.triu(np.full((length, offset + length), -np.inf, dtype=dtype), k=offset + 1)


# ---------------------------------------------------------------------------
# Recompute policies and the activation tape
# ---------------------------------------------------------------------------

_TAPE_KEYS = ("x_in", "norm1", "q", "k", "v", "qkT", "s", "res1", "norm2", "up", "gate")
_RECOMPUTABLE = frozenset({"qkT", "s"})


@dataclass(frozen=True)
class RecomputePolicy:
    kind: str  # store_all | per_layer | selective
    drop: frozenset = frozenset()

    def __post_init__(self):
        if self.kind not in ("store_all", "per_layer", "selective"):
            raise ModelError(f"unknown recompute policy {self.kind!r}")
        if self.kind == "selective" and not self.drop <= _RECOMPUTABLE:
            raise ModelError(f"selective drop set must be within {sorted(_RECOMPUTABLE)}")

    def kept_keys(self):
        if self.kind == "store_all":
            return _TAPE_KEYS
        if self.kind == "per_layer":
            return ("x_in",)
        return tuple(k for k in _TAPE_KEYS if k not in self.drop)


STORE_ALL = RecomputePolicy("store_all")
PER_LAYER = RecomputePolicy("per_layer")


def selective(drop=("qkT", "s")) -> RecomputePolicy:
    return RecomputePolicy("selective", frozenset(drop))


@dataclass
class DecoderTape:
    policy: RecomputePolicy
    tokens: np.ndarray
    cos: np.ndarray
    sin: np.ndarray
    mask: np.ndarray
    entries: list = field(default_factory=list)
    x_final: np.ndarray | None = None
    peak_bytes: int = 0

    def stored_bytes(self) -> int:
        total = sum(a.nbytes for e in self.entries for a in e.values())
        if self.x_final is not None:
            total += self.x_final.nbytes
        return total


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------


class DecoderLayer:
    def __init__(self, index: int, norm1: Param, norm2: Param, mats: dict):
        self.index = index
        self.norm1 = norm1
        self.norm2 = norm2
        for name in LAYER_MATRICES:
            setattr(self, name, mats[name])

    def matrices(self) -> dict:
        return {name: getattr(self, name) for name in LAYER_MATRICES}


def _check_targets(targets):
    for name in targets:
        if name not in MATRIX_NAMES:
            raise ModelError(f"unknown matrix name {name!r}; expected one of {MATRIX_NAMES}")


class DecoderModel:
    def __init__(self, config: ModelConfig, specs: dict, embed, layers, head, dtype=np.float32):
        self.config = config
        self.specs = specs
        self.embed = embed
        self.layers = layers
        self.head = head
        self.dtype = np.dtype(dtype)

    def named_matrices(self, targets=MATRIX_NAMES) -> list:
        """(path, backend) for every targeted weight matrix: embed, each layer's, head."""
        _check_targets(targets)
        out = [("embed", self.embed)] if "we" in targets else []
        for layer in self.layers:
            out.extend((f"layers.{layer.index}.{k}", m) for k, m in layer.matrices().items() if k in targets)
        if "wh" in targets:
            out.append(("head", self.head))
        return out

    def map_matrices(self, fn, targets=MATRIX_NAMES) -> "DecoderModel":
        """A model whose targeted matrices are replaced by fn(backend), in walk
        order; specs follow the replaced backends, norms and the rest are shared."""
        _check_targets(targets)
        specs = dict(self.specs)

        def swap(name, mat):
            if name not in targets:
                return mat
            new = fn(mat)
            if new is not mat:
                specs[name] = new.spec
            return new

        embed = swap("we", self.embed)
        layers = [
            DecoderLayer(l.index, l.norm1, l.norm2, {k: swap(k, m) for k, m in l.matrices().items()})
            for l in self.layers
        ]
        head = swap("wh", self.head)
        return DecoderModel(self.config, specs, embed, layers, head, self.dtype)

    def named_parameters(self) -> dict:
        params = [p for _, m in self.named_matrices() for p in m.params()]
        params += [n for l in self.layers for n in (l.norm1, l.norm2)]
        return {p.name: p for p in params}

    def trainable_parameters(self) -> dict:
        return {k: v for k, v in self.named_parameters().items() if v.trainable}

    def param_count(self) -> int:
        return sum(p.data.size for p in self.named_parameters().values())

    def astype(self, dtype) -> "DecoderModel":
        out = self.map_matrices(lambda m: m.astype(dtype))
        for l in out.layers:
            l.norm1, l.norm2 = (Param(n.name, n.data.astype(dtype), n.trainable) for n in (l.norm1, l.norm2))
        out.dtype = np.dtype(dtype)
        return out

    def tensors(self) -> list:
        """(name, array or QuantizedMatrix) for every stored tensor, by name."""
        terms = [p for _, m in self.named_matrices() for p in m.terms()]
        terms += [n for l in self.layers for n in (l.norm1, l.norm2)]
        return sorted((p.name, p.data) for p in terms)

    def state_signature(self) -> bytes:
        """Byte digest of every stored tensor, for replica-equality checks."""
        h = hashlib.sha256()
        for name, data in self.tensors():
            h.update(name.encode())
            parts = (data.codes, data.scale, data.offset) if isinstance(data, QuantizedMatrix) else (data,)
            for a in parts:
                h.update(a.tobytes())
        return h.digest()


def _child_seed(seed: int, index: int) -> int:
    mixed = linalg.SplitMix64((seed * 0x9E3779B97F4A7C15 + index + 1) & 0xFFFFFFFFFFFFFFFF)
    return int(mixed.next_uint64(1)[0])


def _fan_shapes(config: ModelConfig, name: str) -> tuple[int, int]:
    n, m, t = config.dim, config.ffn_dim, config.vocab
    return {
        "wq": (n, n), "wk": (n, n), "wv": (n, n), "wo": (n, n),
        "wu": (m, n), "wg": (m, n), "wd": (n, m),
        "we": (n, t), "wh": (t, n),
    }[name]


def full_specs(specs: dict) -> dict:
    """A spec for every matrix name, dense where none is given."""
    _check_targets(specs)
    return {name: specs.get(name, LayerSpec()) for name in MATRIX_NAMES}


def _build_linear(path: str, spec: LayerSpec, shape: tuple, draw, stored_bits) -> Linear:
    (fan_out, fan_in), kind, r = shape, spec.kind, spec.r
    if kind in ("lowrank", "lora", "blend") and r >= min(shape):
        raise ModelError(f"{path}: rank {r} must be < min(fan_in, fan_out)")
    if kind == "dense":
        return DenseLinear(path, draw(path + ".weight", shape))
    if kind == "quantized":
        return QuantizedLinear(path, draw(path, shape, bits=spec.bits))
    if kind == "lora":
        # The spec does not say whether the base is quantized: a fresh model
        # gets a dense one, a checkpoint keeps the one it stored.
        bits = stored_bits(path + ".base")
        base = (QuantizedLinear(path + ".base", draw(path + ".base", shape, bits=bits)) if bits
                else DenseLinear(path + ".base", draw(path + ".base.weight", shape), trainable=False))
        # Zero-initialized up factor so the adapter starts as the identity delta.
        return LoraLinear(path, base, draw(path + ".down", (r, fan_in)), draw(path + ".up", (fan_out, r), "zeros"))
    down, up = draw(path + ".down", (r, fan_in)), draw(path + ".up", (fan_out, r))
    if kind == "lowrank":
        return LowRankLinear(path, down, up)
    return BlendLinear(path, draw(path + ".base", shape), down, up, spec.start_alpha, spec.end_step)


def assemble_model(config: ModelConfig, specs: dict, draw, dtype, stored_bits=lambda name: None) -> DecoderModel:
    """The model skeleton for complete specs, with every tensor supplied by
    draw(name, shape, init="normal", bits=None) in construction order."""
    emb = specs["we"]
    t, n = config.vocab, config.dim
    if emb.kind == "dense":
        embed = DenseEmbedding("embed", draw("embed.weight", (t, n)))
    elif emb.kind == "lowrank":
        embed = LowRankEmbedding("embed", draw("embed.down", (emb.r, t)), draw("embed.up", (n, emb.r)))
    else:
        raise ModelError(f"embedding supports dense or lowrank, not {emb.kind!r}")

    layers = []
    for i in range(config.layers):
        mats = {
            k: _build_linear(f"layers.{i}.{k}", specs[k], _fan_shapes(config, k), draw, stored_bits)
            for k in LAYER_MATRICES
        }
        norms = [Param(name, draw(name, (n,), "ones")) for name in (f"layers.{i}.norm1.gain", f"layers.{i}.norm2.gain")]
        layers.append(DecoderLayer(i, *norms, mats))

    head = _build_linear("head", specs["wh"], _fan_shapes(config, "wh"), draw, stored_bits)
    return DecoderModel(config, specs, embed, layers, head, dtype)


def build_model(config: ModelConfig, specs: dict | None = None, seed: int = 0, dtype=np.float32) -> DecoderModel:
    """Construct a model; specs maps matrix names to LayerSpec (default dense)."""
    seeds = (_child_seed(seed, i) for i in itertools.count(1))  # one per random tensor, in order

    def draw(name, shape, init="normal", bits=None):
        if init != "normal":
            return (np.zeros if init == "zeros" else np.ones)(shape, dtype=dtype)
        w = linalg.seeded_random(*shape, next(seeds), "gaussian", std=INIT_STD, dtype=dtype)
        return quantize_rows(w, bits) if bits else w

    return assemble_model(config, full_specs(specs or {}), draw, dtype)


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


def _heads(x: np.ndarray, heads: int) -> np.ndarray:
    b, l, n = x.shape
    return x.reshape(b, l, heads, n // heads).transpose(0, 2, 1, 3)


def _unheads(x: np.ndarray) -> np.ndarray:
    b, h, l, d = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, l, h * d)


def _scores(q, k, heads: int, mask):
    """Masked attention scores q k^T / sqrt(head_dim) + mask, per head."""
    out = _mm(_heads(q, heads), _heads(k, heads).transpose(0, 1, 3, 2))
    out *= np.asarray(1.0 / math.sqrt(q.shape[-1] // heads), dtype=q.dtype)
    out += mask
    return out


def _layer_forward(layer: DecoderLayer, x, cos, sin, mask, heads: int, step: int, cache_slot=None):
    """One decoder layer over x (batch, L, dim) at the positions of cos/sin/mask.

    With cache_slot = (keys, values, pos) for one sequence, the chunk's rotated
    keys and values are written at rows pos..pos+L of the (max_seq, dim) grids
    and the chunk attends over rows 0..pos+L.
    """
    norm1 = rmsnorm(x, layer.norm1.data)
    q = _rope_rotate(layer.wq.forward(norm1, step), cos, sin, heads, 1.0)
    k = _rope_rotate(layer.wk.forward(norm1, step), cos, sin, heads, 1.0)
    v = layer.wv.forward(norm1, step)
    keys, values = k, v
    if cache_slot is not None:
        cache_k, cache_v, pos = cache_slot
        end = pos + x.shape[1]
        cache_k[pos:end], cache_v[pos:end] = k[0], v[0]
        keys, values = cache_k[None, :end], cache_v[None, :end]
    qkT = _scores(q, keys, heads, mask)
    s = softmax(qkT, axis=-1)
    context = _unheads(_mm(s, _heads(values, heads)))
    attn = layer.wo.forward(context, step)
    res1 = x + attn
    norm2 = rmsnorm(res1, layer.norm2.data)
    up = layer.wu.forward(norm2, step)
    gate = layer.wg.forward(norm2, step)
    ffn = layer.wd.forward(up * _silu(gate), step)
    out = res1 + ffn
    entry = {
        "x_in": x, "norm1": norm1, "q": q, "k": k, "v": v,
        "qkT": qkT, "s": s, "res1": res1, "norm2": norm2, "up": up, "gate": gate,
    }
    return out, entry


def _rebuild_entry(layer: DecoderLayer, stored: dict, tape: DecoderTape, heads: int, step: int) -> dict:
    policy = tape.policy
    if policy.kind == "store_all":
        missing = [k for k in _TAPE_KEYS if k not in stored]
        if missing:
            raise ModelError(f"store-all tape is missing entries {missing} for layer {layer.index}")
        return stored
    if policy.kind == "per_layer":
        _, full = _layer_forward(layer, stored["x_in"], tape.cos, tape.sin, tape.mask, heads, step)
        return full
    full = dict(stored)
    if "qkT" in policy.drop:
        full["qkT"] = _scores(full["q"], full["k"], heads, tape.mask)
    if "s" in policy.drop:
        full["s"] = softmax(full["qkT"], axis=-1)
    return full


def _layer_backward(layer: DecoderLayer, e: dict, dout, grads: dict, heads: int, step: int, cos, sin):
    d = e["q"].shape[-1] // heads
    scale = np.asarray(1.0 / math.sqrt(d), dtype=e["q"].dtype)

    # out = res1 + wd(up * silu(gate))
    gate = e["gate"]
    sg = _sigmoid(gate)
    silu_gate = gate * sg
    act = e["up"] * silu_gate
    dact = layer.wd.backward(act, dout, grads, step)
    dup = dact * silu_gate
    dgate = dact * e["up"] * (sg * (1.0 + gate * (1.0 - sg)))
    dnorm2 = layer.wu.backward(e["norm2"], dup, grads, step)
    dnorm2 += layer.wg.backward(e["norm2"], dgate, grads, step)
    dres1 = dout + _rmsnorm_backward(e["res1"], layer.norm2, dnorm2, grads)

    # res1 = x_in + wo(context), context = s @ v
    vh = _heads(e["v"], heads)
    context = _unheads(_mm(e["s"], vh))
    dcontext = layer.wo.backward(context, dres1, grads, step)
    dch = _heads(dcontext, heads)
    ds = _mm(dch, vh.transpose(0, 1, 3, 2))
    dvh = _mm(e["s"].transpose(0, 1, 3, 2), dch)
    # Rows of s are zero on masked positions, so no re-mask needed.
    dqkT = _softmax_backward(e["s"], ds)
    qh = _heads(e["q"], heads)
    kh = _heads(e["k"], heads)
    dqh = _mm(dqkT, kh) * scale
    dkh = _mm(dqkT.transpose(0, 1, 3, 2), qh) * scale
    # Undo the rotary rotation (orthogonal, so the inverse is the transpose).
    dq_pre = _rope_rotate(_unheads(dqh), cos, sin, heads, -1.0)
    dk_pre = _rope_rotate(_unheads(dkh), cos, sin, heads, -1.0)
    dnorm1 = layer.wq.backward(e["norm1"], dq_pre, grads, step)
    dnorm1 += layer.wk.backward(e["norm1"], dk_pre, grads, step)
    dnorm1 += layer.wv.backward(e["norm1"], _unheads(dvh), grads, step)
    dx = dres1 + _rmsnorm_backward(e["x_in"], layer.norm1, dnorm1, grads)
    return dx


def _check_span(cfg: ModelConfig, tokens: np.ndarray, offset: int, cached: bool) -> None:
    """Tokens placed at positions offset.. must fit max_seq and the vocabulary."""
    if offset + tokens.shape[-1] > cfg.max_seq:
        overflow = "kv cache overflow: " if cached else ""
        raise ModelError(f"{overflow}sequence length {offset + tokens.shape[-1]} exceeds max_seq {cfg.max_seq}")
    if tokens.min() < 0 or tokens.max() >= cfg.vocab:
        raise ModelError(f"token id out of range [0, {cfg.vocab})")


def model_forward(model: DecoderModel, tokens, policy: RecomputePolicy = STORE_ALL, step: int = 0,
                  cache: KvCache | None = None):
    """Full forward pass: embed -> N decoder layers -> output head.

    Returns (logits, tape); logits has a vocab-sized last axis per position,
    and the tape retains exactly the policy's keep-set per layer. Given a
    KvCache, the tokens (one sequence) continue it: they take the positions
    from cache.length on, attend over the cached prefix and are appended to
    it; the tape then keeps nothing, so it cannot be differentiated.
    """
    tokens = np.asarray(tokens)
    squeeze = tokens.ndim == 1
    if squeeze:
        tokens = tokens[None, :]
    if tokens.ndim != 2 or tokens.size == 0 or tokens.dtype.kind not in "iu":
        raise ModelError(f"tokens must be a non-empty 1-D or 2-D integer array, got {tokens.dtype} {tokens.shape}")
    if cache is not None and tokens.shape[0] != 1:
        raise ModelError(f"a kv cache holds one sequence, got a batch of {tokens.shape[0]}")
    cfg = model.config
    offset = 0 if cache is None else cache.length
    length = tokens.shape[1]
    _check_span(cfg, tokens, offset, cache is not None)

    dtype = model.dtype
    cos, sin = _rope_tables(length, cfg.head_dim, cfg.rope_base, dtype, offset)
    mask = causal_mask(length, dtype, offset)

    x = model.embed.forward(tokens)
    tape = DecoderTape(policy=policy, tokens=tokens, cos=cos, sin=sin, mask=mask)
    for layer in model.layers:
        slot = None if cache is None else (cache.k[layer.index], cache.v[layer.index], offset)
        x, entry = _layer_forward(layer, x, cos, sin, mask, cfg.heads, step, slot)
        if cache is None:
            tape.entries.append({k: entry[k] for k in policy.kept_keys()})
    if cache is None:
        tape.x_final = x
        tape.peak_bytes = tape.stored_bytes()
    else:
        cache.length += length
    logits = model.head.forward(x, step)
    if squeeze:
        logits = logits[0]
    return logits, tape


def model_backward(model: DecoderModel, tape: DecoderTape, dlogits, step: int = 0) -> dict:
    """Gradients for every trainable parameter; frozen tensors get no entry.

    Under per-layer or selective policies the missing activations are
    recomputed from the kept set, so gradients match the store-all policy.
    """
    dlogits = np.asarray(dlogits)
    if dlogits.ndim == 2:
        dlogits = dlogits[None, ...]
    if tape.x_final is None:
        raise ModelError("tape is missing the final hidden state; run model_forward first")
    grads: dict = {}
    heads = model.config.heads
    dx = model.head.backward(tape.x_final, dlogits, grads, step)
    rebuild_peak = 0
    for layer, stored in zip(reversed(model.layers), reversed(tape.entries)):
        full = _rebuild_entry(layer, stored, tape, heads, step)
        if tape.policy.kind != "store_all":
            extra = sum(a.nbytes for k, a in full.items() if k not in stored)
            rebuild_peak = max(rebuild_peak, extra)
        dx = _layer_backward(layer, full, dx, grads, heads, step, tape.cos, tape.sin)
    model.embed.backward(tape.tokens, dx, grads)
    tape.peak_bytes = tape.stored_bytes() + rebuild_peak
    return grads


# ---------------------------------------------------------------------------
# KV-cached decoding
# ---------------------------------------------------------------------------


class KvCache:
    """Per-layer key/value grids of one sequence; model_forward appends to them."""

    def __init__(self, model: DecoderModel):
        cfg = model.config
        self.length = 0
        self.k = [np.zeros((cfg.max_seq, cfg.dim), dtype=model.dtype) for _ in range(cfg.layers)]
        self.v = [np.zeros((cfg.max_seq, cfg.dim), dtype=model.dtype) for _ in range(cfg.layers)]

    @property
    def current_len(self) -> int:
        return self.length


def kv_decode_step(model: DecoderModel, cache: KvCache, token: int, step: int = 0):
    """One autoregressive step: exactly one token pass through the model.

    Returns (logits vector, cache); the cache grows by one position and the
    logits equal the final row of a full forward over the whole prefix.
    """
    logits, _ = model_forward(model, [token], step=step, cache=cache)
    return logits[-1], cache


def greedy_decode(model: DecoderModel, prompt, max_new: int, use_cache: bool = True):
    """Greedy continuation of the prompt; returns (generated ids, token passes).

    With the cache the prompt is prefilled in one pass and each new token
    takes one more; passes count tokens, so that is len(prompt) + max_new - 1.
    Without it every step reruns the whole sequence. The prompt is checked
    before any pass, so a bad prompt raises ModelError even when max_new is 0.
    """
    prompt = list(int(t) for t in np.asarray(prompt).ravel())
    if not prompt:
        raise ModelError("prompt must hold at least one token")
    _check_span(model.config, np.array(prompt), 0, use_cache)
    cache = KvCache(model) if use_cache else None
    generated: list[int] = []
    passes = 0
    feed = prompt
    for _ in range(max_new):
        logits, _ = model_forward(model, np.array(feed, dtype=np.int64), cache=cache)
        passes += len(feed)
        generated.append(int(np.argmax(logits[-1])))
        feed = generated[-1:] if use_cache else prompt + generated
    return generated, passes


def quantize_model(model: DecoderModel, bits: int, targets=None) -> DecoderModel:
    """Replace targeted dense matrices with per-row quantized backends."""
    targets = tuple(targets or ("wq", "wk", "wv", "wo", "wu", "wg", "wd", "wh"))
    if "we" in targets:
        raise ModelError("quantized embedding lookup is not supported")

    def convert(mat):
        if mat.kind != "dense":
            raise ModelError(f"{mat.name}: only dense matrices can be quantized, found {mat.kind}")
        return QuantizedLinear(mat.name, quantize_rows(mat.weight.data, bits))

    return model.map_matrices(convert, targets)
