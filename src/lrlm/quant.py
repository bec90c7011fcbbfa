"""Per-row asymmetric min-max quantization to 8/4 bits, with packed 4-bit codes.

Each row is mapped independently: offset = row minimum, scale = (max - min) /
(2^bits - 1), code = round((x - offset) / scale). Codes pack two per byte for
4-bit (low nibble = even column). The original full-precision grid is not kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuantError",
    "QuantizedMatrix",
    "quantize_rows",
    "dequantize_rows",
    "qmatvec",
    "qmatmul",
    "qmatmul_t",
    "quantized_size_bytes",
]


class QuantError(ValueError):
    pass


def _round_half_away(x: np.ndarray) -> np.ndarray:
    # np.round ties to even; the format fixes ties away from zero.
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def _pack4(codes: np.ndarray) -> np.ndarray:
    rows, cols = codes.shape
    if cols % 2:
        codes = np.concatenate([codes, np.zeros((rows, 1), dtype=codes.dtype)], axis=1)
    low = codes[:, 0::2]
    high = codes[:, 1::2]
    return (low | (high << 4)).astype(np.uint8)


def _unpack4(packed: np.ndarray, cols: int) -> np.ndarray:
    low = packed & np.uint8(0x0F)
    high = packed >> np.uint8(4)
    out = np.empty((packed.shape[0], packed.shape[1] * 2), dtype=np.uint8)
    out[:, 0::2] = low
    out[:, 1::2] = high
    return out[:, :cols]


@dataclass
class QuantizedMatrix:
    rows: int
    cols: int
    bits: int
    codes: np.ndarray   # uint8; packed two-per-byte when bits == 4
    scale: np.ndarray   # per-row float32, >= 0
    offset: np.ndarray  # per-row float32 (the row minimum)

    def unpacked_codes(self) -> np.ndarray:
        if self.bits == 4:
            return _unpack4(self.codes, self.cols)
        return self.codes

    def nbytes(self) -> int:
        return self.codes.nbytes + self.scale.nbytes + self.offset.nbytes


def quantize_rows(w: np.ndarray, bits: int) -> QuantizedMatrix:
    if bits not in (4, 8):
        raise QuantError(f"bits must be 4 or 8, got {bits}")
    w = np.asarray(w)
    if w.ndim != 2:
        raise QuantError(f"expected 2-D grid, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise QuantError("cannot quantize non-finite values")
    w64 = w.astype(np.float64)
    lo = w64.min(axis=1)
    hi = w64.max(axis=1)
    levels = (1 << bits) - 1
    scale = (hi - lo) / levels
    safe = np.where(scale > 0, scale, 1.0)
    codes = _round_half_away((w64 - lo[:, None]) / safe[:, None])
    codes = np.clip(codes, 0, levels).astype(np.uint8)
    codes[scale == 0] = 0
    if bits == 4:
        codes = _pack4(codes)
    return QuantizedMatrix(
        rows=w.shape[0],
        cols=w.shape[1],
        bits=bits,
        codes=codes,
        scale=scale.astype(np.float32),
        offset=lo.astype(np.float32),
    )


def dequantize_rows(q: QuantizedMatrix, dtype=np.float32) -> np.ndarray:
    codes = q.unpacked_codes().astype(np.float64)
    out = codes * q.scale.astype(np.float64)[:, None] + q.offset.astype(np.float64)[:, None]
    return out.astype(dtype)


def qmatvec(q: QuantizedMatrix, x: np.ndarray) -> np.ndarray:
    """matvec against the quantized rows without materializing the dequantized
    grid: the one-row case of qmatmul."""
    x = np.asarray(x)
    if x.shape[-1] != q.cols:
        raise QuantError(f"qmatvec dimension mismatch: {q.rows}x{q.cols} @ {x.shape}")
    return qmatmul(q, x[None, :])[0]


def qmatmul(q: QuantizedMatrix, x: np.ndarray) -> np.ndarray:
    """x (..., cols) -> (..., rows) against the quantized rows, without dequantizing.

    Row i factors as scale_i * (codes_i . x) + offset_i * sum(x).
    """
    x = np.asarray(x)
    if x.shape[-1] != q.cols:
        raise QuantError(f"qmatmul dimension mismatch: {q.rows}x{q.cols} vs {x.shape}")
    codes = q.unpacked_codes().astype(np.float64)
    xs = x.astype(np.float64)
    out = xs @ codes.T
    out *= q.scale.astype(np.float64)
    out += xs.sum(axis=-1, keepdims=True) * q.offset.astype(np.float64)
    return out.astype(np.result_type(x.dtype, np.float32))


def qmatmul_t(q: QuantizedMatrix, dy: np.ndarray) -> np.ndarray:
    """dy (..., rows) -> dy @ W for W = diag(scale) codes + offset 1^T, without dequantizing."""
    dy = np.asarray(dy)
    if dy.shape[-1] != q.rows:
        raise QuantError(f"qmatmul_t dimension mismatch: {q.rows}x{q.cols} vs {dy.shape}")
    codes = q.unpacked_codes().astype(np.float64)
    ds = dy.astype(np.float64)
    out = (ds * q.scale.astype(np.float64)) @ codes
    out += (ds @ q.offset.astype(np.float64))[..., None]
    return out.astype(np.result_type(dy.dtype, np.float32))


def quantized_size_bytes(param_count: int, bits: int, row_len: int) -> int:
    """Storage bytes: packed codes plus 8 bytes (two float32) of metadata per row."""
    if param_count == 0:
        return 0
    if bits not in (4, 8, 16, 32):
        raise QuantError(f"unsupported bit width {bits}")
    code_bytes = -(-param_count * bits // 8)  # ceil division
    rows = -(-param_count // row_len)
    meta = rows * 8 if bits in (4, 8) else 0
    return code_bytes + meta
