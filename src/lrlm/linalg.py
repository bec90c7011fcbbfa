"""Deterministic dense linear algebra: products, norms, seeded init, truncated SVD
and its seeded randomized sketch.

Grids are plain 2-D numpy arrays, float32 by default. Products accumulate in
float64 regardless of storage dtype so results stay close to exact arithmetic
at desk scale.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "LinalgError",
    "SvdConvergenceError",
    "matmul",
    "matvec",
    "frobenius_norm",
    "seeded_random",
    "SplitMix64",
    "truncated_svd",
    "sketched_svd",
]

# Randomized range finder (Halko, Martinsson and Tropp, arXiv:0909.4061):
# oversampling p, power iterations q, and the fixed seed of the test matrix.
SKETCH_OVERSAMPLE = 8
SKETCH_POWER_ITERS = 2
SKETCH_SEED = 0x5EED


class LinalgError(ValueError):
    pass


class SvdConvergenceError(RuntimeError):
    """Jacobi sweeps hit the iteration cap; carries the remaining off-diagonal mass."""

    def __init__(self, residual: float, sweeps: int):
        self.residual = residual
        self.sweeps = sweeps
        super().__init__(
            f"one-sided Jacobi SVD did not converge after {sweeps} sweeps "
            f"(off-diagonal mass {residual:.3e})"
        )


def _as_grid(a, name: str) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2:
        raise LinalgError(f"{name} must be 2-D, got shape {a.shape}")
    return a


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product a @ b with float64 accumulation, returned in the promoted input dtype."""
    a = _as_grid(a, "a")
    b = _as_grid(b, "b")
    if a.shape[1] != b.shape[0]:
        raise LinalgError(
            f"matmul dimension mismatch: {a.shape[0]}x{a.shape[1]} @ {b.shape[0]}x{b.shape[1]}"
        )
    out = a.astype(np.float64, copy=False) @ b.astype(np.float64, copy=False)
    return out.astype(np.result_type(a.dtype, b.dtype), copy=False)


def matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """y_i = sum_j a_ij x_j, float64 accumulation."""
    a = _as_grid(a, "a")
    x = np.asarray(x)
    if x.ndim != 1:
        raise LinalgError(f"x must be 1-D, got shape {x.shape}")
    if a.shape[1] != x.shape[0]:
        raise LinalgError(f"matvec dimension mismatch: {a.shape} @ ({x.shape[0]},)")
    out = a.astype(np.float64, copy=False) @ x.astype(np.float64, copy=False)
    return out.astype(np.result_type(a.dtype, x.dtype), copy=False)


def frobenius_norm(a) -> float:
    a = np.asarray(a, dtype=np.float64)
    return float(np.sqrt(np.sum(a * a)))


class SplitMix64:
    """SplitMix64 bit generator.

    State advances by the golden-ratio increment 0x9E3779B97F4A7C15; each output
    is finalized with the xor-shift/multiply constants 0xBF58476D1CE4E5B9 and
    0x94D049BB133111EB. Pure uint64 arithmetic, so streams are bit-identical
    across platforms for a given seed.
    """

    GAMMA = np.uint64(0x9E3779B97F4A7C15)
    M1 = np.uint64(0xBF58476D1CE4E5B9)
    M2 = np.uint64(0x94D049BB133111EB)

    def __init__(self, seed: int):
        self._state = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)

    def next_uint64(self, count: int) -> np.ndarray:
        base = self._state
        idx = np.arange(1, count + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            z = base + idx * self.GAMMA
            self._state = z[-1] if count else base
            z = (z ^ (z >> np.uint64(30))) * self.M1
            z = (z ^ (z >> np.uint64(27))) * self.M2
            z = z ^ (z >> np.uint64(31))
        return z

    def uniform(self, count: int) -> np.ndarray:
        # 53-bit mantissa draw in (0, 1]; never exactly 0 so log() is safe.
        bits = self.next_uint64(count) >> np.uint64(11)
        return (bits.astype(np.float64) + 1.0) * (2.0 ** -53)

    def gaussian(self, count: int) -> np.ndarray:
        # Box-Muller on consecutive uniform pairs, deterministic (no rejection).
        n = (count + 1) // 2
        u1 = self.uniform(n)
        u2 = self.uniform(n)
        radius = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.empty(2 * n, dtype=np.float64)
        out[0::2] = radius * np.cos(theta)
        out[1::2] = radius * np.sin(theta)
        return out[:count]

    def split(self, stream: int) -> "SplitMix64":
        """Derive an independent child stream; used to seed per-tensor init."""
        mixed = SplitMix64(int(self._state) ^ (stream * 0x9E3779B97F4A7C15 & 0xFFFFFFFFFFFFFFFF))
        mixed.next_uint64(1)
        return mixed


def seeded_random(
    rows: int,
    cols: int,
    seed: int,
    dist: str = "gaussian",
    *,
    std: float = 1.0,
    lo: float = 0.0,
    hi: float = 1.0,
    dtype=np.float32,
) -> np.ndarray:
    """Reproducible rows x cols grid; identical bytes for identical arguments.

    dist "gaussian" draws N(0, std^2); "uniform" draws [lo, hi).
    """
    if rows < 1 or cols < 1:
        raise LinalgError(f"grid dims must be >= 1, got {rows}x{cols}")
    gen = SplitMix64(seed)
    n = rows * cols
    if dist == "gaussian":
        flat = gen.gaussian(n) * std
    elif dist == "uniform":
        flat = lo + gen.uniform(n) * (hi - lo)
    else:
        raise LinalgError(f"unknown dist {dist!r}")
    return flat.reshape(rows, cols).astype(dtype)


def _rotation_pairs(m: int):
    """Round-robin tournament pairings: m-1 rounds of disjoint pairs covering all (i, j)."""
    players = list(range(m)) if m % 2 == 0 else list(range(m)) + [-1]
    k = len(players)
    rounds = []
    for _ in range(k - 1):
        pairs = [
            (players[i], players[k - 1 - i])
            for i in range(k // 2)
            if players[i] != -1 and players[k - 1 - i] != -1
        ]
        rounds.append([(min(p), max(p)) for p in pairs])
        players = [players[0]] + [players[-1]] + players[1:-1]
    return rounds


def truncated_svd(w: np.ndarray, r: int, *, max_sweeps: int = 100):
    """Best rank-r approximation factors of w via one-sided Jacobi.

    Returns (u_sigma, v_t, spectrum): u_sigma is n x r (left vectors scaled by
    singular values), v_t is r x m, and spectrum holds all min(n, m) singular
    values in descending order, so the Frobenius error of the truncation is
    sqrt(sum(spectrum[r:]**2)) by Eckart-Young.

    Columns of the working matrix are orthogonalized by plane rotations,
    applied in a fixed round-robin order; convergence is declared when the
    off-diagonal mass of the Gram matrix drops below 1e-10 * ||w||_F**2.
    """
    w = _as_grid(w, "w")
    n, m = w.shape
    if not 1 <= r <= min(n, m):
        raise LinalgError(f"rank {r} out of range for {n}x{m} grid")
    out_dtype = w.dtype

    transposed = n < m
    a = (w.T if transposed else w).astype(np.float64)
    rows, cols = a.shape

    v = np.eye(cols, dtype=np.float64)
    fro2 = float(np.sum(a * a))
    tol = 1e-10 * fro2
    if fro2 == 0.0:
        # All-zero grid: factors are zero, spectrum is zero.
        spectrum = np.zeros(min(n, m), dtype=np.float64)
        u_sigma = np.zeros((n, r), dtype=out_dtype)
        v_t = np.zeros((r, m), dtype=out_dtype)
        return u_sigma, v_t, spectrum

    pair_rounds = _rotation_pairs(cols)
    converged = False
    off = np.inf
    for _ in range(max_sweeps):
        gram = a.T @ a
        off = float(np.sum(gram * gram) - np.sum(np.diag(gram) ** 2)) / 2.0
        if off < tol:
            converged = True
            break
        for pairs in pair_rounds:
            if not pairs:
                continue
            i_idx = np.array([p[0] for p in pairs])
            j_idx = np.array([p[1] for p in pairs])
            ai = a[:, i_idx]
            aj = a[:, j_idx]
            gamma = np.sum(ai * aj, axis=0)
            alpha = np.sum(ai * ai, axis=0)
            beta = np.sum(aj * aj, axis=0)
            active = np.abs(gamma) > 1e-300
            if not np.any(active):
                continue
            # Jacobi rotation zeroing the (i, j) Gram entry.
            zeta = np.zeros_like(gamma)
            zeta[active] = (beta[active] - alpha[active]) / (2.0 * gamma[active])
            t = np.sign(zeta) / (np.abs(zeta) + np.sqrt(1.0 + zeta * zeta))
            t[zeta == 0.0] = 1.0
            t[~active] = 0.0
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = c * t
            a_i_new = c * ai - s * aj
            a_j_new = s * ai + c * aj
            a[:, i_idx] = a_i_new
            a[:, j_idx] = a_j_new
            vi = v[:, i_idx]
            vj = v[:, j_idx]
            v[:, i_idx] = c * vi - s * vj
            v[:, j_idx] = s * vi + c * vj
    else:
        converged = off < tol

    if not converged:
        gram = a.T @ a
        off = float(np.sum(gram * gram) - np.sum(np.diag(gram) ** 2)) / 2.0
        if off >= tol:
            raise SvdConvergenceError(off, max_sweeps)

    sigma = np.sqrt(np.sum(a * a, axis=0))
    # Stable descending sort keeps the original column order on ties.
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    a = a[:, order]
    v = v[:, order]

    spectrum = sigma.copy()
    u_sigma_full = a[:, :r]        # columns are u_k * sigma_k
    v_r = v[:, :r]

    if transposed:
        # w.T = (U S) V^T  =>  w = V S U^T: swap the roles of the factors.
        nonzero = sigma[:r] > 0
        u_unit = np.zeros_like(u_sigma_full)
        u_unit[:, nonzero] = u_sigma_full[:, nonzero] / sigma[:r][nonzero]
        u_sigma = v_r * sigma[:r]
        v_t = u_unit.T
    else:
        u_sigma = u_sigma_full
        v_t = v_r.T

    return u_sigma.astype(out_dtype), v_t.astype(out_dtype), spectrum


def _orthonormal(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis (reduced Householder QR) of the columns of a."""
    q, _ = np.linalg.qr(a)
    return q


def sketched_svd(w: np.ndarray, r: int):
    """Near-optimal rank-r factors (u_sigma, v_t) of w from a randomized sketch.

    A seeded Gaussian test matrix of width l = r + SKETCH_OVERSAMPLE captures
    the range of w, SKETCH_POWER_ITERS re-orthonormalized power iterations
    sharpen it, and truncated_svd of the small l x m projection Q^T w gives the
    factors; all in float64, cast back to w's dtype. The seed is fixed, so the
    factors depend only on w and r. Where the sketch would not be small
    (2 * l > min(n, m)) the exact truncated_svd factors are returned unchanged.
    """
    w = _as_grid(w, "w")
    n, m = w.shape
    width = r + SKETCH_OVERSAMPLE
    if not 1 <= r <= min(n, m) or 2 * width > min(n, m):
        u_sigma, v_t, _ = truncated_svd(w, r)
        return u_sigma, v_t
    a = w.astype(np.float64)
    omega = SplitMix64(SKETCH_SEED).gaussian(m * width).reshape(m, width)
    q = _orthonormal(a @ omega)
    for _ in range(SKETCH_POWER_ITERS):
        q = _orthonormal(a @ _orthonormal(a.T @ q))
    u_b, v_t, _ = truncated_svd(q.T @ a, r)
    return (q @ u_b).astype(w.dtype), v_t.astype(w.dtype)
