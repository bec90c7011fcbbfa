import numpy as np
import pytest

from lrlm import linalg


def naive_matmul(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0
            for k in range(a.shape[1]):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        m = linalg.seeded_random(3, 3, seed=1)
        assert np.array_equal(linalg.matmul(np.eye(3, dtype=np.float32), m), m)

    def test_zero_annihilates(self):
        m = linalg.seeded_random(4, 2, seed=2)
        z = np.zeros((3, 4), dtype=np.float32)
        assert not linalg.matmul(z, m).any()

    def test_matches_triple_loop_oracle(self):
        a = linalg.seeded_random(3, 4, seed=3)
        b = linalg.seeded_random(4, 2, seed=4)
        got = linalg.matmul(a, b)
        want = naive_matmul(a, b)
        np.testing.assert_allclose(got, want, rtol=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(linalg.LinalgError, match="mismatch"):
            linalg.matmul(np.ones((2, 3), np.float32), np.ones((2, 2), np.float32))

    def test_associativity(self):
        for seed in range(5):
            a = linalg.seeded_random(4, 5, seed=seed)
            b = linalg.seeded_random(5, 3, seed=seed + 100)
            c = linalg.seeded_random(3, 6, seed=seed + 200)
            left = linalg.matmul(linalg.matmul(a, b), c)
            right = linalg.matmul(a, linalg.matmul(b, c))
            np.testing.assert_allclose(left, right, rtol=1e-5)
            l64 = linalg.matmul(linalg.matmul(a.astype(np.float64), b.astype(np.float64)), c.astype(np.float64))
            r64 = linalg.matmul(a.astype(np.float64), linalg.matmul(b.astype(np.float64), c.astype(np.float64)))
            np.testing.assert_allclose(l64, r64, rtol=1e-10)


class TestMatvec:
    def test_identity(self):
        x = np.arange(5, dtype=np.float32)
        assert np.array_equal(linalg.matvec(np.eye(5, dtype=np.float32), x), x)

    def test_zero_vector(self):
        w = linalg.seeded_random(4, 4, seed=9)
        assert not linalg.matvec(w, np.zeros(4, np.float32)).any()

    def test_matches_loop_oracle(self):
        a = linalg.seeded_random(2, 2, seed=5)
        x = linalg.seeded_random(2, 1, seed=6)[:, 0]
        want = naive_matmul(a, x[:, None])[:, 0]
        np.testing.assert_allclose(linalg.matvec(a, x), want, rtol=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(linalg.LinalgError):
            linalg.matvec(np.ones((2, 3), np.float32), np.ones(2, np.float32))


class TestFrobenius:
    def test_zero(self):
        assert linalg.frobenius_norm(np.zeros((3, 4))) == 0.0

    def test_identity(self):
        assert linalg.frobenius_norm(np.eye(7)) == pytest.approx(np.sqrt(7))

    def test_matches_oracle(self):
        a = linalg.seeded_random(5, 5, seed=8)
        want = float(np.sqrt(np.sum(a.astype(np.float64) ** 2)))
        assert linalg.frobenius_norm(a) == pytest.approx(want, rel=1e-12)


class TestSeededRandom:
    def test_bit_identical_for_same_seed(self):
        a = linalg.seeded_random(6, 7, seed=42, dist="gaussian", std=0.5)
        b = linalg.seeded_random(6, 7, seed=42, dist="gaussian", std=0.5)
        assert a.tobytes() == b.tobytes()

    def test_different_seeds_differ(self):
        a = linalg.seeded_random(6, 7, seed=42)
        b = linalg.seeded_random(6, 7, seed=43)
        assert (a != b).any()

    def test_gaussian_std(self):
        g = linalg.seeded_random(100, 100, seed=7, dist="gaussian", std=0.02)
        assert abs(g.std() - 0.02) < 0.002

    def test_uniform_bounds(self):
        u = linalg.seeded_random(50, 50, seed=11, dist="uniform", lo=-1.0, hi=2.0)
        assert u.min() >= -1.0 and u.max() < 2.0

    def test_bad_dims(self):
        with pytest.raises(linalg.LinalgError):
            linalg.seeded_random(0, 3, seed=1)


class TestTruncatedSvd:
    def test_rank_one_exact(self):
        u = linalg.seeded_random(9, 1, seed=1).astype(np.float64)
        v = linalg.seeded_random(1, 7, seed=2).astype(np.float64)
        w = (u @ v).astype(np.float32)
        us, vt, _ = linalg.truncated_svd(w, 1)
        err = np.linalg.norm(w - us.astype(np.float64) @ vt.astype(np.float64))
        assert err <= 1e-6 * np.linalg.norm(w)

    def test_full_rank_reconstruction(self):
        w = linalg.seeded_random(10, 6, seed=3)
        us, vt, _ = linalg.truncated_svd(w, 6)
        err = np.linalg.norm(w - us.astype(np.float64) @ vt.astype(np.float64))
        assert err <= 1e-5 * np.linalg.norm(w)

    def test_error_matches_eigen_oracle(self):
        # Independent oracle: singular values from a dense eigendecomposition of w^T w.
        w = linalg.seeded_random(16, 12, seed=4).astype(np.float64)
        us, vt, spectrum = linalg.truncated_svd(w, 4)
        err = np.linalg.norm(w - us @ vt)
        evals = np.linalg.eigvalsh(w.T @ w)
        oracle = np.sqrt(np.clip(evals, 0, None))[::-1]
        want = np.sqrt(np.sum(oracle[4:] ** 2))
        assert err == pytest.approx(want, rel=1e-4)
        np.testing.assert_allclose(spectrum, oracle, rtol=1e-8, atol=1e-10)

    def test_eckart_young_error_within_tolerance(self):
        w = linalg.seeded_random(12, 9, seed=5).astype(np.float64)
        for r in (1, 3, 6, 9):
            us, vt, spectrum = linalg.truncated_svd(w, r)
            err_sq = np.sum((w - us @ vt) ** 2)
            want = np.sum(spectrum[r:] ** 2)
            assert err_sq == pytest.approx(want, rel=1e-4, abs=1e-12)

    def test_error_non_increasing_in_rank(self):
        w = linalg.seeded_random(10, 10, seed=6).astype(np.float64)
        errs = []
        for r in range(1, 11):
            us, vt, _ = linalg.truncated_svd(w, r)
            errs.append(np.linalg.norm(w - us @ vt))
        assert all(a >= b - 1e-9 for a, b in zip(errs, errs[1:]))

    def test_factor_orthonormality(self):
        w = linalg.seeded_random(14, 10, seed=7).astype(np.float64)
        us, vt, spectrum = linalg.truncated_svd(w, 10)
        u_unit = us / np.linalg.norm(us, axis=0, keepdims=True)
        np.testing.assert_allclose(u_unit.T @ u_unit, np.eye(10), atol=1e-4)
        np.testing.assert_allclose(vt @ vt.T, np.eye(10), atol=1e-4)

    def test_wide_matrix(self):
        w = linalg.seeded_random(6, 15, seed=8).astype(np.float64)
        us, vt, spectrum = linalg.truncated_svd(w, 3)
        assert us.shape == (6, 3) and vt.shape == (3, 15)
        err = np.linalg.norm(w - us @ vt)
        assert err == pytest.approx(np.sqrt(np.sum(spectrum[3:] ** 2)), rel=1e-4)

    def test_rank_out_of_range(self):
        w = linalg.seeded_random(4, 4, seed=9)
        for bad in (0, 5):
            with pytest.raises(linalg.LinalgError):
                linalg.truncated_svd(w, bad)

    def test_nonconvergence_carries_residual(self):
        w = linalg.seeded_random(8, 8, seed=10).astype(np.float64)
        with pytest.raises(linalg.SvdConvergenceError) as exc:
            linalg.truncated_svd(w, 2, max_sweeps=0)
        assert exc.value.residual > 0

    def test_zero_matrix(self):
        us, vt, spectrum = linalg.truncated_svd(np.zeros((5, 4), np.float32), 2)
        assert not us.any() and not vt.any() and not spectrum.any()


class TestSketchedSvd:
    @pytest.mark.parametrize("shape,r", [((16, 16), 4), ((10, 8), 3), ((31, 40), 8), ((128, 64), 25)])
    def test_below_threshold_is_truncated_svd(self, shape, r):
        # 2 * (r + 8) > min(shape): the exact factors, byte for byte.
        w = linalg.seeded_random(*shape, seed=sum(shape))
        us, vt = linalg.sketched_svd(w, r)
        want_us, want_vt, _ = linalg.truncated_svd(w, r)
        assert us.tobytes() == want_us.tobytes() and vt.tobytes() == want_vt.tobytes()

    def test_seeded_and_dtype_preserving(self):
        w = linalg.seeded_random(96, 64, seed=21)
        us, vt = linalg.sketched_svd(w, 8)
        again_us, again_vt = linalg.sketched_svd(w.copy(), 8)
        assert us.dtype == vt.dtype == np.float32
        assert us.shape == (96, 8) and vt.shape == (8, 64)
        assert us.tobytes() == again_us.tobytes() and vt.tobytes() == again_vt.tobytes()
        us64, vt64 = linalg.sketched_svd(w.astype(np.float64), 8)
        assert us64.dtype == vt64.dtype == np.float64

    def test_orthonormal_right_factor(self):
        w = linalg.seeded_random(64, 96, seed=22).astype(np.float64)
        _, vt = linalg.sketched_svd(w, 8)
        np.testing.assert_allclose(vt @ vt.T, np.eye(8), atol=1e-6)

    def test_exact_on_low_rank_input(self):
        # A rank-6 matrix lies inside the 14-wide sketch, so rank 6 recovers it.
        w = (linalg.seeded_random(80, 6, seed=23).astype(np.float64)
             @ linalg.seeded_random(6, 70, seed=24).astype(np.float64))
        us, vt = linalg.sketched_svd(w, 6)
        assert np.linalg.norm(w - us @ vt) <= 1e-10 * np.linalg.norm(w)

    def test_zero_matrix(self):
        us, vt = linalg.sketched_svd(np.zeros((64, 48), np.float32), 4)
        assert not us.any() and not vt.any()

    def test_rank_out_of_range(self):
        w = linalg.seeded_random(64, 64, seed=25)
        for bad in (0, 65):
            with pytest.raises(linalg.LinalgError):
                linalg.sketched_svd(w, bad)
