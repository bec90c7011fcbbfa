import numpy as np
import pytest

from lrlm import linalg
from lrlm.quant import (
    QuantError,
    dequantize_rows,
    qmatmul,
    qmatmul_t,
    qmatvec,
    quantize_rows,
    quantized_size_bytes,
)


class TestQuantizeRows:
    def test_constant_row_degenerate(self):
        w = np.full((3, 5), 2.5, dtype=np.float32)
        q = quantize_rows(w, 8)
        assert not q.unpacked_codes().any()
        assert (q.scale == 0).all()
        np.testing.assert_array_equal(dequantize_rows(q), w)

    def test_on_grid_codes_8bit(self):
        q = quantize_rows(np.array([[0.0, 1.0, 2.0, 3.0]], dtype=np.float32), 8)
        np.testing.assert_array_equal(q.unpacked_codes()[0], [0, 85, 170, 255])
        np.testing.assert_allclose(dequantize_rows(q)[0], [0, 1, 2, 3], atol=1e-6)

    def test_roundtrip_bound(self):
        for bits in (4, 8):
            w = linalg.seeded_random(64, 32, seed=bits, dist="uniform", lo=-3, hi=5)
            q = quantize_rows(w, bits)
            err = np.abs(w.astype(np.float64) - dequantize_rows(q, np.float64))
            bound = q.scale.astype(np.float64)[:, None] / 2 + 1e-6
            assert (err <= bound).all()

    def test_requantize_is_fixed_point(self):
        w = linalg.seeded_random(8, 8, seed=3)
        q = quantize_rows(w, 8)
        deq = dequantize_rows(q)
        q2 = quantize_rows(deq, 8)
        assert q.codes.tobytes() == q2.codes.tobytes()

    def test_zero_matrix_roundtrip_exact(self):
        w = np.zeros((4, 6), dtype=np.float32)
        np.testing.assert_array_equal(dequantize_rows(quantize_rows(w, 4)), w)

    def test_monotone_codes_within_row(self):
        w = linalg.seeded_random(10, 40, seed=5)
        for bits in (4, 8):
            q = quantize_rows(w, bits)
            codes = q.unpacked_codes()
            for i in range(w.shape[0]):
                order = np.argsort(w[i], kind="stable")
                assert (np.diff(codes[i][order].astype(int)) >= 0).all()

    def test_extremes_exact(self):
        w = linalg.seeded_random(12, 17, seed=6)
        for bits in (4, 8):
            q = quantize_rows(w, bits)
            codes = q.unpacked_codes()
            deq = dequantize_rows(q, np.float64)
            for i in range(w.shape[0]):
                jmin, jmax = np.argmin(w[i]), np.argmax(w[i])
                assert codes[i, jmin] == 0
                assert codes[i, jmax] == (1 << bits) - 1
                assert deq[i, jmin] == pytest.approx(float(w[i, jmin]), abs=1e-6)
                assert deq[i, jmax] == pytest.approx(float(w[i, jmax]), abs=1e-6)

    def test_rejects_non_finite(self):
        w = np.array([[1.0, np.inf]], dtype=np.float32)
        with pytest.raises(QuantError):
            quantize_rows(w, 8)

    def test_rejects_bad_bits(self):
        with pytest.raises(QuantError):
            quantize_rows(np.ones((2, 2), np.float32), 3)

    def test_odd_column_4bit_pack(self):
        w = linalg.seeded_random(3, 7, seed=9)
        q = quantize_rows(w, 4)
        assert q.codes.shape == (3, 4)  # two codes per byte, padded
        err = np.abs(w.astype(np.float64) - dequantize_rows(q, np.float64))
        assert (err <= q.scale.astype(np.float64)[:, None] / 2 + 1e-6).all()


class TestQmatvec:
    def test_zero_vector(self):
        q = quantize_rows(linalg.seeded_random(5, 6, seed=1), 8)
        assert not qmatvec(q, np.zeros(6, np.float32)).any()

    def test_constant_rows_use_offset_path(self):
        w = np.tile(np.array([[1.5], [-2.0]], dtype=np.float32), (1, 4))
        q = quantize_rows(w, 8)
        x = np.arange(4, dtype=np.float32)
        got = qmatvec(q, x)
        np.testing.assert_allclose(got, q.offset.astype(np.float64) * x.sum(), rtol=1e-6)

    def test_matches_dequantize_then_matvec(self):
        for bits in (4, 8):
            q = quantize_rows(linalg.seeded_random(9, 13, seed=bits + 10), bits)
            x = linalg.seeded_random(13, 1, seed=99)[:, 0]
            want = linalg.matvec(dequantize_rows(q), x)
            np.testing.assert_allclose(qmatvec(q, x), want, rtol=1e-5, atol=1e-6)

    def test_shape_mismatch(self):
        q = quantize_rows(linalg.seeded_random(3, 4, seed=2), 8)
        with pytest.raises(QuantError):
            qmatvec(q, np.ones(5, np.float32))


class TestQmatmulTranspose:
    def test_matches_dense_transpose(self):
        q = quantize_rows(linalg.seeded_random(6, 9, seed=4), 8)
        dy = linalg.seeded_random(2, 6, seed=5)
        want = dy.astype(np.float64) @ dequantize_rows(q, np.float64)
        np.testing.assert_allclose(qmatmul_t(q, dy), want, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("bits", [4, 8])
    def test_epilogue_matches_two_temporary_form(self, bits):
        """scale * (x @ codes^T) + sum(x) * offset, and its transpose, bit for bit."""
        q = quantize_rows(linalg.seeded_random(24, 40, seed=bits), bits)
        codes = q.unpacked_codes().astype(np.float64)
        scale, offset = q.scale.astype(np.float64), q.offset.astype(np.float64)
        for dtype in (np.float32, np.float64):
            x = linalg.seeded_random(6, 40, seed=8).astype(dtype)
            xs = x.astype(np.float64)
            want = (xs @ codes.T) * scale + xs.sum(axis=-1, keepdims=True) * offset
            assert qmatmul(q, x).tobytes() == want.astype(dtype).tobytes()
            dy = linalg.seeded_random(6, 24, seed=9).astype(dtype).reshape(2, 3, 24)
            ds = dy.astype(np.float64)
            want_t = (ds * scale) @ codes + (ds @ offset)[..., None]
            assert qmatmul_t(q, dy).tobytes() == want_t.astype(dtype).tobytes()

    def test_batched_forward_matches_matvec(self):
        q = quantize_rows(linalg.seeded_random(5, 7, seed=6), 4)
        xs = linalg.seeded_random(3, 7, seed=7)
        batched = qmatmul(q, xs)
        for i in range(3):
            np.testing.assert_allclose(batched[i], qmatvec(q, xs[i]), rtol=1e-6)


class TestActivations:
    """A single activation vector quantizes as one row, by the weight rule."""

    def test_on_grid_exact(self):
        scale = 0.5
        x = (np.arange(16) * scale - 2.0).astype(np.float32)  # exactly on a 4-bit grid
        q = quantize_rows(x[None, :], 4)
        np.testing.assert_allclose(dequantize_rows(q)[0], x, atol=1e-6)

    def test_constant_exact(self):
        x = np.full(9, -1.25, dtype=np.float32)
        np.testing.assert_array_equal(dequantize_rows(quantize_rows(x[None, :], 8))[0], x)

    def test_error_bound(self):
        x = linalg.seeded_random(1, 257, seed=8)[0]
        q = quantize_rows(x[None, :], 8)
        err = np.abs(x.astype(np.float64) - dequantize_rows(q, np.float64)[0])
        assert (err <= q.scale[0] / 2 + 1e-6).all()


class TestQuantizedSize:
    def test_seven_billion_8bit(self):
        size = quantized_size_bytes(7_000_000_000, 8, 4096)
        assert size / 1e9 == pytest.approx(7.014, abs=0.01)

    def test_sixteen_bit_is_fourteen_gb(self):
        assert quantized_size_bytes(7_000_000_000, 16, 4096) == 14_000_000_000

    def test_zero_params(self):
        assert quantized_size_bytes(0, 8, 4096) == 0

    def test_4bit_packs_two_per_byte(self):
        assert quantized_size_bytes(8192, 4, 4096) == 8192 // 2 + 2 * 8
