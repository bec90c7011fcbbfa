import numpy as np
import pytest

from lrlm import linalg, lowrank, trainer
from lrlm import transformer as tfm
from lrlm.quant import quantize_rows
from lrlm.transformer import LoraLinear, LowRankLinear, ModelError, QuantizedLinear

from oracles import lr_forward

TOY = tfm.ModelConfig(vocab=11, dim=8, heads=2, layers=2, ffn_dim=12, max_seq=16)
# Large enough that every matrix, the embedding included, takes the sketched path at r=16.
WIDE = tfm.ModelConfig(vocab=64, dim=128, heads=4, layers=1, ffn_dim=256, max_seq=16)


def power_law(rows: int, cols: int, seed: int) -> np.ndarray:
    """Random singular vectors with singular values proportional to 1/i, float32."""
    rng = np.random.default_rng(seed)
    k = min(rows, cols)
    u, _ = np.linalg.qr(rng.standard_normal((rows, k)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, k)))
    return ((u / np.arange(1, k + 1)) @ v.T).astype(np.float32)


def optimality_ratio(w: np.ndarray, f, r: int) -> float:
    """Frobenius error of the factors over the Eckart-Young optimum of numpy's SVD."""
    w = w.astype(np.float64)
    err = np.linalg.norm(w - f.up.astype(np.float64) @ f.down.astype(np.float64))
    return float(err / np.sqrt(np.sum(np.linalg.svd(w, compute_uv=False)[r:] ** 2)))


class TestLrForward:
    def test_zero_up_gives_zero(self):
        down, up = linalg.seeded_random(3, 6, seed=1), np.zeros((5, 3), np.float32)
        assert not lr_forward(down, up, np.ones(6, np.float32)).any()
        assert not LowRankLinear("w", down, up).forward(np.ones((1, 6), np.float32)).any()

    def test_matches_explicit_product(self):
        down = linalg.seeded_random(4, 9, seed=2)
        up = linalg.seeded_random(7, 4, seed=3)
        x = linalg.seeded_random(9, 1, seed=4)[:, 0]
        dense = linalg.matmul(up, down)
        np.testing.assert_allclose(lr_forward(down, up, x), linalg.matvec(dense, x), rtol=1e-5)
        np.testing.assert_allclose(LowRankLinear("w", down, up).forward(x[None, :])[0],
                                   linalg.matvec(dense, x), rtol=1e-5)

    def test_rank512_parameter_reduction(self):
        # 4096x4096 layer at r=512: 16.78 M dense -> 4.19 M factored.
        assert 4096 * 4096 == 16_777_216
        assert lowrank.lr_param_count(512, 4096, 4096) == 4_194_304

    def test_linearity(self):
        down, up = linalg.seeded_random(3, 6, seed=5), linalg.seeded_random(4, 3, seed=6)
        x = linalg.seeded_random(6, 1, seed=7)[:, 0]
        y = linalg.seeded_random(6, 1, seed=8)[:, 0]
        lhs = lr_forward(down, up, x + y)
        rhs = lr_forward(down, up, x) + lr_forward(down, up, y)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-5, atol=1e-6)
        mat = LowRankLinear("w", down, up)
        np.testing.assert_allclose(mat.forward((x + y)[None, :]),
                                   mat.forward(x[None, :]) + mat.forward(y[None, :]), rtol=1e-5, atol=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(ModelError):
            lr_forward(np.ones((2, 3), np.float32), np.ones((4, 2), np.float32), np.ones(4, np.float32))


class TestDecomposeLinear:
    def test_rank_one_exact(self):
        w = (linalg.seeded_random(6, 1, seed=9).astype(np.float64)
             @ linalg.seeded_random(1, 5, seed=10).astype(np.float64))
        f = lowrank.decompose_linear(w, 1)
        np.testing.assert_allclose(f.up @ f.down, w, atol=1e-8)

    def test_full_rank_reconstructs(self):
        w = linalg.seeded_random(8, 6, seed=11)
        f = lowrank.decompose_linear(w, 6)
        err = np.linalg.norm(w - f.up.astype(np.float64) @ f.down.astype(np.float64))
        assert err <= 1e-5 * np.linalg.norm(w)

    def test_error_matches_eigen_oracle(self):
        w = linalg.seeded_random(16, 16, seed=12).astype(np.float64)
        f = lowrank.decompose_linear(w, 4)
        err = np.linalg.norm(w - f.up @ f.down)
        sigma = np.sqrt(np.clip(np.linalg.eigvalsh(w.T @ w), 0, None))[::-1]
        assert err == pytest.approx(np.sqrt(np.sum(sigma[4:] ** 2)), rel=1e-4)

    def test_error_monotone_in_rank(self):
        w = linalg.seeded_random(10, 8, seed=13).astype(np.float64)
        errs = [np.linalg.norm(w - (f := lowrank.decompose_linear(w, r)).up @ f.down)
                for r in range(1, 9)]
        assert all(a >= b - 1e-9 for a, b in zip(errs, errs[1:]))


class TestDecomposeLinearSketched:
    @pytest.mark.parametrize("shape", [(128, 128), (256, 128), (128, 256)])
    def test_power_law_near_optimal(self, shape):
        w = power_law(*shape, seed=shape[0] + shape[1])
        assert optimality_ratio(w, lowrank.decompose_linear(w, 16), 16) <= 1.05

    def test_gpt2_ffn_shape_near_optimal(self):
        w = power_law(768, 3072, seed=7)
        f = lowrank.decompose_linear(w, 16)
        assert f.up.shape == (768, 16) and f.down.shape == (16, 3072)
        assert optimality_ratio(w, f, 16) <= 1.05

    def test_flat_spectrum_needs_power_iterations(self):
        # A Gaussian matrix has no spectral gap; a plain sketch lands near 1.09.
        w = linalg.seeded_random(128, 128, seed=3)
        assert optimality_ratio(w, lowrank.decompose_linear(w, 16), 16) <= 1.05

    def test_below_threshold_matches_truncated_svd(self):
        w = linalg.seeded_random(40, 30, seed=14)
        f = lowrank.decompose_linear(w, 8)
        us, vt, _ = linalg.truncated_svd(w, 8)
        assert f.up.tobytes() == us.tobytes() and f.down.tobytes() == vt.tobytes()


class TestDecomposeModel:
    def test_sketched_worker_count_invariance(self, tmp_path, monkeypatch):
        from lrlm.checkpoint import save_checkpoint

        model = tfm.build_model(WIDE, seed=4)
        monkeypatch.setenv("LRLM_THREADS", "3")  # read when worker_count is None
        blobs = []
        for workers in (1, 2, 4, None):
            path = tmp_path / f"w{workers}.lrlm"
            save_checkpoint(path, lowrank.decompose_model(model, 16, worker_count=workers))
            blobs.append(path.read_bytes())
        assert all(b == blobs[0] for b in blobs[1:])

    def test_worker_count_invariance(self, tmp_path):
        from lrlm.checkpoint import save_checkpoint

        model = tfm.build_model(TOY, seed=4)
        one = lowrank.decompose_model(model, 3, worker_count=1)
        four = lowrank.decompose_model(model, 3, worker_count=4)
        p1, p4 = tmp_path / "w1.lrlm", tmp_path / "w4.lrlm"
        save_checkpoint(p1, one)
        save_checkpoint(p4, four)
        assert p1.read_bytes() == p4.read_bytes()

    def test_param_count_closed_form(self):
        model = tfm.build_model(TOY, seed=4)
        low = lowrank.decompose_model(model, 3, targets=("wq", "wk", "wv", "wo", "wu", "wg", "wd"))
        n, m, N = TOY.dim, TOY.ffn_dim, TOY.layers
        expect = (
            TOY.vocab * n                      # embedding kept dense
            + N * (4 * 3 * (n + n) + 2 * 3 * (n + m) + 3 * (m + n))
            + N * 2 * n                        # norm gains
            + TOY.vocab * n                    # head kept dense
        )
        assert low.param_count() == expect

    def test_failure_names_matrix(self):
        model = tfm.build_model(TOY, seed=4)
        with pytest.raises(ModelError, match="layers.0.wq"):
            lowrank.decompose_model(model, 8, targets=("wq",))

    def test_forward_error_bounded_by_spectrum(self):
        model = tfm.build_model(TOY, seed=6).astype(np.float64)
        low = lowrank.decompose_model(model, 6)
        tokens = np.arange(7) % TOY.vocab
        a, _ = tfm.model_forward(model, tokens)
        b, _ = tfm.model_forward(low, tokens)
        assert np.isfinite(b).all()
        assert a.shape == b.shape


class TestLora:
    def test_fresh_adapter_matches_base(self):
        model = tfm.build_model(TOY, seed=5)
        adapted = lowrank.attach_adapters(model, r=2, targets=("wq", "wv"), seed=1)
        tokens = np.arange(6) % TOY.vocab
        base_logits, _ = tfm.model_forward(tfm.build_model(TOY, seed=5), tokens)
        lora_logits, _ = tfm.model_forward(adapted, tokens)
        np.testing.assert_array_equal(base_logits, lora_logits)

    def test_merged_equals_unmerged(self):
        base = tfm.DenseLinear("w", linalg.seeded_random(6, 6, seed=7), trainable=False)
        adapter = LoraLinear(
            "w", base,
            linalg.seeded_random(2, 6, seed=8), linalg.seeded_random(6, 2, seed=9),
        )
        x = linalg.seeded_random(5, 6, seed=10)
        before = adapter.forward(x)
        merged = lowrank.lora_merge(adapter)
        after = adapter.forward(x)
        np.testing.assert_allclose(before, after, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(
            linalg.matmul(x, merged.T), before, rtol=1e-5, atol=1e-6
        )

    def test_trainable_count_4_2_million(self):
        # r=8 adapters on two matrices of every layer of a 32-layer, dim-4096 model.
        assert 2 * 32 * lowrank.lr_param_count(8, 4096, 4096) == 4_194_304

    def test_merge_with_zero_up_returns_base(self):
        w = linalg.seeded_random(5, 5, seed=11)
        adapter = LoraLinear("w", tfm.DenseLinear("w", w.copy(), trainable=False),
                             linalg.seeded_random(2, 5, seed=12), np.zeros((5, 2), np.float32))
        merged = lowrank.lora_merge(adapter)
        np.testing.assert_array_equal(merged, w)

    def test_double_merge_rejected(self):
        adapter = LoraLinear("w", tfm.DenseLinear("w", np.eye(4, dtype=np.float32), trainable=False),
                             np.zeros((2, 4), np.float32), np.zeros((4, 2), np.float32))
        lowrank.lora_merge(adapter)
        with pytest.raises(ModelError, match="already merged"):
            lowrank.lora_merge(adapter)

    def test_merge_model_leaves_input_trainable(self, tmp_path):
        from lrlm.checkpoint import save_checkpoint

        model = lowrank.attach_adapters(tfm.build_model(TOY, seed=5), r=2, targets=("wq", "wv"), seed=1)
        trainer.configure_trainable(model, "lora_finetune")
        before, after = tmp_path / "before.lrlm", tmp_path / "after.lrlm"
        save_checkpoint(before, model)
        merged = lowrank.merge_model(model)
        assert all(m.kind == "dense" for _, m in merged.named_matrices())
        save_checkpoint(after, model)
        assert after.read_bytes() == before.read_bytes()
        rng = np.random.default_rng(8)
        batch = (rng.integers(0, 11, size=(1, 5)), rng.integers(0, 11, size=(1, 5)))
        cfg = trainer.TrainConfig(method="lora_finetune", batch=1, seq=5, lr=1e-2)
        loss = trainer.train_step(model, batch, cfg, trainer.AdamWState(model.trainable_parameters()))
        assert np.isfinite(loss)

    def test_merge_quantized_base_rejected(self):
        q = QuantizedLinear("w", quantize_rows(linalg.seeded_random(6, 6, seed=13), 8))
        adapter = LoraLinear("w", q, np.zeros((2, 6), np.float32), np.zeros((6, 2), np.float32))
        with pytest.raises(ModelError, match="quantized"):
            lowrank.lora_merge(adapter)

    def test_quantized_base_forward_uses_codes(self):
        w = linalg.seeded_random(6, 6, seed=14)
        q = QuantizedLinear("w", quantize_rows(w, 8))
        adapter = LoraLinear("w", q, linalg.seeded_random(2, 6, seed=15),
                             linalg.seeded_random(6, 2, seed=16))
        x = linalg.seeded_random(1, 6, seed=17)[0]
        want = q.forward(x) + adapter.up.data.astype(np.float64) @ (
            adapter.down.data.astype(np.float64) @ x.astype(np.float64)
        )
        np.testing.assert_allclose(adapter.forward(x), want, rtol=1e-5)

    def test_gradcheck_with_quantized_base(self):
        base = tfm.quantize_model(tfm.build_model(TOY, seed=7), 8, targets=("wq", "wv"))
        model = lowrank.attach_adapters(base, r=2, targets=("wq", "wv"), seed=4)
        trainer.configure_trainable(model, "lora_finetune")
        rng = np.random.default_rng(5)
        batch = (rng.integers(0, 11, size=(1, 5)), rng.integers(0, 11, size=(1, 5)))
        report = trainer.grad_check(model, batch, tol=1e-3, seed=7)
        assert report.passed, report

    def test_gradients_flow_only_to_adapter(self):
        model = lowrank.attach_adapters(tfm.build_model(TOY, seed=6), r=2, targets=("wq",), seed=2)
        trainer.configure_trainable(model, "lora_finetune")
        model64 = model.astype(np.float64)
        for name, p in model.named_parameters().items():
            model64.named_parameters()[name].trainable = p.trainable
        rng = np.random.default_rng(4)
        tokens = rng.integers(0, 11, size=(1, 5))
        targets = rng.integers(0, 11, size=(1, 5))
        logits, tape = tfm.model_forward(model64, tokens)
        grads = tfm.model_backward(model64, tape, tfm.cross_entropy_grad(logits, targets))
        assert set(grads) == {f"layers.{i}.wq.down" for i in range(2)} | {
            f"layers.{i}.wq.up" for i in range(2)
        }
        report = trainer.grad_check(model, (tokens, targets), tol=1e-3, seed=5)
        assert report.passed, report


class TestBlend:
    def _blend_layer(self, start_alpha=1.0, end_step=10):
        return tfm.BlendLinear(
            "w",
            linalg.seeded_random(6, 6, seed=18),
            linalg.seeded_random(2, 6, seed=19),
            linalg.seeded_random(6, 2, seed=20),
            start_alpha,
            end_step,
        )

    def test_alpha_one_is_pure_base(self):
        b = self._blend_layer(start_alpha=1.0)
        x = linalg.seeded_random(3, 6, seed=21)
        want = linalg.matmul(x, b.weight.data.T)
        np.testing.assert_allclose(b.forward(x, 0), want, rtol=1e-6)

    def test_alpha_zero_is_pure_lowrank(self):
        b = self._blend_layer(start_alpha=1.0, end_step=5)
        x = linalg.seeded_random(3, 6, seed=22)
        want = linalg.matmul(linalg.matmul(x, b.down.data.T), b.up.data.T)
        np.testing.assert_allclose(b.forward(x, 5), want, rtol=1e-6)
        np.testing.assert_allclose(b.forward(x, 50), want, rtol=1e-6)

    def test_alpha_half_two_path_oracle(self):
        b = self._blend_layer(start_alpha=1.0, end_step=10)
        x = linalg.seeded_random(3, 6, seed=23)
        base = linalg.matmul(x, b.weight.data.T)
        low = linalg.matmul(linalg.matmul(x, b.down.data.T), b.up.data.T)
        np.testing.assert_allclose(
            b.forward(x, 5), 0.5 * base + 0.5 * low, rtol=1e-5, atol=1e-7
        )

    def test_alpha_non_increasing(self):
        b = self._blend_layer(start_alpha=0.9, end_step=7)
        alphas = [b.alpha(s) for s in range(12)]
        assert all(a >= c for a, c in zip(alphas, alphas[1:]))
        assert alphas[0] == pytest.approx(0.9)
        assert alphas[7] == 0.0 == alphas[11]

    def test_negative_step_rejected(self):
        with pytest.raises(ModelError):
            self._blend_layer().alpha(-1)

    def test_blend_model_gradcheck(self):
        model = lowrank.blend_model(
            tfm.build_model(TOY, seed=8), r=2, start_alpha=0.8, end_step=4, seed=3
        )
        trainer.configure_trainable(model, "method3")
        rng = np.random.default_rng(6)
        batch = (rng.integers(0, 11, size=(1, 4)), rng.integers(0, 11, size=(1, 4)))
        report = trainer.grad_check(model, batch, tol=1e-3, step=1, seed=6)
        assert report.passed, report
