import numpy as np
import pytest

from lrlm import costmodel, lowrank, trainer
from lrlm import transformer as tfm
from lrlm.trainer import AdamWState, TrainConfig, TrainError

TOY = tfm.ModelConfig(vocab=trainer.BYTE_VOCAB, dim=16, heads=2, layers=2, ffn_dim=24, max_seq=64)


def make_corpus(n_bytes=8192):
    pattern = b"abcabd " * 4 + b"hello world. "
    return trainer.byte_tokenize((pattern * (n_bytes // len(pattern) + 1))[:n_bytes])


class TestAdamW:
    def test_zero_grad_is_pure_decay(self):
        p = tfm.Param("w", np.full(3, 2.0, dtype=np.float32))
        state = AdamWState({"w": p})
        cfg = TrainConfig(lr=0.1, weight_decay=0.05)
        trainer.adamw_step(state, {"w": p}, {"w": np.zeros(3)}, cfg)
        np.testing.assert_allclose(p.data, 2.0 * (1 - 0.1 * 0.05), rtol=1e-6)

    def test_hand_computed_first_step(self):
        p = tfm.Param("w", np.array([1.0], dtype=np.float32))
        state = AdamWState({"w": p})
        cfg = TrainConfig(lr=0.1, weight_decay=0.01, beta1=0.9, beta2=0.999)
        trainer.adamw_step(state, {"w": p}, {"w": np.array([1.0])}, cfg)
        # m_hat = v_hat = 1 after bias correction, so w' = 1 - 0.1*(1/(1+eps) + 0.01).
        assert p.data[0] == pytest.approx(0.899, abs=1e-4)

    def test_identical_grads_give_identical_updates(self):
        a = tfm.Param("a", np.full((2, 2), 0.5, dtype=np.float32))
        b = tfm.Param("b", np.full((2, 2), 0.5, dtype=np.float32))
        state = AdamWState({"a": a, "b": b})
        cfg = TrainConfig(lr=0.01, weight_decay=0.0)
        g = np.full((2, 2), 0.3)
        trainer.adamw_step(state, {"a": a, "b": b}, {"a": g, "b": g.copy()}, cfg)
        np.testing.assert_array_equal(a.data, b.data)

    def test_nan_gradient_names_tensor(self):
        p = tfm.Param("layers.0.wq.weight", np.ones(2, dtype=np.float32))
        state = AdamWState({"layers.0.wq.weight": p})
        with pytest.raises(TrainError, match="layers.0.wq.weight"):
            trainer.adamw_step(state, {"layers.0.wq.weight": p},
                               {"layers.0.wq.weight": np.array([1.0, np.nan])}, TrainConfig())

    def test_config_validation(self):
        with pytest.raises(TrainError):
            TrainConfig(beta1=1.5)
        with pytest.raises(TrainError):
            TrainConfig(lr=0.0)
        with pytest.raises(TrainError):
            TrainConfig(method="method9")


class TestTrainStep:
    def test_lora_bases_bit_unchanged(self):
        model = lowrank.attach_adapters(tfm.build_model(TOY, seed=1), r=4, targets=("wq", "wv"), seed=1)
        trainer.configure_trainable(model, "lora_finetune")
        frozen_before = {
            name: p.data.tobytes()
            for name, p in model.named_parameters().items()
            if not p.trainable
        }
        state = AdamWState(model.trainable_parameters())
        cfg = TrainConfig(method="lora_finetune", batch=2, seq=16, lr=1e-2)
        batches = trainer.sample_batches(make_corpus(), 2, 16, seed=0)
        for _ in range(10):
            trainer.train_step(model, next(batches), cfg, state)
        for name, p in model.named_parameters().items():
            if name in frozen_before:
                assert p.data.tobytes() == frozen_before[name], name

    def test_method3_alpha_hits_zero_and_stays(self):
        model = lowrank.blend_model(tfm.build_model(TOY, seed=2), r=4, start_alpha=0.9, end_step=5, seed=2)
        trainer.configure_trainable(model, "method3")
        layer = model.layers[0].wq
        alphas = [layer.alpha(s) for s in range(8)]
        assert alphas[5] == 0.0 and alphas[7] == 0.0
        state = AdamWState(model.trainable_parameters())
        cfg = TrainConfig(method="method3", batch=2, seq=16, lr=1e-2)
        base_bytes = layer.weight.data.tobytes()
        batches = trainer.sample_batches(make_corpus(), 2, 16, seed=1)
        for _ in range(7):
            trainer.train_step(model, next(batches), cfg, state)
        assert layer.weight.data.tobytes() == base_bytes

    def test_method_layer_mismatch(self):
        model = tfm.build_model(TOY, seed=3)
        state = AdamWState(model.trainable_parameters())
        batch = (np.zeros((1, 4), int), np.zeros((1, 4), int))
        with pytest.raises(TrainError, match="adapters"):
            trainer.train_step(model, batch, TrainConfig(method="lora_finetune"), state)
        with pytest.raises(TrainError, match="blend"):
            trainer.train_step(model, batch, TrainConfig(method="method3"), state)

    def test_recompute_policies_share_loss_trajectory(self):
        corpus = make_corpus()
        trajectories = {}
        for policy in (tfm.STORE_ALL, tfm.PER_LAYER, tfm.selective()):
            model = tfm.build_model(TOY, seed=4)
            cfg = TrainConfig(steps=5, batch=2, seq=16, lr=1e-3, recompute=policy, seed=9)
            result = trainer.train(model, corpus, cfg)
            trajectories[policy.kind] = result.losses
        base = trajectories["store_all"]
        for kind, losses in trajectories.items():
            np.testing.assert_allclose(losses, base, rtol=1e-6)

    def test_fixed_seed_bitwise_identical_metrics(self):
        corpus = make_corpus()
        logs = []
        for _ in range(2):
            model = tfm.build_model(TOY, seed=5)
            cfg = TrainConfig(steps=4, batch=2, seq=16, lr=1e-3, seed=11)
            logs.append(trainer.train(model, corpus, cfg).metrics_csv())
        assert logs[0] == logs[1]

    def test_micro_batch_accumulation_matches_full_batch(self):
        corpus = make_corpus()
        losses = []
        for micro in (1, 2):
            model = tfm.build_model(TOY, seed=6)
            cfg = TrainConfig(steps=3, batch=4, seq=16, lr=1e-3, seed=13, micro_batches=micro)
            losses.append(trainer.train(model, corpus, cfg).losses)
        np.testing.assert_allclose(losses[0], losses[1], rtol=1e-5)


class TestRecomputeBackward:
    def test_grads_and_ratio(self):
        model = tfm.build_model(TOY, seed=7)
        rng = np.random.default_rng(3)
        tokens = rng.integers(0, TOY.vocab, (1, 8))
        targets = rng.integers(0, TOY.vocab, (1, 8))
        logits, tape = tfm.model_forward(model, tokens, tfm.PER_LAYER)
        dlogits = tfm.cross_entropy_grad(logits, targets)
        grads = tfm.model_backward(model, tape, dlogits)
        ratios = costmodel.recompute_ratios(model.config, tokens.shape[1], tape.policy)
        assert ratios["policy"] == "per_layer"
        assert ratios["vs_total"] == pytest.approx(1 / 3)
        logits2, tape2 = tfm.model_forward(model, tokens, tfm.STORE_ALL)
        base = tfm.model_backward(model, tape2, tfm.cross_entropy_grad(logits2, targets))
        for k in base:
            np.testing.assert_allclose(grads[k], base[k], rtol=1e-6, atol=1e-12)

    def test_missing_store_all_entries_error(self):
        model = tfm.build_model(TOY, seed=8)
        tokens = np.arange(6)[None, :] % TOY.vocab
        logits, tape = tfm.model_forward(model, tokens, tfm.STORE_ALL)
        del tape.entries[0]["s"]
        with pytest.raises(tfm.ModelError, match="missing entries"):
            tfm.model_backward(model, tape, tfm.cross_entropy_grad(logits, tokens))


class TestGradCheck:
    def test_dense_model_passes(self):
        model = tfm.build_model(tfm.ModelConfig(vocab=11, dim=8, heads=2, layers=2, ffn_dim=12, max_seq=8), seed=7)
        rng = np.random.default_rng(0)
        batch = (rng.integers(0, 11, (2, 5)), rng.integers(0, 11, (2, 5)))
        assert trainer.grad_check(model, batch, tol=1e-3).passed

    def test_lowrank_model_passes(self):
        specs = {k: tfm.LayerSpec(kind="lowrank", r=3) for k in ("wq", "wk", "wv", "wo", "wu", "wg", "wd")}
        model = tfm.build_model(tfm.ModelConfig(vocab=11, dim=8, heads=2, layers=2, ffn_dim=12, max_seq=8),
                                specs=specs, seed=8)
        rng = np.random.default_rng(1)
        batch = (rng.integers(0, 11, (2, 5)), rng.integers(0, 11, (2, 5)))
        assert trainer.grad_check(model, batch, tol=1e-3).passed

    def test_corrupted_gradient_fails(self, monkeypatch):
        model = tfm.build_model(tfm.ModelConfig(vocab=11, dim=8, heads=2, layers=1, ffn_dim=12, max_seq=8), seed=9)
        rng = np.random.default_rng(2)
        batch = (rng.integers(0, 11, (1, 5)), rng.integers(0, 11, (1, 5)))
        real_backward = tfm.model_backward

        def corrupted(model_, tape, dlogits, step=0):
            grads = real_backward(model_, tape, dlogits, step)
            grads["head.weight"] = grads["head.weight"] + 0.5
            return grads

        monkeypatch.setattr(trainer, "model_backward", corrupted)
        assert not trainer.grad_check(model, batch, tol=1e-3).passed


class TestCorpus:
    def test_empty_corpus(self):
        assert trainer.byte_tokenize(b"").size == 0

    def test_byte_identity(self):
        np.testing.assert_array_equal(trainer.byte_tokenize(b"ab"), [97, 98])

    def test_roundtrip(self):
        data = bytes(range(256)) * 3
        assert trainer.byte_detokenize(trainer.byte_tokenize(data)) == data

    def test_vocab_reserves_specials(self):
        assert trainer.BYTE_VOCAB == 258
        assert trainer.PAD_TOKEN == 256 and trainer.BOS_TOKEN == 257

    def test_unigram_entropy_uniform(self):
        tokens = np.arange(16).repeat(10)
        assert trainer.unigram_entropy(tokens) == pytest.approx(np.log(16), rel=1e-9)


class TestSampleBatches:
    def test_same_seed_same_order(self):
        tokens = make_corpus()
        a = trainer.sample_batches(tokens, 2, 8, seed=3)
        b = trainer.sample_batches(tokens, 2, 8, seed=3)
        for _ in range(5):
            (ia, ta), (ib, tb) = next(a), next(b)
            np.testing.assert_array_equal(ia, ib)
            np.testing.assert_array_equal(ta, tb)

    def test_target_is_shifted_input(self):
        tokens = make_corpus()
        inputs, targets = next(trainer.sample_batches(tokens, 3, 8, seed=4))
        np.testing.assert_array_equal(inputs[:, 1:], targets[:, :-1])

    def test_coverage_of_offsets(self):
        tokens = np.arange(40)
        seq = 8
        limit = tokens.size - seq - 1
        seen = set()
        batches = trainer.sample_batches(tokens, 4, seq, seed=5)
        for _ in range(400):
            inputs, _ = next(batches)
            seen.update(int(row[0]) for row in inputs)
        assert seen == set(range(limit + 1))

    def test_corpus_too_short(self):
        with pytest.raises(TrainError, match="too short"):
            trainer.sample_batches(np.arange(5), 1, 8, seed=0)


class TestFrozenBases:
    """A full-rank base that shares its matrix with a factored term never trains."""

    @staticmethod
    def _base_bytes(model):
        out = {}
        for path, mat in model.named_matrices():
            if mat.paired:
                w = mat.weight.data
                parts = (w.codes, w.scale, w.offset) if hasattr(w, "codes") else (w,)
                out[path] = b"".join(a.tobytes() for a in parts)
        return out

    @pytest.mark.parametrize("build, methods", [
        (lambda: lowrank.attach_adapters(tfm.build_model(TOY, seed=1), r=2, targets=("wq", "wv", "wh"), seed=1),
         ("dense", "lora_finetune")),
        (lambda: lowrank.attach_adapters(tfm.quantize_model(tfm.build_model(TOY, seed=2), 8), r=2,
                                         targets=("wq", "wv"), seed=2),
         ("dense", "lora_finetune")),
        (lambda: lowrank.blend_model(tfm.build_model(TOY, seed=3), r=2, start_alpha=0.8, end_step=4,
                                     targets=("wq", "wu", "wh"), seed=3),
         ("dense", "method3")),
    ], ids=["lora-dense-base", "lora-q8-base", "blend"])
    def test_bases_byte_unchanged_under_every_method(self, build, methods):
        for method in methods:
            model = build()
            before = self._base_bytes(model)
            assert before
            trainer.configure_trainable(model, method)
            trainable = model.trainable_parameters()
            state = AdamWState(trainable)
            factors = {p.name: p.data.copy() for _, m in model.named_matrices() if m.paired for p in (m.down, m.up)}
            cfg = TrainConfig(method=method, batch=2, seq=16, lr=1e-2)
            batches = trainer.sample_batches(make_corpus(), 2, 16, seed=0)
            for _ in range(3):
                trainer.train_step(model, next(batches), cfg, state)
            assert self._base_bytes(model) == before, method
            assert not any(mat.weight.name in trainable for _, mat in model.named_matrices() if mat.paired)
            assert any(not np.array_equal(trainable[n].data, v) for n, v in factors.items()), method

    def test_frozen_factored_term_adds_no_grads(self):
        rng = np.random.default_rng(9)
        down, up = rng.standard_normal((2, 6)), rng.standard_normal((5, 2))
        x, dy = rng.standard_normal((3, 4, 6)), rng.standard_normal((3, 4, 5))
        live, frozen = {}, {}
        dx = tfm.LowRankLinear("w", down, up).backward(x, dy, live)
        np.testing.assert_array_equal(tfm.LowRankLinear("w", down, up, trainable=False).backward(x, dy, frozen), dx)
        assert set(live) == {"w.down", "w.up"} and frozen == {}
        tokens, dx_emb = rng.integers(0, 6, size=(3, 4)), rng.standard_normal((3, 4, 5))
        tfm.LowRankEmbedding("e", down, up, trainable=False).backward(tokens, dx_emb, frozen)
        assert frozen == {}
