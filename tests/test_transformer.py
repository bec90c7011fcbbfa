import math

import numpy as np
import pytest

from lrlm import lowrank
from lrlm import transformer as tfm
from lrlm.linalg import seeded_random

import oracles

TOY = tfm.ModelConfig(vocab=11, dim=8, heads=2, layers=2, ffn_dim=12, max_seq=16)


def build_toy(seed=3, dtype=np.float64):
    return tfm.build_model(TOY, seed=seed).astype(dtype)


class TestRmsNorm:
    def test_all_ones_is_identity(self):
        x = np.ones(6, dtype=np.float64)
        np.testing.assert_allclose(tfm.rmsnorm(x, np.ones(6)), x, rtol=1e-5)

    def test_zero_vector_guarded(self):
        out = tfm.rmsnorm(np.zeros(5), np.ones(5))
        assert not out.any() and np.isfinite(out).all()

    def test_matches_oracle(self):
        x = seeded_random(1, 10, seed=1).astype(np.float64)[0]
        gain = seeded_random(1, 10, seed=2).astype(np.float64)[0]
        want = x / math.sqrt(float(np.mean(x * x)) + 1e-5) * gain
        np.testing.assert_allclose(tfm.rmsnorm(x, gain), want, rtol=1e-6)


class TestRope:
    def test_position_zero_is_identity(self):
        v = seeded_random(1, 8, seed=3)[0]
        np.testing.assert_array_equal(oracles.rope_apply(v, 0), v)

    def test_norm_preserved(self):
        v = seeded_random(1, 16, seed=4).astype(np.float64)[0]
        out = oracles.rope_apply(v, 11, base=10000.0)
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(v), rel=1e-6)

    def test_hand_expanded_d4(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        got = oracles.rope_apply(v, 1, base=10000.0)
        theta = [1.0, 10000.0 ** (-0.5)]
        want = np.array([
            v[0] * math.cos(theta[0]) - v[1] * math.sin(theta[0]),
            v[0] * math.sin(theta[0]) + v[1] * math.cos(theta[0]),
            v[2] * math.cos(theta[1]) - v[3] * math.sin(theta[1]),
            v[2] * math.sin(theta[1]) + v[3] * math.cos(theta[1]),
        ])
        np.testing.assert_allclose(got, want, rtol=1e-6)

    def test_odd_dim_rejected(self):
        with pytest.raises(tfm.ModelError):
            oracles.rope_apply(np.ones(5), 1)


class TestAttention:
    def test_single_position_returns_value(self):
        q = seeded_random(4, 1, seed=5).astype(np.float64)
        k = seeded_random(4, 1, seed=6).astype(np.float64)
        v = seeded_random(4, 1, seed=7).astype(np.float64)
        np.testing.assert_allclose(oracles.attention(q, k, v), v, rtol=1e-6)

    def test_zero_values_give_zero(self):
        q = seeded_random(4, 3, seed=8).astype(np.float64)
        out = oracles.attention(q, q, np.zeros((4, 3)))
        assert not out.any()

    def test_matches_dense_oracle(self):
        d, l = 4, 3
        q = seeded_random(d, l, seed=9).astype(np.float64)
        k = seeded_random(d, l, seed=10).astype(np.float64)
        v = seeded_random(d, l, seed=11).astype(np.float64)
        mask = np.triu(np.full((l, l), -np.inf), k=1)
        scores = q.T @ k / math.sqrt(d) + mask
        probs = np.exp(scores - scores.max(axis=-1, keepdims=True))
        probs /= probs.sum(axis=-1, keepdims=True)
        want = v @ probs.T
        np.testing.assert_allclose(oracles.attention(q, k, v, mask), want, rtol=1e-5)

    def test_softmax_rows_sum_to_one(self):
        scores = seeded_random(5, 5, seed=12).astype(np.float64)
        p = tfm.softmax(scores)
        np.testing.assert_allclose(p.sum(axis=-1), np.ones(5), atol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(tfm.ModelError):
            oracles.attention(np.ones((4, 3)), np.ones((4, 2)), np.ones((4, 3)))


class TestFfn:
    def test_zero_input(self):
        wu = seeded_random(12, 8, seed=13)
        wg = seeded_random(12, 8, seed=14)
        wd = seeded_random(8, 12, seed=15)
        assert not oracles.ffn_forward(np.zeros(8, np.float32), wu, wg, wd).any()

    def test_closed_gate(self):
        wu = seeded_random(12, 8, seed=16)
        wd = seeded_random(8, 12, seed=17)
        x = seeded_random(1, 8, seed=18)[0]
        out = oracles.ffn_forward(x, wu, np.zeros((12, 8), np.float32), wd)
        np.testing.assert_allclose(out, np.zeros(8), atol=1e-7)

    def test_matches_oracle(self):
        wu = seeded_random(12, 8, seed=19).astype(np.float64)
        wg = seeded_random(12, 8, seed=20).astype(np.float64)
        wd = seeded_random(8, 12, seed=21).astype(np.float64)
        x = seeded_random(1, 8, seed=22).astype(np.float64)[0]
        up = wu @ x
        gate = wg @ x
        silu = gate / (1.0 + np.exp(-gate))
        want = wd @ (up * silu)
        np.testing.assert_allclose(oracles.ffn_forward(x, wu, wg, wd), want, rtol=1e-6)


class TestCrossEntropy:
    def test_uniform_logits(self):
        t = 7
        logits = np.zeros((3, t))
        targets = np.array([0, 3, 6])
        assert tfm.cross_entropy_loss(logits, targets) == pytest.approx(math.log(t), rel=1e-9)

    def test_confident_correct_approaches_zero(self):
        logits = np.full((1, 5), -50.0)
        logits[0, 2] = 50.0
        assert tfm.cross_entropy_loss(logits, np.array([2])) < 1e-8

    def test_matches_oracle(self):
        logits = seeded_random(4, 3, seed=23).astype(np.float64)
        targets = np.array([0, 2, 1, 2])
        probs = np.exp(logits - logits.max(axis=-1, keepdims=True))
        probs /= probs.sum(axis=-1, keepdims=True)
        want = float(np.mean([-np.log(probs[i, t]) for i, t in enumerate(targets)]))
        assert tfm.cross_entropy_loss(logits, targets) == pytest.approx(want, rel=1e-9)


def _same_bits(got, want, what=""):
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


def _elementwise_cases(dtype):
    """Named inputs: edge values, the layer walk's stream/score shapes, 1M elements, empty."""
    rng = np.random.default_rng(31)
    tiny = np.finfo(dtype).smallest_subnormal
    edge = [0.0, -0.0, np.inf, -np.inf, 100.0, -100.0, 1e-30, -1e-30, tiny, -tiny, 7 * tiny, -7 * tiny]
    return {
        "edge": np.array(edge, dtype=dtype),
        "stream": (rng.standard_normal((1, 180, 768)) * 4).astype(dtype),
        "scores": (rng.standard_normal((16, 128, 128)) * 4).astype(dtype),
        "one-row": (rng.standard_normal((1, 1, 768)) * 4).astype(dtype),
        "million": (rng.standard_normal(1_000_000) * 8).astype(dtype),
        "empty": np.empty((0,), dtype=dtype),
    }


class TestElementwiseBits:
    """The walk's sigmoid, softmax and softmax backward equal the masked and
    three-temporary forms in tests/oracles.py bit for bit and write no input."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_matches_masked_form(self, dtype):
        for name, x in _elementwise_cases(dtype).items():
            before = x.copy()
            _same_bits(tfm._sigmoid(x), oracles.sigmoid_masked(x), name)
            _same_bits(x, before, name)

    def test_sigmoid_edge_values(self):
        for dtype in (np.float32, np.float64):
            x = np.array([-np.inf, -100.0, -0.0, 0.0, 100.0, np.inf], dtype=dtype)
            got = tfm._sigmoid(x)
            assert got[0] == 0.0 and got[-1] == 1.0 and got[2] == got[3] == 0.5
            assert 0.0 <= got[1] < 1e-40 and got[4] == 1.0

    @staticmethod
    def _softmax_inputs(dtype):
        """Rows of finite scores, causally masked rows and an empty batch."""
        base = _elementwise_cases(dtype)
        cases = {k: x for k, x in base.items() if x.ndim == 3}
        edge = base["edge"]
        rows = np.stack([np.where(np.isinf(edge), -np.inf, edge), np.where(np.isinf(edge), 3.0, edge)])
        rows[0, 0] = 0.0  # keep one finite entry per row, as the causal mask does
        cases["edge-rows"] = rows
        cases["masked"] = cases["scores"] + tfm.causal_mask(128, dtype)
        cases["million"] = base["million"].reshape(1000, 1000)
        cases["empty"] = np.empty((0, 5), dtype=dtype)
        return cases

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_softmax_matches_three_temporaries(self, dtype):
        for name, z in self._softmax_inputs(dtype).items():
            before = z.copy()
            for axis in (-1, 0) if z.size and np.isfinite(z).all() else (-1,):
                _same_bits(tfm.softmax(z, axis=axis), oracles.softmax_three_temps(z, axis=axis), name)
            _same_bits(z, before, name)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_softmax_backward_matches_oracle(self, dtype):
        rng = np.random.default_rng(32)
        for name, z in self._softmax_inputs(dtype).items():
            s = tfm.softmax(z)
            for ds in ((rng.standard_normal(z.shape) * 3).astype(dtype), np.where(np.isfinite(z), z, 0.0)):
                s_before = s.copy()
                want = oracles.softmax_backward(s, ds)
                _same_bits(tfm._softmax_backward(s, ds.copy()), want, name)
                _same_bits(s, s_before, name)

    def test_softmax_writes_into_a_fresh_array(self):
        z = np.asarray(seeded_random(4, 6, seed=33), dtype=np.float64)
        before = z.copy()
        p = tfm.softmax(z)
        assert not np.shares_memory(p, z)
        _same_bits(z, before)

    def test_cross_entropy_grad_leaves_float64_logits_alone(self):
        logits = seeded_random(3, 7, seed=34).astype(np.float64)
        before = logits.copy()
        tfm.cross_entropy_grad(logits, np.array([0, 3, 6]))
        _same_bits(logits, before)


def oracle_forward(model, tokens):
    """Independent straight-line float64 evaluation, one position at a time."""
    cfg = model.config
    h, d = cfg.heads, cfg.head_dim
    we = model.embed.weight.data.astype(np.float64)
    xs = [we[t].copy() for t in tokens]
    for layer in model.layers:
        wq = layer.wq.weight.data.astype(np.float64)
        wk = layer.wk.weight.data.astype(np.float64)
        wv = layer.wv.weight.data.astype(np.float64)
        wo = layer.wo.weight.data.astype(np.float64)
        wu = layer.wu.weight.data.astype(np.float64)
        wg = layer.wg.weight.data.astype(np.float64)
        wd = layer.wd.weight.data.astype(np.float64)
        g1 = layer.norm1.data.astype(np.float64)
        g2 = layer.norm2.data.astype(np.float64)
        normed = [x / math.sqrt(float(np.mean(x * x)) + 1e-5) * g1 for x in xs]
        qs = [np.concatenate([oracles.rope_apply((wq @ x).reshape(h, d)[i], p) for i in range(h)])
              for p, x in enumerate(normed)]
        ks = [np.concatenate([oracles.rope_apply((wk @ x).reshape(h, d)[i], p) for i in range(h)])
              for p, x in enumerate(normed)]
        vs = [wv @ x for x in normed]
        outs = []
        for p in range(len(xs)):
            heads = []
            for i in range(h):
                qi = qs[p].reshape(h, d)[i]
                scores = np.array([qi @ ks[j].reshape(h, d)[i] / math.sqrt(d) for j in range(p + 1)])
                probs = np.exp(scores - scores.max())
                probs /= probs.sum()
                heads.append(sum(probs[j] * vs[j].reshape(h, d)[i] for j in range(p + 1)))
            outs.append(wo @ np.concatenate(heads))
        res1 = [x + o for x, o in zip(xs, outs)]
        normed2 = [x / math.sqrt(float(np.mean(x * x)) + 1e-5) * g2 for x in res1]
        ffn = []
        for x in normed2:
            up = wu @ x
            gate = wg @ x
            ffn.append(wd @ (up * (gate / (1.0 + np.exp(-gate)))))
        xs = [a + b for a, b in zip(res1, ffn)]
    wh = model.head.weight.data.astype(np.float64)
    return np.stack([wh @ x for x in xs])


class TestModelForward:
    def test_logits_shape(self):
        cfg = tfm.ModelConfig(vocab=7, dim=8, heads=2, layers=1, ffn_dim=16, max_seq=12)
        model = tfm.build_model(cfg, seed=1)
        tokens = np.array([1, 2, 3, 4, 5])
        logits, _ = tfm.model_forward(model, tokens)
        assert logits.shape == (5, 7)

    def test_softmax_per_position(self):
        model = build_toy(dtype=np.float32)
        logits, _ = tfm.model_forward(model, np.arange(6) % 11)
        p = tfm.softmax(logits, axis=-1)
        np.testing.assert_allclose(p.sum(axis=-1), np.ones(6), atol=1e-6)

    def test_matches_straight_line_oracle(self):
        model = build_toy(seed=5)
        tokens = np.array([3, 1, 4, 1, 5, 9, 2, 6]) % 11
        logits, _ = tfm.model_forward(model, tokens)
        want = oracle_forward(model, tokens)
        np.testing.assert_allclose(logits, want, rtol=1e-5, atol=1e-8)

    def test_token_out_of_range(self):
        model = build_toy()
        with pytest.raises(tfm.ModelError, match="out of range"):
            tfm.model_forward(model, np.array([0, 11]))

    def test_sequence_too_long(self):
        model = build_toy()
        with pytest.raises(tfm.ModelError, match="max_seq"):
            tfm.model_forward(model, np.zeros(17, dtype=int))

    def test_causality_bit_exact(self):
        model = build_toy(dtype=np.float32)
        rng = np.random.default_rng(0)
        a = rng.integers(0, 11, size=10)
        b = a.copy()
        b[6:] = (b[6:] + 3) % 11
        la, _ = tfm.model_forward(model, a)
        lb, _ = tfm.model_forward(model, b)
        assert np.array_equal(la[:6], lb[:6])

    def test_residual_identity_when_weights_zero(self):
        model = tfm.build_model(TOY, seed=2)
        for layer in model.layers:
            for mat in layer.matrices().values():
                mat.weight.data[:] = 0
        tokens = np.arange(5) % 11
        _, tape = tfm.model_forward(model, tokens)
        embedded = model.embed.forward(tokens[None, :])
        assert np.array_equal(tape.x_final, embedded)


class TestModelBackward:
    def setup_method(self):
        self.model = build_toy(seed=7)
        rng = np.random.default_rng(1)
        self.tokens = rng.integers(0, 11, size=(2, 5))
        self.targets = rng.integers(0, 11, size=(2, 5))

    def _grads(self, policy):
        logits, tape = tfm.model_forward(self.model, self.tokens, policy)
        return tfm.model_backward(self.model, tape, tfm.cross_entropy_grad(logits, self.targets))

    def test_all_gradients_finite(self):
        grads = self._grads(tfm.STORE_ALL)
        assert all(np.isfinite(g).all() for g in grads.values())

    def test_frozen_params_get_no_entry(self):
        self.model.head.weight.trainable = False
        grads = self._grads(tfm.STORE_ALL)
        assert "head.weight" not in grads
        self.model.head.weight.trainable = True

    def test_matches_central_differences(self):
        grads = self._grads(tfm.STORE_ALL)
        rng = np.random.default_rng(2)
        step = 1e-4
        for name, param in self.model.named_parameters().items():
            flat = param.data.ravel()
            gflat = grads[name].ravel()
            for i in rng.choice(flat.size, size=min(4, flat.size), replace=False):
                keep = flat[i]
                flat[i] = keep + step
                up = tfm.cross_entropy_loss(tfm.model_forward(self.model, self.tokens)[0], self.targets)
                flat[i] = keep - step
                down = tfm.cross_entropy_loss(tfm.model_forward(self.model, self.tokens)[0], self.targets)
                flat[i] = keep
                fd = (up - down) / (2 * step)
                assert abs(gflat[i] - fd) <= 1e-3 * max(abs(fd), abs(gflat[i]), 1e-6), name

    def test_recompute_policies_agree(self):
        base = self._grads(tfm.STORE_ALL)
        for policy in (tfm.PER_LAYER, tfm.selective(), tfm.selective(("s",))):
            other = self._grads(policy)
            assert base.keys() == other.keys()
            for k in base:
                np.testing.assert_allclose(other[k], base[k], rtol=1e-6, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_store_all_tape_scores_are_not_overwritten(self, dtype):
        model = build_toy(seed=7, dtype=dtype)
        _, tape = tfm.model_forward(model, self.tokens, tfm.STORE_ALL)
        for e in tape.entries:
            _same_bits(e["qkT"], tfm._scores(e["q"], e["k"], TOY.heads, tape.mask))
            _same_bits(e["s"], tfm.softmax(e["qkT"]))

    @pytest.mark.parametrize("policy", [tfm.STORE_ALL, tfm.selective(("qkT",))], ids=["store_all", "keep-s"])
    def test_backward_leaves_the_tape_unchanged(self, policy):
        logits, tape = tfm.model_forward(self.model, self.tokens, policy)
        before = [{k: a.copy() for k, a in e.items()} for e in tape.entries]
        assert all("s" in e for e in before)
        tfm.model_backward(self.model, tape, tfm.cross_entropy_grad(logits, self.targets))
        for e, kept in zip(tape.entries, before):
            assert e.keys() == kept.keys()
            for k in kept:
                _same_bits(e[k], kept[k], k)

    def test_tape_keeps_only_policy_set(self):
        _, tape = tfm.model_forward(self.model, self.tokens, tfm.PER_LAYER)
        assert all(set(e) == {"x_in"} for e in tape.entries)
        _, tape = tfm.model_forward(self.model, self.tokens, tfm.selective())
        assert all("qkT" not in e and "s" not in e for e in tape.entries)
        _, tape = tfm.model_forward(self.model, self.tokens, tfm.STORE_ALL)
        assert all(len(e) == 11 for e in tape.entries)


class TestKvDecode:
    """KV decode through the layer walk on a dense model; the subclasses below
    rerun every numerical case on q8, low-rank and mid-schedule blend models."""

    @staticmethod
    def build(seed):
        return tfm.build_model(TOY, seed=seed)

    def test_cached_equals_uncached_greedy(self):
        model = self.build(9)
        prompt = np.array([1, 2, 3])
        cached, _ = tfm.greedy_decode(model, prompt, 8, use_cache=True)
        uncached, _ = tfm.greedy_decode(model, prompt, 8, use_cache=False)
        assert cached == uncached

    def test_token_passes_drop_to_one_per_step(self):
        model = self.build(9)
        prompt = np.array([1, 2, 3, 4])
        gen = 5
        _, passes_cached = tfm.greedy_decode(model, prompt, gen, use_cache=True)
        _, passes_full = tfm.greedy_decode(model, prompt, gen, use_cache=False)
        assert passes_cached == len(prompt) + gen - 1
        assert passes_full == sum(len(prompt) + i for i in range(gen))

    def test_ten_step_logits_match_uncached_oracle(self):
        model = self.build(11)
        rng = np.random.default_rng(3)
        seq = rng.integers(0, 11, size=10)
        cache = tfm.KvCache(model)
        stepwise = []
        for i, tok in enumerate(seq):
            logits, cache = tfm.kv_decode_step(model, cache, int(tok))
            assert cache.current_len == i + 1
            stepwise.append(logits)
        full, _ = tfm.model_forward(model, seq)
        np.testing.assert_allclose(np.stack(stepwise), full, rtol=1e-5, atol=1e-5)

    def test_cache_overflow(self):
        model = self.build(9)
        cache = tfm.KvCache(model)
        for _ in range(TOY.max_seq):
            _, cache = tfm.kv_decode_step(model, cache, 1)
        with pytest.raises(tfm.ModelError, match="overflow"):
            tfm.kv_decode_step(model, cache, 1)

    def test_chunked_prefill_then_steps_match_full_forward(self):
        model = self.build(11)
        for layer in model.layers:  # sharp attention, so a wrong position moves the logits
            layer.norm1.data[:] = 8.0
        seq = np.random.default_rng(4).integers(0, 11, size=12)
        cache = tfm.KvCache(model)
        first, _ = tfm.model_forward(model, seq[:5], cache=cache)
        second, tape = tfm.model_forward(model, seq[5:9], cache=cache)
        assert cache.current_len == 9 and tape.entries == []
        with pytest.raises(tfm.ModelError, match="final hidden state"):
            tfm.model_backward(model, tape, np.zeros_like(second))
        steps = [tfm.kv_decode_step(model, cache, int(tok))[0] for tok in seq[9:]]
        full, _ = tfm.model_forward(model, seq)
        np.testing.assert_allclose(np.concatenate([first, second, np.stack(steps)]), full, rtol=1e-5, atol=1e-5)


class TestKvDecodeQ8(TestKvDecode):
    @staticmethod
    def build(seed):
        return tfm.quantize_model(tfm.build_model(TOY, seed=seed), 8)


class TestKvDecodeLowRank(TestKvDecode):
    @staticmethod
    def build(seed):  # every matrix, the embedding included, as rank-2 SVD factors
        return lowrank.decompose_model(tfm.build_model(TOY, seed=seed), 2)


class TestKvDecodeBlend(TestKvDecode):
    @staticmethod
    def build(seed):  # alpha(0) = 0.5: both paths carry weight
        return lowrank.blend_model(tfm.build_model(TOY, seed=seed), r=2, start_alpha=0.5, end_step=4, seed=seed)


class TestDecodeInputValidation:
    """Token checks run before any matrix, so one dense model covers every kind."""

    model = tfm.build_model(TOY, seed=9)

    def test_cache_holds_one_sequence(self):
        with pytest.raises(tfm.ModelError, match="one sequence"):
            tfm.model_forward(self.model, np.ones((2, 3), dtype=int), cache=tfm.KvCache(self.model))

    @pytest.mark.parametrize("max_new", [0, 2])
    @pytest.mark.parametrize("use_cache", [True, False])
    def test_prompt_longer_than_max_seq_rejected(self, use_cache, max_new):
        with pytest.raises(tfm.ModelError, match="max_seq"):
            tfm.greedy_decode(self.model, np.ones(TOY.max_seq + 1, dtype=int), max_new, use_cache=use_cache)

    @pytest.mark.parametrize("max_new", [0, 2])
    @pytest.mark.parametrize("use_cache", [True, False])
    @pytest.mark.parametrize("bad", [TOY.vocab, -1])
    def test_out_of_range_prompt_token_rejected(self, use_cache, bad, max_new):
        with pytest.raises(tfm.ModelError, match="out of range"):
            tfm.greedy_decode(self.model, [1, bad, 2], max_new, use_cache=use_cache)


class TestLayerSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(tfm.ModelError):
            tfm.LayerSpec(kind="sparse")

    def test_rank_bounds_enforced(self):
        with pytest.raises(tfm.ModelError):
            tfm.build_model(TOY, specs={"wq": tfm.LayerSpec(kind="lowrank", r=8)})

    def test_heads_must_divide(self):
        with pytest.raises(tfm.ModelError):
            tfm.ModelConfig(vocab=5, dim=9, heads=2, layers=1, ffn_dim=4, max_seq=4)


def test_state_signature_covers_quantized_scale_and_offset():
    cfg = tfm.ModelConfig(vocab=11, dim=8, heads=2, layers=1, ffn_dim=12, max_seq=8)
    model = tfm.quantize_model(tfm.build_model(cfg, seed=3), 8, targets=("wq",))
    before = model.state_signature()
    q = model.layers[0].wq.weight.data
    for row in (q.scale, q.offset):
        kept = row[1]
        row[1] += 0.5
        assert model.state_signature() != before
        row[1] = kept
        assert model.state_signature() == before
