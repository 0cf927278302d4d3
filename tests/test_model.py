import warnings

import numpy as np
import numpy.testing as npt
import pytest

from quantal import model
from quantal.model import (
    IGNORE_INDEX,
    ModelConfig,
    ModelState,
    TrainConfig,
    adam_step,
    apply_masking,
    forward,
    forward_batch,
    init_model,
    log_softmax,
    loss_and_grads,
    param_specs,
)
from quantal.util import make_rng

TINY = dict(vocab_size=11, n_layers=2, n_heads=2, hidden=16, intermediate=32, max_positions=8, dropout=0.0)


def tiny_batch():
    ids = np.array(
        [[3, 4, 5, 6, 7, 0, 0], [4, 4, 8, 9, 10, 3, 5], [5, 6, 3, 0, 0, 0, 0]]
    )
    mask = ids != 0
    pick = np.array(
        [[1, 0, 0, 1, 0, 0, 0], [0, 1, 0, 0, 1, 0, 0], [1, 0, 1, 0, 0, 0, 0]], dtype=bool
    )
    labels = np.where(pick, ids, IGNORE_INDEX)
    return ids, mask, labels


def loss_from_public_pieces(state, ids, mask, labels):
    """Loss recomputed from forward_batch + log_softmax, for FD probing."""
    hidden, _ = forward_batch(state, ids, mask)
    sel = labels != IGNORE_INDEX
    logits = hidden[sel] @ state.params["tok_emb"].T + state.params["out_bias"]
    logp = log_softmax(logits, axis=-1)
    return float(-logp[np.arange(sel.sum()), labels[sel]].mean())


class TestConfigValidation:
    def test_hidden_head_divisibility(self):
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=32, hidden=100, n_heads=8)

    def test_dropout_range(self):
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=32, dropout=1.0)
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=32, dropout=-0.1)

    def test_vocab_floor(self):
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=3)

    def test_defaults_match_reported_architecture(self):
        cfg = ModelConfig(vocab_size=4096)
        assert (cfg.n_layers, cfg.n_heads, cfg.hidden, cfg.intermediate) == (8, 8, 256, 1024)

    def test_train_config_bounds(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0, seed=1)
        with pytest.raises(ValueError):
            TrainConfig(epochs=4, seed=1, mask_probability=0.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=4, seed=-1)
        cfg = TrainConfig(epochs=10, seed=0)
        assert cfg.learning_rate == 1e-4 and cfg.batch_size == 16
        assert cfg.mask_probability == 0.15


class TestInit:
    def test_deterministic_bitwise(self):
        a = init_model(ModelConfig(**TINY), seed=9)
        b = init_model(ModelConfig(**TINY), seed=9)
        for name in a.params:
            npt.assert_array_equal(a.params[name], b.params[name])

    def test_seed_changes_weights(self):
        a = init_model(ModelConfig(**TINY), seed=9)
        b = init_model(ModelConfig(**TINY), seed=10)
        assert not np.array_equal(a.params["tok_emb"], b.params["tok_emb"])

    def test_norm_scales_ones_offsets_zero(self):
        st = init_model(ModelConfig(**TINY), seed=1)
        for name, _, kind in param_specs(st.config):
            if kind == "ones":
                npt.assert_array_equal(st.params[name], 1.0)
            elif kind == "zeros":
                npt.assert_array_equal(st.params[name], 0.0)

    def test_weight_statistics(self):
        st = init_model(ModelConfig(vocab_size=512), seed=3)
        for name, _, kind in param_specs(st.config):
            if kind != "normal":
                continue
            w = st.params[name].ravel()
            assert abs(w.mean()) < 3 * 0.02 / np.sqrt(w.size), name
            assert w.std() == pytest.approx(0.02, rel=0.1), name

    def test_moments_zero_step_zero(self):
        st = init_model(ModelConfig(**TINY), seed=1)
        assert st.step == 0
        assert all(not m.any() for m in st.opt_m.values())
        assert all(not v.any() for v in st.opt_v.values())


class TestForward:
    def test_logit_shape_and_softmax_rows(self):
        st = init_model(ModelConfig(**TINY), seed=2)
        logits = forward(st, [3, 4, 5, 6])
        assert logits.shape == (4, 11)
        assert np.isfinite(logits).all()
        sums = np.exp(log_softmax(logits, axis=-1)).sum(axis=-1)
        npt.assert_allclose(sums, 1.0, atol=1e-6)

    def test_attention_rows_normalized_padded_keys_zero(self):
        st = init_model(ModelConfig(**TINY), seed=2)
        ids, mask, _ = tiny_batch()
        _, cache = forward_batch(st, ids, mask)
        for layer in cache["layers"]:
            probs = layer["probs"]  # (B, heads, L, L)
            npt.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-6)
            padded_key_cols = probs[~np.broadcast_to(mask[:, None, None, :], probs.shape)]
            npt.assert_array_equal(padded_key_cols, 0.0)

    def test_padding_invariance(self):
        st = init_model(ModelConfig(vocab_size=50, n_layers=2, n_heads=4, hidden=64, intermediate=128, max_positions=16), seed=4)
        ids = [3, 9, 14, 21, 5, 6]
        bare = forward(st, ids)
        padded = forward(st, ids + [0, 0, 0, 0], [True] * 6 + [False] * 4)
        npt.assert_allclose(padded[:6], bare, rtol=1e-5, atol=1e-5)

    def test_batch_composition_invariance(self):
        st = init_model(ModelConfig(**TINY), seed=5)
        a = np.array([3, 4, 5, 6, 7])
        b = np.array([8, 9, 10])
        ids = np.zeros((2, 5), dtype=np.int64)
        mask = np.zeros((2, 5), dtype=bool)
        ids[0, :5], mask[0, :5] = a, True
        ids[1, :3], mask[1, :3] = b, True
        hid_batch, _ = forward_batch(st, ids, mask)
        hid_a, _ = forward_batch(st, a[None, :], np.ones((1, 5), bool))
        hid_b, _ = forward_batch(st, b[None, :], np.ones((1, 3), bool))
        npt.assert_allclose(hid_batch[0, :5], hid_a[0], rtol=1e-5, atol=1e-5)
        npt.assert_allclose(hid_batch[1, :3], hid_b[0], rtol=1e-5, atol=1e-5)

    def test_too_long_rejected(self):
        st = init_model(ModelConfig(**TINY), seed=2)
        with pytest.raises(ValueError):
            forward(st, [3] * 9)

    def test_bad_ids_rejected(self):
        st = init_model(ModelConfig(**TINY), seed=2)
        with pytest.raises(ValueError):
            forward(st, [3, 11])
        with pytest.raises(ValueError):
            forward(st, [3, -1])

    def test_zeroed_parameters_give_zero_logits(self):
        st = init_model(ModelConfig(**TINY), seed=2)
        for name in st.params:
            st.params[name][...] = 0.0
        logits = forward(st, [3, 4, 5])
        npt.assert_array_equal(logits, 0.0)


def lively_state(dtype, seed=6):
    """TINY model with every parameter redrawn at unit scale, so LayerNorm
    scales and offsets, biases and GELU's saturated tails all matter."""
    st = init_model(ModelConfig(**TINY), seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed)
    for name, arr in st.params.items():
        base = 1.0 if name.endswith("_scale") else 0.0
        arr[...] = base + rng.normal(0.0, 0.7, size=arr.shape)
    return st


def masked_ragged_batch():
    """tiny_batch with MASK (id 2) in some real slots, as PLL rows have."""
    ids, mask, _ = tiny_batch()
    ids = ids.copy()
    ids[0, 1] = ids[1, 4] = ids[2, 0] = 2
    return ids, mask


class TestCacheFreeForward:
    @pytest.mark.parametrize("dtype, rtol, atol", [(np.float64, 1e-12, 1e-12), (np.float32, 1e-5, 1e-6)])
    def test_matches_cached_pass(self, dtype, rtol, atol, monkeypatch):
        # A small block makes _gelu_inplace run several row blocks, the last one partial.
        monkeypatch.setattr(model, "_GELU_BLOCK", 3 * TINY["intermediate"])
        st = lively_state(dtype)
        ids, mask = masked_ragged_batch()
        ref, _ = forward_batch(st, ids, mask)
        got, cache = forward_batch(st, ids, mask, keep_cache=False)
        assert cache is None
        assert got.dtype == dtype
        npt.assert_allclose(got, ref, rtol=rtol, atol=atol)

    def test_dropout_draws_match_cached_pass(self):
        st = lively_state(np.float64)
        ids, mask = masked_ragged_batch()
        ref, _ = forward_batch(st, ids, mask, dropout_rng=make_rng(4))
        got, _ = forward_batch(st, ids, mask, dropout_rng=make_rng(4), keep_cache=False)
        npt.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)

    def test_parameters_untouched(self):
        st = lively_state(np.float32)
        before = {name: arr.tobytes() for name, arr in st.params.items()}
        forward_batch(st, *masked_ragged_batch(), keep_cache=False)
        assert {name: arr.tobytes() for name, arr in st.params.items()} == before

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_inplace_matches_gelu_without_overflow_warnings(self, dtype):
        x = np.linspace(-120.0, 120.0, 4001, dtype=dtype).reshape(-1, 1)
        ref, _ = model._gelu(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, s = model._gelu_inplace(x.copy())
        assert s is None
        # _gelu's x - x*s/2 cancels in the negative tail, so allow eps*|x| there.
        eps = np.finfo(dtype).eps
        bound = 8 * eps * (np.abs(ref) + np.abs(x)) + np.finfo(dtype).tiny
        npt.assert_array_less(np.abs(got - ref), bound)

    def test_layer_norm_inplace_is_bit_identical(self):
        x = np.random.default_rng(0).normal(size=(3, 5, 16)).astype(np.float32)
        scale = np.linspace(0.5, 1.5, 16, dtype=np.float32)
        offset = np.linspace(-1.0, 1.0, 16, dtype=np.float32)
        ref, _ = model._layer_norm(x, scale, offset)
        got, cache = model._layer_norm_inplace(x.copy(), scale, offset)
        assert cache is None
        npt.assert_array_equal(got, ref)


class TestLogSoftmax:
    def test_hand_computed_cross_entropy(self):
        logp = log_softmax(np.array([[np.log(3.0), 0.0]]))
        assert -logp[0, 0] == pytest.approx(np.log(4.0 / 3.0), rel=1e-12)
        assert -logp[0, 1] == pytest.approx(np.log(4.0), rel=1e-12)

    def test_rows_normalize(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 5, size=(20, 13))
        npt.assert_allclose(np.exp(log_softmax(x)).sum(axis=-1), 1.0, atol=1e-12)

    def test_large_logits_stable(self):
        logp = log_softmax(np.array([[1000.0, 0.0, -1000.0]]))
        assert np.isfinite(logp[0, 0])
        assert logp[0, 0] == pytest.approx(0.0, abs=1e-9)


class TestMasking:
    def test_selection_frequency(self):
        rng = make_rng(11)
        ids = np.full(10_000, 7)
        masked, labels = apply_masking(ids, 0.15, rng, mask_id=2)
        frac = (masked == 2).mean()
        assert frac == pytest.approx(0.15, abs=0.02)

    def test_labels_and_replacement(self):
        rng = make_rng(3)
        ids = np.arange(3, 103)
        masked, labels = apply_masking(ids, 0.3, rng, mask_id=2)
        sel = labels != IGNORE_INDEX
        npt.assert_array_equal(masked[sel], 2)
        npt.assert_array_equal(labels[sel], ids[sel])
        npt.assert_array_equal(masked[~sel], ids[~sel])
        assert (labels[~sel] == IGNORE_INDEX).all()

    def test_fresh_draws_differ(self):
        rng = make_rng(4)
        ids = np.arange(3, 103)
        first = apply_masking(ids, 0.15, rng, mask_id=2)[1]
        second = apply_masking(ids, 0.15, rng, mask_id=2)[1]
        assert not np.array_equal(first, second)

    def test_probability_bounds(self):
        rng = make_rng(5)
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                apply_masking(np.arange(5), bad, rng, mask_id=2)


class TestGradientCheck:
    def test_analytic_matches_central_differences_every_tensor(self):
        st = init_model(ModelConfig(**TINY), seed=1, dtype=np.float64)
        ids, mask, labels = tiny_batch()
        _, grads, n_masked = loss_and_grads(st, ids, mask, labels)
        assert n_masked == 6
        h = 1e-5
        report = {}
        for name, p in st.params.items():
            worst = 0.0
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + h
                up = loss_from_public_pieces(st, ids, mask, labels)
                p[idx] = orig - h
                down = loss_from_public_pieces(st, ids, mask, labels)
                p[idx] = orig
                fd = (up - down) / (2 * h)
                an = grads[name][idx]
                rel = abs(an - fd) / max(abs(an), abs(fd), 1e-5)
                worst = max(worst, rel)
            report[name] = worst
        for name, worst in report.items():
            assert worst < 1e-5, f"{name}: relative error {worst:.3e}"

    def test_position_rows_beyond_batch_get_zero_gradient(self):
        st = init_model(ModelConfig(**TINY), seed=1, dtype=np.float64)
        ids, mask, labels = tiny_batch()
        _, grads, _ = loss_and_grads(st, ids, mask, labels)
        npt.assert_array_equal(grads["pos_emb"][7], 0.0)  # beyond batch width

    def test_tied_projection_reaches_unused_embedding_rows(self):
        # softmax puts mass on every token, so tying gives output-side
        # gradient even to ids absent from the batch
        st = init_model(ModelConfig(**TINY), seed=1, dtype=np.float64)
        ids, mask, labels = tiny_batch()
        _, grads, _ = loss_and_grads(st, ids, mask, labels)
        used = set(ids.ravel())
        unused = [t for t in range(st.config.vocab_size) if t not in used]
        assert unused
        for tok in unused:
            assert np.abs(grads["tok_emb"][tok]).max() > 0

    def test_loss_reproducible_without_dropout_rng(self):
        cfg = ModelConfig(**{**TINY, "dropout": 0.1})
        st = init_model(cfg, seed=6)
        ids, mask, labels = tiny_batch()
        l1 = loss_and_grads(st, ids, mask, labels)[0]
        l2 = loss_and_grads(st, ids, mask, labels)[0]
        assert l1 == l2

    def test_dropout_rng_changes_loss(self):
        cfg = ModelConfig(**{**TINY, "dropout": 0.5})
        st = init_model(cfg, seed=6)
        ids, mask, labels = tiny_batch()
        base = loss_and_grads(st, ids, mask, labels)[0]
        dropped = loss_and_grads(st, ids, mask, labels, dropout_rng=make_rng(0))[0]
        assert base != dropped


class TestLossEdges:
    def test_no_masked_positions(self):
        st = init_model(ModelConfig(**TINY), seed=1)
        ids, mask, _ = tiny_batch()
        labels = np.full_like(ids, IGNORE_INDEX)
        loss, grads, n = loss_and_grads(st, ids, mask, labels)
        assert (loss, grads, n) == (0.0, None, 0)

    def test_loss_positive_and_near_uniform_at_init(self):
        st = init_model(ModelConfig(**TINY), seed=1)
        ids, mask, labels = tiny_batch()
        loss, _, _ = loss_and_grads(st, ids, mask, labels)
        assert 0 < loss < 2 * np.log(st.config.vocab_size)

    def test_grad_keys_match_params(self):
        st = init_model(ModelConfig(**TINY), seed=1)
        ids, mask, labels = tiny_batch()
        _, grads, _ = loss_and_grads(st, ids, mask, labels)
        assert set(grads) == set(st.params)
        for name in grads:
            assert grads[name].shape == st.params[name].shape


def reference_adam(params, grad_seq, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Textbook Adam with explicit bias-corrected moments."""
    p = {k: v.astype(np.float64).copy() for k, v in params.items()}
    m = {k: np.zeros_like(v) for k, v in p.items()}
    v = {k: np.zeros_like(val) for k, val in p.items()}
    for t, grads in enumerate(grad_seq, start=1):
        for k, g in grads.items():
            g = g.astype(np.float64)
            m[k] = b1 * m[k] + (1 - b1) * g
            v[k] = b2 * v[k] + (1 - b2) * g * g
            m_hat = m[k] / (1 - b1**t)
            v_hat = v[k] / (1 - b2**t)
            p[k] = p[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return p


class TestAdam:
    def _state_with(self, params):
        cfg = ModelConfig(**TINY)
        return ModelState(
            config=cfg,
            params={k: v.copy() for k, v in params.items()},
            opt_m={k: np.zeros_like(v) for k, v in params.items()},
            opt_v={k: np.zeros_like(v) for k, v in params.items()},
        )

    def test_matches_reference_over_steps(self):
        rng = np.random.default_rng(17)
        params = {"a": rng.normal(size=(4, 3)), "b": rng.normal(size=(5,))}
        grad_seq = [
            {"a": rng.normal(size=(4, 3)), "b": rng.normal(size=(5,))} for _ in range(5)
        ]
        st = self._state_with(params)
        for grads in grad_seq:
            adam_step(st, {k: g.copy() for k, g in grads.items()}, lr=1e-3)
        want = reference_adam(params, grad_seq, lr=1e-3)
        for k in params:
            npt.assert_allclose(st.params[k], want[k], rtol=1e-10, atol=1e-12)
        assert st.step == 5

    def test_first_step_size_is_learning_rate(self):
        # bias correction makes the first update ~lr for any gradient scale
        # well above epsilon
        for scale in (1e-3, 1.0, 1e4):
            st = self._state_with({"w": np.zeros(3)})
            adam_step(st, {"w": np.full(3, scale)}, lr=1e-2)
            npt.assert_allclose(st.params["w"], -1e-2, rtol=1e-4)
