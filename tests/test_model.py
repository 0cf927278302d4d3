import hashlib
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
    backward_batch,
    forward,
    forward_batch,
    init_model,
    log_softmax,
    loss_and_grads,
    output_head,
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
        with pytest.raises(ValueError, match="dropout must be a finite number"):
            ModelConfig(vocab_size=11, dropout=False)
        assert type(ModelConfig(vocab_size=11, dropout=np.float32(0.25)).dropout) is float

    def test_vocab_floor(self):
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=3)

    @pytest.mark.parametrize("bad", [dict(n_heads=0), dict(max_positions=8.0), dict(n_layers=True),
                                     dict(hidden=-256), dict(intermediate="1024")],
                             ids=["zero", "float", "bool", "negative", "string"])
    def test_dimensions_are_positive_integers(self, bad):
        (name, value), = bad.items()
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
            ModelConfig(vocab_size=32, **bad)

    def test_defaults_match_reported_architecture(self):
        cfg = ModelConfig(vocab_size=4096)
        assert (cfg.n_layers, cfg.n_heads, cfg.hidden, cfg.intermediate) == (8, 8, 256, 1024)

    def test_train_config_bounds(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0, seed=1)
        with pytest.raises(ValueError):
            TrainConfig(epochs=4, seed=-1)

    @pytest.mark.parametrize("bad", [dict(epochs=True), dict(seed=2.5), dict(epochs=2.0), dict(seed="3")],
                             ids=["bool-epochs", "fractional-seed", "float-epochs", "string-seed"])
    def test_train_config_values_are_integers(self, bad):
        (name, value), = bad.items()
        with pytest.raises(ValueError, match=f"{name} must be an integer >= "):
            TrainConfig(**{"epochs": 1, "seed": 0, **bad})

    def test_train_config_takes_a_64_bit_seed(self):
        # sweep seeds are 64-bit hashes; a float() on the way would round them
        assert TrainConfig(epochs=1, seed=2**64 - 1).seed == 2**64 - 1


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
        assert padded.shape == bare.shape  # the real positions only
        npt.assert_allclose(padded, bare, rtol=1e-5, atol=1e-5)

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
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_cached_pass(self, dtype, monkeypatch):
        # A small block makes GELU run several row blocks, the last one partial.
        monkeypatch.setattr(model, "_GELU_BLOCK", 3 * TINY["intermediate"])
        st = lively_state(dtype)
        # a zero ff1_b would hide a slip in the inference pass's bias add
        assert all(st.params[f"l{n}.ff1_b"].all() for n in range(TINY["n_layers"]))
        ragged_ids, ragged_mask = masked_ragged_batch()
        full_ids = ragged_ids[[1, 1, 1]]  # the full-width row three times
        for ids, mask in ((ragged_ids, ragged_mask), (full_ids, np.ones(full_ids.shape, bool))):
            padded, _ = forward_batch(st, ids, mask)
            training, _ = model._forward(st, ids, mask, None, keep_cache=True, real_only=True)
            got, cache = forward_batch(st, ids, mask, keep_cache=False)
            assert cache is None
            # the real rows only, in the order mask lists them
            assert got.dtype == dtype and got.shape == (mask.sum(), TINY["hidden"])
            # one GELU kernel: the inference pass is the training forward bit for bit
            npt.assert_array_equal(got, training)
            npt.assert_array_equal(got, padded[mask])

    def test_dropout_rejected(self):
        st = lively_state(np.float64)
        st.config.dropout = 0.3
        with pytest.raises(ValueError, match="dropout"):
            forward_batch(st, *masked_ragged_batch(), dropout_rng=make_rng(4), keep_cache=False)

    def test_parameters_untouched(self):
        st = lively_state(np.float32)
        before = {name: arr.tobytes() for name, arr in st.params.items()}
        forward_batch(st, *masked_ragged_batch(), keep_cache=False)
        assert {name: arr.tobytes() for name, arr in st.params.items()} == before

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_without_cache_matches_default(self, dtype):
        x = np.linspace(-120.0, 120.0, 4001, dtype=dtype).reshape(-1, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ref, d = model._gelu(x)
            buf = x.copy()
            got, cache = model._gelu(buf, keep_cache=False)
        assert cache is None and got is buf  # the result overwrites its input
        assert np.isinf(d).any()  # the negative tail overflows exp
        npt.assert_array_equal(got, ref)
        npt.assert_array_equal(np.signbit(got), np.signbit(ref))

    def test_gelu_without_cache_in_blocks_is_bit_identical(self, monkeypatch):
        # One block-sized d serves every block, the last one partial.
        rng = np.random.default_rng(1)
        x = rng.normal(0.0, 3.0, size=(10, 16)).astype(np.float32)
        ref, _ = model._gelu(x)
        monkeypatch.setattr(model, "_GELU_BLOCK", 3 * 16)
        got, _ = model._gelu(x.copy(), keep_cache=False)
        npt.assert_array_equal(got, ref)

    def test_layer_norm_without_cache_is_bit_identical(self):
        x = np.random.default_rng(0).normal(size=(3, 5, 16)).astype(np.float32)
        scale = np.linspace(0.5, 1.5, 16, dtype=np.float32)
        offset = np.linspace(-1.0, 1.0, 16, dtype=np.float32)
        x64 = x.astype(np.float64)
        centred = x64 - x64.mean(axis=-1, keepdims=True)
        xhat = centred / np.sqrt((centred**2).mean(axis=-1, keepdims=True) + model.LN_EPS)
        buf = x.copy()
        ref, (cached_xhat, _) = model._layer_norm(buf, scale, offset)
        # the input is normalized in place and kept; the output is a new array
        assert cached_xhat is buf and ref is not buf
        npt.assert_allclose(cached_xhat, xhat, rtol=1e-5, atol=1e-6)
        npt.assert_allclose(ref, xhat * scale + offset, rtol=1e-5, atol=1e-6)
        buf = x.copy()
        got, cache = model._layer_norm(buf, scale, offset, keep_cache=False)
        assert cache is None and got is buf
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

    def test_gelu_backward_matches_central_differences(self):
        x = np.linspace(-12.0, 12.0, 2401).reshape(-1, 7)
        h = 1e-6
        fd = (model._gelu(x + h)[0] - model._gelu(x - h)[0]) / (2 * h)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, d = model._gelu(x)
            got = model._gelu_backward(np.ones_like(x), x, d)
        npt.assert_allclose(got, fd, rtol=1e-6, atol=1e-8)
        # the saturated negative tail, where exp overflows: exactly 0, not nan
        tail = np.array([[-30.0], [-120.0], [-1e4]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, d = model._gelu(tail)
            got = model._gelu_backward(np.ones_like(tail), tail, d)
        assert np.isinf(d).all()
        npt.assert_array_equal(got, 0.0)

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


def padded_loss_and_grads(state, ids, mask, labels, dropout_rng=None):
    """loss_and_grads computed over every position, padded ones too, from
    forward_batch, output_head and backward_batch."""
    hidden, cache = forward_batch(state, ids, mask, dropout_rng=dropout_rng)
    sel = labels != IGNORE_INDEX
    h_sel = hidden[sel]
    logp = log_softmax(output_head(state, h_sel), axis=-1)
    rows, true_ids = np.arange(sel.sum()), labels[sel]
    dlogits = np.exp(logp)
    dlogits[rows, true_ids] -= 1.0
    dlogits /= sel.sum()
    d_hidden = np.zeros_like(hidden)
    d_hidden[sel] = dlogits @ state.params["tok_emb"]
    grads = backward_batch(state, d_hidden, cache)
    grads["tok_emb"] += dlogits.T @ h_sel
    grads["out_bias"] += dlogits.sum(axis=0)
    return float(-logp[rows, true_ids].mean()), grads


def sha256s(grads):
    return {name: hashlib.sha256(g.tobytes()).hexdigest() for name, g in grads.items()}


class TestRealRowsOnly:
    """loss_and_grads runs its row-wise ops on the real positions only."""

    @pytest.mark.parametrize("dtype, rtol, atol", [(np.float64, 1e-12, 1e-12), (np.float32, 1e-5, 1e-6)])
    @pytest.mark.parametrize("dropout", [False, True])
    def test_ragged_batch_matches_padded_reference(self, dtype, rtol, atol, dropout):
        st = lively_state(dtype)
        st.config.dropout = 0.3
        ids, mask = masked_ragged_batch()
        labels = np.where(ids == 2, tiny_batch()[0], IGNORE_INDEX)
        labels[1, 0] = 4  # an unmasked label slot too
        assert (~mask).any() and (labels != IGNORE_INDEX).sum() == 4
        rng = (lambda: make_rng(8)) if dropout else (lambda: None)
        loss, grads, _ = loss_and_grads(st, ids, mask, labels, dropout_rng=rng())
        ref_loss, ref = padded_loss_and_grads(st, ids, mask, labels, dropout_rng=rng())
        assert set(grads) == set(st.params)
        # same draws, same rows: the forward and loss are bit-identical
        assert loss.hex() == ref_loss.hex()
        for name, g in grads.items():
            assert g.dtype == dtype and g.shape == st.params[name].shape, name
            scale = np.abs(ref[name]).max()
            npt.assert_allclose(g, ref[name], rtol=rtol, atol=atol * max(scale, 1.0), err_msg=name)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_unpadded_batch_is_bit_identical(self, dtype):
        st = lively_state(dtype)
        ids, _, labels = tiny_batch()
        ids, labels = ids[1:2], labels[1:2]  # the one full-width row
        mask = np.ones_like(ids, dtype=bool)
        loss, grads, _ = loss_and_grads(st, ids, mask, labels)
        ref_loss, ref = padded_loss_and_grads(st, ids, mask, labels)
        assert loss.hex() == ref_loss.hex()
        assert sha256s(grads) == sha256s(ref)

    def test_dropout_stream_ends_where_the_padded_pass_ends(self):
        st = lively_state(np.float64)
        st.config.dropout = 0.3
        ids, mask = masked_ragged_batch()
        labels = np.where(ids == 2, tiny_batch()[0], IGNORE_INDEX)
        packed, padded = make_rng(8), make_rng(8)
        loss_and_grads(st, ids, mask, labels, dropout_rng=packed)
        forward_batch(st, ids, mask, dropout_rng=padded)
        assert packed.random() == padded.random()

    def test_labels_at_padded_positions_rejected(self):
        st = init_model(ModelConfig(**TINY), seed=1)
        ids, mask, labels = tiny_batch()
        labels[0, 6] = 3
        with pytest.raises(ValueError, match="padded"):
            loss_and_grads(st, ids, mask, labels)

    def test_training_pass_leaves_its_inputs_alone(self):
        # LayerNorm normalizes its input in place; that input is never the caller's array
        st = lively_state(np.float32)
        st.config.dropout = 0.3
        ragged_ids, ragged_mask = masked_ragged_batch()
        full_ids = ragged_ids[[1, 1, 1]]  # every position real: rows are a view of the batch
        for ids, mask in ((ragged_ids, ragged_mask), (full_ids, np.ones(full_ids.shape, bool))):
            labels = np.where(ids == 2, 5, IGNORE_INDEX)
            args = (ids, mask, labels)
            before = [a.tobytes() for a in (*args, *st.params.values())]
            loss_and_grads(st, *args, dropout_rng=make_rng(8))
            forward_batch(st, ids, mask, dropout_rng=make_rng(8))
            assert [a.tobytes() for a in (*args, *st.params.values())] == before

    def test_backward_batch_leaves_its_inputs_alone(self):
        st = lively_state(np.float64)
        ids, mask = masked_ragged_batch()
        hidden, cache = forward_batch(st, ids, mask)
        d_hidden = np.linspace(-1.0, 1.0, hidden.size).reshape(hidden.shape)
        before = d_hidden.copy()
        first = backward_batch(st, d_hidden, cache)
        npt.assert_array_equal(d_hidden, before)
        assert sha256s(backward_batch(st, d_hidden, cache)) == sha256s(first)


class TestScoredRowsOnly:
    """forward_batch(..., keep_cache=False, at=...) returns the hidden rows
    at one query position per batch row, (b, at[b]); its last layer
    computes just those rows past K and V.  The full pass it is checked
    against is the unpruned real-row pass."""

    # masked_ragged_batch's real lengths are 5, 7 and 3
    QUERIES = {"one_per_row": [1, 4, 0], "first_real": [0, 0, 0], "last_real": [4, 6, 2]}

    @staticmethod
    def check_rows(st, ids, mask, at, rtol, atol):
        ref, _ = forward_batch(st, ids, mask, keep_cache=False)
        got, cache = forward_batch(st, ids, mask, keep_cache=False, at=np.array(at))
        assert cache is None
        assert got.dtype == st.dtype and got.shape == (ids.shape[0], TINY["hidden"])
        row_of = np.cumsum(mask.ravel()).reshape(mask.shape) - 1  # real-row index of each position
        npt.assert_allclose(got, ref[row_of[np.arange(ids.shape[0]), at]], rtol=rtol, atol=atol)

    @pytest.mark.parametrize("dtype, rtol, atol", [(np.float64, 1e-12, 1e-12), (np.float32, 1e-5, 1e-6)])
    @pytest.mark.parametrize("queries", sorted(QUERIES))
    def test_matches_full_pass_rows(self, dtype, rtol, atol, queries):
        self.check_rows(lively_state(dtype), *masked_ragged_batch(), self.QUERIES[queries], rtol, atol)

    @pytest.mark.parametrize("dtype, rtol, atol", [(np.float64, 1e-12, 1e-12), (np.float32, 1e-5, 1e-6)])
    def test_unpadded_batch_matches_full_pass_rows(self, dtype, rtol, atol):
        ids, _ = masked_ragged_batch()
        ids = ids[[1, 1, 1]]  # the full-width row three times
        self.check_rows(lively_state(dtype), ids, np.ones(ids.shape, bool), [1, 4, 6], rtol, atol)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_real_position_is_bit_identical(self, dtype):
        # With one real token per batch row, the queries are every real
        # row, and softmax over the single real key is exactly 1: the
        # pruned last layer gives the full pass's rows bit for bit.
        st = lively_state(dtype)
        for width in (1, 7):
            ids = masked_ragged_batch()[0][:, :width]
            single = np.zeros_like(ids, dtype=bool)
            single[:, 0] = True
            ref, _ = forward_batch(st, ids, single, keep_cache=False)
            got, _ = forward_batch(st, ids, single, keep_cache=False, at=np.zeros(3, dtype=int))
            assert got.shape == ref.shape == (3, TINY["hidden"])
            assert [x.hex() for x in got.ravel().tolist()] == [x.hex() for x in ref.ravel().tolist()]

    @pytest.mark.parametrize(
        "at, match",
        [
            ([1, 4, 5], "padded"),
            ([1, 4, 7], "outside"),
            ([-1, 4, 0], "outside"),
            ([[1, 4, 0]], "one query position per batch row"),
            ([1, 4], "one query position per batch row"),
            ([1.0, 4.0, 0.0], "one query position per batch row"),
        ],
    )
    def test_bad_query_positions_rejected(self, at, match):
        st = lively_state(np.float32)
        ids, mask = masked_ragged_batch()
        with pytest.raises(ValueError, match=match):
            forward_batch(st, ids, mask, keep_cache=False, at=np.array(at))

    def test_at_with_cache_rejected(self):
        st = lively_state(np.float32)
        ids, mask = masked_ragged_batch()
        with pytest.raises(ValueError, match="keep_cache"):
            forward_batch(st, ids, mask, at=np.zeros(3, dtype=int))


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


def one_pass_adam_step(state, grads, lr):
    """adam_step's formula as one pass over each whole tensor, its step
    scalars rounded to the tensor's dtype."""
    state.step += 1
    t = state.step
    sqrt_c2 = np.sqrt(1.0 - model.ADAM_BETA2**t)
    step_size = lr * sqrt_c2 / (1.0 - model.ADAM_BETA1**t)
    for name, g in grads.items():
        m, v = state.opt_m[name], state.opt_v[name]
        eps, lr_t = v.dtype.type(model.ADAM_EPS * sqrt_c2), v.dtype.type(step_size)
        m *= model.ADAM_BETA1
        m += (1.0 - model.ADAM_BETA1) * g
        g *= g
        v *= model.ADAM_BETA2
        v += (1.0 - model.ADAM_BETA2) * g
        denom = np.sqrt(v)
        denom += eps
        np.divide(m, denom, out=denom)
        denom *= lr_t
        state.params[name] -= denom


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

    def test_blocks_are_bit_identical_to_one_pass_per_tensor(self, monkeypatch):
        # 21-element blocks: the float32 tensor takes 3-row blocks and a 1-row
        # tail, the float64 one 21, 21 and 8 elements.  state.dtype reads
        # tok_emb, so a temporary sized from it would be float32 for both.
        monkeypatch.setattr(model, "_ADAM_BLOCK", 21)
        rng = np.random.default_rng(23)
        params = {
            "tok_emb": rng.normal(size=(10, 7)).astype(np.float32),
            "bias": rng.normal(size=50),
        }
        blocked, one_pass = self._state_with(params), self._state_with(params)
        for _ in range(3):
            # magnitudes down to 1e-9, so that eps shapes the update too
            grads = {
                k: (rng.normal(size=v.shape) * 10.0 ** rng.uniform(-9, 0, size=v.shape)).astype(v.dtype)
                for k, v in params.items()
            }
            adam_step(blocked, {k: g.copy() for k, g in grads.items()}, lr=1e-2)
            one_pass_adam_step(one_pass, grads, lr=1e-2)
        assert blocked.step == one_pass.step == 3
        for table in ("params", "opt_m", "opt_v"):
            for name in params:
                got, want = getattr(blocked, table)[name], getattr(one_pass, table)[name]
                assert got.dtype == want.dtype == params[name].dtype
                assert [x.hex() for x in got.ravel().tolist()] == [x.hex() for x in want.ravel().tolist()]

    def test_first_step_size_is_learning_rate(self):
        # bias correction makes the first update ~lr for any gradient scale
        # well above epsilon
        for scale in (1e-3, 1.0, 1e4):
            st = self._state_with({"w": np.zeros(3)})
            adam_step(st, {"w": np.full(3, scale)}, lr=1e-2)
            npt.assert_allclose(st.params["w"], -1e-2, rtol=1e-4)
