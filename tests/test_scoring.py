"""Surprisal scoring oracles: uniform-model values, ties, invariances."""

import math

import numpy as np
import pytest

from quantal import bpe, corpora, scoring
from quantal.model import ModelConfig, TrainConfig, forward_batch, init_model, log_softmax
from quantal.scoring import (
    PLL,
    UNMASKED,
    EvalReport,
    SurprisalScore,
    evaluate_pairs,
    read_eval_report,
    sentence_surprisal,
    surprisal_many,
    write_eval_report,
)
from quantal.training import train

CFG = dict(
    n_layers=2,
    n_heads=4,
    hidden=32,
    intermediate=64,
    max_positions=12,
    dropout=0.1,
)


def binary_tok():
    """Character tokenizer over {0, 1}: no merges, 5 ids total."""
    return bpe.train_tokenizer(["0\n1"], 5)


def zeroed_state(vocab_size):
    state = init_model(ModelConfig(**{**CFG, "vocab_size": vocab_size}), seed=0)
    for p in state.params.values():
        p[:] = 0.0
    return state


def pair_set(items):
    pairs = tuple(
        (
            corpora.Sentence(tokens=(r,), is_exception=False),
            corpora.Sentence(tokens=(f,), is_exception=True),
        )
        for r, f in items
    )
    return corpora.MinimalPairSet(pairs=pairs, experiment=corpora.BINARY)


class TestUniformModelOracle:
    # all-zero parameters give exactly uniform predictions, so every
    # scored position contributes ln(vocab) nats

    @pytest.mark.parametrize("mode", [PLL, UNMASKED])
    def test_surprisal_is_length_times_log_vocab(self, mode):
        tok = binary_tok()
        state = zeroed_state(tok.vocab_size)
        for text in ["1", "10", "110101", "0001"]:
            n_tokens = len(bpe.encode(tok, text))
            got = sentence_surprisal(state, tok, text, mode=mode).value
            assert got == pytest.approx(n_tokens * math.log(tok.vocab_size), rel=1e-6)

    def test_pairs_all_tie_at_half_credit(self):
        tok = binary_tok()
        state = zeroed_state(tok.vocab_size)
        pairs = pair_set([("101", "001"), ("111", "011"), ("1100", "0100")])
        rep = evaluate_pairs(state, tok, pairs)
        assert rep.accuracy == 0.5
        assert rep.n_preferred == 1.5
        for r, f in rep.per_pair_scores:
            assert r == f

    def test_unequal_lengths_break_tie_toward_shorter(self):
        tok = binary_tok()
        state = zeroed_state(tok.vocab_size)
        rep = evaluate_pairs(state, tok, pair_set([("11", "110")]))
        assert rep.accuracy == 1.0


class TestBiasedModelOracle:
    def test_output_bias_drives_preference(self):
        tok = binary_tok()
        one_id = bpe.encode(tok, "1")[0]
        state = zeroed_state(tok.vocab_size)
        state.params["out_bias"][one_id] = 5.0
        # rule side is all 1s, foil differs by a single 0
        rep = evaluate_pairs(state, tok, pair_set([("111", "110"), ("11", "01")]))
        assert rep.accuracy == 1.0
        flipped = evaluate_pairs(state, tok, pair_set([("110", "111"), ("01", "11")]))
        assert flipped.accuracy == 0.0

    def test_biased_surprisal_value(self):
        # softmax over [5, 0, 0, 0, 0]: the favored token costs
        # log(1 + 4 exp(-5)) per position
        tok = binary_tok()
        one_id = bpe.encode(tok, "1")[0]
        state = zeroed_state(tok.vocab_size)
        state.params["out_bias"][one_id] = 5.0
        per_pos = math.log(1.0 + 4.0 * math.exp(-5.0))
        got = sentence_surprisal(state, tok, "111").value
        assert got == pytest.approx(3 * per_pos, rel=1e-5)


class TestInvariances:
    def setup_method(self):
        self.corpus = corpora.gen_exp2_corpus(24, 0.25, string_len=8, seed=9)
        self.tok = bpe.train_tokenizer([self.corpus.to_text()], 16)
        self.state = init_model(
            ModelConfig(**{**CFG, "vocab_size": self.tok.vocab_size}), seed=3
        )
        self.texts = [s.text for s in self.corpus.sentences[:10]]

    @pytest.mark.parametrize("mode", [PLL, UNMASKED])
    def test_chunk_size_does_not_change_scores(self, mode):
        base = surprisal_many(self.state, self.tok, self.texts, mode=mode)
        for chunk in (1, 3, 7, 1000):
            alt = surprisal_many(self.state, self.tok, self.texts, mode=mode, chunk_rows=chunk)
            np.testing.assert_allclose(alt, base, rtol=0, atol=1e-4)

    def test_sentence_order_does_not_change_scores(self):
        base = surprisal_many(self.state, self.tok, self.texts)
        perm = np.arange(len(self.texts))[::-1]
        alt = surprisal_many(self.state, self.tok, [self.texts[i] for i in perm])
        np.testing.assert_allclose(alt, base[perm], rtol=0, atol=1e-4)

    def test_scoring_is_repeatable_and_frozen(self):
        before = {n: p.copy() for n, p in self.state.params.items()}
        a = surprisal_many(self.state, self.tok, self.texts)
        b = surprisal_many(self.state, self.tok, self.texts)
        assert np.array_equal(a, b)
        for name, p in self.state.params.items():
            assert np.array_equal(p, before[name])

    def test_modes_disagree_on_random_model(self):
        pll = surprisal_many(self.state, self.tok, self.texts, mode=PLL)
        un = surprisal_many(self.state, self.tok, self.texts, mode=UNMASKED)
        assert not np.allclose(pll, un)


class TestFixedCheckpoint:
    # Scoring runs forward_batch's cache-free pass; its PLL scores must stay
    # within 1e-5 relative of the cached (training) pass on a trained model.

    def test_pll_matches_cached_forward_reference(self):
        corpus = corpora.gen_exp2_corpus(48, 0.25, string_len=8, seed=9)
        tok = bpe.train_tokenizer([corpus.to_text()], 16)
        state = init_model(ModelConfig(**{**CFG, "vocab_size": tok.vocab_size}), seed=3)
        train(state, corpus, tok, TrainConfig(epochs=2, seed=5, learning_rate=1e-3))
        assert state.step == 6
        texts = [s.text for s in corpus.sentences[:6]]

        reference = []
        for text in texts:
            ids = np.asarray(bpe.encode(tok, text))
            n = np.arange(ids.size)
            rows = np.tile(ids, (ids.size, 1))
            rows[n, n] = tok.mask_id
            hidden, cache = forward_batch(state, rows, np.ones(rows.shape, bool), keep_cache=True)
            assert cache is not None
            logits = hidden[n, n] @ state.params["tok_emb"].T + state.params["out_bias"]
            reference.append(-log_softmax(logits)[n, ids].sum())

        # Rows are scored shortest sentence first; one row past the shortest
        # sentence puts the first chunk boundary inside the next sentence.
        lengths = sorted(len(bpe.encode(tok, t)) for t in texts)
        assert lengths[1] > 1
        got = surprisal_many(state, tok, texts, chunk_rows=lengths[0] + 1)
        np.testing.assert_allclose(got, reference, rtol=1e-5)


class TestEvaluatePairs:
    def test_report_fields_consistent(self):
        corpus = corpora.gen_exp2_corpus(16, 0.0, string_len=8, seed=4)
        tok = bpe.train_tokenizer([corpus.to_text()], 16)
        state = init_model(ModelConfig(**{**CFG, "vocab_size": tok.vocab_size}), seed=3)
        pairs = corpora.gen_exp2_test_pairs(25, string_len=8, seed=5)
        rep = evaluate_pairs(state, tok, pairs, mode=UNMASKED)
        assert rep.mode == UNMASKED
        assert rep.n_pairs == 25
        assert len(rep.per_pair_scores) == 25
        credit = sum(
            1.0 if r < f else 0.5 if r == f else 0.0 for r, f in rep.per_pair_scores
        )
        assert rep.n_preferred == credit
        assert rep.accuracy == pytest.approx(credit / 25)

    def test_empty_pairs_rejected(self):
        tok = binary_tok()
        state = zeroed_state(tok.vocab_size)
        empty = corpora.MinimalPairSet(pairs=(), experiment=corpora.BINARY)
        with pytest.raises(ValueError, match="no pairs"):
            evaluate_pairs(state, tok, empty)

    def test_bad_mode_rejected(self):
        tok = binary_tok()
        state = zeroed_state(tok.vocab_size)
        with pytest.raises(ValueError, match="mode"):
            surprisal_many(state, tok, ["1"], mode="typo")

    def test_too_long_sentence_rejected(self):
        tok = binary_tok()
        state = zeroed_state(tok.vocab_size)
        with pytest.raises(ValueError, match="too long"):
            sentence_surprisal(state, tok, "1" * 64)


class TestSurprisalScore:
    def test_rejects_negative_and_non_finite(self):
        with pytest.raises(ValueError):
            SurprisalScore(-0.1)
        with pytest.raises(ValueError):
            SurprisalScore(float("nan"))
        with pytest.raises(ValueError):
            SurprisalScore(float("inf"))
        assert SurprisalScore(0.0).value == 0.0


class TestReportFile:
    def test_round_trip(self, tmp_path):
        rep = EvalReport(
            n_pairs=2,
            n_preferred=1.5,
            accuracy=0.75,
            per_pair_scores=((1.0, 2.0), (3.5, 3.5)),
            mode=PLL,
        )
        path = tmp_path / "eval.json"
        write_eval_report(rep, path)
        assert read_eval_report(path) == rep

    def test_rejects_other_format(self, tmp_path):
        path = tmp_path / "eval.json"
        path.write_text('{"format": "something else"}')
        with pytest.raises(ValueError, match="quantal-eval"):
            read_eval_report(path)
