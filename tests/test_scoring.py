"""Surprisal scoring oracles: uniform-model values, ties, invariances."""

import json
import math
import threading

import numpy as np
import numpy.testing as npt
import pytest

from quantal import blas, bpe, corpora, scoring, training
from quantal.model import ModelConfig, TrainConfig, forward_batch, init_model, log_softmax, output_head
from quantal.scoring import (
    PLL,
    UNMASKED,
    EvalReport,
    evaluate_pairs,
    surprisal_many,
    write_eval_report,
)
from quantal.training import encode_texts, pad_batch, train

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
            got = surprisal_many(state, tok, [text], mode)[0]
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
        got = surprisal_many(state, tok, ["111"])[0]
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
    def test_chunk_size_does_not_change_scores(self, mode, monkeypatch):
        base = surprisal_many(self.state, self.tok, self.texts, mode=mode)
        for chunk in (1, 3, 7, 1000):
            monkeypatch.setattr(scoring, "CHUNK_ROWS", chunk)
            alt = surprisal_many(self.state, self.tok, self.texts, mode=mode)
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
        assert np.isfinite(a).all() and (a >= 0).all()
        for name, p in self.state.params.items():
            assert np.array_equal(p, before[name])

    def test_modes_disagree_on_random_model(self):
        pll = surprisal_many(self.state, self.tok, self.texts, mode=PLL)
        un = surprisal_many(self.state, self.tok, self.texts, mode=UNMASKED)
        assert not np.allclose(pll, un)


class TestFixedCheckpoint:
    # PLL scoring runs forward_batch's cache-free pass on the real rows, with
    # the last layer pruned to the masked rows; its scores must stay within
    # 1e-5 relative of the cached (training) pass on a trained model.

    def test_pll_matches_cached_forward_reference(self, monkeypatch):
        corpus = corpora.gen_exp2_corpus(48, 0.25, string_len=8, seed=9)
        tok = bpe.train_tokenizer([corpus.to_text()], 16)
        state = init_model(ModelConfig(**{**CFG, "vocab_size": tok.vocab_size}), seed=3)
        monkeypatch.setattr(training, "LEARNING_RATE", 1e-3)
        train(state, corpus, tok, TrainConfig(epochs=2, seed=5))
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

        # A chunk holds whole sentences of one length.  CHUNK_ROWS equal to
        # the commonest length gives each of its sentences a chunk of its own,
        # so that length is scored in more than one chunk.
        lengths = [len(bpe.encode(tok, t)) for t in texts]
        common = max(set(lengths), key=lengths.count)
        assert lengths.count(common) > 1
        monkeypatch.setattr(scoring, "CHUNK_ROWS", common)
        got = surprisal_many(state, tok, texts)
        np.testing.assert_allclose(got, reference, rtol=1e-5)


class TestUnmaskedTotals:
    def test_slice_sums_equal_masked_row_sums(self, monkeypatch):
        # Each sentence's single-pass total is the sum of its slice of its
        # chunk's scores, one row of an (S, L) reshape; it must equal, bit
        # for bit, the sum over a boolean mask of the rows of the real-row pass.
        corpus = corpora.gen_exp2_corpus(24, 0.25, string_len=8, seed=9)
        tok = bpe.train_tokenizer([corpus.to_text()], 16)
        state = init_model(ModelConfig(**{**CFG, "vocab_size": tok.vocab_size}), seed=3)
        texts = [s.text for s in corpus.sentences[:12]]
        encoded = encode_texts(tok, texts, state.config.max_positions)
        lengths = {ids.size for ids in encoded}
        assert len(lengths) > 1  # more than one chunk

        reference = np.zeros(len(texts))
        for size in lengths:  # one chunk per length, sentences in index order
            order = [j for j in range(len(texts)) if encoded[j].size == size]
            ids, mask = pad_batch([encoded[j] for j in order], tok.pad_id)
            assert mask.all()
            hidden, _ = forward_batch(state, ids, mask, keep_cache=False)  # (N, H), in mask order
            rows, _ = np.nonzero(mask)
            logp = log_softmax(output_head(state, hidden), axis=-1)
            taken = logp[np.arange(rows.size), ids.reshape(-1)]
            for row, j in enumerate(order):
                reference[j] -= taken[rows == row].sum()

        monkeypatch.setattr(scoring, "CHUNK_ROWS", len(texts))
        got = surprisal_many(state, tok, texts, mode=UNMASKED)
        assert hex_scores(got) == hex_scores(reference)


def hex_scores(scores):
    return [float(v).hex() for v in scores]


def pll_sentences(ids, at, mask_id):
    """The sentences of a PLL batch, checking that it holds each whole:
    L consecutive copies of a length-L sentence, copy i masked at i."""
    L = ids.shape[1]
    assert L > 1 and ids.shape[0] % L == 0
    npt.assert_array_equal(at, np.tile(np.arange(L), ids.shape[0] // L))
    copies = ids.reshape(-1, L, L)
    diagonal = np.eye(L, dtype=bool)
    assert (copies[:, diagonal] == mask_id).all()
    sentences = copies[:, (np.arange(L) + 1) % L, np.arange(L)]  # position i from copy i + 1
    same = copies == sentences[:, None, :]
    assert (same | diagonal).all()
    return [tuple(sentence) for sentence in sentences.tolist()]


@pytest.fixture
def blas_at_two_threads():
    """The OpenBLAS libraries, set to two threads for the test, then restored."""
    libs = blas.libraries()
    if not libs:
        pytest.skip("no OpenBLAS mapped into this process")
    old = [lib.get_threads() for lib in libs]
    for lib in libs:
        lib.set_threads(2)
    yield libs
    for lib, n in zip(libs, old):
        lib.set_threads(n)


class TestThreadedScoring:
    CHUNK_ROWS = {PLL: 7, UNMASKED: 3}

    def setup_method(self):
        self.corpus = corpora.gen_exp2_corpus(24, 0.25, string_len=8, seed=9)
        self.tok = bpe.train_tokenizer([self.corpus.to_text()], 16)
        self.state = init_model(ModelConfig(**{**CFG, "vocab_size": self.tok.vocab_size}), seed=3)
        self.texts = [s.text for s in self.corpus.sentences[:10]]

    def score(self, monkeypatch, cpus, mode):
        """Scores, the ident of each thread that ran a forward pass, and
        the sentences of each pass, in the order the passes began.

        Every forward pass must be the inference pass on an all-real
        mask, over whole sentences of one length, asking for the rows
        scoring reads: in PLL mode one copy of each sentence per
        position, masked there and passed as a (B,) at, and in
        single-pass mode every row, with no at.
        """
        threads, batches = [], []

        def recording_forward(state, ids, mask, *args, **kwargs):
            threads.append(threading.get_ident())
            assert not args and kwargs["keep_cache"] is False
            assert mask.shape == ids.shape and mask.all()
            at = kwargs["at"]
            if mode == PLL:
                batches.append(pll_sentences(ids, at, self.tok.mask_id))
            else:
                assert at is None
                batches.append([tuple(row) for row in ids.tolist()])
            return forward_batch(state, ids, mask, *args, **kwargs)

        monkeypatch.setattr(scoring, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(scoring, "forward_batch", recording_forward)
        # More chunks than threads, and sentences of one length split over
        # more than one chunk.
        monkeypatch.setattr(scoring, "CHUNK_ROWS", self.CHUNK_ROWS[mode])
        scores = surprisal_many(self.state, self.tok, self.texts, mode=mode)
        return hex_scores(scores), set(threads), batches

    @pytest.mark.parametrize("mode", [PLL, UNMASKED])
    def test_chunks_are_whole_sentences_longest_first(self, mode, monkeypatch):
        _, _, batches = self.score(monkeypatch, 1, mode)
        encoded = encode_texts(self.tok, self.texts, self.state.config.max_positions)
        scored = sorted(sentence for batch in batches for sentence in batch)
        assert scored == sorted(tuple(ids.tolist()) for ids in encoded)
        lengths = [len(batch[0]) for batch in batches]
        assert lengths == sorted(lengths, reverse=True)
        assert len(lengths) > len(set(lengths))  # one length in several chunks
        rows = [len(batch) * (len(batch[0]) if mode == PLL else 1) for batch in batches]
        assert max(rows) <= self.CHUNK_ROWS[mode]

    @pytest.mark.parametrize("mode", [PLL, UNMASKED])
    def test_threads_give_one_thread_scores(self, mode, monkeypatch, blas_at_two_threads):
        serial, serial_threads, _ = self.score(monkeypatch, 1, mode)
        threaded, threaded_threads, _ = self.score(monkeypatch, 3, mode)
        assert serial_threads == {threading.get_ident()}
        assert threading.get_ident() not in threaded_threads
        assert threaded == serial
        assert [lib.get_threads() for lib in blas.libraries()] == [2] * len(blas_at_two_threads)

    def test_no_openblas_scores_on_one_thread(self, monkeypatch):
        serial, _, _ = self.score(monkeypatch, 1, PLL)
        monkeypatch.setattr(blas, "libraries", lambda: [])
        fallback, threads, _ = self.score(monkeypatch, 3, PLL)
        assert threads == {threading.get_ident()}
        assert fallback == serial

    def test_one_thread_block_restores_counts(self, blas_at_two_threads):
        n = len(blas_at_two_threads)
        with blas.one_thread() as pinned:
            assert pinned == n
            assert [lib.get_threads() for lib in blas.libraries()] == [1] * n
        assert [lib.get_threads() for lib in blas.libraries()] == [2] * n
        with pytest.raises(KeyError):
            with blas.one_thread():
                assert [lib.get_threads() for lib in blas.libraries()] == [1] * n
                raise KeyError("inside the block")
        assert [lib.get_threads() for lib in blas.libraries()] == [2] * n


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
            surprisal_many(state, tok, ["1" * 64])


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
        assert json.loads(path.read_text(encoding="utf-8")) == {
            "format": "quantal-eval v1",
            "mode": PLL,
            "n_pairs": 2,
            "n_preferred": 1.5,
            "accuracy": 0.75,
            "per_pair_scores": [[1.0, 2.0], [3.5, 3.5]],
        }
