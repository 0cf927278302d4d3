"""Surprisal scoring oracles: uniform-model values, ties, invariances."""

import json
import math
import threading

import numpy as np
import numpy.testing as npt
import pytest

from quantal import blas, bpe, corpora, scoring, training
from quantal.model import ModelConfig, TrainConfig, forward_batch, init_model, log_softmax
from quantal.scoring import EvalReport, evaluate_pairs, surprisal_many, write_eval_report
from quantal.training import encode_texts, train

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

    def test_surprisal_is_length_times_log_vocab(self):
        tok = binary_tok()
        state = zeroed_state(tok.vocab_size)
        for text in ["1", "10", "110101", "0001"]:
            n_tokens = len(bpe.encode(tok, text))
            got = surprisal_many(state, tok, [text])[0]
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

    def test_chunk_size_does_not_change_scores(self, monkeypatch):
        base = surprisal_many(self.state, self.tok, self.texts)
        for chunk in (1, 3, 7, 1000):
            monkeypatch.setattr(scoring, "CHUNK_ROWS", chunk)
            alt = surprisal_many(self.state, self.tok, self.texts)
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
    CHUNK_ROWS = 7

    def setup_method(self):
        self.corpus = corpora.gen_exp2_corpus(24, 0.25, string_len=8, seed=9)
        self.tok = bpe.train_tokenizer([self.corpus.to_text()], 16)
        self.state = init_model(ModelConfig(**{**CFG, "vocab_size": self.tok.vocab_size}), seed=3)
        self.texts = [s.text for s in self.corpus.sentences[:10]]

    def score(self, monkeypatch, cpus):
        """Scores, the ident of each thread that ran a forward pass, and
        the sentences of each pass, in the order the passes began.

        Every forward pass must be the inference pass on an all-real
        mask, over whole sentences of one length, asking for the rows
        scoring reads: one copy of each sentence per position, masked
        there and passed as a (B,) at.
        """
        threads, batches = [], []

        def recording_forward(state, ids, mask, *args, **kwargs):
            threads.append(threading.get_ident())
            assert not args and kwargs["keep_cache"] is False
            assert mask.shape == ids.shape and mask.all()
            batches.append(pll_sentences(ids, kwargs["at"], self.tok.mask_id))
            return forward_batch(state, ids, mask, *args, **kwargs)

        monkeypatch.setattr(scoring, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(scoring, "forward_batch", recording_forward)
        # More chunks than threads, and sentences of one length split over
        # more than one chunk.
        monkeypatch.setattr(scoring, "CHUNK_ROWS", self.CHUNK_ROWS)
        scores = surprisal_many(self.state, self.tok, self.texts)
        return hex_scores(scores), set(threads), batches

    def test_chunks_are_whole_sentences_longest_first(self, monkeypatch):
        _, _, batches = self.score(monkeypatch, 1)
        encoded = encode_texts(self.tok, self.texts, self.state.config.max_positions)
        scored = sorted(sentence for batch in batches for sentence in batch)
        assert scored == sorted(tuple(ids.tolist()) for ids in encoded)
        lengths = [len(batch[0]) for batch in batches]
        assert lengths == sorted(lengths, reverse=True)
        assert len(lengths) > len(set(lengths))  # one length in several chunks
        rows = [len(batch) * len(batch[0]) for batch in batches]
        assert max(rows) <= self.CHUNK_ROWS

    def test_threads_give_one_thread_scores(self, monkeypatch, blas_at_two_threads):
        serial, serial_threads, _ = self.score(monkeypatch, 1)
        threaded, threaded_threads, _ = self.score(monkeypatch, 3)
        assert serial_threads == {threading.get_ident()}
        assert threading.get_ident() not in threaded_threads
        assert threaded == serial
        assert [lib.get_threads() for lib in blas.libraries()] == [2] * len(blas_at_two_threads)

    def test_no_openblas_scores_on_one_thread(self, monkeypatch):
        serial, _, _ = self.score(monkeypatch, 1)
        monkeypatch.setattr(blas, "libraries", lambda: [])
        fallback, threads, _ = self.score(monkeypatch, 3)
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
        rep = evaluate_pairs(state, tok, pairs)
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
        )
        path = tmp_path / "eval.json"
        write_eval_report(rep, path)
        assert json.loads(path.read_text(encoding="utf-8")) == {
            "format": "quantal-eval v2",
            "n_pairs": 2,
            "n_preferred": 1.5,
            "accuracy": 0.75,
            "per_pair_scores": [[1.0, 2.0], [3.5, 3.5]],
        }
