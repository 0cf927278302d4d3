"""Training loop: batching, determinism, loss descent, failure modes."""

import numpy as np
import pytest

from quantal import bpe, corpora, training
from quantal.model import (
    IGNORE_INDEX,
    ModelConfig,
    TrainConfig,
    init_model,
)
from quantal.training import encode_texts, pad_batch, train

TINY = dict(
    vocab_size=None,  # filled from the tokenizer per test
    n_layers=2,
    n_heads=4,
    hidden=32,
    intermediate=64,
    max_positions=12,
    dropout=0.1,
)


def tiny_setup(n_sentences=32, prop=0.0, vocab_target=16, corpus_seed=5):
    corpus = corpora.gen_exp2_corpus(n_sentences, prop, string_len=8, seed=corpus_seed)
    tok = bpe.train_tokenizer([corpus.to_text()], vocab_target)
    cfg = ModelConfig(**{**TINY, "vocab_size": tok.vocab_size})
    return corpus, tok, cfg


class TestPadBatch:
    def test_shapes_and_fill(self):
        seqs = [np.array([4, 5, 6]), np.array([7]), np.array([8, 9])]
        labels = [
            np.array([IGNORE_INDEX, 5, IGNORE_INDEX]),
            np.array([7]),
            np.array([IGNORE_INDEX, 9]),
        ]
        ids, mask = pad_batch(seqs, 0)
        labs, label_mask = pad_batch(labels, IGNORE_INDEX)
        assert ids.shape == labs.shape == mask.shape == (3, 3)
        assert ids.dtype == labs.dtype == np.int64
        assert np.array_equal(mask, label_mask)
        assert ids.tolist() == [[4, 5, 6], [7, 0, 0], [8, 9, 0]]
        assert labs.tolist() == [
            [IGNORE_INDEX, 5, IGNORE_INDEX],
            [7, IGNORE_INDEX, IGNORE_INDEX],
            [IGNORE_INDEX, 9, IGNORE_INDEX],
        ]
        assert mask.tolist() == [
            [True, True, True],
            [True, False, False],
            [True, True, False],
        ]

    def test_single_sequence_keeps_width(self):
        ids, mask = pad_batch([np.array([3, 1])], 9)
        assert ids.tolist() == [[3, 1]]
        assert mask.all()


class TestEncodeCorpus:
    def test_matches_direct_encoding(self):
        corpus, tok, cfg = tiny_setup()
        encoded = encode_texts(tok, [s.text for s in corpus.sentences], cfg.max_positions)
        assert len(encoded) == len(corpus.sentences)
        for arr, s in zip(encoded, corpus.sentences):
            assert arr.tolist() == bpe.encode(tok, s.text)

    def test_rejects_over_limit(self):
        corpus, tok, _ = tiny_setup()
        with pytest.raises(ValueError, match="position limit"):
            encode_texts(tok, [s.text for s in corpus.sentences], 2)


class TestTrainLoop:
    def test_recipe_is_the_reported_one(self):
        assert training.LEARNING_RATE == 1e-4
        assert training.BATCH_SIZE == 16
        assert training.MASK_PROBABILITY == 0.15

    def test_deterministic_given_seeds(self):
        corpus, tok, cfg = tiny_setup()
        runs = []
        for _ in range(2):
            state = init_model(cfg, seed=1)
            train(state, corpus, tok, TrainConfig(epochs=3, seed=7))
            runs.append(state)
        a, b = runs
        assert a.loss_history == b.loss_history
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])

    def test_train_seed_changes_result(self):
        corpus, tok, cfg = tiny_setup()
        a = train(init_model(cfg, seed=1), corpus, tok, TrainConfig(epochs=2, seed=7))
        b = train(init_model(cfg, seed=1), corpus, tok, TrainConfig(epochs=2, seed=8))
        assert not np.array_equal(a.params["tok_emb"], b.params["tok_emb"])

    def test_mutates_in_place_and_returns_state(self):
        corpus, tok, cfg = tiny_setup()
        state = init_model(cfg, seed=1)
        before = state.params["tok_emb"].copy()
        out = train(state, corpus, tok, TrainConfig(epochs=1, seed=7))
        assert out is state
        assert not np.array_equal(state.params["tok_emb"], before)

    def test_step_count_and_history_length(self, monkeypatch):
        # mask probability near 1 leaves no realistic chance of a
        # zero-mask batch, so every batch takes a step
        corpus, tok, cfg = tiny_setup(n_sentences=20)
        state = init_model(cfg, seed=1)
        monkeypatch.setattr(training, "BATCH_SIZE", 8)
        monkeypatch.setattr(training, "MASK_PROBABILITY", 0.999)
        train(state, corpus, tok, TrainConfig(epochs=3, seed=7))
        batches_per_epoch = -(-20 // 8)
        assert state.step == 3 * batches_per_epoch
        assert len(state.loss_history) == state.step

    def test_zero_mask_batches_are_skipped(self, monkeypatch):
        corpus, tok, cfg = tiny_setup(n_sentences=8)
        state = init_model(cfg, seed=1)
        before = {n: p.copy() for n, p in state.params.items()}
        monkeypatch.setattr(training, "MASK_PROBABILITY", 1e-9)
        train(state, corpus, tok, TrainConfig(epochs=1, seed=7))
        assert state.step == 0
        assert state.loss_history == []
        for name, p in state.params.items():
            assert np.array_equal(p, before[name])

    def test_losses_are_finite_floats(self):
        corpus, tok, cfg = tiny_setup()
        state = train(init_model(cfg, seed=1), corpus, tok, TrainConfig(epochs=2, seed=7))
        assert state.loss_history
        assert all(np.isfinite(x) for x in state.loss_history)

    def test_loss_decreases_over_training(self):
        corpus, tok, cfg = tiny_setup()
        state = train(init_model(cfg, seed=1), corpus, tok, TrainConfig(epochs=50, seed=7))
        head = np.mean(state.loss_history[:5])
        tail = np.mean(state.loss_history[-5:])
        assert tail < head - 0.05


class TestTrainErrors:
    def test_empty_corpus(self):
        corpus, tok, cfg = tiny_setup()
        empty = corpora.Corpus(sentences=())
        with pytest.raises(ValueError, match="empty"):
            train(init_model(cfg, seed=1), empty, tok, TrainConfig(epochs=1, seed=7))

    def test_vocab_mismatch(self):
        corpus, tok, cfg = tiny_setup()
        bad = ModelConfig(**{**TINY, "vocab_size": tok.vocab_size + 1})
        with pytest.raises(ValueError, match="vocab"):
            train(init_model(bad, seed=1), corpus, tok, TrainConfig(epochs=1, seed=7))

    def test_sentence_over_position_limit(self):
        corpus, tok, _ = tiny_setup()
        short = ModelConfig(**{**TINY, "vocab_size": tok.vocab_size, "max_positions": 2})
        with pytest.raises(ValueError, match="position limit"):
            train(init_model(short, seed=1), corpus, tok, TrainConfig(epochs=1, seed=7))

    def test_non_finite_loss_raises(self, monkeypatch):
        corpus, tok, cfg = tiny_setup()
        state = init_model(cfg, seed=1)
        state.params["tok_emb"][:] = np.nan
        monkeypatch.setattr(training, "MASK_PROBABILITY", 0.9)
        with pytest.raises(RuntimeError, match="non-finite"):
            train(state, corpus, tok, TrainConfig(epochs=1, seed=7))


class TestEndToEnd:
    def test_learns_rule_preference_on_tiny_corpus(self):
        # all-rule corpus: strings open with 1, foils with 0; enough
        # training should push preference to the rule side
        from quantal.scoring import evaluate_pairs

        corpus, tok, cfg = tiny_setup(n_sentences=60)
        pairs = corpora.gen_exp2_test_pairs(40, string_len=8, seed=6)
        state = init_model(cfg, seed=1)
        train(state, corpus, tok, TrainConfig(epochs=60, seed=2))
        rep = evaluate_pairs(state, tok, pairs)
        assert rep.accuracy >= 0.9
