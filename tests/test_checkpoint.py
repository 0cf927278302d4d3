"""Checkpoint format: exact round trips and corruption detection."""

import json

import numpy as np
import pytest

from quantal import bpe, corpora
from quantal.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from quantal.model import ModelConfig, TrainConfig, init_model
from quantal.scoring import surprisal_many
from quantal.training import train

CFG = dict(
    vocab_size=11,
    n_layers=2,
    n_heads=2,
    hidden=16,
    intermediate=32,
    max_positions=12,
    dropout=0.1,
)


def trained_state():
    corpus = corpora.gen_exp2_corpus(12, 0.0, string_len=6, seed=2)
    tok = bpe.train_tokenizer([corpus.to_text()], 11)
    assert tok.vocab_size == CFG["vocab_size"]
    state = init_model(ModelConfig(**CFG), seed=1)
    train(state, corpus, tok, TrainConfig(epochs=2, seed=3))
    return state, tok


class TestRoundTrip:
    def test_params_bitwise_equal(self, tmp_path):
        state, _ = trained_state()
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        loaded, meta = load_checkpoint(path)
        assert loaded.config == state.config
        assert loaded.step == state.step
        assert set(loaded.params) == set(state.params)
        for name in state.params:
            assert np.array_equal(loaded.params[name], state.params[name])
            assert loaded.params[name].dtype == np.float32

    def test_loaded_state_refuses_training(self, tmp_path):
        # moments are not stored, so resuming would pair step-N bias
        # correction with fresh moments; train refuses instead
        state, tok = trained_state()
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        loaded, _ = load_checkpoint(path)
        assert loaded.opt_m is None and loaded.opt_v is None
        corpus = corpora.gen_exp2_corpus(12, 0.0, string_len=6, seed=2)
        with pytest.raises(ValueError, match="optimizer moments"):
            train(loaded, corpus, tok, TrainConfig(epochs=1, seed=3))
        assert loaded.step == state.step

    def test_loaded_state_scores_identically(self, tmp_path):
        state, tok = trained_state()
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        loaded, _ = load_checkpoint(path)
        texts = ["110101", "000111"]
        a = surprisal_many(state, tok, texts)
        b = surprisal_many(loaded, tok, texts)
        assert np.array_equal(a, b)

    def test_metadata_round_trip(self, tmp_path):
        state, _ = trained_state()
        tc = TrainConfig(epochs=2, seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path, train_config=tc, tokenizer_sha256="ab" * 32)
        _, meta = load_checkpoint(path)
        assert meta["train_config"]["epochs"] == 2
        assert meta["train_config"]["seed"] == 3
        assert meta["tokenizer_sha256"] == "ab" * 32

    def test_metadata_defaults_to_none(self, tmp_path):
        state, _ = trained_state()
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        _, meta = load_checkpoint(path)
        assert meta["train_config"] is None
        assert meta["tokenizer_sha256"] is None


class TestCorruption:
    def make_checkpoint(self, tmp_path):
        state, _ = trained_state()
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        return path

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint at all\n" + b"\x00" * 64)
        with pytest.raises(ValueError, match="quantal-ckpt"):
            load_checkpoint(path)

    def test_truncated_tensor(self, tmp_path):
        path = self.make_checkpoint(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        path = self.make_checkpoint(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(path)

    def test_header_tensor_mismatch(self, tmp_path):
        path = self.make_checkpoint(tmp_path)
        raw = path.read_bytes()
        body = raw[len(MAGIC) :]
        header_line, _, rest = body.partition(b"\n")
        header = json.loads(header_line)
        header["tensors"][0][1] = [1, 1]
        path.write_bytes(MAGIC + json.dumps(header).encode() + b"\n" + rest)
        with pytest.raises(ValueError, match="does not match"):
            load_checkpoint(path)
