"""Checkpoint format: exact round trips and corruption detection."""

import json

import numpy as np
import pytest

from quantal import bpe, corpora
from quantal.checkpoint import MAGIC, load_checkpoint, save_checkpoint, state_digest
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
# the header's train_config for TrainConfig(epochs=2, seed=3)
SAVED_TRAIN_CONFIG = {"epochs": 2, "seed": 3, "learning_rate": 1e-4, "batch_size": 16, "mask_probability": 0.15}


def trained_state():
    corpus = corpora.gen_exp2_corpus(12, 0.0, string_len=6, seed=2)
    tok = bpe.train_tokenizer([corpus.to_text()], 11)
    assert tok.vocab_size == CFG["vocab_size"]
    state = init_model(ModelConfig(**CFG), seed=1)
    train(state, corpus, tok, TrainConfig(epochs=2, seed=3))
    return state, tok


class TestRoundTrip:
    def test_params_bitwise_equal(self, tmp_path):
        state, tok = trained_state()
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path, tok, corpora.BINARY)
        loaded, meta = load_checkpoint(path)
        assert loaded.config == state.config
        assert state.step == 2 and loaded.step == 0  # the step counter is not stored
        assert set(loaded.params) == set(state.params)
        for name in state.params:
            assert np.array_equal(loaded.params[name], state.params[name])
            assert loaded.params[name].dtype == np.float32

    def test_loaded_state_refuses_training(self, tmp_path):
        # moments are not stored, so resuming would pair step-N bias
        # correction with fresh moments; train refuses instead
        state, tok = trained_state()
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path, tok, corpora.BINARY)
        loaded, _ = load_checkpoint(path)
        assert loaded.opt_m is None and loaded.opt_v is None
        corpus = corpora.gen_exp2_corpus(12, 0.0, string_len=6, seed=2)
        with pytest.raises(ValueError, match="optimizer moments"):
            train(loaded, corpus, tok, TrainConfig(epochs=1, seed=3))
        assert loaded.step == 0

    def test_loaded_state_scores_identically(self, tmp_path):
        # with the tokenizer the checkpoint carries
        state, tok = trained_state()
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path, tok, corpora.BINARY)
        loaded, meta = load_checkpoint(path)
        texts = ["110101", "000111"]
        a = surprisal_many(state, tok, texts)
        b = surprisal_many(loaded, meta["tokenizer"], texts)
        assert np.array_equal(a, b)

    def test_digest_covers_the_saved_tensor_bytes(self, tmp_path):
        state, tok = trained_state()
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path, tok, corpora.BINARY)
        loaded, _ = load_checkpoint(path)
        digest = state_digest(state)
        assert state_digest(loaded) == digest
        w = loaded.params["l1.ff2_w"]
        w[3, 5] = np.nextafter(w[3, 5], np.float32(np.inf))  # one float32 ulp
        assert state_digest(loaded) != digest

    def test_metadata_round_trip(self, tmp_path):
        state, tok = trained_state()
        tc = TrainConfig(epochs=2, seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path, tok, corpora.BINARY, train_config=tc)
        _, meta = load_checkpoint(path)
        assert meta["train_config"] == SAVED_TRAIN_CONFIG
        assert meta["tokenizer"] == tok
        assert meta["experiment"] == corpora.BINARY

    def test_metadata_defaults_to_none(self, tmp_path):
        state, tok = trained_state()
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path, tok, corpora.BINARY)
        _, meta = load_checkpoint(path)
        assert meta["train_config"] is None
        assert set(meta) == {"train_config", "tokenizer", "experiment"}

    def test_header_embeds_the_tokenizer_file_text(self, tmp_path):
        state, tok = trained_state()
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path, tok, corpora.BINARY)
        header = json.loads(path.read_bytes()[len(MAGIC) :].split(b"\n", 1)[0])
        assert header["tokenizer"] == bpe.save_tokenizer_text(tok)
        assert "tokenizer_sha256" not in header
        assert "step" not in header

    def test_header_with_a_step_key_still_loads(self, tmp_path):
        # v2 files written before the step counter was dropped carry "step"
        state, tok = trained_state()
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path, tok, corpora.BINARY)
        header_line, _, rest = path.read_bytes()[len(MAGIC) :].partition(b"\n")
        header = json.loads(header_line)
        header["step"] = state.step
        old = tmp_path / "old.ckpt"
        old.write_bytes(MAGIC + json.dumps(header).encode() + b"\n" + rest)
        loaded, meta = load_checkpoint(old)
        assert loaded.step == 0
        assert state_digest(loaded) == state_digest(state)
        assert meta["tokenizer"] == tok


class TestCorruption:
    def make_checkpoint(self, tmp_path):
        state, tok = trained_state()
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path, tok, corpora.BINARY)
        return path

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint at all\n" + b"\x00" * 64)
        with pytest.raises(ValueError, match="quantal-ckpt"):
            load_checkpoint(path)

    def rewrite_header(self, path, change):
        header_line, _, rest = path.read_bytes()[len(MAGIC) :].partition(b"\n")
        header = json.loads(header_line)
        change(header)
        path.write_bytes(MAGIC + json.dumps(header).encode() + b"\n" + rest)

    @pytest.mark.parametrize("key", ["model_config", "tensors", "train_config", "experiment", "tokenizer"])
    def test_header_key_missing(self, tmp_path, key):
        path = self.make_checkpoint(tmp_path)
        self.rewrite_header(path, lambda header: header.pop(key))
        with pytest.raises(ValueError, match="header"):
            load_checkpoint(path)

    def test_unknown_model_config_key(self, tmp_path):
        path = self.make_checkpoint(tmp_path)
        self.rewrite_header(path, lambda header: header["model_config"].update(width=3))
        with pytest.raises(ValueError, match="model_config"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name, value", [("n_heads", 0), ("max_positions", 8.0), ("hidden", True)],
                             ids=["zero-heads", "float-positions", "bool-hidden"])
    def test_bad_model_config_dimension(self, tmp_path, name, value):
        # The float comes with a tensor listing that matches it, so only the
        # config check stands between it and a reshape.
        path = self.make_checkpoint(tmp_path)

        def edit(header):
            header["model_config"][name] = value
            if name == "max_positions":
                assert header["tensors"][1][0] == "pos_emb"
                header["tensors"][1][1][0] = value
        self.rewrite_header(path, edit)
        with pytest.raises(ValueError, match=f"bad model_config in checkpoint .*{name} must be an integer >= 1"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "train_config",
        ["nonsense", [], {"epochs": 2, "seed": 3}, {**SAVED_TRAIN_CONFIG, "step": 6},
         *({**SAVED_TRAIN_CONFIG, **bad} for bad in
           [{"epochs": "2"}, {"epochs": True}, {"epochs": 2.0}, {"epochs": 0}, {"seed": -1},
            {"learning_rate": "fast"}, {"learning_rate": 0}, {"mask_probability": 1.5},
            {"mask_probability": None}, {"batch_size": 0}, {"batch_size": 16.0}])],
        ids=["string", "array", "keys-missing", "extra-key", "string-epochs", "bool-epochs",
             "float-epochs", "zero-epochs", "negative-seed", "string-learning-rate",
             "zero-learning-rate", "mask-probability-over-1", "null-mask-probability",
             "zero-batch-size", "float-batch-size"],
    )
    def test_malformed_train_config(self, tmp_path, train_config):
        path = self.make_checkpoint(tmp_path)
        self.rewrite_header(path, lambda header: header.update(train_config=train_config))
        with pytest.raises(ValueError, match="train_config"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "corrupt, why",
        [
            (lambda raw: raw[:-5], "checkpoint truncated in tensor out_bias"),
            (lambda raw: raw + b"\x00", "checkpoint has trailing bytes after its final tensor"),
            (lambda raw: MAGIC + b"{'model_config': 1}\n" + raw.partition(b"\n")[2].partition(b"\n")[2],
             "bad header in checkpoint .*: Expecting property name"),
            (lambda raw: MAGIC + b"\xff\xfe\n" + raw.partition(b"\n")[2].partition(b"\n")[2],
             "bad header in checkpoint .*: 'utf-8' codec can't decode byte 0xff"),
            (lambda raw: raw.replace(b'"tensors": [["tok_emb", [11, 16]]', b'"tensors": [["tok_emb", [1, 1]]'),
             "checkpoint tensor listing does not match its model config"),
        ],
        ids=["truncated-tensor", "trailing-bytes", "header-not-json", "header-not-utf8", "tensor-listing"],
    )
    def test_refusal_names_the_file(self, tmp_path, corrupt, why):
        path = self.make_checkpoint(tmp_path)
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(ValueError, match=why) as refused:
            load_checkpoint(path)
        assert str(path) in str(refused.value)

    def test_v1_file_is_refused(self, tmp_path):
        # a v1 header held a tokenizer hash, not the tokenizer
        path = self.make_checkpoint(tmp_path)
        header_line, _, rest = path.read_bytes()[len(MAGIC) :].partition(b"\n")
        header = json.loads(header_line)
        del header["tokenizer"], header["experiment"]
        header["tokenizer_sha256"] = None
        path.write_bytes(b"quantal-ckpt v1\n" + json.dumps(header).encode() + b"\n" + rest)
        with pytest.raises(ValueError, match="not a 'quantal-ckpt v2' file"):
            load_checkpoint(path)

    @pytest.mark.parametrize("text", ["quantal-bpe v1\n", "quantal-bpe v1\nmerges x\n", "", None],
                             ids=["header-only", "bad-count", "empty", "null"])
    def test_malformed_tokenizer(self, tmp_path, text):
        path = self.make_checkpoint(tmp_path)
        self.rewrite_header(path, lambda header: header.update(tokenizer=text))
        with pytest.raises(ValueError, match="tokenizer"):
            load_checkpoint(path)

    def test_tokenizer_vocab_differs_from_model_config(self, tmp_path):
        path = self.make_checkpoint(tmp_path)
        smaller = bpe.train_tokenizer(["0110 1001"], 8)
        assert smaller.vocab_size != CFG["vocab_size"]
        self.rewrite_header(path, lambda header: header.update(tokenizer=bpe.save_tokenizer_text(smaller)))
        with pytest.raises(ValueError, match="tokenizer vocab 8 does not match model vocab 11"):
            load_checkpoint(path)

    @pytest.mark.parametrize("experiment", ["music", None, "Binary"])
    def test_unknown_experiment(self, tmp_path, experiment):
        path = self.make_checkpoint(tmp_path)
        self.rewrite_header(path, lambda header: header.update(experiment=experiment))
        with pytest.raises(ValueError, match="unknown experiment"):
            load_checkpoint(path)
