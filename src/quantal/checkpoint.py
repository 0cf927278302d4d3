"""Model checkpoint container: a trained model is one file.

Layout: an ASCII magic line, one JSON header line, then the raw tensors
as little-endian float32 in the init order of model.param_specs.  The
header holds the model config, the experiment, the train config with the
fixed training recipe (null for an untrained model), the tokenizer as
the text bpe.save_tokenizer_text writes, and the tensor names with
shapes.  Optimizer moments and the step counter are not stored, so a
loaded state can score but not train: training.train refuses a state
without moments, and a loaded state's step is 0.  The loader ignores
header keys it does not read, so v2 files that still carry a "step" key
load as before.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import bpe
from .corpora import EXPERIMENTS
from .model import ModelConfig, ModelState, TrainConfig, param_specs
from .training import BATCH_SIZE, LEARNING_RATE, MASK_PROBABILITY
from .util import finite, whole

MAGIC = b"quantal-ckpt v2\n"
TENSOR_DTYPE = "<f4"
HEADER_KEYS = ("model_config", "experiment", "train_config", "tokenizer", "tensors")
TRAIN_CONFIG_KEYS = ("epochs", "seed", "learning_rate", "batch_size", "mask_probability")


def _tensor_bytes(state: ModelState):
    """Yield each parameter's bytes as a checkpoint stores them, in file order."""
    for name, _, _ in param_specs(state.config):
        yield np.ascontiguousarray(state.params[name], dtype=TENSOR_DTYPE).tobytes()


def state_digest(state: ModelState) -> str:
    """SHA-256 over the model config and parameter tensors.

    It hashes the tensor bytes save_checkpoint writes, so two states with
    the same digest score identically.
    """
    h = hashlib.sha256()
    h.update(json.dumps(asdict(state.config), sort_keys=True).encode("utf-8"))
    for raw in _tensor_bytes(state):
        h.update(raw)
    return h.hexdigest()


def save_checkpoint(
    state: ModelState,
    path: str | Path,
    tok: bpe.TokenizerModel,
    experiment: str,
    train_config: TrainConfig | None = None,
) -> None:
    names = [name for name, _, _ in param_specs(state.config)]
    recipe = dict(learning_rate=LEARNING_RATE, batch_size=BATCH_SIZE, mask_probability=MASK_PROBABILITY)
    header = {
        "model_config": asdict(state.config),
        "experiment": experiment,
        "train_config": {**asdict(train_config), **recipe} if train_config else None,
        "tokenizer": bpe.save_tokenizer_text(tok),
        "tensors": [[name, list(state.params[name].shape)] for name in names],
    }
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(json.dumps(header).encode("utf-8") + b"\n")
        f.writelines(_tensor_bytes(state))


def _check_train_config(train_config, path) -> None:
    """Null, or the five keys save_checkpoint writes, each a valid value."""
    if train_config is None:
        return
    if not isinstance(train_config, dict) or train_config.keys() != set(TRAIN_CONFIG_KEYS):
        raise ValueError(f"checkpoint train_config must be null or hold exactly {TRAIN_CONFIG_KEYS}: {path}")
    try:
        TrainConfig(epochs=train_config["epochs"], seed=train_config["seed"])
        whole("batch_size", train_config["batch_size"], 1)
        for name in ("learning_rate", "mask_probability"):
            if not 0.0 < finite(name, train_config[name]) < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {train_config[name]!r}")
    except ValueError as exc:
        raise ValueError(f"bad train_config in checkpoint {path}: {exc}") from None


def load_checkpoint(path: str | Path) -> tuple[ModelState, dict]:
    """(state, meta); meta holds the train config, tokenizer and experiment."""
    with open(path, "rb") as f:
        magic = f.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"not a {MAGIC.decode().strip()!r} file: {path}")
        header = json.loads(f.readline().decode("utf-8"))
        if not isinstance(header, dict) or not header.keys() >= set(HEADER_KEYS):
            raise ValueError(f"checkpoint header must hold the keys {HEADER_KEYS}: {path}")
        try:
            cfg = ModelConfig(**header["model_config"])
        except (TypeError, ValueError) as exc:  # an unknown, missing or bad model_config key
            raise ValueError(f"bad model_config in checkpoint {path}: {exc}") from None
        _check_train_config(header["train_config"], path)
        if header["experiment"] not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {header['experiment']!r} in checkpoint {path}")
        if not isinstance(header["tokenizer"], str):
            raise ValueError(f"checkpoint tokenizer must be tokenizer text: {path}")
        try:
            tok = bpe.parse_tokenizer(header["tokenizer"])
        except ValueError as exc:
            raise ValueError(f"bad tokenizer in checkpoint {path}: {exc}") from None
        if tok.vocab_size != cfg.vocab_size:
            raise ValueError(
                f"checkpoint tokenizer vocab {tok.vocab_size} does not match model vocab "
                f"{cfg.vocab_size}: {path}"
            )
        expected = [[name, list(shape)] for name, shape, _ in param_specs(cfg)]
        if header["tensors"] != expected:
            raise ValueError("checkpoint tensor listing does not match its model config")
        params = {}
        for name, shape in header["tensors"]:
            count = int(np.prod(shape, dtype=np.int64))
            raw = f.read(count * 4)
            if len(raw) != count * 4:
                raise ValueError(f"checkpoint truncated in tensor {name}")
            params[name] = np.frombuffer(raw, dtype=TENSOR_DTYPE).reshape(shape).copy()
        if f.read(1):
            raise ValueError("trailing bytes after final tensor")
    state = ModelState(config=cfg, params=params, opt_m=None, opt_v=None)
    meta = {
        "train_config": header["train_config"],
        "tokenizer": tok,
        "experiment": header["experiment"],
    }
    return state, meta
