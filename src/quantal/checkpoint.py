"""Model checkpoint container.

Layout: an ASCII magic line, one JSON header line (model config, optional
train config, optional tokenizer hash, step counter, tensor names with
shapes), then the raw tensors as little-endian float32 in header order.
The tensor order is the init order of model.param_specs.  Optimizer
moments are not stored, so a loaded state can score but not train:
training.train refuses a state without moments.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .model import ModelConfig, ModelState, TrainConfig, param_specs

MAGIC = b"quantal-ckpt v1\n"
TENSOR_DTYPE = "<f4"


def state_digest(state: ModelState) -> str:
    """SHA-256 over the model config and parameter tensors.

    Matches what save_checkpoint would persist (float32, init order), so
    two states with the same digest score identically.
    """
    h = hashlib.sha256()
    h.update(json.dumps(asdict(state.config), sort_keys=True).encode("utf-8"))
    for name, _, _ in param_specs(state.config):
        h.update(np.ascontiguousarray(state.params[name], dtype=TENSOR_DTYPE).tobytes())
    return h.hexdigest()


def save_checkpoint(
    state: ModelState,
    path: str | Path,
    train_config: TrainConfig | None = None,
    tokenizer_sha256: str | None = None,
) -> None:
    names = [name for name, _, _ in param_specs(state.config)]
    header = {
        "model_config": asdict(state.config),
        "train_config": asdict(train_config) if train_config else None,
        "tokenizer_sha256": tokenizer_sha256,
        "step": state.step,
        "tensors": [[name, list(state.params[name].shape)] for name in names],
    }
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(json.dumps(header).encode("utf-8") + b"\n")
        for name in names:
            f.write(np.ascontiguousarray(state.params[name], dtype=TENSOR_DTYPE).tobytes())


def load_checkpoint(path: str | Path) -> tuple[ModelState, dict]:
    with open(path, "rb") as f:
        magic = f.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"not a {MAGIC.decode().strip()!r} file: {path}")
        header = json.loads(f.readline().decode("utf-8"))
        cfg = ModelConfig(**header["model_config"])
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
    state = ModelState(
        config=cfg,
        params=params,
        opt_m=None,
        opt_v=None,
        step=header["step"],
    )
    meta = {
        "train_config": header["train_config"],
        "tokenizer_sha256": header["tokenizer_sha256"],
    }
    return state, meta
