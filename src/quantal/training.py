"""MLM training loop: shuffle, mask, batch, one Adam step per batch.

The recipe is fixed, as in every sweep: LEARNING_RATE, BATCH_SIZE and
MASK_PROBABILITY.  Also home to the length-checked encoding that
scoring shares; scoring needs no padding.
"""

from __future__ import annotations

import numpy as np

from . import bpe
from .corpora import Corpus
from .model import (
    IGNORE_INDEX,
    ModelState,
    TrainConfig,
    adam_step,
    apply_masking,
    loss_and_grads,
)
from .util import make_rng

LEARNING_RATE = 1e-4
BATCH_SIZE = 16
MASK_PROBABILITY = 0.15


def encode_texts(tok: bpe.TokenizerModel, texts, max_positions: int) -> list[np.ndarray]:
    """Token id arrays for every text, length-checked up front."""
    encoded = []
    for text in texts:
        ids = np.asarray(bpe.encode(tok, text), dtype=np.int64)
        if ids.size > max_positions:
            raise ValueError(
                f"sentence too long: encodes to {ids.size} tokens, over the "
                f"position limit {max_positions}: {text!r}"
            )
        encoded.append(ids)
    return encoded


def pad_batch(seqs, fill: int):
    """Right-pad 1-D id arrays with fill; returns (padded, real-position mask)."""
    lengths = np.array([s.size for s in seqs])
    padded = np.full((len(seqs), lengths.max()), fill, dtype=np.int64)
    for row, s in enumerate(seqs):
        padded[row, : s.size] = s
    return padded, np.arange(padded.shape[1]) < lengths[:, None]


def train(state: ModelState, corpus: Corpus, tok: bpe.TokenizerModel, cfg: TrainConfig) -> ModelState:
    """Run cfg.epochs passes over the corpus, updating state in place.

    Each epoch reshuffles the sentence order and redraws the mask
    positions.  A batch with zero masked positions takes no optimizer
    step.  Per-batch losses are appended to state.loss_history.  A state
    without optimizer moments (one loaded from a checkpoint) is refused.
    """
    if len(corpus.sentences) == 0:
        raise ValueError("corpus is empty")
    if state.opt_m is None or state.opt_v is None:
        raise ValueError(
            "state has no optimizer moments (checkpoints do not store them); "
            "train from a freshly initialized model"
        )
    if state.config.vocab_size != tok.vocab_size:
        raise ValueError(
            f"model vocab {state.config.vocab_size} != tokenizer vocab {tok.vocab_size}"
        )
    encoded = encode_texts(tok, [s.text for s in corpus.sentences], state.config.max_positions)
    rng = make_rng(cfg.seed)
    n = len(encoded)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, BATCH_SIZE):
            chosen = order[start : start + BATCH_SIZE]
            seqs, labels = [], []
            for i in chosen:
                masked, lab = apply_masking(encoded[i], MASK_PROBABILITY, rng, tok.mask_id)
                seqs.append(masked)
                labels.append(lab)
            ids, mask = pad_batch(seqs, tok.pad_id)
            labs, _ = pad_batch(labels, IGNORE_INDEX)
            loss, grads, n_masked = loss_and_grads(state, ids, mask, labs, dropout_rng=rng)
            if n_masked == 0:
                continue
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"non-finite loss {loss} at epoch {epoch + 1}, "
                    f"batch starting {start} (seed {cfg.seed})"
                )
            adam_step(state, grads, LEARNING_RATE)
            state.loss_history.append(loss)
    return state
