"""Surprisal scoring and minimal-pair evaluation with frozen weights.

Default scoring is pseudo-log-likelihood: mask each position in turn and
sum the cross-entropy of the true token at the masked slot.  The cheaper
single-pass mode scores every position from one intact forward pass.
Both run the model's cache-free forward pass (``keep_cache=False``),
which keeps no backward caches and differs from the training pass only
by float rounding.  Neither mode touches the model parameters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bpe
from .corpora import MinimalPairSet
from .model import ModelState, forward_batch, log_softmax
from .training import encode_texts, pad_batch

PLL = "pll"
UNMASKED = "unmasked"
MODES = (PLL, UNMASKED)

EVAL_FORMAT = "quantal-eval v1"


@dataclass(frozen=True)
class SurprisalScore:
    value: float

    def __post_init__(self):
        if not np.isfinite(self.value) or self.value < 0:
            raise ValueError(f"surprisal must be finite and >= 0, got {self.value}")


@dataclass(frozen=True)
class EvalReport:
    n_pairs: int
    n_preferred: float
    accuracy: float
    per_pair_scores: tuple[tuple[float, float], ...]
    mode: str


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def _scored_positions(state: ModelState, hidden: np.ndarray, rows, cols) -> np.ndarray:
    """Log-probability rows of the tied output head at selected positions."""
    h_sel = hidden[rows, cols]
    logits = h_sel @ state.params["tok_emb"].T + state.params["out_bias"]
    return log_softmax(logits, axis=-1)


def surprisal_many(
    state: ModelState,
    tok: bpe.TokenizerModel,
    sentences,
    mode: str = PLL,
    chunk_rows: int = 256,
) -> np.ndarray:
    """Surprisals for many sentences at once, batched by token length.

    PLL expands each sentence of length L into L single-mask copies, so
    chunking caps the rows per forward pass; scores are independent of
    the chunking because padded keys are excluded from attention.
    """
    _check_mode(mode)
    encoded = encode_texts(tok, sentences, state.config.max_positions)
    totals = np.zeros(len(encoded), dtype=np.float64)
    # (sentence index, masked position or -1 for the intact pass)
    if mode == PLL:
        jobs = [(j, i) for j, ids in enumerate(encoded) for i in range(ids.size)]
    else:
        jobs = [(j, -1) for j in range(len(encoded))]
    jobs.sort(key=lambda job: (encoded[job[0]].size, job[0], job[1]))

    for start in range(0, len(jobs), chunk_rows):
        chunk = jobs[start : start + chunk_rows]
        ids, mask = pad_batch([encoded[j] for j, _ in chunk], tok.pad_id)
        if mode == PLL:
            rows = np.arange(len(chunk))
            cols = np.array([i for _, i in chunk])
            ids[rows, cols] = tok.mask_id
        else:
            rows, cols = np.nonzero(mask)
        hidden, _ = forward_batch(state, ids, mask, keep_cache=False)
        logp = _scored_positions(state, hidden, rows, cols)
        if mode == PLL:
            for row, (j, i) in enumerate(chunk):
                totals[j] -= logp[row, encoded[j][i]]
        else:
            true_ids = np.concatenate([encoded[j] for j, _ in chunk])
            taken = logp[np.arange(rows.size), true_ids]
            for row, (j, _) in enumerate(chunk):
                totals[j] -= taken[rows == row].sum()
    return totals


def sentence_surprisal(
    state: ModelState, tok: bpe.TokenizerModel, sentence: str, mode: str = PLL
) -> SurprisalScore:
    """Summed cross-entropy of one sentence, in nats."""
    return SurprisalScore(float(surprisal_many(state, tok, [sentence], mode=mode)[0]))


def evaluate_pairs(
    state: ModelState, tok: bpe.TokenizerModel, pairs: MinimalPairSet, mode: str = PLL
) -> EvalReport:
    """Credit 1 when the rule member is less surprising, 0.5 on exact ties."""
    _check_mode(mode)
    if not pairs.pairs:
        raise ValueError("no pairs to evaluate")
    texts = []
    for rule, foil in pairs.pairs:
        texts.append(rule.text)
        texts.append(foil.text)
    scores = surprisal_many(state, tok, texts, mode=mode)
    rule_s = scores[0::2]
    foil_s = scores[1::2]
    credit = np.where(rule_s < foil_s, 1.0, np.where(rule_s == foil_s, 0.5, 0.0))
    n_preferred = float(credit.sum())
    return EvalReport(
        n_pairs=len(pairs.pairs),
        n_preferred=n_preferred,
        accuracy=n_preferred / len(pairs.pairs),
        per_pair_scores=tuple((float(r), float(f)) for r, f in zip(rule_s, foil_s)),
        mode=mode,
    )


def write_eval_report(report: EvalReport, path: str | Path) -> None:
    payload = {
        "format": EVAL_FORMAT,
        "mode": report.mode,
        "n_pairs": report.n_pairs,
        "n_preferred": report.n_preferred,
        "accuracy": report.accuracy,
        "per_pair_scores": [[r, f] for r, f in report.per_pair_scores],
    }
    Path(path).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def read_eval_report(path: str | Path) -> EvalReport:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("format") != EVAL_FORMAT:
        raise ValueError(f"not a {EVAL_FORMAT!r} file: {path}")
    return EvalReport(
        n_pairs=payload["n_pairs"],
        n_preferred=payload["n_preferred"],
        accuracy=payload["accuracy"],
        per_pair_scores=tuple((r, f) for r, f in payload["per_pair_scores"]),
        mode=payload["mode"],
    )
