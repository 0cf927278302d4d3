"""Surprisal scoring and minimal-pair evaluation with frozen weights.

Default scoring is pseudo-log-likelihood: mask each position in turn and
sum the cross-entropy of the true token at the masked slot.  The cheaper
single-pass mode scores every position from one intact forward pass.
Both run the model's inference pass (``keep_cache=False``), which
computes only the real token rows, so padding costs only attention
slots.  The single-pass mode reads every real row it returns.  PLL
reads one masked row per copy: it passes that row's position in each
batch row as ``at=``, and the model prunes its last layer to those rows,
computing everything but the keys and values for them alone; this moves
a score by about 1e-7 relative in float32 (``scripts/pll_digest.py``
measures it).  Neither mode touches the model parameters.  At most
CHUNK_ROWS copies or sentences go into one forward pass.

A call with more than one chunk scores its chunks on every CPU the
process may use, one chunk per thread, with BLAS pinned to one thread
while it runs (``blas.one_thread``).  Each sentence's total is summed in
chunk order, so scores are bit-identical to scoring the chunks one at a
time.  Where no OpenBLAS is found to pin, chunks run one at a time.
"""

from __future__ import annotations

import contextlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import blas, bpe
from .corpora import MinimalPairSet
from .model import ModelState, forward_batch, log_softmax, output_head
from .training import encode_texts, pad_batch

PLL = "pll"
UNMASKED = "unmasked"
MODES = (PLL, UNMASKED)

EVAL_FORMAT = "quantal-eval v1"

CHUNK_ROWS = 256  # batch rows per forward pass


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


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def surprisal_many(
    state: ModelState,
    tok: bpe.TokenizerModel,
    sentences,
    mode: str = PLL,
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

    chunks = [jobs[start : start + CHUNK_ROWS] for start in range(0, len(jobs), CHUNK_ROWS)]

    def score(chunk):
        """Log-probability each row scores, in the model's dtype."""
        seqs = [encoded[j] for j, _ in chunk]
        ids, mask = pad_batch(seqs, tok.pad_id)
        if mode == PLL:  # one masked position per row
            at = np.array([i for _, i in chunk])
            ids[np.arange(len(chunk)), at] = tok.mask_id
            true_ids = np.array([encoded[j][i] for j, i in chunk])
        else:  # every real position, row by row
            at = None
            true_ids = np.concatenate(seqs)
        hidden, _ = forward_batch(state, ids, mask, keep_cache=False, at=at)
        logp = log_softmax(output_head(state, hidden), axis=-1)
        taken = logp[np.arange(true_ids.size), true_ids]
        if mode == PLL:
            return taken
        ends = np.cumsum([seq.size for seq in seqs])
        return np.array([taken[end - seq.size : end].sum() for seq, end in zip(seqs, ends)])

    # Chunks run on every usable CPU only while BLAS is pinned to one thread
    # per caller; unpinned, OpenBLAS serializes concurrent callers.  Totals
    # are summed here in chunk order, so scores equal the one-thread loop's.
    with blas.one_thread() if len(chunks) > 1 else contextlib.nullcontext(0) as pinned:
        threads = min(len(chunks), _usable_cpus()) if pinned else 1
        with ThreadPoolExecutor(threads) if threads > 1 else contextlib.nullcontext() as pool:
            for chunk, row_scores in zip(chunks, (pool.map if pool else map)(score, chunks)):
                for (j, _), value in zip(chunk, row_scores):
                    totals[j] -= value
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
