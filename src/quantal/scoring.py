"""Surprisal scoring and minimal-pair evaluation with frozen weights.

Scoring is pseudo-log-likelihood: mask each position in turn and sum the
cross-entropy of the true token at the masked slot, position by position
in float64.  It runs the model's inference pass (``keep_cache=False``).
Sentences are scored in chunks of whole sentences of one encoded length,
so no forward pass holds a padded position: every mask is all real, and
attention has no padded slot.  Each copy reads one masked row: scoring
passes that row's position in each batch row as ``at=``, and the model
prunes its last layer to those rows, computing everything but the keys
and values for them alone; this moves a score by about 1e-7 relative in
float32 (``scripts/digest.py`` measures it).  Scoring never touches
the model parameters.  A chunk holds at most CHUNK_ROWS copies, unless
one sentence alone has more.

Chunks are ordered longest sentences first, ties by sentence index, so
their layout depends on the sentences alone.  A call with more than one
chunk scores them on every CPU the process may use, one chunk per
thread, in that order, so the costliest chunks start first and the
threads finish together.  BLAS is pinned to one thread while they run
(``blas.one_thread``).  Every sentence lies in one chunk, so scores are
bit-identical to scoring the chunks one at a time.  Where no OpenBLAS is
found to pin, chunks run one at a time.
"""

from __future__ import annotations

import contextlib
import itertools
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import blas, bpe
from .corpora import MinimalPairSet
from .model import ModelState, forward_batch, log_softmax, output_head
from .training import encode_texts
from .util import usable_cpus

EVAL_FORMAT = "quantal-eval v2"

CHUNK_ROWS = 256  # batch rows per forward pass


@dataclass(frozen=True)
class EvalReport:
    n_pairs: int
    n_preferred: float
    accuracy: float
    per_pair_scores: tuple[tuple[float, float], ...]


def surprisal_many(state: ModelState, tok: bpe.TokenizerModel, sentences) -> np.ndarray:
    """Surprisals for many sentences at once, in chunks of one token length.

    Each sentence of length L expands into L single-mask copies.  A
    chunk holds whole sentences of one encoded length, longest first,
    and at most CHUNK_ROWS rows unless one sentence alone has more, so
    no forward pass sees a padded position.
    """
    encoded = encode_texts(tok, sentences, state.config.max_positions)
    totals = np.zeros(len(encoded), dtype=np.float64)
    order = sorted(range(len(encoded)), key=lambda j: (-encoded[j].size, j))
    chunks = []
    for size, group in itertools.groupby(order, key=lambda j: encoded[j].size):
        group = list(group)
        per_chunk = max(1, CHUNK_ROWS // size)
        chunks += [group[start : start + per_chunk] for start in range(0, len(group), per_chunk)]

    def score(chunk):
        """Each sentence's summed log-probability, in float64."""
        seqs = np.stack([encoded[j] for j in chunk])  # (S, L), every position real
        S, L = seqs.shape
        at = np.tile(np.arange(L), S)  # row s*L + i masks position i of sentence s
        ids = np.repeat(seqs, L, axis=0)
        ids[np.arange(S * L), at] = tok.mask_id
        hidden, _ = forward_batch(state, ids, np.ones(ids.shape, dtype=bool), keep_cache=False, at=at)
        logp = log_softmax(output_head(state, hidden), axis=-1)
        taken = logp[np.arange(S * L), seqs.reshape(-1)].reshape(S, L)
        # position by position, as one row at a time would add them
        return np.add.accumulate(taken, axis=1, dtype=np.float64)[:, -1]

    # Chunks run on every usable CPU only while BLAS is pinned to one thread
    # per caller; unpinned, OpenBLAS serializes concurrent callers.  The
    # longest chunks go first, so the threads finish together.  Each
    # sentence lies in one chunk, so scores equal the one-thread loop's.
    with blas.one_thread() if len(chunks) > 1 else contextlib.nullcontext(0) as pinned:
        threads = min(len(chunks), usable_cpus()) if pinned else 1
        with ThreadPoolExecutor(threads) if threads > 1 else contextlib.nullcontext() as pool:
            for chunk, sums in zip(chunks, (pool.map if pool else map)(score, chunks)):
                totals[chunk] -= sums
    return totals


def evaluate_pairs(state: ModelState, tok: bpe.TokenizerModel, pairs: MinimalPairSet) -> EvalReport:
    """Credit 1 when the rule member is less surprising, 0.5 on exact ties."""
    if not pairs.pairs:
        raise ValueError("no pairs to evaluate")
    texts = []
    for rule, foil in pairs.pairs:
        texts.append(rule.text)
        texts.append(foil.text)
    scores = surprisal_many(state, tok, texts)
    rule_s = scores[0::2]
    foil_s = scores[1::2]
    credit = np.where(rule_s < foil_s, 1.0, np.where(rule_s == foil_s, 0.5, 0.0))
    n_preferred = float(credit.sum())
    return EvalReport(
        n_pairs=len(pairs.pairs),
        n_preferred=n_preferred,
        accuracy=n_preferred / len(pairs.pairs),
        per_pair_scores=tuple((float(r), float(f)) for r, f in zip(rule_s, foil_s)),
    )


def write_eval_report(report: EvalReport, path: str | Path) -> None:
    payload = {
        "format": EVAL_FORMAT,
        "n_pairs": report.n_pairs,
        "n_preferred": report.n_preferred,
        "accuracy": report.accuracy,
        "per_pair_scores": [[r, f] for r, f in report.per_pair_scores],
    }
    Path(path).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
