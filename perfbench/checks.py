"""Output checks.  Each returns what failed, so callers count failures.

Tolerances, and why:

* PLL scores: 1e-5 relative, the gate ROADMAP sets for per-pair scores
  on a fixed checkpoint.
* Training losses: 1e-5 relative, over the 16 Adam steps of one timed
  op.  Moving every initial weight by float32 rounding (6e-8 relative)
  moves these losses by at most 2.3e-7 relative, so a float-reordering
  change stays well inside the tolerance and a wrong step does not.
* Gradient norms: 1e-4 relative.  Each is a float32 sum over a batch,
  whose order an optimisation may change.
* Binary-cell accuracies: 0.005 absolute per replicate, five of 1,000
  pairs.  Reordering float32 sums may flip pairs whose rule and foil
  scores are within rounding of each other; ROADMAP allows such drift if
  it is listed.  Any other column must match exactly.
"""

from __future__ import annotations

import math

from quantal.sweep import TIMING_COLUMNS

PLL_RTOL = 1e-5
LOSS_RTOL = 1e-5
GRAD_RTOL = 1e-4
ACCURACY_ATOL = 0.005


def rel_close(a: float, b: float, rtol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * max(abs(b), 1e-12)


def bad_pair_scores(scores, reference, rtol: float = PLL_RTOL) -> list[int]:
    """Indices of pairs whose (rule, foil) scores leave the reference."""
    if len(scores) != len(reference):
        raise ValueError(f"{len(scores)} scored pairs against {len(reference)} references")
    return [
        i
        for i, ((r, f), (r0, f0)) in enumerate(zip(scores, reference))
        if not (rel_close(r, r0, rtol) and rel_close(f, f0, rtol))
    ]


def implausible_pair_scores(scores) -> list[int]:
    """Indices of pairs whose surprisals are not finite and positive."""
    return [
        i
        for i, pair in enumerate(scores)
        if not all(math.isfinite(s) and s > 0 for s in pair)
    ]


def bad_losses(losses, reference, rtol: float = LOSS_RTOL) -> list[int]:
    if len(losses) != len(reference):
        return list(range(max(len(losses), len(reference))))
    return [i for i, (a, b) in enumerate(zip(losses, reference)) if not rel_close(a, b, rtol)]


def bad_grad_norms(norms: dict, reference: dict, rtol: float = GRAD_RTOL) -> list[str]:
    """Parameters whose gradient norm left the reference, or went missing."""
    names = sorted(set(norms) | set(reference))
    return [n for n in names if n not in norms or n not in reference or not rel_close(norms[n], reference[n], rtol)]


def row_identical(row: dict, expected: dict) -> bool:
    """Every column equal except the timing ones."""
    keys = (set(row) | set(expected)) - set(TIMING_COLUMNS)
    return all(row.get(k) == expected.get(k) for k in keys)


def bad_replicates(row: dict, expected: dict, atol: float = ACCURACY_ATOL) -> list[int]:
    """Replicates whose accuracy drifts beyond atol from the committed row.

    A mismatch in any column other than accuracies, mean_accuracy,
    above_chance_p and the timing ones fails every replicate: the cell
    itself is then not the committed one.
    """
    n = expected["replicates"]
    derived = {"accuracies", "mean_accuracy", "above_chance_p", *TIMING_COLUMNS}
    for key in set(row) | set(expected):
        if key not in derived and row.get(key) != expected.get(key):
            return list(range(n))
    got = row.get("accuracies", ())
    if len(got) != n:
        return list(range(n))
    return [i for i, (a, b) in enumerate(zip(got, expected["accuracies"])) if abs(a - b) > atol]


def bad_row_invariants(row: dict, n_pairs: int, seeds, corpus_hash: str) -> list[int]:
    """Replicates failing checks that hold for any base seed.

    The row must carry the grid's seeds and the corpus the benchmark
    regenerated; each accuracy must be a whole number of half credits
    over n_pairs, and the mean must be the mean of the accuracies.
    """
    n = len(seeds)
    got = row.get("accuracies", ())
    if (
        tuple(row.get("seeds", ())) != tuple(seeds)
        or row.get("corpus_hash") != corpus_hash
        or len(got) != n
        or not math.isclose(row.get("mean_accuracy", -1.0), sum(got) / max(n, 1), abs_tol=1e-12)
    ):
        return list(range(n))
    return [
        i
        for i, a in enumerate(got)
        if not (0.0 <= a <= 1.0 and math.isclose(a * n_pairs * 2, round(a * n_pairs * 2), abs_tol=1e-6))
    ]
