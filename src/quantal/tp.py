"""Tolerance-threshold math and the statistics used to read sweep results.

The threshold for a rule over N item types is theta = N/ln N: the rule is
predicted productive iff its exception count stays at or below theta.
Accuracy columns from a sweep are tested two ways: a piecewise-linear
regression with a step dummy at the predicted break (is there a jump?) and
a Spearman rank correlation (is the decline monotone and gradual?).
Whether a cell has learned at all is read against untrained models of the
same cell with an exact permutation test over model replicates.

Each function that needs scipy imports it inside the call, so importing
quantal loads no scipy: fit_piecewise_step (the t tail) and
gradience_measure (spearmanr) load scipy.stats, and above_chance_test,
the one statistic a sweep computes per row, loads only scipy.special.
The binomial tail P(X >= k) at p = 1/2 is the regularized incomplete
beta I_{1/2}(k, n - k + 1), which is the value
stats.binomtest(k, n, 0.5, alternative="greater") returns, bit for bit
(tests pin the two together).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .util import round_half_up

JUMP_DETECTED = "quantal-jump-detected"
NO_JUMP = "no-significant-jump"
INSUFFICIENT = "insufficient-data"

REPORT_HEADER = "quantal analysis v1"

# Level of the t-test on the step: p below it classifies a column as a jump
ALPHA = 0.05

# Group sums closer than this count as ties in beats_baseline_test
TIE_TOLERANCE = 1e-9
# Exact enumeration refuses larger problems rather than run for hours
MAX_SPLITS = 1_000_000


@dataclass(frozen=True)
class TPThreshold:
    n_types: float
    theta: float
    max_exception_proportion: float
    min_rule_proportion: float


@dataclass(frozen=True)
class RegressionReport:
    break_x: float
    left_fit: tuple[float, float]  # (slope, intercept)
    right_fit: tuple[float, float]
    step_coefficient: float
    step_std_error: float
    t_statistic: float
    p_value: float
    n_points: int


class Gradience(NamedTuple):
    rho: float
    degenerate: bool


def tp_threshold(n_types: float) -> TPThreshold:
    """theta = N/ln N plus the equivalent proportion bounds."""
    if n_types <= 1:
        raise ValueError(f"n_types must exceed 1 (ln 1 = 0), got {n_types}")
    log_n = math.log(n_types)
    return TPThreshold(
        n_types=n_types,
        theta=n_types / log_n,
        max_exception_proportion=1.0 / log_n,
        min_rule_proportion=1.0 - 1.0 / log_n,
    )


def is_productive(n_types: int, exceptions: int) -> bool:
    """True iff the exception count is tolerated: exceptions <= N/ln N."""
    if not 0 <= exceptions <= n_types:
        raise ValueError(f"need 0 <= exceptions <= n_types, got {exceptions}/{n_types}")
    return exceptions <= tp_threshold(n_types).theta


def fit_piecewise_step(points, break_x: float) -> RegressionReport:
    """OLS of y on [1, x, step(x >= b), (x - b) * step] with a t-test on the step.

    Equivalent to fitting separate lines left and right of the break and
    testing the vertical gap where they meet it.  Points exactly at the
    break count as right-side.
    """
    pts = [(float(x), float(y)) for x, y in points]
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    right = x >= break_x
    n_left = int((~right).sum())
    n_right = int(right.sum())
    if n_left < 3 or n_right < 3:
        raise ValueError(
            f"need >= 3 points on each side of break_x={break_x}, "
            f"got {n_left} left / {n_right} right"
        )
    n = len(pts)
    step = right.astype(float)
    design = np.column_stack([np.ones(n), x, step, (x - break_x) * step])
    beta, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < 4:
        raise ValueError("singular design matrix (check for repeated x values)")
    resid = y - design @ beta
    rss = float(resid @ resid)
    df = n - 4
    xtx_inv = np.linalg.inv(design.T @ design)
    sigma2 = rss / df
    se = math.sqrt(max(sigma2 * xtx_inv[2, 2], 0.0))
    b0, b1, b2, b3 = (float(v) for v in beta)

    # Noiseless data drives the residual variance to zero; report the limit
    # rather than dividing by it.
    tiny = 1e-12 * max(1.0, float(np.abs(y).max()))
    if se < tiny:
        if abs(b2) < 1e-9:
            t_stat, p_value = 0.0, 1.0
        else:
            t_stat = math.copysign(math.inf, b2)
            p_value = 0.0
    else:
        t_stat = b2 / se
        from scipy import stats

        p_value = 2.0 * float(stats.t.sf(abs(t_stat), df))

    left_fit = (b1, b0)
    right_fit = (b1 + b3, b0 + b2 - b3 * break_x)
    return RegressionReport(
        break_x=float(break_x),
        left_fit=left_fit,
        right_fit=right_fit,
        step_coefficient=b2,
        step_std_error=se,
        t_statistic=t_stat,
        p_value=p_value,
        n_points=n,
    )


def above_chance_test(n_correct_credit: float, n_pairs: int) -> float:
    """One-sided exact binomial tail: P(X >= round(credit)) at P(success)=1/2.

    Its null treats the pairs as independent fair coins.  That is not a
    null of "no learning": an untrained model already prefers one member
    of a pair whenever the two encode to different token counts, because
    summed surprisal grows with length, and one model's preferences are
    correlated across pairs.  Use beats_baseline_test to ask whether
    training helped.
    """
    if n_pairs < 1 or n_pairs != int(n_pairs):
        raise ValueError(f"n_pairs must be a positive integer, got {n_pairs}")
    if not 0 <= n_correct_credit <= n_pairs:
        raise ValueError(f"credit {n_correct_credit} outside [0, {n_pairs}]")
    k = round_half_up(n_correct_credit)
    if k == 0:
        return 1.0
    from scipy import special

    return float(special.betainc(k, n_pairs - k + 1, 0.5))


def beats_baseline_test(trained, untrained) -> float:
    """One-sided exact permutation test: do trained models beat untrained ones?

    The unit is the model: each argument holds one accuracy per replicate,
    R trained and K untrained.  p is the share of the C(R+K, R) ways of
    drawing R accuracies from the pooled R + K whose mean is at least the
    trained mean; group means within float rounding count as ties, and
    ties count as at least as extreme.  The only assumption is that under
    H0 the trained and untrained accuracies are exchangeable.  Every split
    is enumerated, so no RNG is involved and the smallest attainable p is
    1 / C(R+K, R).
    """
    trained = [float(a) for a in trained]
    untrained = [float(a) for a in untrained]
    if not trained or not untrained:
        raise ValueError("need at least one trained and one untrained accuracy")
    pooled = trained + untrained
    if not all(0.0 <= a <= 1.0 for a in pooled):
        raise ValueError("accuracies must lie in [0, 1]")
    n_splits = math.comb(len(pooled), len(trained))
    if n_splits > MAX_SPLITS:
        raise ValueError(f"{n_splits} splits exceed the exact-enumeration cap {MAX_SPLITS}")
    cutoff = math.fsum(trained) - TIE_TOLERANCE
    extreme = sum(math.fsum(draw) >= cutoff for draw in combinations(pooled, len(trained)))
    return extreme / n_splits


def gradience_measure(points) -> Gradience:
    """Spearman rank correlation of accuracy against exception proportion.

    Ties in y are rank-averaged.  Constant y has no defined correlation;
    it reports rho=0 with the degenerate flag set.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 4:
        raise ValueError(f"need >= 4 points, got {len(pts)}")
    x = [p[0] for p in pts]
    y = [p[1] for p in pts]
    if len(set(x)) != len(x):
        raise ValueError("x values must be distinct (average replicates first)")
    if len(set(y)) == 1:
        return Gradience(0.0, True)
    from scipy import stats

    rho = float(stats.spearmanr(x, y).statistic)
    return Gradience(rho, False)


@dataclass(frozen=True)
class AnalysisReport:
    threshold: TPThreshold
    regression: RegressionReport | None
    gradience: Gradience | None
    classification: str


def collapse_replicates(points) -> list[tuple[float, float]]:
    """Average y over points sharing an x value; x order is ascending."""
    groups: dict[float, list[float]] = {}
    for x, y in points:
        groups.setdefault(float(x), []).append(float(y))
    return [(x, float(np.mean(ys))) for x, ys in sorted(groups.items())]


def analyze_column(points, n_types: int) -> AnalysisReport:
    """Full read of one accuracy-vs-exception-proportion column.

    The regression runs on the points as given (replicates included); the
    rank correlation runs on per-proportion means so x values are unique.
    The break is placed at the tolerance proportion 1/ln N, and the step
    counts as a jump when its p-value is below ALPHA.
    """
    threshold = tp_threshold(n_types)
    try:
        regression = fit_piecewise_step(points, threshold.max_exception_proportion)
    except ValueError:
        regression = None
    means = collapse_replicates(points)
    try:
        gradience = gradience_measure(means)
    except ValueError:
        gradience = None
    if regression is None:
        classification = INSUFFICIENT
    elif regression.p_value < ALPHA:
        classification = JUMP_DETECTED
    else:
        classification = NO_JUMP
    return AnalysisReport(threshold, regression, gradience, classification)


def format_report(report: AnalysisReport) -> str:
    t = report.threshold
    lines = [
        REPORT_HEADER,
        f"n_types: {t.n_types:g}",
        f"theta: {t.theta:.6f}",
        f"max_exception_proportion: {t.max_exception_proportion:.6f}",
        f"min_rule_proportion: {t.min_rule_proportion:.6f}",
        f"alpha: {ALPHA:g}",
    ]
    r = report.regression
    if r is not None:
        lines += [
            f"break_x: {r.break_x:.6f}",
            f"n_points: {r.n_points}",
            f"left_fit: slope={r.left_fit[0]:.6f} intercept={r.left_fit[1]:.6f}",
            f"right_fit: slope={r.right_fit[0]:.6f} intercept={r.right_fit[1]:.6f}",
            f"step_coefficient: {r.step_coefficient:.6f}",
            f"step_std_error: {r.step_std_error:.6f}",
            f"t_statistic: {r.t_statistic:.6f}",
            f"p_value: {r.p_value:.6g}",
        ]
    g = report.gradience
    if g is not None:
        lines.append(f"gradience_rho: {g.rho:.6f}" + (" (degenerate)" if g.degenerate else ""))
    lines.append(f"classification: {report.classification}")
    return "\n".join(lines) + "\n"


def write_report(report: AnalysisReport, path: str | Path) -> None:
    Path(path).write_bytes(format_report(report).encode("utf-8"))
