import json
import math
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammaln, logsumexp

import quantal
from quantal.tp import (
    INSUFFICIENT,
    JUMP_DETECTED,
    NO_JUMP,
    REPORT_HEADER,
    analyze_column,
    above_chance_test,
    beats_baseline_test,
    collapse_replicates,
    fit_piecewise_step,
    format_report,
    gradience_measure,
    is_productive,
    tp_threshold,
    write_report,
)
from quantal.util import round_half_up


def two_line_oracle(points, break_x):
    """Independent check: fit each side separately with polyfit."""
    left = [(x, y) for x, y in points if x < break_x]
    right = [(x, y) for x, y in points if x >= break_x]
    ls, li = np.polyfit([p[0] for p in left], [p[1] for p in left], 1)
    rs, ri = np.polyfit([p[0] for p in right], [p[1] for p in right], 1)
    gap = (ri + rs * break_x) - (li + ls * break_x)
    return (ls, li), (rs, ri), gap


def binom_tail_oracle(k, n):
    """log-space sum of C(n,i) / 2^n for i in [k, n]."""
    i = np.arange(k, n + 1)
    logs = gammaln(n + 1) - gammaln(i + 1) - gammaln(n - i + 1) - n * math.log(2)
    return float(np.exp(logsumexp(logs)))


def rank_with_ties(values):
    """1-based ranks, ties averaged, by brute force."""
    ranks = []
    for v in values:
        less = sum(1 for w in values if w < v)
        equal = sum(1 for w in values if w == v)
        ranks.append(less + (equal + 1) / 2)
    return ranks


class TestThreshold:
    def test_paper_values_n16(self):
        t = tp_threshold(16)
        assert t.theta == pytest.approx(5.770, abs=0.005)
        assert t.min_rule_proportion == pytest.approx(0.639, abs=0.001)
        assert t.max_exception_proportion == pytest.approx(0.3607, abs=0.0005)

    def test_formula_n100(self):
        assert tp_threshold(100).theta == pytest.approx(21.7147, abs=5e-4)

    def test_identity_theta_times_log(self):
        for n in [2, 3, 16, 100, 500, 10**6]:
            t = tp_threshold(n)
            assert t.theta * math.log(n) == pytest.approx(n, rel=1e-9)
            assert t.max_exception_proportion + t.min_rule_proportion == pytest.approx(1.0)

    def test_proportions_in_unit_interval(self):
        for n in range(3, 200):
            t = tp_threshold(n)
            assert 0 < t.max_exception_proportion < 1
            assert 0 < t.min_rule_proportion < 1

    def test_n1_rejected(self):
        for bad in (1, 0, -5):
            with pytest.raises(ValueError):
                tp_threshold(bad)


class TestIsProductive:
    def test_boundary_n16(self):
        assert is_productive(16, 5) is True
        assert is_productive(16, 6) is False

    def test_zero_exceptions_always_productive(self):
        for n in (2, 16, 100, 5000):
            assert is_productive(n, 0)

    def test_monotone_in_exceptions(self):
        for n in (5, 16, 50, 211):
            flags = [is_productive(n, e) for e in range(n + 1)]
            # once false, stays false
            assert flags == sorted(flags, reverse=True)

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            is_productive(16, -1)
        with pytest.raises(ValueError):
            is_productive(16, 17)


class TestThresholdCurve:
    """The tolerance curve 1/ln N that figures draw: max_exception_proportion."""

    def test_e_squared(self):
        assert tp_threshold(math.e**2).max_exception_proportion == pytest.approx(0.5, rel=1e-12)

    def test_n16(self):
        assert tp_threshold(16).max_exception_proportion == pytest.approx(0.3607, abs=5e-5)

    def test_monotone_decreasing(self):
        ys = [tp_threshold(n).max_exception_proportion for n in range(2, 300)]
        assert all(a > b for a, b in zip(ys, ys[1:]))


class TestPiecewiseStep:
    def test_exact_step_data(self):
        pts = [(x, 0.9) for x in (0.0, 0.05, 0.1, 0.15, 0.18, 0.2)]
        pts += [(x, 0.5) for x in (0.22, 0.3, 0.35, 0.4, 0.45, 0.5)]
        r = fit_piecewise_step(pts, 0.22)
        assert abs(r.step_coefficient - (-0.4)) < 1e-9
        assert r.p_value < 0.001
        assert r.n_points == 12

    def test_noiseless_linear_no_step(self):
        pts = [(x / 10, 0.9 - x / 10) for x in range(10)]
        r = fit_piecewise_step(pts, 0.45)
        assert abs(r.step_coefficient) < 1e-9
        assert r.p_value > 0.05
        # both segment fits recover the global line
        assert r.left_fit[0] == pytest.approx(-1.0, abs=1e-9)
        assert r.right_fit[0] == pytest.approx(-1.0, abs=1e-9)

    def test_matches_two_line_oracle_on_noisy_data(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            n_left = int(rng.integers(3, 10))
            n_right = int(rng.integers(3, 10))
            xs = np.concatenate(
                [np.sort(rng.uniform(0, 0.2, n_left)), np.sort(rng.uniform(0.25, 0.6, n_right))]
            )
            ys = 0.8 - 0.3 * xs + rng.normal(0, 0.05, xs.size)
            pts = list(zip(xs, ys))
            r = fit_piecewise_step(pts, 0.22)
            (ls, li), (rs, ri), gap = two_line_oracle(pts, 0.22)
            assert r.left_fit[0] == pytest.approx(ls, abs=1e-9)
            assert r.left_fit[1] == pytest.approx(li, abs=1e-9)
            assert r.right_fit[0] == pytest.approx(rs, abs=1e-9)
            assert r.right_fit[1] == pytest.approx(ri, abs=1e-9)
            assert r.step_coefficient == pytest.approx(gap, abs=1e-9)

    def test_step_equals_prediction_gap(self):
        rng = np.random.default_rng(5)
        xs = np.linspace(0, 0.5, 14)
        ys = rng.uniform(0.4, 1.0, xs.size)
        r = fit_piecewise_step(list(zip(xs, ys)), 0.26)
        left_at_b = r.left_fit[1] + r.left_fit[0] * r.break_x
        right_at_b = r.right_fit[1] + r.right_fit[0] * r.break_x
        assert r.step_coefficient == pytest.approx(right_at_b - left_at_b, abs=1e-9)

    def test_p_value_matches_t_distribution(self):
        from scipy import stats as sps

        rng = np.random.default_rng(8)
        xs = np.linspace(0, 0.5, 16)
        ys = 0.9 - 0.5 * xs + rng.normal(0, 0.03, xs.size)
        r = fit_piecewise_step(list(zip(xs, ys)), 0.22)
        want = 2 * sps.t.sf(abs(r.t_statistic), r.n_points - 4)
        assert r.p_value == pytest.approx(want, rel=1e-12)
        assert 0 <= r.p_value <= 1

    def test_break_point_assigned_right(self):
        # x exactly at break counts to the right side
        pts = [(0.0, 1.0), (0.1, 1.0), (0.15, 1.0), (0.2, 0.5), (0.3, 0.5), (0.4, 0.5)]
        r = fit_piecewise_step(pts, 0.2)
        assert r.step_coefficient == pytest.approx(-0.5, abs=1e-9)

    def test_too_few_per_side_rejected(self):
        pts = [(0.0, 1.0), (0.1, 1.0), (0.3, 0.5), (0.35, 0.5), (0.4, 0.5)]
        with pytest.raises(ValueError):
            fit_piecewise_step(pts, 0.2)

    def test_singular_design_rejected(self):
        # all left x identical -> left slope unidentifiable
        pts = [(0.1, 0.8), (0.1, 0.9), (0.1, 0.85), (0.3, 0.5), (0.4, 0.45), (0.5, 0.4)]
        with pytest.raises(ValueError):
            fit_piecewise_step(pts, 0.2)


class TestAboveChance:
    def test_all_successes(self):
        assert above_chance_test(1000, 1000) == pytest.approx(0.5**1000, rel=1e-9)

    def test_spec_point_values(self):
        assert above_chance_test(550, 1000) == pytest.approx(8.65e-4, rel=5e-3)
        assert above_chance_test(500, 1000) == pytest.approx(0.513, abs=5e-4)

    def test_matches_log_tail_oracle(self):
        for k, n in [(0, 10), (5, 10), (10, 10), (30, 50), (550, 1000), (700, 1000)]:
            assert above_chance_test(k, n) == pytest.approx(binom_tail_oracle(k, n), rel=1e-9)

    def test_half_credit_rounding(self):
        # 10.5 rounds half-up to 11
        assert above_chance_test(10.5, 20) == pytest.approx(binom_tail_oracle(11, 20), rel=1e-9)

    def test_monotone_in_credit(self):
        ps = [above_chance_test(k, 100) for k in range(0, 101)]
        assert all(a >= b for a, b in zip(ps, ps[1:]))

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            above_chance_test(-1, 10)
        with pytest.raises(ValueError):
            above_chance_test(11, 10)


def binomtest_hex(k, n):
    return float(stats.binomtest(k, n, 0.5, alternative="greater").pvalue).hex()


class TestAboveChanceIsBinomtest:
    """above_chance_test computes scipy.stats.binomtest's p-value from
    scipy.special.betainc.  Stored above_chance_p values must not move, so
    the two are compared bit for bit; a scipy whose betainc differs fails
    here rather than silently changing rows.
    """

    @pytest.mark.parametrize("n", [*range(1, 41), 300, 1000, 2000])
    def test_every_k_bit_for_bit(self, n):
        got = [above_chance_test(k, n).hex() for k in range(n + 1)]
        assert got == [binomtest_hex(k, n) for k in range(n + 1)]

    @pytest.mark.parametrize("credit, n", [(0.5, 1), (0.5, 1000), (10.5, 20), (499.5, 1000),
                                           (500.5, 1000), (999.5, 1000), (1000.5, 2000)])
    def test_half_credits_round_half_up(self, credit, n):
        assert above_chance_test(credit, n).hex() == binomtest_hex(round_half_up(credit), n)

    def test_zero_credit_is_one(self):
        for n in (1, 2, 1000):
            assert above_chance_test(0, n) == 1.0 == stats.binomtest(0, n, 0.5, alternative="greater").pvalue

    def test_no_pairs_rejected(self):
        with pytest.raises(ValueError):
            above_chance_test(0, 0)


IMPORT_GUARD = """
import json, sys
import quantal.cli, quantal.sweep, quantal.tp
before = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
points = json.loads(sys.argv[1])
report = quantal.tp.analyze_column(points, n_types=500)
print(json.dumps({
    "before": before,
    "after": "scipy.stats" in sys.modules,
    "classification": report.classification,
    "p_value": report.regression.p_value,
    "rho": report.gradience.rho,
}))
"""


class TestScipyStatsLoadsOnlyForAnalysis:
    def test_fresh_interpreter(self):
        src = str(Path(quantal.__file__).resolve().parents[1])
        points = TestAnalyzeColumn()._column_points(jump=False)
        done = subprocess.run(
            [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n" + IMPORT_GUARD,
             json.dumps(points)],
            capture_output=True, text=True, check=True,
        )
        seen = json.loads(done.stdout)
        assert seen["before"] == []  # no scipy module at all, not scipy.special either
        assert seen["after"] is True
        # The expectations of TestAnalyzeColumn.test_no_jump_column, and the
        # same figures as this process computes.
        assert seen["classification"] == NO_JUMP
        assert seen["p_value"] > 0.05
        assert seen["rho"] <= -0.9
        here = analyze_column(points, n_types=500)
        assert (seen["p_value"], seen["rho"]) == (here.regression.p_value, here.gradience.rho)


def permutation_oracle(trained, untrained):
    """Brute force over index subsets, comparing means with exact fractions."""
    pooled = [Fraction(a).limit_denominator(10**6) for a in list(trained) + list(untrained)]
    r = len(trained)
    observed = sum(pooled[:r]) / r
    splits = list(combinations(range(len(pooled)), r))
    extreme = sum(sum(pooled[i] for i in idx) / r >= observed for idx in splits)
    return extreme / len(splits)


class TestBeatsBaseline:
    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            r, k = int(rng.integers(1, 5)), int(rng.integers(1, 7))
            # accuracies on a 1/20 grid so that ties occur often
            trained = rng.integers(0, 21, size=r) / 20
            untrained = rng.integers(0, 21, size=k) / 20
            assert beats_baseline_test(trained, untrained) == permutation_oracle(
                trained, untrained
            )

    def test_floor_when_every_trained_model_wins(self):
        p = beats_baseline_test([0.91, 0.95, 0.99], [0.5 + 0.01 * i for i in range(10)])
        assert p == 1 / math.comb(13, 3)

    def test_one_when_trained_models_are_lowest(self):
        assert beats_baseline_test([0.1, 0.2], [0.5, 0.6, 0.7]) == 1.0

    def test_ties_count_as_extreme(self):
        # every split of identical values ties the observed mean
        assert beats_baseline_test([0.7, 0.7], [0.7, 0.7, 0.7]) == 1.0
        # 0.1 + 0.2 > 0.3 + 0.0 in floating point, yet the two draws tie:
        # {0.1, 0.2}, {0.1, 0.3}, {0.2, 0.3} and {0.3, 0.0} reach the trained mean
        assert beats_baseline_test([0.1, 0.2], [0.3, 0.0]) == pytest.approx(4 / 6)

    def test_rejects_empty_out_of_range_and_oversized(self):
        for trained, untrained in [([], [0.5]), ([0.5], []), ([1.2], [0.5]), ([0.5], [-0.1]),
                                   ([float("nan")], [0.5]), ([0.5] * 15, [0.5] * 15)]:
            with pytest.raises(ValueError):
                beats_baseline_test(trained, untrained)


class TestGradience:
    def test_perfect_monotone(self):
        down = [(0.0, 0.9), (0.1, 0.8), (0.2, 0.7), (0.3, 0.6)]
        up = [(x, 1 - y) for x, y in down]
        assert gradience_measure(down).rho == pytest.approx(-1.0)
        assert gradience_measure(up).rho == pytest.approx(1.0)

    def test_tied_y_against_hand_ranks(self):
        xs = [0.0, 0.1, 0.2, 0.3]
        ys = [0.9, 0.8, 0.8, 0.6]
        got = gradience_measure(list(zip(xs, ys)))
        rx, ry = rank_with_ties(xs), rank_with_ties(ys)
        want = float(np.corrcoef(rx, ry)[0, 1])
        assert got.rho == pytest.approx(want, rel=1e-12)
        assert not got.degenerate

    def test_fuzz_against_rank_oracle(self):
        rng = np.random.default_rng(123)
        for _ in range(30):
            n = int(rng.integers(4, 12))
            xs = np.sort(rng.permutation(100)[:n]).astype(float)
            ys = np.round(rng.uniform(0.4, 1.0, n), 1)  # coarse -> frequent ties
            if len(set(ys)) == 1:
                continue
            got = gradience_measure(list(zip(xs, ys)))
            want = float(np.corrcoef(rank_with_ties(xs), rank_with_ties(ys))[0, 1])
            assert got.rho == pytest.approx(want, rel=1e-9)
            assert -1.0 <= got.rho <= 1.0

    def test_constant_y_degenerate(self):
        g = gradience_measure([(0.0, 0.5), (0.1, 0.5), (0.2, 0.5), (0.3, 0.5)])
        assert g.rho == 0.0
        assert g.degenerate

    def test_preconditions(self):
        with pytest.raises(ValueError):
            gradience_measure([(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError):
            gradience_measure([(0, 1), (0, 2), (2, 3), (3, 4)])


class TestAnalyzeColumn:
    def _column_points(self, jump):
        # 3 replicates per proportion, Exp-2-like column over N=500
        pts = []
        for x in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
            for r in range(3):
                y = 0.92 - 0.55 * x + 0.004 * r
                if jump and x >= 0.1609:
                    y -= 0.3
                pts.append((x, y))
        return pts

    def test_no_jump_column(self):
        rep = analyze_column(self._column_points(jump=False), n_types=500)
        assert rep.classification == NO_JUMP
        assert rep.regression.p_value > 0.05
        assert rep.gradience.rho <= -0.9

    def test_jump_column(self):
        rep = analyze_column(self._column_points(jump=True), n_types=500)
        assert rep.classification == JUMP_DETECTED
        assert rep.regression.step_coefficient < -0.2

    def test_insufficient_data(self):
        rep = analyze_column([(0.0, 0.9), (0.5, 0.5), (0.4, 0.6), (0.3, 0.7)], n_types=500)
        assert rep.classification == INSUFFICIENT
        assert rep.regression is None

    def test_break_at_tolerance_proportion(self):
        rep = analyze_column(self._column_points(jump=False), n_types=500)
        assert rep.regression.break_x == pytest.approx(1 / math.log(500), rel=1e-12)

    def test_collapse_replicates(self):
        means = collapse_replicates([(0.1, 0.8), (0.1, 0.6), (0.0, 1.0)])
        assert means == [(0.0, 1.0), (0.1, pytest.approx(0.7))]

    def test_report_file(self, tmp_path):
        rep = analyze_column(self._column_points(jump=False), n_types=500)
        text = format_report(rep)
        assert text.splitlines()[0] == REPORT_HEADER
        assert "classification: no-significant-jump" in text
        assert "step_coefficient:" in text and "p_value:" in text
        p = tmp_path / "report.txt"
        write_report(rep, p)
        assert p.read_text(encoding="utf-8") == text
