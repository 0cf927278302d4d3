"""
How many exceptions can a rule tolerate?
========================================

The threshold theta(N) = N / ln N grows sublinearly in the number of
item types N, so large vocabularies tolerate a smaller *fraction* of
exceptions than small ones.  This script walks the arithmetic.
"""

from quantal.tp import is_productive, tp_threshold

# A rule over 16 types tolerates up to floor(theta) = 5 exceptions.
t = tp_threshold(16)
print(f"N = {t.n_types}")
print(f"theta = N / ln N = {t.theta:.5f}")
print(f"max exception proportion = 1 / ln N = {t.max_exception_proportion:.5f}")
print(f"min rule proportion = {t.min_rule_proportion:.5f}")
print()

# Productivity flips between 5 and 6 exceptions: one item makes the
# difference between a general rule and a list of memorized cases.
for k in range(4, 8):
    verdict = "productive" if is_productive(16, k) else "NOT productive"
    print(f"  16 types, {k:>2} exceptions -> {verdict}")
print()

# The tolerated fraction shrinks slowly as vocabularies grow;
# max_exception_proportion is the boundary proportion 1/ln N.
print(f"{'N':>8} {'theta':>10} {'1/ln N':>8}")
for n in [16, 55, 100, 500, 1000, 10_000]:
    t = tp_threshold(n)
    print(f"{n:>8.0f} {t.theta:>10.2f} {t.max_exception_proportion:>8.4f}")
print()
print("A 16-type rule survives 36% exceptions; a 10,000-type rule only 11%.")
