"""
Sweep an exception-proportion column and test it for a jump
===========================================================

A sweep cell is (experiment, training set size, exception proportion,
epochs): generate data, fit a tokenizer, train from scratch, score held
out minimal pairs, and append one CSV row.  Everything is derived from
the config's base seed, so a cell's row is a pure function of the
config, and a sweep skips every cell its store already holds.

This scans one column (n = 60, six proportions) with a scaled-down
model budget still large enough to learn, then asks whether accuracy
falls off a cliff at the tolerance threshold or just declines.
"""

from pathlib import Path

from quantal.corpora import BINARY
from quantal.sweep import column_slice, default_config, load_results, run_sweep
from quantal.tp import analyze_column, format_report

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)
store = OUT / "demo_sweep.csv"

cfg = default_config(
    BINARY,
    base_seed=11,
    sizes=(60,),
    epoch_settings=(4,),
    replicates=1,
    n_test_pairs=200,
)
print(f"proportions: {cfg.proportions}")
print(f"store:       {store}")
print()

# Stored cells are skipped, so the second run of this script is instant.
results, skipped, failures = run_sweep(cfg, store, log=print)
assert not failures, failures
print(f"\n{len(results)} cells computed, {len(skipped)} reused from the store")
print()

rows = load_results(store)
points = column_slice(rows, n_train=60, epochs=4)
for prop, acc in points:
    bar = "#" * round(acc * 40)
    print(f"  prop={prop:.1f}  acc={acc:.3f}  {bar}")
print()

# The column analysis fits separate lines left and right of the
# tolerance proportion 1/ln N and t-tests the vertical gap between
# them; Spearman's rho captures the overall downward trend.
report = analyze_column(points, n_types=60)
print(format_report(report))
