"""
Sweep an exception-proportion column, test it for a jump, and draw it
=====================================================================

A sweep cell is (experiment, training set size, exception proportion,
epochs): generate data, fit a tokenizer, train from scratch, score held
out minimal pairs, and append one CSV row.  Everything is derived from
the config's base seed, so a cell's row is a pure function of the
config, and a sweep skips every cell its store already holds.

This runs the committed config ``column_sweep.json``: one column
(n = 60, six proportions) of the default 8-layer model, scaled down to
200 test pairs, 4 epochs and 1 replicate per cell.  It asks whether
accuracy falls off a cliff at the tolerance threshold or just declines,
then writes two SVG views of the store, without any plotting library:

* a heatmap of accuracy over (training set size, exception proportion),
  shaded black (chance) to white (perfect), with the tolerance curve
  1/ln N drawn on top;
* a column scatter with the two-line changepoint fit stitched at the
  tolerance proportion.
"""

from pathlib import Path

from quantal.svgplot import column_svg, heatmap_svg
from quantal.sweep import column_slice, load_results, load_sweep_config, run_sweep
from quantal.tp import analyze_column, format_report

HERE = Path(__file__).parent
OUT = HERE / "output"
OUT.mkdir(exist_ok=True)
store = OUT / "demo_sweep.csv"

cfg = load_sweep_config(HERE / "column_sweep.json")
(n_train,), (epochs,) = cfg.sizes, cfg.epoch_settings
print(f"proportions: {cfg.proportions}")
print(f"store:       {store}")
print()

# Stored cells are skipped, so the second run of this script is instant.
results, skipped, failures = run_sweep(cfg, store, log=print)
assert not failures, failures
print(f"\n{len(results)} cells computed, {len(skipped)} reused from the store")
print()

rows = load_results(store)
points = column_slice(rows, n_train=n_train, epochs=epochs)
for prop, acc in points:
    bar = "#" * round(acc * 40)
    print(f"  prop={prop:.1f}  acc={acc:.3f}  {bar}")
print()

# The column analysis fits separate lines left and right of the
# tolerance proportion 1/ln N and t-tests the vertical gap between
# them; Spearman's rho captures the overall downward trend.
report = analyze_column(points, n_types=n_train)
print(format_report(report))

heat = heatmap_svg(rows, epochs=epochs, title=f"accuracy, {epochs} epochs (white = 1.0)")
(OUT / "heatmap.svg").write_text(heat, encoding="utf-8")
print(f"wrote {OUT / 'heatmap.svg'}")

col = column_svg(points, report, title=f"accuracy vs exception proportion, n = {n_train}")
(OUT / "column.svg").write_text(col, encoding="utf-8")
print(f"wrote {OUT / 'column.svg'}")
print("open the SVGs in any browser; cells carry data-n/data-prop/data-acc")
print("attributes so the numbers are recoverable from the figure itself")
