"""
Figures straight from the result store
======================================

Two SVG views of sweep results, written without any plotting library:

* a heatmap of accuracy over (training set size, exception proportion),
  shaded black (chance) to white (perfect), with the tolerance curve
  1/ln N drawn on top;
* a column scatter with the two-line changepoint fit stitched at the
  tolerance proportion.

Uses the store written by ``05_run_sweep.py``, computing it first if
needed (stored cells are skipped).
"""

from pathlib import Path

from quantal.corpora import BINARY
from quantal.svgplot import column_svg, heatmap_svg
from quantal.sweep import column_slice, default_config, load_results, run_sweep
from quantal.tp import analyze_column

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)
store = OUT / "demo_sweep.csv"

# Same config as demo 05; with the store present this recomputes nothing.
cfg = default_config(
    BINARY,
    base_seed=11,
    sizes=(60,),
    epoch_settings=(4,),
    replicates=1,
    n_test_pairs=200,
)
_, _, failures = run_sweep(cfg, store, log=print)
assert not failures, failures
rows = load_results(store)

heat = heatmap_svg(rows, epochs=4, title="accuracy, 4 epochs (white = 1.0)")
(OUT / "heatmap.svg").write_text(heat, encoding="utf-8")
print(f"wrote {OUT / 'heatmap.svg'}")

points = column_slice(rows, n_train=60, epochs=4)
report = analyze_column(points, n_types=60)
col = column_svg(points, report, title="accuracy vs exception proportion, n = 60")
(OUT / "column.svg").write_text(col, encoding="utf-8")
print(f"wrote {OUT / 'column.svg'}")
print()
print(f"column classification: {report.classification}")
print("open the SVGs in any browser; cells carry data-n/data-prop/data-acc")
print("attributes so the numbers are recoverable from the figure itself")
