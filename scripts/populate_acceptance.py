"""Populate the committed acceptance result stores.

Runs every sweep config under results/acceptance/configs/ against the
store for its experiment.  A sweep skips the cells its store holds, so
the script is safe to re-run and resumes after interruption.  The
acceptance tests read these stores and never build them: a missing cell
fails its test.  Each sweep trains a replicate per CPU the process may
use at a time, and scores 0-epoch cells in this process; `taskset -c 0
python3 scripts/populate_acceptance.py` runs them all in turn.

Usage: python3 scripts/populate_acceptance.py
"""

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src")]

from quantal.sweep import load_sweep_config, run_sweep  # noqa: E402

ACCEPTANCE_DIR = ROOT / "results" / "acceptance"


def store_for(experiment: str) -> Path:
    return ACCEPTANCE_DIR / f"{experiment}.csv"


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)

    config_paths = sorted((ACCEPTANCE_DIR / "configs").glob("*.json"))
    if not config_paths:
        print("no sweep configs found", file=sys.stderr)
        return 1
    t0 = time.time()
    all_failures = []
    for path in config_paths:
        cfg = load_sweep_config(path)
        print(f"== {path.name} ({cfg.experiment}) ==", flush=True)
        _, skipped, failures = run_sweep(
            cfg,
            store_for(cfg.experiment),
            log=lambda msg: print(f"  {msg}", flush=True),
        )
        all_failures.extend(failures)
    print(f"total wall time {time.time() - t0:.0f}s")
    if all_failures:
        for label, error in all_failures:
            print(f"FAILED {label}: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
