"""Populate the committed acceptance result stores.

Runs every sweep config under results/acceptance/configs/ against the
store for its experiment, skipping cells already present, so the script
is safe to re-run and resumes after interruption.  The acceptance tests
read these stores; on a machine without them, the tests regenerate the
cells themselves (slow).

Usage: python3 scripts/populate_acceptance.py [--workers N]
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
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=1, help="parallel replicates (default 1)")
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")

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
            workers=args.workers,
            reuse=True,
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
