"""quantal benchmark: one workload per process, metrics as one JSON line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads are listed in perfbench/metrics.py and BENCHMARK.json.  With
--trace 0 the last line of output holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics: spans around the calls between
the program's modules, plus the per-op microbench of the model.  Lines
before it describe the machine and the run for a human reader.

The program is imported from the checkout's src/; without it the run
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
LAYER_MODULES = (
    "quantal.corpora", "quantal.bpe", "quantal.model", "quantal.training",
    "quantal.scoring", "quantal.sweep", "quantal.checkpoint", "quantal.tp",
)
IMPORT_REPS = 3


def import_seconds() -> float:
    """Median wall time for a fresh interpreter to start and import every layer."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import " + ", ".join(LAYER_MODULES)
    times = []
    for _ in range(IMPORT_REPS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """This process's peak RSS plus the peak of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def machine_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


def sample_summary(values: list[float]) -> str:
    from metrics import high_percentile, percentile

    if not values:
        return "n=0"
    text = f"n={len(values)} median={statistics.median(values):.4f}s"
    q = high_percentile(len(values))
    if q is not None:
        text += f" p{q}={percentile(values, q):.4f}s"
    return text


def main(argv=None) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from metrics import END_TO_END, PER_LAYER, WORK_UNIT, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None, help="default: the committed cell's base seed")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "quantal" / "__init__.py").is_file():
        print(f"no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import quantal

    if Path(quantal.__file__).resolve().parent != SRC / "quantal":
        print(f"quantal resolved to {quantal.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import layers
    import workloads

    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    for key, value in machine_info().items():
        print(f"machine {key}: {value}")

    import_s = import_seconds()
    reference = json.loads(workloads.REFERENCE.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        tracer = layers.start(Path(tmp)) if args.trace else None
        spans = []

        def after_timing():
            if tracer:
                spans.extend(layers.stop(tracer))

        if args.workload == "binary_cell":
            run = workloads.binary_cell(seed, args.seconds, Path(tmp), after_timing)
        elif args.workload == "word_order_train":
            run = workloads.word_order_train(seed, args.seconds, reference, after_timing)
        else:
            run = workloads.word_order_pll(seed, args.seconds, reference, after_timing)

    work_per_s = run.work_per_s
    rss_mb = peak_rss_mb()
    print(f"workload {args.workload} seed {seed}: {WORK_UNIT[args.workload]}")
    print(f"  op seconds: {sample_summary(run.op_seconds)}")
    print(f"  setup seconds: imports {import_s:.4f}, inputs {sample_summary(run.setup_seconds)}")
    print(f"  peak RSS (process plus largest child): {rss_mb:.1f} MB")
    for problem in run.problems:
        print(f"  FAILED: {problem}")

    if args.trace:
        metrics, stale = layers.layer_metrics(spans, run, work_per_s, rss_mb, seed)
        for problem in stale:
            print(f"  STALE: {problem}")
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
    else:
        metrics = {
            "work_per_s": work_per_s,
            "setup_s": import_s + statistics.median(run.setup_seconds),
            "ops_ok_frac": 1.0 - run.failed / run.attempted,
        }
        units = {name: spec[0] for name, spec in END_TO_END.items()}
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
