"""Run every workload, untraced then traced, and print one table.

Each run is its own fresh process and runs alone: peak RSS is a
lifetime figure, set-up time includes imports and BLAS start-up, and two
PLL runs at once would not fit in 8 GB.  The table gives every metric
with its unit, the number of timed operations behind it, and the
tracing overhead (untraced against traced throughput).  Runs use the
default seed and the run length of BENCHMARK.json.

    python3 perfbench/report.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import PER_LAYER, WORK_UNIT, WORKLOADS  # noqa: E402


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_once(workload: str, seconds: int, trace: int) -> tuple[dict, int, list[str]]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    ops = int(re.search(r"op seconds: n=(\d+)", proc.stdout).group(1))
    return json.loads(lines[-1]), ops, lines[:-1]


def main() -> int:
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    print(f"cpu: {cpu_model()}")
    for i, workload in enumerate(WORKLOADS):
        plain, ops, lines = run_once(workload, seconds, 0)
        traced, traced_ops, _ = run_once(workload, seconds, 1)
        if i == 0:
            print("\n".join(line for line in lines if line.startswith("machine ")))
        print(f"\n== {workload} (default seed; work = {WORK_UNIT[workload]})")
        print(f"   correct={plain['correct']} attempted={plain['attempted']} failed={plain['failed']}")
        for name, m in plain["metrics"].items():
            print(f"   {name:<24} {m['value']:>14.6g} {m['unit']:<14} n={ops}")
        untraced = plain["metrics"]["work_per_s"]["value"]
        under_trace = traced["metrics"]["trace.work_per_s"]["value"]
        print(f"   tracing overhead: {untraced:.6g} -> {under_trace:.6g} work/s "
              f"({(untraced - under_trace) / untraced:+.1%} of untraced), traced n={traced_ops}")
        for name, m in traced["metrics"].items():
            _, _, moves, on = PER_LAYER[name]
            print(f"   {name:<36} {m['value']:>14.6g} {m['unit']:<14} moves {moves} on {on}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
