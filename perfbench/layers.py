"""Per-layer metrics of a traced run.

Times and counts from spans are given per workload operation (a sweep
cell, an epoch over a 250-sentence slice, an 8-pair scoring call), so they compare
across commits even though a faster commit fits more operations into
the same run.  A layer the workload does not exercise reads 0.
"""

from __future__ import annotations

import importlib
import statistics

import quantal.model as model

import opbench
from metrics import PER_LAYER, percentile
from spans import WRAPPED, Tracer, durations, self_times, step_durations


def start(spill_dir) -> Tracer:
    tracer = Tracer(spill_dir)
    tracer.install({mod: importlib.import_module(mod) for _, mod, _ in WRAPPED})
    return tracer


def stop(tracer: Tracer) -> list[list[dict]]:
    tracer.uninstall()
    return tracer.collect()


def _median(values, scale=1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def span_metrics(processes: list[list[dict]], ops: int) -> dict[str, float]:
    def total(name):
        return sum(sum(durations(spans, name)) for spans in processes)

    def all_durations(name):
        return [d for spans in processes for d in durations(spans, name)]

    def self_total(name):
        return sum(
            own
            for spans in processes
            for s, own in zip(spans, self_times(spans))
            if s["name"] == name
        )

    steps = [d for spans in processes for d in step_durations(spans)]
    encode = all_durations("bpe.encode")
    n_tokenizers = len(all_durations("bpe.train_tokenizer"))
    rows = sum(s["rows"] for spans in processes for s in spans if s["name"] == "model.forward_batch")
    sweep_s = total("sweep.run_sweep")
    ops = max(ops, 1)
    return {
        "scoring.self_s": self_total("scoring.evaluate_pairs") / ops,
        "scoring.forward_calls": len(all_durations("model.forward_batch")) / ops,
        "scoring.rows": rows / ops,
        "training.self_s": self_total("training.train") / ops,
        "training.steps": len(steps) / ops,
        "training.step_ms_p50": percentile(steps, 50) * 1e3 if steps else 0.0,
        "training.step_ms_p75": percentile(steps, 75) * 1e3 if steps else 0.0,
        "bpe.train_s": _median(all_durations("bpe.train_tokenizer")),
        "bpe.encode_us": statistics.fmean(encode) * 1e6 if encode else 0.0,
        "corpora.gen_s": total("corpora.gen") / n_tokenizers if n_tokenizers else 0.0,
        "sweep.overhead_s": (
            (sweep_s - total("training.train") - total("scoring.evaluate_pairs")) / ops
            if sweep_s else 0.0
        ),
        "checkpoint.digest_ms": _median(all_durations("checkpoint.state_digest"), 1e3),
        "tp.above_chance_ms": _median(all_durations("tp.above_chance_test"), 1e3),
    }


def layer_metrics(processes, run, work_per_s: float, rss_mb: float, seed: int) -> tuple[dict, list[str]]:
    """Every per-layer metric, and the microbench's drift problems.

    A shape whose composed ops drifted from the model is left out, so
    the result then lacks that shape's metrics.
    """
    values = {
        "trace.work_per_s": work_per_s,
        "memory.peak_rss_mb": rss_mb,
        "sweep.row_identical": 0,
        **span_metrics(processes, run.ops),
        **run.layer,
    }
    ops, stale = opbench.run(model, seed)
    values.update(ops)
    ordered = {name: values[name] for name in PER_LAYER if name in values}
    return ordered, stale
