"""Spans around the calls the program makes between its layers.

The tracer replaces module-level names (for example
``quantal.scoring.forward_batch``) with wrappers that record a span per
call: name, start, end, parent span and the number of batch rows where
the call has them.  Nothing inside ``quantal`` changes.

Sweep worker processes are forked from the traced process and inherit
the wrappers.  A worker writes its spans to ``spill_dir`` each time its
outermost span ends; ``collect`` merges those files with the spans of
this process.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

# (span name, module, attribute): each attribute is the name a layer uses
# to call into the next one, so the span sits on the layer boundary.
WRAPPED = (
    ("sweep.run_sweep", "quantal.sweep", "run_sweep"),
    ("sweep.run_cell", "quantal.sweep", "run_cell"),
    ("training.train", "quantal.sweep", "train"),
    ("training.train", "quantal.training", "train"),
    ("scoring.evaluate_pairs", "quantal.sweep", "evaluate_pairs"),
    ("scoring.evaluate_pairs", "quantal.scoring", "evaluate_pairs"),
    ("checkpoint.state_digest", "quantal.sweep", "state_digest"),
    ("tp.above_chance_test", "quantal.sweep", "above_chance_test"),
    ("model.forward_batch", "quantal.scoring", "forward_batch"),
    ("model.loss_and_grads", "quantal.training", "loss_and_grads"),
    ("model.adam_step", "quantal.training", "adam_step"),
    ("bpe.train_tokenizer", "quantal.bpe", "train_tokenizer"),
    ("bpe.encode", "quantal.bpe", "encode"),
    ("corpora.gen", "quantal.corpora", "gen_vocabulary"),
    ("corpora.gen", "quantal.corpora", "gen_exp1_corpus"),
    ("corpora.gen", "quantal.corpora", "gen_exp1_test_pairs"),
    ("corpora.gen", "quantal.corpora", "gen_exp2_corpus"),
    ("corpora.gen", "quantal.corpora", "gen_exp2_test_pairs"),
)

# Span names whose second positional argument is a (rows, tokens) batch.
BATCH_ARG = {"model.forward_batch", "model.loss_and_grads"}


class Tracer:
    """In-memory span recorder; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self, spill_dir: str | Path):
        self.spill_dir = Path(spill_dir)
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._child = False
        self._originals: list[tuple[object, str, object]] = []

    def install(self, modules: dict[str, object]) -> None:
        for name, module_name, attr in WRAPPED:
            module = modules[module_name]
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            if os.getpid() != self._pid:  # first call in a forked worker
                self._pid, self._child = os.getpid(), True
                self.spans, self._stack = [], []
            rows = None
            if name in BATCH_ARG and len(args) > 1:
                rows = int(args[1].shape[0])
            span = {
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "rows": rows,
                "t0": time.perf_counter(),
                "t1": None,
            }
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                span["t1"] = time.perf_counter()
                self._stack.pop()
                if self._child and not self._stack:
                    self._spill()

        traced.__wrapped__ = fn
        return traced

    def _spill(self) -> None:
        path = self.spill_dir / f"spans-{self._pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.spans), encoding="utf-8")
        tmp.replace(path)

    def collect(self) -> list[list[dict]]:
        """Span lists, one per process: this one first, then workers."""
        out = [self.spans]
        for path in sorted(self.spill_dir.glob("spans-*.json")):
            out.append(json.loads(path.read_text(encoding="utf-8")))
        return out


def durations(spans: list[dict], name: str) -> list[float]:
    return [s["t1"] - s["t0"] for s in spans if s["name"] == name and s["t1"] is not None]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s["t1"] - s["t0"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["t1"] - s["t0"]
    return own


def step_durations(spans: list[dict]) -> list[float]:
    """loss_and_grads plus the adam_step that follows it, per optimizer step.

    A batch with no masked position calls loss_and_grads but takes no
    step, so it is not a step sample.
    """
    steps = []
    pending = None
    for s in spans:
        if s["name"] == "model.loss_and_grads":
            pending = s["t1"] - s["t0"]
        elif s["name"] == "model.adam_step" and pending is not None:
            steps.append(pending + s["t1"] - s["t0"])
            pending = None
    return steps
