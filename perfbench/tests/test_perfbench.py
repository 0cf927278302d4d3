"""Tests of the benchmark's own code: python3 -m pytest perfbench/tests"""

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import metrics  # noqa: E402
import opbench  # noqa: E402
import spans  # noqa: E402
import quantal.model as model  # noqa: E402
from quantal.sweep import load_results  # noqa: E402

METRIC_NAME = r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}"
UNIT_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_/%.-")


def test_metric_names_are_well_formed_and_unique():
    names = list(metrics.END_TO_END) + list(metrics.PER_LAYER)
    assert [n for n in names if not re.fullmatch(r"[A-Za-z0-9_.-]+", n)] == []
    assert [n for n in names if not re.fullmatch(METRIC_NAME, n)] == []
    assert len(set(names)) == len(names)


def test_metric_caps():
    assert 1 <= len(metrics.END_TO_END) <= 16
    assert 1 <= len(metrics.PER_LAYER) <= 128


def test_units_and_bounds():
    for unit, better, bound in metrics.END_TO_END.values():
        assert len(unit) <= 16 and set(unit) <= UNIT_CHARS
        assert better in ("higher", "lower") and 0 < bound <= 0.25
    assert metrics.END_TO_END["setup_s"] == ("s", "lower", max(b for _, _, b in metrics.END_TO_END.values()))
    for unit, better, moves, _ in metrics.PER_LAYER.values():
        assert len(unit) <= 16 and set(unit) <= UNIT_CHARS
        assert better in ("higher", "lower") and (moves in metrics.END_TO_END or moves == "-")


def test_benchmark_json_matches_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec == metrics.benchmark_spec(spec["run_seconds"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])


def test_every_shape_metric_is_declared():
    for name, spec in metrics.SHAPES.items():
        assert spec["workload"] in metrics.WORKLOADS
        assert f"model.{name}.forward_ms" in metrics.PER_LAYER
        assert (f"model.{name}.adam_ms" in metrics.PER_LAYER) == spec["train"]


def test_percentiles():
    assert metrics.percentile([3, 1, 2], 50) == 2
    assert metrics.percentile([0, 10], 75) == 7.5
    assert metrics.high_percentile(19) is None
    assert metrics.high_percentile(20) == 50
    assert metrics.high_percentile(63) == 84


def test_checker_flags_a_perturbed_pair_score():
    ref = json.loads((BENCH / "data" / "reference.json").read_text())["pll_scores"]
    assert len(ref) == 8  # the first timed op: about 500 rows, two 256-row chunks
    assert checks.bad_pair_scores(ref, ref) == []
    moved = [list(p) for p in ref]
    moved[2][1] *= 1 + 2e-5
    assert checks.bad_pair_scores(moved, ref) == [2]
    moved[2][1] = ref[2][1] * (1 + 5e-6)  # inside the 1e-5 gate
    assert checks.bad_pair_scores(moved, ref) == []
    assert checks.implausible_pair_scores([(1.0, 2.0), (float("nan"), 1.0), (0.0, 1.0)]) == [1, 2]


def test_checker_flags_perturbed_losses_and_gradients():
    ref = json.loads((BENCH / "data" / "reference.json").read_text())
    losses = ref["losses"]
    assert len(losses) == 16  # the 16 Adam steps of one timed op
    assert checks.bad_losses(losses, losses) == []
    moved = list(losses)
    moved[9] *= 1.001
    assert checks.bad_losses(moved, losses) == [9]
    assert checks.bad_losses(losses[:-1], losses) == list(range(16))
    assert checks.bad_losses([float("inf")] * 16, losses) == list(range(16))
    norms = dict(ref["grad_norms"])
    assert checks.bad_grad_norms(norms, ref["grad_norms"]) == []
    norms["l3.ff1_w"] *= 1.01
    del norms["out_bias"]
    assert checks.bad_grad_norms(norms, ref["grad_norms"]) == ["l3.ff1_w", "out_bias"]


def committed_binary_row():
    rows = load_results(ROOT / "results" / "acceptance" / "binary.csv")
    return next(r for r in rows if r["n_train"] == 50)


def test_checker_flags_a_perturbed_row():
    row = committed_binary_row()
    assert row["accuracies"] == (0.884, 0.819, 0.848)
    same = dict(row, wall_seconds=1.0)
    assert checks.row_identical(same, row) and checks.bad_replicates(same, row) == []

    drift = dict(row, accuracies=(0.884, 0.822, 0.848))  # within tolerance
    assert not checks.row_identical(drift, row)
    assert checks.bad_replicates(drift, row) == []
    assert checks.bad_replicates(dict(row, accuracies=(0.884, 0.819, 0.86)), row) == [2]
    assert checks.bad_replicates(dict(row, corpus_hash="0" * 64), row) == [0, 1, 2]
    assert checks.bad_replicates(dict(row, accuracies=(0.884, 0.819)), row) == [0, 1, 2]


def test_row_invariants_hold_for_the_committed_row():
    row = committed_binary_row()
    args = (1000, row["seeds"], row["corpus_hash"])
    assert checks.bad_row_invariants(row, *args) == []
    odd = (0.884, 0.81925, 0.848)  # 819.25 credits: not a whole half credit
    assert checks.bad_row_invariants(dict(row, accuracies=odd, mean_accuracy=sum(odd) / 3), *args) == [1]
    assert checks.bad_row_invariants(dict(row, mean_accuracy=0.9), *args) == [0, 1, 2]
    assert checks.bad_row_invariants(dict(row, seeds=(1, 2, 3)), *args) == [0, 1, 2]


def test_a_failed_cell_counts_once_and_does_no_work(tmp_path, monkeypatch):
    import workloads

    monkeypatch.setattr(workloads.sweep, "run_sweep", lambda cfg, store, workers: ([], [], [("cell", "boom")]))
    run = workloads.binary_cell(workloads.DEFAULT_SEED, 0.0, tmp_path, lambda: None)
    assert (run.ops, run.attempted, run.failed) == (1, 3, 3)
    assert run.work_per_s == 0.0 and run.layer["sweep.row_identical"] == 0


def test_self_times_and_steps():
    def span(name, t0, t1, parent=None):
        return {"name": name, "t0": t0, "t1": t1, "parent": parent, "rows": None}

    recorded = [
        span("training.train", 0.0, 10.0),
        span("model.loss_and_grads", 1.0, 3.0, 0),
        span("model.adam_step", 3.0, 4.0, 0),
        span("model.loss_and_grads", 5.0, 6.0, 0),  # no masked position: no step
        span("model.loss_and_grads", 6.0, 8.0, 0),
        span("model.adam_step", 8.0, 8.5, 0),
    ]
    assert spans.self_times(recorded)[0] == pytest.approx(3.5)
    assert spans.step_durations(recorded) == [3.0, 2.5]


def test_tracer_wraps_restores_and_records_parents(tmp_path):
    mod = types.SimpleNamespace(outer=None, inner=lambda ids, x: x + 1)
    mod.outer = lambda ids, x: mod.inner(ids, x) * 2
    orig_inner = mod.inner
    tracer = spans.Tracer(tmp_path)
    wrapped = [("model.forward_batch", "m", "inner"), ("scoring.evaluate_pairs", "m", "outer")]
    old, spans.WRAPPED = spans.WRAPPED, wrapped
    try:
        tracer.install({"m": mod})
        assert mod.outer(None, np.zeros((4, 2))).shape == (4, 2)
        tracer.uninstall()
    finally:
        spans.WRAPPED = old
    assert mod.inner is orig_inner
    recorded = tracer.collect()[0]
    assert [s["name"] for s in recorded] == ["scoring.evaluate_pairs", "model.forward_batch"]
    assert recorded[0]["parent"] is None and recorded[0]["rows"] is None
    assert recorded[1]["parent"] == 0 and recorded[1]["rows"] == 4


def tiny_state(seed=0):
    cfg = model.ModelConfig(vocab_size=11, n_layers=2, n_heads=2, hidden=8, intermediate=16, max_positions=8)
    return model.init_model(cfg, seed=seed)


def test_composed_passes_match_the_model():
    state = tiny_state()
    rng = np.random.default_rng(1)
    ids, mask, labels = opbench.shape_inputs(model, 4, 6, 11, True, rng)
    clk = opbench.OpClock()
    hidden, caches = opbench.composed_forward(model, state, ids, mask, clk)
    ref_hidden, _ = model.forward_batch(state, ids, mask)
    np.testing.assert_allclose(hidden, ref_hidden, rtol=1e-6)
    h_sel, logp = opbench.composed_head(model, state, hidden, labels != model.IGNORE_INDEX, clk)
    grads = opbench.composed_backward(model, state, ids, labels, hidden, caches, h_sel, logp, clk)
    _, ref_grads, _ = model.loss_and_grads(state, ids, mask, labels)
    for name, g in ref_grads.items():
        np.testing.assert_allclose(grads[name], g, rtol=1e-5, atol=1e-7)
    assert set(clk.ms) == set(metrics.FWD_OPS) | set(metrics.BWD_OPS) - {"adam"}


def test_drift_guard_withholds_a_stale_shape(monkeypatch):
    fake = types.SimpleNamespace(**{k: getattr(model, k) for k in dir(model) if not k.startswith("__")})
    fake.init_model = lambda cfg, seed: tiny_state(seed)
    fake.ModelConfig = lambda vocab_size: None
    monkeypatch.setitem(metrics.SHAPES, "train_bin", dict(rows=4, tokens=5, vocab=11, train=True, workload="binary_cell"))
    values, problems = opbench.bench_shape(fake, "train_bin", seed=3, peak=100.0, reps=2)
    assert problems == [] and values["model.train_bin.forward_ms"] > 0

    fake._gelu = lambda x: (lambda y, s: (y * 1.01, s))(*model._gelu(x))
    _, problems = opbench.bench_shape(fake, "train_bin", seed=3, peak=100.0, reps=2)
    assert problems == [
        "train_bin: composed forward no longer matches forward_batch",
        "train_bin: composed backward no longer matches loss_and_grads",
    ]


def test_run_without_program_source_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "word_order_pll", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
