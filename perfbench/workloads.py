"""The three workloads: inputs from the seed, a timed loop, output checks.

Each workload function returns a ``Run``.  The timed loop repeats the
workload's operation until ``seconds`` have passed (at least once), then
calls ``after_timing`` (which ends tracing) before the checks run.  The
caller sets ``sys.path`` so that ``quantal`` resolves to the checkout's
``src``.
"""

from __future__ import annotations

import dataclasses
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import quantal.bpe as bpe
import quantal.corpora as corpora
import quantal.model as model
import quantal.scoring as scoring
import quantal.sweep as sweep
import quantal.training as training
from quantal.util import make_rng, sha256_bytes, stable_seed

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "data" / "reference.json"
PROBE_TOKENIZER = HERE / "data" / "probe_tokenizer.txt"

# The committed binary cell's base_seed; a different seed replaces it.
DEFAULT_SEED = 101
SETUP_REPS = 3

BINARY_CONFIG = ROOT / "results" / "acceptance" / "configs" / "binary_onset_small.json"
BINARY_STORE = ROOT / "results" / "acceptance" / "binary.csv"
BINARY_WORKERS = 2

WO_N_TRAIN = 1000
WO_EXCEPTION_PROP = 0.1
WO_POOL_PAIRS = 400  # cycled if a run scores more
WO_PAIRS_PER_CALL = 8  # about 500 PLL rows: two 256-row chunks
WO_SLICE = 250  # training sentences per op: 16 batches of at most 16
GRAD_PROBE_ROWS = 16  # one training batch


@dataclass
class Run:
    op_seconds: list[float] = field(default_factory=list)
    op_work: list[float] = field(default_factory=list)  # units of work per timed op
    setup_seconds: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    layer: dict[str, float] = field(default_factory=dict)  # per-layer values known here

    @property
    def ops(self) -> int:
        return len(self.op_seconds)

    @property
    def work_per_s(self) -> float:
        """Work done by the timed ops per second of their wall time."""
        return sum(self.op_work) / sum(self.op_seconds) if self.ops else 0.0

    def fail(self, count: int, why: str) -> None:
        if count:
            self.failed += count
            self.problems.append(why)


def page_faults() -> int:
    """Minor page faults of this process and its finished children so far."""
    return sum(
        resource.getrusage(who).ru_minflt for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )


def _timed_setup(run: Run, make):
    out = None
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        out = make()
        run.setup_seconds.append(time.perf_counter() - t)
    return out


def _lengths(tok, pairs) -> tuple[list[int], list[int]]:
    """Encoded lengths of the rule and foil members."""
    return [len(bpe.encode(tok, r.text)) for r, _ in pairs], [len(bpe.encode(tok, f.text)) for _, f in pairs]


def pll_positions(tok, pairs) -> int:
    """Token positions PLL scores: a sentence of length L gives L copies of L tokens."""
    rule, foil = _lengths(tok, pairs)
    return sum(n * n for n in rule + foil)


def _record_lengths(run: Run, tok, pairs) -> None:
    rule, foil = _lengths(tok, pairs)
    run.layer["bpe.rule_len"] = statistics.fmean(rule)
    run.layer["bpe.foil_len"] = statistics.fmean(foil)


# ---------------------------------------------------------------------------
# word order: shared inputs and the fixed-input probes that carry references
# ---------------------------------------------------------------------------


def word_order_inputs(seed: int, n_pairs: int, tok=None):
    """Vocabulary, corpus, pairs, tokenizer and initial model for a seed.

    Mirrors a sweep cell's order: the tokenizer trains on the vocabulary
    listing plus the corpus.  A given tokenizer skips BPE training.
    """
    vocab = corpora.gen_vocabulary(
        sweep.EXP1_VOCAB_WORDS, *sweep.WORD_LEN_RANGE, seed=stable_seed(seed, "vocab")
    )
    corpus = corpora.gen_exp1_corpus(
        vocab, WO_N_TRAIN, WO_EXCEPTION_PROP, seed=stable_seed(seed, "corpus")
    )
    pairs = corpora.gen_exp1_test_pairs(vocab, n_pairs, seed=stable_seed(seed, "pairs"))
    if tok is None:
        tok = bpe.train_tokenizer(
            ["".join(w + "\n" for w in vocab.words), corpus.to_text()],
            sweep.TARGET_VOCAB[corpora.WORD_ORDER],
        )
    state = model.init_model(model.ModelConfig(vocab_size=tok.vocab_size), seed=stable_seed(seed, "init"))
    return corpus, pairs, tok, state


def train_config(seed: int, epoch: int) -> model.TrainConfig:
    return model.TrainConfig(epochs=1, seed=stable_seed(seed, "train", epoch))


def _probe_inputs():
    """The default seed's inputs, with the stored tokenizer in place of BPE."""
    return word_order_inputs(DEFAULT_SEED, WO_POOL_PAIRS, tok=bpe.load_tokenizer(PROBE_TOKENIZER))


def probe_pll_scores() -> list[list[float]]:
    """Scores of the default seed's first timed op: about 500 rows, two chunks."""
    _, pairs, tok, state = _probe_inputs()
    batch = corpora.MinimalPairSet(pairs.pairs[:WO_PAIRS_PER_CALL], corpora.WORD_ORDER)
    return [list(p) for p in scoring.evaluate_pairs(state, tok, batch).per_pair_scores]


def probe_training() -> dict:
    """Gradient norms of one fixed batch, then the losses of the default seed's first timed op."""
    corpus, _, tok, state = _probe_inputs()
    rng = make_rng(DEFAULT_SEED)
    seqs = [np.asarray(bpe.encode(tok, s.text)) for s in corpus.sentences[:GRAD_PROBE_ROWS]]
    width = max(len(seq) for seq in seqs)
    ids = np.full((len(seqs), width), tok.pad_id)
    labels = np.full((len(seqs), width), model.IGNORE_INDEX)
    mask = np.zeros((len(seqs), width), dtype=bool)
    for row, seq in enumerate(seqs):
        ids[row, : len(seq)], labels[row, : len(seq)] = model.apply_masking(seq, 0.15, rng, tok.mask_id)
        mask[row, : len(seq)] = True
    _, grads, _ = model.loss_and_grads(state, ids, mask, labels)
    first = dataclasses.replace(corpus, sentences=corpus.sentences[:WO_SLICE])
    training.train(state, first, tok, train_config(DEFAULT_SEED, 0))
    return {
        "grad_norms": {name: float(np.linalg.norm(g)) for name, g in grads.items()},
        "losses": list(state.loss_history),
    }


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def word_order_train(seed: int, seconds: float, reference: dict, after_timing) -> Run:
    """One train() call per op: an epoch over a 250-sentence slice, 16 steps."""
    run = Run()
    corpus, pairs, tok, state = _timed_setup(run, lambda: word_order_inputs(seed, WO_POOL_PAIRS))
    n_slices = len(corpus.sentences) // WO_SLICE
    faults = page_faults()
    start = time.perf_counter()
    while run.ops == 0 or time.perf_counter() - start < seconds:
        first = (run.ops % n_slices) * WO_SLICE
        part = dataclasses.replace(corpus, sentences=corpus.sentences[first : first + WO_SLICE])
        before = len(state.loss_history)
        run.attempted += 1
        t = time.perf_counter()
        try:
            training.train(state, part, tok, train_config(seed, run.ops))
        except RuntimeError as exc:  # non-finite loss
            run.fail(1, f"training: {exc}")
            break
        run.op_seconds.append(time.perf_counter() - t)
        run.op_work.append(len(state.loss_history) - before)
    after_timing()
    run.layer["memory.page_faults"] = (page_faults() - faults) / max(run.ops, 1)

    _record_lengths(run, tok, pairs.pairs)
    probe = probe_training()
    run.attempted += 1
    bad = checks.bad_losses(probe["losses"], reference["losses"])
    bad_grads = checks.bad_grad_norms(probe["grad_norms"], reference["grad_norms"])
    run.fail(1 if bad or bad_grads else 0, f"probe drifted: losses at steps {bad}, gradients {bad_grads}")
    return run


def word_order_pll(seed: int, seconds: float, reference: dict, after_timing) -> Run:
    """One evaluate_pairs call per op, on the next slice of the pair pool."""
    run = Run()
    _, pairs, tok, state = _timed_setup(run, lambda: word_order_inputs(seed, WO_POOL_PAIRS))
    pool = pairs.pairs
    batches, scored = [], []
    faults = page_faults()
    start = time.perf_counter()
    while run.ops == 0 or time.perf_counter() - start < seconds:
        first = (run.ops * WO_PAIRS_PER_CALL) % len(pool)
        batch = pool[first : first + WO_PAIRS_PER_CALL]
        t = time.perf_counter()
        report = scoring.evaluate_pairs(state, tok, corpora.MinimalPairSet(batch, corpora.WORD_ORDER))
        run.op_seconds.append(time.perf_counter() - t)
        batches.append(batch)
        scored += report.per_pair_scores
    after_timing()
    run.layer["memory.page_faults"] = (page_faults() - faults) / max(run.ops, 1)

    run.op_work = [pll_positions(tok, batch) for batch in batches]
    _record_lengths(run, tok, [p for batch in batches for p in batch])
    run.attempted += len(scored)
    bad = checks.implausible_pair_scores(scored)
    run.fail(len(bad), f"pairs {bad[:10]} scored non-finite or non-positive")

    probe = probe_pll_scores()
    run.attempted += len(probe)
    bad = checks.bad_pair_scores(probe, reference["pll_scores"])
    run.fail(len(bad), f"probe pairs {bad} left the reference PLL scores")
    return run


def binary_cell(seed: int, seconds: float, scratch: Path, after_timing) -> Run:
    """One run_sweep per op on the committed n=50 binary cell, base_seed = seed."""
    run = Run()

    def setup():
        return dataclasses.replace(sweep.load_sweep_config(BINARY_CONFIG), base_seed=seed)

    cfg = _timed_setup(run, setup)
    rows = []
    cell_ok = []  # per op: the cell ran and appended its row
    faults = page_faults()
    start = time.perf_counter()
    while run.ops == 0 or time.perf_counter() - start < seconds:
        store = scratch / f"cell{run.ops}.csv"
        t = time.perf_counter()
        _, _, failures = sweep.run_sweep(cfg, store, workers=BINARY_WORKERS)
        run.op_seconds.append(time.perf_counter() - t)
        written = sweep.load_results(store) if store.exists() else []
        run.attempted += cfg.replicates
        cell_ok.append(bool(written) and not failures)
        if cell_ok[-1]:
            rows += written
        else:
            run.fail(cfg.replicates, f"cell {run.ops - 1} failed or wrote no row: {failures}")
    after_timing()
    run.layer["memory.page_faults"] = (page_faults() - faults) / max(run.ops, 1)

    # Regenerate the cell's inputs to size its work and check its row.
    job = sweep.expand_grid(cfg)[0]
    derived = sweep.derived_seeds(cfg, job)
    corpus = corpora.gen_exp2_corpus(
        job.n_train, job.exception_prop, string_len=sweep.STRING_LEN, seed=derived["corpus_seed"]
    )
    pairs = corpora.gen_exp2_test_pairs(cfg.n_test_pairs, string_len=sweep.STRING_LEN, seed=derived["pairs_seed"])
    tok = bpe.train_tokenizer([corpus.to_text()], sweep.TARGET_VOCAB[corpora.BINARY])
    run.op_work = [cfg.replicates * pll_positions(tok, pairs.pairs) * ok for ok in cell_ok]
    _record_lengths(run, tok, pairs.pairs)

    committed = None
    if seed == DEFAULT_SEED:
        committed = next(
            r for r in sweep.load_results(BINARY_STORE)
            if (r["n_train"], r["exception_prop"], r["epochs"]) == (job.n_train, job.exception_prop, job.epochs)
        )
    identical = 0
    for row in rows:
        if committed is not None:
            bad = checks.bad_replicates(row, committed)
            identical += checks.row_identical(row, committed)
            why = f"replicates {bad} differ from the committed row: {row['accuracies']}"
        else:
            seeds = tuple(j.init_seed for j in sweep.expand_grid(cfg))
            corpus_hash = sha256_bytes(corpus.to_text().encode("utf-8"))
            bad = checks.bad_row_invariants(row, cfg.n_test_pairs, seeds, corpus_hash)
            why = f"replicates {bad} break row invariants: {row}"
        run.fail(len(bad), why)
    run.layer["sweep.row_identical"] = identical
    return run
