"""Experiment sweeps: grid expansion, the per-cell pipeline, persistence.

A sweep walks the grid (training size x exception proportion x epoch
setting), and for each cell generates a corpus and test pairs, trains a
tokenizer on the cell's text, trains one model per replicate (replicates
differ only in their weight-initialization seed), evaluates on minimal
pairs, and appends one aggregated row to an append-only CSV store.
The cell's data, tokenizer, input files and replicate models come from
cell_data, cell_tokenizer, write_cell_inputs and train_replicate, which
`quantal gen` and `quantal train` call too.

Every replicate runs through one task, _replicate_task: serially,
run_cell calls it for each replicate in turn; with a process pool, each
replicate is one pool task.  Either way one row builder, _cell_result,
turns a cell's replicate returns into its row, and rows are appended in
grid order, so a pooled store equals a serial one apart from
wall_seconds.  A cell's inputs (data and tokenizer) are a pure function
of the config and the cell's size and proportion, so each process caches
the last ones it built: the replicates and epoch settings of a (size,
proportion) that one process runs in a row share one build.

An epoch setting of 0 makes an untrained baseline cell: the same corpus,
tokenizer, test pairs and scoring path as its trained neighbours, with
the optimizer never run.  Its replicate seeds come from the cell's
coordinates (not its index in the grid), so an untrained init never
shares weights with the starting point of a trained replicate.
"""

from __future__ import annotations

import csv
import fcntl
import functools
import itertools
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import blas, bpe, corpora
from .checkpoint import save_checkpoint, state_digest
from .corpora import BINARY, EXPERIMENTS, WORD_ORDER
from .model import ModelConfig, TrainConfig, init_model
from .scoring import evaluate_pairs
from .tp import above_chance_test
from .training import train
from .util import finite, stable_seed, whole


def _listed(fmt, parse):
    """(format, parse) of a tuple column stored as ';'-separated items."""
    return (lambda items: ";".join(map(fmt, items)), lambda text: tuple(map(parse, text.split(";"))))


# The store format, defined once: (column, format, parse) in file order.
COLUMNS = (
    ("experiment", str, str),
    ("n_train", str, int),
    ("exception_prop", repr, float),
    ("epochs", str, int),
    ("replicates", str, int),
    ("seeds", *_listed(str, int)),
    ("accuracies", *_listed(repr, float)),
    ("mean_accuracy", repr, float),
    ("n_types", str, int),
    ("above_chance_p", repr, float),
    ("n_test_pairs", str, int),
    ("corpus_hash", str, str),
    ("wall_seconds", "{:.3f}".format, float),
)
COLUMN_NAMES = [name for name, _, _ in COLUMNS]
# wall_seconds is the time from the start of the cell's first replicate task
# to the end of its last, on the system-wide monotonic clock, whether the
# replicates ran in turn or in parallel pool workers.  It includes building
# the cell's inputs only where that task's process had not built them
# already.  It is the only column allowed to differ between identical runs.
TIMING_COLUMNS = ("wall_seconds",)
# The columns that make two rows the same cell for --reuse.  The seeds hash
# base_seed and the replicate count.
KEY_COLUMNS = ("experiment", "n_train", "exception_prop", "epochs", "seeds", "n_test_pairs")

CONFIG_FORMAT = "quantal-sweep v2"
MANIFEST_FORMAT = "quantal-manifest v2"

EXP1_VOCAB_WORDS = 10_000
WORD_LEN_RANGE = (3, 13)
STRING_LEN = 16
TARGET_VOCAB = {WORD_ORDER: 4096, BINARY: 32}

DEFAULT_EPOCHS = (4, 10)
DEFAULT_SIZES = {
    WORD_ORDER: (1000, 2000, 4000, 6000, 8000, 10000),
    BINARY: (100, 200, 300, 400, 500),
}
DEFAULT_PROPORTIONS = {
    WORD_ORDER: (0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30),
    BINARY: (0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
}
DEFAULT_REPLICATES = {WORD_ORDER: 1, BINARY: 3}


@dataclass(frozen=True)
class SweepConfig:
    experiment: str
    sizes: tuple[int, ...]
    proportions: tuple[float, ...]
    epoch_settings: tuple[int, ...]
    replicates: int
    base_seed: int
    n_test_pairs: int = 1000

    def __post_init__(self):
        # Seeds hash repr(prop) and str(n), so 0 and 0.0 (or 6 and 6.0) would
        # derive different data for what --reuse reads back as one cell: an
        # integral float is stored as its int, and 1.5 is refused rather than
        # hashed as "1.5".  int(v) == v compares the value itself, so a 64-bit
        # base_seed never passes through float().
        def integral(name, v, minimum):
            return whole(name, int(v) if int(finite(name, v)) == v else v, minimum)

        object.__setattr__(self, "proportions", tuple(float(finite("proportions", p)) for p in self.proportions))
        # epoch setting 0 is an untrained baseline
        for name, minimum in (("sizes", 1), ("epoch_settings", 0)):
            object.__setattr__(self, name, tuple(integral(name, v, minimum) for v in getattr(self, name)))
        for name, minimum in (("replicates", 1), ("base_seed", 0), ("n_test_pairs", 1)):
            object.__setattr__(self, name, integral(name, getattr(self, name), minimum))
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        for name in ("sizes", "proportions", "epoch_settings"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be nonempty")
        if any(not 0.0 <= p <= 1.0 for p in self.proportions):
            raise ValueError("proportions must lie in [0, 1]")


def default_config(experiment: str, base_seed: int, **overrides) -> SweepConfig:
    """Full default grid for one experiment; keyword overrides welcome."""
    fields = dict(
        experiment=experiment,
        sizes=DEFAULT_SIZES[experiment],
        proportions=DEFAULT_PROPORTIONS[experiment],
        epoch_settings=DEFAULT_EPOCHS,
        replicates=DEFAULT_REPLICATES[experiment],
        base_seed=base_seed,
    )
    fields.update(overrides)
    return SweepConfig(**fields)


@dataclass(frozen=True)
class CellJob:
    """One replicate of one grid cell."""

    experiment: str
    n_train: int
    exception_prop: float
    epochs: int
    cell_index: int
    replicate_index: int
    init_seed: int


@dataclass(frozen=True)
class SweepCellResult:
    experiment: str
    n_train: int
    exception_prop: float
    epochs: int
    seeds: tuple[int, ...]
    accuracies: tuple[float, ...]
    mean_accuracy: float
    n_types: int
    above_chance_p: float
    n_test_pairs: int
    corpus_hash: str
    tokenizer_hash: str
    checkpoint_hashes: tuple[str, ...]
    wall_seconds: float

    def __post_init__(self):
        if not len(self.seeds) == len(self.accuracies) == len(self.checkpoint_hashes):
            raise ValueError("per-replicate fields must have equal length")
        if abs(self.mean_accuracy - float(np.mean(self.accuracies))) > 1e-12:
            raise ValueError("mean_accuracy is not the mean of accuracies")

    @property
    def replicates(self) -> int:
        return len(self.seeds)


def expand_grid(cfg: SweepConfig) -> list[CellJob]:
    """One job per (cell, replicate), with seeds stable across runs.

    Cells enumerate sizes, then proportions, then epoch settings.  A
    trained replicate's seed is a hash of (base_seed, cell index,
    replicate index).  An untrained (0-epoch) replicate's seed hashes the
    cell's coordinates under an "untrained" tag instead: cell indices
    repeat across configs, so index-derived seeds would hand the baseline
    the exact initial weights of trained replicates elsewhere.
    """
    jobs = []
    cell_index = 0
    for n_train in cfg.sizes:
        for prop in cfg.proportions:
            for epochs in cfg.epoch_settings:
                for r in range(cfg.replicates):
                    if epochs == 0:
                        init_seed = stable_seed(
                            cfg.base_seed, "untrained", cfg.experiment, n_train, repr(prop), r
                        )
                    else:
                        init_seed = stable_seed(cfg.base_seed, cell_index, r)
                    jobs.append(
                        CellJob(
                            experiment=cfg.experiment,
                            n_train=n_train,
                            exception_prop=prop,
                            epochs=epochs,
                            cell_index=cell_index,
                            replicate_index=r,
                            init_seed=init_seed,
                        )
                    )
                cell_index += 1
    return jobs


def _data_seeds(base_seed: int, experiment: str, n_train: int, prop: float) -> dict[str, int]:
    tag = (experiment, n_train, repr(prop))
    return {f"{kind}_seed": stable_seed(base_seed, kind, *tag) for kind in ("vocab", "corpus", "pairs")}


def derived_seeds(cfg: SweepConfig, job: CellJob) -> dict[str, int]:
    """Non-replicate seeds for a cell.

    The corpus, vocabulary, and test-pair seeds ignore the epoch setting
    on purpose: the 4- and 10-epoch cells for a (size, proportion) train
    on the same data and evaluate on the same pairs.  The shuffle/mask
    stream is shared across replicates so that replicates differ only in
    their initial weights.
    """
    return {
        **_data_seeds(cfg.base_seed, cfg.experiment, job.n_train, job.exception_prop),
        "train_seed": stable_seed(cfg.base_seed, "train", job.cell_index),
    }


def cell_data(experiment: str, base_seed: int, n_train: int, prop: float, n_test_pairs: int):
    """(vocabulary or None, corpus, test pairs) of one cell.

    The same arguments give the same data whether a sweep or `quantal gen`
    asks; only word order has a vocabulary.
    """
    seeds = _data_seeds(base_seed, experiment, n_train, prop)
    if experiment == WORD_ORDER:
        vocab = corpora.gen_vocabulary(EXP1_VOCAB_WORDS, *WORD_LEN_RANGE, seed=seeds["vocab_seed"])
        corpus = corpora.gen_exp1_corpus(vocab, n_train, prop, seed=seeds["corpus_seed"])
        pairs = corpora.gen_exp1_test_pairs(vocab, n_test_pairs, seed=seeds["pairs_seed"])
        return vocab, corpus, pairs
    corpus = corpora.gen_exp2_corpus(n_train, prop, string_len=STRING_LEN, seed=seeds["corpus_seed"])
    pairs = corpora.gen_exp2_test_pairs(n_test_pairs, string_len=STRING_LEN, seed=seeds["pairs_seed"])
    return None, corpus, pairs


def cell_tokenizer(experiment: str, corpus, vocab=None) -> bpe.TokenizerModel:
    """BPE trained on the vocabulary listing (if any), then the corpus."""
    texts = [corpus.to_text()] if vocab is None else [vocab.to_text(), corpus.to_text()]
    return bpe.train_tokenizer(texts, TARGET_VOCAB[experiment])


def write_cell_inputs(out_dir: str | Path, vocab, corpus, pairs) -> dict[str, str]:
    """Write a cell's vocabulary (word order only), corpus and test pairs.

    Returns the written file names keyed by kind.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = {}
    if vocab is not None:
        corpora.write_vocabulary(vocab, out_dir / "vocabulary.txt")
        written["vocabulary"] = "vocabulary.txt"
    corpora.write_corpus(corpus, out_dir / "corpus.txt")
    corpora.write_pairs(pairs, out_dir / "pairs.tsv")
    written["corpus"] = "corpus.txt"
    written["pairs"] = "pairs.tsv"
    return written


def train_replicate(tok: bpe.TokenizerModel, corpus, init_seed: int, epochs: int, train_seed: int):
    """(state, train config) of one replicate: a model initialized from
    init_seed, then trained for epochs passes on the train_seed stream.

    0 epochs leaves the model untrained, and the train config is None.
    """
    state = init_model(ModelConfig(vocab_size=tok.vocab_size), seed=init_seed)
    train_config = TrainConfig(epochs=epochs, seed=train_seed) if epochs else None
    if train_config is not None:
        # looked up in this module, where perfbench's tracer wraps it
        train(state, corpus, tok, train_config)
    return state, train_config


def _cell_coords(cfg: SweepConfig, jobs: list[CellJob]) -> dict:
    """The KEY_COLUMNS values of a cell, known before it runs."""
    job = jobs[0]
    return {
        "experiment": cfg.experiment,
        "n_train": job.n_train,
        "exception_prop": job.exception_prop,
        "epochs": job.epochs,
        "seeds": tuple(j.init_seed for j in jobs),
        "n_test_pairs": cfg.n_test_pairs,
    }


def _cell_key(row: dict) -> tuple:
    return tuple(row[name] for name in KEY_COLUMNS)


def _label(coords: dict) -> str:
    return (
        f"{coords['experiment']} n={coords['n_train']} "
        f"prop={coords['exception_prop']} epochs={coords['epochs']}"
    )


def _cell_stem(job: CellJob) -> str:
    return f"{job.experiment}_n{job.n_train}_p{job.exception_prop}_e{job.epochs}"


@functools.lru_cache(maxsize=1, typed=True)
def _cell_inputs(experiment: str, base_seed: int, n_train: int, prop: float, n_test_pairs: int):
    """(vocabulary or None, corpus, test pairs, tokenizer) of one cell.

    Cached on cell_data's own arguments, which decide all four: a process
    builds them once for all the replicates and epoch settings of a (size,
    proportion) it runs in a row.  typed=True keeps 0 and 0.0 apart, which
    the data seeds (hashing repr(prop)) do too.
    """
    vocab, corpus, pairs = cell_data(experiment, base_seed, n_train, prop, n_test_pairs)
    return vocab, corpus, pairs, cell_tokenizer(experiment, corpus, vocab)


def _replicate_task(cfg: SweepConfig, job: CellJob, artifacts_dir):
    """One replicate of job's cell, trained unless 0 epochs, then scored.

    With artifacts_dir set, replicate 0 writes the cell's input files (those
    `quantal gen` writes), and each replicate its checkpoint (which embeds
    the tokenizer) as replicate{r}.ckpt; the model is freed on return.
    Returns (started, finished, input facts, accuracy, checkpoint hash).
    """
    # A module-level function, which looks the replicate's steps up only
    # when it is called: perfbench's tracer (perfbench/spans.py) replaces
    # train, evaluate_pairs and state_digest with closures, which cannot be
    # pickled but which forked workers inherit.
    started = time.monotonic()
    vocab, corpus, pairs, tok = _cell_inputs(
        cfg.experiment, cfg.base_seed, job.n_train, job.exception_prop, cfg.n_test_pairs
    )
    cell_dir = None if artifacts_dir is None else Path(artifacts_dir) / _cell_stem(job)
    if cell_dir is not None and job.replicate_index == 0:
        write_cell_inputs(cell_dir, vocab, corpus, pairs)
    state, train_config = train_replicate(
        tok, corpus, job.init_seed, job.epochs, derived_seeds(cfg, job)["train_seed"]
    )
    report = evaluate_pairs(state, tok, pairs)
    if cell_dir is not None:
        cell_dir.mkdir(parents=True, exist_ok=True)  # replicate 0 may not have written the inputs yet
        save_checkpoint(
            state, cell_dir / f"replicate{job.replicate_index}.ckpt", tok, cfg.experiment,
            train_config=train_config,
        )
    facts = {
        "n_types": corpus.n_types,
        "corpus_hash": corpora.corpus_sha256(corpus),
        "tokenizer_hash": bpe.tokenizer_sha256(tok),
    }
    return started, time.monotonic(), facts, report.accuracy, state_digest(state)


def _cell_result(cfg: SweepConfig, jobs, replicates, artifacts_dir) -> SweepCellResult:
    """A cell's row from its replicate tasks' returns in replicate order;
    with artifacts_dir set, its manifest is written too."""
    started, finished, facts, accuracies, digests = zip(*replicates)
    mean_accuracy = float(np.mean(accuracies))
    result = SweepCellResult(
        **_cell_coords(cfg, jobs),
        **facts[0],
        accuracies=accuracies,
        mean_accuracy=mean_accuracy,
        above_chance_p=above_chance_test(mean_accuracy * cfg.n_test_pairs, cfg.n_test_pairs),
        checkpoint_hashes=digests,
        wall_seconds=max(finished) - min(started),
    )
    if artifacts_dir is not None:
        write_manifest(
            Path(artifacts_dir) / _cell_stem(jobs[0]) / "manifest.json", cfg, result, derived_seeds(cfg, jobs[0])
        )
    return result


def run_cell(
    cfg: SweepConfig, jobs: list[CellJob], artifacts_dir: str | Path | None = None
) -> SweepCellResult:
    """Run a cell's replicate tasks in turn and aggregate them into its row.

    The serial path of run_sweep; a process pool runs the same task per
    replicate.  A 0-epoch cell skips training and scores the freshly
    initialized models.  With artifacts_dir set, the cell's input files,
    a checkpoint per replicate and finally the manifest are written there;
    hashes are recorded either way.  Only one replicate's model is held in
    memory at a time.
    """
    if not jobs:
        raise ValueError("run_cell needs at least one job")
    if len({j.cell_index for j in jobs}) != 1:
        raise ValueError("jobs must all belong to one cell")
    jobs = sorted(jobs, key=lambda j: j.replicate_index)
    return _cell_result(cfg, jobs, [_replicate_task(cfg, job, artifacts_dir) for job in jobs], artifacts_dir)


def write_manifest(path: str | Path, cfg: SweepConfig, result: SweepCellResult, seeds) -> None:
    """Config snapshot plus every seed and hash needed for exact replay."""
    payload = {
        "format": MANIFEST_FORMAT,
        "config": asdict(cfg),
        "cell": asdict(result),
        "derived_seeds": dict(seeds),
    }
    Path(path).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def append_result(store: str | Path, result: SweepCellResult) -> None:
    """Append one row under an exclusive lock, writing the header first.

    Concurrent appends from separate processes serialize on the lock, so
    rows never interleave.
    """
    fields = [fmt(getattr(result, name)) for name, fmt, _ in COLUMNS]
    with open(store, "a+", encoding="utf-8", newline="") as f:
        fcntl.flock(f.fileno(), fcntl.LOCK_EX)
        try:
            f.seek(0)
            header = next(csv.reader(f), None)
            if header is not None and header != COLUMN_NAMES:
                raise ValueError(f"store has a different schema: {store}")
            f.seek(0, 2)
            writer = csv.writer(f, lineterminator="\n")
            if f.tell() == 0:
                writer.writerow(COLUMN_NAMES)
            writer.writerow(fields)
            f.flush()
        finally:
            fcntl.flock(f.fileno(), fcntl.LOCK_UN)


def load_results(store: str | Path) -> list[dict]:
    """Rows parsed back to numbers and tuples; missing store = empty table."""
    path = Path(store)
    if not path.exists():
        return []
    with open(path, encoding="utf-8", newline="") as f:
        lines = list(csv.reader(f))
    if not lines:
        return []
    if lines[0] != COLUMN_NAMES:
        raise ValueError(f"store has a different schema: {store}")
    rows = []
    for fields in lines[1:]:
        if len(fields) != len(COLUMNS):
            raise ValueError(f"malformed row: {fields!r}")
        rows.append({name: parse(text) for (name, _, parse), text in zip(COLUMNS, fields)})
    return rows


def require_one_kind(rows: list[dict], where: str) -> None:
    """Refuse rows that mix experiments.

    A column or a figure compares cells of one measurement; a store may
    hold several.
    """
    kinds = sorted({row["experiment"] for row in rows})
    if len(kinds) > 1:
        raise ValueError(f"rows at {where} mix experiment values {kinds}")


def column_slice(table: list[dict], n_train: int, epochs: int) -> list[tuple[float, float]]:
    """(exception_prop, mean_accuracy) points at fixed size and epochs.

    Sorted by proportion; repeated proportions (re-runs) are all kept,
    which downstream analysis treats as replicate measurements.  Rows of
    different experiments are refused.
    """
    rows = [row for row in table if row["n_train"] == n_train and row["epochs"] == epochs]
    if not rows:
        raise ValueError(f"no rows at n_train={n_train}, epochs={epochs}")
    require_one_kind(rows, f"n_train={n_train}, epochs={epochs}")
    return sorted((row["exception_prop"], row["mean_accuracy"]) for row in rows)


def save_sweep_config(cfg: SweepConfig, path: str | Path) -> None:
    payload = {"format": CONFIG_FORMAT, **asdict(cfg)}
    Path(path).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def load_sweep_config(path: str | Path) -> SweepConfig:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or payload.pop("format", None) != CONFIG_FORMAT:
        raise ValueError(f"not a {CONFIG_FORMAT!r} file: {path}")
    try:
        return SweepConfig(**payload)
    except TypeError as exc:  # an unknown or missing key
        raise ValueError(f"bad sweep config {path}: {exc}") from None


def run_sweep(
    cfg: SweepConfig,
    store: str | Path,
    artifacts_dir: str | Path | None = None,
    workers: int = 1,
    reuse: bool = False,
    log=None,
):
    """Run every cell of the grid, appending each cell's row in grid order.

    With workers > 1, each replicate is a task of a process pool of at
    most that many workers, and a cell's row is written once all of its
    replicates have returned.  Cells are independent: one failure (of any
    of its replicates) is recorded for the cell and the rest proceed.
    With reuse=True, cells whose KEY_COLUMNS already appear in the store
    are skipped, which makes interrupted sweeps resumable.  The store is
    read before any cell runs, so one of another schema is refused up
    front rather than after every cell has trained.  Returns
    (results, skipped, failures); failures hold (cell label, error text).
    """
    stored = load_results(store)
    done = {_cell_key(row) for row in stored} if reuse else set()
    results, skipped, failures = [], [], []
    cells = []
    for _, group in itertools.groupby(expand_grid(cfg), key=lambda j: j.cell_index):
        jobs = list(group)
        coords = _cell_coords(cfg, jobs)
        if _cell_key(coords) in done:
            skipped.append(_label(coords))
            if log:
                log(f"skip {_label(coords)} (already in store)")
        else:
            cells.append((coords, jobs))
    # A task is one replicate.  The pool forks all its workers at once, so it
    # gets no more than there are tasks.  Each worker runs one BLAS thread:
    # workers that each bring a pool of one thread per core oversubscribe
    # the cores.
    workers = min(workers, sum(len(jobs) for _, jobs in cells))
    pool = ProcessPoolExecutor(max_workers=workers, initializer=blas.pin_one_thread) if workers > 1 else None
    try:
        # A pool is handed every replicate at once; serially, each cell runs
        # when the loop below reaches it.  Either way rows land in grid order.
        submitted = [
            None if pool is None else [pool.submit(_replicate_task, cfg, job, artifacts_dir) for job in jobs]
            for _, jobs in cells
        ]
        for (coords, jobs), futures in zip(cells, submitted):
            try:
                if futures is None:
                    result = run_cell(cfg, jobs, artifacts_dir)
                else:
                    result = _cell_result(cfg, jobs, [future.result() for future in futures], artifacts_dir)
                append_result(store, result)
            except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
                failures.append((_label(coords), repr(exc)))
                if log:
                    log(f"FAILED {_label(coords)}: {exc!r}")
                continue
            results.append(result)
            if log:
                log(
                    f"done {_label(coords)}: mean accuracy {result.mean_accuracy:.3f} "
                    f"(p={result.above_chance_p:.3g}, {result.wall_seconds:.0f}s)"
                )
    finally:
        if pool is not None:
            # Every future is done unless an exception (an interrupt, say) left
            # the loop early: then the replicates still queued are dropped
            # rather than run.  Rows already written stay, and --reuse resumes.
            pool.shutdown(cancel_futures=True)
    return results, skipped, failures
