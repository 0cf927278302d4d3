"""Experiment sweeps: grid expansion, the per-cell pipeline, persistence.

A sweep walks the grid (training size x exception proportion x epoch
setting), and for each cell generates a corpus and test pairs, trains a
tokenizer on the cell's text, trains one model per replicate (replicates
differ only in their weight-initialization seed), evaluates on minimal
pairs, and appends one aggregated row to an append-only CSV store.
The cell's data and tokenizer come from cell_data and cell_tokenizer,
which `quantal gen` and `quantal train` call too.

An epoch setting of 0 makes an untrained baseline cell: the same corpus,
tokenizer, test pairs and scoring path as its trained neighbours, with
the optimizer never run.  Its replicate seeds come from the cell's
coordinates (not its index in the grid), so an untrained init never
shares weights with the starting point of a trained replicate.
"""

from __future__ import annotations

import contextlib
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

from . import bpe, corpora
from .checkpoint import save_checkpoint, state_digest
from .corpora import BINARY, WORD_ORDER
from .model import ModelConfig, TrainConfig, init_model
from .scoring import MODES, PLL, evaluate_pairs
from .tp import above_chance_test
from .training import train
from .util import sha256_bytes, stable_seed


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
    ("surprisal_mode", str, str),
    ("corpus_hash", str, str),
    ("wall_seconds", "{:.3f}".format, float),
)
COLUMN_NAMES = [name for name, _, _ in COLUMNS]
CSV_HEADER = ",".join(COLUMN_NAMES)
# wall_seconds is the only column allowed to differ between identical runs
TIMING_COLUMNS = ("wall_seconds",)
# The columns that make two rows the same cell for --reuse.  The seeds hash
# base_seed and the replicate count.  n_test_pairs has no column, so two
# cells that differ only in it are still confused.
KEY_COLUMNS = ("experiment", "n_train", "exception_prop", "epochs", "seeds", "surprisal_mode")

CONFIG_FORMAT = "quantal-sweep v1"
MANIFEST_FORMAT = "quantal-manifest v1"

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
    surprisal_mode: str = PLL

    def __post_init__(self):
        # Seeds hash repr(prop) and str(n), so 0 and 0.0 (or 6 and 6.0) would
        # derive different data for what --reuse reads back as one cell.
        object.__setattr__(self, "proportions", tuple(float(p) for p in self.proportions))
        for name in ("sizes", "epoch_settings"):
            values = tuple(getattr(self, name))
            if any(int(v) != v for v in values):
                raise ValueError(f"{name} must be integers, got {values}")
            object.__setattr__(self, name, tuple(int(v) for v in values))
        if self.experiment not in (WORD_ORDER, BINARY):
            raise ValueError(f"unknown experiment {self.experiment!r}")
        for name in ("sizes", "proportions", "epoch_settings"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be nonempty")
        if any(n < 1 for n in self.sizes):
            raise ValueError("sizes must be >= 1")
        if any(not 0.0 <= p <= 1.0 for p in self.proportions):
            raise ValueError("proportions must lie in [0, 1]")
        if any(e < 0 for e in self.epoch_settings):
            raise ValueError("epoch_settings must be >= 0 (0 = untrained)")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.base_seed < 0:
            raise ValueError("base_seed must be unsigned")
        if self.n_test_pairs < 1:
            raise ValueError("n_test_pairs must be >= 1")
        if self.surprisal_mode not in MODES:
            raise ValueError(f"surprisal_mode must be one of {MODES}")


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
    surprisal_mode: str
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
    if not jobs:
        raise ValueError("grid expansion produced no jobs")
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


def _cell_coords(cfg: SweepConfig, jobs: list[CellJob]) -> dict:
    """The KEY_COLUMNS values of a cell, known before it runs."""
    job = jobs[0]
    return {
        "experiment": cfg.experiment,
        "n_train": job.n_train,
        "exception_prop": job.exception_prop,
        "epochs": job.epochs,
        "seeds": tuple(j.init_seed for j in jobs),
        "surprisal_mode": cfg.surprisal_mode,
    }


def _cell_key(row: dict) -> tuple:
    return tuple(row[name] for name in KEY_COLUMNS)


def _label(coords: dict) -> str:
    return (
        f"{coords['experiment']} n={coords['n_train']} "
        f"prop={coords['exception_prop']} epochs={coords['epochs']}"
    )


def _cell_stem(coords: dict) -> str:
    return (
        f"{coords['experiment']}_n{coords['n_train']}_p{coords['exception_prop']}"
        f"_e{coords['epochs']}"
    )


def run_cell(
    cfg: SweepConfig, jobs: list[CellJob], artifacts_dir: str | Path | None = None
) -> SweepCellResult:
    """Generate, tokenize, train each replicate, evaluate, and aggregate.

    A 0-epoch cell skips training and scores the freshly initialized
    models.  With artifacts_dir set, the corpus/pairs/tokenizer files, a
    checkpoint per replicate as it finishes, and finally the manifest are
    written there; hashes are recorded either way.  Only one replicate's
    model is held in memory at a time.
    """
    if not jobs:
        raise ValueError("run_cell needs at least one job")
    if len({j.cell_index for j in jobs}) != 1:
        raise ValueError("jobs must all belong to one cell")
    t0 = time.perf_counter()
    jobs = sorted(jobs, key=lambda j: j.replicate_index)
    coords = _cell_coords(cfg, jobs)
    seeds = derived_seeds(cfg, jobs[0])
    vocab, corpus, pairs = cell_data(
        cfg.experiment, cfg.base_seed, coords["n_train"], coords["exception_prop"], cfg.n_test_pairs
    )
    tok = cell_tokenizer(cfg.experiment, corpus, vocab)
    tokenizer_hash = sha256_bytes(bpe.save_tokenizer_text(tok).encode("utf-8"))
    epochs = coords["epochs"]
    train_config = TrainConfig(epochs=epochs, seed=seeds["train_seed"]) if epochs else None
    cell_dir = None
    if artifacts_dir is not None:
        cell_dir = Path(artifacts_dir) / _cell_stem(coords)
        cell_dir.mkdir(parents=True, exist_ok=True)
        corpora.write_corpus(corpus, cell_dir / "corpus.txt")
        corpora.write_pairs(pairs, cell_dir / "pairs.tsv")
        bpe.save_tokenizer(tok, cell_dir / "tokenizer.txt")

    accuracies = []
    ckpt_hashes = []
    for r, job in enumerate(jobs):
        state = init_model(ModelConfig(vocab_size=tok.vocab_size), seed=job.init_seed)
        if train_config is not None:
            train(state, corpus, tok, train_config)
        report = evaluate_pairs(state, tok, pairs, mode=cfg.surprisal_mode)
        accuracies.append(report.accuracy)
        ckpt_hashes.append(state_digest(state))
        if cell_dir is not None:
            save_checkpoint(
                state,
                cell_dir / f"replicate{r}.ckpt",
                train_config=train_config,
                tokenizer_sha256=tokenizer_hash,
            )
        del state  # frees this replicate's weights and Adam moments before the next init

    mean_accuracy = float(np.mean(accuracies))
    result = SweepCellResult(
        **coords,
        accuracies=tuple(accuracies),
        mean_accuracy=mean_accuracy,
        n_types=corpus.n_types,
        above_chance_p=above_chance_test(
            mean_accuracy * cfg.n_test_pairs, cfg.n_test_pairs
        ),
        corpus_hash=sha256_bytes(corpus.to_text().encode("utf-8")),
        tokenizer_hash=tokenizer_hash,
        checkpoint_hashes=tuple(ckpt_hashes),
        wall_seconds=time.perf_counter() - t0,
    )
    if cell_dir is not None:
        write_manifest(cell_dir / "manifest.json", cfg, result, seeds)
    return result


def write_manifest(path: str | Path, cfg: SweepConfig, result: SweepCellResult, seeds) -> None:
    """Config snapshot plus every seed and hash needed for exact replay."""
    payload = {
        "format": MANIFEST_FORMAT,
        "config": asdict(cfg),
        "cell": asdict(result),
        "derived_seeds": dict(seeds),
    }
    Path(path).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def result_to_row(result: SweepCellResult) -> dict:
    """The CSV-visible view of a result, keyed by header column."""
    return {name: getattr(result, name) for name in COLUMN_NAMES}


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


def column_slice(table: list[dict], n_train: int, epochs: int) -> list[tuple[float, float]]:
    """(exception_prop, mean_accuracy) points at fixed size and epochs.

    Sorted by proportion; repeated proportions (re-runs) are all kept,
    which downstream analysis treats as replicate measurements.
    """
    points = [
        (row["exception_prop"], row["mean_accuracy"])
        for row in table
        if row["n_train"] == n_train and row["epochs"] == epochs
    ]
    if not points:
        raise ValueError(f"no rows at n_train={n_train}, epochs={epochs}")
    return sorted(points)


def save_sweep_config(cfg: SweepConfig, path: str | Path) -> None:
    payload = {"format": CONFIG_FORMAT, **asdict(cfg)}
    Path(path).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def load_sweep_config(path: str | Path) -> SweepConfig:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.pop("format", None) != CONFIG_FORMAT:
        raise ValueError(f"not a {CONFIG_FORMAT!r} file: {path}")
    return SweepConfig(**payload)


def _cell_task(cfg: SweepConfig, jobs: list[CellJob], artifacts_dir):
    # The pool entry is this module-level function, which looks run_cell up
    # only when it is called: perfbench's tracer (perfbench/spans.py)
    # replaces run_cell with a closure, and a closure cannot be pickled.
    return run_cell(cfg, jobs, artifacts_dir=artifacts_dir)


def run_sweep(
    cfg: SweepConfig,
    store: str | Path,
    artifacts_dir: str | Path | None = None,
    workers: int = 1,
    reuse: bool = False,
    log=None,
):
    """Run every cell of the grid, appending rows as cells finish.

    Cells are independent: one failure is recorded and the rest proceed.
    With reuse=True, cells whose KEY_COLUMNS already appear in the store
    are skipped, which makes interrupted sweeps resumable.  Returns
    (results, skipped, failures); failures hold (cell label, error text).
    """
    done = {_cell_key(row) for row in load_results(store)} if reuse else set()
    results, skipped, failures = [], [], []
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    with pool or contextlib.nullcontext():
        # A pool starts every cell at once; serially, each runs when the loop below reaches it.
        tasks = []
        for _, group in itertools.groupby(expand_grid(cfg), key=lambda j: j.cell_index):
            jobs = list(group)
            coords = _cell_coords(cfg, jobs)
            if _cell_key(coords) in done:
                skipped.append(_label(coords))
                if log:
                    log(f"skip {_label(coords)} (already in store)")
            elif pool is None:
                tasks.append((coords, functools.partial(_cell_task, cfg, jobs, artifacts_dir)))
            else:
                tasks.append((coords, pool.submit(_cell_task, cfg, jobs, artifacts_dir).result))
        for coords, outcome in tasks:
            try:
                result = outcome()
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
    return results, skipped, failures
