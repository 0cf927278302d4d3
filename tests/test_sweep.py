"""Sweep orchestration: grid seeds, cell pipeline, CSV store."""

import hashlib
import json
import re
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from quantal import blas, corpora, sweep
from quantal.bpe import encode, tokenizer_sha256
from quantal.checkpoint import MAGIC, load_checkpoint, state_digest
from quantal.corpora import BINARY, WORD_ORDER
from quantal.model import ModelConfig, init_model
from quantal.sweep import (
    COLUMN_NAMES,
    SweepConfig,
    append_result,
    column_slice,
    derived_seeds,
    expand_grid,
    load_results,
    load_sweep_config,
    run_cell,
    run_sweep,
)
from quantal.tp import analyze_column, beats_baseline_test
from quantal.util import sha256_bytes, stable_seed

ROOT = Path(__file__).resolve().parents[1]
ACCEPTANCE_DIR = ROOT / "results" / "acceptance"
DEMO_CONFIG, DEMO_STORE = ROOT / "demos" / "column_sweep.json", ROOT / "demos" / "output" / "demo_sweep.csv"
# The store header written before n_test_pairs took surprisal_mode's column
V1_HEADER = (
    "experiment,n_train,exception_prop,epochs,replicates,seeds,accuracies,mean_accuracy,"
    "n_types,above_chance_p,surprisal_mode,corpus_hash,wall_seconds\n"
)
# The header written before the n_types column was dropped (a cell's N is its n_train)
N_TYPES_HEADER = (
    "experiment,n_train,exception_prop,epochs,replicates,seeds,accuracies,mean_accuracy,"
    "n_types,above_chance_p,n_test_pairs,corpus_hash,wall_seconds\n"
)


def save_config(cfg, path):
    """Write cfg as a committed sweep config file holds it."""
    path.write_text(json.dumps({"format": sweep.CONFIG_FORMAT, **asdict(cfg)}, indent=1) + "\n", encoding="utf-8")


def tiny_config(**overrides):
    fields = dict(
        experiment=BINARY,
        sizes=(6,),
        proportions=(0.0,),
        epoch_settings=(1,),
        replicates=2,
        base_seed=77,
        n_test_pairs=6,
    )
    fields.update(overrides)
    return SweepConfig(**fields)


@pytest.fixture(scope="module")
def tiny_cell_dir(tmp_path_factory):
    """Where tiny_cell_result writes its artifacts."""
    return tmp_path_factory.mktemp("tiny_cell")


@pytest.fixture(scope="module")
def tiny_cell_result(tiny_cell_dir):
    cfg = tiny_config()
    jobs = expand_grid(cfg)
    return cfg, jobs, run_cell(cfg, jobs, artifacts_dir=tiny_cell_dir)


def name_from_csv(header, line):
    """A stored row's cell name, recomputed from the store's CSV text alone:
    its coordinates, then 16 hex digits of the sha256 of its key columns'
    fields, comma-joined."""
    fields = dict(zip(header.split(","), line.split(",")))
    key = ",".join(fields[name] for name in sweep.KEY_COLUMNS)
    coords = "{experiment}_n{n_train}_p{exception_prop}_e{epochs}".format(**fields)
    return f"{coords}_{hashlib.sha256(key.encode('utf-8')).hexdigest()[:16]}"


def manifest_cell(artifacts_dir, row):
    """The cell a run's manifest records: its row plus the hashes the store does not keep."""
    return json.loads((Path(artifacts_dir) / sweep._cell_name(row) / "manifest.json").read_text())["cell"]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="experiment"):
            tiny_config(experiment="other")
        with pytest.raises(ValueError, match="nonempty"):
            tiny_config(sizes=())
        with pytest.raises(ValueError, match="proportions"):
            tiny_config(proportions=(1.5,))
        with pytest.raises(ValueError, match="replicates"):
            tiny_config(replicates=0)
        with pytest.raises(ValueError, match="epoch_settings"):
            tiny_config(epoch_settings=(-1,))

    def test_accepts_untrained_epoch_setting(self):
        assert tiny_config(epoch_settings=(0, 1)).epoch_settings == (0, 1)

    def test_integral_values_normalised(self):
        # a proportion of 0 becomes 0.0; an integer field takes ints only, so 6.0 is refused
        cfg = tiny_config(sizes=[6], proportions=[0], epoch_settings=[1])
        assert cfg == tiny_config()
        assert (type(cfg.sizes[0]), type(cfg.proportions[0]), type(cfg.epoch_settings[0])) == (int, float, int)
        for value in (6.0, 6.5):
            with pytest.raises(ValueError, match="sizes must be an integer >= 1"):
                tiny_config(sizes=(value,))
        for value in (1.0, 1.5):
            with pytest.raises(ValueError, match="epoch_settings must be an integer >= 0"):
                tiny_config(epoch_settings=(value,))

    @pytest.mark.parametrize("name", ["replicates", "base_seed", "n_test_pairs"])
    def test_integral_scalars_refuse_floats(self, name):
        assert type(getattr(tiny_config(), name)) is int
        for value in (float(getattr(tiny_config(), name)), 2.5):
            with pytest.raises(ValueError, match=f"{name} must be an integer >= "):
                tiny_config(**{name: value})

    def test_takes_a_64_bit_base_seed(self):
        # stable_seed hashes to 64 bits; a float() on the way would round them
        assert tiny_config(base_seed=2**64 - 1).base_seed == 2**64 - 1

    @pytest.mark.parametrize(
        "name, value",
        [
            ("sizes", [True]),
            ("epoch_settings", [True]),
            ("replicates", True),
            ("base_seed", False),
            ("n_test_pairs", True),
            ("n_test_pairs", float("inf")),
            ("proportions", ["0.5"]),
            ("proportions", [True]),
        ],
        ids=str,
    )
    def test_booleans_strings_and_infinities_refused(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a finite number"):
            tiny_config(**{name: value})

    def test_int_and_float_proportion_are_one_cell(self):
        # a stored 0 reads back as 0.0, and a -0.0 key equals a 0.0 one, so
        # every spelling must derive the same seeds and the same corpus
        def corpus_hash(cfg):
            return run_cell(cfg, expand_grid(cfg))["corpus_hash"]

        as_float = tiny_config(proportions=(0.0,))
        untrained = dict(epoch_settings=(0,), replicates=1)
        want = corpus_hash(tiny_config(**untrained))
        for zero in (0, -0.0):
            spelled = tiny_config(proportions=(zero,))
            for a, b in zip(expand_grid(spelled), expand_grid(as_float)):
                assert derived_seeds(spelled, a) == derived_seeds(as_float, b)
                assert a.init_seed == b.init_seed
            assert corpus_hash(tiny_config(proportions=(zero,), **untrained)) == want

    @pytest.mark.parametrize(
        "name, values", [("sizes", (5, 5)), ("proportions", (0, 0.0)), ("epoch_settings", (0, 0))]
    )
    def test_repeated_values_refused(self, name, values):
        # one cell twice in one sweep would write two rows with one key
        with pytest.raises(ValueError, match=f"{name} repeats a value"):
            tiny_config(**{name: values})

    def test_json_round_trip(self, tmp_path):
        cfg = tiny_config(proportions=(0.0, 0.25))
        path = tmp_path / "sweep.json"
        save_config(cfg, path)
        assert load_sweep_config(path) == cfg

    def test_rejects_other_format(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text('{"format": "nope"}')
        with pytest.raises(ValueError, match="quantal-sweep"):
            load_sweep_config(path)

    def test_rejects_a_v1_config(self, tmp_path):
        # v1 had a surprisal_mode key; its one value was "pll"
        path = tmp_path / "sweep.json"
        save_config(tiny_config(), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload.update(format="quantal-sweep v1", surprisal_mode="pll")
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match="not a 'quantal-sweep v2' file"):
            load_sweep_config(path)

    @pytest.mark.parametrize("change", ["unknown", "missing", "array"])
    def test_rejects_malformed_payload(self, tmp_path, change):
        path = tmp_path / "sweep.json"
        save_config(tiny_config(), path)
        payload = json.loads(path.read_text())
        if change == "unknown":
            payload["learning_rate"] = 1e-3
        elif change == "missing":
            del payload["sizes"]
        else:
            payload = [payload]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_sweep_config(path)


class TestExpandGrid:
    def test_job_count_is_cells_times_replicates(self):
        cfg = tiny_config(
            sizes=(10, 20),
            proportions=(0.0, 0.1, 0.2),
            epoch_settings=(1, 2),
            replicates=3,
        )
        jobs = expand_grid(cfg)
        assert len(jobs) == 36
        assert len({j.cell_index for j in jobs}) == 12

    def test_seed_assignment_is_stable(self):
        cfg = tiny_config(sizes=(10, 20), replicates=3)
        a = expand_grid(cfg)
        b = expand_grid(cfg)
        assert a == b

    def test_replicate_seeds_pairwise_distinct(self):
        cfg = tiny_config(
            sizes=(10, 20, 30),
            proportions=(0.0, 0.5),
            epoch_settings=(1, 2),
            replicates=3,
        )
        jobs = expand_grid(cfg)
        seeds = [j.init_seed for j in jobs]
        assert len(set(seeds)) == len(seeds)

    def test_untrained_seeds_disjoint_from_trained(self):
        # an untrained-only grid puts its cells at the same indices as the
        # trained grid; its inits must still differ from every trained one
        grid = dict(sizes=(10, 20), proportions=(0.0, 0.5), replicates=3)
        trained = expand_grid(tiny_config(epoch_settings=(1, 2), **grid))
        untrained = expand_grid(tiny_config(epoch_settings=(0,), **grid))
        mixed = expand_grid(tiny_config(epoch_settings=(0, 1, 2), **grid))
        trained_seeds = {j.init_seed for j in trained}
        untrained_seeds = {j.init_seed for j in untrained}
        assert len(untrained_seeds) == len(untrained)
        assert not trained_seeds & untrained_seeds
        # untrained seeds follow the cell's coordinates, not its grid position
        assert {j.init_seed for j in mixed if j.epochs == 0} == untrained_seeds

    def test_trained_seeds_keep_cell_index_derivation(self):
        for job in expand_grid(tiny_config(sizes=(10, 20), epoch_settings=(0, 1, 2))):
            if job.epochs:
                assert job.init_seed == stable_seed(77, job.cell_index, job.replicate_index)


class TestDerivedSeeds:
    def test_epoch_settings_share_data_seeds(self):
        cfg = tiny_config(epoch_settings=(1, 2), replicates=1)
        jobs = expand_grid(cfg)
        one, two = jobs[0], jobs[1]
        assert (one.epochs, two.epochs) == (1, 2)
        a = derived_seeds(cfg, one)
        b = derived_seeds(cfg, two)
        for key in ("vocab_seed", "corpus_seed", "pairs_seed"):
            assert a[key] == b[key]
        assert a["train_seed"] != b["train_seed"]

    def test_different_cells_get_different_corpus_seeds(self):
        cfg = tiny_config(sizes=(10, 20), replicates=1)
        jobs = expand_grid(cfg)
        a = derived_seeds(cfg, jobs[0])
        b = derived_seeds(cfg, jobs[1])
        assert a["corpus_seed"] != b["corpus_seed"]


class TestRunCell:
    def test_result_shape(self, tiny_cell_result):
        # a row is a dict of the store's columns, in their order
        cfg, jobs, result = tiny_cell_result
        assert list(result) == COLUMN_NAMES
        assert result["experiment"] == BINARY
        assert result["n_train"] == 6
        assert result["epochs"] == 1
        assert result["replicates"] == 2
        assert len(result["accuracies"]) == 2
        assert result["mean_accuracy"] == pytest.approx(np.mean(result["accuracies"]))
        assert 0.0 <= result["mean_accuracy"] <= 1.0
        assert 0.0 <= result["above_chance_p"] <= 1.0
        assert result["n_test_pairs"] == 6

    def test_corpus_hash_matches_regenerated_corpus(self, tiny_cell_result):
        cfg, jobs, result = tiny_cell_result
        seeds = derived_seeds(cfg, jobs[0])
        corpus = corpora.gen_exp2_corpus(
            6, 0.0, string_len=sweep.STRING_LEN, seed=seeds["corpus_seed"]
        )
        assert result["corpus_hash"] == sha256_bytes(corpus.to_text().encode("utf-8"))

    def test_replicates_differ_only_in_init(self, tiny_cell_result, tiny_cell_dir):
        cfg, jobs, result = tiny_cell_result
        assert result["seeds"][0] != result["seeds"][1]
        hashes = manifest_cell(tiny_cell_dir, result)["checkpoint_hashes"]
        assert hashes[0] != hashes[1]

    def test_deterministic_modulo_wall_time(self, tiny_cell_result):
        # with no artifacts_dir too, which writes no files and hashes no model
        cfg, jobs, first = tiny_cell_result
        second = run_cell(cfg, jobs)
        assert {**first, "wall_seconds": None} == {**second, "wall_seconds": None}

    def test_seeds_follow_replicate_order(self, tiny_cell_result, tiny_cell_dir, tmp_path):
        # jobs given out of order still run, store and checkpoint in
        # replicate order
        cfg, jobs, result = tiny_cell_result
        reordered = run_cell(cfg, list(reversed(jobs)), artifacts_dir=tmp_path)
        assert [j.replicate_index for j in jobs] == [0, 1]
        assert reordered["seeds"] == result["seeds"] == tuple(j.init_seed for j in jobs)
        hashes = [manifest_cell(d, result)["checkpoint_hashes"] for d in (tmp_path, tiny_cell_dir)]
        assert hashes[0] == hashes[1]

    def test_rejects_mixed_cells(self):
        cfg = tiny_config(sizes=(6, 7), replicates=1)
        jobs = expand_grid(cfg)
        with pytest.raises(ValueError, match="one cell"):
            run_cell(cfg, jobs)

    def test_artifacts_written(self, tmp_path):
        cfg = tiny_config(replicates=1)
        jobs = expand_grid(cfg)
        result = run_cell(cfg, jobs, artifacts_dir=tmp_path)
        cell_dir = tmp_path / sweep._cell_name(result)
        assert [p.name for p in tmp_path.iterdir()] == [cell_dir.name]
        assert re.fullmatch(r"binary_n6_p0\.0_e1_[0-9a-f]{16}", cell_dir.name)
        written = {"corpus.txt", "pairs.tsv", "replicate0.ckpt", "manifest.json"}
        assert {path.name for path in cell_dir.iterdir()} == written
        manifest = json.loads((cell_dir / "manifest.json").read_text())
        assert manifest["format"] == "quantal-manifest v3"
        assert manifest["config"]["base_seed"] == 77
        assert set(manifest["derived_seeds"]) == {
            "vocab_seed", "corpus_seed", "pairs_seed", "train_seed",
        }
        # the manifest's cell is the row, then the two hashes the store does not keep
        cell = manifest["cell"]
        tokenizer_hash, (checkpoint_hash,) = cell.pop("tokenizer_hash"), cell.pop("checkpoint_hashes")
        assert cell == json.loads(json.dumps(result))
        assert list(cell) == COLUMN_NAMES
        # the checkpoint embeds the cell's tokenizer: its text hashes to the
        # manifest's tokenizer_hash
        raw = (cell_dir / "replicate0.ckpt").read_bytes()
        header = json.loads(raw[len(MAGIC):].split(b"\n", 1)[0])
        assert sha256_bytes(header["tokenizer"].encode("utf-8")) == tokenizer_hash
        state, meta = load_checkpoint(cell_dir / "replicate0.ckpt")
        assert tokenizer_sha256(meta["tokenizer"]) == tokenizer_hash
        assert meta["experiment"] == BINARY
        assert state_digest(state) == checkpoint_hash

    def test_no_artifacts_no_model_hashes(self, monkeypatch):
        # the hashes only the manifest records are not computed without one
        def unwanted(*args):
            raise AssertionError("hashed a model with no manifest to record it")

        monkeypatch.setattr(sweep, "state_digest", unwanted)
        monkeypatch.setattr(sweep.bpe, "tokenizer_sha256", unwanted)
        cfg = tiny_config(replicates=1)
        assert run_cell(cfg, expand_grid(cfg))["replicates"] == 1

    def test_untrained_cell_takes_no_optimizer_step(self, tmp_path):
        cfg = tiny_config(epoch_settings=(0,))
        jobs = expand_grid(cfg)
        result = run_cell(cfg, jobs, artifacts_dir=tmp_path)
        assert result["epochs"] == 0
        cell_dir = tmp_path / sweep._cell_name(result)
        vocab_size = load_checkpoint(cell_dir / "replicate0.ckpt")[1]["tokenizer"].vocab_size
        hashes = manifest_cell(tmp_path, result)["checkpoint_hashes"]
        for r, job in enumerate(jobs):
            fresh = init_model(ModelConfig(vocab_size=vocab_size), seed=job.init_seed)
            assert hashes[r] == state_digest(fresh)

    def test_untrained_cell_shares_data_with_trained(self, tiny_cell_result, tiny_cell_dir, tmp_path):
        cfg, _, trained = tiny_cell_result
        untrained_cfg = tiny_config(epoch_settings=(0,))
        untrained = run_cell(untrained_cfg, expand_grid(untrained_cfg), artifacts_dir=tmp_path)
        assert untrained["corpus_hash"] == trained["corpus_hash"]
        untrained_tokenizer = manifest_cell(tmp_path, untrained)["tokenizer_hash"]
        assert untrained_tokenizer == manifest_cell(tiny_cell_dir, trained)["tokenizer_hash"]
        assert not set(untrained["seeds"]) & set(trained["seeds"])

    def test_word_order_cell_runs(self):
        cfg = tiny_config(
            experiment=WORD_ORDER, sizes=(4,), replicates=1, n_test_pairs=4
        )
        jobs = expand_grid(cfg)
        result = run_cell(cfg, jobs)
        assert result["experiment"] == WORD_ORDER
        assert len(result["accuracies"]) == 1


class TestStore:
    def test_round_trip(self, tmp_path, tiny_cell_result):
        # the row a cell returns is the row the store reads back, wall_seconds included
        _, _, result = tiny_cell_result
        store = tmp_path / "results.csv"
        append_result(store, result)
        assert load_results(store) == [result]

    def test_header_written_once(self, tmp_path, tiny_cell_result):
        _, _, result = tiny_cell_result
        store = tmp_path / "results.csv"
        append_result(store, result)
        append_result(store, {**result, "n_train": 7})
        lines = store.read_text().splitlines()
        assert lines[0] == ",".join(COLUMN_NAMES)
        assert len(lines) == 3

    def test_empty_and_missing_store(self, tmp_path):
        missing = tmp_path / "nope.csv"
        assert load_results(missing) == []
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert load_results(empty) == []

    def test_schema_mismatch(self, tmp_path, tiny_cell_result):
        _, _, result = tiny_cell_result
        store = tmp_path / "results.csv"
        store.write_text("some,other,header\n")
        with pytest.raises(ValueError, match="schema"):
            append_result(store, result)
        with pytest.raises(ValueError, match="schema"):
            load_results(store)

    def test_refuses_the_v1_header(self, tmp_path, tiny_cell_result):
        # a store written before n_test_pairs had a column, or before n_types
        # lost its own, whatever its rows
        _, _, result = tiny_cell_result
        store = tmp_path / "results.csv"
        for header in (V1_HEADER, N_TYPES_HEADER):
            store.write_text(header)
            with pytest.raises(ValueError, match="schema"):
                load_results(store)
            with pytest.raises(ValueError, match="schema"):
                append_result(store, result)
            assert store.read_text() == header

    @pytest.mark.parametrize("name", ["binary.csv", "word_order.csv"])
    def test_committed_store_rewrites_byte_for_byte(self, tmp_path, name):
        committed = ACCEPTANCE_DIR / name
        store = tmp_path / name
        for row in load_results(committed):
            assert append_result(store, row)
        assert store.read_bytes() == committed.read_bytes()

    def test_concurrent_appends_do_not_interleave(self, tmp_path, tiny_cell_result):
        # 40 cells, each appended twice: the lock also makes the key check
        # and the write one step, so each cell lands once
        _, _, result = tiny_cell_result
        store = tmp_path / "results.csv"
        cells = [{**result, "n_train": n} for n in range(1, 41)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            written = [f.result() for f in [pool.submit(append_result, store, c) for c in cells + cells]]
        rows = load_results(store)
        assert (len(rows), written.count(True)) == (40, 40)
        assert sorted(row["n_train"] for row in rows) == list(range(1, 41))
        assert store.read_text().splitlines()[0] == ",".join(COLUMN_NAMES)

    def test_refuses_a_store_holding_one_cell_twice(self, tmp_path):
        header, first, second = DEMO_STORE.read_text().splitlines()[:3]
        store = tmp_path / "results.csv"
        store.write_text("\n".join([header, first, second, first]) + "\n")
        name = name_from_csv(header, first)
        assert name.startswith("binary_n60_p0.0_e4_")
        with pytest.raises(ValueError, match=f"holds the cell {re.escape(name)} twice"):
            load_results(store)


    @pytest.mark.parametrize(
        "column, value, why",
        [
            ("replicates", "3", r"counts \(3, 1, 1\) replicates, seeds and accuracies"),
            ("seeds", "1;2", r"counts \(1, 2, 1\) replicates, seeds and accuracies"),
            ("mean_accuracy", "0.123", "mean_accuracy other than its accuracies' mean"),
        ],
        ids=["replicates", "seeds", "mean_accuracy"],
    )
    def test_refuses_a_row_that_contradicts_itself(self, tmp_path, column, value, why):
        # a hand-edited demo row; without the check column_slice would read
        # its mean_accuracy as the cell's
        header, first, *rest = DEMO_STORE.read_text().splitlines()
        fields = first.split(",")
        fields[COLUMN_NAMES.index(column)] = value
        store = tmp_path / "results.csv"
        store.write_text("\n".join([header, ",".join(fields), *rest]) + "\n")
        cell = re.escape(name_from_csv(header, ",".join(fields)))
        with pytest.raises(ValueError, match=f"store row {cell}.* {why}: {re.escape(str(store))}$"):
            load_results(store)

class TestColumnSlice:
    def rows(self):
        def row(n, prop, ep, acc):
            return {
                "experiment": BINARY,
                "n_train": n,
                "exception_prop": prop,
                "epochs": ep,
                "mean_accuracy": acc,
            }

        return [
            row(500, 0.2, 10, 0.8),
            row(500, 0.0, 10, 0.97),
            row(500, 0.1, 4, 0.6),
            row(300, 0.1, 10, 0.9),
            row(500, 0.1, 10, 0.88),
        ]

    def test_filters_and_sorts(self):
        points = column_slice(self.rows(), 500, 10)
        assert points == [(0.0, 0.97), (0.1, 0.88), (0.2, 0.8)]

    def test_keeps_repeated_proportions(self):
        rows = self.rows() + [
            {"experiment": BINARY, "n_train": 500, "exception_prop": 0.1,
             "epochs": 10, "mean_accuracy": 0.86}
        ]
        points = column_slice(rows, 500, 10)
        assert points.count((0.1, 0.88)) == 1
        assert points.count((0.1, 0.86)) == 1

    def test_no_rows_is_an_error(self):
        with pytest.raises(ValueError, match="no rows"):
            column_slice(self.rows(), 999, 10)

    def test_mixed_kinds_are_an_error(self):
        # a binary and a word-order row at one size are two measurements,
        # not one column
        rows = self.rows() + [{**self.rows()[0], "exception_prop": 0.3, "experiment": WORD_ORDER}]
        with pytest.raises(ValueError, match="mix experiment"):
            column_slice(rows, 500, 10)
        # at another size the row is not selected
        assert column_slice(rows, 300, 10) == [(0.1, 0.9)]


@pytest.fixture
def inline_pool(monkeypatch):
    """Replaces the sweep's process pool with one that runs each task at
    submit, starting no process; returns the size of each pool made."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers, initializer):
            sizes.append(max_workers)

        def shutdown(self, cancel_futures=False):
            pass

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", InlinePool)
    return sizes


@pytest.fixture
def tokenizer_builds(monkeypatch):
    """Empties the cache of cell inputs and counts the tokenizers built."""
    sweep._cell_inputs.cache_clear()
    builds = []
    build = sweep.cell_tokenizer

    def counted(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(sweep, "cell_tokenizer", counted)
    return builds


class TestRunSweep:
    def test_completes_all_cells_and_reuses(self, tmp_path):
        cfg = tiny_config(sizes=(5,), proportions=(0.0, 0.5), replicates=1)
        store = tmp_path / "results.csv"
        lines = []
        results, skipped, failures = run_sweep(cfg, store, workers=1, log=lines.append)
        assert len(results) == 2
        assert skipped == [] and failures == []
        rows = load_results(store)
        assert len(rows) == 2
        # the progress line gives the mean accuracy and the seconds, and no
        # above_chance_p, which measures the tokenizer rather than learning
        for line, row in zip(lines, rows, strict=True):
            done = f"done {sweep._cell_name(row)}: mean accuracy {row['mean_accuracy']:.3f}"
            assert re.fullmatch(re.escape(done) + r" \(\d+s\)", line), line

        again = run_sweep(cfg, store, workers=1)
        assert again[0] == [] and len(again[1]) == 2 and again[2] == []
        assert len(load_results(store)) == 2

    @pytest.mark.parametrize("changed", [dict(base_seed=2), dict(replicates=2), dict(n_test_pairs=4)])
    def test_reuse_tells_cells_apart(self, tmp_path, changed):
        # same coordinates, different seeds or test pairs: the second sweep
        # must run
        store = tmp_path / "results.csv"
        run_sweep(tiny_config(sizes=(5,), replicates=1, base_seed=1), store, workers=1)
        results, skipped, failures = run_sweep(
            tiny_config(**{"sizes": (5,), "replicates": 1, "base_seed": 1, **changed}), store, workers=1
        )
        assert (len(results), skipped, failures) == (1, [], [])
        assert len(load_results(store)) == 2

    def test_cells_of_one_store_keep_apart_in_logs_and_artifacts(self, tmp_path):
        # two cells that differ only in base seed: the store holds both, and
        # neither may overwrite the other's artifacts nor share its log line
        store, artifacts = tmp_path / "results.csv", tmp_path / "artifacts"
        lines = []
        for base_seed in (5, 6):
            cfg = tiny_config(sizes=(20,), replicates=1, base_seed=base_seed, n_test_pairs=20)
            assert run_sweep(cfg, store, artifacts_dir=artifacts, log=lines.append)[2] == []
        rows = load_results(store)
        assert len(rows) == 2 and rows[0]["seeds"] != rows[1]["seeds"]
        cell_dirs = sorted(p.name for p in artifacts.iterdir())
        assert len(cell_dirs) == 2
        assert cell_dirs == sorted(sweep._cell_name(row) for row in rows)
        for row in rows:
            cell = manifest_cell(artifacts, row)
            del cell["tokenizer_hash"], cell["checkpoint_hashes"]
            assert cell == json.loads(json.dumps(row))
        assert len(lines) == 2 and lines[0] != lines[1]
        assert all(line.startswith("done binary_n20_p0.0_e1_") for line in lines)

    def test_a_cell_another_sweep_stored_meanwhile_is_not_written_twice(self, tmp_path, monkeypatch):
        # the store gains the cell's row after run_sweep has read it, as
        # when two sweeps of one config run together on one store
        store = tmp_path / "results.csv"
        run_cell = sweep.run_cell

        def racing(*args):
            result = run_cell(*args)
            append_result(store, result)
            return result

        monkeypatch.setattr(sweep, "run_cell", racing)
        lines = []
        results, skipped, failures = run_sweep(tiny_config(), store, workers=1, log=lines.append)
        (row,) = load_results(store)
        assert (results, skipped, failures) == ([], [sweep._cell_name(row)], [])
        assert lines == [f"skip {sweep._cell_name(row)} (another sweep stored it meanwhile)"]

    def test_foreign_store_is_refused_before_any_cell_runs(self, tmp_path, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("a cell ran against a store it cannot append to")

        monkeypatch.setattr(sweep, "run_cell", no_training)
        store = tmp_path / "results.csv"
        store.write_text(V1_HEADER)
        with pytest.raises(ValueError, match="schema"):
            run_sweep(tiny_config(), store, workers=1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_returned_rows_are_the_stored_rows(self, tmp_path, workers):
        # exactly, wall_seconds included: both are the one row dict
        store = tmp_path / "results.csv"
        rows, skipped, failures = run_sweep(tiny_config(proportions=(0.0, 0.5)), store, workers=workers)
        assert (len(rows), skipped, failures) == (2, [], [])
        assert rows == load_results(store)

    def test_cell_failure_is_isolated(self, tmp_path):
        # 70000 binary strings cannot be unique at length 16, so that
        # cell fails during generation while the other cell completes,
        # run in turn or in a pool
        cfg = tiny_config(sizes=(5, 70000), replicates=1)
        for workers in (1, 2):
            store = tmp_path / f"workers{workers}.csv"
            results, skipped, failures = run_sweep(cfg, store, workers=workers)
            assert len(results) == 1
            assert len(failures) == 1
            assert "70000" in failures[0][0]
            assert len(load_results(store)) == 1

    def test_worker_pool_matches_serial(self, tmp_path):
        cfg = tiny_config(sizes=(5,), proportions=(0.0, 0.5), replicates=1)
        serial_store = tmp_path / "serial.csv"
        pooled_store = tmp_path / "pooled.csv"
        run_sweep(cfg, serial_store, workers=1)
        run_sweep(cfg, pooled_store, workers=2)

        def keyed(store):
            rows = load_results(store)
            for row in rows:
                row["wall_seconds"] = None
            return sorted(rows, key=lambda r: r["exception_prop"])

        assert keyed(serial_store) == keyed(pooled_store)

    def test_pooled_replicates_match_serial(self, tmp_path):
        # two cells of one (n, prop), so a worker that draws replicates of
        # both reuses the inputs it built for the first; replicates are the
        # pool's only tasks and may finish in any order
        cfg = tiny_config(replicates=3, epoch_settings=(0, 1))
        for name, workers in (("serial", 1), ("pooled", 2)):
            sweep._cell_inputs.cache_clear()  # else forked workers inherit the serial build
            run_sweep(cfg, tmp_path / f"{name}.csv", artifacts_dir=tmp_path / name, workers=workers)

        def without_wall_seconds(row):
            return {k: v for k, v in row.items() if k != "wall_seconds"}

        serial, pooled = (load_results(tmp_path / f"{name}.csv") for name in ("serial", "pooled"))
        assert len(serial) == 2
        assert [without_wall_seconds(r) for r in serial] == [without_wall_seconds(r) for r in pooled]
        serial_dirs = sorted((tmp_path / "serial").iterdir())
        assert len(serial_dirs) == 2
        for serial_dir in serial_dirs:
            pooled_dir = tmp_path / "pooled" / serial_dir.name
            for r in range(3):
                ckpt = f"replicate{r}.ckpt"
                assert (serial_dir / ckpt).read_bytes() == (pooled_dir / ckpt).read_bytes()
            manifests = [json.loads((d / "manifest.json").read_text()) for d in (serial_dir, pooled_dir)]
            for manifest in manifests:
                manifest["cell"] = without_wall_seconds(manifest["cell"])
            assert manifests[0] == manifests[1]
            assert sorted(p.name for p in serial_dir.iterdir()) == sorted(p.name for p in pooled_dir.iterdir())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failing_replicate_fails_only_its_cell(self, tmp_path, monkeypatch, workers):
        cfg = tiny_config(proportions=(0.0, 0.5, 1.0))
        (failing,) = [j for j in expand_grid(cfg) if (j.cell_index, j.replicate_index) == (1, 1)]
        train_replicate = sweep.train_replicate

        def fail_one(tok, corpus, init_seed, *args):
            if init_seed == failing.init_seed:
                raise RuntimeError("replicate failed")
            return train_replicate(tok, corpus, init_seed, *args)

        # Workers are forked, so they see this replacement too.
        monkeypatch.setattr(sweep, "train_replicate", fail_one)
        store = tmp_path / "results.csv"
        results, skipped, failures = run_sweep(cfg, store, workers=workers)
        name = sweep._cell_name(sweep._cell_coords(cfg, [j for j in expand_grid(cfg) if j.cell_index == 1]))
        assert name.startswith("binary_n6_p0.5_e1_")
        assert failures == [(name, repr(RuntimeError("replicate failed")))]
        assert [row["exception_prop"] for row in load_results(store)] == [0.0, 1.0]
        assert (len(results), skipped) == (2, [])

        monkeypatch.undo()
        results, skipped, failures = run_sweep(cfg, store, workers=workers)
        assert [r["exception_prop"] for r in results] == [0.5] and failures == []
        assert len(skipped) == 2
        assert [row["exception_prop"] for row in load_results(store)] == [0.0, 1.0, 0.5]

    def test_pool_never_has_more_workers_than_tasks(self, tmp_path, inline_pool):
        sizes = inline_pool
        store = tmp_path / "results.csv"
        cfg = tiny_config(replicates=3)
        results, _, _ = run_sweep(cfg, store, workers=64)
        assert sizes == [3] and len(results) == 1
        run_sweep(tiny_config(replicates=3, proportions=(0.0, 0.5)), store, workers=2)
        assert sizes == [3, 2]
        # the store holds every cell: no pool at all
        _, skipped, _ = run_sweep(cfg, store, workers=64)
        assert sizes == [3, 2] and len(skipped) == 1

    @pytest.mark.parametrize("cpus, sizes", [(2, [2]), (64, [3]), (1, [])], ids=["2cpus", "64cpus", "1cpu"])
    def test_default_pool_has_a_worker_per_usable_cpu(self, tmp_path, monkeypatch, inline_pool, cpus, sizes):
        # capped at the 3 replicate tasks; one CPU runs the cell in turn, with no pool
        monkeypatch.setattr(sweep, "usable_cpus", lambda: cpus)
        results, _, failures = run_sweep(tiny_config(replicates=3), tmp_path / "results.csv")
        assert inline_pool == sizes and (len(results), failures) == (1, [])

    def test_default_pool_takes_only_cells_that_train(self, tmp_path, monkeypatch, inline_pool):
        # a 0-epoch cell only scores, and runs in this process, whose
        # scoring threads use every CPU; given workers, the pool takes it too
        monkeypatch.setattr(sweep, "usable_cpus", lambda: 64)
        in_process = []
        run_cell = sweep.run_cell

        def recorded(cfg, jobs, *args):
            in_process.append(jobs[0].epochs)
            return run_cell(cfg, jobs, *args)

        monkeypatch.setattr(sweep, "run_cell", recorded)
        cfg = tiny_config(epoch_settings=(0, 1), replicates=3)
        results, _, failures = run_sweep(cfg, tmp_path / "default.csv")
        assert (inline_pool, in_process) == ([3], [0])
        assert [row["epochs"] for row in results] == [0, 1] and failures == []
        run_sweep(cfg, tmp_path / "given.csv", workers=64)
        assert (inline_pool, in_process) == ([3, 6], [0])
        # only cells that score: no pool at all
        results, _, _ = run_sweep(tiny_config(epoch_settings=(0,), replicates=3), tmp_path / "scores.csv")
        assert (inline_pool, in_process) == ([3, 6], [0, 0]) and len(results) == 1

    def test_serial_sweep_builds_a_size_and_proportion_once(self, tmp_path, tokenizer_builds):
        # data seeds ignore the epoch setting, so the 0- and 1-epoch cells
        # share one build, as do the replicates within each
        cfg = tiny_config(epoch_settings=(0, 1), replicates=2)
        results, _, failures = run_sweep(cfg, tmp_path / "results.csv", workers=1)
        assert (len(results), failures) == (2, [])
        assert len(tokenizer_builds) == 1

    def test_pool_task_reuses_its_process_build(self, tmp_path, inline_pool, tokenizer_builds):
        results, _, failures = run_sweep(tiny_config(replicates=3), tmp_path / "results.csv", workers=3)
        assert inline_pool == [3] and (len(results), failures) == (1, [])
        assert len(tokenizer_builds) == 1

    def test_an_interrupted_pool_stops_queuing_replicates(self, tmp_path, monkeypatch):
        # Each replicate takes at least 0.2 s, so when the first row lands
        # most of the 10 are still queued.  Those already in the pool's call
        # queue (workers + 1) may still run.
        train_replicate = sweep.train_replicate

        def slow(*args):
            time.sleep(0.2)
            return train_replicate(*args)

        def interrupt(line):
            if line.startswith("done"):
                raise KeyboardInterrupt

        monkeypatch.setattr(sweep, "train_replicate", slow)  # forked workers inherit it
        cfg = tiny_config(sizes=tuple(range(5, 15)), replicates=1)
        store, artifacts = tmp_path / "results.csv", tmp_path / "artifacts"
        with pytest.raises(KeyboardInterrupt):
            run_sweep(cfg, store, artifacts_dir=artifacts, workers=2, log=interrupt)
        assert len(load_results(store)) == 1
        assert len(list(artifacts.glob("*/replicate0.ckpt"))) < 10

    def test_pool_workers_run_one_blas_thread(self, tmp_path, monkeypatch):
        libs = blas.libraries()
        if not libs:
            pytest.skip("no OpenBLAS mapped into this process")

        def report_threads(*args, **kwargs):
            raise RuntimeError([lib.get_threads() for lib in blas.libraries()])

        # Workers are forked, so they see this replacement of the replicate step.
        monkeypatch.setattr(sweep, "train_replicate", report_threads)
        cfg = tiny_config(sizes=(5,), proportions=(0.0, 0.5), replicates=1)
        old = [lib.get_threads() for lib in libs]
        try:
            for lib in libs:
                lib.set_threads(2)
            _, _, failures = run_sweep(cfg, tmp_path / "results.csv", workers=2)
            assert [lib.get_threads() for lib in blas.libraries()] == [2] * len(libs)
        finally:
            for lib, n in zip(libs, old):
                lib.set_threads(n)
        assert [why for _, why in failures] == [repr(RuntimeError([1] * len(libs)))] * 2


COMMITTED_CONFIGS = {p.name: p for p in [*(ACCEPTANCE_DIR / "configs").glob("*.json"), DEMO_CONFIG]}


def committed_config(name):
    """A committed config, by file name, and the store it fills."""
    path = COMMITTED_CONFIGS[name]
    cfg = load_sweep_config(path)
    return cfg, DEMO_STORE if path == DEMO_CONFIG else ACCEPTANCE_DIR / f"{cfg.experiment}.csv"


class TestCommittedStores:
    def test_every_committed_file_loads(self):
        # a change of format must rewrite each of them
        stores = sorted([*ACCEPTANCE_DIR.glob("*.csv"), DEMO_STORE])
        assert (len(stores), len(COMMITTED_CONFIGS)) == (3, 7)
        for path in stores:
            assert load_results(path), path
        for path in COMMITTED_CONFIGS.values():
            load_sweep_config(path)

    def test_a_stored_cell_is_named_from_its_csv_text(self):
        # the name of each committed row is recomputable from the store's
        # text alone, and no two rows of one store share a name
        for path in sorted([*ACCEPTANCE_DIR.glob("*.csv"), DEMO_STORE]):
            header, *lines = path.read_text(encoding="utf-8").splitlines()
            names = [name_from_csv(header, line) for line in lines]
            assert names == [sweep._cell_name(row) for row in load_results(path)], path
            assert len(set(names)) == len(names), path

    @pytest.mark.parametrize("config", sorted(COMMITTED_CONFIGS))
    def test_every_configured_cell_is_stored(self, config, monkeypatch):
        # replaying a committed config against its store must train nothing
        def no_training(*args, **kwargs):
            raise AssertionError("cell missing from the committed store")

        monkeypatch.setattr(sweep, "run_cell", no_training)
        cfg, store = committed_config(config)
        results, skipped, failures = run_sweep(cfg, store, workers=1)
        n_cells = len(cfg.sizes) * len(cfg.proportions) * len(cfg.epoch_settings)
        assert (results, failures) == ([], [])
        assert len(skipped) == n_cells

    @pytest.mark.parametrize("config", sorted(COMMITTED_CONFIGS))
    def test_stored_corpus_hash_is_the_regenerated_corpus(self, config):
        # A sweep skips a stored cell by its key alone, so this is what sees
        # a change in the generated bytes.  Data seeds ignore the epoch
        # setting and the committed configs of one store share a base seed,
        # so every stored row at a cell's (n, prop) trained on the same corpus.
        cfg, store = committed_config(config)
        rows = load_results(store)
        for n_train in cfg.sizes:
            for prop in cfg.proportions:
                _, corpus, _ = sweep.cell_data(cfg.experiment, cfg.base_seed, n_train, prop, cfg.n_test_pairs)
                stored = [row["corpus_hash"] for row in rows if (row["n_train"], row["exception_prop"]) == (n_train, prop)]
                assert stored and set(stored) == {corpora.corpus_sha256(corpus)}

    def test_readme_states_the_encoded_lengths_of_the_committed_cells(self):
        # README's token counts of rule and foil members, rebuilt from the
        # committed binary cells at n=50 and n=300 (p = 0.0)
        def mean_lengths(config):
            cfg, _ = committed_config(config)
            _, corpus, pairs = sweep.cell_data(
                cfg.experiment, cfg.base_seed, cfg.sizes[0], cfg.proportions[0], cfg.n_test_pairs
            )
            tok = sweep.cell_tokenizer(cfg.experiment, corpus)
            return [np.mean([len(encode(tok, s.text)) for s in members]) for members in zip(*pairs.pairs)]

        (r50, f50), (r300, f300) = mean_lengths("binary_onset_small.json"), mean_lengths("binary_onset_300.json")
        readme = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
        assert (
            f"({r50:.2f} vs {f50:.2f} tokens on average at n=50, {r300:.2f} vs {f300:.2f} at n=300, "
            f"vocab {sweep.TARGET_VOCAB[BINARY]})"
        ) in readme

    def test_readme_states_the_known_behavior_of_the_committed_cells(self):
        # every number of README's "Known behavior", recomputed from the
        # committed stores and formatted as README prints it
        binary, word_order = (load_results(ACCEPTANCE_DIR / f"{e}.csv") for e in (BINARY, WORD_ORDER))

        def cell(table, n_train, epochs):
            (row,) = [r for r in table if (r["n_train"], r["exception_prop"], r["epochs"]) == (n_train, 0.0, epochs)]
            return row

        def spread(table, n_train):
            row = cell(table, n_train, 0)
            assert row["replicates"] == 10  # README: "ten inits"
            return f"{min(row['accuracies']):.3f}-{max(row['accuracies']):.3f} (mean {row['mean_accuracy']:.3f})"

        def beats_untrained_p(table, n_train, epochs):
            return beats_baseline_test(cell(table, n_train, epochs)["accuracies"], cell(table, n_train, 0)["accuracies"])

        def mean(table, n_train, epochs):
            return f"{cell(table, n_train, epochs)['mean_accuracy']:.3f}"

        column = [
            (row["exception_prop"], acc)
            for row in binary
            if (row["n_train"], row["epochs"]) == (500, 10)
            for acc in row["accuracies"]
        ]
        stated = [
            f"the committed 0-epoch cells score {spread(binary, 50)} over ten inits at n=50 "
            f"and {spread(binary, 300)} at n=300",
            f"with p = {beats_untrained_p(binary, 300, 10):.2g} at (n=300, 10 epochs) "
            f"and p = {beats_untrained_p(binary, 50, 4):.2g} at (n=50, 4 epochs)",
            f"{mean(binary, 300, 4)} at 4 epochs against {mean(binary, 300, 10)} at 10",
            f"accuracy is {mean(word_order, 1000, 10)} at 1,000 sentences and {mean(word_order, 2000, 10)} at 2,000",
            f"Ten untrained inits score {spread(word_order, 2000)} at 2,000 sentences",
            f"(permutation p = {beats_untrained_p(word_order, 2000, 10):.3f})",
            f"one point per replicate, {len(column)} on the (n=500, 10-epoch) column, "
            f"and reads step p = {analyze_column(column, 500).regression.p_value:.3f}",
        ]
        readme = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
        assert [phrase for phrase in stated if phrase not in readme] == []
