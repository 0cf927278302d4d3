"""Sweep orchestration: grid seeds, cell pipeline, CSV store."""

import json
import time
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from quantal import blas, corpora, sweep
from quantal.bpe import tokenizer_sha256
from quantal.checkpoint import MAGIC, load_checkpoint, state_digest
from quantal.corpora import BINARY, WORD_ORDER
from quantal.model import ModelConfig, init_model
from quantal.sweep import (
    COLUMN_NAMES,
    SweepCellResult,
    SweepConfig,
    append_result,
    column_slice,
    default_config,
    derived_seeds,
    expand_grid,
    load_results,
    load_sweep_config,
    run_cell,
    run_sweep,
    save_sweep_config,
)
from quantal.util import sha256_bytes, stable_seed

ROOT = Path(__file__).resolve().parents[1]
ACCEPTANCE_DIR = ROOT / "results" / "acceptance"
# The store header written before n_test_pairs took surprisal_mode's column
V1_HEADER = (
    "experiment,n_train,exception_prop,epochs,replicates,seeds,accuracies,mean_accuracy,"
    "n_types,above_chance_p,surprisal_mode,corpus_hash,wall_seconds\n"
)


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
def tiny_cell_result():
    cfg = tiny_config()
    jobs = expand_grid(cfg)
    return cfg, jobs, run_cell(cfg, jobs)


class TestConfig:
    def test_defaults_match_reduced_grids(self):
        exp1 = default_config(WORD_ORDER, base_seed=1)
        assert exp1.sizes == (1000, 2000, 4000, 6000, 8000, 10000)
        assert exp1.proportions == (0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30)
        assert exp1.epoch_settings == (4, 10)
        assert exp1.replicates == 1
        exp2 = default_config(BINARY, base_seed=1)
        assert exp2.sizes == (100, 200, 300, 400, 500)
        assert exp2.proportions == (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
        assert exp2.replicates == 3
        assert exp2.n_test_pairs == 1000

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
        cfg = tiny_config(sizes=[6.0], proportions=[0], epoch_settings=[1.0])
        assert cfg == tiny_config()
        assert (type(cfg.sizes[0]), type(cfg.proportions[0]), type(cfg.epoch_settings[0])) == (int, float, int)
        with pytest.raises(ValueError, match="sizes must be an integer >= 1"):
            tiny_config(sizes=(6.5,))
        with pytest.raises(ValueError, match="epoch_settings must be an integer >= 0"):
            tiny_config(epoch_settings=(1.5,))

    @pytest.mark.parametrize("name", ["replicates", "base_seed", "n_test_pairs"])
    def test_integral_scalars_normalised(self, name):
        cfg = tiny_config(**{name: float(getattr(tiny_config(), name))})
        assert cfg == tiny_config() and type(getattr(cfg, name)) is int
        with pytest.raises(ValueError, match=f"{name} must be an integer >= "):
            tiny_config(**{name: 2.5})

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
        # --reuse reads a stored 0 back as 0.0, so both spellings must derive
        # the same seeds and the same corpus
        as_int, as_float = tiny_config(proportions=(0,)), tiny_config(proportions=(0.0,))
        for a, b in zip(expand_grid(as_int), expand_grid(as_float)):
            assert derived_seeds(as_int, a) == derived_seeds(as_float, b)
            assert a.init_seed == b.init_seed

        def corpus_hash(cfg):
            return run_cell(cfg, expand_grid(cfg)).corpus_hash

        untrained = dict(epoch_settings=(0,), replicates=1)
        assert corpus_hash(tiny_config(proportions=(0,), **untrained)) == corpus_hash(tiny_config(**untrained))

    def test_json_round_trip(self, tmp_path):
        cfg = tiny_config(proportions=(0.0, 0.25))
        path = tmp_path / "sweep.json"
        save_sweep_config(cfg, path)
        assert load_sweep_config(path) == cfg

    def test_rejects_other_format(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text('{"format": "nope"}')
        with pytest.raises(ValueError, match="quantal-sweep"):
            load_sweep_config(path)

    def test_rejects_a_v1_config(self, tmp_path):
        # v1 had a surprisal_mode key; its one value was "pll"
        path = tmp_path / "sweep.json"
        save_sweep_config(tiny_config(), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload.update(format="quantal-sweep v1", surprisal_mode="pll")
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match="not a 'quantal-sweep v2' file"):
            load_sweep_config(path)

    @pytest.mark.parametrize("change", ["unknown", "missing", "array"])
    def test_rejects_malformed_payload(self, tmp_path, change):
        path = tmp_path / "sweep.json"
        save_sweep_config(tiny_config(), path)
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
        cfg, jobs, result = tiny_cell_result
        assert result.experiment == BINARY
        assert result.n_train == 6
        assert result.epochs == 1
        assert result.replicates == 2
        assert len(result.accuracies) == 2
        assert result.mean_accuracy == pytest.approx(np.mean(result.accuracies))
        assert 0.0 <= result.mean_accuracy <= 1.0
        assert 0.0 <= result.above_chance_p <= 1.0
        assert result.n_types == 6
        assert result.n_test_pairs == 6

    def test_corpus_hash_matches_regenerated_corpus(self, tiny_cell_result):
        cfg, jobs, result = tiny_cell_result
        seeds = derived_seeds(cfg, jobs[0])
        corpus = corpora.gen_exp2_corpus(
            6, 0.0, string_len=sweep.STRING_LEN, seed=seeds["corpus_seed"]
        )
        assert result.corpus_hash == sha256_bytes(corpus.to_text().encode("utf-8"))

    def test_replicates_differ_only_in_init(self, tiny_cell_result):
        cfg, jobs, result = tiny_cell_result
        assert result.seeds[0] != result.seeds[1]
        assert result.checkpoint_hashes[0] != result.checkpoint_hashes[1]

    def test_deterministic_modulo_wall_time(self, tiny_cell_result):
        cfg, jobs, first = tiny_cell_result
        second = run_cell(cfg, jobs)
        a = {name: getattr(first, name) for name in COLUMN_NAMES if name != "wall_seconds"}
        b = {name: getattr(second, name) for name in COLUMN_NAMES if name != "wall_seconds"}
        assert a == b

    def test_seeds_follow_replicate_order(self, tiny_cell_result):
        # jobs given out of order still run, store and checkpoint in
        # replicate order
        cfg, jobs, result = tiny_cell_result
        reordered = run_cell(cfg, list(reversed(jobs)))
        assert [j.replicate_index for j in jobs] == [0, 1]
        assert reordered.seeds == result.seeds == tuple(j.init_seed for j in jobs)
        assert reordered.checkpoint_hashes == result.checkpoint_hashes

    def test_rejects_mixed_cells(self):
        cfg = tiny_config(sizes=(6, 7), replicates=1)
        jobs = expand_grid(cfg)
        with pytest.raises(ValueError, match="one cell"):
            run_cell(cfg, jobs)

    def test_artifacts_written(self, tmp_path):
        cfg = tiny_config(replicates=1)
        jobs = expand_grid(cfg)
        result = run_cell(cfg, jobs, artifacts_dir=tmp_path)
        cell_dir = tmp_path / "binary_n6_p0.0_e1"
        written = {"corpus.txt", "pairs.tsv", "replicate0.ckpt", "manifest.json"}
        assert {path.name for path in cell_dir.iterdir()} == written
        manifest = json.loads((cell_dir / "manifest.json").read_text())
        assert manifest["format"] == "quantal-manifest v2"
        assert manifest["config"]["base_seed"] == 77
        assert manifest["cell"]["corpus_hash"] == result.corpus_hash
        assert set(manifest["derived_seeds"]) == {
            "vocab_seed", "corpus_seed", "pairs_seed", "train_seed",
        }
        # the checkpoint embeds the cell's tokenizer: its text hashes to the
        # manifest's tokenizer_hash
        raw = (cell_dir / "replicate0.ckpt").read_bytes()
        header = json.loads(raw[len(MAGIC):].split(b"\n", 1)[0])
        assert sha256_bytes(header["tokenizer"].encode("utf-8")) == result.tokenizer_hash
        assert manifest["cell"]["tokenizer_hash"] == result.tokenizer_hash
        state, meta = load_checkpoint(cell_dir / "replicate0.ckpt")
        assert tokenizer_sha256(meta["tokenizer"]) == result.tokenizer_hash
        assert meta["experiment"] == BINARY
        assert state_digest(state) == result.checkpoint_hashes[0]

    def test_untrained_cell_takes_no_optimizer_step(self, tmp_path):
        cfg = tiny_config(epoch_settings=(0,))
        jobs = expand_grid(cfg)
        result = run_cell(cfg, jobs, artifacts_dir=tmp_path)
        assert result.epochs == 0
        cell_dir = tmp_path / "binary_n6_p0.0_e0"
        vocab_size = load_checkpoint(cell_dir / "replicate0.ckpt")[1]["tokenizer"].vocab_size
        for r, job in enumerate(jobs):
            fresh = init_model(ModelConfig(vocab_size=vocab_size), seed=job.init_seed)
            assert result.checkpoint_hashes[r] == state_digest(fresh)

    def test_untrained_cell_shares_data_with_trained(self, tiny_cell_result):
        cfg, _, trained = tiny_cell_result
        untrained_cfg = tiny_config(epoch_settings=(0,))
        untrained = run_cell(untrained_cfg, expand_grid(untrained_cfg))
        assert untrained.corpus_hash == trained.corpus_hash
        assert untrained.tokenizer_hash == trained.tokenizer_hash
        assert not set(untrained.seeds) & set(trained.seeds)

    def test_word_order_cell_runs(self):
        cfg = tiny_config(
            experiment=WORD_ORDER, sizes=(4,), replicates=1, n_test_pairs=4
        )
        jobs = expand_grid(cfg)
        result = run_cell(cfg, jobs)
        assert result.experiment == WORD_ORDER
        assert result.n_types == 4
        assert len(result.accuracies) == 1


class TestStore:
    def test_round_trip(self, tmp_path, tiny_cell_result):
        _, _, result = tiny_cell_result
        store = tmp_path / "results.csv"
        append_result(store, result)
        rows = load_results(store)
        assert len(rows) == 1
        expected = {name: getattr(result, name) for name in COLUMN_NAMES}
        expected["wall_seconds"] = float(f"{result.wall_seconds:.3f}")
        assert rows[0] == expected

    def test_header_written_once(self, tmp_path, tiny_cell_result):
        _, _, result = tiny_cell_result
        store = tmp_path / "results.csv"
        append_result(store, result)
        append_result(store, result)
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
        # a store written before n_test_pairs had a column, whatever its rows
        _, _, result = tiny_cell_result
        store = tmp_path / "results.csv"
        store.write_text(V1_HEADER)
        with pytest.raises(ValueError, match="schema"):
            load_results(store)
        with pytest.raises(ValueError, match="schema"):
            append_result(store, result)
        assert store.read_text() == V1_HEADER

    @pytest.mark.parametrize("name", ["binary.csv", "word_order.csv"])
    def test_committed_store_rewrites_byte_for_byte(self, tmp_path, name):
        committed = ACCEPTANCE_DIR / name
        store = tmp_path / name
        for row in load_results(committed):
            fields = {k: v for k, v in row.items() if k != "replicates"}
            empty = ("",) * row["replicates"]
            append_result(store, SweepCellResult(**fields, tokenizer_hash="", checkpoint_hashes=empty))
        assert store.read_bytes() == committed.read_bytes()

    def test_concurrent_appends_do_not_interleave(self, tmp_path, tiny_cell_result):
        _, _, result = tiny_cell_result
        store = tmp_path / "results.csv"
        with ThreadPoolExecutor(max_workers=8) as pool:
            for f in [pool.submit(append_result, store, result) for _ in range(80)]:
                f.result()
        rows = load_results(store)
        assert len(rows) == 80
        assert store.read_text().splitlines()[0] == ",".join(COLUMN_NAMES)


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
        results, skipped, failures = run_sweep(cfg, store)
        assert len(results) == 2
        assert skipped == [] and failures == []
        assert len(load_results(store)) == 2

        again = run_sweep(cfg, store, reuse=True)
        assert again[0] == [] and len(again[1]) == 2 and again[2] == []
        assert len(load_results(store)) == 2

    @pytest.mark.parametrize("changed", [dict(base_seed=2), dict(replicates=2), dict(n_test_pairs=4)])
    def test_reuse_tells_cells_apart(self, tmp_path, changed):
        # same coordinates, different seeds or test pairs: the second sweep
        # must run
        store = tmp_path / "results.csv"
        run_sweep(tiny_config(sizes=(5,), replicates=1, base_seed=1), store)
        results, skipped, failures = run_sweep(
            tiny_config(**{"sizes": (5,), "replicates": 1, "base_seed": 1, **changed}),
            store,
            reuse=True,
        )
        assert (len(results), skipped, failures) == (1, [], [])
        assert len(load_results(store)) == 2

    @pytest.mark.parametrize("reuse", [False, True])
    def test_foreign_store_is_refused_before_any_cell_runs(self, tmp_path, monkeypatch, reuse):
        def no_training(*args, **kwargs):
            raise AssertionError("a cell ran against a store it cannot append to")

        monkeypatch.setattr(sweep, "run_cell", no_training)
        store = tmp_path / "results.csv"
        store.write_text(V1_HEADER)
        with pytest.raises(ValueError, match="schema"):
            run_sweep(tiny_config(), store, reuse=reuse)

    def test_cell_failure_is_isolated(self, tmp_path):
        # 70000 binary strings cannot be unique at length 16, so that
        # cell fails during generation while the other cell completes
        cfg = tiny_config(sizes=(5, 70000), replicates=1)
        store = tmp_path / "results.csv"
        results, skipped, failures = run_sweep(cfg, store)
        assert len(results) == 1
        assert len(failures) == 1
        assert "70000" in failures[0][0]
        assert len(load_results(store)) == 1

    def test_worker_pool_matches_serial(self, tmp_path):
        cfg = tiny_config(sizes=(5,), proportions=(0.0, 0.5), replicates=1)
        serial_store = tmp_path / "serial.csv"
        pooled_store = tmp_path / "pooled.csv"
        run_sweep(cfg, serial_store)
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
        assert failures == [("binary n=6 prop=0.5 epochs=1", repr(RuntimeError("replicate failed")))]
        assert [row["exception_prop"] for row in load_results(store)] == [0.0, 1.0]
        assert (len(results), skipped) == (2, [])

        monkeypatch.undo()
        results, skipped, failures = run_sweep(cfg, store, reuse=True)
        assert [r.exception_prop for r in results] == [0.5] and failures == []
        assert len(skipped) == 2
        assert [row["exception_prop"] for row in load_results(store)] == [0.0, 1.0, 0.5]

    def test_pool_never_has_more_workers_than_tasks(self, tmp_path, inline_pool):
        sizes = inline_pool
        store = tmp_path / "results.csv"
        cfg = tiny_config(replicates=3)
        results, _, _ = run_sweep(cfg, store, workers=64)
        assert sizes == [3] and len(results) == 1
        run_sweep(tiny_config(replicates=3, proportions=(0.0, 0.5)), store, workers=2, reuse=True)
        assert sizes == [3, 2]
        # --reuse skips every cell: no pool at all
        _, skipped, _ = run_sweep(cfg, store, workers=64, reuse=True)
        assert sizes == [3, 2] and len(skipped) == 1

    def test_serial_sweep_builds_a_size_and_proportion_once(self, tmp_path, tokenizer_builds):
        # data seeds ignore the epoch setting, so the 0- and 1-epoch cells
        # share one build, as do the replicates within each
        cfg = tiny_config(epoch_settings=(0, 1), replicates=2)
        results, _, failures = run_sweep(cfg, tmp_path / "results.csv")
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


class TestCommittedStores:
    def test_every_committed_file_loads(self):
        # a change of format must rewrite each of them; no other test reads
        # the demo store
        stores = sorted([*ACCEPTANCE_DIR.glob("*.csv"), ROOT / "demos" / "output" / "demo_sweep.csv"])
        configs = sorted((ACCEPTANCE_DIR / "configs").glob("*.json"))
        assert (len(stores), len(configs)) == (3, 6)
        for path in stores:
            assert load_results(path), path
        for path in configs:
            load_sweep_config(path)

    @pytest.mark.parametrize(
        "config", sorted(p.name for p in (ACCEPTANCE_DIR / "configs").glob("*.json"))
    )
    def test_every_configured_cell_is_stored(self, config, monkeypatch):
        # replaying a committed config against its store must train nothing
        def no_training(*args, **kwargs):
            raise AssertionError("cell missing from the committed store")

        monkeypatch.setattr(sweep, "run_cell", no_training)
        cfg = load_sweep_config(ACCEPTANCE_DIR / "configs" / config)
        store = ACCEPTANCE_DIR / f"{cfg.experiment}.csv"
        results, skipped, failures = run_sweep(cfg, store, reuse=True)
        n_cells = len(cfg.sizes) * len(cfg.proportions) * len(cfg.epoch_settings)
        assert (results, failures) == ([], [])
        assert len(skipped) == n_cells

    @pytest.mark.parametrize(
        "config", sorted(p.name for p in (ACCEPTANCE_DIR / "configs").glob("*.json"))
    )
    def test_stored_corpus_hash_is_the_regenerated_corpus(self, config):
        # --reuse compares keys only, so this is what sees a change in the
        # generated bytes.  Data seeds ignore the epoch setting and every
        # committed config has one base seed, so every stored row at a
        # cell's (n, prop) trained on the same corpus.
        cfg = load_sweep_config(ACCEPTANCE_DIR / "configs" / config)
        rows = load_results(ACCEPTANCE_DIR / f"{cfg.experiment}.csv")
        for n_train in cfg.sizes:
            for prop in cfg.proportions:
                _, corpus, _ = sweep.cell_data(cfg.experiment, cfg.base_seed, n_train, prop, cfg.n_test_pairs)
                stored = [row["corpus_hash"] for row in rows if (row["n_train"], row["exception_prop"]) == (n_train, prop)]
                assert stored and set(stored) == {corpora.corpus_sha256(corpus)}
