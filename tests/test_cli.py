"""Command-line behavior: artifacts, exit codes, JSON diagnostics."""

import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from quantal import bpe, corpora
from quantal.checkpoint import load_checkpoint
from quantal.cli import main
from quantal.scoring import read_eval_report
from quantal.sweep import (
    SweepCellResult,
    SweepConfig,
    append_result,
    expand_grid,
    load_results,
    run_cell,
    save_sweep_config,
)

ACCEPTANCE_DIR = Path(__file__).resolve().parents[1] / "results" / "acceptance"


def run(*argv):
    return main([str(a) for a in argv])


def file_hash(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def synthetic_store(path, accs_by_prop, n_train=55, epochs=10):
    for prop, acc in accs_by_prop.items():
        result = SweepCellResult(
            experiment=corpora.BINARY,
            n_train=n_train,
            exception_prop=prop,
            epochs=epochs,
            seeds=(1,),
            accuracies=(acc,),
            mean_accuracy=acc,
            n_types=n_train,
            above_chance_p=0.5,
            surprisal_mode="pll",
            corpus_hash="0" * 64,
            tokenizer_hash="0" * 64,
            checkpoint_hashes=("0" * 64,),
            wall_seconds=0.1,
        )
        append_result(path, result)


class TestGen:
    def test_exp1_threshold_configuration(self, tmp_path, capsys):
        # 16 types at proportion 0.3125 puts exactly 5 exceptions in the file
        out = tmp_path / "d"
        assert run("gen", "--exp", 1, "--n", 16, "--prop", 0.3125,
                   "--seed", 7, "--out-dir", out, "--pairs", 5) == 0
        corpus = corpora.read_corpus(out / "corpus.txt", corpora.WORD_ORDER)
        assert corpus.n_types == 16
        assert corpus.exception_count == 5
        assert (out / "vocabulary.txt").exists()
        assert (out / "pairs.tsv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exception_count"] == 5
        assert "wrote" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("gen", "--exp", 1, "--n", 10, "--prop", 0.1,
                       "--seed", 3, "--out-dir", out, "--pairs", 4) == 0
        for name in ("corpus.txt", "pairs.tsv", "vocabulary.txt"):
            assert file_hash(a / name) == file_hash(b / name)

    def test_exp2_all_rule(self, tmp_path):
        out = tmp_path / "d"
        assert run("gen", "--exp", 2, "--n", 100, "--prop", 0,
                   "--seed", 5, "--out-dir", out, "--pairs", 3) == 0
        lines = (out / "corpus.txt").read_text().splitlines()
        assert len(lines) == 100
        assert all(line.startswith("1") for line in lines)
        assert not (out / "vocabulary.txt").exists()

    def test_bad_proportion_is_usage_error(self, tmp_path, capsys):
        rc = run("gen", "--exp", 2, "--n", 10, "--prop", 1.5,
                 "--seed", 1, "--out-dir", tmp_path / "d")
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "usage"
        assert "prop" in err["error"]

    def test_missing_flag_is_usage_error(self, capsys):
        assert run("gen", "--exp", 2) == 2

    @pytest.mark.parametrize("exp, experiment, n_train", [
        (2, corpora.BINARY, 50),
        (1, corpora.WORD_ORDER, 1000),
    ])
    def test_seed_is_base_seed_of_stored_cell(self, tmp_path, exp, experiment, n_train):
        # --seed 101 is the committed configs' base_seed, so gen writes the
        # corpus of the stored (n, 0.0) cell
        out = tmp_path / "d"
        assert run("gen", "--exp", exp, "--n", n_train, "--prop", 0.0,
                   "--seed", 101, "--out-dir", out, "--pairs", 10) == 0
        stored = {
            row["corpus_hash"]
            for row in load_results(ACCEPTANCE_DIR / f"{experiment}.csv")
            if (row["n_train"], row["exception_prop"]) == (n_train, 0.0)
        }
        assert stored == {file_hash(out / "corpus.txt")}

    @pytest.mark.parametrize("exp, experiment", [(1, corpora.WORD_ORDER), (2, corpora.BINARY)])
    def test_gen_then_train_replays_a_sweep_cell(self, tmp_path, exp, experiment):
        cfg = SweepConfig(experiment=experiment, sizes=(4,), proportions=(0.25,),
                          epoch_settings=(0,), replicates=1, base_seed=13, n_test_pairs=4)
        cell = run_cell(cfg, expand_grid(cfg), artifacts_dir=tmp_path / "art")
        cell_dir = tmp_path / "art" / f"{experiment}_n4_p0.25_e0"
        out = tmp_path / "d"
        assert run("gen", "--exp", exp, "--n", 4, "--prop", 0.25,
                   "--seed", 13, "--out-dir", out, "--pairs", 4) == 0
        vocab = ["--vocab", out / "vocabulary.txt"] if exp == 1 else []
        assert run("train", "--corpus", out / "corpus.txt", "--exp", exp, "--seed", 13,
                   "--out", tmp_path / "m.ckpt", "--init-only", *vocab) == 0
        assert file_hash(out / "corpus.txt") == cell.corpus_hash
        assert file_hash(out / "pairs.tsv") == file_hash(cell_dir / "pairs.tsv")
        assert file_hash(tmp_path / "m.ckpt.tok") == cell.tokenizer_hash


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert run("gen", "--exp", 2, "--n", 8, "--prop", 0, "--seed", 11,
               "--out-dir", data, "--pairs", 4) == 0
    ckpt = root / "model.ckpt"
    assert run("train", "--corpus", data / "corpus.txt", "--exp", 2,
               "--epochs", 1, "--seed", 3, "--out", ckpt) == 0
    return root, data, ckpt


class TestTrainEval:
    def test_train_writes_checkpoint_and_tokenizer(self, artifacts):
        root, data, ckpt = artifacts
        assert ckpt.exists()
        assert (root / "model.ckpt.tok").exists()

    def test_eval_writes_report(self, artifacts, capsys):
        root, data, ckpt = artifacts
        out = root / "eval.json"
        assert run("eval", "--checkpoint", ckpt, "--tokenizer", root / "model.ckpt.tok",
                   "--pairs", data / "pairs.tsv", "--exp", 2, "--out", out) == 0
        report = read_eval_report(out)
        assert report.n_pairs == 4
        assert 0.0 <= report.accuracy <= 1.0
        assert "accuracy" in capsys.readouterr().out

    def test_eval_vocab_mismatch(self, artifacts, tmp_path, capsys):
        root, data, ckpt = artifacts
        other = bpe.train_tokenizer([(data / "corpus.txt").read_text()], 8)
        tok_path = tmp_path / "small.tok"
        bpe.save_tokenizer(other, tok_path)
        rc = run("eval", "--checkpoint", ckpt, "--tokenizer", tok_path,
                 "--pairs", data / "pairs.tsv", "--exp", 2, "--out", tmp_path / "r.json")
        assert rc == 1
        assert "vocab" in json.loads(capsys.readouterr().err)["error"]

    def test_init_only_skips_training(self, artifacts, tmp_path, capsys):
        root, data, ckpt = artifacts
        out = tmp_path / "fresh.ckpt"
        assert run("train", "--corpus", data / "corpus.txt", "--exp", 2,
                   "--seed", 3, "--out", out, "--init-only") == 0
        assert "untrained checkpoint" in capsys.readouterr().out

    def test_epochs_required_without_init_only(self, artifacts, capsys):
        root, data, ckpt = artifacts
        rc = run("train", "--corpus", data / "corpus.txt", "--exp", 2,
                 "--seed", 3, "--out", root / "x.ckpt")
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "usage"

    def test_missing_checkpoint_is_runtime_error(self, tmp_path, capsys):
        rc = run("eval", "--checkpoint", tmp_path / "nope.ckpt",
                 "--tokenizer", tmp_path / "nope.tok",
                 "--pairs", tmp_path / "nope.tsv", "--exp", 2,
                 "--out", tmp_path / "r.json")
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["kind"] == "runtime"


class TestSweepCommand:
    def write_config(self, path, **overrides):
        fields = dict(
            experiment=corpora.BINARY,
            sizes=(5,),
            proportions=(0.0,),
            epoch_settings=(1,),
            replicates=1,
            base_seed=9,
            n_test_pairs=4,
        )
        fields.update(overrides)
        save_sweep_config(SweepConfig(**fields), path)

    def test_one_cell_sweep_writes_one_row(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        store = tmp_path / "results.csv"
        self.write_config(cfg)
        assert run("sweep", "--config", cfg, "--store", store) == 0
        assert len(load_results(store)) == 1
        assert "1 cells run" in capsys.readouterr().out

    def test_reuse_skips_completed_cells(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        store = tmp_path / "results.csv"
        self.write_config(cfg)
        assert run("sweep", "--config", cfg, "--store", store) == 0
        assert run("sweep", "--config", cfg, "--store", store, "--reuse") == 0
        assert "1 reused" in capsys.readouterr().out
        assert len(load_results(store)) == 1

    def test_log_lines_are_flushed(self, tmp_path, monkeypatch):
        # with stdout redirected to a file, progress must not wait for exit
        class FlushRecorder(io.StringIO):
            def __init__(self):
                super().__init__()
                self.flushed = []

            def flush(self):
                self.flushed.append(self.getvalue())
                super().flush()

        out = FlushRecorder()
        monkeypatch.setattr(sys, "stdout", out)
        cfg = tmp_path / "sweep.json"
        self.write_config(cfg)
        assert run("sweep", "--config", cfg, "--store", tmp_path / "r.csv") == 0
        assert any("done binary n=5" in text for text in out.flushed)

    def test_untrained_cell_artifacts_have_no_train_config(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        self.write_config(cfg, epoch_settings=(0,), replicates=2)
        assert run("sweep", "--config", cfg, "--store", tmp_path / "r.csv",
                   "--artifacts", tmp_path / "art") == 0
        ckpts = sorted((tmp_path / "art").glob("*/replicate*.ckpt"))
        assert len(ckpts) == 2
        for ckpt in ckpts:
            state, meta = load_checkpoint(ckpt)
            assert meta["train_config"] is None
            assert state.step == 0

    def test_identical_runs_identical_csv_modulo_timing(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        self.write_config(cfg)
        stores = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for store in stores:
            assert run("sweep", "--config", cfg, "--store", store) == 0

        def stripped(store):
            lines = store.read_text().splitlines()
            return [",".join(line.split(",")[:-1]) for line in lines]

        a, b = (stripped(s) for s in stores)
        assert a == b
        assert hashlib.sha256("\n".join(a).encode()).hexdigest() == \
            hashlib.sha256("\n".join(b).encode()).hexdigest()

    def test_missing_config_is_runtime_error(self, tmp_path, capsys):
        rc = run("sweep", "--config", tmp_path / "nope.json",
                 "--store", tmp_path / "r.csv")
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["kind"] == "runtime"


class TestAnalyzeCommand:
    def test_step_data_classified_significant(self, tmp_path, capsys):
        store = tmp_path / "results.csv"
        synthetic_store(store, {
            0.0: 0.96, 0.1: 0.95, 0.2: 0.94,
            0.3: 0.55, 0.4: 0.54, 0.5: 0.53,
        })
        out = tmp_path / "report.txt"
        assert run("analyze", "--table", store, "--n-train", 55,
                   "--epochs", 10, "--out", out) == 0
        assert "quantal-jump-detected" in capsys.readouterr().out
        assert "quantal-jump-detected" in out.read_text()

    def test_missing_column_is_runtime_error(self, tmp_path, capsys):
        store = tmp_path / "results.csv"
        synthetic_store(store, {0.0: 0.9})
        rc = run("analyze", "--table", store, "--n-train", 99,
                 "--epochs", 10, "--out", tmp_path / "r.txt")
        assert rc == 1


class TestPlotCommand:
    def filled_store(self, tmp_path):
        store = tmp_path / "results.csv"
        synthetic_store(store, {
            0.0: 0.96, 0.1: 0.95, 0.2: 0.94,
            0.3: 0.55, 0.4: 0.54, 0.5: 0.53,
        })
        return store

    def test_heatmap(self, tmp_path):
        store = self.filled_store(tmp_path)
        out = tmp_path / "fig.svg"
        assert run("plot", "--kind", "heatmap", "--table", store,
                   "--epochs", 10, "--out", out) == 0
        svg = out.read_text()
        assert svg.count('class="cell"') == 6
        assert 'class="tp-curve"' in svg

    def test_column_regression(self, tmp_path):
        store = self.filled_store(tmp_path)
        out = tmp_path / "col.svg"
        assert run("plot", "--kind", "column_regression", "--table", store,
                   "--epochs", 10, "--n-train", 55, "--out", out) == 0
        svg = out.read_text()
        assert 'class="stitch"' in svg
        assert svg.count('class="point"') == 6

    def test_column_needs_n_train(self, tmp_path, capsys):
        store = self.filled_store(tmp_path)
        rc = run("plot", "--kind", "column_regression", "--table", store,
                 "--epochs", 10, "--out", tmp_path / "x.svg")
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "usage"

    def test_empty_table_is_runtime_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        rc = run("plot", "--kind", "heatmap", "--table", empty,
                 "--epochs", 10, "--out", tmp_path / "x.svg")
        assert rc == 1

    def test_bad_range_is_usage_error(self, tmp_path, capsys):
        store = self.filled_store(tmp_path)
        rc = run("plot", "--kind", "heatmap", "--table", store,
                 "--epochs", 10, "--out", tmp_path / "x.svg",
                 "--x-range", "oops")
        assert rc == 2
