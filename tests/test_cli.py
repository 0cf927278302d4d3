"""Command-line behavior: artifacts, exit codes, JSON diagnostics."""

import argparse
import hashlib
import io
import json
import re
import shlex
import sys
from pathlib import Path

import pytest

from quantal import bpe, corpora
from quantal.checkpoint import MAGIC, load_checkpoint
from quantal.cli import build_parser, main
from quantal.sweep import (
    SweepCellResult,
    SweepConfig,
    append_result,
    cell_tokenizer,
    expand_grid,
    load_results,
    run_cell,
    save_sweep_config,
    train_replicate,
)
from quantal.util import stable_seed

ROOT = Path(__file__).resolve().parents[1]
ACCEPTANCE_DIR = ROOT / "results" / "acceptance"


def run(*argv):
    return main([str(a) for a in argv])


def file_hash(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def embedded_tokenizer_text(ckpt):
    """The tokenizer text in a checkpoint's header, as the file holds it."""
    return json.loads(ckpt.read_bytes()[len(MAGIC) :].split(b"\n", 1)[0])["tokenizer"]


def rewrite_header(src, dst, change):
    header_line, _, rest = src.read_bytes()[len(MAGIC) :].partition(b"\n")
    header = json.loads(header_line)
    change(header)
    dst.write_bytes(MAGIC + json.dumps(header).encode() + b"\n" + rest)


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
            n_test_pairs=1000,
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

    @pytest.mark.parametrize("pairs", [0, -3])
    def test_nonpositive_pairs_is_usage_error(self, tmp_path, capsys, pairs):
        rc = run("gen", "--exp", 2, "--n", 10, "--prop", 0,
                 "--seed", 1, "--out-dir", tmp_path / "d", "--pairs", pairs)
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "usage"
        assert "--pairs" in err["error"]
        assert not (tmp_path / "d").exists()

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        # --seed is a base_seed, and no sweep config accepts a negative one
        rc = run("gen", "--exp", 2, "--n", 10, "--prop", 0,
                 "--seed", -1, "--out-dir", tmp_path / "d")
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "usage"
        assert "--seed" in err["error"]
        assert not (tmp_path / "d").exists()

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
                   "--out", tmp_path / "m.ckpt", "--epochs", 0, *vocab) == 0
        # every file gen writes is the artifact cell directory's file, byte for byte
        written = json.loads((out / "manifest.json").read_text())["files"].values()
        shared = ["corpus.txt", "pairs.tsv"] + (["vocabulary.txt"] if exp == 1 else [])
        assert sorted(written) == sorted(shared)
        assert (cell_dir / "vocabulary.txt").exists() == (exp == 1)
        for name in shared:
            assert file_hash(out / name) == file_hash(cell_dir / name), name
        assert file_hash(out / "corpus.txt") == cell.corpus_hash
        # both checkpoints embed the cell's tokenizer text, byte for byte
        text = embedded_tokenizer_text(tmp_path / "m.ckpt")
        assert text == embedded_tokenizer_text(cell_dir / "replicate0.ckpt")
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == cell.tokenizer_hash


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
    def test_train_writes_checkpoint_and_tokenizer(self, artifacts, tmp_path, capsys):
        # one file: the checkpoint embeds the tokenizer and the experiment
        root, data, ckpt = artifacts
        out = tmp_path / "m.ckpt"
        assert run("train", "--corpus", data / "corpus.txt", "--exp", 2,
                   "--epochs", 1, "--seed", 3, "--out", out) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]
        assert file_hash(out) == file_hash(ckpt)
        _, meta = load_checkpoint(out)
        corpus = corpora.read_corpus(data / "corpus.txt", corpora.BINARY)
        assert meta["tokenizer"] == cell_tokenizer(corpora.BINARY, corpus)
        assert meta["experiment"] == corpora.BINARY
        # training appends one loss per batch, so the line names the last batch
        state, _ = train_replicate(meta["tokenizer"], corpus, stable_seed(3, "init"), 1, stable_seed(3, "train"))
        assert len(state.loss_history) == state.step
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"last batch loss {state.loss_history[-1]:.4f} over {state.step} steps"
        )

    def test_eval_writes_report(self, artifacts, capsys):
        root, data, ckpt = artifacts
        out = root / "eval.json"
        assert run("eval", "--checkpoint", ckpt, "--pairs", data / "pairs.tsv", "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["format"] == "quantal-eval v2"
        assert set(report) == {"format", "n_pairs", "n_preferred", "accuracy", "per_pair_scores"}
        assert report["n_pairs"] == len(report["per_pair_scores"]) == 4
        assert 0.0 <= report["accuracy"] <= 1.0
        assert capsys.readouterr().out.splitlines()[-1] == f"accuracy {report['accuracy']:.4f} (4 pairs)"

    def test_eval_scores_a_sweep_artifact_checkpoint(self, tmp_path):
        cfg = SweepConfig(experiment=corpora.BINARY, sizes=(8,), proportions=(0.0,),
                          epoch_settings=(1,), replicates=1, base_seed=11, n_test_pairs=4)
        cell = run_cell(cfg, expand_grid(cfg), artifacts_dir=tmp_path)
        cell_dir = tmp_path / "binary_n8_p0.0_e1"
        out = tmp_path / "r.json"
        assert run("eval", "--checkpoint", cell_dir / "replicate0.ckpt",
                   "--pairs", cell_dir / "pairs.tsv", "--out", out) == 0
        assert json.loads(out.read_text())["accuracy"] == cell.accuracies[0]

    def test_eval_vocab_mismatch(self, artifacts, tmp_path, capsys):
        # the embedded tokenizer's vocabulary must be the model's
        root, data, ckpt = artifacts
        other = bpe.train_tokenizer([(data / "corpus.txt").read_text()], 8)
        bad = tmp_path / "small.ckpt"
        rewrite_header(ckpt, bad, lambda h: h.update(tokenizer=bpe.save_tokenizer_text(other)))
        rc = run("eval", "--checkpoint", bad, "--pairs", data / "pairs.tsv", "--out", tmp_path / "r.json")
        assert rc == 1
        assert "vocab" in json.loads(capsys.readouterr().err)["error"]
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("broken", ["v1", "experiment", "n_heads", "learning_rate"])
    def test_eval_refuses_checkpoint(self, artifacts, tmp_path, capsys, broken):
        root, data, ckpt = artifacts
        bad = tmp_path / "bad.ckpt"
        if broken == "v1":
            bad.write_bytes(b"quantal-ckpt v1\n" + ckpt.read_bytes()[len(MAGIC) :])
        elif broken == "experiment":
            rewrite_header(ckpt, bad, lambda h: h.update(experiment="music"))
        elif broken == "n_heads":  # hidden % n_heads would divide by zero
            rewrite_header(ckpt, bad, lambda h: h["model_config"].update(n_heads=0))
        else:
            rewrite_header(ckpt, bad, lambda h: h["train_config"].update(learning_rate="fast"))
        rc = run("eval", "--checkpoint", bad, "--pairs", data / "pairs.tsv", "--out", tmp_path / "r.json")
        assert rc == 1
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1
        err = json.loads(err_lines[0])
        assert err["kind"] == "runtime"
        want = {"v1": "quantal-ckpt v2", "experiment": "unknown experiment", "n_heads": "bad model_config",
                "learning_rate": "bad train_config"}
        assert want[broken] in err["error"]
        assert not (tmp_path / "r.json").exists()

    def test_eval_refuses_pairs_of_the_other_experiment(self, artifacts, tmp_path, capsys):
        # both directions: a binary model with word-order pairs, and a
        # word-order model with binary pairs
        root, data, binary_ckpt = artifacts
        wo = tmp_path / "wo"
        assert run("gen", "--exp", 1, "--n", 4, "--prop", 0.0, "--seed", 5,
                   "--out-dir", wo, "--pairs", 3) == 0
        wo_ckpt = tmp_path / "wo.ckpt"
        assert run("train", "--corpus", wo / "corpus.txt", "--exp", 1, "--epochs", 0,
                   "--seed", 5, "--out", wo_ckpt) == 0
        capsys.readouterr()
        for ckpt, pairs, want in [
            (binary_ckpt, wo / "pairs.tsv", "not a binary string"),
            (wo_ckpt, data / "pairs.tsv", "not a shift sentence"),
        ]:
            rc = run("eval", "--checkpoint", ckpt, "--pairs", pairs, "--out", tmp_path / "r.json")
            assert rc == 1
            err = json.loads(capsys.readouterr().err)
            assert err["kind"] == "runtime"
            assert f"pairs.tsv line 2: {want}" in err["error"]
            assert not (tmp_path / "r.json").exists()

    def test_epochs_zero_writes_untrained_checkpoint(self, artifacts, tmp_path, capsys):
        root, data, ckpt = artifacts
        out = tmp_path / "fresh.ckpt"
        assert run("train", "--corpus", data / "corpus.txt", "--exp", 2,
                   "--epochs", 0, "--seed", 3, "--out", out) == 0
        assert "untrained checkpoint" in capsys.readouterr().out
        state, meta = load_checkpoint(out)
        assert state.step == 0
        assert meta["train_config"] is None
        assert meta["tokenizer"] == load_checkpoint(ckpt)[1]["tokenizer"]

    def test_negative_epochs_is_usage_error(self, artifacts, tmp_path, capsys):
        root, data, ckpt = artifacts
        rc = run("train", "--corpus", data / "corpus.txt", "--exp", 2,
                 "--epochs", -1, "--seed", 3, "--out", tmp_path / "x.ckpt")
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "usage"
        assert "epochs" in err["error"]
        assert not (tmp_path / "x.ckpt").exists()

    def test_negative_seed_is_usage_error(self, artifacts, tmp_path, capsys):
        # as for gen: a seed is never negative
        root, data, ckpt = artifacts
        rc = run("train", "--corpus", data / "corpus.txt", "--exp", 2,
                 "--epochs", 1, "--seed", -5, "--out", tmp_path / "x.ckpt")
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "usage"
        assert "--seed" in err["error"]
        assert not (tmp_path / "x.ckpt").exists()

    @pytest.mark.parametrize("flags", [[], ["--epochs", 0, "--init-only"]],
                             ids=["missing-epochs", "init-only"])
    def test_epochs_is_the_only_training_switch(self, artifacts, tmp_path, flags):
        root, data, ckpt = artifacts
        rc = run("train", "--corpus", data / "corpus.txt", "--exp", 2,
                 "--seed", 3, "--out", tmp_path / "x.ckpt", *flags)
        assert rc == 2
        assert not (tmp_path / "x.ckpt").exists()

    @pytest.mark.parametrize("broken", ["tokenizer", "pairs", "checkpoint"])
    def test_malformed_input_is_runtime_error(self, artifacts, tmp_path, capsys, broken):
        root, data, ckpt = artifacts
        paths = {"checkpoint": ckpt, "pairs": data / "pairs.tsv"}
        if broken == "tokenizer":  # the checkpoint's embedded tokenizer
            paths["checkpoint"] = tmp_path / "bad.ckpt"
            rewrite_header(ckpt, paths["checkpoint"], lambda h: h.update(tokenizer="quantal-bpe v1\n"))
        elif broken == "pairs":
            paths["pairs"] = tmp_path / "pairs.tsv"
            paths["pairs"].write_text("")
        else:
            paths["checkpoint"] = tmp_path / "bad.ckpt"
            rewrite_header(ckpt, paths["checkpoint"], lambda h: h.pop("tensors"))
        rc = run("eval", "--checkpoint", paths["checkpoint"], "--pairs", paths["pairs"],
                 "--out", tmp_path / "r.json")
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["kind"] == "runtime"

    def test_missing_checkpoint_is_runtime_error(self, tmp_path, capsys):
        rc = run("eval", "--checkpoint", tmp_path / "nope.ckpt",
                 "--pairs", tmp_path / "nope.tsv",
                 "--out", tmp_path / "r.json")
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["kind"] == "runtime"


# Every option of every subcommand.  A new knob must be added here, so it
# shows up in review.
OPTIONS = {
    "gen": {"--exp", "--n", "--prop", "--seed", "--out-dir", "--pairs"},
    "train": {"--corpus", "--exp", "--epochs", "--seed", "--out", "--vocab"},
    "eval": {"--checkpoint", "--pairs", "--out"},
    "sweep": {"--config", "--store", "--artifacts", "--reuse", "--workers"},
    "analyze": {"--table", "--n-train", "--epochs", "--out"},
    "plot": {"--kind", "--table", "--epochs", "--n-train", "--out"},
}


def test_option_sets_are_pinned():
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    found = {
        name: {opt for action in sub._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, sub in subparsers.choices.items()
    }
    assert found == OPTIONS


def test_every_option_is_named_in_readme():
    # `--n` must not count as named because README mentions `--n-train`
    readme = (ROOT / "README.md").read_text()
    missing = sorted(
        opt
        for opts in OPTIONS.values()
        for opt in opts
        if not re.search(re.escape(opt) + r"(?![A-Za-z0-9-])", readme)
    )
    assert not missing, f"options README never names: {missing}"


def readme_commands():
    """Argument lists of every `quantal ...` line in README's sh blocks,
    with backslash continuations joined."""
    blocks = re.findall(r"^```sh\n(.*?)^```", (ROOT / "README.md").read_text(), flags=re.S | re.M)
    commands = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["quantal"]:
                commands.append(argv[1:])
    return commands


def test_readme_commands_parse():
    # a renamed or deleted flag fails here, not in a reader's shell
    commands = readme_commands()
    assert {argv[0] for argv in commands} == set(OPTIONS)
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: quantal {shlex.join(argv)}")


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

    def test_unknown_config_key_is_runtime_error(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        self.write_config(cfg)
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "learning_rate": 1e-3}))
        rc = run("sweep", "--config", cfg, "--store", tmp_path / "r.csv")
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["kind"] == "runtime"
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("workers", [0, -2])
    def test_nonpositive_workers_is_usage_error(self, tmp_path, capsys, workers):
        cfg = tmp_path / "sweep.json"
        self.write_config(cfg)
        rc = run("sweep", "--config", cfg, "--store", tmp_path / "r.csv", "--workers", workers)
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "usage" and "--workers" in err["error"]
        assert not (tmp_path / "r.csv").exists()


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
