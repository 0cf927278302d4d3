"""Command-line behavior: artifacts, exit codes, JSON diagnostics."""

import argparse
import hashlib
import io
import json
import re
import shlex
import shutil
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from quantal import bpe, cli, corpora, sweep
from quantal.checkpoint import MAGIC, load_checkpoint
from quantal.cli import build_parser, main
from quantal.sweep import (
    SweepConfig,
    append_result,
    cell_tokenizer,
    expand_grid,
    load_results,
    run_cell,
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
        row = dict(
            experiment=corpora.BINARY,
            n_train=n_train,
            exception_prop=prop,
            epochs=epochs,
            replicates=1,
            seeds=(1,),
            accuracies=(acc,),
            mean_accuracy=acc,
            above_chance_p=0.5,
            n_test_pairs=1000,
            corpus_hash="0" * 64,
            wall_seconds=0.1,
        )
        append_result(path, row)


class TestGen:
    def test_exp1_threshold_configuration(self, tmp_path, capsys):
        # 16 types at proportion 0.3125 puts exactly 5 exceptions in the file
        out = tmp_path / "d"
        assert run("gen", "--exp", 1, "--n", 16, "--prop", 0.3125,
                   "--seed", 7, "--out-dir", out, "--pairs", 5) == 0
        corpus = corpora.read_corpus(out / "corpus.txt", corpora.WORD_ORDER)
        assert len({s.tokens for s in corpus.sentences}) == 16
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

    def test_regenerating_a_directory_keeps_only_the_new_cells_files(self, tmp_path):
        # a stale vocabulary.txt would make train read a binary cell as word order
        out = tmp_path / "d"
        for exp, has_vocab in [(1, True), (2, False), (1, True)]:
            assert run("gen", "--exp", exp, "--n", 4, "--prop", 0,
                       "--seed", 5, "--out-dir", out, "--pairs", 3) == 0
            assert (out / "vocabulary.txt").exists() == has_vocab
            written = json.loads((out / "manifest.json").read_text())["files"].values()
            assert sorted(p.name for p in out.iterdir()) == sorted([*written, "manifest.json"])

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

    @pytest.mark.parametrize("exp, experiment, n_train, prop", [
        pytest.param(2, corpora.BINARY, 50, 0.0, id="2-binary-50"),
        pytest.param(1, corpora.WORD_ORDER, 1000, 0.0, id="1-word_order-1000"),
        pytest.param(2, corpora.BINARY, 50, -0.0, id="2-binary-50-negative_zero"),
    ])
    def test_seed_is_base_seed_of_stored_cell(self, tmp_path, exp, experiment, n_train, prop):
        # --seed 101 is the committed configs' base_seed, so gen writes the
        # corpus of the stored (n, 0.0) cell; -0.0 is that cell too, as in
        # a sweep config
        out = tmp_path / "d"
        assert run("gen", "--exp", exp, "--n", n_train, "--prop", prop,
                   "--seed", 101, "--out-dir", out, "--pairs", 10) == 0
        assert repr(json.loads((out / "manifest.json").read_text())["prop"]) == "0.0"
        stored = {
            row["corpus_hash"]
            for row in load_results(ACCEPTANCE_DIR / f"{experiment}.csv")
            if (row["n_train"], row["exception_prop"]) == (n_train, 0.0)
        }
        assert stored == {file_hash(out / "corpus.txt")}

    @pytest.mark.parametrize("exp, experiment", [(1, corpora.WORD_ORDER), (2, corpora.BINARY)])
    def test_gen_then_train_replays_a_sweep_cell(self, tmp_path, capsys, exp, experiment):
        cfg = SweepConfig(experiment=experiment, sizes=(20,), proportions=(0.25,),
                          epoch_settings=(0,), replicates=1, base_seed=13, n_test_pairs=4)
        cell = run_cell(cfg, expand_grid(cfg), artifacts_dir=tmp_path / "art")
        cell_dir = tmp_path / "art" / sweep._cell_name(cell)
        out = tmp_path / "d"
        assert run("gen", "--exp", exp, "--n", 20, "--prop", 0.25,
                   "--seed", 13, "--out-dir", out, "--pairs", 4) == 0
        # train reads the experiment from either directory, gen's or the sweep's
        capsys.readouterr()
        logs = []
        for src, ckpt in [(out, tmp_path / "m.ckpt"), (cell_dir, tmp_path / "a.ckpt")]:
            assert run("train", "--cell", src, "--seed", 13, "--out", ckpt, "--epochs", 0) == 0
            logs.append(capsys.readouterr().out.splitlines()[0])
        # every file gen writes is the artifact cell directory's file, byte for byte
        written = json.loads((out / "manifest.json").read_text())["files"].values()
        shared = ["corpus.txt", "pairs.tsv"] + (["vocabulary.txt"] if exp == 1 else [])
        assert sorted(written) == sorted(shared)
        assert (cell_dir / "vocabulary.txt").exists() == (exp == 1)
        for name in shared:
            assert file_hash(out / name) == file_hash(cell_dir / name), name
        assert file_hash(out / "corpus.txt") == cell["corpus_hash"]
        # all three checkpoints embed the cell's tokenizer text, byte for byte
        text = embedded_tokenizer_text(tmp_path / "m.ckpt")
        assert text == embedded_tokenizer_text(tmp_path / "a.ckpt")
        assert text == embedded_tokenizer_text(cell_dir / "replicate0.ckpt")
        tokenizer_hash = json.loads((cell_dir / "manifest.json").read_text())["cell"]["tokenizer_hash"]
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == tokenizer_hash
        # the vocabulary listing fills word order's BPE to its target size
        n_tokens = bpe.parse_tokenizer(text).vocab_size
        assert (n_tokens == 4096) == (exp == 1)
        used = "vocabulary.txt" if exp == 1 else "no vocabulary.txt"
        assert logs == [f"{experiment} cell ({used}): tokenizer {n_tokens} tokens"] * 2


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert run("gen", "--exp", 2, "--n", 8, "--prop", 0, "--seed", 11,
               "--out-dir", data, "--pairs", 4) == 0
    ckpt = root / "model.ckpt"
    assert run("train", "--cell", data, "--epochs", 1, "--seed", 3, "--out", ckpt) == 0
    return root, data, ckpt


class TestTrainEval:
    def test_train_writes_checkpoint_and_tokenizer(self, artifacts, tmp_path, capsys):
        # one file: the checkpoint embeds the tokenizer and the experiment
        root, data, ckpt = artifacts
        out = tmp_path / "m.ckpt"
        assert run("train", "--cell", data, "--epochs", 1, "--seed", 3, "--out", out) == 0
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
        cell_dir = tmp_path / sweep._cell_name(cell)
        out = tmp_path / "r.json"
        assert run("eval", "--checkpoint", cell_dir / "replicate0.ckpt",
                   "--pairs", cell_dir / "pairs.tsv", "--out", out) == 0
        assert json.loads(out.read_text())["accuracy"] == cell["accuracies"][0]

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

    def test_eval_names_a_truncated_checkpoint(self, artifacts, tmp_path, capsys):
        # the runtime line is all a user sees, so it names the file
        root, data, ckpt = artifacts
        bad = tmp_path / "cut.ckpt"
        bad.write_bytes(ckpt.read_bytes()[:-5])
        capsys.readouterr()
        rc = run("eval", "--checkpoint", bad, "--pairs", data / "pairs.tsv", "--out", tmp_path / "r.json")
        assert rc == 1
        (line,) = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err == {"kind": "runtime", "error": f"checkpoint truncated in tensor out_bias: {bad}"}
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
        assert run("train", "--cell", wo, "--epochs", 0, "--seed", 5, "--out", wo_ckpt) == 0
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
        assert run("train", "--cell", data, "--epochs", 0, "--seed", 3, "--out", out) == 0
        assert "untrained checkpoint" in capsys.readouterr().out
        state, meta = load_checkpoint(out)
        assert state.step == 0
        assert meta["train_config"] is None
        assert meta["tokenizer"] == load_checkpoint(ckpt)[1]["tokenizer"]

    def test_negative_epochs_is_usage_error(self, artifacts, tmp_path, capsys):
        root, data, ckpt = artifacts
        rc = run("train", "--cell", data, "--epochs", -1, "--seed", 3, "--out", tmp_path / "x.ckpt")
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "usage"
        assert "epochs" in err["error"]
        assert not (tmp_path / "x.ckpt").exists()

    def test_negative_seed_is_usage_error(self, artifacts, tmp_path, capsys):
        # as for gen: a seed is never negative
        root, data, ckpt = artifacts
        rc = run("train", "--cell", data, "--epochs", 1, "--seed", -5, "--out", tmp_path / "x.ckpt")
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "usage"
        assert "--seed" in err["error"]
        assert not (tmp_path / "x.ckpt").exists()

    @pytest.mark.parametrize("flags", [[], ["--epochs", 0, "--init-only"]],
                             ids=["missing-epochs", "init-only"])
    def test_epochs_is_the_only_training_switch(self, artifacts, tmp_path, flags):
        root, data, ckpt = artifacts
        rc = run("train", "--cell", data, "--seed", 3, "--out", tmp_path / "x.ckpt", *flags)
        assert rc == 2
        assert not (tmp_path / "x.ckpt").exists()

    @pytest.mark.parametrize("broken", ["binary-with-vocabulary", "no-corpus"])
    def test_a_bad_cell_directory_is_runtime_error(self, artifacts, tmp_path, capsys, broken):
        # vocabulary.txt makes a cell word order, so a binary corpus beside
        # one fails to parse at its first line
        root, data, ckpt = artifacts
        cell = tmp_path / "cell"
        shutil.copytree(data, cell)
        if broken == "no-corpus":
            (cell / "corpus.txt").unlink()
        else:
            assert run("gen", "--exp", 1, "--n", 4, "--prop", 0.0, "--seed", 5,
                       "--out-dir", tmp_path / "wo", "--pairs", 3) == 0
            shutil.copy(tmp_path / "wo" / "vocabulary.txt", cell)
        capsys.readouterr()
        rc = run("train", "--cell", cell, "--epochs", 0, "--seed", 3, "--out", tmp_path / "x.ckpt")
        assert rc == 1
        (line,) = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["kind"] == "runtime"
        want = {"binary-with-vocabulary": f"{cell / 'corpus.txt'} line 1: ", "no-corpus": "corpus.txt"}
        assert want[broken] in err["error"]
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

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_an_unwritable_out_is_refused_before_any_work(self, artifacts, tmp_path, capsys, monkeypatch, command):
        # --out's directory is missing: the step that takes minutes on a
        # word-order cell is never called.  A step that fails after the
        # check leaves no file either.
        root, data, ckpt = artifacts
        step = {"train": "train_replicate", "eval": "evaluate_pairs"}[command]
        inputs = {"train": ["--cell", data, "--epochs", 1, "--seed", 3],
                  "eval": ["--checkpoint", ckpt, "--pairs", data / "pairs.tsv"]}[command]

        def never(*args, **kwargs):
            raise AssertionError(f"{step} ran before --out was checked")

        monkeypatch.setattr(cli, step, never)
        out = tmp_path / "nodir" / "out"
        capsys.readouterr()
        assert run(command, *inputs, "--out", out) == 1
        (line,) = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["kind"] == "runtime" and str(out) in err["error"]
        assert not out.parent.exists()

        def fails(*args, **kwargs):
            raise RuntimeError(f"{step} failed")

        monkeypatch.setattr(cli, step, fails)
        out = tmp_path / "out"
        assert run(command, *inputs, "--out", out) == 1
        assert json.loads(capsys.readouterr().err) == {"kind": "runtime", "error": f"{step} failed"}
        assert list(tmp_path.iterdir()) == []

    def test_missing_checkpoint_is_runtime_error(self, tmp_path, capsys):
        rc = run("eval", "--checkpoint", tmp_path / "nope.ckpt",
                 "--pairs", tmp_path / "nope.tsv",
                 "--out", tmp_path / "r.json")
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["kind"] == "runtime"


def refused_input(case, root, data, ckpt, tmp_path):
    """(command line, the start of its refusal) of one case: an input file broken."""
    cell = tmp_path / "cell"
    shutil.copytree(data, cell)
    train = ["train", "--cell", cell, "--epochs", 0, "--seed", 3, "--out", tmp_path / "x.ckpt"]
    store = tmp_path / "results.csv"
    analyze = ["analyze", "--table", store, "--n-train", 55, "--epochs", 10, "--out", tmp_path / "r.txt"]
    if case == "config-json":
        path = tmp_path / "sweep.json"
        path.write_text('{"format": "quantal-sweep v2", "experiment": "binary", }')
        return ["sweep", "--config", path, "--store", store], f"bad sweep config {path}: Expecting"
    if case.startswith("store"):
        synthetic_store(store, {0.0: 0.9})
        header, row = store.read_bytes().splitlines()
        broken = {"store-field": row.replace(b"binary,55,", b"binary,5x0,"), "store-row": b"binary,1,2",
                  "store-utf8": row.replace(b"binary", b"bin\xffary")}[case]
        store.write_bytes(header + b"\n" + broken + b"\n")
        want = {"store-field": "invalid literal", "store-row": "malformed row", "store-utf8": "not UTF-8"}[case]
        return analyze, f"{store} line 2: {want}"
    if case == "corpus-utf8":
        path = cell / "corpus.txt"
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:2]) + b"\xff" + b"".join(lines[2:]))
        return train, f"{path} line 3: not UTF-8"
    if case == "vocabulary-utf8":
        path = cell / "vocabulary.txt"
        path.write_bytes(b"ab\n\xff\n")
        return train, f"{path} line 2: not UTF-8"
    path = cell / "pairs.tsv"
    path.write_bytes(path.read_bytes().replace(b"\n0\t", b"\n0\xff\t"))
    return ["eval", "--checkpoint", ckpt, "--pairs", path, "--out", tmp_path / "r.json"], f"{path} line 2: not UTF-8"


@pytest.mark.parametrize("case", ["config-json", "store-field", "store-row", "store-utf8", "corpus-utf8",
                                  "vocabulary-utf8", "pairs-utf8"])
def test_a_refused_input_file_is_named(artifacts, tmp_path, capsys, case):
    # the runtime line is all a user sees: it names the file, and the line
    # of a store, corpus or pairs row
    argv, want = refused_input(case, *artifacts, tmp_path)
    capsys.readouterr()
    assert run(*argv) == 1
    (line,) = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert err["kind"] == "runtime" and err["error"].startswith(want), err
    assert not (tmp_path / "x.ckpt").exists() and not (tmp_path / "r.json").exists()


# Every option of every subcommand.  A new knob must be added here, so it
# shows up in review.
OPTIONS = {
    "gen": {"--exp", "--n", "--prop", "--seed", "--out-dir", "--pairs"},
    "train": {"--cell", "--epochs", "--seed", "--out"},
    "eval": {"--checkpoint", "--pairs", "--out"},
    "sweep": {"--config", "--store", "--artifacts"},
    "analyze": {"--table", "--n-train", "--epochs", "--out"},
    "plot": {"--table", "--epochs", "--n-train", "--out"},
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


def readme_commands(program):
    """Argument lists of every `program ...` line in README's sh blocks,
    with backslash continuations joined and comments dropped."""
    blocks = re.findall(r"^```sh\n(.*?)^```", (ROOT / "README.md").read_text(), flags=re.S | re.M)
    commands = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == [program]:
                commands.append(argv[1:])
    return commands


def test_readme_commands_parse():
    # a renamed or deleted flag fails here, not in a reader's shell
    commands = readme_commands("quantal")
    assert {argv[0] for argv in commands} == set(OPTIONS)
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: quantal {shlex.join(argv)}")


def test_readme_scripts_exist():
    scripts = [argv[0] for argv in readme_commands("python3") if argv[0] != "-m"]
    assert "scripts/populate_acceptance.py" in scripts
    missing = [path for path in scripts if not (ROOT / path).is_file()]
    assert not missing, f"README runs scripts that do not exist: {missing}"


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
        path.write_text(json.dumps({"format": sweep.CONFIG_FORMAT, **asdict(SweepConfig(**fields))}))

    def test_one_cell_sweep_writes_one_row(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        store = tmp_path / "results.csv"
        self.write_config(cfg)
        assert run("sweep", "--config", cfg, "--store", store) == 0
        assert len(load_results(store)) == 1
        assert "1 cells run" in capsys.readouterr().out

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_second_run_skips_stored_cells(self, tmp_path, capsys, monkeypatch, cpus):
        # no flag asks for it: a store holds each cell once, whether the
        # cells run in turn (one CPU) or in a pool (two)
        monkeypatch.setattr(sweep, "usable_cpus", lambda: cpus)
        cfg = tmp_path / "sweep.json"
        store = tmp_path / "results.csv"
        self.write_config(cfg, proportions=(0.0, 0.5))
        for _ in range(2):
            assert run("sweep", "--config", cfg, "--store", store) == 0
        out = capsys.readouterr().out
        assert "sweep finished: 2 cells run, 0 skipped, 0 failed" in out
        assert "sweep finished: 0 cells run, 2 skipped, 0 failed" in out
        assert sorted(row["exception_prop"] for row in load_results(store)) == [0.0, 0.5]

    def test_reuse_flag_is_gone(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        self.write_config(cfg)
        assert run("sweep", "--config", cfg, "--store", tmp_path / "r.csv", "--reuse") == 2
        assert "unrecognized arguments: --reuse" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_workers_flag_is_gone(self, tmp_path, capsys):
        # the pool has a worker per CPU the process may use
        cfg = tmp_path / "sweep.json"
        self.write_config(cfg)
        assert run("sweep", "--config", cfg, "--store", tmp_path / "r.csv", "--workers", 2) == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

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
        assert any("done binary_n5_p0.0_e1_" in text for text in out.flushed)

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

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_an_unwritable_store_fails_before_any_cell_trains(self, tmp_path, capsys, monkeypatch, cpus):
        # the store's directory is missing: no row could be appended, so no
        # replicate may train first
        monkeypatch.setattr(sweep, "usable_cpus", lambda: cpus)
        ran = []
        monkeypatch.setattr(sweep, "_replicate_task", lambda *args: ran.append(args))
        cfg = tmp_path / "sweep.json"
        self.write_config(cfg, proportions=(0.0, 0.5))
        store = tmp_path / "nodir" / "results.csv"
        assert run("sweep", "--config", cfg, "--store", store) == 1
        (line,) = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["kind"] == "runtime" and str(store) in err["error"]
        assert ran == [] and not store.parent.exists()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_an_artifacts_path_that_is_a_file_fails_before_any_cell_trains(self, tmp_path, capsys, monkeypatch,
                                                                          cpus):
        # serial and pooled sweeps refuse it alike, with one runtime line
        monkeypatch.setattr(sweep, "usable_cpus", lambda: cpus)
        ran = []
        monkeypatch.setattr(sweep, "_replicate_task", lambda *args: ran.append(args))
        cfg = tmp_path / "sweep.json"
        self.write_config(cfg, proportions=(0.0, 0.5))
        artifacts = tmp_path / "art"
        artifacts.write_text("")
        assert run("sweep", "--config", cfg, "--store", tmp_path / "r.csv", "--artifacts", artifacts) == 1
        (line,) = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["kind"] == "runtime" and str(artifacts) in err["error"]
        assert ran == [] and load_results(tmp_path / "r.csv") == []


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
        assert run("plot", "--table", store,
                   "--epochs", 10, "--out", out) == 0
        svg = out.read_text()
        assert svg.count('class="cell"') == 6
        assert 'class="tp-curve"' in svg
        assert 'class="point"' not in svg  # no --n-train: the heatmap, not a column

    def test_column_regression(self, tmp_path):
        store = self.filled_store(tmp_path)
        out = tmp_path / "col.svg"
        assert run("plot", "--table", store,
                   "--epochs", 10, "--n-train", 55, "--out", out) == 0
        svg = out.read_text()
        assert 'class="stitch"' in svg
        assert svg.count('class="point"') == 6
        assert 'class="cell"' not in svg

    def test_empty_table_is_runtime_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        rc = run("plot", "--table", empty,
                 "--epochs", 10, "--out", tmp_path / "x.svg")
        assert rc == 1
