"""The maintenance scripts run from a checkout, on the checkout's code,
and every demo and script asks quantal only for names it has."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("script", ["populate_acceptance.py", "pll_digest.py", "grad_digest.py"])
def test_help_runs_without_pythonpath(script, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--help"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_populate_refuses_nonpositive_workers(workers, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("populate_acceptance", SCRIPTS / "populate_acceptance.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)

    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(script, "run_sweep", no_sweep)
    with pytest.raises(SystemExit) as exited:
        script.main(["--workers", workers])
    assert exited.value.code == 2
    assert f"--workers must be >= 1, got {workers}" in capsys.readouterr().err


def imported(module_name, name):
    """What `from module_name import name` binds, or None if it fails."""
    module = importlib.import_module(module_name)
    if hasattr(module, name):
        return getattr(module, name)
    try:
        return importlib.import_module(f"{module_name}.{name}")
    except ImportError:
        return None


def quantal_names_missing(path):
    """Each quantal name that a file imports, or reads off a quantal module
    it imports, that quantal does not have."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "quantal":
            for alias in node.names:
                bound = imported(node.module, alias.name)
                if bound is None:
                    missing.append(f"{node.module}.{alias.name}")
                elif isinstance(bound, ModuleType):
                    modules[alias.asname or alias.name] = bound
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            module = modules[node.value.id]
            if not hasattr(module, node.attr):
                missing.append(f"{module.__name__}.{node.attr}")
    return missing


@pytest.mark.parametrize("path", sorted([*DEMOS.glob("*.py"), *SCRIPTS.glob("*.py")]),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_names_taken_from_quantal_exist(path):
    assert quantal_names_missing(path) == []


@pytest.mark.parametrize("demo", ["01_tolerance_threshold.py", "02_build_corpora.py", "03_train_tokenizer.py",
                                  "04_train_and_score.py"])
def test_quick_demo_runs(demo, tmp_path):
    # these call the generators, training and scoring directly, so a
    # signature change shows here
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(DEMOS / demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_a_missing_name_is_found(tmp_path):
    demo = tmp_path / "demo.py"
    demo.write_text("from quantal.scoring import CHUNK_ROWS, sentence_surprisal\n"
                    "from quantal import sweep\n"
                    "sweep.run_sweep, sweep.CSV_HEADER\n")
    assert quantal_names_missing(demo) == ["quantal.scoring.sentence_surprisal", "quantal.sweep.CSV_HEADER"]
