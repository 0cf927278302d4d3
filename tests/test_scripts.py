"""The maintenance scripts run from a checkout, on the checkout's code,
and every demo, script and benchmark file asks quantal only for names it
has."""

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
PERFBENCH = ROOT / "perfbench"


@pytest.mark.parametrize("script", ["populate_acceptance.py", "digest.py"])
def test_help_runs_without_pythonpath(script, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--help"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout


def test_populate_takes_no_workers_flag(monkeypatch, capsys):
    # each sweep has a pool worker per CPU the process may use
    spec = importlib.util.spec_from_file_location("populate_acceptance", SCRIPTS / "populate_acceptance.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)

    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(script, "run_sweep", no_sweep)
    with pytest.raises(SystemExit) as exited:
        script.main(["--workers", "2"])
    assert exited.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


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
    it imports (`from quantal import x` or `import quantal.x as y`), that
    quantal does not have."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "quantal" and alias.asname:
                    try:
                        modules[alias.asname] = importlib.import_module(alias.name)
                    except ImportError:
                        missing.append(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "quantal":
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


# perfbench's own files, not its tests: a name the benchmark reads must not
# vanish from quantal unnoticed
@pytest.mark.parametrize("path", sorted([*DEMOS.glob("*.py"), *SCRIPTS.glob("*.py"), *PERFBENCH.glob("*.py")]),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_names_taken_from_quantal_exist(path):
    assert quantal_names_missing(path) == []


def test_every_name_the_benchmark_tracer_wraps_exists():
    spec = importlib.util.spec_from_file_location("spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert len(spans.WRAPPED) > 10
    missing = [f"{module}.{attr}" for _, module, attr in spans.WRAPPED
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


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
                    "import quantal.model as m\n"
                    "import quantal.plots as plots\n"
                    "sweep.run_sweep, sweep.CSV_HEADER, m.forward_batch, m.forward\n")
    assert sorted(quantal_names_missing(demo)) == [
        "quantal.model.forward", "quantal.plots", "quantal.scoring.sentence_surprisal", "quantal.sweep.CSV_HEADER",
    ]
