"""Every public top-level name of quantal has a caller outside the tests.

A name counts as called when a file under src/, scripts/, demos/ or
perfbench/ that is not a test loads it: as a name, as an attribute, or
as an imported name.  Names are matched by their bare name, not their
module.  A name that only tests load is deleted, or listed in KEEP with
the reason it stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "quantal"
CALLER_DIRS = ("src", "scripts", "demos", "perfbench")

KEEP = {
    "model.forward": "one sentence's logits, with which criterion 7 checks that padding does not leak",
    "tp.beats_baseline_test": "the statistic of acceptance criteria 2 and 3",
    "sweep.save_sweep_config": "the only writer of the sweep config format",
}


def public_names():
    """module.name for each public top-level function, class and assigned name."""
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
            else:
                found = []
            names.update(f"{path.stem}.{name}" for name in found if not name.startswith("_"))
    return names


def loaded_names():
    """Every bare name that a non-test file under CALLER_DIRS loads."""
    loaded = set()
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            if "tests" in path.relative_to(ROOT).parts or path.name.startswith("test_"):
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    loaded.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    loaded.add(node.attr)
                elif isinstance(node, ast.alias):
                    loaded.add(node.name)
    return loaded


def uncalled():
    loaded = loaded_names()
    return {name for name in public_names() if name.partition(".")[2] not in loaded}


def test_every_public_name_has_a_caller_outside_tests():
    assert sorted(uncalled() - KEEP.keys()) == []


def test_keep_lists_only_uncalled_names():
    # an entry whose name is gone, or has gained a caller, is stale
    assert sorted(KEEP.keys() - uncalled()) == []
