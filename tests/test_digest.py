"""Smoke test of scripts/digest.py in its tiny mode: both halves are saved
and compared, and a file that is not this run's is refused."""

import contextlib
import importlib.util
import io
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "digest.py"
GRAD = "ragged float32 dropout=0|l0.ff1_w"
PLL = "word_order n=40 epochs=1|pll"


def load_script():
    spec = importlib.util.spec_from_file_location("digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


digest = load_script()


def run(*args):
    """The printed lines of one --tiny run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert digest.main(["--tiny", *args]) == 0
    return out.getvalue().splitlines()


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """The lines of a --tiny --save run and the arrays it saved."""
    path = tmp_path_factory.mktemp("digest") / "tiny.npz"
    lines = run("--save", str(path))
    with np.load(path) as arrays:
        return lines, dict(arrays)


def against(tmp_path, arrays):
    path = tmp_path / "against.npz"
    np.savez(path, **arrays)
    return ["--against", str(path)]


def test_tiny_run_prints_both_halves(saved):
    lines, arrays = saved
    n_pairs = sum(n * len(epochs) for _, _, n, epochs in digest.TINY_CASES)
    assert sum(" pll pair " in line for line in lines) == n_pairs
    assert sum(key.endswith("|pll") for key in arrays) == sum(len(epochs) for *_, epochs in digest.TINY_CASES)
    assert any(line.startswith(f"{GRAD.replace('|', ' grad ')} ") for line in lines)
    assert any(line.startswith("adam steps=") for line in lines)
    assert not any(line.startswith("probe ") for line in lines)
    assert arrays[GRAD].shape == (16, 32)  # TINY_MODEL's hidden x intermediate
    assert arrays["adam|tok_emb"].shape == (64, 16)  # a 64-token vocabulary


def test_against_its_own_save_moves_nothing(saved, tmp_path):
    lines, arrays = saved
    n_values = sum(a.size for a in arrays.values())
    assert run(*against(tmp_path, arrays)) == [*lines, f"moved 0 of {n_values} values"]


def test_against_counts_each_moved_value(saved, tmp_path):
    lines, arrays = saved
    arrays = {key: a.copy() for key, a in arrays.items()}
    arrays[GRAD][0, 0] += 1.0
    arrays[PLL][0, 1] *= 1.0 + 1e-6
    second = run(*against(tmp_path, arrays))
    moved = [line for line in second if " moved " in line]
    assert [line for line in second if " moved " not in line][:-1] == lines
    assert [line.split(",")[0] for line in moved] == [
        f"{GRAD} moved 1 of {arrays[GRAD].size}", f"{PLL} moved 1 of {arrays[PLL].size}"
    ]
    assert all(", max|diff|/max|ref| " in line for line in moved)
    assert second[-1] == f"moved 2 of {sum(a.size for a in arrays.values())} values"


@pytest.mark.parametrize("change, message", [
    ("reshape", f"its {GRAD} has shape (32, 16), not (16, 32)"),
    ("drop", f"it has no {PLL}"),
    ("add", "it has extra|pll, this run has not"),
], ids=["reshape", "drop", "add"])
def test_a_file_that_is_not_this_runs_is_refused(saved, tmp_path, change, message):
    _, arrays = saved
    arrays = dict(arrays)
    if change == "reshape":  # a --tiny and a full run share l0 and l1 names, not shapes
        arrays[GRAD] = arrays[GRAD].T
    elif change == "drop":
        del arrays[PLL]
    else:
        arrays["extra|pll"] = arrays[PLL]
    args = against(tmp_path, arrays)
    with pytest.raises(SystemExit) as refused:
        run(*args)
    assert refused.value.code == f"{args[1]} does not match this run: {message}"
