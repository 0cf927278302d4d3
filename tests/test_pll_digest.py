"""Smoke test of scripts/pll_digest.py on its tiny cells."""

import importlib.util
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "pll_digest.py"


def load_script():
    spec = importlib.util.spec_from_file_location("pll_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_save_then_against_counts_moved_scores(tmp_path, capsys):
    digest = load_script()
    saved = tmp_path / "scores.npz"
    assert digest.main(["--tiny", "--save", str(saved)]) == 0
    first = capsys.readouterr().out.splitlines()
    n_pairs = sum(n * len(epochs) for _, _, n, epochs in digest.TINY_CASES)
    assert len(first) == n_pairs  # one line per pair
    rule, foil = first[0].split()[-2:]
    assert float.fromhex(rule) > 0 and float.fromhex(foil) > 0

    with np.load(saved) as scores:
        moved = dict(scores)
    key = sorted(moved)[0]
    moved[key] = moved[key].copy()
    moved[key][0, 1] *= 1.0 + 1e-6
    perturbed = tmp_path / "perturbed.npz"
    np.savez(perturbed, **moved)

    assert digest.main(["--tiny", "--against", str(perturbed)]) == 0
    second = capsys.readouterr().out.splitlines()
    assert [line for line in second if " pair " in line] == first
    assert f"{key.replace('|', ' ')} moved 1 of {moved[key].size} scores, max |rel| 1.000e-06" in second
    assert second[-1] == f"moved 1 of {2 * n_pairs} scores"  # a rule and a foil score per line
