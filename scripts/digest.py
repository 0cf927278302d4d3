"""Print the numerics gate: losses and scores as float hex, arrays as sha256.

The training half builds a fixed ragged batch and a fixed unpadded batch
of the word-order shape (16 rows of up to 40 tokens, vocabulary 4096,
default model).  In float32 and float64, without and with dropout, it
prints the loss of one loss_and_grads call and the sha256 of every
gradient.  Then it prints the sha256 of every float32 parameter after a
few loss_and_grads and adam_step rounds on the ragged batch, so optimizer
bits are gated too, and the 16 losses of perfbench's word_order_train
probe.

The scoring half has three fixed models score fixed minimal pairs by
pseudo-log-likelihood (PLL):

- binary: the n=300, p=0.1 binary cell of base seed 101, a model trained
  for 2 epochs, on 100 pairs;
- word order: the n=1000, p=0.1 word-order cell of base seed 101, its
  untrained model and the same model after 1 epoch, on 20 pairs.

Each of its lines gives a case, the word pll, a pair and the rule and
foil surprisals.

Run it on two checkouts and diff the outputs: equal lines mean equal
bits.  --save writes the gradients, parameters and scores to an .npz
file.  --against reads one written by another checkout with the same
--tiny setting and prints, for every array that differs, how many of its
values moved and its largest difference relative to its largest |value|
(gradients have entries near 0), then a count of what moved; a file
whose arrays are not this run's, by name or shape, is refused.  --tiny
uses two-layer models, a 64-token vocabulary for the training half and a
few pairs of small cells for the scoring half, and skips the probe: a
smoke test that takes seconds.

Usage (from the root of a checkout):

    python3 scripts/digest.py [--tiny] [--save FILE.npz] [--against FILE.npz]
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from quantal import corpora, model, scoring, sweep, training  # noqa: E402
from quantal.util import stable_seed  # noqa: E402

ROWS, WIDTH = 16, 40
MASK_ID, PAD_ID = 2, 0
ADAM_STEPS = 3
TINY_MODEL = dict(n_layers=2, n_heads=2, hidden=16, intermediate=32, max_positions=128)
BASE_SEED = 101
# (experiment, n_train, pairs, epochs scored); epochs are cumulative
CASES = ((corpora.BINARY, 300, 100, (2,)), (corpora.WORD_ORDER, 1000, 20, (0, 1)))
TINY_CASES = ((corpora.BINARY, 30, 6, (1,)), (corpora.WORD_ORDER, 40, 3, (0, 1)))


def sha256(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def fixed_batch(ragged: bool, vocab: int):
    """Token ids, real-position mask and MLM labels from a fixed seed."""
    rng = np.random.default_rng(20261018)
    lengths = rng.integers(WIDTH // 2, WIDTH + 1, size=ROWS) if ragged else np.full(ROWS, WIDTH)
    lengths[0] = WIDTH
    ids = rng.integers(3, vocab, size=(ROWS, WIDTH))
    mask = np.arange(WIDTH) < lengths[:, None]
    picked = (rng.random((ROWS, WIDTH)) < 0.15) & mask
    picked[0, 0] = True
    labels = np.where(picked, ids, model.IGNORE_INDEX)
    ids = np.where(picked, MASK_ID, np.where(mask, ids, PAD_ID))
    return ids, mask, labels


def training_half(tiny: bool):
    """Yield (line, key, array): the loss and gradients of every batch, dtype
    and dropout setting, the parameters after ADAM_STEPS rounds (ragged
    batch, dropout, training's learning rate), then the probe's losses."""
    vocab = 64 if tiny else 4096
    config = model.ModelConfig(vocab_size=vocab, **(TINY_MODEL if tiny else {}))
    for ragged in (True, False):
        batch = fixed_batch(ragged, vocab)
        for dtype in (np.float32, np.float64):
            state = model.init_model(config, seed=7, dtype=dtype)
            for dropout in (False, True):
                rng = np.random.default_rng(11) if dropout else None
                loss, grads, _ = model.loss_and_grads(state, *batch, dropout_rng=rng)
                case = f"{'ragged' if ragged else 'unpadded'} {np.dtype(dtype).name} dropout={int(dropout)}"
                yield f"{case} loss {float(loss).hex()}", None, None
                for name, g in sorted(grads.items()):
                    yield f"{case} grad {name} {sha256(g)}", f"{case}|{name}", g
    state = model.init_model(config, seed=7)
    batch = fixed_batch(True, vocab)
    rng = np.random.default_rng(11)
    for _ in range(ADAM_STEPS):
        _, grads, _ = model.loss_and_grads(state, *batch, dropout_rng=rng)
        model.adam_step(state, grads, training.LEARNING_RATE)
    for name, w in sorted(state.params.items()):
        yield f"adam steps={ADAM_STEPS} param {name} {sha256(w)}", f"adam|{name}", w
    if not tiny:
        import workloads

        for step, loss in enumerate(workloads.probe_training()["losses"]):
            yield f"probe step {step} loss {float(loss).hex()}", None, None


def scoring_half(tiny: bool):
    """Yield (lines, key, scores): the PLL pair lines of every case and epoch count."""
    for experiment, n_train, n_pairs, epochs in TINY_CASES if tiny else CASES:
        vocab, corpus, pairs = sweep.cell_data(experiment, BASE_SEED, n_train, 0.1, n_pairs)
        tok = sweep.cell_tokenizer(experiment, corpus, vocab)
        config = model.ModelConfig(vocab_size=tok.vocab_size, **(TINY_MODEL if tiny else {}))
        state = model.init_model(config, seed=stable_seed(BASE_SEED, "init", experiment))
        trained = 0
        for epoch in epochs:
            for e in range(trained, epoch):
                training.train(state, corpus, tok, model.TrainConfig(epochs=1, seed=stable_seed(BASE_SEED, "train", e)))
            trained = epoch
            case = f"{experiment} n={n_train} epochs={epoch}"
            scores = np.array(scoring.evaluate_pairs(state, tok, pairs).per_pair_scores)
            lines = (f"{case} pll pair {i} {rule.hex()} {foil.hex()}" for i, (rule, foil) in enumerate(scores))
            yield "\n".join(lines), f"{case}|pll", scores


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--tiny", action="store_true", help="two-layer models on small inputs, no probe")
    parser.add_argument("--save", type=Path, help="write every gradient, parameter and score to this .npz file")
    parser.add_argument("--against", type=Path, help="compare them with this .npz file")
    args = parser.parse_args(argv)

    saved, keys = {}, set()
    other = np.load(args.against) if args.against else None
    moved = total = 0
    for line, key, array in itertools.chain(training_half(args.tiny), scoring_half(args.tiny)):
        print(line)
        if key is None:
            continue
        keys.add(key)
        if args.save:
            saved[key] = array
        if other is not None:
            if key not in other.files:
                sys.exit(f"{args.against} does not match this run: it has no {key}")
            ref = other[key]
            if ref.shape != array.shape:
                sys.exit(f"{args.against} does not match this run: its {key} has shape {ref.shape}, not {array.shape}")
            diff = array != ref
            if diff.any():
                rel = np.abs(array - ref).max() / np.abs(ref).max()
                print(f"{key} moved {diff.sum()} of {diff.size}, max|diff|/max|ref| {rel:.3e}")
            moved += diff.sum()
            total += diff.size
    if other is not None:
        extra = [key for key in other.files if key not in keys]
        if extra:
            sys.exit(f"{args.against} does not match this run: it has {extra[0]}, this run has not")
        print(f"moved {moved} of {total} values")
    if args.save:
        np.savez(args.save, **saved)
    return 0


if __name__ == "__main__":
    sys.exit(main())
