"""Print the training gate: losses as float hex, gradients as sha256.

For a fixed ragged batch and a fixed unpadded batch of the word-order
shape (16 rows of up to 40 tokens, vocabulary 4096, default model), in
float32 and float64, without and with dropout, it prints the loss of
one loss_and_grads call as float hex and the sha256 of every gradient.
Then it prints the sha256 of every float32 parameter after a few
loss_and_grads and adam_step rounds on the ragged batch, so optimizer
bits are gated too, and the 16 losses of perfbench's word_order_train
probe.

Run it on two checkouts and diff the outputs: equal lines mean equal
bits.  --save writes the gradients and parameters to an .npz file;
--against reads one written by another checkout and prints, for every
gradient that differs, its largest difference relative to the largest
|gradient|, for every parameter that differs, how many of its weights
moved, and a count of what moved.

Usage (from the root of a checkout):

    python3 scripts/grad_digest.py [--save FILE.npz] [--against FILE.npz]
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from quantal import model, training  # noqa: E402

ROWS, WIDTH, VOCAB = 16, 40, 4096
MASK_ID, PAD_ID = 2, 0
ADAM_STEPS = 3


def fixed_batch(ragged: bool):
    """Token ids, real-position mask and MLM labels from a fixed seed."""
    rng = np.random.default_rng(20261018)
    lengths = rng.integers(WIDTH // 2, WIDTH + 1, size=ROWS) if ragged else np.full(ROWS, WIDTH)
    lengths[0] = WIDTH
    ids = rng.integers(3, VOCAB, size=(ROWS, WIDTH))
    mask = np.arange(WIDTH) < lengths[:, None]
    picked = (rng.random((ROWS, WIDTH)) < 0.15) & mask
    picked[0, 0] = True
    labels = np.where(picked, ids, model.IGNORE_INDEX)
    ids = np.where(picked, MASK_ID, np.where(mask, ids, PAD_ID))
    return ids, mask, labels


def digests():
    """Yield (case, loss, grads) for every batch, dtype and dropout setting."""
    for ragged in (True, False):
        batch = fixed_batch(ragged)
        for dtype in (np.float32, np.float64):
            state = model.init_model(model.ModelConfig(vocab_size=VOCAB), seed=7, dtype=dtype)
            for dropout in (False, True):
                rng = np.random.default_rng(11) if dropout else None
                loss, grads, _ = model.loss_and_grads(state, *batch, dropout_rng=rng)
                case = f"{'ragged' if ragged else 'unpadded'} {np.dtype(dtype).name} dropout={int(dropout)}"
                yield case, loss, grads


def adam_params():
    """The float32 model after ADAM_STEPS rounds of loss_and_grads (ragged
    batch, dropout) and adam_step at training's learning rate."""
    state = model.init_model(model.ModelConfig(vocab_size=VOCAB), seed=7)
    batch = fixed_batch(ragged=True)
    rng = np.random.default_rng(11)
    for _ in range(ADAM_STEPS):
        _, grads, _ = model.loss_and_grads(state, *batch, dropout_rng=rng)
        model.adam_step(state, grads, training.LEARNING_RATE)
    return state.params


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--save", type=Path, help="write the gradients and parameters to this .npz file")
    parser.add_argument("--against", type=Path, help="compare the gradients and parameters with this .npz file")
    args = parser.parse_args(argv)

    saved = {}
    other = np.load(args.against) if args.against else None
    moved_grads = n_grads = 0
    for case, loss, grads in digests():
        print(f"{case} loss {float(loss).hex()}")
        for name in sorted(grads):
            g = grads[name]
            print(f"{case} grad {name} {hashlib.sha256(g.tobytes()).hexdigest()}")
            key = f"{case}|{name}"
            saved[key] = g
            if other is not None:
                n_grads += 1
                if not np.array_equal(g, other[key]):
                    moved_grads += 1
                    ref = other[key]
                    rel = np.abs(g - ref).max() / np.abs(ref).max()
                    print(f"{case} differs {name} max|diff|/max|g| = {rel:.3e}")
    moved_weights = n_weights = 0
    for name, w in sorted(adam_params().items()):
        print(f"adam steps={ADAM_STEPS} param {name} {hashlib.sha256(w.tobytes()).hexdigest()}")
        key = f"adam|{name}"
        saved[key] = w
        if other is not None:
            diff = w != other[key]
            if diff.any():
                print(f"adam steps={ADAM_STEPS} differs {name} moved {diff.sum()} of {diff.size} weights")
            moved_weights += diff.sum()
            n_weights += diff.size
    if other is not None:
        print(f"moved {moved_grads} of {n_grads} gradients, {moved_weights} of {n_weights} weights after Adam")
    if args.save:
        np.savez(args.save, **saved)

    import workloads

    for step, loss in enumerate(workloads.probe_training()["losses"]):
        print(f"probe step {step} loss {float(loss).hex()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
