"""Print the scoring gate: PLL pair scores as float hex.

Three fixed models score fixed minimal pairs by pseudo-log-likelihood
(PLL):

- binary: the n=300, p=0.1 binary cell of base seed 101, a model trained
  for 2 epochs, on 100 pairs;
- word order: the n=1000, p=0.1 word-order cell of base seed 101, its
  untrained model and the same model after 1 epoch, on 20 pairs.

Each line gives a case, the word pll, a pair and the rule and foil
surprisals as float hex.  Run it on two checkouts and diff the outputs:
equal lines mean equal bits.  --save writes the scores to an .npz file;
--against reads one written by another checkout and prints, for each
case, how many scores moved and their largest relative change.  --tiny
runs a two-layer model with a 64-token vocabulary on a few pairs of
small cells, a smoke test of the script that takes seconds.

Usage (from the root of a checkout):

    python3 scripts/pll_digest.py [--tiny] [--save FILE.npz] [--against FILE.npz]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src")]

from quantal import bpe, corpora, scoring, sweep  # noqa: E402
from quantal.model import ModelConfig, TrainConfig, init_model  # noqa: E402
from quantal.training import train  # noqa: E402
from quantal.util import stable_seed  # noqa: E402

BASE_SEED = 101
# (experiment, n_train, pairs, epochs scored); epochs are cumulative
CASES = ((corpora.BINARY, 300, 100, (2,)), (corpora.WORD_ORDER, 1000, 20, (0, 1)))
TINY_CASES = ((corpora.BINARY, 30, 6, (1,)), (corpora.WORD_ORDER, 40, 3, (0, 1)))
TINY_MODEL = dict(n_layers=2, n_heads=2, hidden=16, intermediate=32, max_positions=128)
TINY_VOCAB = 64


def scored_models(tiny: bool):
    """Yield (case, tokenizer, pairs, state) for every case and epoch count."""
    for experiment, n_train, n_pairs, epochs in TINY_CASES if tiny else CASES:
        vocab, corpus, pairs = sweep.cell_data(experiment, BASE_SEED, n_train, 0.1, n_pairs)
        if tiny:  # cell_tokenizer's texts, fewer merges
            texts = [corpus.to_text()] if vocab is None else [vocab.to_text(), corpus.to_text()]
            tok = bpe.train_tokenizer(texts, min(TINY_VOCAB, sweep.TARGET_VOCAB[experiment]))
        else:
            tok = sweep.cell_tokenizer(experiment, corpus, vocab)
        cfg = ModelConfig(vocab_size=tok.vocab_size, **(TINY_MODEL if tiny else {}))
        state = init_model(cfg, seed=stable_seed(BASE_SEED, "init", experiment))
        done = 0
        for epoch in epochs:
            for e in range(done, epoch):
                train(state, corpus, tok, TrainConfig(epochs=1, seed=stable_seed(BASE_SEED, "train", e)))
            done = epoch
            yield f"{experiment} n={n_train} epochs={epoch}", tok, pairs, state


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--tiny", action="store_true", help="small cells and a two-layer model")
    parser.add_argument("--save", type=Path, help="write every score to this .npz file")
    parser.add_argument("--against", type=Path, help="compare the scores with this .npz file")
    args = parser.parse_args(argv)

    saved = {}
    other = np.load(args.against) if args.against else None
    moved = total = 0
    for case, tok, pairs, state in scored_models(args.tiny):
        scores = np.array(scoring.evaluate_pairs(state, tok, pairs).per_pair_scores)
        for i, (rule, foil) in enumerate(scores):
            print(f"{case} pll pair {i} {rule.hex()} {foil.hex()}")
        key = f"{case}|pll"
        saved[key] = scores
        if other is not None:
            ref = other[key]
            diff = scores != ref
            rel = np.max(np.abs(scores - ref) / np.abs(ref))
            print(f"{case} pll moved {diff.sum()} of {diff.size} scores, max |rel| {rel:.3e}")
            moved += diff.sum()
            total += diff.size
    if other is not None:
        print(f"moved {moved} of {total} scores")
    if args.save:
        np.savez(args.save, **saved)
    return 0


if __name__ == "__main__":
    sys.exit(main())
