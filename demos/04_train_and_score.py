"""
Train a small masked language model, then score minimal pairs
=============================================================

Training masks 15% of token positions per epoch and asks the model to
restore them.  Evaluation never asks for a judgment: it masks each
position of a sentence in turn, sums the surprisal of the held-out
tokens, and prefers the pair member with the lower total.
"""

from quantal.bpe import train_tokenizer
from quantal.corpora import gen_exp2_corpus, gen_exp2_test_pairs
from quantal.model import ModelConfig, TrainConfig, init_model
from quantal.scoring import evaluate_pairs, surprisal_many
from quantal.training import train

# All-rule corpus: every training string starts with '1'.
corpus = gen_exp2_corpus(n_strings=80, exception_prop=0.0, string_len=16, seed=21)
tok = train_tokenizer([corpus.to_text()], target_vocab_size=32)
pairs = gen_exp2_test_pairs(n_pairs=100, string_len=16, seed=22)

# A deliberately small model; the defaults (8 layers, 256 wide) are for
# the real sweeps.
cfg = ModelConfig(
    vocab_size=tok.vocab_size,
    n_layers=2,
    n_heads=4,
    hidden=64,
    intermediate=128,
    max_positions=32,
)
state = init_model(cfg, seed=1)

before = evaluate_pairs(state, tok, pairs)
print(f"accuracy before training: {before.accuracy:.3f} "
      f"({before.n_preferred:.1f} of {before.n_pairs} pairs)")

state = train(state, corpus, tok, TrainConfig(epochs=150, seed=2))
print(f"last batch loss:          {state.loss_history[-1]:.4f} "
      f"(first batch: {state.loss_history[0]:.4f})")

after = evaluate_pairs(state, tok, pairs)
print(f"accuracy after training:  {after.accuracy:.3f}")
print()

# One pair up close.  Pseudo-log-likelihood (PLL) re-runs the model once
# per position with that position masked.
rule, foil = pairs.pairs[0]
sr, sf = surprisal_many(state, tok, [rule.text, foil.text])
pick = "rule" if sr < sf else "foil"
print(f"     pll: rule={sr:8.3f} nats  foil={sf:8.3f} nats  -> prefers {pick}")
print()
print(f"rule member: {rule.text}")
print(f"foil:        {foil.text}")
