"""Synthetic rule/exception corpora and their minimal-pair test sets.

Two experiment families are supported:

* ``word_order`` -- sentences of the form ``A B C <perm> .`` over nonce
  words, where the rule repeats the three words in BAC order and
  exceptions use ACB.  Test pairs contrast the trained BAC order with a
  CAB order never seen in training, over novel words.
* ``binary`` -- fixed-length 0/1 strings, one per sentence.  The rule is
  "first digit is 1"; exceptions start with 0.  Test pairs are identical
  strings differing only in the first digit.

Everything is a pure function of its arguments plus a seed, so repeated
calls reproduce byte-identical files.
"""

from __future__ import annotations

import csv
import string
from dataclasses import dataclass
from pathlib import Path

from .util import make_rng, round_half_up

WORD_ORDER = "word_order"
BINARY = "binary"

LETTERS = string.ascii_letters  # 52 chars, case-sensitive

# token positions 4-6 as indices into the (a, b, c) prefix
SHIFT_PATTERNS = {
    "BAC": (1, 0, 2),
    "ACB": (0, 2, 1),
    "CAB": (2, 0, 1),
}
EXCEPTION_PATTERN = "ACB"


@dataclass(frozen=True)
class Vocabulary:
    """Ordered nonce words; the first ``split_index`` are the training half."""

    words: tuple[str, ...]
    split_index: int

    @property
    def train_words(self) -> tuple[str, ...]:
        return self.words[: self.split_index]

    @property
    def test_words(self) -> tuple[str, ...]:
        return self.words[self.split_index :]

    def to_text(self) -> str:
        return "".join(w + "\n" for w in self.words)


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[str, ...]
    is_exception: bool

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


@dataclass(frozen=True)
class Corpus:
    sentences: tuple[Sentence, ...]
    experiment: str
    n_types: int
    exception_count: int
    seed: int | None

    def to_text(self) -> str:
        return "".join(s.text + "\n" for s in self.sentences)


@dataclass(frozen=True)
class MinimalPairSet:
    pairs: tuple[tuple[Sentence, Sentence], ...]
    experiment: str


def gen_vocabulary(size: int, min_len: int, max_len: int, seed: int) -> Vocabulary:
    """Generate ``size`` unique random-letter words, split in half.

    Word lengths are uniform over [min_len, max_len] and characters are
    uniform over the 52 ASCII letters (case-sensitive).  Duplicates are
    redrawn, so the draw order of surviving words is deterministic.
    """
    if size < 2 or size % 2 != 0:
        raise ValueError(f"vocabulary size must be even and >= 2, got {size}")
    if not (1 <= min_len <= max_len):
        raise ValueError(f"need 1 <= min_len <= max_len, got [{min_len}, {max_len}]")
    capacity = sum(len(LETTERS) ** n for n in range(min_len, max_len + 1))
    if size > capacity:
        raise ValueError(
            f"cannot draw {size} unique words of length {min_len}..{max_len} "
            f"(only {capacity} exist)"
        )

    rng = make_rng(seed)
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        need = size - len(words)
        lengths = rng.integers(min_len, max_len + 1, size=need)
        chars = rng.integers(0, len(LETTERS), size=int(lengths.sum()))
        pos = 0
        for n in lengths:
            w = "".join(LETTERS[c] for c in chars[pos : pos + n])
            pos += int(n)
            if w not in seen:
                seen.add(w)
                words.append(w)
    return Vocabulary(tuple(words), size // 2)


def make_shift_sentence(a: str, b: str, c: str, pattern: str) -> Sentence:
    """Build ``a b c <perm> .`` where perm reorders (a, b, c) per pattern."""
    if pattern not in SHIFT_PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}; expected one of {sorted(SHIFT_PATTERNS)}")
    if len({a, b, c}) != 3:
        raise ValueError(f"words must be pairwise distinct, got {(a, b, c)}")
    prefix = (a, b, c)
    perm = tuple(prefix[i] for i in SHIFT_PATTERNS[pattern])
    return Sentence(prefix + perm + (".",), is_exception=(pattern == EXCEPTION_PATTERN))


def _draw_distinct_triple(rng, n: int) -> tuple[int, int, int]:
    # without replacement within a sentence
    while True:
        i, j, k = rng.integers(0, n, size=3)
        if i != j and j != k and i != k:
            return int(i), int(j), int(k)


def gen_exp1_corpus(
    vocab: Vocabulary, n_sentences: int, exception_prop: float, seed: int
) -> Corpus:
    """Word-order corpus: BAC rule sentences plus ACB exceptions.

    Triples are drawn from the training half of the vocabulary, without
    replacement within a sentence and with replacement across sentences.
    Duplicate sentences are redrawn so every sentence is a distinct type.
    The exception count is round-half-up of ``exception_prop * n_sentences``.
    """
    if n_sentences < 1:
        raise ValueError("n_sentences must be >= 1")
    if not (0.0 <= exception_prop <= 1.0):
        raise ValueError(f"exception_prop must be in [0, 1], got {exception_prop}")
    train = vocab.train_words
    t = len(train)
    if t < 3:
        raise ValueError(f"training half has {t} words; need >= 3")

    n_exc = round_half_up(exception_prop * n_sentences)
    n_rule = n_sentences - n_exc
    triple_space = t * (t - 1) * (t - 2)
    if n_rule > triple_space or n_exc > triple_space:
        raise ValueError(
            f"triple space exhausted: {triple_space} ordered triples over "
            f"{t} training words cannot yield {max(n_rule, n_exc)} unique sentences"
        )

    rng = make_rng(seed)
    sentences: list[Sentence] = []
    seen: set[tuple[str, ...]] = set()
    for count, pattern in ((n_rule, "BAC"), (n_exc, "ACB")):
        made = 0
        while made < count:
            i, j, k = _draw_distinct_triple(rng, t)
            s = make_shift_sentence(train[i], train[j], train[k], pattern)
            if s.tokens in seen:
                continue
            seen.add(s.tokens)
            sentences.append(s)
            made += 1
    order = rng.permutation(len(sentences))
    shuffled = tuple(sentences[i] for i in order)
    return Corpus(shuffled, WORD_ORDER, n_types=len(shuffled), exception_count=n_exc, seed=seed)


def gen_exp1_test_pairs(vocab: Vocabulary, n_pairs: int, seed: int) -> MinimalPairSet:
    """Minimal pairs over the testing half: BAC rule member vs CAB foil."""
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    test = vocab.test_words
    if len(test) < 3:
        raise ValueError(f"testing half has {len(test)} words; need >= 3")
    rng = make_rng(seed)
    pairs = []
    for _ in range(n_pairs):
        i, j, k = _draw_distinct_triple(rng, len(test))
        a, b, c = test[i], test[j], test[k]
        pairs.append((make_shift_sentence(a, b, c, "BAC"), make_shift_sentence(a, b, c, "CAB")))
    return MinimalPairSet(tuple(pairs), WORD_ORDER)


def _bits_to_str(bits) -> str:
    return "".join("1" if b else "0" for b in bits)


def gen_exp2_corpus(
    n_strings: int, exception_prop: float, string_len: int = 16, seed: int = 0
) -> Corpus:
    """Binary-string corpus: rule strings start '1', exceptions start '0'.

    All positions after the first are uniform random; strings are unique
    within the corpus (uniqueness per first-digit class suffices).
    """
    if n_strings < 1:
        raise ValueError("n_strings must be >= 1")
    if not (0.0 <= exception_prop <= 1.0):
        raise ValueError(f"exception_prop must be in [0, 1], got {exception_prop}")
    if string_len < 1:
        raise ValueError("string_len must be >= 1")

    n_exc = round_half_up(exception_prop * n_strings)
    n_rule = n_strings - n_exc
    per_class = 2 ** (string_len - 1)
    if n_rule > per_class or n_exc > per_class:
        raise ValueError(
            f"cannot draw {max(n_rule, n_exc)} unique strings per class; "
            f"only 2^{string_len - 1} = {per_class} exist"
        )

    rng = make_rng(seed)
    sentences: list[Sentence] = []
    for count, first in ((n_rule, "1"), (n_exc, "0")):
        seen: set[str] = set()
        while len(seen) < count:
            suffix = _bits_to_str(rng.integers(0, 2, size=string_len - 1))
            if suffix in seen:
                continue
            seen.add(suffix)
            sentences.append(Sentence((first + suffix,), is_exception=(first == "0")))
    order = rng.permutation(len(sentences))
    shuffled = tuple(sentences[i] for i in order)
    return Corpus(shuffled, BINARY, n_types=len(shuffled), exception_count=n_exc, seed=seed)


def gen_exp2_test_pairs(n_pairs: int, string_len: int = 16, seed: int = 0) -> MinimalPairSet:
    """Pairs of identical strings differing only in the first digit.

    The shared suffix is unique across pairs, so every pair is a distinct
    minimal contrast at Hamming distance 1.
    """
    per_class = 2 ** (string_len - 1)
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    if n_pairs > per_class:
        raise ValueError(f"n_pairs {n_pairs} exceeds 2^{string_len - 1} = {per_class} suffixes")
    rng = make_rng(seed)
    seen: set[str] = set()
    pairs = []
    while len(pairs) < n_pairs:
        suffix = _bits_to_str(rng.integers(0, 2, size=string_len - 1))
        if suffix in seen:
            continue
        seen.add(suffix)
        pairs.append(
            (
                Sentence(("1" + suffix,), is_exception=False),
                Sentence(("0" + suffix,), is_exception=True),
            )
        )
    return MinimalPairSet(tuple(pairs), BINARY)


# ---------------------------------------------------------------------------
# file formats: plain text, UTF-8, LF line endings
# ---------------------------------------------------------------------------


def write_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    """One word per line, training half first."""
    Path(path).write_bytes(vocab.to_text().encode("utf-8"))


def read_vocabulary(path: str | Path) -> Vocabulary:
    words = Path(path).read_text(encoding="utf-8").splitlines()
    if len(words) % 2 != 0:
        raise ValueError(f"vocabulary file {path} has odd word count {len(words)}")
    return Vocabulary(tuple(words), len(words) // 2)


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    """One sentence per line; word-order lines end with ' .'."""
    Path(path).write_bytes(corpus.to_text().encode("utf-8"))


def classify_shift_sentence(tokens: tuple[str, ...]) -> str:
    """Name the permutation pattern of a 7-token shift sentence."""
    if len(tokens) != 7 or tokens[6] != ".":
        raise ValueError(f"not a shift sentence: {tokens}")
    prefix = tokens[:3]
    if len(set(prefix)) != 3:
        raise ValueError(f"first three words not distinct: {prefix}")
    for name, perm in SHIFT_PATTERNS.items():
        if tokens[3:6] == tuple(prefix[i] for i in perm):
            return name
    raise ValueError(f"tokens 4-6 are not a known permutation of tokens 1-3: {tokens}")


def read_corpus(path: str | Path, experiment: str, seed: int | None = None) -> Corpus:
    """Re-parse a corpus file, recomputing pattern flags and type counts."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    sentences = []
    for line in lines:
        if experiment == WORD_ORDER:
            tokens = tuple(line.split(" "))
            pattern = classify_shift_sentence(tokens)
            sentences.append(Sentence(tokens, is_exception=(pattern == EXCEPTION_PATTERN)))
        elif experiment == BINARY:
            if not line or set(line) - {"0", "1"}:
                raise ValueError(f"not a binary string: {line!r}")
            sentences.append(Sentence((line,), is_exception=line.startswith("0")))
        else:
            raise ValueError(f"unknown experiment {experiment!r}")
    n_types = len({s.tokens for s in sentences})
    n_exc = sum(s.is_exception for s in sentences)
    return Corpus(tuple(sentences), experiment, n_types=n_types, exception_count=n_exc, seed=seed)


def write_pairs(pairset: MinimalPairSet, path: str | Path) -> None:
    """Tab-separated with header: pair_id, rule_sentence, foil_sentence."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, delimiter="\t", lineterminator="\n")
        writer.writerow(["pair_id", "rule_sentence", "foil_sentence"])
        for i, (rule, foil) in enumerate(pairset.pairs):
            writer.writerow([i, rule.text, foil.text])


def read_pairs(path: str | Path, experiment: str) -> MinimalPairSet:
    pairs = []
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f, delimiter="\t")
        header = next(reader)
        if header != ["pair_id", "rule_sentence", "foil_sentence"]:
            raise ValueError(f"unexpected test-pair header: {header}")
        for row in reader:
            _, rule_text, foil_text = row
            pairs.append(
                (
                    Sentence(tuple(rule_text.split(" ")), is_exception=False),
                    Sentence(tuple(foil_text.split(" ")), is_exception=True),
                )
            )
    return MinimalPairSet(tuple(pairs), experiment)
