"""Synthetic rule/exception corpora and their minimal-pair test sets.

Two experiment families are supported:

* ``word_order`` -- sentences of the form ``A B C <perm> .`` over nonce
  words, where the rule repeats the three words in BAC order and
  exceptions use ACB.  Test pairs contrast the trained BAC order with a
  CAB order never seen in training, over novel words.
* ``binary`` -- fixed-length 0/1 strings, one per sentence.  The rule is
  "first digit is 1"; exceptions start with 0.  Test pairs are identical
  strings differing only in the first digit.

Both corpora follow one rule.  A corpus of n sentences holds
round-half-up(p * n) exceptions and n distinct sentence types.  The rule
class is drawn first, then the exceptions; a sentence that repeats one
already drawn in its class is redrawn; one permutation then shuffles the
whole corpus.

Everything is a pure function of its arguments plus a seed, so repeated
calls reproduce byte-identical files.
"""

from __future__ import annotations

import csv
import string
from dataclasses import dataclass
from pathlib import Path

from .util import make_rng, round_half_up, sha256_bytes

WORD_ORDER = "word_order"
BINARY = "binary"
EXPERIMENTS = (WORD_ORDER, BINARY)

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
    """Ordered nonce words; the first half is the training half."""

    words: tuple[str, ...]

    @property
    def train_words(self) -> tuple[str, ...]:
        return self.words[: len(self.words) // 2]

    @property
    def test_words(self) -> tuple[str, ...]:
        return self.words[len(self.words) // 2 :]

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
    """Training sentences; a generated corpus holds len(sentences) distinct types."""

    sentences: tuple[Sentence, ...]

    @property
    def exception_count(self) -> int:
        return sum(s.is_exception for s in self.sentences)

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
    return Vocabulary(tuple(words))


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


def _suffix_count(string_len: int) -> int:
    """How many binary strings of string_len digits share a first digit."""
    if string_len < 1:
        raise ValueError(f"string_len must be >= 1, got {string_len}")
    return 2 ** (string_len - 1)


def _bit_suffix(rng, string_len: int) -> str:
    """Uniform 0/1 digits for every position of a binary string after its first."""
    return "".join(map(str, rng.integers(0, 2, size=string_len - 1).tolist()))


def _distinct(count: int, draw) -> list:
    """The first ``count`` distinct results of calling ``draw()``, in draw order."""
    found: dict = {}  # a repeat changes nothing, so the loop redraws it
    while len(found) < count:
        found[draw()] = None
    return list(found)


def _rule_corpus(
    experiment: str, n: int, exception_prop: float, capacity: int, draw, seed: int
) -> Corpus:
    """The shared corpus rule (module docstring); ``draw(rng, is_exception)`` makes one sentence."""
    if n < 1:
        raise ValueError(f"corpus size must be >= 1, got {n}")
    if not 0.0 <= exception_prop <= 1.0:
        raise ValueError(f"exception_prop must be in [0, 1], got {exception_prop}")
    n_exc = round_half_up(exception_prop * n)
    if max(n - n_exc, n_exc) > capacity:
        raise ValueError(
            f"cannot draw {max(n - n_exc, n_exc)} distinct {experiment} sentences of one class; "
            f"only {capacity} exist"
        )
    rng = make_rng(seed)
    sentences = []
    for count, is_exception in ((n - n_exc, False), (n_exc, True)):
        sentences += _distinct(count, lambda: draw(rng, is_exception))
    order = rng.permutation(n)
    return Corpus(tuple(sentences[i] for i in order))


def gen_exp1_corpus(
    vocab: Vocabulary, n_sentences: int, exception_prop: float, seed: int
) -> Corpus:
    """Word-order corpus: BAC rule sentences plus ACB exceptions.

    Each sentence's three words are drawn from the training half of the
    vocabulary, without replacement within a sentence and with
    replacement across sentences.
    """
    train = vocab.train_words
    t = len(train)

    def draw(rng, is_exception):
        i, j, k = _draw_distinct_triple(rng, t)
        return make_shift_sentence(train[i], train[j], train[k], "ACB" if is_exception else "BAC")

    return _rule_corpus(WORD_ORDER, n_sentences, exception_prop, t * (t - 1) * (t - 2), draw, seed)


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


def gen_exp2_corpus(n_strings: int, exception_prop: float, string_len: int, seed: int) -> Corpus:
    """Binary-string corpus: rule strings start '1', exceptions start '0'.

    Every digit after the first is uniform random.
    """

    def draw(rng, is_exception):
        return Sentence((("0" if is_exception else "1") + _bit_suffix(rng, string_len),), is_exception)

    return _rule_corpus(BINARY, n_strings, exception_prop, _suffix_count(string_len), draw, seed)


def gen_exp2_test_pairs(n_pairs: int, string_len: int, seed: int) -> MinimalPairSet:
    """Pairs of identical strings differing only in the first digit.

    The shared suffix is unique across pairs, so every pair is a distinct
    minimal contrast at Hamming distance 1.
    """
    per_class = _suffix_count(string_len)
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    if n_pairs > per_class:
        raise ValueError(f"n_pairs {n_pairs} exceeds 2^{string_len - 1} = {per_class} suffixes")
    rng = make_rng(seed)
    suffixes = _distinct(n_pairs, lambda: _bit_suffix(rng, string_len))
    pairs = tuple((Sentence(("1" + s,), False), Sentence(("0" + s,), True)) for s in suffixes)
    return MinimalPairSet(pairs, BINARY)


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
    return Vocabulary(tuple(words))


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    """One sentence per line; word-order lines end with ' .'."""
    Path(path).write_bytes(corpus.to_text().encode("utf-8"))


def corpus_sha256(corpus: Corpus) -> str:
    """SHA-256 of the file write_corpus writes; manifests and stores record it."""
    return sha256_bytes(corpus.to_text().encode("utf-8"))


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


def parse_sentence(line: str, experiment: str) -> Sentence:
    """One line of a corpus or test-pair file as a sentence of its experiment.

    Word order: a 7-token shift sentence of a known pattern; binary: a
    nonempty 0/1 string.  is_exception is recomputed from the text.
    """
    if experiment == WORD_ORDER:
        tokens = tuple(line.split(" "))
        pattern = classify_shift_sentence(tokens)
        return Sentence(tokens, is_exception=(pattern == EXCEPTION_PATTERN))
    if experiment == BINARY:
        if not line or set(line) - {"0", "1"}:
            raise ValueError(f"not a binary string: {line!r}")
        return Sentence((line,), is_exception=line.startswith("0"))
    raise ValueError(f"unknown experiment {experiment!r}")


def read_corpus(path: str | Path, experiment: str) -> Corpus:
    """Re-parse a corpus file, recomputing each sentence's exception flag."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    sentences = []
    for line_no, line in enumerate(lines, start=1):
        try:
            sentences.append(parse_sentence(line, experiment))
        except ValueError as exc:
            raise ValueError(f"{path} line {line_no}: {exc}") from None
    return Corpus(tuple(sentences))


def write_pairs(pairset: MinimalPairSet, path: str | Path) -> None:
    """Tab-separated with header: pair_id, rule_sentence, foil_sentence."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, delimiter="\t", lineterminator="\n")
        writer.writerow(["pair_id", "rule_sentence", "foil_sentence"])
        for i, (rule, foil) in enumerate(pairset.pairs):
            writer.writerow([i, rule.text, foil.text])


def read_pairs(path: str | Path, experiment: str) -> MinimalPairSet:
    """Re-parse a test-pair file; each member must be a sentence of experiment.

    Which patterns a pair contrasts is not checked, so a file may pit BAC
    against ACB as well as against CAB.
    """
    pairs = []
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f, delimiter="\t")
        header = next(reader, None)
        if header != ["pair_id", "rule_sentence", "foil_sentence"]:
            raise ValueError(f"unexpected test-pair header: {header}")
        for row in reader:
            try:
                if len(row) != 3:
                    raise ValueError(f"want 3 tab-separated fields, got {len(row)}")
                pairs.append(tuple(parse_sentence(text, experiment) for text in row[1:]))
            except ValueError as exc:
                raise ValueError(f"{path} line {reader.line_num}: {exc}") from None
    return MinimalPairSet(tuple(pairs), experiment)
