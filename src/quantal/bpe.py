"""Byte-pair-encoding tokenizer trained from scratch on whitespace words.

Every word after the first on a line carries a U+2581 marker standing in
for the preceding space, so concatenated token strings invert exactly to
the line text.  Line-initial words are unmarked, which keeps single-word
lines (binary-string corpora) free of the marker symbol.

Merge selection is greedy by pair frequency with lexicographic
tie-breaking on the pair, so training is deterministic.  Pair counts are
maintained incrementally with a lazy max-heap rather than recounted per
merge.  The heap holds, for every pair whose count is at least 2, an
entry at or above its true count; an entry found stale when popped is
requeued at the true count.  A merge changes each touched pair's count
by one net amount, and the pair is pushed only when that amount is a
rise: after a fall its older, higher entry still stands above the true
count, so the pop loop reaches it first and requeues it.  The first
entry popped at its true count therefore always carries the highest
count and, among equal counts, the smallest pair, exactly as a full
recount would choose.  Pushing on falls too would pick the same merges
with 27 times the heap pops (430,857 against 16,134 on the n=1000
word-order cell of base seed 101).
"""

from __future__ import annotations

import heapq
from pathlib import Path

from .util import sha256_bytes

MARKER = "▁"
PAD, UNK, MASK = "<pad>", "<unk>", "<mask>"
SPECIALS = (PAD, UNK, MASK)

FORMAT_HEADER = "quantal-bpe v1"


class TokenizerModel:
    """Immutable merge list plus token/id tables; share freely across threads."""

    def __init__(self, merges, token_to_id):
        self.merges: tuple[tuple[str, str], ...] = tuple((a, b) for a, b in merges)
        self.token_to_id: dict[str, int] = dict(token_to_id)
        n = len(self.token_to_id)
        if sorted(self.token_to_id.values()) != list(range(n)):
            raise ValueError("token ids must be a bijection onto [0, vocab_size)")
        for i, tok in enumerate(SPECIALS):
            if self.token_to_id.get(tok) != i:
                raise ValueError(f"special token {tok!r} must have id {i}")
        for a, b in self.merges:
            if a + b in SPECIALS:
                raise ValueError(f"merge ({a!r}, {b!r}) would produce a special token")
        self.id_to_token: tuple[str, ...] = tuple(
            tok for tok, _ in sorted(self.token_to_id.items(), key=lambda kv: kv[1])
        )
        self.ranks: dict[tuple[str, str], int] = {}
        for i, pair in enumerate(self.merges):
            self.ranks.setdefault(pair, i)
        self._word_cache: dict[str, tuple[str, ...]] = {}

    @property
    def vocab_size(self) -> int:
        return len(self.token_to_id)

    @property
    def pad_id(self) -> int:
        return self.token_to_id[PAD]

    @property
    def unk_id(self) -> int:
        return self.token_to_id[UNK]

    @property
    def mask_id(self) -> int:
        return self.token_to_id[MASK]

    def __eq__(self, other):
        if not isinstance(other, TokenizerModel):
            return NotImplemented
        return self.merges == other.merges and self.token_to_id == other.token_to_id

    def __repr__(self):
        return f"TokenizerModel(vocab_size={self.vocab_size}, n_merges={len(self.merges)})"

    def _segment(self, word: str) -> tuple[str, ...]:
        """Apply merges to one marked word, lowest rank first."""
        cached = self._word_cache.get(word)
        if cached is not None:
            return cached
        symbols = list(word)
        while len(symbols) > 1:
            best_rank = None
            for i in range(len(symbols) - 1):
                r = self.ranks.get((symbols[i], symbols[i + 1]))
                if r is not None and (best_rank is None or r < best_rank):
                    best_rank = r
            if best_rank is None:
                break
            a, b = self.merges[best_rank]
            symbols = _replace_pair(symbols, a, b)
        out = tuple(symbols)
        self._word_cache[word] = out
        return out


def _replace_pair(symbols: list[str], a: str, b: str) -> list[str]:
    # all non-overlapping occurrences, left to right
    out = []
    i = 0
    n = len(symbols)
    while i < n:
        if i < n - 1 and symbols[i] == a and symbols[i + 1] == b:
            out.append(a + b)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return out


def pre_tokenize(text: str) -> list[str]:
    """Split file contents into marked words, line by line."""
    if MARKER in text:
        raise ValueError(f"input text contains reserved marker character {MARKER!r}")
    words = []
    for line in text.splitlines():
        parts = line.split()
        words.extend(parts[:1] + [MARKER + w for w in parts[1:]])
    return words


def train_tokenizer(texts: list[str], target_vocab_size: int) -> TokenizerModel:
    """Learn greedy character-pair merges over whitespace-pre-tokenized words.

    Stops when the vocabulary reaches target_vocab_size or no symbol pair
    occurs at least twice.  Ties in pair frequency go to the
    lexicographically smaller pair.
    """
    if not texts:
        raise ValueError("texts must be nonempty")
    word_freq: dict[str, int] = {}
    for text in texts:
        for w in pre_tokenize(text):
            word_freq[w] = word_freq.get(w, 0) + 1
    if not word_freq:
        raise ValueError("texts contain no words")

    alphabet = sorted({c for w in word_freq for c in w})
    base = len(SPECIALS) + len(alphabet)
    if target_vocab_size < base:
        raise ValueError(
            f"target_vocab_size {target_vocab_size} below base alphabet "
            f"plus specials ({base})"
        )

    token_to_id: dict[str, int] = {tok: i for i, tok in enumerate(SPECIALS)}
    for c in alphabet:
        token_to_id[c] = len(token_to_id)

    words = [(list(w), freq) for w, freq in word_freq.items()]
    pair_counts: dict[tuple[str, str], int] = {}
    # Every word that may hold the pair: a word joins when a merge makes
    # the pair in it and never leaves, so words that lost it are skipped.
    pair_where: dict[tuple[str, str], set[int]] = {}
    for idx, (symbols, freq) in enumerate(words):
        for pair in zip(symbols, symbols[1:]):
            pair_counts[pair] = pair_counts.get(pair, 0) + freq
            pair_where.setdefault(pair, set()).add(idx)

    heap = [(-c, pair) for pair, c in pair_counts.items() if c >= 2]
    heapq.heapify(heap)
    merges: list[tuple[str, str]] = []
    ranks: dict[tuple[str, str], int] = {}

    while len(token_to_id) < target_vocab_size and heap:
        neg_count, pair = heapq.heappop(heap)
        current = pair_counts.get(pair, 0)
        if current < 2:
            continue
        if current != -neg_count:
            heapq.heappush(heap, (-current, pair))  # stale entry; requeue fresh
            continue

        a, b = pair
        product = a + b
        if product in SPECIALS:
            raise ValueError(f"merge would collide with special token {product!r}")
        if pair not in ranks:
            ranks[pair] = len(merges)
            merges.append(pair)
        if product not in token_to_id:
            token_to_id[product] = len(token_to_id)

        # Net count change of each pair the merge touches.  Every pair a
        # merge makes holds the product, so only those join pair_where.
        delta: dict[tuple[str, str], int] = {}
        for idx in pair_where.pop(pair):
            symbols, freq = words[idx]
            new_symbols = _replace_pair(symbols, a, b)
            if len(new_symbols) == len(symbols):
                continue
            words[idx] = (new_symbols, freq)
            for p in zip(symbols, symbols[1:]):
                delta[p] = delta.get(p, 0) - freq
            for p in zip(new_symbols, new_symbols[1:]):
                delta[p] = delta.get(p, 0) + freq
                if product in p:
                    pair_where.setdefault(p, set()).add(idx)
        for p, change in delta.items():
            if change:
                count = pair_counts[p] = pair_counts.get(p, 0) + change
                if change > 0 and count >= 2:
                    heapq.heappush(heap, (-count, p))

    return TokenizerModel(merges, token_to_id)


def encode(tok: TokenizerModel, sentence: str) -> list[int]:
    """Token ids for one line of text; unknown characters become UNK."""
    words = pre_tokenize(sentence)
    if not words:
        raise ValueError("sentence must contain at least one word")
    ids = []
    for w in words:
        for piece in tok._segment(w):
            ids.append(tok.token_to_id.get(piece, tok.unk_id))
    return ids


def decode(tok: TokenizerModel, ids: list[int]) -> str:
    """Inverse of encode on its image; [] decodes to the empty string."""
    pieces = []
    for i in ids:
        if not 0 <= int(i) < tok.vocab_size:
            raise ValueError(f"token id {i} out of range [0, {tok.vocab_size})")
        pieces.append(tok.id_to_token[int(i)])
    return "".join(pieces).replace(MARKER, " ")


def save_tokenizer_text(tok: TokenizerModel) -> str:
    lines = [FORMAT_HEADER, f"merges {len(tok.merges)}"]
    lines.extend(f"{a} {b}" for a, b in tok.merges)
    lines.append(f"vocab {tok.vocab_size}")
    lines.extend(tok.id_to_token)
    return "\n".join(lines) + "\n"


def save_tokenizer(tok: TokenizerModel, path: str | Path) -> None:
    Path(path).write_bytes(save_tokenizer_text(tok).encode("utf-8"))


def tokenizer_sha256(tok: TokenizerModel) -> str:
    """SHA-256 of the text save_tokenizer_text writes (and a checkpoint embeds)."""
    return sha256_bytes(save_tokenizer_text(tok).encode("utf-8"))


def parse_tokenizer(text: str, source: str = "tokenizer text") -> TokenizerModel:
    """Inverse of save_tokenizer_text; source names the text in errors."""
    lines = text.splitlines()
    if not lines or lines[0] != FORMAT_HEADER:
        raise ValueError(f"not a {FORMAT_HEADER!r} file: {source}")
    if len(lines) < 2:
        raise ValueError(f"tokenizer file ends after its header: {source}")
    kind, n = lines[1].split()
    if kind != "merges":
        raise ValueError(f"expected merge count line, got {lines[1]!r}")
    n_merges = int(n)
    if len(lines) < 3 + n_merges:
        raise ValueError("merge listing shorter than declared count")
    merges = []
    for line in lines[2 : 2 + n_merges]:
        a, b = line.split(" ")
        merges.append((a, b))
    kind, n = lines[2 + n_merges].split()
    if kind != "vocab":
        raise ValueError(f"expected vocab count line, got {lines[2 + n_merges]!r}")
    n_vocab = int(n)
    vocab_lines = lines[3 + n_merges :]
    if len(vocab_lines) != n_vocab:
        raise ValueError(f"vocab listing has {len(vocab_lines)} lines, not the declared {n_vocab}")
    token_to_id = {tokstr: i for i, tokstr in enumerate(vocab_lines)}
    if len(token_to_id) != n_vocab:
        raise ValueError("duplicate token in vocab listing")
    return TokenizerModel(merges, token_to_id)


def load_tokenizer(path: str | Path) -> TokenizerModel:
    return parse_tokenizer(Path(path).read_text(encoding="utf-8"), str(path))
