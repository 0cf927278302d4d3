import itertools
import time
from collections import Counter

import numpy as np
import pytest

from quantal import bpe, corpora, sweep
from quantal.bpe import (
    MARKER,
    SPECIALS,
    TokenizerModel,
    decode,
    encode,
    load_tokenizer,
    pre_tokenize,
    save_tokenizer,
    train_tokenizer,
)


def naive_train(texts, target_vocab_size):
    """Reference BPE: full pair recount every iteration, no heap.

    Returns (merges, token_to_id, final_words) for cross-checking the
    incremental implementation and its encode replay.
    """
    word_freq = Counter()
    for t in texts:
        word_freq.update(pre_tokenize(t))
    vocab = list(SPECIALS) + sorted({c for w in word_freq for c in w})
    words = [(list(w), f) for w, f in word_freq.items()]
    merges = []
    while len(vocab) < target_vocab_size:
        counts = Counter()
        for symbols, f in words:
            for p in zip(symbols, symbols[1:]):
                counts[p] += f
        if not counts:
            break
        best = min(counts, key=lambda p: (-counts[p], p))
        if counts[best] < 2:
            break
        if best not in merges:
            merges.append(best)
        product = best[0] + best[1]
        if product not in vocab:
            vocab.append(product)
        words = [(bpe._replace_pair(s, best[0], best[1]), f) for s, f in words]
    token_to_id = {t: i for i, t in enumerate(vocab)}
    final = {"".join(s): tuple(s) for s, _ in words}
    return merges, token_to_id, final


class TestTrainAgainstNaiveOracle:
    def test_single_repeated_word(self):
        tok = train_tokenizer(["ab ab ab"], 10)
        assert tok.merges[0] == ("a", "b")

    def test_tie_broken_lexicographically(self):
        # "ba" and "ab" pairs both occur twice; ("a","b") < ("b","a")
        tok = train_tokenizer(["ab xy ab", "ba xy ba"], 12)
        first_two = set(tok.merges[:2])
        assert tok.merges[0] == ("a", "b")
        assert first_two == {("a", "b"), ("b", "a")}

    def test_no_merge_below_two_occurrences(self):
        tok = train_tokenizer(["abc"], 100)
        assert tok.merges == ()
        assert tok.vocab_size == len(SPECIALS) + 3

    def test_fuzz_matches_naive(self):
        rng = np.random.default_rng(991)
        letters = "abcd"
        for _ in range(20):
            n_words = int(rng.integers(3, 40))
            words = [
                "".join(letters[i] for i in rng.integers(0, len(letters), size=rng.integers(1, 7)))
                for _ in range(n_words)
            ]
            text = " ".join(words)
            target = int(rng.integers(len(SPECIALS) + len(letters) + 1, 40))
            tok = train_tokenizer([text], target)
            merges, token_to_id, final = naive_train([text], target)
            assert list(tok.merges) == merges
            assert tok.token_to_id == token_to_id
            # encode replays training segmentation exactly
            for word, segmented in final.items():
                assert tok._segment(word) == segmented

    def test_multi_text_same_as_concatenated_lines(self):
        a, b = "foo bar foo", "bar foo bar"
        tok_two = train_tokenizer([a, b], 20)
        tok_one = train_tokenizer([a + "\n" + b], 20)
        assert tok_two == tok_one


def pair_counts_per_merge(texts, merges):
    """Pair counts by full recount before the first merge and after each."""
    words = Counter()
    for t in texts:
        words.update(pre_tokenize(t))
    words = [(list(w), f) for w, f in words.items()]
    history = []
    for step in range(len(merges) + 1):
        if step:
            words = [(bpe._replace_pair(s, *merges[step - 1]), f) for s, f in words]
        counts = Counter()
        for symbols, f in words:
            for p in zip(symbols, symbols[1:]):
                counts[p] += f
        history.append(counts)
    return history


def has_overlap(merges, history):
    return any(a == b for a, b in merges)


def has_ties(merges, history):
    return any(sum(c == max(counts.values()) for c in counts.values()) >= 3 for counts in history[:-1])


def has_stale_entry(merges, history):
    """A pair's count falls but stays >= 2, and the pair is merged later."""
    return any(
        2 <= after[p] < before[p] and p in merges[step:]
        for step, (before, after) in enumerate(zip(history, history[1:]))
        for p in before
    )


def has_marker(merges, history):
    return any(MARKER in a + b for a, b in merges)


class TestLazyHeapAgainstNaiveOracle:
    """Corpora that stress the lazy heap: the incremental trainer must pick
    the merges a full recount picks (highest count, then smallest pair).
    Each corpus is checked to have the feature it is named for.
    """

    CORPORA = {
        "overlapping-repeats": (["aaaa aaaaa aaa aaaaaaa aaaa", "abab ababab bababa abab aabbaabb"], has_overlap),
        "many-ties": ([" ".join("".join(p) for p in itertools.permutations("abcd"))], has_ties),
        "falling-counts": (["abc abc abd abd bcd bcd bce bce", "cde cde xbcd xbcd"], has_stale_entry),
        "marked-words": (["the cat sat", "the cat sat on the mat", "on the mat the cat sat", "a cat"],
                         has_marker),
    }

    @pytest.mark.parametrize("name", sorted(CORPORA))
    def test_matches_full_recount(self, name):
        texts, feature = self.CORPORA[name]
        tok = train_tokenizer(texts, 200)
        merges, token_to_id, final = naive_train(texts, 200)
        assert list(tok.merges) == merges
        assert tok.token_to_id == token_to_id
        for word, segmented in final.items():
            assert tok._segment(word) == segmented
        assert feature(merges, pair_counts_per_merge(texts, merges))


class TestGoldenCellTokenizers:
    """The tokenizers of two reference cells, by the hash of their saved file."""

    @pytest.mark.parametrize("experiment, n_train, prop, sha256", [
        (corpora.WORD_ORDER, 1000, 0.1, "254abef6fa1b421b2a62c98c68fbd1fb9348a8894b72bc1fe70bdfc916f01c90"),
        (corpora.BINARY, 50, 0.0, "f8a551c69fbff43750de8fa1f349fe46cc49ab1c686e9e30d251d3d6f0be0a1f"),
    ])
    def test_cell_tokenizer_sha256(self, experiment, n_train, prop, sha256):
        vocab, corpus, _ = sweep.cell_data(experiment, 101, n_train, prop, n_test_pairs=1)
        assert bpe.tokenizer_sha256(sweep.cell_tokenizer(experiment, corpus, vocab)) == sha256


class TestTrainValidation:
    def test_empty_texts_rejected(self):
        with pytest.raises(ValueError):
            train_tokenizer([], 10)
        with pytest.raises(ValueError):
            train_tokenizer(["", "  \n "], 10)

    def test_target_below_base_rejected(self):
        with pytest.raises(ValueError):
            train_tokenizer(["ab ab"], 4)  # needs 3 specials + {a,b,marker}

    def test_marker_char_in_input_rejected(self):
        with pytest.raises(ValueError):
            train_tokenizer([f"a{MARKER}b"], 10)


class TestEncodeDecode:
    def setup_method(self):
        self.tok = train_tokenizer(["ab ab ab", "cd cd"], 16)

    def test_ids_in_range_and_no_specials(self):
        ids = encode(self.tok, "ab cd ab")
        assert all(0 <= i < self.tok.vocab_size for i in ids)
        special_ids = {self.tok.token_to_id[tok] for tok in SPECIALS}
        assert not set(ids) & special_ids

    def test_round_trip(self):
        for s in ("ab cd ab", "ab", "cd ab"):
            assert decode(self.tok, encode(self.tok, s)) == s

    def test_encode_decode_encode(self):
        ids = encode(self.tok, "ab cd")
        assert encode(self.tok, decode(self.tok, ids)) == ids

    def test_unknown_char_maps_to_unk(self):
        ids = encode(self.tok, "ab zq")
        assert self.tok.unk_id in ids

    def test_empty_sentence_rejected(self):
        with pytest.raises(ValueError):
            encode(self.tok, "")
        with pytest.raises(ValueError):
            encode(self.tok, "   ")

    def test_decode_empty_is_empty(self):
        assert decode(self.tok, []) == ""

    def test_decode_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            decode(self.tok, [self.tok.vocab_size])
        with pytest.raises(ValueError):
            decode(self.tok, [-1])


class TestOnGeneratedCorpora:
    def test_exp2_alphabet_and_bounded_lengths(self):
        c = corpora.gen_exp2_corpus(200, 0.25, string_len=16, seed=5)
        tok = train_tokenizer([c.to_text()], 32)
        single_chars = {t for t in tok.token_to_id if len(t) == 1}
        assert single_chars == {"0", "1"}
        assert tok.vocab_size == 32
        for s in c.sentences:
            ids = encode(tok, s.text)
            assert 1 <= len(ids) <= 16
            assert decode(tok, ids) == s.text

    def test_exp1_round_trip_everywhere(self):
        v = corpora.gen_vocabulary(200, 3, 7, seed=3)
        corp = corpora.gen_exp1_corpus(v, 150, 0.2, seed=4)
        pairs = corpora.gen_exp1_test_pairs(v, 100, seed=5)
        tok = train_tokenizer(["\n".join(v.words) + "\n", corp.to_text()], 512)
        for s in corp.sentences:
            assert decode(tok, encode(tok, s.text)) == s.text
        for rule, foil in pairs.pairs:
            assert decode(tok, encode(tok, rule.text)) == rule.text
            assert decode(tok, encode(tok, foil.text)) == foil.text

    def test_period_is_single_token(self):
        v = corpora.gen_vocabulary(40, 3, 7, seed=3)
        corp = corpora.gen_exp1_corpus(v, 30, 0.0, seed=4)
        tok = train_tokenizer(["\n".join(v.words) + "\n", corp.to_text()], 256)
        assert "." in tok.token_to_id
        assert len(encode(tok, ".")) == 1

    def test_determinism(self):
        c = corpora.gen_exp2_corpus(100, 0.1, string_len=16, seed=6)
        assert train_tokenizer([c.to_text()], 32) == train_tokenizer([c.to_text()], 32)

    def test_full_scale_training_speed(self):
        v = corpora.gen_vocabulary(10000, 3, 7, seed=1)
        corp = corpora.gen_exp1_corpus(v, 2000, 0.0, seed=2)
        start = time.time()
        tok = train_tokenizer(["\n".join(v.words) + "\n", corp.to_text()], 4096)
        elapsed = time.time() - start
        assert tok.vocab_size == 4096
        assert elapsed < 60, f"tokenizer training took {elapsed:.1f}s"


class TestSerialization:
    def test_round_trip(self, tmp_path):
        c = corpora.gen_exp2_corpus(80, 0.2, string_len=16, seed=9)
        tok = train_tokenizer([c.to_text()], 32)
        p = tmp_path / "tok.txt"
        save_tokenizer(tok, p)
        back = load_tokenizer(p)
        assert back == tok
        ids = encode(tok, c.sentences[0].text)
        assert encode(back, c.sentences[0].text) == ids

    def test_header_line(self, tmp_path):
        tok = train_tokenizer(["ab ab"], 8)
        p = tmp_path / "tok.txt"
        save_tokenizer(tok, p)
        assert p.read_text().splitlines()[0] == "quantal-bpe v1"

    def test_rejects_wrong_header(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("something-else v9\nmerges 0\nvocab 3\n<pad>\n<unk>\n<mask>\n")
        with pytest.raises(ValueError):
            load_tokenizer(p)

    def test_rejects_truncated_vocab(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("quantal-bpe v1\nmerges 0\nvocab 5\n<pad>\n<unk>\n<mask>\n")
        with pytest.raises(ValueError):
            load_tokenizer(p)

    @pytest.mark.parametrize("text", ["quantal-bpe v1\n", "quantal-bpe v1\nmerges 2\na b\n"],
                             ids=["header-only", "truncated-merges"])
    def test_rejects_truncated_file(self, tmp_path, text):
        p = tmp_path / "bad.txt"
        p.write_text(text)
        with pytest.raises(ValueError):
            load_tokenizer(p)

    def test_file_reader_is_the_text_parser(self, tmp_path):
        tok = train_tokenizer(["ab ab cd"], 9)
        p = tmp_path / "tok.txt"
        save_tokenizer(tok, p)
        assert bpe.parse_tokenizer(bpe.save_tokenizer_text(tok)) == tok == load_tokenizer(p)
        with pytest.raises(ValueError, match="quantal-bpe"):
            bpe.parse_tokenizer("")

    def test_rejects_lines_after_vocab(self):
        text = bpe.save_tokenizer_text(train_tokenizer(["ab ab cd"], 9))
        with pytest.raises(ValueError, match="not the declared"):
            bpe.parse_tokenizer(text + "zz\n")


class TestModelValidation:
    def test_specials_must_lead(self):
        with pytest.raises(ValueError):
            TokenizerModel([], {"<pad>": 0, "<mask>": 1, "<unk>": 2})

    def test_ids_must_be_contiguous(self):
        with pytest.raises(ValueError):
            TokenizerModel([], {"<pad>": 0, "<unk>": 1, "<mask>": 2, "a": 4})
