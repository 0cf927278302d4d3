import hashlib
import itertools

import numpy as np
import pytest

from quantal import corpora
from quantal.corpora import (
    BINARY,
    WORD_ORDER,
    Corpus,
    MinimalPairSet,
    Sentence,
    Vocabulary,
    classify_shift_sentence,
    gen_exp1_corpus,
    gen_exp1_test_pairs,
    gen_exp2_corpus,
    gen_exp2_test_pairs,
    gen_vocabulary,
    make_shift_sentence,
    read_corpus,
    read_pairs,
    read_vocabulary,
    write_corpus,
    write_pairs,
    write_vocabulary,
)
from quantal.util import round_half_up


class TestShiftSentence:
    def test_rule_pattern_bac(self):
        s = make_shift_sentence("ZTlnz", "Qih", "KQxiZUQ", "BAC")
        assert s.text == "ZTlnz Qih KQxiZUQ Qih ZTlnz KQxiZUQ ."
        assert not s.is_exception

    def test_exception_pattern_acb(self):
        s = make_shift_sentence("izMewz", "gLkh", "VljC", "ACB")
        assert s.text == "izMewz gLkh VljC izMewz VljC gLkh ."
        assert s.is_exception

    def test_foil_pattern_cab(self):
        s = make_shift_sentence("a", "b", "c", "CAB")
        assert s.tokens == ("a", "b", "c", "c", "a", "b", ".")

    def test_rejects_unknown_pattern(self):
        with pytest.raises(ValueError):
            make_shift_sentence("a", "b", "c", "ABC")

    def test_rejects_repeated_words(self):
        with pytest.raises(ValueError):
            make_shift_sentence("a", "a", "c", "BAC")

    def test_classifier_inverts_builder(self):
        for pattern in ("BAC", "ACB", "CAB"):
            s = make_shift_sentence("xx", "yy", "zz", pattern)
            assert classify_shift_sentence(s.tokens) == pattern

    def test_classifier_rejects_malformed(self):
        with pytest.raises(ValueError):
            classify_shift_sentence(("a", "b", "c", "a", "b", "c", "."))  # ABC order
        with pytest.raises(ValueError):
            classify_shift_sentence(("a", "b", "c", "b", "a", "c"))  # no period


class TestVocabulary:
    def test_size_and_split(self):
        v = gen_vocabulary(200, 3, 7, seed=5)
        assert len(v.words) == 200
        assert len(v.train_words) == 100
        assert len(v.test_words) == 100
        assert set(v.train_words).isdisjoint(v.test_words)

    def test_unique_words(self):
        v = gen_vocabulary(500, 3, 7, seed=9)
        assert len(set(v.words)) == 500

    def test_lengths_and_alphabet(self):
        v = gen_vocabulary(300, 2, 5, seed=1)
        letters = set(corpora.LETTERS)
        for w in v.words:
            assert 2 <= len(w) <= 5
            assert set(w) <= letters

    def test_deterministic(self):
        assert gen_vocabulary(100, 3, 7, seed=4) == gen_vocabulary(100, 3, 7, seed=4)
        assert gen_vocabulary(100, 3, 7, seed=4) != gen_vocabulary(100, 3, 7, seed=5)

    def test_capacity_check(self):
        # only 52 one-letter words exist
        with pytest.raises(ValueError):
            gen_vocabulary(54, 1, 1, seed=0)
        v = gen_vocabulary(52, 1, 1, seed=0)
        assert sorted(v.words) == sorted(corpora.LETTERS)

    def test_rejects_odd_or_tiny(self):
        with pytest.raises(ValueError):
            gen_vocabulary(101, 3, 7, seed=0)
        with pytest.raises(ValueError):
            gen_vocabulary(0, 3, 7, seed=0)

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            gen_vocabulary(10, 5, 3, seed=0)
        with pytest.raises(ValueError):
            gen_vocabulary(10, 0, 3, seed=0)


class TestExp1Corpus:
    def test_counts_and_exceptions(self):
        v = gen_vocabulary(100, 3, 7, seed=2)
        for n, prop in [(100, 0.0), (100, 0.25), (73, 0.1), (40, 0.5)]:
            c = gen_exp1_corpus(v, n, prop, seed=3)
            assert len(c.sentences) == n
            want = round_half_up(prop * n)
            assert c.exception_count == want
            assert sum(s.is_exception for s in c.sentences) == want
            assert len({s.tokens for s in c.sentences}) == n  # n distinct types

    def test_sentences_unique(self):
        v = gen_vocabulary(20, 3, 7, seed=2)
        c = gen_exp1_corpus(v, 500, 0.3, seed=3)
        assert len({s.tokens for s in c.sentences}) == 500

    def test_patterns_correct(self):
        v = gen_vocabulary(30, 3, 7, seed=8)
        c = gen_exp1_corpus(v, 200, 0.2, seed=9)
        train = set(v.train_words)
        for s in c.sentences:
            pattern = classify_shift_sentence(s.tokens)
            assert pattern == ("ACB" if s.is_exception else "BAC")
            assert set(s.tokens[:3]) <= train

    def test_exceptions_interleaved(self):
        # shuffled order: exceptions must not all sit at the end
        v = gen_vocabulary(50, 3, 7, seed=2)
        c = gen_exp1_corpus(v, 300, 0.5, seed=3)
        flags = [s.is_exception for s in c.sentences]
        assert flags != sorted(flags) and flags != sorted(flags, reverse=True)

    def test_deterministic(self):
        v = gen_vocabulary(40, 3, 7, seed=2)
        assert gen_exp1_corpus(v, 50, 0.2, seed=7) == gen_exp1_corpus(v, 50, 0.2, seed=7)
        assert gen_exp1_corpus(v, 50, 0.2, seed=7) != gen_exp1_corpus(v, 50, 0.2, seed=8)

    def test_capacity_error(self):
        v = gen_vocabulary(6, 3, 7, seed=2)  # 3 train words -> 6 ordered triples
        gen_exp1_corpus(v, 6, 0.0, seed=0)
        with pytest.raises(ValueError):
            gen_exp1_corpus(v, 7, 0.0, seed=0)

    def test_bad_args(self):
        v = gen_vocabulary(10, 3, 7, seed=2)
        with pytest.raises(ValueError):
            gen_exp1_corpus(v, 0, 0.0, seed=0)
        with pytest.raises(ValueError):
            gen_exp1_corpus(v, 10, 1.5, seed=0)
        with pytest.raises(ValueError):
            gen_exp1_corpus(Vocabulary(("a", "b", "c", "d")), 1, 0.0, seed=0)


class TestExp1Pairs:
    def test_structure(self):
        v = gen_vocabulary(100, 3, 7, seed=2)
        ps = gen_exp1_test_pairs(v, 1000, seed=4)
        assert len(ps.pairs) == 1000
        assert ps.experiment == WORD_ORDER
        test = set(v.test_words)
        for rule, foil in ps.pairs:
            assert classify_shift_sentence(rule.tokens) == "BAC"
            assert classify_shift_sentence(foil.tokens) == "CAB"
            assert rule.tokens[:3] == foil.tokens[:3]
            assert set(rule.tokens[:3]) <= test  # held-out words only

    def test_deterministic(self):
        v = gen_vocabulary(20, 3, 7, seed=2)
        assert gen_exp1_test_pairs(v, 30, seed=1) == gen_exp1_test_pairs(v, 30, seed=1)
        assert gen_exp1_test_pairs(v, 30, seed=1) != gen_exp1_test_pairs(v, 30, seed=2)


class TestExp2Corpus:
    def test_counts_and_classes(self):
        for n, prop in [(300, 0.0), (300, 0.25), (57, 0.3)]:
            c = gen_exp2_corpus(n, prop, string_len=16, seed=6)
            assert len(c.sentences) == n
            want = round_half_up(prop * n)
            assert c.exception_count == want
            assert len({s.tokens for s in c.sentences}) == n  # n distinct types
            for s in c.sentences:
                assert len(s.tokens) == 1 and len(s.tokens[0]) == 16
                assert set(s.tokens[0]) <= {"0", "1"}
                assert s.is_exception == s.tokens[0].startswith("0")

    def test_unique_strings(self):
        c = gen_exp2_corpus(500, 0.5, string_len=16, seed=1)
        assert len({s.tokens[0] for s in c.sentences}) == 500

    def test_exhaustive_small_space(self):
        # string_len=4 -> 8 strings per class; draw them all
        c = gen_exp2_corpus(16, 0.5, string_len=4, seed=0)
        strings = {s.tokens[0] for s in c.sentences}
        assert strings == {"".join(bits) for bits in itertools.product("01", repeat=4)}

    def test_capacity_error(self):
        with pytest.raises(ValueError):
            gen_exp2_corpus(17, 0.5, string_len=4, seed=0)

    def test_deterministic(self):
        def corpus(seed):
            return gen_exp2_corpus(100, 0.2, string_len=16, seed=seed)

        assert corpus(3) == corpus(3)
        assert corpus(3) != corpus(4)


class TestExp2Pairs:
    def test_minimal_contrast(self):
        ps = gen_exp2_test_pairs(1000, string_len=16, seed=2)
        assert len(ps.pairs) == 1000
        suffixes = set()
        for rule, foil in ps.pairs:
            r, f = rule.tokens[0], foil.tokens[0]
            assert r[0] == "1" and f[0] == "0"
            assert r[1:] == f[1:]  # Hamming distance exactly 1
            suffixes.add(r[1:])
        assert len(suffixes) == 1000

    def test_capacity_error(self):
        with pytest.raises(ValueError):
            gen_exp2_test_pairs(9, string_len=4, seed=0)

    def test_string_len_below_1_is_refused(self):
        with pytest.raises(ValueError, match="string_len must be >= 1, got 0"):
            gen_exp2_test_pairs(1, string_len=0, seed=0)

    def test_deterministic(self):
        assert gen_exp2_test_pairs(50, string_len=16, seed=1) == gen_exp2_test_pairs(50, string_len=16, seed=1)


class TestFileRoundTrips:
    def test_vocabulary(self, tmp_path):
        v = gen_vocabulary(40, 3, 7, seed=2)
        p = tmp_path / "vocab.txt"
        write_vocabulary(v, p)
        assert read_vocabulary(p) == v

    def test_vocabulary_rejects_odd_file(self, tmp_path):
        p = tmp_path / "vocab.txt"
        p.write_text("a\nb\nc\n")
        with pytest.raises(ValueError):
            read_vocabulary(p)

    def test_exp1_corpus(self, tmp_path):
        v = gen_vocabulary(40, 3, 7, seed=2)
        c = gen_exp1_corpus(v, 60, 0.25, seed=3)
        p = tmp_path / "train.txt"
        write_corpus(c, p)
        back = read_corpus(p, WORD_ORDER)
        assert back == c
        # line endings are bare LF
        raw = p.read_bytes()
        assert b"\r" not in raw and raw.endswith(b".\n")

    def test_exp2_corpus(self, tmp_path):
        c = gen_exp2_corpus(60, 0.25, string_len=16, seed=3)
        p = tmp_path / "train.txt"
        write_corpus(c, p)
        assert read_corpus(p, BINARY) == c

    def test_corpus_sha256_is_the_written_file_hash(self, tmp_path):
        c = gen_exp2_corpus(60, 0.25, string_len=16, seed=3)
        p = tmp_path / "train.txt"
        write_corpus(c, p)
        assert corpora.corpus_sha256(c) == hashlib.sha256(p.read_bytes()).hexdigest()

    def test_read_corpus_rejects_garbage(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("a b c a b c .\n")  # ABC is not a known pattern
        with pytest.raises(ValueError):
            read_corpus(p, WORD_ORDER)
        p.write_text("0102\n")
        with pytest.raises(ValueError):
            read_corpus(p, BINARY)

    def test_pairs(self, tmp_path):
        v = gen_vocabulary(40, 3, 7, seed=2)
        ps = gen_exp1_test_pairs(v, 25, seed=4)
        p = tmp_path / "pairs.tsv"
        write_pairs(ps, p)
        back = read_pairs(p, WORD_ORDER)
        assert [r.text for r, _ in back.pairs] == [r.text for r, _ in ps.pairs]
        assert [f.text for _, f in back.pairs] == [f.text for _, f in ps.pairs]
        header = p.read_text().splitlines()[0]
        assert header == "pair_id\trule_sentence\tfoil_sentence"

    def test_pairs_rejects_bad_header(self, tmp_path):
        p = tmp_path / "pairs.tsv"
        p.write_text("id\ta\tb\n0\tx\ty\n")
        with pytest.raises(ValueError):
            read_pairs(p, WORD_ORDER)

    def test_pairs_rejects_empty_file(self, tmp_path):
        p = tmp_path / "pairs.tsv"
        p.write_text("")
        with pytest.raises(ValueError, match="header"):
            read_pairs(p, WORD_ORDER)

    @pytest.mark.parametrize("experiment", [WORD_ORDER, BINARY])
    def test_pairs_round_trip_exactly(self, tmp_path, experiment):
        if experiment == WORD_ORDER:
            ps = gen_exp1_test_pairs(gen_vocabulary(40, 3, 7, seed=2), 25, seed=4)
        else:
            ps = gen_exp2_test_pairs(25, string_len=8, seed=4)
        p = tmp_path / "pairs.tsv"
        write_pairs(ps, p)
        assert read_pairs(p, experiment) == ps

    @pytest.mark.parametrize("written, read_as", [(WORD_ORDER, BINARY), (BINARY, WORD_ORDER)])
    def test_pairs_of_the_other_experiment_name_the_line(self, tmp_path, written, read_as):
        if written == WORD_ORDER:
            ps = gen_exp1_test_pairs(gen_vocabulary(40, 3, 7, seed=2), 3, seed=4)
        else:
            ps = gen_exp2_test_pairs(3, string_len=8, seed=4)
        p = tmp_path / "pairs.tsv"
        write_pairs(ps, p)
        want = "not a binary string" if read_as == BINARY else "not a shift sentence"
        with pytest.raises(ValueError, match=f"pairs.tsv line 2: {want}"):
            read_pairs(p, read_as)

    def test_pairs_name_the_bad_line(self, tmp_path):
        p = tmp_path / "pairs.tsv"
        p.write_text(
            "pair_id\trule_sentence\tfoil_sentence\n"
            "0\ta b c b a c .\ta b c c a b .\n"
            "1\ta b c b a c .\ta b c a b c .\n"  # ABC is not a known pattern
        )
        with pytest.raises(ValueError, match="line 3: tokens 4-6"):
            read_pairs(p, WORD_ORDER)
        p.write_text("pair_id\trule_sentence\tfoil_sentence\n0\t10\n")
        with pytest.raises(ValueError, match="line 2: want 3"):
            read_pairs(p, BINARY)

    def test_pairs_may_contrast_any_known_patterns(self, tmp_path):
        # the reader checks sentences, not which patterns a pair pits
        # against each other: BAC against the trained exception ACB reads
        a, b, c = "Xy", "pQr", "zz"
        pair = (make_shift_sentence(a, b, c, "BAC"), make_shift_sentence(a, b, c, "ACB"))
        p = tmp_path / "pairs.tsv"
        write_pairs(MinimalPairSet((pair,), WORD_ORDER), p)
        assert read_pairs(p, WORD_ORDER).pairs == (pair,)

    def test_read_corpus_names_the_bad_line(self, tmp_path):
        p = tmp_path / "corpus.txt"
        p.write_text("10\n01\n1x\n")
        with pytest.raises(ValueError, match="corpus.txt line 3: not a binary string"):
            read_corpus(p, BINARY)


class TestSeededFuzz:
    def test_random_configs_all_valid(self):
        rng = np.random.default_rng(20240817)
        for _ in range(25):
            vsize = 2 * int(rng.integers(5, 40))
            v = gen_vocabulary(vsize, 3, 7, seed=int(rng.integers(0, 2**32)))
            n = int(rng.integers(1, 80))
            prop = float(rng.uniform(0, 0.5))
            c = gen_exp1_corpus(v, n, prop, seed=int(rng.integers(0, 2**32)))
            assert len(c.sentences) == n
            assert c.exception_count == round_half_up(prop * n)
            assert len({s.tokens for s in c.sentences}) == n
            for s in c.sentences:
                want = "ACB" if s.is_exception else "BAC"
                assert classify_shift_sentence(s.tokens) == want

    def test_corpus_text_round_trip_via_split(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n, prop, seed = int(rng.integers(1, 60)), float(rng.uniform(0, 1)), int(rng.integers(0, 2**32))
            c = gen_exp2_corpus(n, prop, string_len=16, seed=seed)
            lines = c.to_text().splitlines()
            assert lines == [s.text for s in c.sentences]
