import numpy as np
import pytest

from quantal.util import make_rng, round_half_up, sha256_bytes, stable_seed


class TestRoundHalfUp:
    def test_halves_go_up(self):
        assert round_half_up(0.5) == 1
        assert round_half_up(1.5) == 2
        assert round_half_up(2.5) == 3  # not banker's rounding

    def test_plain_cases(self):
        assert round_half_up(0.0) == 0
        assert round_half_up(0.49) == 0
        assert round_half_up(0.51) == 1
        assert round_half_up(7.0) == 7

    def test_matches_decimal_oracle(self):
        from decimal import ROUND_HALF_UP, Decimal

        rng = np.random.default_rng(11)
        for x in rng.uniform(0, 100, size=500):
            want = int(Decimal(repr(float(x))).quantize(Decimal("1"), rounding=ROUND_HALF_UP))
            assert round_half_up(float(x)) == want, x


class TestStableSeed:
    def test_deterministic(self):
        assert stable_seed(1, "corpus", 2000) == stable_seed(1, "corpus", 2000)

    def test_order_sensitive(self):
        assert stable_seed("a", "b") != stable_seed("b", "a")

    def test_no_concatenation_collision(self):
        # ("ab", "c") must differ from ("a", "bc")
        assert stable_seed("ab", "c") != stable_seed("a", "bc")

    def test_range(self):
        for parts in [(0,), (1, 2, 3), ("x",) * 5]:
            s = stable_seed(*parts)
            assert 0 <= s < 2**64

    def test_spread(self):
        seeds = {stable_seed(i, "tag") for i in range(1000)}
        assert len(seeds) == 1000


class TestMakeRng:
    def test_reproducible(self):
        a = make_rng(42).integers(0, 1000, size=10)
        b = make_rng(42).integers(0, 1000, size=10)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams(self):
        a = make_rng(1).integers(0, 2**30, size=10)
        b = make_rng(2).integers(0, 2**30, size=10)
        assert not np.array_equal(a, b)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            make_rng(-1)


def test_sha256_bytes_known_vector():
    assert (
        sha256_bytes(b"abc")
        == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )

