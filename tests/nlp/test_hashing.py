"""Tests for deterministic FNV-1a hashing."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nlp.hashing import (
    fnv1a64,
    fnv1a64_prefixes,
    fnv1a64_runs,
    fnv1a64_states,
    hash_token,
    mix64,
    utf8_units,
)


class TestFNV:
    def test_known_vector(self):
        # FNV-1a 64-bit of empty input is the offset basis
        assert fnv1a64(b"") == 0xCBF29CE484222325

    def test_determinism(self):
        assert fnv1a64(b"hello") == fnv1a64(b"hello")

    def test_seed_changes_hash(self):
        assert fnv1a64(b"hello", seed=1) != fnv1a64(b"hello", seed=2)

    def test_64_bit_range(self):
        for s in (b"", b"a", b"abcdef" * 10):
            assert 0 <= fnv1a64(s) < 2**64

    @given(st.binary(max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_always_in_range(self, data):
        assert 0 <= fnv1a64(data) < 2**64

    @given(st.text(max_size=32), st.text(max_size=32))
    @settings(max_examples=150, deadline=None)
    def test_distinct_tokens_rarely_collide(self, a, b):
        # not a strict guarantee, but FNV on short tokens should separate
        # unequal inputs in a 64-bit space essentially always
        if a != b:
            assert hash_token(a) != hash_token(b)

    def test_unicode_handled(self):
        assert isinstance(hash_token("日本語ジョブ"), int)


class TestBitDispersion:
    def test_top_bit_used(self):
        # the embedder derives signs from the top bit; both signs must occur
        tops = {(hash_token(f"t{i}") >> 63) & 1 for i in range(64)}
        assert tops == {0, 1}


def _code_points(text):
    return np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)


def _array_hashes(tokens, seeds, prefix=""):
    """``hash_token(prefix + token, seed)`` of every token, through the array FNV."""
    lengths = np.array([len(t) for t in tokens], dtype=np.intp)
    starts = np.cumsum(lengths) - lengths
    states = fnv1a64_states(prefix.encode("utf-8"), seeds)
    units = utf8_units(_code_points("".join(tokens)))
    return mix64(fnv1a64_runs(states, units, starts, lengths)).tolist()


_seeds = st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=3)


class TestArrayFNV:
    """The array FNV-1a of the batch embedder equals the scalar ``hash_token``."""

    @given(st.lists(st.text(max_size=40), max_size=12), _seeds, st.sampled_from(["", "w:", "g:"]))
    @settings(max_examples=200, deadline=None)
    def test_runs_are_hash_token(self, tokens, seeds, prefix):
        expected = [[hash_token(prefix + t, s) for t in tokens] for s in seeds]
        assert _array_hashes(tokens, seeds, prefix) == expected

    @given(st.text(max_size=30), _seeds, st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_prefix_states_hash_every_ngram(self, text, seeds, n):
        units = utf8_units(_code_points(text))
        for j, h in enumerate(fnv1a64_prefixes(fnv1a64_states(b"g:", seeds), units, n), 1):
            grams = [text[p : p + j] for p in range(len(text) - j + 1)]
            got = mix64(h)[:, : len(grams)].tolist()
            assert got == [[hash_token("g:" + g, s) for g in grams] for s in seeds]

    def test_long_runs_finish_from_their_array_state(self):
        # ten short runs keep the array loop going for a few steps; the long
        # ones, 1-, 2- and 4-byte, then finish in the scalar loop
        tokens = ["ab"] * 10 + ["x" * 300, "\u00e9" * 300, "\U0001F600" * 290 + "a"]
        seeds = [0, 17000, 17001]
        assert _array_hashes(tokens, seeds, "w:") == [
            [hash_token("w:" + t, s) for t in tokens] for s in seeds
        ]

    def test_utf8_units_are_the_utf8_encoding(self):
        text = "a\x00\u00e9\u20ac\U0001F600\U0010FFFF"
        units = utf8_units(_code_points(text))
        assert units.shape == (4, len(text))
        used = units != 0
        used[0] = True
        assert bytes(units.T[used.T].tolist()) == text.encode("utf-8")
