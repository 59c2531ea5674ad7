"""Batch-encode parity and cache behaviour for the vectorized embedder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nlp.embedder import SentenceEmbedder
from repro.nlp.reference import embed_one_scalar, encode_scalar

TEXTS = [
    "srun --ntasks=128 gemm avx512",
    "mpi stream triad nodes=4",
    "gromacs gpu --exclusive mem=64G",
    "lbm d3q19 cg solver ib0",
    "",
    "   ",
    "a",
    "fft 1024 batched vasp",
]


class TestBatchScalarParity:
    def test_batch_matches_scalar_bit_for_bit(self):
        emb = SentenceEmbedder(dim=96, cache_size=0)
        batch = emb._embed_batch(list(TEXTS))
        scalar = encode_scalar(emb, TEXTS)
        assert np.array_equal(batch, scalar)

    def test_collision_heavy_config_matches(self):
        # dim=2 with 4 hashes forces duplicate dimensions inside single
        # tokens, pinning the keep-last fancy-assignment collapse
        emb = SentenceEmbedder(dim=2, n_hashes=4, cache_size=0)
        batch = emb._embed_batch(list(TEXTS))
        scalar = encode_scalar(emb, TEXTS)
        assert np.array_equal(batch, scalar)

    def test_public_encode_matches_scalar_with_repeats(self):
        emb = SentenceEmbedder(dim=64)
        batch = TEXTS * 5  # repeats exercise cache + in-batch dedup
        out = emb.encode(batch)
        assert np.array_equal(out, encode_scalar(emb, batch))
        # a second (fully cached) pass returns the same rows
        assert np.array_equal(emb.encode(batch), out)

    def test_single_string_matches_batch_row(self):
        emb = SentenceEmbedder(dim=64, cache_size=0)
        single = np.stack([emb.encode(t) for t in TEXTS])
        assert np.array_equal(single, emb.encode(TEXTS))

    @pytest.mark.parametrize(
        "text",
        [
            "run_" + "a" * 5_000 + "_01.sh",
            "é日😀٣ß" * 1_000,
            " ".join(["ab"] * 12 + ["x" * 600, "٣" * 300]),
        ],
        ids=["5000-char-word", "5000-non-ascii", "long-words-among-short"],
    )
    def test_long_inputs_match_scalar(self, text):
        emb = SentenceEmbedder(dim=64, cache_size=0)
        batch = [text, "srun gemm", text[::-1]]
        assert np.array_equal(emb.encode(batch), encode_scalar(emb, batch))

    def test_embed_one_is_the_scalar_reference(self):
        emb = SentenceEmbedder(dim=64, cache_size=0)
        for t in TEXTS:
            assert np.array_equal(emb.encode(t), embed_one_scalar(emb, t))


class TestLRUCache:
    def test_hit_refreshes_recency(self):
        emb = SentenceEmbedder(dim=32, cache_size=3)
        emb.encode(["a1", "b2", "c3"])
        assert emb.cache_len == 3
        emb.encode("a1")  # hit: "a1" becomes most recently used
        emb.encode("d4")  # eviction drops the least recently used: "b2"
        assert "a1" in emb._cache
        assert "b2" not in emb._cache
        assert set(emb._cache) == {"a1", "c3", "d4"}

    def test_hit_serves_cached_vector(self):
        emb = SentenceEmbedder(dim=32, cache_size=4)
        first = emb.encode("srun gemm")
        cached = emb._cache["srun gemm"]
        again = emb.encode("srun gemm")
        assert np.array_equal(first, again)
        assert emb._cache["srun gemm"] is cached  # hit did not re-embed

    def test_batch_hits_refresh_recency_too(self):
        emb = SentenceEmbedder(dim=32, cache_size=3)
        emb.encode(["a1", "b2", "c3"])
        emb.encode(["a1", "d4"])  # list-path hit on "a1", miss on "d4"
        assert "a1" in emb._cache
        assert "b2" not in emb._cache


#: arbitrary Unicode, plus the corners of the tokenizer and of the batch
#: pass: non-ASCII digits that ``\d`` matches (2-byte "٣", 4-byte "𝟘"),
#: "İ" (lowercasing makes it two characters), final sigma (lowercasing
#: depends on context), the boundary markers "^" and "$" inside the text,
#: 2-, 3- and 4-byte characters, empty and whitespace-only strings, and
#: strings shorter than ``n_min``
_text = st.one_of(
    st.text(max_size=30),
    st.text(st.sampled_from("İi\u0307٣৭𝟘7aZ_-,./ \t^$ΟΔΣσςéß€日😀"), max_size=12),
    st.sampled_from(
        ["", " ", "\t\n", "a", "ab", "İ", "٣", "x,1,2", "ΟΔΟΣ", "ΣΑ", "^", "$", "^$",
         "a^b$c", "$run^", "😀", "é", "ß€", "日本語", "𝟘𝟙x9", "ΟΔΟΣ 😀 a$^b"]
    ),
)
_batches = st.lists(_text, min_size=1, max_size=12)


class TestOracleProperty:
    """``encode`` equals the scalar oracle bit for bit, however the cache
    was filled by earlier calls."""

    @pytest.mark.parametrize(
        "config",
        [{}, {"dim": 2, "n_hashes": 4}, {"ngram_range": (1, 1)}, {"ngram_range": (2, 6), "n_hashes": 1}],
        ids=["default", "dim2-hashes4", "unigrams", "grams2to6-hashes1"],
    )
    def test_encode_is_the_oracle(self, config):
        emb = SentenceEmbedder(**config)

        @given(_batches)
        @settings(max_examples=150, deadline=None)
        def check(texts):
            assert np.array_equal(emb.encode(texts), encode_scalar(emb, texts))

        check()
