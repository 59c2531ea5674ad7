"""Hashed n-gram sentence embedder (SBERT stand-in).

Each token (word or character n-gram, see :mod:`repro.nlp.tokenizer`) is
mapped by ``n_hashes`` independent seeded hashes to ``(dimension, sign)``
pairs; the sentence vector is the signed sum of its tokens' contributions,
then L2-normalized.  This is a sparse signed
random projection of the (virtually infinite) token space into
``dim``-dimensional space, so cosine similarity between two sentences
approximates their token overlap — the locality property k-NN and
random forests exploit downstream.

Determinism: hashing is FNV-1a with fixed seeds; the embedding of a string
depends only on (string, dim, n_hashes, seed, ngram_range).  Like the
pretrained SBERT it stands in for (§III-B), the embedder learns nothing
online: it is a pure function of its constructor arguments.

Performance: job feature strings repeat heavily (batches of identical
jobs), so per-string vectors are memoized in an LRU cache and
:meth:`encode` deduplicates its input before embedding.  The strings that
miss are embedded together, :data:`CHUNK_STRINGS` at a time, in one numpy
pass with no Python work per token:

- Each string is lowercased on its own and wrapped as ``^...$``, and the
  chunk is read as one array of code points.
- Words, the maximal runs of ``[a-z]`` or of decimal digits, are hashed
  together one code point per step
  (:func:`repro.nlp.hashing.fnv1a64_runs`).  Every n-gram starting at a
  position shares the FNV-1a states of its shorter prefixes, so ``n_max``
  steps over all positions hash the n-grams of every length
  (:func:`repro.nlp.hashing.fnv1a64_prefixes`); those that run past their
  string's ``$`` are dropped.
- The tokens go, in ``feature_tokens`` order (words, the words again, then
  n-grams by length and position), into one ``np.bincount`` over
  flattened ``(string, dim + 1)`` cells, the dummy column sliced off.
  bincount adds its input in order, so every dimension sums its floats in
  the order of the per-token loop in :mod:`repro.nlp.reference`, and the
  two are bit-for-bit identical.

Bounds: the vector cache holds at most ``cache_size`` strings, and one
call's working memory is that of one chunk.  One lock guards the cache,
so concurrent :meth:`encode` calls never see it half-updated.
"""

from __future__ import annotations

import numpy as np

from repro.nlp.hashing import fnv1a64_prefixes, fnv1a64_runs, fnv1a64_states, mix64, utf8_units
from repro.sanitizers import new_lock

__all__ = ["SentenceEmbedder"]

#: strings embedded per numpy pass: a vector does not depend on its chunk,
#: so this bounds one call's working memory and changes no bit
CHUNK_STRINGS = 1024

#: word character kind of each ASCII code point: 1 for [a-z], 2 for digits
_ASCII_KIND = np.zeros(0x80, dtype=np.int8)
_ASCII_KIND[ord("a") : ord("z") + 1] = 1
_ASCII_KIND[ord("0") : ord("9") + 1] = 2


def row_norms(M: np.ndarray) -> np.ndarray:
    """L2 norm over the last axis.

    Both the scalar and the batch embedding paths must compute norms with
    the same reduction (pairwise summation over a contiguous last axis) or
    they drift in the last bit; this helper is that single shared op.
    """
    return np.sqrt((M * M).sum(axis=-1))


class SentenceEmbedder:
    """Fixed-width deterministic sentence embedder.

    Parameters
    ----------
    dim:
        Output dimensionality.  Defaults to 384 to match the SBERT model
        the paper uses (`all-MiniLM-L6-v2`).
    n_hashes:
        Number of (dimension, sign) projections per token.  More hashes
        reduce collision noise at slightly higher cost.
    seed:
        Seed mixed into every hash; two embedders with different seeds are
        independent projections.
    ngram_range:
        Character n-gram sizes fed to the tokenizer.
    cache_size:
        Maximum number of distinct strings whose vectors are memoized
        (LRU eviction: a cache hit refreshes the entry's recency, evictions
        drop the least recently used string).
    """

    def __init__(
        self,
        dim: int = 384,
        *,
        n_hashes: int = 2,
        seed: int = 17,
        ngram_range: tuple[int, int] = (3, 4),
        cache_size: int = 200_000,
    ) -> None:
        if dim <= 1:
            raise ValueError("dim must be > 1")
        if n_hashes < 1:
            raise ValueError("n_hashes must be >= 1")
        if cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        self.dim = int(dim)
        self.n_hashes = int(n_hashes)
        self.seed = int(seed)
        self.ngram_range = (int(ngram_range[0]), int(ngram_range[1]))
        self.cache_size = int(cache_size)
        self._cache: dict[str, np.ndarray] = {}
        self._lock = new_lock("repro.nlp.SentenceEmbedder")
        #: one seed per projection hash
        self._seeds = [self.seed * 1000 + k for k in range(self.n_hashes)]

    # -- batch embedding ---------------------------------------------------------

    def _tokens(self, texts: list[str], seeds: list[int]) -> tuple[np.ndarray, np.ndarray, int]:
        """Hash every token of ``texts`` once per seed, in one pass.

        Returns ``(string, hashes, n_words)``: ``hashes[s, i]`` is
        ``hash_token`` of token ``i`` under ``seeds[s]``, ``string[i]`` the
        index of its text, and the first ``n_words`` tokens are the words,
        the rest the n-grams, each set in ``feature_tokens`` order within
        a text.
        """
        n_min, n_max = self.ngram_range
        wrapped = [f"^{t.lower()}$" for t in texts]
        joined = "".join(wrapped)
        try:
            cp = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32)
        except UnicodeEncodeError:
            # a lone surrogate: the oracle raises this on the texts it hashes
            # n-grams of, and words hold no surrogates
            "".join(w for w in wrapped if len(w) >= n_min).encode("utf-8")
            cp = np.frombuffer(joined.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
        lens = np.fromiter(map(len, wrapped), dtype=np.intp, count=len(wrapped))
        string_of = np.repeat(np.arange(len(wrapped)), lens)
        # code points from each position to its string's end, "$" included
        left = np.repeat(np.cumsum(lens), lens) - np.arange(len(cp))
        units = utf8_units(cp)

        # words: runs of one kind, 1 for [a-z] and 2 for decimal digits
        kind = _ASCII_KIND[np.minimum(cp, 0x7F)]
        if len(units) > 1:  # the tokenizer's \d also takes non-ASCII decimal digits
            wide = np.flatnonzero(cp >= 0x80)
            codes = np.unique(cp[wide])
            decimal = codes[np.array([chr(c).isdecimal() for c in codes.tolist()], dtype=bool)]
            kind[wide[np.isin(cp[wide], decimal)]] = 2
        # "^" and "$" are kind 0, so every run closes at the next edge
        edge = np.flatnonzero(kind[1:] != kind[:-1]) + 1
        opens = np.flatnonzero(kind[edge])
        starts = edge[opens]
        words = fnv1a64_runs(fnv1a64_states(b"w:", seeds), units, starts, edge[opens + 1] - starts)

        parts, owner = [words], [string_of[starts]]
        grams = fnv1a64_prefixes(fnv1a64_states(b"g:", seeds), units, n_max)
        for n, h in enumerate(grams, 1):
            if n >= n_min:
                at = np.flatnonzero(left >= n)
                parts.append(h[:, at])
                owner.append(string_of[at])
        return np.concatenate(owner), mix64(np.concatenate(parts, axis=1)), len(starts)

    def _embed_chunk(self, texts: list[str]) -> np.ndarray:
        """Embed one chunk of strings; see the module docstring."""
        k, n, width = self.n_hashes, len(texts), self.dim + 1
        string, h, n_words = self._tokens(texts, self._seeds)
        # one row per token added, in feature_tokens order (words, the words
        # again, then n-grams), holding the token's k projection hashes
        feed = np.concatenate([np.arange(n_words), np.arange(len(string))])
        proj = h.T[feed]
        dims = (proj % np.uint64(self.dim)).astype(np.intp)
        # ``v[dims] += signs * w`` keeps only the last write when two hashes
        # of one token land on one dimension; point the earlier ones at the
        # dummy column, so each real cell gets exactly the adds of the
        # per-token loop
        for a in range(k - 1):
            dims[(dims[:, a : a + 1] == dims[:, a + 1 :]).any(axis=1), a] = self.dim
        weights = np.where(proj >> np.uint64(63), 1.0, -1.0)
        dims += (string[feed] * width)[:, None]
        M = np.bincount(dims.ravel(), weights=weights.ravel(), minlength=n * width)
        # (an all-empty chunk has no weights, and bincount then counts ints)
        M = M.astype(np.float64, copy=False).reshape(n, width)[:, : self.dim]
        norms = row_norms(M)
        out = (M / np.where(norms > 0, norms, 1.0)[:, None]).astype(np.float32)
        empty = np.bincount(string, minlength=n) == 0
        out[empty] = 0.0
        out[empty, 0] = 1.0  # canonical vector for empty strings
        return out

    def _embed_batch(self, texts: list[str]) -> np.ndarray:
        """Embed strings together, bit-for-bit like the per-token loop,
        :data:`CHUNK_STRINGS` at a time; see the module docstring."""
        out = np.empty((len(texts), self.dim), dtype=np.float32)
        for lo in range(0, len(texts), CHUNK_STRINGS):
            out[lo : lo + CHUNK_STRINGS] = self._embed_chunk(texts[lo : lo + CHUNK_STRINGS])
        return out

    # -- public API -----------------------------------------------------------

    def encode(self, texts) -> np.ndarray:
        """Encode a string or a sequence of strings.

        Returns a float32 array of shape ``(dim,)`` for a single string or
        ``(n, dim)`` for a sequence.  Rows are L2-normalized.  Repeated
        strings are embedded once (cache + in-batch deduplication).  Safe
        to call from several threads at once.
        """
        if isinstance(texts, str):
            return self.encode([texts])[0]
        texts = list(texts)
        for t in texts:
            if not isinstance(t, str):
                raise TypeError(f"expected str, got {type(t).__name__}")
        with self._lock:
            miss_pos: dict[str, int] = {}  # distinct uncached text -> batch row
            hits: list[tuple[int, np.ndarray]] = []
            for i, t in enumerate(texts):
                hit = self._cache.get(t)
                if hit is not None:
                    self._cache[t] = self._cache.pop(t)  # LRU: refresh recency
                    hits.append((i, hit))
                elif t not in miss_pos:
                    miss_pos[t] = len(miss_pos)
            M = self._embed_batch(list(miss_pos)) if miss_pos else None
            if M is not None and len(miss_pos) == len(texts):
                # every input is a distinct miss, so M's rows are the
                # output in order: no second (n, dim) copy
                out = M
            else:
                out = np.empty((len(texts), self.dim), dtype=np.float32)
                for i, hit in hits:
                    out[i] = hit
                if M is not None:
                    for i, t in enumerate(texts):
                        j = miss_pos.get(t)
                        if j is not None:
                            out[i] = M[j]
            if M is not None and self.cache_size:
                for t, j in miss_pos.items():
                    if len(self._cache) >= self.cache_size:
                        # evict the least recently used entry (hits
                        # re-append, so insertion order is recency order)
                        self._cache.pop(next(iter(self._cache)))
                    self._cache[t] = M[j].copy()
        return out

    def clear_cache(self) -> None:
        with self._lock:
            self._cache.clear()

    @property
    def cache_len(self) -> int:
        return len(self._cache)

    # -- persistence -------------------------------------------------------------

    def config_dict(self) -> dict:
        """The constructor arguments, JSON-serializable: the whole state a
        vector depends on (``SentenceEmbedder(**config_dict())`` embeds
        every string the same)."""
        return {
            "dim": self.dim,
            "n_hashes": self.n_hashes,
            "seed": self.seed,
            "ngram_range": list(self.ngram_range),
            "cache_size": self.cache_size,
        }
