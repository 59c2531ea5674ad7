"""Hashed n-gram sentence embedder (SBERT stand-in).

Each token (word or character n-gram, see :mod:`repro.nlp.tokenizer`) is
mapped by ``n_hashes`` independent seeded hashes to ``(dimension, sign)``
pairs; the sentence vector is the signed sum of its tokens' contributions,
optionally IDF-weighted, then L2-normalized.  This is a sparse signed
random projection of the (virtually infinite) token space into
``dim``-dimensional space, so cosine similarity between two sentences
approximates their weighted token-overlap — the locality property k-NN and
random forests exploit downstream.

Determinism: hashing is FNV-1a with fixed seeds; the embedding of a string
depends only on (string, dim, n_hashes, seed, idf state).

Performance: job feature strings repeat heavily (batches of identical
jobs), so per-string vectors are memoized in an LRU cache and
:meth:`encode` deduplicates its input before embedding.  The strings that
miss are embedded together through an interned token table:

- Each distinct token owns one table row: its ``n_hashes`` dimensions
  (collapsed keep-last, the dropped ones pointing at a dummy column
  ``dim``), their signs, its IDF token id, and its IDF weight with the
  generation that computed it.  Words and n-grams are looked up in two
  vocabularies keyed on the tokenizer's raw pieces, by ``map`` passes
  over the batch with no Python call per token; only the tokens a batch
  adds are hashed, each once in its table lifetime.
- A string becomes an int32 array of table rows in ``feature_tokens``
  order (words, the words again, then n-grams), memoized per string.
- A batch is one gather of its rows and one ``np.bincount`` over
  flattened ``(string, dim + 1)`` cells, the dummy column sliced off.
  bincount adds its input in order, so every dimension sums its floats in
  the order of the per-token loop in :mod:`repro.nlp.reference`, and the
  two are bit-for-bit identical.

Bounds: the vector cache and the per-string row cache each hold at most
``cache_size`` strings; the table holds at most ``4 * cache_size + 1024``
tokens, and is emptied, with the row cache, before a batch that would
overflow it (a single batch's tokens always fit).  One lock guards the
table and both caches, so concurrent :meth:`encode` calls, and
:meth:`partial_fit_idf`, never see them half-updated.
"""

from __future__ import annotations

from itertools import chain, filterfalse

import numpy as np

from repro.nlp.hashing import hash_token
from repro.nlp.tfidf import DocumentFrequencyTable
from repro.nlp.tokenizer import char_ngrams, word_tokens
from repro.sanitizers import new_lock

__all__ = ["SentenceEmbedder"]


def row_norms(M: np.ndarray) -> np.ndarray:
    """L2 norm over the last axis.

    Both the scalar and the batch embedding paths must compute norms with
    the same reduction (pairwise summation over a contiguous last axis) or
    they drift in the last bit; this helper is that single shared op.
    """
    return np.sqrt((M * M).sum(axis=-1))


def _grown(a: np.ndarray, rows: int) -> np.ndarray:
    out = np.empty((rows,) + a.shape[1:], dtype=a.dtype)
    out[: len(a)] = a
    return out


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
    use_idf:
        If True, token contributions are weighted by the online IDF table
        (fit via :meth:`partial_fit_idf` during the Training Workflow).
    ngram_range:
        Character n-gram sizes fed to the tokenizer.
    cache_size:
        Maximum number of distinct strings memoized, as vectors (LRU
        eviction: a cache hit refreshes the entry's recency, evictions
        drop the least recently used string) and as token rows; the token
        table holds at most ``4 * cache_size + 1024`` tokens.
    """

    def __init__(
        self,
        dim: int = 384,
        *,
        n_hashes: int = 2,
        seed: int = 17,
        use_idf: bool = False,
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
        self.use_idf = bool(use_idf)
        self.ngram_range = (int(ngram_range[0]), int(ngram_range[1]))
        self.cache_size = int(cache_size)
        self.idf_table = DocumentFrequencyTable()
        self._cache: dict[str, np.ndarray] = {}
        self._lock = new_lock("repro.nlp.SentenceEmbedder")
        # the projection hashes, then the IDF token id
        self._seeds = [self.seed * 1000 + k for k in range(self.n_hashes)] + [self.seed]
        self._table_bound = 4 * self.cache_size + 1024
        # the token table, one row per token; _n_tokens rows are in use
        self._dims = np.empty((0, self.n_hashes), dtype=np.intp)
        self._signs = np.empty((0, self.n_hashes), dtype=np.float64)
        self._ids = np.empty(0, dtype=np.uint64)
        self._weight = np.empty(0, dtype=np.float64)
        self._weight_gen = np.empty(0, dtype=np.int64)
        self._idf_gen = 0
        self._reset_table()

    # -- token table ------------------------------------------------------------

    def _reset_table(self) -> None:
        """Forget every token, and the per-string rows that point at them."""
        self._words: dict[str, int] = {}
        self._grams: dict[str, int] = {}
        self._rows: dict[str, np.ndarray] = {}
        self._n_tokens = 0

    def _intern(self, words: list[str], grams: list[str]) -> None:
        """Append one table row per new word, then per new n-gram."""
        tokens = [f"w:{w}" for w in words] + [f"g:{g}" for g in grams]
        h = np.array([[hash_token(t, s) for s in self._seeds] for t in tokens], dtype=np.uint64)
        k = self.n_hashes
        dims = (h[:, :k] % np.uint64(self.dim)).astype(np.intp)
        if k > 1:
            # ``v[dims] += signs * w`` keeps only the last write when two
            # hashes of one token land on one dimension; point the earlier
            # ones at the dummy column, so each real cell gets exactly the
            # adds of the per-token loop
            later = np.triu(np.ones((k, k), dtype=bool), 1)
            dims[((dims[:, :, None] == dims[:, None, :]) & later).any(axis=2)] = self.dim
        start, stop = self._n_tokens, self._n_tokens + len(tokens)
        if stop > len(self._ids):
            rows = max(stop, 2 * len(self._ids), 256)
            self._dims, self._signs, self._ids, self._weight, self._weight_gen = (
                _grown(a, rows)
                for a in (self._dims, self._signs, self._ids, self._weight, self._weight_gen)
            )
        self._dims[start:stop] = dims
        self._signs[start:stop] = np.where(h[:, :k] >> np.uint64(63), 1.0, -1.0)
        self._ids[start:stop] = h[:, k]
        self._weight_gen[start:stop] = -1  # no weight computed yet
        self._words.update(zip(words, range(start, stop)))
        self._grams.update(zip(grams, range(start + len(words), stop)))
        self._n_tokens = stop

    def _token_rows(self, texts: list[str]) -> list[np.ndarray]:  # hotpath: tokenizes every embedded string
        """Each text's table rows in ``feature_tokens`` order, interning
        the tokens the table lacks.  The caller holds ``_lock``."""
        out: list = []
        missed: list[tuple[int, str]] = []
        for text in texts:
            rows = self._rows.pop(text, None)
            if rows is None:
                missed.append((len(out), text))
            else:
                self._rows[text] = rows  # LRU: refresh recency
            out.append(rows)
        if not missed:
            return out
        n_min, n_max = self.ngram_range
        words = [word_tokens(text) for _, text in missed]
        grams = [char_ngrams(text, n_min, n_max) for _, text in missed]
        all_words = list(chain.from_iterable(words))
        all_grams = list(chain.from_iterable(grams))
        new_words = dict.fromkeys(filterfalse(self._words.__contains__, all_words))
        new_grams = dict.fromkeys(filterfalse(self._grams.__contains__, all_grams))
        if new_words or new_grams:
            if self._n_tokens and self._n_tokens + len(new_words) + len(new_grams) > self._table_bound:
                self._reset_table()
                return self._token_rows(texts)
            self._intern(list(new_words), list(new_grams))
        word_rows = list(map(self._words.__getitem__, all_words))
        gram_rows = list(map(self._grams.__getitem__, all_grams))
        flat: list[int] = []
        sizes: list[int] = []
        w = g = 0
        for ws, gs in zip(words, grams):
            w_end, g_end = w + len(ws), g + len(gs)
            flat += word_rows[w:w_end]
            flat += word_rows[w:w_end]  # words count twice, as in feature_tokens
            flat += gram_rows[g:g_end]
            sizes.append(2 * len(ws) + len(gs))
            w, g = w_end, g_end
        parts = np.split(np.array(flat, dtype=np.int32), np.cumsum(sizes)[:-1])
        for (j, text), rows in zip(missed, parts):
            out[j] = rows
            if self.cache_size:
                if len(self._rows) >= self.cache_size:
                    self._rows.pop(next(iter(self._rows)))
                self._rows[text] = rows
        return out

    def _weights(self, flat: np.ndarray) -> np.ndarray:
        """IDF weight of each gathered row; rows weighed under an older IDF
        generation are recomputed first."""
        stale = np.unique(flat[self._weight_gen[flat] != self._idf_gen])
        if stale.size:
            idf = self.idf_table.idf
            self._weight[stale] = [idf(i) for i in self._ids[stale].tolist()]
            self._weight_gen[stale] = self._idf_gen
        return self._weight[flat]

    def _embed_batch(self, texts: list[str]) -> np.ndarray:  # hotpath: batched projection behind encode()
        """Embed strings together, bit-for-bit like the per-token loop.

        One gather of the batch's table rows and one ``np.bincount`` over
        flattened ``(string, dim + 1)`` cells; see the module docstring.
        The caller holds ``_lock``.
        """
        rows = self._token_rows(texts)
        n, width = len(texts), self.dim + 1
        counts = np.fromiter(map(len, rows), dtype=np.intp, count=n)
        flat = np.concatenate(rows)
        contrib = self._signs[flat]
        if self.use_idf:
            contrib *= self._weights(flat)[:, None]
        cells = self._dims[flat] + np.repeat(np.arange(0, n * width, width), counts)[:, None]
        M = np.bincount(cells.ravel(), weights=contrib.ravel(), minlength=n * width)
        # (an all-empty batch has no weights, and bincount then counts ints)
        M = M.astype(np.float64, copy=False).reshape(n, width)[:, : self.dim]
        norms = row_norms(M)
        nz = norms > 0
        M[nz] /= norms[nz, None]
        out = M.astype(np.float32)
        empty = counts == 0
        out[empty] = 0.0
        out[empty, 0] = 1.0  # canonical vector for empty strings
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
        out = np.empty((len(texts), self.dim), dtype=np.float32)
        with self._lock:
            miss_pos: dict[str, int] = {}  # distinct uncached text -> batch row
            for i, t in enumerate(texts):
                hit = self._cache.get(t)
                if hit is not None:
                    self._cache[t] = self._cache.pop(t)  # LRU: refresh recency
                    out[i] = hit
                elif t not in miss_pos:
                    miss_pos[t] = len(miss_pos)
            if miss_pos:
                M = self._embed_batch(list(miss_pos))
                for i, t in enumerate(texts):
                    j = miss_pos.get(t)
                    if j is not None:
                        out[i] = M[j]
                if self.cache_size:
                    for t, j in miss_pos.items():
                        if len(self._cache) >= self.cache_size:
                            # evict the least recently used entry (hits
                            # re-append, so insertion order is recency order)
                            self._cache.pop(next(iter(self._cache)))
                        self._cache[t] = M[j].copy()
        return out

    def partial_fit_idf(self, texts) -> "SentenceEmbedder":
        """Update the online IDF table with a batch of strings.

        Each distinct string is tokenized once, its token ids read from the
        token table.  The IDF generation then moves on, so every table
        weight is recomputed when next used, and the vector cache empties.
        """
        texts = list(texts)
        with self._lock:
            distinct = list(dict.fromkeys(texts))
            ids = {t: self._ids[r].tolist() for t, r in zip(distinct, self._token_rows(distinct))}
            self.idf_table.partial_fit(ids[t] for t in texts)
            self._idf_gen += 1
            self._cache.clear()
        return self

    def clear_cache(self) -> None:
        with self._lock:
            self._cache.clear()

    @property
    def cache_len(self) -> int:
        return len(self._cache)

    # -- persistence -------------------------------------------------------------

    def config_dict(self) -> dict:
        """Serializable constructor arguments + IDF state."""
        with self._lock:
            idf_state = self.idf_table.state_dict()
        return {
            "dim": self.dim,
            "n_hashes": self.n_hashes,
            "seed": self.seed,
            "use_idf": self.use_idf,
            "ngram_range": list(self.ngram_range),
            "cache_size": self.cache_size,
            "idf_state": idf_state,
        }

    @classmethod
    def from_config_dict(cls, cfg: dict) -> "SentenceEmbedder":
        emb = cls(
            cfg["dim"],
            n_hashes=cfg["n_hashes"],
            seed=cfg["seed"],
            use_idf=cfg["use_idf"],
            ngram_range=tuple(cfg["ngram_range"]),
            cache_size=cfg["cache_size"],
        )
        emb.idf_table = DocumentFrequencyTable.from_state_dict(cfg["idf_state"])
        return emb
