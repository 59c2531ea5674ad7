"""Scalar embedding oracle: one string at a time, one add per token.

``SentenceEmbedder`` embeds a batch in one numpy pass: the array FNV-1a
of :mod:`repro.nlp.hashing` hashes every token of the batch, and one
``np.bincount`` adds them up.  These functions share none of that pass.
They tokenize with :func:`repro.nlp.tokenizer.feature_tokens`, project
each token with the scalar :func:`repro.nlp.hashing.hash_token`
(memoized within one call only), add ``v[dims] += signs * w`` token by
token, and normalize with the shared :func:`repro.nlp.embedder.row_norms`;
the embedder contributes only its configuration.
``tests/nlp/test_embedder_equivalence.py`` asserts the batch path matches
them bit-for-bit, and ``BENCH_mlcore.json`` reports batch-encode speedups
relative to :func:`encode_scalar`.
"""

from __future__ import annotations

import numpy as np

from repro.nlp.embedder import SentenceEmbedder, row_norms
from repro.nlp.hashing import hash_token
from repro.nlp.tokenizer import feature_tokens

__all__ = ["embed_one_scalar", "encode_scalar"]


def _projection(embedder: SentenceEmbedder, token: str) -> tuple[np.ndarray, np.ndarray]:
    """``(dims, signs)`` of one token.

    When two hashes land on one dimension only the last is kept, which is
    what ``v[dims] += signs * w`` does with a repeated index.
    """
    sign_of: dict[int, float] = {}
    for k in range(embedder.n_hashes):
        h = hash_token(token, seed=embedder.seed * 1000 + k)
        sign_of[h % embedder.dim] = 1.0 if (h >> 63) & 1 else -1.0
    return (
        np.array(list(sign_of), dtype=np.int64),
        np.array(list(sign_of.values()), dtype=np.float64),
    )


def _embed(embedder: SentenceEmbedder, text: str, memo: dict) -> np.ndarray:
    lo, hi = embedder.ngram_range
    tokens = feature_tokens(text, n_min=lo, n_max=hi)
    if not tokens:
        out = np.zeros(embedder.dim, dtype=np.float32)
        out[0] = 1.0  # canonical vector for empty strings
        return out
    v = np.zeros(embedder.dim, dtype=np.float64)
    for tok in tokens:
        proj = memo.get(tok)
        if proj is None:
            proj = memo[tok] = _projection(embedder, tok)
        dims, signs = proj
        v[dims] += signs
    norm = float(row_norms(v))
    if norm > 0:
        v /= norm
    return v.astype(np.float32)


def embed_one_scalar(embedder: SentenceEmbedder, text: str) -> np.ndarray:
    """One string through the per-token accumulation loop."""
    return _embed(embedder, text, {})


def encode_scalar(embedder: SentenceEmbedder, texts) -> np.ndarray:
    """Per-string encode loop with no caching and no deduplication; token
    projections are memoized within the call."""
    memo: dict = {}
    return np.stack([_embed(embedder, t, memo) for t in texts])
