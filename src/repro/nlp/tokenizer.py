"""Tokenization for job feature strings.

Job metadata is code-like text ("run_cavity_les012.sh", "gcc-12.2/openmpi",
"riken-ra0042"), so the tokenizer combines word-level tokens (split on
non-alphanumerics, digits separated from letters) with boundary-marked
character n-grams that capture subword similarity between related job
names ("prod_run_01" vs "prod_run_02").
"""

from __future__ import annotations

import re

__all__ = ["word_tokens", "char_ngrams", "feature_tokens"]

_WORD_RE = re.compile(r"[a-z]+|\d+")


def word_tokens(text: str) -> list[str]:
    """Lowercased alphabetic and numeric runs of the input.

    >>> word_tokens("run_cavity_LES012.sh")
    ['run', 'cavity', 'les', '012', 'sh']
    """
    return _WORD_RE.findall(text.lower())


def char_ngrams(text: str, n_min: int = 3, n_max: int = 4) -> list[str]:
    """Boundary-marked character n-grams of the lowercased input.

    The string is wrapped in ``^`` / ``$`` markers so prefixes and suffixes
    hash differently from inner substrings (the fastText convention).

    >>> char_ngrams("ab", 3, 3)
    ['^ab', 'ab$']
    """
    if n_min < 1 or n_max < n_min:
        raise ValueError("need 1 <= n_min <= n_max")
    s = f"^{text.lower()}$"
    out: list[str] = []
    for n in range(n_min, n_max + 1):
        if len(s) < n:
            break
        out.extend(s[i : i + n] for i in range(len(s) - n + 1))
    return out


def feature_tokens(text: str, *, n_min: int = 3, n_max: int = 4) -> list[str]:
    """Combined token stream used by the embedder.

    Word tokens are prefixed ``w:`` and n-grams ``g:`` so the two vocabularies
    never collide in the hash space; word tokens are emitted twice to give
    exact-token overlap more weight than substring overlap.
    """
    words = word_tokens(text)
    grams = char_ngrams(text, n_min, n_max)
    out = [f"w:{w}" for w in words]
    out += out  # double weight for exact word matches
    out.extend(f"g:{g}" for g in grams)
    return out
