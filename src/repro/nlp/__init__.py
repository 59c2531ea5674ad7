"""NLP substrate: a deterministic substitute for Sentence-BERT.

The paper encodes the comma-separated job feature string with the SBERT
model ``all-MiniLM-L6-v2`` into a 384-dimensional float vector (§III-B).
Pre-trained transformer weights are not available offline, so this package
provides :class:`repro.nlp.SentenceEmbedder`: a hashed character-n-gram /
word-token embedding with signed random projection into a fixed-width
unit-norm vector.

What the MCBound pipeline needs from SBERT is not language understanding
but a *locality-preserving* fixed-width representation: two job feature
strings that are similar (same user, similar job-script names, same
environment) must land close in embedding space so that k-NN voting and
random-forest splits generalize across them.  Shared n-grams contributing
identical signed components give exactly that property — deterministically,
with no model download, and at a per-job cost comparable to the paper's
measured 2 ms encode time.
"""

from repro.nlp.tokenizer import word_tokens, char_ngrams, feature_tokens
from repro.nlp.hashing import fnv1a64, hash_token
from repro.nlp.embedder import SentenceEmbedder

__all__ = [
    "word_tokens",
    "char_ngrams",
    "feature_tokens",
    "fnv1a64",
    "hash_token",
    "SentenceEmbedder",
]
