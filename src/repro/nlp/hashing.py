"""Deterministic 64-bit feature hashing.

Python's built-in ``hash`` is salted per process, so embeddings built on it
would not be reproducible across runs (and could not be persisted alongside
a trained model).  We use FNV-1a, which is tiny, fast, and has good
avalanche behaviour for short code-like tokens.

:func:`fnv1a64` and :func:`hash_token` hash one token in Python (the
embedding oracle in :mod:`repro.nlp.reference` uses them).  The array
functions below compute the same bits for every token of a batch at once,
on uint64 arrays with one row per seed: a token is a run of code points,
each fed to FNV-1a as its 1-4 UTF-8 bytes, and numpy's wrapping uint64
multiply is the ``& _MASK`` of the scalar loop.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "fnv1a64",
    "hash_token",
    "fnv1a64_states",
    "utf8_units",
    "fnv1a64_runs",
    "fnv1a64_prefixes",
    "mix64",
]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = 0xFFFFFFFFFFFFFFFF

_PRIME = np.uint64(_FNV_PRIME)
_SHIFT = np.uint64(33)
_MIX1 = np.uint64(0xFF51AFD7ED558CCD)
_MIX2 = np.uint64(0xC4CEB9FE1A85EC53)
#: UTF-8 lead-byte marks by encoded length
_LEAD_MARK = np.array([0, 0, 0xC0, 0xE0, 0xF0], dtype=np.uint64)
#: a run still going when at most this many are, with at least _TAIL_MIN
#: code points left, finishes in a Python loop: one array step per code
#: point costs more than the scalar loop over so few runs
_TAIL_RUNS = 8
_TAIL_MIN = 256
#: steps of the run loop whose bytes are gathered at once (memory: this
#: many uint64 per run and byte row)
_BLOCK_STEPS = 16


def fnv1a64(data: bytes, seed: int = 0) -> int:
    """64-bit FNV-1a hash of ``data``, optionally tweaked by a seed."""
    h = (_FNV_OFFSET ^ (seed * 0x9E3779B97F4A7C15)) & _MASK
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & _MASK
    return h


def _mix64(h: int) -> int:
    """splitmix64 finalizer: full-avalanche mixing of a 64-bit value.

    Raw FNV-1a has weak dispersion in its high bits for short inputs (the
    top bit comes out 0 for ~90% of short tokens), which would bias the
    embedder's sign bits; the finalizer fixes that.
    """
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & _MASK
    h ^= h >> 33
    h = (h * 0xC4CEB9FE1A85EC53) & _MASK
    h ^= h >> 33
    return h


def hash_token(token: str, seed: int = 0) -> int:
    """Hash a text token (UTF-8) to a well-mixed 64-bit integer."""
    return _mix64(fnv1a64(token.encode("utf-8"), seed))


def fnv1a64_states(prefix: bytes, seeds) -> np.ndarray:
    """FNV-1a states after ``prefix``, one row per seed: shape ``(len(seeds), 1)``."""
    return np.array([[fnv1a64(prefix, s)] for s in seeds], dtype=np.uint64)


def utf8_units(cp: np.ndarray) -> np.ndarray:
    """The UTF-8 bytes of code points ``cp``, one row per byte position.

    Row ``t`` holds byte ``t`` of each code point, as uint64, and 0 where
    the code point has fewer bytes (a continuation byte is never 0).  The
    rows stop at the longest encoding present, so ASCII input is one row.
    """
    cp = cp.astype(np.uint64)
    if not cp.size or int(cp.max()) < 0x80:
        return cp[None]
    size = np.ones_like(cp)
    for limit in (0x80, 0x800, 0x10000):
        size += cp >= limit
    units = np.zeros((int(size.max()), len(cp)), dtype=np.uint64)
    shift = (size - 1) * 6
    units[0] = np.where(size == 1, cp, _LEAD_MARK[size] | (cp >> shift))
    for t in range(1, len(units)):
        more = size > t
        shift -= 6
        units[t, more] = 0x80 | ((cp[more] >> shift[more]) & 0x3F)
    return units


def _utf8_bytes(units: np.ndarray) -> bytes:
    """The UTF-8 encoding of a slice of :func:`utf8_units` rows."""
    used = units != 0
    used[0] = True  # U+0000 encodes as the byte 0
    return units.T[used.T].astype(np.uint8).tobytes()


def fnv1a64_runs(states: np.ndarray, units: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """FNV-1a states after feeding each run of code points into ``states``.

    ``states`` is ``(S, 1)``, one start state per seed (see
    :func:`fnv1a64_states`); run ``r`` is code points ``starts[r]`` to
    ``starts[r] + lengths[r] - 1`` of ``units`` (see :func:`utf8_units`).
    Returns the ``(S, R)`` uint64 states, unmixed.  The runs advance one
    code point per step, longest first, so each step works on a prefix of
    them: the runs still going.  The last few long runs finish in a
    Python loop.
    """
    order = np.argsort(-lengths, kind="stable")
    first, size = starts[order], lengths[order]
    h = np.repeat(states.T, len(order), axis=0)  # run-major: a step slices rows
    if not len(order):
        return h.T
    longest = int(size[0])
    tail = int(size[_TAIL_RUNS]) if len(size) > _TAIL_RUNS else 0
    stop = tail if longest - tail >= _TAIL_MIN else longest
    # runs still going at each step: those longer than the step
    going = np.searchsorted(-size, -np.arange(stop), side="left").tolist()
    offsets = np.arange(_BLOCK_STEPS)[:, None]
    multibyte = len(units) > 1
    for j0 in range(0, stop, _BLOCK_STEPS):
        block = going[j0 : j0 + _BLOCK_STEPS]
        # byte t of code point j0 + j of run i at [t, j, i]; past a run's
        # end the positions are clipped and never read
        pos = first[: block[0]] + (j0 + offsets[: len(block)])
        units_at = units.take(pos, axis=1, mode="clip")
        for j, c in enumerate(block):
            head = h[:c]
            head ^= units_at[0, j, :c, None]
            head *= _PRIME
            for byte in units_at[1:, j, :c] if multibyte else ():
                rows = np.flatnonzero(byte)
                if not rows.size:
                    break  # no code point here has this many bytes, or more
                h[rows] = (h[rows] ^ byte[rows, None]) * _PRIME
    for r in range(int(np.count_nonzero(size > stop))):
        data = _utf8_bytes(units[:, first[r] + stop : first[r] + size[r]])
        for s in range(h.shape[1]):
            x = int(h[r, s])
            for b in data:
                x = ((x ^ b) * _FNV_PRIME) & _MASK
            h[r, s] = x
    out = np.empty_like(h)
    out[order] = h
    return out.T


def fnv1a64_prefixes(states: np.ndarray, units: np.ndarray, n: int):
    """Yield, for ``j = 1 .. n``, the FNV-1a state of the ``j`` code points
    starting at every position of ``units``.

    ``states`` is ``(S, 1)``, one start state per seed.  Each yield is one
    ``(S, N)`` uint64 array, unmixed, updated in place between yields:
    after the ``j``-th, column ``p`` has been fed code points ``p`` to
    ``p + j - 1``, and the last ``j - 1`` columns, which run past the end,
    hold partial states.  Every n-gram starting at ``p`` shares the states
    of its shorter prefixes, so all lengths up to ``n`` cost ``n`` steps.
    """
    size = units.shape[1]
    h = np.repeat(states, size, axis=1)
    later = [np.flatnonzero(row) for row in units[1:]]  # multi-byte code points
    for j in range(n):
        head = h[:, : max(size - j, 0)]
        head ^= units[0, j:]
        head *= _PRIME
        for row, q in zip(units[1:], later):
            q = q[np.searchsorted(q, j) :]
            p = q - j
            h[:, p] = (h[:, p] ^ row[q]) * _PRIME
        yield h


def mix64(h: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer of :func:`hash_token`, on a uint64 array."""
    h = h ^ (h >> _SHIFT)
    h *= _MIX1
    h ^= h >> _SHIFT
    h *= _MIX2
    h ^= h >> _SHIFT
    return h
