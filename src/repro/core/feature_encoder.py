"""Feature Encoder (paper §III-B).

Selects the configured subset of submission features, concatenates their
values into a comma-separated string, and embeds the string with the
sentence embedder into a fixed-width float array.  Encodings of repeated
strings are served from the embedder's cache (the paper saves encodings
across workflow triggers for the same reason), and columnar batches are
keyed by submission first, so the training and evaluation paths format
and encode each distinct submission once.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.config import DEFAULT_FEATURE_SET
from repro.fugaku.trace import JobTrace
from repro.nlp.embedder import SentenceEmbedder

__all__ = ["FeatureEncoder", "InvalidRecord", "MissingFeature"]


class MissingFeature(KeyError):
    """A job record lacks a feature of the encoder's feature set."""


class InvalidRecord(ValueError):
    """A job record's feature string is not valid Unicode (it holds a lone
    surrogate), so it has no UTF-8 bytes to hash."""


def _format_value(v) -> str:
    """Render one feature value into the comma-separated string.

    Floats print in ``:g`` form, frequencies included: 2.0 GHz becomes
    ``2`` and 2.2 GHz ``2.2``, which stay distinct tokens.
    """
    if isinstance(v, float):
        return f"{v:g}"
    return str(v)


def _format_column(col: np.ndarray) -> list[str]:
    """:func:`_format_value` of every entry of a column, with the type
    check done once for a numeric dtype."""
    values = col.tolist()
    if col.dtype.kind == "f":
        return [f"{v:g}" for v in values]
    if col.dtype.kind in "iub":
        return list(map(str, values))
    return [_format_value(v) for v in values]


class FeatureEncoder:
    """Encode raw job data into model-ready vectors.

    Parameters
    ----------
    feature_set:
        Ordered feature names to select from each raw job record.
    embedder:
        The sentence embedder; a default 384-d one is built if omitted.
    """

    def __init__(
        self,
        feature_set: Sequence[str] = DEFAULT_FEATURE_SET,
        embedder: SentenceEmbedder | None = None,
    ) -> None:
        if not feature_set:
            raise ValueError("feature_set must not be empty")
        self.feature_set = tuple(feature_set)
        self.embedder = embedder or SentenceEmbedder()

    @property
    def dim(self) -> int:
        return self.embedder.dim

    # -- string construction -----------------------------------------------------

    def feature_string(self, record: Mapping) -> str:
        """The comma-separated feature string of one raw job record.

        A record that cannot be encoded raises :class:`MissingFeature` or
        :class:`InvalidRecord`; only this method raises them, so a caller
        can tell the record's fault from its own.
        """
        try:
            text = ",".join(_format_value(record[f]) for f in self.feature_set)
        except KeyError as exc:
            raise MissingFeature(f"job record is missing feature {exc.args[0]!r}") from None
        if not text.isascii():
            try:
                text.encode("utf-8")
            except UnicodeEncodeError:
                raise InvalidRecord("job record holds text that is not valid Unicode") from None
        return text

    def feature_strings_from_trace(self, trace: JobTrace) -> list[str]:
        """Vectorized-ish string construction straight from trace columns."""
        cols = []
        for f in self.feature_set:
            if f not in trace:
                raise KeyError(f"trace is missing feature column {f!r}")
            cols.append(_format_column(trace[f]))
        return [",".join(vals) for vals in zip(*cols)]

    def submission_ids(
        self, result, known: dict, *, first_id: int | None = None
    ) -> tuple[np.ndarray, list[str]]:
        """Key the rows of a columnar ``ResultSet`` by submission.

        Returns one int64 submission id per row, and the feature strings
        of the submissions the caller-held map ``known`` (key -> id)
        lacked; only those are formatted.  Known ids are reused; new ones
        are added to ``known`` in first-seen order, numbered from
        ``first_id`` (default ``len(known)``, which must exceed every
        held id), so ``strings[i - first_id]`` is new id ``i``'s string.

        Rows share an id only if their strings are equal: float columns
        are keyed on their bits, because ``0.0 == -0.0`` while ``:g``
        prints ``0`` and ``-0``.  NaN rows may get two ids for one
        string, which costs a duplicate row and nothing else.  Users
        submit identical jobs in runs (§V-C.c), so a row whose key
        columns equal the previous row's takes its id, and ``known`` is
        consulted once per run.
        """
        names = set(result.column_names)
        n = len(result)
        cols, exacts = [], []
        repeat = np.ones(max(n - 1, 0), dtype=bool)  # row i + 1 repeats row i
        for f in self.feature_set:
            if f not in names:
                raise KeyError(f"result is missing feature column {f!r}")
            col = result.column(f)
            exact = col.view(f"u{col.itemsize}") if col.dtype.kind == "f" else col
            repeat &= exact[1:] == exact[:-1]
            cols.append(col)
            exacts.append(exact)
        starts = np.flatnonzero(np.concatenate(([n > 0], ~repeat)))
        start = len(known) if first_id is None else first_id
        base = start - len(known)
        run_ids = np.fromiter(
            (
                known.setdefault(k, base + len(known))
                for k in zip(*(exact[starts].tolist() for exact in exacts))
            ),
            np.int64,
            starts.size,
        )
        new = np.flatnonzero(run_ids >= start)
        _, first = np.unique(run_ids[new], return_index=True)
        rows = starts[new[first]]
        formatted = [_format_column(col[rows]) for col in cols]
        ids = np.repeat(run_ids, np.diff(np.append(starts, n)))
        return ids, [",".join(vals) for vals in zip(*formatted)]

    def feature_strings_from_result(self, result) -> list[str]:
        """String construction straight off a columnar ``ResultSet``.

        Same strings as :meth:`feature_string` over the equivalent row
        dicts, without ever materializing the rows: the per-row expansion
        of :meth:`submission_ids`, which the streaming training path and
        the online evaluator call directly, so that they format and
        encode each distinct submission once.
        """
        ids, strings = self.submission_ids(result, {})
        return [strings[i] for i in ids.tolist()]

    # -- encoding ---------------------------------------------------------------------

    def encode(self, records: Iterable[Mapping]) -> np.ndarray:
        """Encode raw job records into a float32 ``(n, dim)`` matrix."""
        strings = [self.feature_string(r) for r in records]
        if not strings:
            return np.empty((0, self.dim), dtype=np.float32)
        return self.embedder.encode(strings)

    def encode_trace(self, trace: JobTrace) -> np.ndarray:
        """Encode every job of a trace."""
        strings = self.feature_strings_from_trace(trace)
        if not strings:
            return np.empty((0, self.dim), dtype=np.float32)
        return self.embedder.encode(strings)
