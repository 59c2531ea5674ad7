"""Feature Encoder (paper §III-B).

Selects the configured subset of submission features, concatenates their
values into a comma-separated string, and embeds the string with the
sentence embedder into a fixed-width float array.  Encodings of repeated
strings are served from the embedder's cache (the paper saves encodings
across workflow triggers for the same reason).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.config import DEFAULT_FEATURE_SET
from repro.fugaku.trace import JobTrace
from repro.nlp.embedder import SentenceEmbedder

__all__ = ["FeatureEncoder"]


def _format_value(v) -> str:
    """Render one feature value into the comma-separated string.

    Floats print in ``:g`` form, frequencies included: 2.0 GHz becomes
    ``2`` and 2.2 GHz ``2.2``, which stay distinct tokens.
    """
    if isinstance(v, float):
        return f"{v:g}"
    return str(v)


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

    def feature_string(self, record: Mapping) -> str:  # hotpath: per-record serialization behind encode()
        """The comma-separated feature string of one raw job record."""
        try:
            return ",".join(_format_value(record[f]) for f in self.feature_set)
        except KeyError as exc:
            raise KeyError(f"job record is missing feature {exc.args[0]!r}") from None

    def feature_strings_from_trace(self, trace: JobTrace) -> list[str]:
        """Vectorized-ish string construction straight from trace columns."""
        cols = []
        for f in self.feature_set:
            if f not in trace:
                raise KeyError(f"trace is missing feature column {f!r}")
            cols.append([_format_value(v) for v in trace[f].tolist()])
        return [",".join(vals) for vals in zip(*cols)]

    def feature_strings_from_result(self, result) -> list[str]:
        """String construction straight off a columnar ``ResultSet``.

        Same strings as :meth:`feature_string` over the equivalent row
        dicts, without ever materializing the rows — the streaming
        training path feeds batches through here.
        """
        names = set(result.column_names)
        cols = []
        for f in self.feature_set:
            if f not in names:
                raise KeyError(f"result is missing feature column {f!r}")
            cols.append([_format_value(v) for v in result.column(f).tolist()])
        return [",".join(vals) for vals in zip(*cols)]

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
