"""k-Nearest Neighbors classifier (Fix & Hodges 1951/1989).

The paper's KNN instantiation uses the scikit-learn defaults: 5 neighbours,
Minkowski distance with p=2 (Euclidean), uniform-weight majority voting.
"Training" just stores the data (which is exactly why its training time in
Fig. 7 is near zero and its inference time grows with the window in
Fig. 8).

Users submit batches of identical jobs (§V-C.c), so a window holds a few
hundred distinct encodings among thousands of rows.  A fitted model keeps
the distinct rows (first-seen order), one row index per training sample
and each distinct row's training indices, never the n x d matrix, and
searches the distinct rows only: the k nearest points are the k smallest
``(distance, training index)`` pairs among the copies of the k nearest
distinct rows.  ``fit(X, y)`` finds the distinct rows by hashing each row
of ``X``; ``KNeighborsClassifier.fit_rows(rows, row_index, y)`` takes them
from a caller that already knows them (the training path keys jobs by
submission) and hashes nothing.

The search is chunked brute force over the distinct rows.  A BLAS screen
``|x|² - 2 q·x`` (``|q - x|²`` less the query's own ``|q|²``) keeps every
row within a rigorous rounding bound of the k-th screened value, and only
those are rescored exactly as ``Σ (q - x)²``, the arithmetic of
:func:`repro.mlcore.reference.brute_kneighbors_scalar`, so a query's
neighbours and distances do not depend on the batch it arrives in
(DESIGN §10 derives the bound).
"""

from __future__ import annotations

import numpy as np

from repro.mlcore.base import check_is_fitted, check_X_y, check_array, encode_labels

__all__ = ["KNeighborsClassifier"]

#: elements per block of the exact rescoring's (pairs, d) differences
_RESCORE_BLOCK_ELEMS = 2**20


def _gamma(n: int) -> float:
    """Higham's ``γ_n = n·u / (1 - n·u)``, u the float64 unit roundoff:
    the relative error bound of n chained roundings."""
    nu = n * np.finfo(np.float64).eps / 2
    return nu / (1.0 - nu)


def _distinct_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, row_index)``: the distinct rows of ``X`` in first-seen
    order and one int64 per sample, with ``rows[row_index]``
    byte-identical to ``X``.

    Rows are matched on their exact bytes (``0.0`` and ``-0.0`` stay
    apart, so the rebuild is exact), one row at a time:
    ``np.unique(X, axis=0)`` and the void-view ``np.unique`` both sort a
    full copy of the matrix.
    """
    ids: dict[bytes, int] = {}
    row_index = np.fromiter(
        (ids.setdefault(row.tobytes(), len(ids)) for row in X), np.int64, len(X)
    )
    _, first = np.unique(row_index, return_index=True)
    # with no repeats the rows are X itself: a copy would only add memory
    return (X[first] if first.size < len(X) else X), row_index


def _referenced_rows(rows, row_index) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, row_index)`` reduced to the rows the index references,
    renumbered in first-seen order; the rows become finite float64.

    Nothing is hashed: two references to byte-identical rows stay two
    rows, which ties them at every query and changes no neighbour.
    """
    row_index, rows = np.asarray(row_index), np.asarray(rows)
    if row_index.ndim != 1 or row_index.dtype.kind not in "iu":
        raise ValueError("row_index must be a 1-D integer array")
    if row_index.size and not 0 <= row_index.min() <= row_index.max() < len(rows):
        raise ValueError(f"row_index must lie in [0, {len(rows)})")
    used, first, inverse = np.unique(row_index, return_index=True, return_inverse=True)
    order = np.argsort(first)
    if used.size < len(rows) or np.any(order != np.arange(order.size)):
        rows = rows[used[order]]  # else every row is used, in first-seen order
    return check_array(rows, dtype=np.float64, name="rows"), np.argsort(order)[inverse]


def _flat_topk(qrow, key, val, n_queries: int, k: int):
    """Per query, the k smallest ``(key, val)`` pairs of flat entries
    tagged with their query ``qrow``, as ``(n_queries, k)`` arrays sorted
    by key, then val.  Every query needs at least k entries."""
    order = np.lexsort((val, key, qrow))
    counts = np.bincount(qrow, minlength=n_queries)
    pick = order[((np.cumsum(counts) - counts)[:, None] + np.arange(k)).ravel()]
    return key[pick].reshape(n_queries, k), val[pick].reshape(n_queries, k)


def _euclidean_meta(state: dict) -> dict:
    """An archive's meta, refused unless its search was Euclidean.

    Archives written while the estimators took ``p``, ``algorithm`` and
    ``leaf_size`` still carry them.  Every backend was exact under the
    same tie rule, so ``algorithm`` and ``leaf_size`` never changed an
    answer and are ignored; any ``p`` but 2 did, and this search is
    Euclidean only.
    """
    meta = state["meta"]
    if meta.get("p", 2) != 2:
        raise ValueError(
            f"archived KNN searched with Minkowski p={meta['p']}; only p=2 "
            "(Euclidean) is supported"
        )
    return meta


class KNeighborsClassifier:
    """Majority-vote k-NN classifier with Euclidean distances.

    Parameters
    ----------
    n_neighbors:
        Vote size k (default 5, as in sklearn).
    chunk_size:
        Query rows per search chunk (bounds peak memory).
    """

    def __init__(self, n_neighbors: int = 5, *, chunk_size: int = 512) -> None:
        if n_neighbors < 1:
            raise ValueError("n_neighbors must be >= 1")
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.n_neighbors = int(n_neighbors)
        self.chunk_size = int(chunk_size)
        self.classes_: np.ndarray | None = None

    # -- fit -------------------------------------------------------------------

    def fit(self, X, y) -> "KNeighborsClassifier":
        """Store the training set as its distinct rows."""
        X, y = check_X_y(X, y, dtype=np.float64)
        self.classes_, self._y = encode_labels(y)
        self._fit_rows(*_distinct_rows(np.ascontiguousarray(X)))
        return self

    def fit_rows(self, rows, row_index, y) -> "KNeighborsClassifier":
        """Fit on training sample ``i`` = ``rows[row_index[i]]``: the same
        neighbours and predictions as ``fit(rows[row_index], y)``, without
        building that matrix or hashing its rows.  Unreferenced rows are
        dropped."""
        rows, row_index = _referenced_rows(rows, row_index)
        y = np.asarray(y)
        if y.shape != row_index.shape:
            raise ValueError(
                f"row_index has {row_index.size} samples but y has shape {y.shape}"
            )
        self.classes_, self._y = encode_labels(y)
        self._fit_rows(rows, row_index)
        return self

    def _fit_rows(self, rows: np.ndarray, row_index: np.ndarray) -> None:
        """Build the search over distinct ``rows`` in first-seen order;
        training sample ``i`` is ``rows[row_index[i]]``."""
        n = row_index.shape[0]
        if self.n_neighbors > n:
            raise ValueError(f"n_neighbors={self.n_neighbors} > n_samples={n}")
        self._rows = np.ascontiguousarray(rows)
        self._row_index = row_index
        # distinct row j's training indices, ascending:
        # _members[_starts[j] : _starts[j] + _counts[j]]
        self._members = np.argsort(row_index, kind="stable")
        self._counts = np.bincount(row_index, minlength=rows.shape[0])
        self._starts = np.cumsum(self._counts) - self._counts
        d = rows.shape[1]
        self._sq_norms = np.einsum("ij,ij->i", self._rows, self._rows)
        self._max_norm = float(np.sqrt(self._sq_norms.max()))
        # DESIGN §10: screened and exact distances both lie within
        # γ_{d+2}·(|q| + |x|)² of the true one, so no row that ranks
        # exactly lies above the kd-th screened distance by more than
        # 4γ_{d+2}·(|q| + max|x|)²; γ_{d+4} also covers rounding the
        # threshold, and the absolute term gradual underflow
        self._slack = (
            4.0 * _gamma(d + 4),
            8.0 * d * float(np.finfo(np.float64).smallest_subnormal),
        )

    # -- neighbour search ---------------------------------------------------------

    def kneighbors(self, X, n_neighbors: int | None = None):
        """Distances and indices of the k nearest training points.

        Returns ``(dist, idx)`` of shape ``(n_queries, k)``, nearest first;
        equidistant points rank by training index.
        """
        check_is_fitted(self, "_rows")
        n = self._row_index.shape[0]
        k = self.n_neighbors if n_neighbors is None else int(n_neighbors)
        if not 1 <= k <= n:
            raise ValueError(f"n_neighbors must be in [1, {n}]")
        X = check_array(X, dtype=np.float64)
        if X.shape[1] != self._rows.shape[1]:
            raise ValueError("query dimensionality mismatch")
        nq = X.shape[0]
        dist = np.empty((nq, k), dtype=np.float64)
        idx = np.empty((nq, k), dtype=np.int64)
        for lo in range(0, nq, self.chunk_size):
            hi = min(lo + self.chunk_size, nq)
            rd, idx[lo:hi] = self._search(X[lo:hi], k)
            dist[lo:hi] = rd**0.5
        return dist, idx

    def _search(self, q: np.ndarray, k: int):
        """Squared distances and training indices of the k nearest points
        to each query row, nearest first.

        Distinct row j's first copy precedes the first copy of every row
        after it, so ranking rows by ``(distance, j)`` ranks them by their
        smallest ``(distance, training index)`` pair: the k nearest points
        are copies of the ``min(k, m)`` nearest rows, and each row
        contributes at most its first k copies.
        """
        kd = min(k, self._rows.shape[0])
        rd, cols = self._nearest_rows(q, kd)
        take = np.minimum(self._counts[cols], k).ravel()
        qrow = np.repeat(np.arange(q.shape[0]), kd)
        offset = np.arange(take.sum()) - np.repeat(np.cumsum(take) - take, take)
        members = self._members[np.repeat(self._starts[cols].ravel(), take) + offset]
        return _flat_topk(
            np.repeat(qrow, take), np.repeat(rd.ravel(), take), members, q.shape[0], k
        )

    def _nearest_rows(self, q: np.ndarray, kd: int):
        """The kd nearest distinct rows by exact squared distance, ranked
        by ``(distance, row)``.

        The BLAS screen only bounds which rows can rank: every row within
        the DESIGN §10 slack of the kd-th screened distance is rescored
        exactly, and the ranking uses the exact distances alone.
        """
        # |q|² is the same for every row of a query, so the screen
        # |x|² - 2 q·x leaves it out
        screen = q @ self._rows.T
        screen *= -2.0
        screen += self._sq_norms
        rel, floor = self._slack
        norms = np.sqrt(np.einsum("ij,ij->i", q, q))
        slack = rel * (norms + self._max_norm) ** 2 + floor
        kth = np.partition(screen, kd - 1, axis=1)[:, kd - 1]
        near = np.flatnonzero(screen <= (kth + slack)[:, None])
        qrow, cols = np.divmod(near, screen.shape[1])
        return _flat_topk(qrow, self._rescore(q, qrow, cols), cols, q.shape[0], kd)

    def _rescore(self, q: np.ndarray, qrow: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Exact squared distances of (query, row) pairs, per pair as
        :func:`repro.mlcore.reference.brute_kneighbors_scalar` computes
        them, blocked to bound the (pairs, d) differences."""
        out = np.empty(qrow.size, dtype=np.float64)
        block = max(1, _RESCORE_BLOCK_ELEMS // q.shape[1])
        for lo in range(0, qrow.size, block):
            hi = lo + block
            diff = q[qrow[lo:hi]] - self._rows[cols[lo:hi]]
            out[lo:hi] = np.einsum("...i,...i->...", diff, diff)
        return out

    # -- prediction ------------------------------------------------------------------

    def predict_proba(self, X) -> np.ndarray:
        """Neighbour vote fractions per class."""
        _, idx = self.kneighbors(X)
        votes = self._y[idx]  # (nq, k) encoded labels
        k = votes.shape[1]
        n_classes = len(self.classes_)
        counts = np.zeros((votes.shape[0], n_classes), dtype=np.float64)
        rows = np.repeat(np.arange(votes.shape[0]), k)
        np.add.at(counts, (rows, votes.ravel()), 1.0)
        return counts / k

    def predict(self, X) -> np.ndarray:
        """Majority-vote labels (ties break toward the smaller class index)."""
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    def score(self, X, y) -> float:
        """Mean accuracy."""
        return float(np.mean(self.predict(X) == np.asarray(y)))

    # -- persistence --------------------------------------------------------------------

    def get_state(self) -> dict:
        """The archive's state.  ``rows`` is written as float32 when the
        float64 -> float32 round trip is exact, as it is for the float32
        encodings :meth:`MCBound.train` fits on; :meth:`from_state` widens
        it back bit for bit."""
        check_is_fitted(self, "classes_")
        narrow = self._rows.astype(np.float32)
        rows = narrow if np.array_equal(narrow, self._rows) else self._rows
        return {
            "meta": {"n_neighbors": self.n_neighbors, "chunk_size": self.chunk_size},
            "arrays": {
                "classes": self.classes_,
                "y": self._y,
                "rows": rows,
                "row_index": self._row_index,
            },
        }

    @classmethod
    def from_state(cls, state: dict) -> "KNeighborsClassifier":
        """Rebuild from an archive: its distinct rows as they are, or the
        whole ``X`` of an archive written before that layout."""
        meta = _euclidean_meta(state)
        knn = cls(meta["n_neighbors"], chunk_size=meta["chunk_size"])
        arrays = state["arrays"]
        knn.classes_ = np.asarray(arrays["classes"])
        knn._y = np.asarray(arrays["y"], dtype=np.int64)
        if "rows" in arrays:
            knn._fit_rows(
                np.asarray(arrays["rows"], dtype=np.float64),
                np.asarray(arrays["row_index"], dtype=np.int64),
            )
        else:
            X = np.ascontiguousarray(arrays["X"], dtype=np.float64)
            knn._fit_rows(*_distinct_rows(X))
        return knn
