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
every backend searches the distinct rows only: the k nearest points are
the k smallest ``(distance, training index)`` pairs among the copies of
the k nearest distinct rows.  ``fit(X, y)`` finds the distinct rows by
hashing each row of ``X``; ``KNeighborsClassifier.fit_rows(rows,
row_index, y)`` takes them from a caller that already knows them (the
training path keys jobs by submission) and hashes nothing.

Backends:

- ``"brute"`` — chunked distance computation over the distinct rows.  For
  p=2 a BLAS screen ``|x|² - 2 q·x`` (``|q - x|²`` less the query's own
  ``|q|²``) keeps every row within a rigorous rounding bound of the k-th
  screened value, and only those are rescored exactly as
  ``Σ (q - x)²``, the arithmetic of
  :func:`repro.mlcore.reference.brute_kneighbors_scalar`, so a query's
  neighbours and distances do not depend on the batch it arrives in
  (DESIGN §10 derives the bound).  Other p compute the reduced Minkowski
  distance directly.
- ``"kd_tree"`` — the from-scratch :class:`repro.mlcore.kdtree.KDTree`,
  built on the distinct rows.
- ``"auto"`` — kd-tree in low dimension where it wins, brute otherwise.
"""

from __future__ import annotations

import numpy as np

from repro.mlcore.base import check_is_fitted, check_X_y, check_array, encode_labels
from repro.mlcore.kdtree import KDTree, reduced_minkowski

__all__ = ["KNeighborsClassifier", "KNeighborsRegressor"]

_AUTO_KDTREE_MAX_DIM = 15
#: elements per block of the exact p=2 rescoring's (pairs, d) differences
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


class _NeighborsBase:
    """Shared neighbour-search machinery for k-NN estimators."""

    def __init__(
        self,
        n_neighbors: int = 5,
        *,
        p: float = 2.0,
        algorithm: str = "auto",
        leaf_size: int = 32,
        chunk_size: int = 512,
    ) -> None:
        if n_neighbors < 1:
            raise ValueError("n_neighbors must be >= 1")
        if p < 1 or not np.isfinite(p):
            raise ValueError("p must be finite and >= 1")
        if algorithm not in ("auto", "brute", "kd_tree"):
            raise ValueError(f"unknown algorithm {algorithm!r}")
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.n_neighbors = int(n_neighbors)
        self.p = float(p)
        self.algorithm = algorithm
        self.leaf_size = int(leaf_size)
        self.chunk_size = int(chunk_size)
        self.classes_: np.ndarray | None = None

    # -- fit -------------------------------------------------------------------

    def _fit_features(self, X: np.ndarray) -> None:
        """Keep the distinct rows of the feature matrix and build the
        selected backend over them."""
        self._fit_rows(*_distinct_rows(np.ascontiguousarray(X)))

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
        self._backend = self.algorithm
        if self._backend == "auto":
            self._backend = "kd_tree" if d <= _AUTO_KDTREE_MAX_DIM else "brute"
        self._tree = KDTree(self._rows, self.leaf_size) if self._backend == "kd_tree" else None
        self._slack = None  # set when p=2 brute force screens with BLAS
        if self._backend == "brute" and self.p == 2.0:  # staticcheck: ignore[float-equality] - dispatch on exact Minkowski parameter value
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

    def _row_arrays(self) -> dict:
        """The archive's ``rows`` and ``row_index``.  ``rows`` is written as
        float32 when the float64 -> float32 round trip is exact, as it is
        for the float32 encodings :meth:`MCBound.train` fits on;
        :meth:`_load_rows` widens it back bit for bit."""
        narrow = self._rows.astype(np.float32)
        rows = narrow if np.array_equal(narrow, self._rows) else self._rows
        return {"rows": rows, "row_index": self._row_index}

    def _load_rows(self, arrays: dict) -> None:
        """Rebuild from an archive: its distinct rows as they are, or the
        whole ``X`` of an archive written before that layout."""
        if "rows" not in arrays:
            self._fit_features(np.asarray(arrays["X"], dtype=np.float64))
            return
        self._fit_rows(
            np.asarray(arrays["rows"], dtype=np.float64),
            np.asarray(arrays["row_index"], dtype=np.int64),
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
            dist[lo:hi] = rd ** (1.0 / self.p)
        return dist, idx

    def _search(self, q: np.ndarray, k: int):  # hotpath: per-chunk search behind kneighbors()
        """Reduced distances and training indices of the k nearest points
        to each query row, nearest first.

        Distinct row j's first copy precedes the first copy of every row
        after it, so ranking rows by ``(distance, j)`` ranks them by their
        smallest ``(distance, training index)`` pair: the k nearest points
        are copies of the ``min(k, m)`` nearest rows, and each row
        contributes at most its first k copies.
        """
        kd = min(k, self._rows.shape[0])
        if self._tree is not None:
            rd, cols = self._tree.query_reduced(q, kd, self.p)
        else:
            rd, cols = self._brute_rows(q, kd)
        take = np.minimum(self._counts[cols], k).ravel()
        qrow = np.repeat(np.arange(q.shape[0]), kd)
        offset = np.arange(take.sum()) - np.repeat(np.cumsum(take) - take, take)
        members = self._members[np.repeat(self._starts[cols].ravel(), take) + offset]
        return _flat_topk(
            np.repeat(qrow, take), np.repeat(rd.ravel(), take), members, q.shape[0], k
        )

    def _brute_rows(self, q: np.ndarray, kd: int):
        """The kd nearest distinct rows by exact reduced distance, ranked
        by ``(distance, row)``.

        For p=2 the BLAS screen only bounds which rows can rank: every
        row within the DESIGN §10 slack of the kd-th screened distance is
        rescored exactly, and the ranking uses the exact distances alone.
        """
        if self._slack is None:
            screen = self._minkowski_reduced(q)
            slack = 0.0
        else:
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
        rd = screen[qrow, cols] if self._slack is None else self._rescore(q, qrow, cols)
        return _flat_topk(qrow, rd, cols, q.shape[0], kd)

    def _rescore(self, q: np.ndarray, qrow: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Exact reduced p=2 distances of (query, row) pairs, per pair as
        :func:`repro.mlcore.reference.brute_kneighbors_scalar` computes
        them (its ``|q - x|`` squares to the same bits), blocked to bound
        the (pairs, d) differences."""
        out = np.empty(qrow.size, dtype=np.float64)
        block = max(1, _RESCORE_BLOCK_ELEMS // q.shape[1])
        for lo in range(0, qrow.size, block):
            hi = lo + block
            out[lo:hi] = reduced_minkowski(q[qrow[lo:hi]] - self._rows[cols[lo:hi]], 2.0)
        return out

    def _minkowski_reduced(self, q: np.ndarray) -> np.ndarray:
        """Reduced (root-free) Minkowski distances of a query chunk to every
        distinct row, blocked over rows to bound the |q| x |x| x d
        intermediate."""
        rows = self._rows
        out = np.empty((q.shape[0], rows.shape[0]), dtype=np.float64)
        block = max(1, int(2**22 // max(1, q.shape[0] * rows.shape[1])))
        for lo in range(0, rows.shape[0], block):
            diff = np.abs(q[:, None, :] - rows[None, lo : lo + block, :])
            out[:, lo : lo + block] = reduced_minkowski(diff, self.p)
        return out


class KNeighborsClassifier(_NeighborsBase):
    """Majority-vote k-NN classifier with Minkowski distances.

    Parameters
    ----------
    n_neighbors:
        Vote size k (default 5, as in sklearn).
    p:
        Minkowski order (p >= 1; 2 = Euclidean).
    algorithm:
        "brute", "kd_tree" or "auto".
    leaf_size:
        KD-tree leaf size.
    chunk_size:
        Query rows per brute-force chunk (bounds peak memory).
    """

    def fit(self, X, y) -> "KNeighborsClassifier":
        """Store the training set (and build the KD-tree if selected)."""
        X, y = check_X_y(X, y, dtype=np.float64)
        self.classes_, self._y = encode_labels(y)
        self._fit_features(X)
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
        check_is_fitted(self, "classes_")
        return {
            "meta": {
                "n_neighbors": self.n_neighbors,
                "p": self.p,
                "algorithm": self.algorithm,
                "leaf_size": self.leaf_size,
                "chunk_size": self.chunk_size,
            },
            "arrays": {
                "classes": self.classes_,
                "y": self._y,
                **self._row_arrays(),
            },
        }

    @classmethod
    def from_state(cls, state: dict) -> "KNeighborsClassifier":
        meta = state["meta"]
        knn = cls(
            meta["n_neighbors"],
            p=meta["p"],
            algorithm=meta["algorithm"],
            leaf_size=meta["leaf_size"],
            chunk_size=meta["chunk_size"],
        )
        arrays = state["arrays"]
        knn.classes_ = np.asarray(arrays["classes"])
        knn._y = np.asarray(arrays["y"], dtype=np.int64)
        knn._load_rows(arrays)
        return knn


class KNeighborsRegressor(_NeighborsBase):
    """k-NN regression: predict a continuous target from similar jobs.

    The paper's future-work direction (§VI): "the KNN finds the most
    similar jobs regardless of the target feature, hence we can easily
    adapt the framework for the prediction of multiple features" —
    duration, power consumption, and so on.  Same neighbour search as the
    classifier; the prediction is the (optionally distance-weighted) mean
    of the neighbours' target values.

    Parameters are those of :class:`KNeighborsClassifier` plus
    ``weights``: "uniform" (default) or "distance" (inverse-distance
    weighting, exact matches dominate).
    """

    def __init__(
        self,
        n_neighbors: int = 5,
        *,
        p: float = 2.0,
        algorithm: str = "auto",
        leaf_size: int = 32,
        chunk_size: int = 512,
        weights: str = "uniform",
    ) -> None:
        super().__init__(
            n_neighbors, p=p, algorithm=algorithm, leaf_size=leaf_size,
            chunk_size=chunk_size,
        )
        if weights not in ("uniform", "distance"):
            raise ValueError(f"unknown weights {weights!r}")
        self.weights = weights

    def fit(self, X, y) -> "KNeighborsRegressor":
        """Store the training features and continuous targets."""
        X, y = check_X_y(X, y, dtype=np.float64)
        y = y.astype(np.float64)
        if not np.all(np.isfinite(y)):
            raise ValueError("targets contain NaN or infinity")
        self._targets = y
        self._fit_features(X)
        return self

    def predict(self, X) -> np.ndarray:
        """Neighbour-mean prediction of the target."""
        check_is_fitted(self, "_targets")
        dist, idx = self.kneighbors(X)
        vals = self._targets[idx]
        if self.weights == "uniform":
            return vals.mean(axis=1)
        # inverse-distance weights; exact matches get all the weight
        with np.errstate(divide="ignore"):
            w = 1.0 / np.maximum(dist, 1e-300)
        exact = dist <= 1e-12
        has_exact = exact.any(axis=1)
        w[has_exact] = exact[has_exact].astype(np.float64)
        return (vals * w).sum(axis=1) / w.sum(axis=1)

    def score(self, X, y) -> float:
        """Coefficient of determination R^2."""
        y = np.asarray(y, dtype=np.float64)
        pred = self.predict(X)
        ss_res = float(((y - pred) ** 2).sum())
        ss_tot = float(((y - y.mean()) ** 2).sum())
        if ss_tot == 0:
            return 1.0 if ss_res == 0 else 0.0
        return 1.0 - ss_res / ss_tot

    # -- persistence --------------------------------------------------------------------

    def get_state(self) -> dict:
        check_is_fitted(self, "_targets")
        return {
            "meta": {
                "n_neighbors": self.n_neighbors,
                "p": self.p,
                "algorithm": self.algorithm,
                "leaf_size": self.leaf_size,
                "chunk_size": self.chunk_size,
                "weights": self.weights,
            },
            "arrays": {
                "targets": self._targets,
                **self._row_arrays(),
            },
        }

    @classmethod
    def from_state(cls, state: dict) -> "KNeighborsRegressor":
        meta = state["meta"]
        reg = cls(
            meta["n_neighbors"],
            p=meta["p"],
            algorithm=meta["algorithm"],
            leaf_size=meta["leaf_size"],
            chunk_size=meta["chunk_size"],
            weights=meta["weights"],
        )
        arrays = state["arrays"]
        reg._targets = np.asarray(arrays["targets"], dtype=np.float64)
        reg._load_rows(arrays)
        return reg
