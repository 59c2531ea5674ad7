"""k-Nearest Neighbors classifier (Fix & Hodges 1951/1989).

The paper's KNN instantiation uses the scikit-learn defaults: 5 neighbours,
Minkowski distance with p=2 (Euclidean), uniform-weight majority voting.
"Training" just stores the data (which is exactly why its training time in
Fig. 7 is near zero and its inference time grows with the window in
Fig. 8).

Backends:

- ``"brute"`` — chunked distance computation.  For p=2 the squared
  distances come from the BLAS identity ``|q-x|² = |q|² + |x|² - 2 q·x``,
  which turns the hot loop into one matrix multiply per query chunk.
- ``"kd_tree"`` — the from-scratch :class:`repro.mlcore.kdtree.KDTree`.
- ``"auto"`` — kd-tree in low dimension where it wins, brute otherwise.
"""

from __future__ import annotations

import numpy as np

from repro.mlcore.base import check_is_fitted, check_X_y, check_array, encode_labels
from repro.mlcore.kdtree import KDTree

__all__ = ["KNeighborsClassifier", "KNeighborsRegressor"]

_AUTO_KDTREE_MAX_DIM = 15


def _lexicographic_argselect(d: np.ndarray, k: int) -> np.ndarray:  # hotpath: top-k kernel of every brute query
    """Column indices of the k smallest ``(distance, index)`` pairs per row.

    ``np.argpartition`` alone picks an *arbitrary* subset of the columns
    tied at the k-th distance; every neighbour backend instead resolves
    such boundary ties toward the smaller training index (the canonical
    rule shared with :class:`repro.mlcore.kdtree.KDTree`).  Returned
    columns are index-ascending, not distance-sorted.
    """
    nq, n = d.shape
    if k >= n:
        return np.broadcast_to(np.arange(n, dtype=np.int64), (nq, n)).copy()
    part = np.argpartition(d, (k - 1, k), axis=1)
    kth = np.take_along_axis(d, part[:, k - 1 : k], axis=1)
    # rows whose k-th and (k+1)-th order statistics differ have a *unique*
    # k-smallest set, so argpartition's arbitrary pick is already the
    # canonical set — sorting its columns ascending finishes the job.
    # (exact comparison of values copied out of the same array: this
    # detects genuine ties at the selection boundary, not "close" floats)
    out = np.sort(part[:, :k], axis=1).astype(np.int64)
    ambiguous = np.flatnonzero(
        (kth == np.take_along_axis(d, part[:, k : k + 1], axis=1)).ravel()
    )
    if ambiguous.size == 0:
        return out  # no boundary ties anywhere in the batch
    # Tie-admission for the ambiguous rows only.  The partition already
    # hands us every strictly-below-threshold column inside its first k
    # slots, so a (na, k) gather replaces the old full-width < scan; the
    # one unavoidable full-width pass finds the columns tied *at* the
    # threshold, of which the smallest-index `need` per row are admitted.
    na = ambiguous.size
    kth_a = kth[ambiguous]  # (na, 1)
    sel = out[ambiguous]  # (na, k) arbitrary pick, ascending columns
    below = d[ambiguous[:, None], sel] < kth_a  # (na, k)
    need = k - below.sum(axis=1)  # ties to admit per row, >= 1
    at_rows, at_cols = np.nonzero(d[ambiguous] == kth_a)  # cols ascend per row
    tie_counts = np.bincount(at_rows, minlength=na)
    row_starts = np.concatenate(([0], np.cumsum(tie_counts[:-1])))
    rank = np.arange(at_rows.size) - row_starts[at_rows]
    admit = rank < need[at_rows]
    # assemble: below-threshold columns fill slots [0, k - need), admitted
    # ties the rest; a final per-row sort restores ascending column order
    res = np.empty((na, k), dtype=np.int64)
    b_rows, b_idx = np.nonzero(below)
    b_slot = np.cumsum(below, axis=1) - 1
    res[b_rows, b_slot[b_rows, b_idx]] = sel[b_rows, b_idx]
    a_rows = at_rows[admit]
    res[a_rows, (k - need)[a_rows] + rank[admit]] = at_cols[admit]
    out[ambiguous] = np.sort(res, axis=1)
    return out


def _pack_rows(X: np.ndarray) -> dict[str, np.ndarray]:
    """The persisted form of a training matrix: its distinct rows plus a
    per-sample row index, with ``rows[row_index]`` byte-identical to ``X``.

    Users submit batches of identical jobs (§V-C.c), so a KNN window holds
    a few hundred distinct encodings among thousands of rows.  Rows are
    matched on their exact bytes (``0.0`` and ``-0.0`` stay apart, as the
    exact rebuild needs), one row at a time: ``np.unique(X, axis=0)`` and
    the void-view ``np.unique`` both sort a full copy of the matrix.
    """
    ids: dict[bytes, int] = {}
    index = np.fromiter(
        (ids.setdefault(row.tobytes(), len(ids)) for row in X), np.int64, len(X)
    )
    _, first = np.unique(index, return_index=True)
    # with no repeats the rows are X itself: a copy would only add memory
    return {"rows": X[first] if first.size < len(X) else X, "row_index": index}


def _unpack_rows(arrays: dict) -> np.ndarray:
    """The training matrix saved by :func:`_pack_rows`, or the whole ``X``
    of an archive written before that layout."""
    if "rows" not in arrays:
        return np.asarray(arrays["X"])
    return np.asarray(arrays["rows"])[np.asarray(arrays["row_index"], dtype=np.int64)]


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
        """Store the feature matrix and build the selected backend."""
        if self.n_neighbors > X.shape[0]:
            raise ValueError(
                f"n_neighbors={self.n_neighbors} > n_samples={X.shape[0]}"
            )
        self._X = np.ascontiguousarray(X)
        self._backend = self.algorithm
        if self._backend == "auto":
            self._backend = (
                "kd_tree" if X.shape[1] <= _AUTO_KDTREE_MAX_DIM else "brute"
            )
        self._tree = KDTree(self._X, self.leaf_size) if self._backend == "kd_tree" else None
        if self._backend == "brute" and self.p == 2.0:  # staticcheck: ignore[float-equality] - dispatch on exact Minkowski parameter value
            self._sq_norms = np.einsum("ij,ij->i", self._X, self._X)

    # -- neighbour search ---------------------------------------------------------

    def kneighbors(self, X, n_neighbors: int | None = None):
        """Distances and indices of the k nearest training points.

        Returns ``(dist, idx)`` of shape ``(n_queries, k)``, nearest first.
        """
        check_is_fitted(self, "_X")
        k = self.n_neighbors if n_neighbors is None else int(n_neighbors)
        if not 1 <= k <= self._X.shape[0]:
            raise ValueError(f"n_neighbors must be in [1, {self._X.shape[0]}]")
        X = check_array(X, dtype=np.float64)
        if X.shape[1] != self._X.shape[1]:
            raise ValueError("query dimensionality mismatch")
        if self._backend == "kd_tree":
            return self._tree.query(X, k=k, p=self.p)
        return self._brute_kneighbors(X, k)

    def _brute_kneighbors(self, X, k):  # hotpath: chunked distance sweep behind kneighbors()
        n_train = self._X.shape[0]
        nq = X.shape[0]
        dist = np.empty((nq, k), dtype=np.float64)
        idx = np.empty((nq, k), dtype=np.int64)
        for lo in range(0, nq, self.chunk_size):
            hi = min(lo + self.chunk_size, nq)
            q = X[lo:hi]
            if self.p == 2.0:  # staticcheck: ignore[float-equality] - dispatch on exact Minkowski parameter value
                d = (
                    np.einsum("ij,ij->i", q, q)[:, None]
                    + self._sq_norms[None, :]
                    - 2.0 * (q @ self._X.T)
                )
                np.maximum(d, 0.0, out=d)
            else:
                d = self._minkowski_reduced(q)
            sel_idx = _lexicographic_argselect(d, k)
            dsel = np.take_along_axis(d, sel_idx, axis=1)
            order = np.argsort(dsel, axis=1, kind="stable")
            idx[lo:hi] = np.take_along_axis(sel_idx, order, axis=1)
            dsorted = np.take_along_axis(dsel, order, axis=1)
            # staticcheck: ignore[float-equality] - dispatch on exact Minkowski parameter value
            dist[lo:hi] = dsorted ** (0.5 if self.p == 2.0 else 1.0 / self.p)
        return dist, idx

    def _minkowski_reduced(self, q: np.ndarray) -> np.ndarray:
        """Reduced (root-free) Minkowski distances of a query chunk, blocked
        over training rows to bound the |q|x|x|x d intermediate."""
        n_train = self._X.shape[0]
        out = np.empty((q.shape[0], n_train), dtype=np.float64)
        block = max(1, int(2**22 // max(1, q.shape[0] * self._X.shape[1])))
        for lo in range(0, n_train, block):
            hi = min(lo + block, n_train)
            diff = np.abs(q[:, None, :] - self._X[None, lo:hi, :])
            if self.p == 1.0:  # staticcheck: ignore[float-equality] - dispatch on exact Minkowski parameter value
                out[:, lo:hi] = diff.sum(axis=2)
            else:
                out[:, lo:hi] = (diff**self.p).sum(axis=2)
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
            "arrays": {"classes": self.classes_, "y": self._y, **_pack_rows(self._X)},
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
        classes = np.asarray(arrays["classes"])
        knn.fit(_unpack_rows(arrays), classes[np.asarray(arrays["y"], dtype=np.int64)])
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
            "arrays": {"targets": self._targets, **_pack_rows(self._X)},
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
        reg.fit(_unpack_rows(arrays), np.asarray(arrays["targets"]))
        return reg
