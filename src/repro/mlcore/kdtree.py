"""KD-tree for exact nearest-neighbour queries (from scratch).

Space-partitioning trees pay off in low dimension; in the 384-dimensional
embedding space of this reproduction the curse of dimensionality makes
brute force with BLAS the right default (see :mod:`repro.mlcore.knn`,
which picks the backend automatically), but the KD-tree backend is part of
the substrate for low-dimensional feature encodings and for the backend
ablation benchmark.

Build: recursive median split along the largest-spread dimension; leaves
hold up to ``leaf_size`` points, and every node records the bounding box
of its subtree.  Query: *batched* branch-and-bound — a whole chunk of
queries descends the tree together (the group is never split, so the
per-node work stays one vectorized call), each node visit drops the
queries whose reduced distance to the node's bounding box already exceeds
their current k-th best, and each leaf is scored against all surviving
queries with one matrix Minkowski distance.  Box lower bounds accumulate
every ancestor constraint, so the batched traversal prunes at least as
hard as the classic single-coordinate hyperplane gap.

Tie-breaking is canonical across all neighbour backends: the k reported
neighbours are the k smallest ``(distance, index)`` pairs in lexicographic
order, so equidistant points resolve to the smaller training index.  The
pre-vectorization per-query traversal is preserved in
:mod:`repro.mlcore.reference` as the parity/benchmark oracle.
"""

from __future__ import annotations

import numpy as np

from repro.parallel.chunking import chunk_indices

__all__ = ["KDTree"]

_LEAF = -1


def reduced_minkowski(diff: np.ndarray, p: float) -> np.ndarray:  # hotpath: distance kernel of every neighbour search
    """Reduced (root-free) Minkowski distance over the last axis of ``|diff|``.

    ``p`` is a user parameter, not a computed float, so the exact
    comparisons below are fast-path dispatch: p=2/p=1 select cheaper
    kernels with identical results.
    """
    if p == 2.0:  # staticcheck: ignore[float-equality] - dispatch on exact parameter value
        return np.einsum("...i,...i->...", diff, diff)
    if p == 1.0:  # staticcheck: ignore[float-equality] - dispatch on exact parameter value
        return diff.sum(axis=-1)
    return (diff**p).sum(axis=-1)


def lexicographic_topk(rd: np.ndarray, idx: np.ndarray, k: int):
    """Row-wise k smallest ``(rd, idx)`` pairs, lexicographic order.

    ``rd``/``idx`` are ``(n_rows, m)`` candidate reduced distances and
    training indices; returns ``(rd_k, idx_k)`` of shape ``(n_rows, k)``
    sorted ascending by distance, ties broken toward the smaller index.
    Implemented as a stable double argsort: sorting by index first and
    then stably by distance leaves equal-distance runs index-ascending.
    """
    order_idx = np.argsort(idx, axis=1, kind="stable")
    rd_by_idx = np.take_along_axis(rd, order_idx, axis=1)
    idx_by_idx = np.take_along_axis(idx, order_idx, axis=1)
    order_rd = np.argsort(rd_by_idx, axis=1, kind="stable")[:, :k]
    return (
        np.take_along_axis(rd_by_idx, order_rd, axis=1),
        np.take_along_axis(idx_by_idx, order_rd, axis=1),
    )


class KDTree:
    """Exact k-NN index over an ``(n, d)`` float matrix.

    Parameters
    ----------
    data:
        Point matrix; a float64 copy is stored.
    leaf_size:
        Maximum points per leaf.
    query_chunk_size:
        Queries traversed together per batch (bounds the ``(chunk, leaf)``
        distance matrices and keeps the active sets cache-resident).
    """

    def __init__(self, data, leaf_size: int = 32, query_chunk_size: int = 256) -> None:
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[0] == 0:
            raise ValueError("data must be a non-empty 2-D array")
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        if query_chunk_size < 1:
            raise ValueError("query_chunk_size must be >= 1")
        self.data = np.ascontiguousarray(data)
        self.leaf_size = int(leaf_size)
        self.query_chunk_size = int(query_chunk_size)
        n = data.shape[0]
        self._perm = np.arange(n, dtype=np.int64)
        # node arrays, grown by the builder
        self._dim: list[int] = []
        self._split: list[float] = []
        self._left: list[int] = []
        self._right: list[int] = []
        self._start: list[int] = []
        self._end: list[int] = []
        self._build(0, n)
        self._finalize_nodes()

    def _finalize_nodes(self) -> None:
        """Freeze node lists into arrays and compute per-subtree boxes.

        Children are always appended after their parent, so one reverse
        pass sees every child before its parent: leaves reduce their own
        points, internal nodes combine their children's boxes.
        """
        self._dim_a = np.array(self._dim, dtype=np.int64)
        self._left_a = np.array(self._left, dtype=np.int64)
        self._right_a = np.array(self._right, dtype=np.int64)
        nn = len(self._dim)
        d = self.data.shape[1]
        self._box_lo = np.empty((nn, d), dtype=np.float64)
        self._box_hi = np.empty((nn, d), dtype=np.float64)
        for node in range(nn - 1, -1, -1):
            if self._dim[node] == _LEAF:
                pts = self.data[self._perm[self._start[node] : self._end[node]]]
                self._box_lo[node] = pts.min(axis=0)
                self._box_hi[node] = pts.max(axis=0)
            else:
                left, right = self._left[node], self._right[node]
                np.minimum(self._box_lo[left], self._box_lo[right], out=self._box_lo[node])
                np.maximum(self._box_hi[left], self._box_hi[right], out=self._box_hi[node])

    # -- construction -------------------------------------------------------------

    def _new_node(self, start: int, end: int) -> int:
        self._dim.append(_LEAF)
        self._split.append(np.nan)
        self._left.append(_LEAF)
        self._right.append(_LEAF)
        self._start.append(start)
        self._end.append(end)
        return len(self._dim) - 1

    def _build(self, start: int, end: int) -> int:
        node = self._new_node(start, end)
        n = end - start
        if n <= self.leaf_size:
            return node
        idx = self._perm[start:end]
        pts = self.data[idx]
        spreads = pts.max(axis=0) - pts.min(axis=0)
        dim = int(np.argmax(spreads))
        if spreads[dim] <= 0:  # all points identical: keep as leaf
            return node
        mid = n // 2
        order = np.argpartition(pts[:, dim], mid)
        self._perm[start:end] = idx[order]
        split_value = float(self.data[self._perm[start + mid], dim])
        left = self._build(start, start + mid)
        right = self._build(start + mid, end)
        self._dim[node] = dim
        self._split[node] = split_value
        self._left[node] = left
        self._right[node] = right
        return node

    @property
    def n_nodes(self) -> int:
        return len(self._dim)

    # -- queries ---------------------------------------------------------------------

    def query(self, X, k: int = 1, p: float = 2.0):
        """k nearest neighbours of each row of ``X``.

        Returns ``(distances, indices)`` with shape ``(n_queries, k)``,
        neighbours ordered nearest first (ties index-ascending).  ``p`` is
        the Minkowski order (p >= 1, finite).
        """
        rd, idx = self.query_reduced(X, k, p)
        return rd ** (1.0 / p), idx

    def query_reduced(self, X, k: int = 1, p: float = 2.0):  # hotpath: KNN kd_tree backend
        """:meth:`query` with reduced (root-free) Minkowski distances."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.data.shape[1]:
            raise ValueError("query dimensionality mismatch")
        if not 1 <= k <= self.data.shape[0]:
            raise ValueError(f"k must be in [1, {self.data.shape[0]}]")
        if p < 1 or not np.isfinite(p):
            raise ValueError("p must be finite and >= 1")
        nq = X.shape[0]
        dists = np.empty((nq, k), dtype=np.float64)
        idxs = np.empty((nq, k), dtype=np.int64)
        for lo, hi in chunk_indices(nq, self.query_chunk_size):
            dists[lo:hi], idxs[lo:hi] = self._query_chunk(X[lo:hi], k, p)
        return dists, idxs

    def _leaf_scan(self, Q: np.ndarray, node: int, p: float):  # hotpath: leaf distance kernel behind query()
        """Reduced distances of every query row to every point of a leaf."""
        idx = self._perm[self._start[node] : self._end[node]]
        diff = np.abs(Q[:, None, :] - self.data[idx][None, :, :])
        return reduced_minkowski(diff, p), idx

    def _query_chunk(self, Q: np.ndarray, k: int, p: float):  # hotpath: per-chunk branch-and-bound behind query()
        """Batched branch-and-bound over one chunk of queries.

        The traversal stack holds ``(node, queries)`` groups.  A popped
        group first drops every query whose reduced distance to the node's
        bounding box exceeds its current k-th best (``<=`` keeps boundary
        ties alive for the lexicographic index rule); survivors either
        scan the leaf in one matrix distance or descend, nearer child (by
        group majority) first so bounds tighten before the far sibling is
        re-checked.  The final k-set is an order-independent lexicographic
        (rd, idx) top-k, so visiting order only affects pruning
        efficiency, never results.
        """
        nq = Q.shape[0]
        best_rd = np.full((nq, k), np.inf)
        # sentinel index sorts after every real point until the slot fills
        best_idx = np.full((nq, k), self.data.shape[0], dtype=np.int64)
        stack: list[tuple[int, np.ndarray]] = [(0, np.arange(nq))]
        while stack:
            node, qs = stack.pop()
            Qs = Q[qs]
            gap = np.maximum(self._box_lo[node] - Qs, Qs - self._box_hi[node])
            np.maximum(gap, 0.0, out=gap)
            keep = reduced_minkowski(gap, p) <= best_rd[qs, k - 1]
            if not keep.any():
                continue
            qs = qs[keep]
            if self._dim[node] == _LEAF:
                rd, idx = self._leaf_scan(Q[qs], node, p)
                # staticcheck: ignore[hidden-copy] - bounded (nq, 2k) merge per leaf visit, not loop growth
                cand_rd = np.concatenate([best_rd[qs], rd], axis=1)
                # staticcheck: ignore[hidden-copy] - bounded (nq, 2k) merge per leaf visit, not loop growth
                cand_idx = np.concatenate(
                    [best_idx[qs], np.broadcast_to(idx, rd.shape)], axis=1
                )
                best_rd[qs], best_idx[qs] = lexicographic_topk(cand_rd, cand_idx, k)
                continue
            delta = Q[qs, self._dim[node]] - self._split[node]
            left, right = self._left[node], self._right[node]
            if 2 * int(np.count_nonzero(delta < 0)) >= qs.size:
                near, far = left, right
            else:
                near, far = right, left
            stack.append((far, qs))  # LIFO: near child explored first
            stack.append((near, qs))
        return best_rd, best_idx
