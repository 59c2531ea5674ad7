"""Pre-vectorization reference implementations (parity + benchmark oracles).

The PR that batch-vectorized the ML hot paths (brute k-NN selection,
CART split finders, packed forest prediction) preserved the historical
per-item code paths here.  They serve two purposes:

- *parity oracles*: ``tests/mlcore/test_equivalence.py`` asserts that the
  vectorized paths reproduce these results exactly — bit-for-bit where
  the floating-point arithmetic is shared, and on integer-lattice inputs
  (where every distance is exact) even across arithmetic families;
- *benchmark baselines*: the speedups in ``BENCH_mlcore.json`` are
  measured against these functions, so the ratios keep their meaning as
  the fast paths evolve.

The neighbour reference follows the tie rule of the KNN search: the k
reported neighbours are the k smallest ``(squared_distance,
training_index)`` pairs in lexicographic order.
"""

from __future__ import annotations

import numpy as np

from repro.mlcore.tree import _LEAF, _impurity

__all__ = [
    "brute_kneighbors_scalar",
    "tree_predict_proba_scalar",
    "forest_predict_proba_scalar",
    "best_split_exact_scalar",
    "best_split_hist_scalar",
]


# -- neighbour search ------------------------------------------------------------


def brute_kneighbors_scalar(X_train, Q, k: int):
    """One query at a time against every training point, sorted in Python.

    The obviously-correct oracle: materialize each query's full squared
    Euclidean distance row and pick the k lexicographically smallest
    ``(rd, idx)`` pairs with ``sorted``.
    """
    X_train = np.asarray(X_train, dtype=np.float64)
    Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
    nq = Q.shape[0]
    dists = np.empty((nq, k), dtype=np.float64)
    idxs = np.empty((nq, k), dtype=np.int64)
    for qi in range(nq):
        diff = Q[qi][None, :] - X_train
        rd = np.einsum("...i,...i->...", diff, diff)
        pairs = sorted(zip(rd.tolist(), range(X_train.shape[0])))[:k]
        dists[qi] = [r for r, _ in pairs]
        idxs[qi] = [j for _, j in pairs]
    return dists**0.5, idxs


# -- tree / forest prediction ----------------------------------------------------


def tree_predict_proba_scalar(tree, X) -> np.ndarray:
    """Walk each sample from the root through the flat node arrays."""
    X = np.asarray(X, dtype=np.float32)
    out = np.empty((X.shape[0], tree.value_.shape[1]), dtype=np.float64)
    for i in range(X.shape[0]):
        node = 0
        while tree.feature_[node] != _LEAF:
            f = tree.feature_[node]
            if X[i, f] < tree.threshold_[node]:
                node = tree.children_left_[node]
            else:
                node = tree.children_right_[node]
        counts = tree.value_[node]
        out[i] = counts / counts.sum()
    return out


def forest_predict_proba_scalar(forest, X) -> np.ndarray:
    """The pre-packing forest prediction: one tree at a time, accumulated."""
    X = np.asarray(X, dtype=np.float32)
    proba = np.zeros((X.shape[0], len(forest.classes_)), dtype=np.float64)
    for t in forest.estimators_:
        proba += t.predict_proba(X)
    return proba / len(forest.estimators_)


# -- split finders ---------------------------------------------------------------


def best_split_exact_scalar(clf, X, y_enc, idx, features, k):
    """Per-feature sort scan (the pre-blocking exact split finder).

    One feature at a time: stable sort, class-count cumulative sum, the
    criterion curve over all n-1 candidate boundaries, strict ``>``
    against the running best so the first feature achieving the best rank
    wins — the tie rule the blocked finder preserves.
    """
    n = idx.size
    min_leaf = clf.min_samples_leaf
    y_node = y_enc[idx]
    parent_imp = _impurity(np.bincount(y_node, minlength=k)[None, :], clf.criterion)[0]
    best_score = -np.inf
    best = None
    n_l = np.arange(1, n, dtype=np.float64)
    n_r = n - n_l
    for j in np.asarray(features):
        xj = X[idx, j].astype(np.float64)
        order = np.argsort(xj, kind="stable")
        xs = xj[order]
        ys = y_node[order]
        onehot = np.zeros((n, k), dtype=np.float64)
        onehot[np.arange(n), ys] = 1.0
        cum = np.cumsum(onehot, axis=0)
        L = cum[:-1]
        R = cum[-1][None, :] - L
        valid = xs[:-1] < xs[1:]
        if min_leaf > 1:
            valid &= (n_l >= min_leaf) & (n_r >= min_leaf)
        if clf.criterion == "gini":
            score = (L * L).sum(axis=1) / n_l + (R * R).sum(axis=1) / n_r
            score = np.where(valid, score, -np.inf)
            pos = int(np.argmax(score))
            child_imp = (n - score[pos]) / n
        else:
            imp_l = _impurity(L, clf.criterion)
            imp_r = _impurity(R, clf.criterion)
            weighted = (n_l * imp_l + n_r * imp_r) / n
            weighted = np.where(valid, weighted, np.inf)
            pos = int(np.argmin(weighted))
            child_imp = weighted[pos]
        rank = -child_imp if valid[pos] else -np.inf
        if rank > best_score:
            a, b = xs[pos], xs[pos + 1]
            mid = 0.5 * (a + b)
            threshold = b if mid <= a else mid  # routing is x < threshold
            best_score = rank
            best = (int(j), float(threshold), parent_imp - child_imp, xj < threshold)
    return best


def best_split_hist_scalar(clf, codes, quantizer, y_enc, idx, features, k):
    """Per-feature histogram scan (the pre-blocking hist split finder)."""
    n = idx.size
    min_leaf = max(1, clf.min_samples_leaf)
    y_node = y_enc[idx]
    parent_imp = _impurity(np.bincount(y_node, minlength=k)[None, :], clf.criterion)[0]
    best_score = -np.inf
    best = None
    for j in np.asarray(features):
        B = quantizer.n_effective_bins(int(j))
        if B < 2:
            continue
        cj = codes[idx, j].astype(np.int64)
        hist = np.bincount(cj * k + y_node, minlength=B * k).reshape(B, k)
        cum = np.cumsum(hist, axis=0).astype(np.float64)
        L = cum[:-1]  # split "code <= b" for b = 0 .. B-2
        n_l = L.sum(axis=1)
        n_r = n - n_l
        valid = (n_l >= min_leaf) & (n_r >= min_leaf)
        if not valid.any():
            continue
        R = cum[-1][None, :] - L
        with np.errstate(invalid="ignore", divide="ignore"):
            if clf.criterion == "gini":
                score = (L * L).sum(axis=1) / n_l + (R * R).sum(axis=1) / n_r
                score = np.where(valid, score, -np.inf)
                pos = int(np.argmax(score))
                child_imp = (n - score[pos]) / n
            else:
                imp_l = _impurity(L, clf.criterion)
                imp_r = _impurity(R, clf.criterion)
                weighted = (n_l * imp_l + n_r * imp_r) / n
                weighted = np.where(valid, weighted, np.inf)
                pos = int(np.argmin(weighted))
                child_imp = weighted[pos]
        rank = -child_imp if valid[pos] else -np.inf
        if rank > best_score:
            threshold = quantizer.threshold_of_bin(int(j), pos)
            best_score = rank
            best = (int(j), float(threshold), parent_imp - child_imp, cj <= pos)
    return best
