"""Random Forest classifier (Breiman 2001).

An ensemble of CART trees, each grown on a bootstrap resample of the
training data with per-node random feature subsets; prediction averages
the trees' class-probability votes (scikit-learn's "soft voting"), which
is what the paper's RF instantiation uses via the sklearn defaults.

With ``splitter="hist"`` the expensive feature quantization is done once
and shared by all trees.  Optional out-of-bag scoring estimates
generalization without a held-out set.

Prediction is fully vectorized across the whole ensemble: after fit the
trees' flat node arrays are packed into padded ``(n_trees, max_nodes)``
matrices (leaves rewired to self-loops), and one level-order sweep routes
every (tree, sample) pair simultaneously — ``max_depth`` fancy-indexing
steps total instead of a Python loop over trees.  The historical per-tree
prediction loop is preserved in :mod:`repro.mlcore.reference`.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.mlcore.base import check_is_fitted, check_random_state, check_X_y, encode_labels
from repro.mlcore.histogram import FeatureQuantizer
from repro.mlcore.tree import DecisionTreeClassifier

__all__ = ["RandomForestClassifier"]

_LEAF = -1


class _PackedForest:
    """Ensemble-wide flat node arrays for level-order batch prediction.

    Every tree's ``feature_/threshold_/children_*`` arrays are concatenated
    into one flat node pool with *global* node ids (tree t's node j lives
    at ``offset[t] + j``, and child pointers are rewritten to global ids at
    pack time).  Prediction routes all (tree, sample) pairs together: one
    level-order step is a single gather + compare + ``np.where`` over the
    still-active pairs, and pairs drop out of the active set as they reach
    leaves — the ensemble-fused version of the narrowing loop in
    :meth:`DecisionTreeClassifier.apply`, with the Python-per-tree
    overhead removed.
    """

    def __init__(self, trees: list[DecisionTreeClassifier]) -> None:
        sizes = np.array([t.feature_.shape[0] for t in trees], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        self.feature = np.concatenate([t.feature_ for t in trees])
        is_leaf = self.feature == _LEAF
        self.feature = np.where(is_leaf, 0, self.feature)
        self.threshold = np.concatenate([t.threshold_ for t in trees])
        # child pointers to leaves are bitwise-complement encoded (~id < 0),
        # so the traversal's "reached a leaf?" test is a sign check on the
        # freshly gathered child instead of another is_leaf gather
        left = np.concatenate([t.children_left_ + o for t, o in zip(trees, offsets)])
        right = np.concatenate([t.children_right_ + o for t, o in zip(trees, offsets)])
        self.left = np.where(is_leaf[np.where(is_leaf, 0, left)] | is_leaf, ~left, left)
        self.right = np.where(
            is_leaf[np.where(is_leaf, 0, right)] | is_leaf, ~right, right
        )
        self.roots = np.where(is_leaf[offsets], ~offsets, offsets)
        values = np.concatenate([t.value_ for t in trees])
        self.leaf_proba = values / values.sum(axis=1, keepdims=True)
        self.n_trees = len(trees)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Soft-vote probabilities, one fused narrowing sweep for the ensemble."""
        nq = X.shape[0]
        # flat (tree-major) pair layout: pair p = (tree p // nq, sample p % nq)
        node = np.repeat(self.roots, nq)
        col_of = np.tile(np.arange(nq), self.n_trees)
        active = np.flatnonzero(node >= 0)
        while active.size:
            gn = node[active]
            go_left = X[col_of[active], self.feature[gn]] < self.threshold[gn]
            nxt = np.where(go_left, self.left[gn], self.right[gn])
            node[active] = nxt
            active = active[nxt >= 0]
        np.bitwise_not(node, out=node)  # decode: every pair ended on ~leaf_id
        probs = self.leaf_proba[node].reshape(self.n_trees, nq, -1)
        return probs.sum(axis=0) / self.n_trees


class RandomForestClassifier:
    """Bagged forest of :class:`DecisionTreeClassifier`.

    Parameters
    ----------
    n_estimators:
        Number of trees (sklearn default: 100).
    max_features:
        Per-node feature subset; defaults to "sqrt" as in sklearn.
    bootstrap:
        Draw n-out-of-n resamples with replacement per tree; if False every
        tree sees the full data (then only feature subsampling decorrelates
        trees).
    oob_score:
        If True, compute :attr:`oob_score_` — accuracy of each sample voted
        on only by trees that did not train on it.
    splitter, n_bins, max_depth, min_samples_split, min_samples_leaf,
    criterion:
        Forwarded to the trees.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        *,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features="sqrt",
        criterion: str = "gini",
        splitter: str = "exact",
        n_bins: int = 64,
        bootstrap: bool = True,
        oob_score: bool = False,
        random_state=None,
        n_jobs: int = 1,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = int(n_estimators)
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.criterion = criterion
        self.splitter = splitter
        self.n_bins = n_bins
        self.bootstrap = bootstrap
        self.oob_score = oob_score
        self.random_state = random_state
        if n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        self.n_jobs = int(n_jobs)
        self.classes_: np.ndarray | None = None
        self.estimators_: list[DecisionTreeClassifier] = []
        self._packed: _PackedForest | None = None

    def _make_tree(self, seed: int) -> DecisionTreeClassifier:
        return DecisionTreeClassifier(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            criterion=self.criterion,
            splitter=self.splitter,
            n_bins=self.n_bins,
            random_state=seed,
        )

    def fit(self, X, y) -> "RandomForestClassifier":
        """Fit all trees on bootstrap resamples."""
        X, y = check_X_y(X, y, dtype=np.float32)
        self.classes_, y_enc = encode_labels(y)
        n = X.shape[0]
        self.n_features_in_ = X.shape[1]
        rng = check_random_state(self.random_state)

        hist_cache = None
        if self.splitter == "hist":
            q = FeatureQuantizer(self.n_bins)
            hist_cache = (q, q.fit_transform(X))

        oob_votes = (
            np.zeros((n, len(self.classes_)), dtype=np.float64) if self.oob_score else None
        )
        # all randomness is drawn up front so results are identical for any
        # n_jobs: per-tree seeds and bootstrap resamples
        seeds = rng.integers(0, 2**31 - 1, size=self.n_estimators)
        if self.bootstrap:
            bootstraps = [rng.integers(0, n, size=n) for _ in range(self.n_estimators)]
        else:
            bootstraps = [np.arange(n)] * self.n_estimators

        def fit_one(t: int) -> DecisionTreeClassifier:
            tree = self._make_tree(int(seeds[t]))
            tree.fit(X, y_enc, sample_indices=bootstraps[t], _hist_cache=hist_cache)
            return tree

        if self.n_jobs > 1:
            # threads, so the closure shares X and hist_cache by reference;
            # map keeps the trees in index order
            with ThreadPoolExecutor(max_workers=self.n_jobs) as pool:
                self.estimators_ = list(pool.map(fit_one, range(self.n_estimators)))
        else:
            self.estimators_ = [fit_one(t) for t in range(self.n_estimators)]
        self._packed = None  # stale after refit; rebuilt lazily on predict

        if oob_votes is not None and self.bootstrap:
            for tree, idx in zip(self.estimators_, bootstraps):
                mask = np.ones(n, dtype=bool)
                mask[np.unique(idx)] = False
                if mask.any():
                    oob_votes[mask] += tree.predict_proba(X[mask])

        if oob_votes is not None:
            voted = oob_votes.sum(axis=1) > 0
            if voted.any():
                pred = np.argmax(oob_votes[voted], axis=1)
                self.oob_score_ = float(np.mean(pred == y_enc[voted]))
            else:  # pragma: no cover - requires tiny forests
                self.oob_score_ = float("nan")
        return self

    def predict_proba(self, X) -> np.ndarray:
        """Mean of per-tree class probabilities (packed level-order sweep)."""
        check_is_fitted(self, "classes_")
        X = np.asarray(X, dtype=np.float32)
        if X.ndim != 2 or X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X must have shape (n, {self.n_features_in_}), got {X.shape}"
            )
        if self._packed is None:
            self._packed = _PackedForest(self.estimators_)
        return self._packed.predict_proba(X)

    def predict(self, X) -> np.ndarray:
        """Soft-voted class labels."""
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    def score(self, X, y) -> float:
        """Mean accuracy."""
        return float(np.mean(self.predict(X) == np.asarray(y)))

    @property
    def feature_importances_(self) -> np.ndarray:
        """Mean impurity-decrease importances over trees."""
        check_is_fitted(self, "classes_")
        imp = np.mean([t.feature_importances_ for t in self.estimators_], axis=0)
        total = imp.sum()
        return imp / total if total > 0 else imp

    # -- persistence --------------------------------------------------------------

    def get_state(self) -> dict:
        check_is_fitted(self, "classes_")
        state = {
            "meta": {
                "n_estimators": self.n_estimators,
                "max_depth": self.max_depth,
                "min_samples_split": self.min_samples_split,
                "min_samples_leaf": self.min_samples_leaf,
                "max_features": self.max_features,
                "criterion": self.criterion,
                "splitter": self.splitter,
                "n_bins": self.n_bins,
                "bootstrap": self.bootstrap,
                "oob_score": self.oob_score,
                "n_jobs": self.n_jobs,
                "n_features_in": self.n_features_in_,
            },
            "arrays": {"classes": self.classes_},
            "children": {
                f"tree_{i}": t.get_state() for i, t in enumerate(self.estimators_)
            },
        }
        if getattr(self, "oob_score_", None) is not None and self.oob_score:
            state["meta"]["oob_score_value"] = self.oob_score_
        return state

    @classmethod
    def from_state(cls, state: dict) -> "RandomForestClassifier":
        meta = state["meta"]
        forest = cls(
            meta["n_estimators"],
            max_depth=meta["max_depth"],
            min_samples_split=meta["min_samples_split"],
            min_samples_leaf=meta["min_samples_leaf"],
            max_features=meta["max_features"],
            criterion=meta["criterion"],
            splitter=meta["splitter"],
            n_bins=meta["n_bins"],
            bootstrap=meta["bootstrap"],
            oob_score=meta["oob_score"],
            n_jobs=meta.get("n_jobs", 1),
        )
        forest.n_features_in_ = int(meta["n_features_in"])
        forest.classes_ = np.asarray(state["arrays"]["classes"])
        forest.estimators_ = [
            DecisionTreeClassifier.from_state(state["children"][f"tree_{i}"])
            for i in range(meta["n_estimators"])
        ]
        if "oob_score_value" in meta:
            forest.oob_score_ = meta["oob_score_value"]
        return forest
