"""CART decision trees (Rokach & Maimon 2005) with two vectorized splitters.

The tree is stored flat in parallel arrays (``feature_``, ``threshold_``,
``children_left_``, ``children_right_``, ``value_``), so prediction routes
all samples level-by-level with numpy fancy indexing — no per-sample Python
recursion.  Routing predicate: a sample goes left iff ``x[feature] <
threshold``.

Two split finders:

- ``splitter="exact"`` — classic sort-based scan: every boundary between
  distinct consecutive values of a candidate feature is scored.
- ``splitter="hist"`` — features are quantized to ≤256 bins once per fit
  (or once per forest, see :mod:`repro.mlcore.forest`); candidate splits
  are bin boundaries scored from cumulative class histograms.

Both maximize the decrease of Gini impurity (or entropy) and share the
same vectorized scoring identity: minimizing the weighted child impurity
is equivalent to maximizing ``sum_c L_c^2 / n_L + sum_c R_c^2 / n_R`` for
Gini, where ``L_c``/``R_c`` are per-class child counts.
"""

from __future__ import annotations

import numpy as np

from repro.mlcore.base import check_is_fitted, check_random_state, check_X_y, encode_labels
from repro.mlcore.histogram import FeatureQuantizer

__all__ = ["DecisionTreeClassifier"]

_LEAF = -1


def _resolve_max_features(max_features, n_features: int) -> int:
    """Translate sklearn-style max_features into a feature count."""
    if max_features is None:
        return n_features
    if max_features == "sqrt":
        return max(1, int(np.sqrt(n_features)))
    if max_features == "log2":
        return max(1, int(np.log2(n_features)))
    if isinstance(max_features, (int, np.integer)) and not isinstance(max_features, bool):
        if not 1 <= max_features <= n_features:
            raise ValueError(f"max_features={max_features} out of range [1, {n_features}]")
        return int(max_features)
    if isinstance(max_features, float):
        if not 0.0 < max_features <= 1.0:
            raise ValueError("float max_features must be in (0, 1]")
        return max(1, int(max_features * n_features))
    raise ValueError(f"unsupported max_features {max_features!r}")


def _impurity(counts: np.ndarray, criterion: str) -> np.ndarray:
    """Impurity of count vectors along the last axis (vectorized)."""
    counts = counts.astype(np.float64)
    n = counts.sum(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        p = np.where(n > 0, counts / n, 0.0)
        if criterion == "gini":
            out = 1.0 - np.sum(p * p, axis=-1)
        else:  # entropy
            logp = np.zeros_like(p)
            np.log2(p, out=logp, where=p > 0)
            out = -np.sum(p * logp, axis=-1)
    return out


class _TreeBuilder:
    """Growable flat tree storage shared by both splitters."""

    def __init__(self, n_classes: int) -> None:
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.counts: list[np.ndarray] = []
        self.n_classes = n_classes

    def add_node(self, class_counts: np.ndarray) -> int:
        self.feature.append(_LEAF)
        self.threshold.append(np.nan)
        self.left.append(_LEAF)
        self.right.append(_LEAF)
        self.counts.append(class_counts)
        return len(self.feature) - 1

    def make_internal(self, node: int, feature: int, threshold: float, left: int, right: int):
        self.feature[node] = feature
        self.threshold[node] = threshold
        self.left[node] = left
        self.right[node] = right


class DecisionTreeClassifier:
    """CART classifier.

    Parameters follow scikit-learn where they exist; ``splitter`` selects
    the split finder ("exact" or "hist").

    Attributes (post-fit)
    ---------------------
    classes_:
        Original class labels in sorted order.
    feature_importances_:
        Impurity-decrease importances, normalized to sum to 1.
    """

    def __init__(
        self,
        *,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=None,
        criterion: str = "gini",
        splitter: str = "exact",
        n_bins: int = 64,
        random_state=None,
    ) -> None:
        if criterion not in ("gini", "entropy"):
            raise ValueError(f"unknown criterion {criterion!r}")
        if splitter not in ("exact", "hist"):
            raise ValueError(f"unknown splitter {splitter!r}")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.criterion = criterion
        self.splitter = splitter
        self.n_bins = n_bins
        self.random_state = random_state
        self.classes_: np.ndarray | None = None

    # -- fitting ----------------------------------------------------------------

    def fit(self, X, y, *, sample_indices=None, _hist_cache=None) -> "DecisionTreeClassifier":
        """Grow the tree.

        ``sample_indices`` restricts training to the given rows of ``X``
        (with repetition — this is how the forest passes bootstrap samples
        without copying the matrix).  ``_hist_cache`` is the forest-shared
        ``(quantizer, codes)`` pair for the hist splitter.
        """
        X, y = check_X_y(X, y, dtype=np.float32)
        self.classes_, y_enc = encode_labels(y)
        n_total, n_features = X.shape
        self.n_features_in_ = n_features
        k = len(self.classes_)
        rng = check_random_state(self.random_state)
        m = _resolve_max_features(self.max_features, n_features)

        if sample_indices is None:
            idx0 = np.arange(n_total, dtype=np.int64)
        else:
            idx0 = np.asarray(sample_indices, dtype=np.int64)
            if idx0.ndim != 1 or idx0.size == 0:
                raise ValueError("sample_indices must be a non-empty 1-D array")
            if idx0.min() < 0 or idx0.max() >= n_total:
                raise ValueError("sample_indices out of range")

        quantizer: FeatureQuantizer | None = None
        codes: np.ndarray | None = None
        if self.splitter == "hist":
            if _hist_cache is not None:
                quantizer, codes = _hist_cache
            else:
                quantizer = FeatureQuantizer(self.n_bins)
                codes = quantizer.fit_transform(X)

        builder = _TreeBuilder(k)
        importances = np.zeros(n_features, dtype=np.float64)
        max_depth = self.max_depth if self.max_depth is not None else np.inf

        root_counts = np.bincount(y_enc[idx0], minlength=k)
        root = builder.add_node(root_counts)
        stack: list[tuple[int, np.ndarray, int]] = [(root, idx0, 0)]

        while stack:
            node, idx, depth = stack.pop()
            counts = builder.counts[node]
            n_node = idx.size
            node_imp = _impurity(counts[None, :], self.criterion)[0]
            if (
                depth >= max_depth
                or n_node < self.min_samples_split
                or np.count_nonzero(counts) <= 1
            ):
                continue

            features = (
                np.arange(n_features)
                if m == n_features
                else rng.choice(n_features, size=m, replace=False)
            )
            if self.splitter == "exact":
                best = self._best_split_exact(X, y_enc, idx, features, k)
            else:
                best = self._best_split_hist(codes, quantizer, y_enc, idx, features, k)
            if best is None:
                continue
            feature, threshold, gain, left_mask = best
            if gain <= 1e-12:
                continue

            left_idx = idx[left_mask]
            right_idx = idx[~left_mask]
            left_counts = np.bincount(y_enc[left_idx], minlength=k)
            right_counts = counts - left_counts
            left_node = builder.add_node(left_counts)
            right_node = builder.add_node(right_counts)
            builder.make_internal(node, int(feature), float(threshold), left_node, right_node)
            importances[feature] += n_node * node_imp - (
                left_idx.size * _impurity(left_counts[None, :], self.criterion)[0]
                + right_idx.size * _impurity(right_counts[None, :], self.criterion)[0]
            )
            stack.append((left_node, left_idx, depth + 1))
            stack.append((right_node, right_idx, depth + 1))

        self.feature_ = np.array(builder.feature, dtype=np.int64)
        self.threshold_ = np.array(builder.threshold, dtype=np.float64)
        self.children_left_ = np.array(builder.left, dtype=np.int64)
        self.children_right_ = np.array(builder.right, dtype=np.int64)
        self.value_ = np.stack(builder.counts).astype(np.float64)
        total = importances.sum()
        self.feature_importances_ = importances / total if total > 0 else importances
        return self

    # -- split finders ----------------------------------------------------------
    #
    # Both finders score *blocks* of candidate features in one vectorized
    # pass: the per-position class counts come from a single cumulative sum
    # over a (n, block, k) one-hot (exact) or a (block, bins, k) histogram
    # (hist), and the criterion curve for every (feature, threshold) pair
    # of the block is materialized at once.  Block sizes are chosen so the
    # cumulative-count workspace stays bounded; iterating blocks in feature
    # order with a strict ">" keeps the tie-breaking of the historical
    # per-feature loop (first feature with the best rank wins).  The
    # pre-vectorization per-feature scans are preserved in
    # :mod:`repro.mlcore.reference` and pinned by the equivalence tests.

    #: element budget for a split-finder block workspace (~32 MB of float64)
    _SPLIT_BLOCK_ELEMS = 1 << 22

    def _best_split_exact(self, X, y_enc, idx, features, k):
        """Sort-based scan, vectorized over feature blocks.

        Returns (feature, threshold, gain, left_mask) or None.
        """
        n = idx.size
        min_leaf = self.min_samples_leaf
        y_node = y_enc[idx]
        parent_imp = _impurity(np.bincount(y_node, minlength=k)[None, :], self.criterion)[0]
        best_score = -np.inf
        best = None
        n_l = np.arange(1, n, dtype=np.float64)[:, None]  # split after i => n_l = i+1
        n_r = n - n_l
        features = np.asarray(features)
        block = max(1, self._SPLIT_BLOCK_ELEMS // max(1, n * k))
        rows = np.arange(n)[:, None]
        for lo in range(0, features.size, block):
            feats = features[lo : lo + block]
            m = feats.size
            Xb = X[np.ix_(idx, feats)].astype(np.float64)  # (n, m)
            order = np.argsort(Xb, axis=0, kind="stable")
            xs = np.take_along_axis(Xb, order, axis=0)
            ys = y_node[order]  # (n, m)
            # cum[i, j, c]: count of class c among the first i+1 samples
            # sorted by feature j
            onehot = np.zeros((n, m, k), dtype=np.float64)
            onehot[rows, np.arange(m)[None, :], ys] = 1.0
            cum = np.cumsum(onehot, axis=0)
            L = cum[:-1]  # (n-1, m, k)
            R = cum[-1][None, :, :] - L
            valid = xs[:-1] < xs[1:]  # (n-1, m)
            if min_leaf > 1:
                valid &= (n_l >= min_leaf) & (n_r >= min_leaf)
            if self.criterion == "gini":
                score = (L * L).sum(axis=2) / n_l + (R * R).sum(axis=2) / n_r
                score = np.where(valid, score, -np.inf)
                pos = np.argmax(score, axis=0)  # (m,)
                child_imp = (n - score[pos, np.arange(m)]) / n
            else:
                imp_l = _impurity(L, self.criterion)
                imp_r = _impurity(R, self.criterion)
                weighted = (n_l * imp_l + n_r * imp_r) / n
                weighted = np.where(valid, weighted, np.inf)
                pos = np.argmin(weighted, axis=0)
                child_imp = weighted[pos, np.arange(m)]
            ranks = np.where(valid[pos, np.arange(m)], -child_imp, -np.inf)
            j_rel = int(np.argmax(ranks))
            if ranks[j_rel] > best_score:
                i = int(pos[j_rel])
                a, b = xs[i, j_rel], xs[i + 1, j_rel]
                mid = 0.5 * (a + b)
                threshold = b if mid <= a else mid  # routing is x < threshold
                left_mask = Xb[:, j_rel] < threshold
                best_score = ranks[j_rel]
                gain = parent_imp - child_imp[j_rel]
                best = (int(feats[j_rel]), float(threshold), gain, left_mask)
        return best

    def _best_split_hist(self, codes, quantizer, y_enc, idx, features, k):
        """Histogram scan, vectorized over feature blocks.

        Returns (feature, threshold, gain, left_mask) or None.
        """
        n = idx.size
        min_leaf = max(1, self.min_samples_leaf)
        y_node = y_enc[idx]
        parent_counts = np.bincount(y_node, minlength=k)
        parent_imp = _impurity(parent_counts[None, :], self.criterion)[0]
        best_score = -np.inf
        best = None
        features = np.asarray(features)
        n_bins = np.array([quantizer.n_effective_bins(int(j)) for j in features])
        B = int(n_bins.max(initial=0))
        if B < 2:
            return None  # no feature has two distinct codes
        block = max(1, self._SPLIT_BLOCK_ELEMS // max(1, n))
        for lo in range(0, features.size, block):
            feats = features[lo : lo + block]
            m = feats.size
            c = codes[np.ix_(idx, feats)].astype(np.int64)  # (n, m)
            # one shared bincount over (feature, bin, class) cells
            cell = (np.arange(m) * B)[None, :] * k + c * k + y_node[:, None]
            hist = np.bincount(cell.ravel(), minlength=m * B * k).reshape(m, B, k)
            cum = np.cumsum(hist, axis=1).astype(np.float64)
            # split "code <= b" for b = 0 .. B-2; candidates at or beyond a
            # feature's own bin count leave the right child empty and are
            # rejected by the min-leaf constraint below
            L = cum[:, :-1, :]  # (m, B-1, k)
            n_l = L.sum(axis=2)
            n_r = n - n_l
            valid = (n_l >= min_leaf) & (n_r >= min_leaf)
            R = cum[:, -1, :][:, None, :] - L
            with np.errstate(invalid="ignore", divide="ignore"):
                if self.criterion == "gini":
                    score = (L * L).sum(axis=2) / n_l + (R * R).sum(axis=2) / n_r
                    score = np.where(valid, score, -np.inf)
                    pos = np.argmax(score, axis=1)  # (m,)
                    child_imp = (n - score[np.arange(m), pos]) / n
                else:
                    imp_l = _impurity(L, self.criterion)
                    imp_r = _impurity(R, self.criterion)
                    weighted = (n_l * imp_l + n_r * imp_r) / n
                    weighted = np.where(valid, weighted, np.inf)
                    pos = np.argmin(weighted, axis=1)
                    child_imp = weighted[np.arange(m), pos]
            ranks = np.where(valid[np.arange(m), pos], -child_imp, -np.inf)
            j_rel = int(np.argmax(ranks))
            if ranks[j_rel] > best_score:
                b = int(pos[j_rel])
                threshold = quantizer.threshold_of_bin(int(feats[j_rel]), b)
                left_mask = c[:, j_rel] <= b
                best_score = ranks[j_rel]
                gain = parent_imp - child_imp[j_rel]
                best = (int(feats[j_rel]), float(threshold), gain, left_mask)
        return best

    # -- prediction ----------------------------------------------------------------

    def apply(self, X) -> np.ndarray:
        """Leaf index reached by each sample."""
        check_is_fitted(self, "classes_")
        X = np.asarray(X, dtype=np.float32)
        if X.ndim != 2 or X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X must have shape (n, {self.n_features_in_}), got {X.shape}"
            )
        node = np.zeros(X.shape[0], dtype=np.int64)
        active = np.flatnonzero(self.feature_[node] != _LEAF)
        while active.size:
            cur = node[active]
            f = self.feature_[cur]
            go_left = X[active, f] < self.threshold_[cur]
            node[active] = np.where(go_left, self.children_left_[cur], self.children_right_[cur])
            active = active[self.feature_[node[active]] != _LEAF]
        return node

    def predict_proba(self, X) -> np.ndarray:
        """Class probabilities: leaf class frequencies."""
        leaves = self.apply(X)
        counts = self.value_[leaves]
        return counts / counts.sum(axis=1, keepdims=True)

    def predict(self, X) -> np.ndarray:
        """Majority class of the reached leaf."""
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    def score(self, X, y) -> float:
        """Mean accuracy."""
        return float(np.mean(self.predict(X) == np.asarray(y)))

    # -- introspection ----------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        check_is_fitted(self, "classes_")
        return int(self.feature_.shape[0])

    def get_n_leaves(self) -> int:
        check_is_fitted(self, "classes_")
        return int(np.sum(self.feature_ == _LEAF))

    def get_depth(self) -> int:
        check_is_fitted(self, "classes_")
        depth = np.zeros(self.n_nodes, dtype=np.int64)
        out = 0
        for node in range(self.n_nodes):
            if self.feature_[node] != _LEAF:
                d = depth[node] + 1
                depth[self.children_left_[node]] = d
                depth[self.children_right_[node]] = d
            else:
                out = max(out, int(depth[node]))
        return out

    # -- persistence ----------------------------------------------------------------

    def get_state(self) -> dict:
        """Serializable state (see :mod:`repro.mlcore.persistence`)."""
        check_is_fitted(self, "classes_")
        return {
            "meta": {
                "max_depth": self.max_depth,
                "min_samples_split": self.min_samples_split,
                "min_samples_leaf": self.min_samples_leaf,
                "max_features": self.max_features,
                "criterion": self.criterion,
                "splitter": self.splitter,
                "n_bins": self.n_bins,
                "n_features_in": self.n_features_in_,
            },
            "arrays": {
                "classes": self.classes_,
                "feature": self.feature_,
                "threshold": self.threshold_,
                "children_left": self.children_left_,
                "children_right": self.children_right_,
                "value": self.value_,
                "feature_importances": self.feature_importances_,
            },
        }

    @classmethod
    def from_state(cls, state: dict) -> "DecisionTreeClassifier":
        meta, arrays = state["meta"], state["arrays"]
        tree = cls(
            max_depth=meta["max_depth"],
            min_samples_split=meta["min_samples_split"],
            min_samples_leaf=meta["min_samples_leaf"],
            max_features=meta["max_features"],
            criterion=meta["criterion"],
            splitter=meta["splitter"],
            n_bins=meta["n_bins"],
        )
        tree.n_features_in_ = int(meta["n_features_in"])
        tree.classes_ = np.asarray(arrays["classes"])
        tree.feature_ = np.asarray(arrays["feature"], dtype=np.int64)
        tree.threshold_ = np.asarray(arrays["threshold"], dtype=np.float64)
        tree.children_left_ = np.asarray(arrays["children_left"], dtype=np.int64)
        tree.children_right_ = np.asarray(arrays["children_right"], dtype=np.int64)
        tree.value_ = np.asarray(arrays["value"], dtype=np.float64)
        tree.feature_importances_ = np.asarray(arrays["feature_importances"])
        return tree
