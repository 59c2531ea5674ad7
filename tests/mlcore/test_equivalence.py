"""Vectorized-vs-scalar equivalence for the ML hot paths.

The vectorization PR promised exact behavioural parity: every batched
path must reproduce the preserved scalar references in
:mod:`repro.mlcore.reference` — bit-for-bit where the arithmetic is
shared, and across arithmetic families on integer-lattice inputs where
every distance is exact in float64.
"""

import functools

import numpy as np
import pytest

from repro.mlcore.forest import RandomForestClassifier
from repro.mlcore.kdtree import KDTree
from repro.mlcore.knn import KNeighborsClassifier
from repro.mlcore.reference import (
    best_split_exact_scalar,
    best_split_hist_scalar,
    brute_kneighbors_scalar,
    forest_predict_proba_scalar,
    kdtree_query_scalar,
    tree_predict_proba_scalar,
)
from repro.mlcore.tree import DecisionTreeClassifier


def lattice(rng, n, d, span=5):
    # small random integers stored as float64: every squared distance is an
    # exact integer, so equidistant points are bit-identical ties under any
    # summation order — exact tie-breaking is testable across backends
    return rng.integers(0, span, size=(n, d)).astype(np.float64)


@functools.lru_cache(maxsize=None)
def duplicate_heavy(data):
    """``(X, Q)``: training rows that repeat a small distinct set in
    shuffled order, and queries.

    ``"lattice"``: 3-d integer points, so distances tie exactly.
    ``"embeddings"``: 100 distinct unit-norm 384-d rows, as the sentence
    embedder writes them, two of which differ only in the sign of a zero
    (so they tie at every query).  The queries are distinct rows, whose
    copies tie exactly, then fresh rows.
    """
    rng = np.random.default_rng(23)
    if data == "lattice":
        return lattice(rng, 400, 3, span=3), lattice(rng, 90, 3, span=3)
    distinct = rng.normal(size=(100, 384))
    distinct /= np.linalg.norm(distinct, axis=1, keepdims=True)
    distinct[1] = distinct[0]
    distinct[0, 5] = 0.0
    distinct[1, 5] = -0.0
    X = distinct[rng.permutation(np.arange(400) % 100)]
    fresh = rng.normal(size=(15, 384))
    fresh /= np.linalg.norm(fresh, axis=1, keepdims=True)
    return X, np.vstack([distinct[:40], fresh])


def as_referenced_rows(X):
    """``(rows, row_index)`` with ``rows[row_index]`` byte-identical to
    ``X``, laid out as ``fit_rows`` must accept it: the distinct rows in
    reverse first-seen order (ids first used out of order), a NaN row
    nothing references, and a byte-identical twin of the first distinct
    row, which every other copy of that row references."""
    ids = {}
    first_seen = np.array([ids.setdefault(row.tobytes(), len(ids)) for row in X])
    m = len(ids)
    distinct = X[np.unique(first_seen, return_index=True)[1]]
    rows = np.vstack([distinct[::-1], np.full((1, X.shape[1]), np.nan), distinct[:1]])
    row_index = (m - 1) - first_seen
    row_index[np.flatnonzero(first_seen == 0)[1::2]] = m + 1
    assert rows[row_index].tobytes() == X.tobytes()
    return rows, row_index


@functools.lru_cache(maxsize=None)
def duplicate_heavy_reference(data, k, p):
    X, Q = duplicate_heavy(data)
    return brute_kneighbors_scalar(X, Q, k, p=p)


class TestNeighborEquivalence:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_kdtree_matches_scalar_reference(self, p):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(300, 5))
        Q = rng.normal(size=(60, 5))
        tree = KDTree(X, leaf_size=7, query_chunk_size=13)
        d_new, i_new = tree.query(Q, k=5, p=p)
        d_ref, i_ref = kdtree_query_scalar(tree, Q, k=5, p=p)
        assert np.array_equal(i_new, i_ref)
        assert np.array_equal(d_new, d_ref)

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_all_backends_agree_on_lattice_ties(self, k):
        rng = np.random.default_rng(3)
        X = lattice(rng, 250, 3)
        Q = lattice(rng, 80, 3)
        rd = ((Q[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
        kth = np.sort(rd, axis=1)[:, k - 1]
        # sanity: the data really does put multiple points at the k-th distance
        assert ((rd == kth[:, None]).sum(axis=1) > 1).any()

        d_ref, i_ref = brute_kneighbors_scalar(X, Q, k)
        tree = KDTree(X, leaf_size=5, query_chunk_size=17)
        d_t, i_t = tree.query(Q, k=k)
        assert np.array_equal(i_t, i_ref)
        assert np.array_equal(d_t, d_ref)

        d_s, i_s = kdtree_query_scalar(tree, Q, k=k)
        assert np.array_equal(i_s, i_ref)
        assert np.array_equal(d_s, d_ref)

        knn = KNeighborsClassifier(k, algorithm="brute")
        knn.fit(X, np.arange(X.shape[0]) % 2)
        d_b, i_b = knn.kneighbors(Q)
        assert np.array_equal(i_b, i_ref)
        assert np.array_equal(d_b, d_ref)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("k", [1, 5, 17, "above_distinct", "n"])
    @pytest.mark.parametrize("chunk_size", [1, 7, 512])
    @pytest.mark.parametrize("algorithm", ["brute", "kd_tree"])
    @pytest.mark.parametrize("data", ["lattice", "embeddings"])
    @pytest.mark.parametrize("fit", ["fit", "fit_rows"])
    def test_brute_duplicate_heavy_matches_scalar_reference(
        self, fit, data, algorithm, chunk_size, k, p
    ):
        # both backends search the distinct rows and expand their copies;
        # neighbours and distances must equal the brute-force scalar
        # reference over every row, whatever the chunking, for k up to n,
        # whether fit finds the distinct rows or fit_rows is handed them
        X, Q = duplicate_heavy(data)
        y = np.arange(X.shape[0]) % 2
        n_distinct = len({row.tobytes() for row in X})
        assert n_distinct < len(X) // 3
        k = {"above_distinct": n_distinct + 3, "n": len(X)}.get(k, k)
        d_ref, i_ref = duplicate_heavy_reference(data, k, p)
        knn = KNeighborsClassifier(k, p=p, algorithm=algorithm, chunk_size=chunk_size)
        if fit == "fit":
            knn.fit(X, y)
        else:
            knn.fit_rows(*as_referenced_rows(X), y)
        d_b, i_b = knn.kneighbors(Q)
        assert np.array_equal(i_b, i_ref)
        assert np.array_equal(d_b, d_ref)
        if fit == "fit_rows":
            dense = KNeighborsClassifier(k, p=p, algorithm=algorithm, chunk_size=chunk_size)
            dense.fit(X, y)
            assert np.array_equal(knn.predict(Q), dense.predict(Q))
            got, want = knn.get_state()["arrays"], dense.get_state()["arrays"]
            assert set(got) == set(want)
            # the twin stays its own row (fit_rows hashes nothing), so the
            # layouts differ by it; the matrix they encode is the same
            for name in ("classes", "y"):
                assert got[name].dtype == want[name].dtype
                assert np.array_equal(got[name], want[name])
            expanded = got["rows"][got["row_index"]]
            assert expanded.tobytes() == want["rows"][want["row_index"]].tobytes()
            assert got["rows"].shape[0] == want["rows"].shape[0] + 1

    def test_fit_rows_rejects_bad_input(self):
        rows = np.eye(3)
        knn = KNeighborsClassifier(1)
        with pytest.raises(ValueError, match="y has shape"):
            knn.fit_rows(rows, [0, 1, 2, 1], [0, 1, 0])
        rows[1, 2] = np.inf
        with pytest.raises(ValueError, match="NaN or infinity"):
            knn.fit_rows(rows, [0, 1, 2], [0, 1, 0])
        # an unreferenced non-finite row is dropped, not rejected
        knn.fit_rows(rows, [0, 2, 2], [0, 1, 0])
        archived = np.asarray(knn.get_state()["arrays"]["rows"], dtype=np.float64)
        assert archived.tobytes() == rows[[0, 2]].tobytes()
        with pytest.raises(ValueError, match="must lie in"):
            knn.fit_rows(rows, [0, 3], [0, 1])

    def test_brute_tie_free_batch_matches_scalar_reference(self):
        # continuous data: the BLAS screen only picks the rows to rescore,
        # so distances equal the reference bit for bit, not just to rounding
        rng = np.random.default_rng(29)
        X = rng.normal(size=(300, 4))
        Q = rng.normal(size=(70, 4))
        d_ref, i_ref = brute_kneighbors_scalar(X, Q, 5)
        knn = KNeighborsClassifier(5, algorithm="brute").fit(
            X, np.arange(X.shape[0]) % 2
        )
        d_b, i_b = knn.kneighbors(Q)
        assert np.array_equal(i_b, i_ref)
        assert np.array_equal(d_b, d_ref)

    def test_brute_rescores_rows_the_screen_misorders(self):
        # one coordinate, so every dot product is a single rounded multiply
        # and the screen's values are the same on any BLAS: B lies 23 ulps
        # below the query and A 33 above, yet |q|² + |x|² - 2q·x ranks A
        # first by 2.2e-16; without the rescore, or with its bound cut
        # ~30-fold, the search returns A
        q = np.array([[0.5108139188848742]])
        ulp = np.spacing(q[0, 0])
        X = np.array([[q[0, 0] + 33 * ulp], [q[0, 0] - 23 * ulp], [0.0]])
        screen = (q * q)[0] + (X * X)[:, 0] - 2.0 * (q @ X.T)[0]
        exact = ((q - X) ** 2)[:, 0]
        assert screen[0] < screen[1] and exact[1] < exact[0]
        knn = KNeighborsClassifier(1, algorithm="brute").fit(X, [0, 1, 0])
        d_b, i_b = knn.kneighbors(q)
        d_ref, i_ref = brute_kneighbors_scalar(X, q, 1)
        assert i_b[0, 0] == i_ref[0, 0] == 1
        assert np.array_equal(d_b, d_ref)
        assert knn.predict(q)[0] == 1

    def test_brute_and_kdtree_classifiers_agree_continuous(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(200, 4))
        y = (X[:, 0] > 0).astype(int)
        Q = rng.normal(size=(50, 4))
        brute = KNeighborsClassifier(5, algorithm="brute").fit(X, y)
        kd = KNeighborsClassifier(5, algorithm="kd_tree").fit(X, y)
        d_b, i_b = brute.kneighbors(Q)
        d_k, i_k = kd.kneighbors(Q)
        assert np.array_equal(i_b, i_k)
        np.testing.assert_allclose(d_b, d_k, rtol=1e-12, atol=1e-12)


class TestSplitFinderEquivalence:
    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    @pytest.mark.parametrize("splitter", ["exact", "hist"])
    def test_fit_identical_with_per_feature_reference(
        self, criterion, splitter, monkeypatch
    ):
        rng = np.random.default_rng(19)
        X = rng.normal(size=(240, 7)).astype(np.float32)
        X[:, 2] = np.round(X[:, 2])  # repeated values exercise boundary masks
        y = ((X[:, 0] * X[:, 1] > 0) | (X[:, 2] > 1)).astype(int)

        def make():
            return DecisionTreeClassifier(
                max_depth=7,
                min_samples_leaf=2,
                max_features="sqrt",
                criterion=criterion,
                splitter=splitter,
                n_bins=16,
                random_state=5,
            )

        fast = make().fit(X, y)
        ref = make()
        monkeypatch.setattr(
            ref,
            "_best_split_exact",
            lambda *args: best_split_exact_scalar(ref, *args),
        )
        monkeypatch.setattr(
            ref,
            "_best_split_hist",
            lambda *args: best_split_hist_scalar(ref, *args),
        )
        ref.fit(X, y)

        assert np.array_equal(fast.feature_, ref.feature_)
        # leaf thresholds are NaN, so compare with equal_nan
        assert np.array_equal(fast.threshold_, ref.threshold_, equal_nan=True)
        assert np.array_equal(fast.children_left_, ref.children_left_)
        assert np.array_equal(fast.children_right_, ref.children_right_)
        assert np.array_equal(fast.value_, ref.value_)
        assert np.array_equal(fast.feature_importances_, ref.feature_importances_)


class TestPredictEquivalence:
    def test_tree_predict_proba_matches_node_walk(self):
        rng = np.random.default_rng(23)
        X = rng.normal(size=(300, 6)).astype(np.float32)
        y = (X[:, 0] + X[:, 1] ** 2 > 1).astype(int)
        tree = DecisionTreeClassifier(max_depth=8, random_state=1).fit(X, y)
        Q = rng.normal(size=(120, 6)).astype(np.float32)
        assert np.array_equal(tree.predict_proba(Q), tree_predict_proba_scalar(tree, Q))

    @pytest.mark.parametrize("splitter", ["exact", "hist"])
    def test_packed_forest_matches_per_tree_loop(self, splitter):
        rng = np.random.default_rng(29)
        X = rng.normal(size=(300, 8)).astype(np.float32)
        y = (X[:, 0] * X[:, 1] > 0).astype(int)
        forest = RandomForestClassifier(
            12, max_depth=6, splitter=splitter, random_state=3
        ).fit(X, y)
        Q = rng.normal(size=(90, 8)).astype(np.float32)
        assert np.array_equal(
            forest.predict_proba(Q), forest_predict_proba_scalar(forest, Q)
        )

    def test_packed_cache_invalidated_on_refit(self):
        rng = np.random.default_rng(31)
        X = rng.normal(size=(120, 4)).astype(np.float32)
        y = (X[:, 0] > 0).astype(int)
        forest = RandomForestClassifier(5, max_depth=4, random_state=0).fit(X, y)
        forest.predict_proba(X)  # builds the packed representation
        forest.fit(X, 1 - y)  # refit must not serve stale packed trees
        assert np.array_equal(
            forest.predict_proba(X), forest_predict_proba_scalar(forest, X)
        )
