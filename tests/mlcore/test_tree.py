"""Tests for the CART decision tree (both splitters)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mlcore.base import NotFittedError
from repro.mlcore.tree import DecisionTreeClassifier, _resolve_max_features


def simple_data(n=400, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 6))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
    return X, y


@pytest.fixture(params=["exact", "hist"])
def splitter(request):
    return request.param


class TestFitPredict:
    def test_learns_separable_data(self, splitter):
        X, y = simple_data()
        t = DecisionTreeClassifier(splitter=splitter, random_state=0).fit(X, y)
        assert t.score(X, y) > 0.98

    def test_generalizes(self, splitter):
        X, y = simple_data()
        Xt, yt = simple_data(seed=1)
        t = DecisionTreeClassifier(splitter=splitter, max_depth=8, random_state=0).fit(X, y)
        assert t.score(Xt, yt) > 0.85

    def test_single_feature_axis_split(self, splitter):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        t = DecisionTreeClassifier(splitter=splitter).fit(X, y)
        assert np.array_equal(t.predict(X), y)
        assert t.get_depth() == 1

    def test_pure_node_stops(self, splitter):
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        t = DecisionTreeClassifier(splitter=splitter).fit(X, y)
        assert t.get_n_leaves() == 2

    def test_constant_features_become_single_leaf(self, splitter):
        X = np.ones((20, 3))
        y = np.array([0, 1] * 10)
        t = DecisionTreeClassifier(splitter=splitter).fit(X, y)
        assert t.get_n_leaves() == 1
        # predicts the majority (tie -> class 0 by argmax convention)
        assert set(t.predict(X)) == {0}

    def test_multiclass(self, splitter):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(300, 4))
        y = np.digitize(X[:, 0], [-0.5, 0.5])
        t = DecisionTreeClassifier(splitter=splitter, random_state=0).fit(X, y)
        assert t.score(X, y) > 0.95
        assert set(t.classes_) == {0, 1, 2}

    def test_string_class_labels(self, splitter):
        X, y = simple_data(100)
        names = np.array(["mem", "comp"])[y]
        t = DecisionTreeClassifier(splitter=splitter).fit(X, names)
        assert set(t.predict(X)) <= {"mem", "comp"}


class TestHyperparameters:
    def test_max_depth_respected(self, splitter):
        X, y = simple_data()
        t = DecisionTreeClassifier(splitter=splitter, max_depth=3, random_state=0).fit(X, y)
        assert t.get_depth() <= 3

    def test_min_samples_leaf(self, splitter):
        X, y = simple_data()
        t = DecisionTreeClassifier(splitter=splitter, min_samples_leaf=30, random_state=0).fit(X, y)
        leaf_sizes = t.value_[t.feature_ == -1].sum(axis=1)
        assert leaf_sizes.min() >= 30

    def test_min_samples_split(self, splitter):
        X, y = simple_data()
        t = DecisionTreeClassifier(splitter=splitter, min_samples_split=200, random_state=0).fit(X, y)
        internal = t.value_[t.feature_ >= 0].sum(axis=1)
        if internal.size:
            assert internal.min() >= 200

    def test_entropy_criterion_works(self, splitter):
        X, y = simple_data()
        t = DecisionTreeClassifier(splitter=splitter, criterion="entropy", random_state=0).fit(X, y)
        assert t.score(X, y) > 0.95

    def test_max_features_subsampling_changes_tree(self):
        X, y = simple_data()
        t1 = DecisionTreeClassifier(max_features=1, random_state=1).fit(X, y)
        t2 = DecisionTreeClassifier(max_features=None, random_state=1).fit(X, y)
        assert t1.n_nodes != t2.n_nodes or not np.array_equal(t1.feature_, t2.feature_)

    @pytest.mark.parametrize(
        "mf,expected", [(None, 10), ("sqrt", 3), ("log2", 3), (5, 5), (0.5, 5)]
    )
    def test_resolve_max_features(self, mf, expected):
        assert _resolve_max_features(mf, 10) == expected

    @pytest.mark.parametrize("mf", [0, 11, -1, 1.5, "bogus"])
    def test_resolve_max_features_invalid(self, mf):
        with pytest.raises(ValueError):
            _resolve_max_features(mf, 10)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"criterion": "mse"},
            {"splitter": "best"},
            {"min_samples_split": 1},
            {"min_samples_leaf": 0},
            {"max_depth": 0},
        ],
    )
    def test_constructor_validation(self, kwargs):
        with pytest.raises(ValueError):
            DecisionTreeClassifier(**kwargs)


class TestSampleIndices:
    def test_bootstrap_subset_used(self, splitter):
        X, y = simple_data(200)
        idx = np.arange(50)  # only class mix of the first 50 rows
        t = DecisionTreeClassifier(splitter=splitter, random_state=0).fit(
            X, y, sample_indices=idx
        )
        assert t.value_[0].sum() == 50  # root holds only the selected rows

    def test_repeated_indices_weight_samples(self, splitter):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0, 0, 1])
        idx = np.array([2, 2, 2, 2, 0])
        t = DecisionTreeClassifier(splitter=splitter).fit(X, y, sample_indices=idx)
        assert t.value_[0].sum() == 5

    def test_out_of_range_rejected(self):
        X, y = simple_data(10)
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(X, y, sample_indices=np.array([99]))

    def test_empty_rejected(self):
        X, y = simple_data(10)
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(X, y, sample_indices=np.array([], dtype=int))


class TestPrediction:
    def test_predict_proba_rows_sum_to_one(self, splitter):
        X, y = simple_data()
        t = DecisionTreeClassifier(splitter=splitter, max_depth=4, random_state=0).fit(X, y)
        proba = t.predict_proba(X[:50])
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert proba.min() >= 0

    def test_not_fitted_raises(self):
        with pytest.raises(NotFittedError):
            DecisionTreeClassifier().predict(np.zeros((1, 2)))

    def test_wrong_width_rejected(self):
        X, y = simple_data()
        t = DecisionTreeClassifier().fit(X, y)
        with pytest.raises(ValueError):
            t.predict(np.zeros((3, 99)))

    def test_apply_returns_leaves(self, splitter):
        X, y = simple_data()
        t = DecisionTreeClassifier(splitter=splitter, max_depth=4, random_state=0).fit(X, y)
        leaves = t.apply(X[:20])
        assert np.all(t.feature_[leaves] == -1)


class TestInvariants:
    def test_feature_importances_normalized(self, splitter):
        X, y = simple_data()
        t = DecisionTreeClassifier(splitter=splitter, random_state=0).fit(X, y)
        imp = t.feature_importances_
        assert imp.shape == (6,)
        assert imp.min() >= 0
        assert imp.sum() == pytest.approx(1.0)

    def test_informative_features_dominate(self, splitter):
        X, y = simple_data(2000)
        t = DecisionTreeClassifier(splitter=splitter, max_depth=6, random_state=0).fit(X, y)
        imp = t.feature_importances_
        assert imp[0] + imp[1] > 0.8

    def test_node_arrays_consistent(self, splitter):
        X, y = simple_data()
        t = DecisionTreeClassifier(splitter=splitter, max_depth=6, random_state=0).fit(X, y)
        internal = t.feature_ >= 0
        # children of internal nodes are valid node ids
        assert np.all(t.children_left_[internal] > 0)
        assert np.all(t.children_right_[internal] > 0)
        # children counts sum to the parent's
        for node in np.flatnonzero(internal):
            l, r = t.children_left_[node], t.children_right_[node]
            assert np.allclose(t.value_[node], t.value_[l] + t.value_[r])

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_deterministic_given_seed(self, seed):
        X, y = simple_data(150)
        a = DecisionTreeClassifier(max_features=2, random_state=seed).fit(X, y)
        b = DecisionTreeClassifier(max_features=2, random_state=seed).fit(X, y)
        assert np.array_equal(a.feature_, b.feature_)
        assert np.array_equal(a.threshold_, b.threshold_, equal_nan=True)

    @pytest.mark.parametrize("minority, majority", [(1, 4), (1, 6)])
    def test_split_that_only_gains_rounding_stays_a_leaf(self, splitter, minority, majority):
        # both values of x hold the parent's class mix, so no split gains
        # anything; the computed gain is a rounding residue of ~1e-16,
        # below zero for 1:4 and above it for 1:6
        half = [0] * minority + [1] * majority
        X = np.repeat([0.0, 1.0], len(half))[:, None]
        t = DecisionTreeClassifier(splitter=splitter).fit(X, np.array(half + half))
        assert t.feature_.tolist() == [-1]

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.zeros((5, 2)), np.zeros(5))

    def test_nan_rejected(self):
        X, y = simple_data(20)
        X[0, 0] = np.nan
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(X, y)


class TestPersistence:
    def test_state_roundtrip_preserves_predictions(self, splitter):
        X, y = simple_data()
        t = DecisionTreeClassifier(splitter=splitter, max_depth=8, random_state=0).fit(X, y)
        t2 = DecisionTreeClassifier.from_state(t.get_state())
        assert np.array_equal(t.predict(X), t2.predict(X))
        assert np.allclose(t.predict_proba(X), t2.predict_proba(X))

    def test_unfitted_state_rejected(self):
        with pytest.raises(NotFittedError):
            DecisionTreeClassifier().get_state()
