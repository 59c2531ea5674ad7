"""Tests for the §V experiment sweeps."""

import pytest

from repro.evaluation.experiments import (
    ModelSpec,
    PAPER_ALPHAS,
    PAPER_BETAS,
    PAPER_THETA_SEEDS,
    alpha_plus_experiment,
    baseline_comparison,
    sweep_alpha_beta,
    sweep_theta,
)
from repro.evaluation.online import OnlineEvaluator


@pytest.fixture(scope="module")
def evaluator(small_trace):
    return OnlineEvaluator(small_trace, test_start_day=40, test_end_day=44)


KNN_SPEC = ModelSpec("KNN", "KNN", {"n_neighbors": 3})
RF_SPEC = ModelSpec("RF", "RF", {"n_estimators": 4, "max_depth": 6, "splitter": "hist", "random_state": 0})


class TestConstants:
    def test_paper_grids(self):
        assert PAPER_ALPHAS == (15, 30, 45, 60)
        assert PAPER_BETAS == (1, 2, 5, 10)

    def test_paper_seeds(self):
        # footnote 11 of the paper
        assert PAPER_THETA_SEEDS == (520, 90, 1905, 7, 22)

    def test_best_alpha_per_model(self):
        assert RF_SPEC.best_alpha == 15
        assert KNN_SPEC.best_alpha == 30


class TestAlphaBetaSweep:
    def test_grid_covered(self, evaluator):
        res = sweep_alpha_beta(evaluator, KNN_SPEC, alphas=(10, 20), betas=(1, 2))
        assert set(res) == {(10, 1), (10, 2), (20, 1), (20, 2)}
        for r in res.values():
            assert r.model_name == "KNN"
            assert 0 <= r.f1 <= 1

    def test_beta_controls_retraining_count(self, evaluator):
        res = sweep_alpha_beta(evaluator, KNN_SPEC, alphas=(15,), betas=(1, 2))
        assert res[(15, 1)].n_retrainings == 4
        assert res[(15, 2)].n_retrainings == 2


class TestAlphaPlus:
    def test_returns_both_modes(self, evaluator):
        res = alpha_plus_experiment(evaluator, KNN_SPEC, alpha_best=20)
        assert set(res) == {"sliding", "plus"}
        assert res["plus"].alpha == ("plus", 20)
        # the growing window trains on at least as much data
        assert max(res["plus"].train_sizes) >= max(res["sliding"].train_sizes)


class TestThetaSweep:
    def test_structure(self, evaluator):
        res = sweep_theta(
            evaluator, KNN_SPEC, thetas=(30,), alpha=20, seeds=(520, 90)
        )
        assert set(res) == {(30, "random"), (30, "latest")}
        rnd = res[(30, "random")]
        assert len(rnd["runs"]) == 2
        assert rnd["f1_std"] >= 0
        assert len(res[(30, "latest")]["runs"]) == 1

    def test_mean_over_seeds(self, evaluator):
        res = sweep_theta(evaluator, KNN_SPEC, thetas=(40,), alpha=20, seeds=(1, 2, 3))
        runs = res[(40, "random")]["runs"]
        mean = sum(r.f1 for r in runs) / 3
        assert res[(40, "random")]["f1_mean"] == pytest.approx(mean)


class TestBaselineComparison:
    def test_structure(self, evaluator):
        res = baseline_comparison(evaluator, RF_SPEC, alpha=20)
        assert res["model"].model_name == "RF"
        assert res["baseline"].model_name == "baseline"
        assert res["baseline"].alpha == 30.0  # paper: baseline uses KNN's best
