"""Tests for the framework configuration."""

import math

import pytest

from repro.core.config import DEFAULT_FEATURE_SET, MCBoundConfig


class TestDefaults:
    def test_fugaku_ceilings(self):
        cfg = MCBoundConfig()
        assert cfg.peak_gflops_node == 3380.0
        assert cfg.peak_membw_gbs == 1024.0

    def test_paper_schedule_defaults(self):
        cfg = MCBoundConfig()
        assert cfg.alpha_days == 15.0  # RF's best (§V-C.d)
        assert cfg.beta_days == 1.0

    def test_embedding_dim_matches_sbert(self):
        assert MCBoundConfig().embedding_dim == 384


class TestValidation:
    def test_negative_ceiling(self):
        with pytest.raises(ValueError):
            MCBoundConfig(peak_gflops_node=-1.0)

    def test_empty_features(self):
        with pytest.raises(ValueError):
            MCBoundConfig(feature_set=())

    def test_bad_alpha_beta(self):
        with pytest.raises(ValueError):
            MCBoundConfig(alpha_days=0)
        with pytest.raises(ValueError):
            MCBoundConfig(beta_days=-1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("alpha_days", math.inf),
            ("alpha_days", math.nan),
            ("beta_days", math.nan),
            ("beta_days", math.inf),
            ("peak_gflops_node", math.nan),
            ("peak_membw_gbs", math.inf),
        ],
    )
    def test_a_float_that_is_not_finite_is_refused(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            MCBoundConfig(**{field: value})

    def test_alpha_whose_window_overflows_in_seconds_is_refused(self):
        # finite in days, but 1e308 * 86,400 seconds is inf, so every
        # training window would start at -inf
        with pytest.raises(ValueError, match="alpha_days"):
            MCBoundConfig(alpha_days=1e308)

    def test_a_huge_alpha_with_a_finite_window_length_constructs(self):
        assert MCBoundConfig(alpha_days=1e303).alpha_days == 1e303


class TestSerialization:
    def test_to_dict_json_friendly(self):
        import json

        cfg = MCBoundConfig(model_params={"n_estimators": 5})
        d = cfg.to_dict()
        json.dumps(d)  # must not raise
        assert d["feature_set"] == list(DEFAULT_FEATURE_SET)
        assert d["model_params"]["n_estimators"] == 5
