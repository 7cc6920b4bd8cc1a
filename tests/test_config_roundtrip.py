"""PlacementConfig JSON round-trip: to_dict/from_dict and hashing.

The config document is the unit of reproducibility: it is embedded in
run manifests and checkpoints and guarded by a content hash, so the
round trip must be lossless, reject typos loudly, and hash identically
after a trip through JSON.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import PlacementConfig
from repro.obs.manifest import config_hash
from repro.technology import TechnologyConfig


class TestRoundTrip:
    def test_default_config_round_trips(self):
        config = PlacementConfig()
        again = PlacementConfig.from_dict(config.to_dict())
        assert again == config

    def test_custom_config_round_trips_through_json(self):
        config = PlacementConfig(alpha_ilv=3e-6, alpha_temp=1e-5,
                                 num_layers=3, seed=42,
                                 legalization_rounds=4,
                                 refine_passes=0,
                                 shift_max_density=1.3)
        text = json.dumps(config.to_dict())
        again = PlacementConfig.from_dict(json.loads(text))
        assert again == config

    def test_tech_survives_as_nested_mapping(self):
        config = PlacementConfig(
            tech=TechnologyConfig(whitespace=0.25))
        document = config.to_dict()
        assert isinstance(document["tech"], dict)
        assert document["tech"]["whitespace"] == 0.25
        again = PlacementConfig.from_dict(document)
        assert again.tech == config.tech

    def test_tech_accepts_config_instance(self):
        tech = TechnologyConfig(whitespace=0.3)
        config = PlacementConfig.from_dict(
            {"alpha_ilv": 1e-5, "tech": tech})
        assert config.tech is tech

    def test_hash_stable_across_round_trip(self):
        config = PlacementConfig(alpha_temp=1e-5, num_layers=3)
        again = PlacementConfig.from_dict(
            json.loads(json.dumps(config.to_dict())))
        assert config_hash(again) == config_hash(config)

    def test_partial_dict_fills_defaults(self):
        config = PlacementConfig.from_dict({"num_layers": 2})
        assert config.num_layers == 2
        assert config.alpha_ilv == PlacementConfig().alpha_ilv


class TestRejection:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError,
                           match="unknown PlacementConfig keys"):
            PlacementConfig.from_dict({"alpha_liv": 1e-5})

    def test_unknown_tech_key_rejected(self):
        with pytest.raises(ValueError,
                           match="unknown TechnologyConfig keys"):
            PlacementConfig.from_dict(
                {"tech": {"whitespce": 0.2}})

    def test_bad_tech_type_rejected(self):
        with pytest.raises(ValueError, match="tech must be"):
            PlacementConfig.from_dict({"tech": 7})

    def test_validators_still_fire_on_loaded_values(self):
        with pytest.raises(ValueError, match="alpha_ilv"):
            PlacementConfig.from_dict({"alpha_ilv": -1.0})


class TestNonFiniteRejected:
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"),
                                       float("nan")])
    @pytest.mark.parametrize("name", ["alpha_ilv", "alpha_temp"])
    def test_objective_coefficients(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            PlacementConfig(**{name: value})

    @pytest.mark.parametrize("name", [
        "thermal_drift_tolerance", "min_partition_tolerance",
        "shift_max_density", "shift_upper_slope", "shift_lower_slope",
        "shift_intercept"])
    def test_other_float_knobs(self, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            PlacementConfig(**{name: float("nan")})

    def test_nan_in_loaded_document(self):
        # JSON readers accept NaN; the config must still refuse it
        doc = json.loads('{"alpha_temp": NaN}')
        with pytest.raises(ValueError, match="alpha_temp must be finite"):
            PlacementConfig.from_dict(doc)
