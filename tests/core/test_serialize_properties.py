"""Property tests: serialization round-trips for arbitrary results.

Result generators live in :mod:`repro.check.strategies`, shared with the
crowd property tests and the check-harness suite.
"""

import json

from hypothesis import given, settings

from repro.check.strategies import experiments
from repro.core.serialize import experiment_from_dict, experiment_to_dict


def through_json(experiment):
    return experiment_from_dict(json.loads(json.dumps(experiment_to_dict(experiment))))


class TestRoundTripProperties:
    @settings(max_examples=40, deadline=None)
    @given(experiments())
    def test_dict_round_trip_exact(self, experiment):
        assert experiment_from_dict(experiment_to_dict(experiment)) == experiment

    @settings(max_examples=40, deadline=None)
    @given(experiments())
    def test_json_round_trip_exact(self, experiment):
        assert through_json(experiment) == experiment

    @settings(max_examples=20, deadline=None)
    @given(experiments())
    def test_derived_metrics_survive(self, experiment):
        restored = through_json(experiment)
        assert restored.serials == experiment.serials
        if len(experiment.devices) >= 2:
            assert (
                restored.performance_variation == experiment.performance_variation
            )
            assert restored.energy_variation == experiment.energy_variation
