"""Deterministic random-stream derivation."""

import numpy as np
import pytest

from repro.rng import derive_stream


class TestDeriveStream:
    def test_same_keys_same_sequence(self):
        a = derive_stream(42, "nexus5", "unit-1").random(8)
        b = derive_stream(42, "nexus5", "unit-1").random(8)
        assert np.array_equal(a, b)

    def test_different_keys_differ(self):
        a = derive_stream(42, "nexus5", "unit-1").random(8)
        b = derive_stream(42, "nexus5", "unit-2").random(8)
        assert not np.array_equal(a, b)

    def test_different_root_seed_differs(self):
        a = derive_stream(1, "x").random(8)
        b = derive_stream(2, "x").random(8)
        assert not np.array_equal(a, b)

    def test_int_keys_accepted(self):
        gen = derive_stream(0, 7, "mixed", 13)
        assert 0.0 <= gen.random() < 1.0

    def test_key_order_matters(self):
        a = derive_stream(0, "a", "b").random(4)
        b = derive_stream(0, "b", "a").random(4)
        assert not np.array_equal(a, b)

    def test_bool_key_rejected(self):
        with pytest.raises(TypeError):
            derive_stream(0, True)

    def test_float_key_rejected(self):
        with pytest.raises(TypeError):
            derive_stream(0, 3.14)  # type: ignore[arg-type]

    def test_streams_are_independent_generators(self):
        a = derive_stream(0, "x")
        b = derive_stream(0, "y")
        a.random(1000)
        # Consuming one stream must not disturb the other.
        assert derive_stream(0, "y").random() == b.random()
