"""Trace recording."""

import numpy as np
import pytest

from repro.errors import AnalysisError, ConfigurationError
from repro.sim.trace import PhaseSpan, Trace


@pytest.fixture
def trace() -> Trace:
    t = Trace(["temp", "freq"])
    for i in range(10):
        t.record(float(i), temp=30.0 + i, freq=2265.0 - 10 * i)
    return t


class TestRecording:
    def test_length(self, trace):
        assert len(trace) == 10

    def test_columns(self, trace):
        assert trace.column("temp")[0] == 30.0
        assert trace.column("freq")[-1] == 2175.0

    def test_time_column(self, trace):
        assert trace.column("time")[3] == 3.0
        assert np.array_equal(trace.times(), trace.column("time"))

    def test_missing_channel_on_record_rejected(self):
        t = Trace(["temp"])
        with pytest.raises(ConfigurationError):
            t.record(0.0)

    def test_extra_channel_on_record_rejected(self):
        t = Trace(["temp"])
        with pytest.raises(ConfigurationError):
            t.record(0.0, temp=1.0, other=2.0)

    def test_out_of_order_rejected(self):
        t = Trace(["temp"])
        t.record(1.0, temp=1.0)
        with pytest.raises(ConfigurationError):
            t.record(0.5, temp=1.0)

    def test_append_positional(self):
        t = Trace(["a", "b"])
        t.append(0.5, (1.0, 2.0))
        assert t.column("a")[0] == 1.0
        assert t.column("b")[0] == 2.0

    def test_same_stamp_overwrites(self):
        # A fast-forward macro window stamps a sample at its end time; the
        # next decimated step can land on the same clock reading.  The
        # fresher state must supersede the row, never duplicate the stamp.
        t = Trace(["temp"])
        t.record(1.0, temp=30.0)
        t.record(1.5, temp=31.0)
        t.record(1.5, temp=32.0)
        assert len(t) == 2
        assert t.times()[-1] == 1.5
        assert t.column("temp")[-1] == 32.0
        assert np.all(np.diff(t.times()) > 0)

    def test_same_stamp_overwrite_refreshes_views(self):
        t = Trace(["temp"])
        t.record(1.0, temp=30.0)
        t.column("temp")  # populate the view cache
        t.record(1.0, temp=40.0)
        assert t.column("temp")[-1] == 40.0
        assert len(t) == 1

    def test_growth_beyond_initial_capacity(self):
        t = Trace(["temp"])
        for i in range(2000):
            t.record(float(i), temp=float(i))
        assert len(t) == 2000
        assert t.column("temp")[-1] == 1999.0
        assert t.times()[0] == 0.0

    def test_views_refresh_after_append(self, trace):
        before = trace.column("temp")
        trace.record(10.0, temp=99.0, freq=2165.0)
        after = trace.column("temp")
        assert len(before) == 10
        assert len(after) == 11
        assert after[-1] == 99.0

    def test_views_read_only(self, trace):
        with pytest.raises((ValueError, TypeError)):
            trace.column("temp")[0] = 0.0

    def test_unknown_column_rejected(self, trace):
        with pytest.raises(AnalysisError):
            trace.column("power")

    def test_duplicate_channels_rejected(self):
        with pytest.raises(ConfigurationError):
            Trace(["a", "a"])

    def test_time_channel_reserved(self):
        with pytest.raises(ConfigurationError):
            Trace(["time", "x"])


class TestPhases:
    def test_phase_annotation(self):
        t = Trace(["temp"])
        t.begin_phase("warmup", 0.0)
        t.record(0.0, temp=30.0)
        t.begin_phase("workload", 5.0)  # implicitly closes warmup
        t.record(5.0, temp=50.0)
        t.end_phase(10.0)
        assert [p.name for p in t.phases] == ["warmup", "workload"]
        assert t.phase("warmup").duration_s == 5.0

    def test_phase_occurrences(self):
        t = Trace(["temp"])
        for i in range(3):
            t.begin_phase("workload", i * 10.0)
            t.end_phase(i * 10.0 + 5.0)
        assert t.phase("workload", occurrence=2).start_s == 20.0

    def test_missing_phase_raises(self, trace):
        with pytest.raises(AnalysisError):
            trace.phase("workload")

    def test_end_without_open_raises(self):
        with pytest.raises(AnalysisError):
            Trace(["temp"]).end_phase(1.0)

    def test_phase_column(self):
        t = Trace(["temp"])
        t.begin_phase("workload", 2.0)
        for i in range(10):
            t.record(float(i), temp=float(i))
        t.end_phase(6.0)
        samples = t.phase_column("workload", "temp")
        assert list(samples) == [2.0, 3.0, 4.0, 5.0]

    def test_span_contains(self):
        span = PhaseSpan("x", 1.0, 2.0)
        assert span.contains(1.0)
        assert not span.contains(2.0)

    def test_inverted_span_rejected(self):
        with pytest.raises(ConfigurationError):
            PhaseSpan("x", 2.0, 1.0)


class TestSummaries:
    def test_max(self, trace):
        assert trace.max("temp") == 39.0

    def test_empty_trace_summaries_raise(self):
        t = Trace(["temp"])
        with pytest.raises(AnalysisError):
            t.max("temp")

    def test_window(self, trace):
        values = trace.window(2.0, 5.0, "temp")
        assert list(values) == [32.0, 33.0, 34.0]


class TestTransportSurface:
    """The attach/pickle API zero-copy result transport is built on."""

    def test_from_samples_adopts_block_without_copy(self):
        base = Trace(["a"])
        base.append(0.0, [1.0])
        base.append(1.0, [2.0])
        block = np.ascontiguousarray(base.samples())
        adopted = Trace.from_samples(("a",), block)
        assert len(adopted) == 2
        assert np.shares_memory(adopted.samples(), block)
        assert list(adopted.column("a")) == [1.0, 2.0]

    def test_append_after_adoption_grows_onto_heap_and_drops_owner(self):
        class Owner:
            pass

        owner = Owner()
        block = np.array([[0.0, 1.0], [1.0, 2.0]])
        adopted = Trace.from_samples(("a",), block, owner=owner)
        assert adopted._owner is owner
        # The adopted block is at capacity, so the first append copies the
        # samples onto the heap — the foreign buffer can be unmapped.
        adopted.append(2.0, [3.0])
        assert adopted._owner is None
        assert not np.shares_memory(adopted.samples(), block)
        assert len(adopted) == 3

    def test_pickle_ships_live_rows_only(self):
        import pickle

        t = Trace(["a", "b"], capacity=64)
        t.begin_phase("warm", 0.0)
        t.append(0.0, [1.0, 2.0])
        t.append(0.5, [3.0, 4.0])
        t.end_phase(0.5)
        t.begin_phase("load", 0.5)
        clone = pickle.loads(pickle.dumps(t))
        assert clone.channels == t.channels
        assert np.array_equal(clone.samples(), t.samples())
        assert clone.phases == t.phases
        assert clone.open_phase == t.open_phase
        # Capacity slack never travels: the clone's buffer is exactly its
        # live rows.
        assert clone._buffer.shape[0] == len(clone)

    def test_empty_trace_round_trips_and_stays_appendable(self):
        import pickle

        clone = pickle.loads(pickle.dumps(Trace(["a"])))
        assert len(clone) == 0
        clone.append(0.0, [1.0])
        clone.append(1.0, [2.0])
        assert len(clone) == 2

    def test_from_samples_rejects_mismatched_block(self):
        with pytest.raises(ConfigurationError):
            Trace.from_samples(("a",), np.zeros((3, 3)))
        with pytest.raises(ConfigurationError):
            Trace.from_samples(("a",), np.zeros(4))
