"""Event logging."""

from repro.sim.events import Event, EventLog


class TestEvent:
    def test_detail_lookup(self):
        event = Event(time_s=1.0, kind="phase", detail=(("name", "warmup"),))
        assert event.get("name") == "warmup"

    def test_detail_default(self):
        event = Event(time_s=1.0, kind="phase")
        assert event.get("missing", 42) == 42

    def test_get_falls_back_to_none(self):
        event = Event(time_s=1.0, kind="phase", detail=(("name", "warmup"),))
        assert event.get("missing") is None


class TestEventLog:
    def test_log_and_iterate(self):
        log = EventLog()
        log.log(0.0, "phase", name="warmup")
        log.log(180.0, "phase", name="cooldown")
        assert len(log) == 2
        assert [e.kind for e in log] == ["phase", "phase"]

    def test_count(self):
        log = EventLog()
        log.log(0.0, "core-offline", online=3)
        assert log.count("core-offline") == 1
        assert log.count("core-online") == 0

    def test_detail_round_trip(self):
        log = EventLog()
        event = log.log(3.0, "core-offline", online=3, cluster="krait")
        assert event.get("online") == 3
        assert event.get("cluster") == "krait"
