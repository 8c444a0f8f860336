"""Unit tests for middleware decision events (``trace.<kind>`` on the hub)."""

from repro.core.bounds import Bounds
from repro.core.manager import DyconitSystem
from repro.core.policy import Policy
from repro.telemetry.hub import Telemetry
from repro.world.events import EntityMoveEvent
from repro.world.geometry import Vec3

from tests.conftest import RecordingSubscriber


class P(Policy):
    def initial_bounds(self, system, dyconit_id, subscriber):
        return Bounds(0.5, 1e9)


def move(entity_id=1, time=0.0):
    return EntityMoveEvent(time, entity_id, Vec3(0, 0, 0), Vec3(1, 0, 0))


def make_traced_system():
    return DyconitSystem(P(), time_source=lambda: 0.0, telemetry=Telemetry(enabled=True))


def decisions(system, kind):
    return [
        dict(event.fields)
        for event in system.telemetry.events
        if event.kind == "trace." + kind
    ]


def test_flush_is_traced_with_reason():
    system = make_traced_system()
    rec = RecordingSubscriber()
    system.subscribe(("chunk", 0, 0), rec.subscriber)
    system.commit(move())
    flushes = decisions(system, "flush")
    assert len(flushes) == 1
    assert "reason=numerical" in flushes[0]["detail"]
    assert flushes[0]["subscriber"] == str(rec.subscriber.subscriber_id)
    assert flushes[0]["dyconit"] == repr(("chunk", 0, 0))


def test_bounds_change_is_traced():
    system = make_traced_system()
    rec = RecordingSubscriber()
    system.subscribe(("chunk", 0, 0), rec.subscriber)
    system.set_bounds(("chunk", 0, 0), rec.subscriber.subscriber_id, Bounds(9.0, 90.0))
    events = decisions(system, "bounds")
    assert len(events) == 1
    assert "numerical=9" in events[0]["detail"]


def test_merge_and_split_are_traced():
    system = make_traced_system()
    system.merge_dyconits([("chunk", 0, 0), ("chunk", 1, 0)], ("region", 4, 0, 0))
    system.split_dyconit(("region", 4, 0, 0))
    counters = system.telemetry.snapshot()
    assert counters["trace_events_total{kind=merge}"] == 2
    assert counters["trace_events_total{kind=split}"] == 2
    assert [e["detail"] for e in decisions(system, "merge")] == [
        "into ('region', 4, 0, 0)"
    ] * 2


def test_untraced_system_pays_nothing():
    system = DyconitSystem(P(), time_source=lambda: 0.0)
    rec = RecordingSubscriber()
    system.subscribe(("chunk", 0, 0), rec.subscriber)
    system.commit(move())  # default hub is disabled; must not raise
    assert system.stats.flushes == 1
    assert system.telemetry.events == []
    assert not hasattr(system, "tracer")
