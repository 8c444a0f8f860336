"""Outside-in layer tracing for the traced run.

:class:`LayerTracer` wraps the public entry points of each ``repro.*``
layer from the benchmark's side (the program itself is not modified)
and accumulates, per layer, the number of calls and the *self* time:
a call's duration minus the part of it spent in other wrapped calls.
Whatever no wrapper covers is left to the simulation loop, so
``sim.self`` = window − Σ layer self.

Shard layers of the parallel cluster run in forked worker processes,
which inherit the wrappers but not a way back. There the tracer only
times the cluster runner's parent side; :func:`worker_phase_totals`
instead routes the engine's own ``tick.*`` spans into a hub histogram
that the runner already folds into the parent at ``finalize()``.
"""

from __future__ import annotations

import contextlib
import functools
import types
from time import perf_counter

from repro.backends.sqlite_store import (
    SQLiteDyconitState,
    SQLiteStateStore,
    SQLiteSubscriptionView,
)
from repro.bots.bot import BotClient
from repro.cluster import ParallelShardRunner
from repro.core.manager import DyconitSystem
from repro.net.transport import Transport
from repro.server.codec import SessionCodec
from repro.server.engine import GameServer
from repro.server.interest import InterestManager
from repro.sim.simulator import Simulation
from repro.telemetry.hub import Telemetry
from repro.world.world import World


def _public(cls) -> tuple[str, ...]:
    """Every public method and property a class defines itself."""
    return tuple(
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and isinstance(value, (types.FunctionType, property))
    )


#: (layer, class, attribute names). The layer names are the metric
#: prefixes; a class may appear under several layers.
LAYERS: tuple[tuple[str, type, tuple[str, ...]], ...] = (
    ("core.flush", DyconitSystem, ("tick",)),
    ("core.commit", DyconitSystem, ("commit", "commit_to", "commit_many")),
    ("core.policy", DyconitSystem, ("evaluate_policy",)),
    ("core.notify", DyconitSystem, ("notify_subscriber_moved",)),
    (
        "core.other",
        DyconitSystem,
        (
            "register_subscriber",
            "remove_subscriber",
            "subscribe",
            "unsubscribe",
            "set_bounds",
            "flush",
            "flush_subscriber",
            "merge_dyconits",
            "split_dyconit",
        ),
    ),
    # The memory store hands out core Dyconit objects, so only the
    # row-level stores form a layer of their own.
    ("backends.store", SQLiteStateStore, _public(SQLiteStateStore)),
    ("backends.store", SQLiteDyconitState, _public(SQLiteDyconitState)),
    ("backends.store", SQLiteSubscriptionView, _public(SQLiteSubscriptionView)),
    ("server.codec", SessionCodec, ("encode", "encode_entity_snapshot")),
    (
        "server.interest",
        InterestManager,
        ("refresh", "on_entity_crossed", "sync_on_join", "on_leave"),
    ),
    ("server.tick", GameServer, ("tick_once",)),
    ("world", World, ("move_entity", "set_block", "spawn_entity", "despawn_entity")),
    ("net.send", Transport, ("send",)),
    ("bots", BotClient, ("act", "on_packet")),
    ("sim.schedule", Simulation, ("schedule", "schedule_at")),
    # The parallel runner's sim-scheduled tick and pump barriers: their
    # self time is the parent blocked on worker pipes plus (un)pickling.
    ("cluster.parent", ParallelShardRunner, ("_shard_tick", "_pump")),
)

#: Engine spans folded back from shard workers, in tick-loop order.
WORKER_PHASES = ("input", "interest", "flush", "serialize", "keepalive", "policy")
WORKER_PHASE_HISTOGRAM = "perfbench_worker_phase_ms"


class LayerTracer:
    """Per-layer self time (ms) and call counts, reset per measurement."""

    def __init__(self) -> None:
        self.self_ms: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        #: Updates handed to ``SessionCodec.encode`` (its second argument).
        self.encoded_events = 0
        self._stack: list[float] = []

    def reset(self) -> None:
        for layer in self.self_ms:
            self.self_ms[layer] = 0.0
            self.calls[layer] = 0
        self.encoded_events = 0

    def _count_encoded(self, encode):
        @functools.wraps(encode)
        def counted(codec, session, updates):
            self.encoded_events += len(updates)
            return encode(codec, session, updates)

        return counted

    def _wrap(self, layer: str, fn):
        self_ms = self.self_ms
        calls = self.calls
        stack = self._stack
        self_ms.setdefault(layer, 0.0)
        calls.setdefault(layer, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_ms[layer] += (elapsed - stack.pop()) * 1e3
                calls[layer] += 1
                if stack:
                    stack[-1] += elapsed

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every LAYERS entry point; restore the originals on exit."""
        originals: list[tuple[type, str, object]] = []
        try:
            for layer, cls, names in LAYERS:
                for name in names:
                    original = vars(cls)[name]
                    if isinstance(original, property):
                        wrapped = property(
                            *(
                                None if accessor is None else self._wrap(layer, accessor)
                                for accessor in (original.fget, original.fset, original.fdel)
                            ),
                            original.__doc__,
                        )
                    elif cls is SessionCodec and name == "encode":
                        wrapped = self._wrap(layer, self._count_encoded(original))
                    else:
                        wrapped = self._wrap(layer, original)
                    originals.append((cls, name, original))
                    setattr(cls, name, wrapped)
            yield self
        finally:
            for cls, name, original in reversed(originals):
                setattr(cls, name, original)


@contextlib.contextmanager
def worker_phase_totals(start_ms: float, end_ms: float):
    """Record every ``tick.<phase>`` span started at a simulated time
    in (start_ms, end_ms] into the hub histogram WORKER_PHASE_HISTOGRAM.

    Forked shard workers inherit the patch; the runner's ``finalize()``
    folds their histograms into the parent hub, whose totals are then
    the measured window's per-phase wall ms summed over shards.
    """
    original = Telemetry._finish_span

    def finish_span(hub, span, duration_ms):
        original(hub, span, duration_ms)
        if span.name.startswith("tick.") and start_ms < span.sim_time <= end_ms:
            hub.histogram(WORKER_PHASE_HISTOGRAM, phase=span.name[5:]).record(duration_ms)

    Telemetry._finish_span = finish_span
    try:
        yield
    finally:
        Telemetry._finish_span = original
