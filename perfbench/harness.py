"""Run a workload, time every simulated tick window from outside, check
the outputs and turn the repeats into metrics.

A repeat sets a rig up (build, join and warm-up: timed as set-up),
times every ``sim.run_until(t + 50)`` window, runs the host-speed probe
after each window (see ``hostspeed``) and checks its outputs outside
the timed windows: a final invariant audit (I1–I9), every bot
still connected, no window raised. Set-ups of one fleet seed must reach
the same simulated-output fingerprint, and a traced repeat's must equal
its untraced twin's. A failed check fails every window of the run.
"""

from __future__ import annotations

import contextlib
import gc
import multiprocessing
import random
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

from repro.telemetry.hub import Telemetry

from perfbench.hostspeed import HostProbe, normalised, scaled
from perfbench.tracing import (
    WORKER_PHASE_HISTOGRAM,
    WORKER_PHASES,
    LayerTracer,
    worker_phase_totals,
)
from perfbench.workloads import REPEATS, WINDOW_MS, BenchWorkload, Rig

#: (name, unit) of every end-to-end metric, printed by an untraced run.
#: ``ref_`` units are host-speed normalised: wall time on the reference
#: host's scale (see ``hostspeed``).
END_TO_END = (
    ("tick_ms_p50", "ref_ms"),
    ("tick_ms_p90", "ref_ms"),
    ("sim_speed", "sim_s/ref_s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_bytes_per_player_s", "B/s"),
    ("sim_staleness_mean_ms", "ms"),
    ("sim_pos_error_mean", "blocks"),
)

#: (name, unit) of every per-layer metric, printed by a traced run.
#: "per tick" is per measured 50 ms window.
PER_LAYER = (
    ("core.flush.ms_per_tick", "ms"),
    ("core.flush.ms_p90", "ms"),
    ("core.commit.ms_per_tick", "ms"),
    ("core.commits_per_tick", "1/tick"),
    ("core.enqueued_per_tick", "1/tick"),
    ("core.policy.ms_per_tick", "ms"),
    ("core.policy.ms_p90", "ms"),
    ("core.notify.ms_per_tick", "ms"),
    ("core.other.ms_per_tick", "ms"),
    ("core.delivered_per_tick", "1/tick"),
    ("core.updates_per_flush", "ratio"),
    ("core.merge_ratio", "ratio"),
    ("core.share_pct", "%"),
    ("backends.store.ms_per_tick", "ms"),
    ("backends.store.calls_per_tick", "1/tick"),
    ("server.codec.ms_per_tick", "ms"),
    ("server.codec.calls_per_tick", "1/tick"),
    ("server.codec.events_per_call", "ratio"),
    ("server.interest.ms_per_tick", "ms"),
    ("server.interest.calls_per_tick", "1/tick"),
    ("server.tick.self_ms_per_tick", "ms"),
    ("world.ms_per_tick", "ms"),
    ("net.send.ms_per_tick", "ms"),
    ("net.packets_per_tick", "1/tick"),
    ("net.bytes_per_tick", "B/tick"),
    ("bots.ms_per_tick", "ms"),
    ("bots.packets_applied_per_tick", "1/tick"),
    ("sim.scheduled_per_tick", "1/tick"),
    ("sim.self_ms_per_tick", "ms"),
    ("cluster.bus.messages_per_tick", "1/tick"),
    ("cluster.bus.bytes_per_tick", "B/tick"),
    ("cluster.handoffs", "count"),
    ("cluster.parent_wait_ms_per_tick", "ms"),
    *((f"cluster.worker.{phase}.ms_per_tick", "ms") for phase in WORKER_PHASES),
    ("trace.overhead_pct", "%"),
    ("host.probe_ms", "ms"),
    ("host.tick_wall_ms_p50", "ms"),
)

#: Layers whose per-window self time is kept for a p90.
_P90_LAYERS = ("core.flush", "core.policy")


#: Bots whose view of every other bot is sampled (the first ones of
#: the fleet; sampling all pairs of a 100-bot fleet would outweigh the
#: rest of the harness).
OBSERVERS = 24


@dataclass
class Inconsistency:
    """Running sums of the sampled replica inconsistency."""

    error_sum: float = 0.0
    errors: int = 0
    age_sum: float = 0.0
    ages: int = 0

    def sample(self, rig: Rig) -> None:
        """The observers' view of every other bot, against that bot's own
        client position: the inconsistency one player sees of another,
        end to end (upstream latency, tick, dyconit bounds, downstream
        link). Staleness is the age of the last update of each replica
        that differs from its player's position.

        Server truth would read exactly 0 in direct mode with synchronous
        delivery; client truth is never 0 while bots walk.
        """
        now = rig.sim.now
        truth = {bot.entity_id: bot.position for bot in rig.fleet.bots if bot.connected}
        for bot in rig.fleet.bots[:OBSERVERS]:
            last_update = bot.perceived.entity_last_update
            for entity_id, believed in bot.perceived.entity_positions.items():
                actual = truth.get(entity_id)
                if actual is None or entity_id == bot.entity_id:
                    continue
                error = actual.distance_to(believed)
                self.error_sum += error
                self.errors += 1
                if error > 1e-9:
                    self.age_sum += max(0.0, now - last_update[entity_id])
                    self.ages += 1

    def add(self, other: "Inconsistency") -> None:
        self.error_sum += other.error_sum
        self.errors += other.errors
        self.age_sum += other.age_sum
        self.ages += other.ages


class OutputCheckError(RuntimeError):
    """A repeat's outputs failed a check."""


@dataclass
class Repeat:
    """One set-up and, unless ``windows`` is 0, its measured windows.
    ``error`` set means the repeat failed a check."""

    windows: int
    setup_s: float = 0.0
    window_ms: list[float] = field(default_factory=list)
    #: The host-speed probe taken right after each window.
    probe_ms: list[float] = field(default_factory=list)
    #: Fingerprint at the end of warm-up, and after the measured windows.
    warm_fingerprint: dict | None = None
    fingerprint: dict | None = None
    #: Downstream bytes sent over the measured windows.
    bytes_sent: float = 0.0
    inconsistency: Inconsistency = field(default_factory=Inconsistency)
    worker_rss_mb: float = 0.0
    layers: dict[str, float] = field(default_factory=dict)
    error: str | None = None

    @property
    def ref_ms(self) -> list[float]:
        """The windows' wall times on the reference host's scale."""
        return normalised(self.window_ms, self.probe_ms)


# ----------------------------------------------------------------------
# Reading the rig (never inside a timed window)
# ----------------------------------------------------------------------


def _shards(rig: Rig) -> list:
    return rig.server.shards if rig.parallel else [rig.server]


def _dyconit_stats(rig: Rig) -> dict[str, int]:
    keys = ("commits", "updates_enqueued", "updates_delivered", "updates_merged", "flushes")
    totals = dict.fromkeys(keys, 0)
    for shard in _shards(rig):
        if shard.dyconits is not None:
            for key in keys:
                totals[key] += getattr(shard.dyconits.stats, key)
    return totals


def _counters(rig: Rig) -> dict[str, int]:
    """Cumulative counters the per-layer metrics difference. A parallel
    cluster's transports and dyconit stats live in its workers until
    ``finalize()``, so there they are read once, at the end."""
    counters = {
        "bus_messages": rig.server.bus.total_messages if rig.parallel else 0,
        "bus_bytes": rig.server.bus.total_bytes if rig.parallel else 0,
        "handoffs": rig.server.handoffs if rig.parallel else 0,
        "packets_applied": sum(bot.packets_received for bot in rig.fleet.bots),
    }
    if not rig.parallel:
        counters["packets"] = rig.server.transport.total_packets()
        counters["bytes"] = rig.server.transport.total_bytes()
        counters.update(_dyconit_stats(rig))
    return counters


def _bytes_sent(rig: Rig, start_ms: float, end_ms: float) -> float:
    """Downstream bytes the shards' per-tick ``bytes_total`` series grew
    by over (start_ms, end_ms]."""

    def value_at(series, time_ms: float) -> float:
        value = 0.0
        for time, total in zip(series.times, series.values):
            if time > time_ms:
                break
            value = total
        return value

    grown = 0.0
    for shard in _shards(rig):
        series = shard.metrics.series("bytes_total")
        grown += value_at(series, end_ms) - value_at(series, start_ms)
    return grown


def check_outputs(rig: Rig) -> None:
    """Final invariant audit plus fleet liveness; raises on a failure."""
    rig.server.audit_now()
    disconnected = [bot.name for bot in rig.fleet.bots if not bot.connected]
    if disconnected:
        raise OutputCheckError(f"bots disconnected: {disconnected[:5]}")
    if rig.server.player_count != len(rig.fleet.bots):
        raise OutputCheckError(
            f"server holds {rig.server.player_count} players, fleet has {len(rig.fleet.bots)}"
        )


def fingerprint(rig: Rig) -> dict[str, int]:
    """Simulated outputs that must repeat exactly for one seed. A
    parallel cluster's transports and stats are readable only once it
    is finalized; before that its fingerprint is what the parent sees."""
    fields = {
        "packets_applied": sum(bot.packets_received for bot in rig.fleet.bots),
        "bus_messages": rig.server.bus.total_messages if rig.parallel else 0,
    }
    if not rig.parallel or rig.finalized:
        transports = [shard.transport for shard in _shards(rig)]
        fields["bytes_total"] = sum(t.total_bytes() for t in transports)
        fields["packets_total"] = sum(t.total_packets() for t in transports)
        fields["updates_delivered"] = _dyconit_stats(rig)["updates_delivered"]
    return fields


def _worker_rss_mb() -> float:
    """Summed peak RSS of this process's live children (shard workers)."""
    total_kb = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[-1]


# ----------------------------------------------------------------------
# One repeat
# ----------------------------------------------------------------------


def run_repeat(
    workload: BenchWorkload,
    seed: int,
    windows: int,
    tmp_root: str,
    probe: HostProbe,
    tracer: LayerTracer | None = None,
) -> Repeat:
    repeat = Repeat(windows=windows)
    start_ms = workload.warmup_ms
    end_ms = start_ms + windows * WINDOW_MS
    rig = None
    with contextlib.ExitStack() as stack:
        telemetry = None
        if tracer is not None:
            stack.enter_context(tracer.installed())
            if workload.shards > 1:
                stack.enter_context(worker_phase_totals(start_ms, end_ms))
                telemetry = Telemetry(enabled=True)
        gc.collect()
        try:
            began = perf_counter()
            rig = Rig(workload, seed, tmp_root, telemetry)
            rig.sim.run_until(start_ms)
            repeat.setup_s = perf_counter() - began
            repeat.warm_fingerprint = fingerprint(rig)
            if windows == 0:
                check_outputs(rig)
                repeat.worker_rss_mb = _worker_rss_mb()
                return repeat

            before = _counters(rig)
            per_window: list[dict[str, float]] = []
            # Inconsistency is sampled once per window, at a seeded instant
            # off the tick lattice (on it, direct mode reads the same
            # staleness for every seed), between two timed halves.
            sample_offsets = random.Random(seed)
            if tracer is not None:
                tracer.reset()
            for index in range(windows):
                window_start = start_ms + index * WINDOW_MS
                began = perf_counter()
                rig.sim.run_until(window_start + sample_offsets.uniform(1.0, WINDOW_MS - 1.0))
                elapsed = perf_counter() - began
                repeat.inconsistency.sample(rig)
                began = perf_counter()
                rig.sim.run_until(window_start + WINDOW_MS)
                repeat.window_ms.append((elapsed + perf_counter() - began) * 1e3)
                repeat.probe_ms.append(probe.measure())
                if tracer is not None:
                    per_window.append({layer: tracer.self_ms[layer] for layer in _P90_LAYERS})
            if tracer is not None:
                self_ms, calls = dict(tracer.self_ms), dict(tracer.calls)
                encoded_events = tracer.encoded_events

            check_outputs(rig)
            repeat.worker_rss_mb = _worker_rss_mb()
            rig.finalize()
            repeat.fingerprint = fingerprint(rig)
            repeat.bytes_sent = _bytes_sent(rig, start_ms, end_ms)
            if tracer is not None:
                repeat.layers = _layer_metrics(
                    rig, before, _counters(rig), self_ms, calls, encoded_events,
                    per_window, repeat.window_ms, telemetry,
                )
        except Exception:
            repeat.error = traceback.format_exc()
            print(f"repeat failed:\n{repeat.error}", file=sys.stderr)
        finally:
            if rig is not None:
                rig.close()
    return repeat


def _layer_metrics(
    rig, before, after, self_ms, calls, encoded_events, per_window, window_ms, telemetry
) -> dict[str, float]:
    windows = len(window_ms)
    total_ms = sum(window_ms)

    def per_tick(layer: str) -> float:
        return self_ms.get(layer, 0.0) / windows

    def window_p90(layer: str) -> float:
        cumulative = [0.0] + [snapshot[layer] for snapshot in per_window]
        return _p90([b - a for a, b in zip(cumulative, cumulative[1:])])

    # Worker-side counters of a parallel cluster are whole-repeat totals
    # (read at finalize), so they are spread over the whole repeat's ticks.
    if rig.parallel:
        stats = _dyconit_stats(rig)
        transports = [shard.transport for shard in rig.server.shards]
        stats["packets"] = sum(t.total_packets() for t in transports)
        stats["bytes"] = sum(t.total_bytes() for t in transports)
        ticks = windows + rig.workload.warmup_ms / WINDOW_MS
    else:
        stats = {key: after[key] - before[key] for key in before}
        ticks = windows

    def delta(key: str) -> float:
        return after[key] - before[key]

    core_ms = sum(v for layer, v in self_ms.items() if layer.startswith("core."))
    covered_ms = sum(v for layer, v in self_ms.items() if not layer.startswith("sim."))
    phases = dict.fromkeys(WORKER_PHASES, 0.0)
    if telemetry is not None:
        for (name, labels), histogram in telemetry.histograms().items():
            if name == WORKER_PHASE_HISTOGRAM:
                phases[dict(labels)["phase"]] += histogram.total

    return {
        "core.flush.ms_per_tick": per_tick("core.flush"),
        "core.flush.ms_p90": window_p90("core.flush"),
        "core.commit.ms_per_tick": per_tick("core.commit"),
        "core.commits_per_tick": stats["commits"] / ticks,
        "core.enqueued_per_tick": stats["updates_enqueued"] / ticks,
        "core.policy.ms_per_tick": per_tick("core.policy"),
        "core.policy.ms_p90": window_p90("core.policy"),
        "core.notify.ms_per_tick": per_tick("core.notify"),
        "core.other.ms_per_tick": per_tick("core.other"),
        "core.delivered_per_tick": stats["updates_delivered"] / ticks,
        "core.updates_per_flush": (
            stats["updates_delivered"] / stats["flushes"] if stats["flushes"] else 0.0
        ),
        "core.merge_ratio": (
            stats["updates_merged"] / stats["updates_enqueued"]
            if stats["updates_enqueued"]
            else 0.0
        ),
        "core.share_pct": 100.0 * core_ms / total_ms,
        "backends.store.ms_per_tick": per_tick("backends.store"),
        "backends.store.calls_per_tick": calls.get("backends.store", 0) / windows,
        "server.codec.ms_per_tick": per_tick("server.codec"),
        "server.codec.calls_per_tick": calls.get("server.codec", 0) / windows,
        "server.codec.events_per_call": (
            encoded_events / calls["server.codec"] if calls.get("server.codec") else 0.0
        ),
        "server.interest.ms_per_tick": per_tick("server.interest"),
        "server.interest.calls_per_tick": calls.get("server.interest", 0) / windows,
        "server.tick.self_ms_per_tick": per_tick("server.tick"),
        "world.ms_per_tick": per_tick("world"),
        "net.send.ms_per_tick": per_tick("net.send"),
        "net.packets_per_tick": stats["packets"] / ticks,
        "net.bytes_per_tick": stats["bytes"] / ticks,
        "bots.ms_per_tick": per_tick("bots"),
        "bots.packets_applied_per_tick": delta("packets_applied") / windows,
        "sim.scheduled_per_tick": calls.get("sim.schedule", 0) / windows,
        "sim.self_ms_per_tick": (total_ms - covered_ms) / windows,
        "cluster.bus.messages_per_tick": delta("bus_messages") / windows,
        "cluster.bus.bytes_per_tick": delta("bus_bytes") / windows,
        "cluster.handoffs": delta("handoffs"),
        "cluster.parent_wait_ms_per_tick": per_tick("cluster.parent"),
        **{
            f"cluster.worker.{phase}.ms_per_tick": total / windows
            for phase, total in phases.items()
        },
    }


# ----------------------------------------------------------------------
# A whole run
# ----------------------------------------------------------------------


def fleet_seed(seed: int, realization: int) -> int:
    """The fleet seed of one of a run's REPEATS realizations."""
    return seed * REPEATS + realization


def _mismatches(repeats: list[Repeat], key: str) -> list[str]:
    reference = getattr(repeats[0], key)
    return [
        f"{key} {getattr(repeat, key)} != {reference}"
        for repeat in repeats[1:]
        if getattr(repeat, key) != reference
    ]


def run_workload(
    workload: BenchWorkload,
    seed: int,
    seconds: float,
    trace: bool,
    tmp_root: str,
    probe: HostProbe | None = None,
) -> dict:
    """Run one workload and return the result object the CLI prints.

    Untraced: REPEATS realizations, fleets generated from
    ``fleet_seed(seed, r)``, each set up and measured for
    ``workload.windows(seconds)`` windows; the metrics pool them, which
    averages out how one fleet happens to crowd. A duplicate set-up of
    realization 0 must reach its fingerprint. Traced: realization 0
    untraced, then traced; their fingerprints must be equal. ``probe``
    is built here unless given.
    """
    windows = workload.windows(seconds)
    first = fleet_seed(seed, 0)
    probe = probe or HostProbe()
    if trace:
        measured = [
            run_repeat(workload, first, windows, tmp_root, probe),
            run_repeat(workload, first, windows, tmp_root, probe, LayerTracer()),
        ]
        repeats = twins = measured
    else:
        duplicate = run_repeat(workload, first, 0, tmp_root, probe)
        measured = [
            run_repeat(workload, fleet_seed(seed, r), windows, tmp_root, probe)
            for r in range(REPEATS)
        ]
        repeats = measured + [duplicate]
        twins = [measured[0], duplicate]

    errors = [repeat.error for repeat in repeats if repeat.error is not None]
    if not errors:
        errors = _mismatches(twins, "warm_fingerprint")
        if trace:
            errors += _mismatches(twins, "fingerprint")
    for error in errors:
        print(f"run failed: {error}", file=sys.stderr)
    attempted = sum(repeat.windows for repeat in measured)
    failed = attempted if errors else 0

    metrics: dict[str, dict] = {}
    if not errors:
        if trace:
            plain, traced = measured
            values = dict(traced.layers)
            values["trace.overhead_pct"] = 100.0 * (
                sum(traced.ref_ms) / sum(plain.ref_ms) - 1.0
            )
            values["host.probe_ms"] = statistics.median(plain.probe_ms)
            values["host.tick_wall_ms_p50"] = statistics.median(plain.window_ms)
            names = PER_LAYER
        else:
            pooled = [ms for repeat in measured for ms in repeat.ref_ms]
            probes = [ms for repeat in measured for ms in repeat.probe_ms]
            inconsistency = Inconsistency()
            for repeat in measured:
                inconsistency.add(repeat.inconsistency)
            sim_seconds = len(pooled) * WINDOW_MS / 1000.0
            values = {
                "tick_ms_p50": statistics.median(pooled),
                "tick_ms_p90": _p90(pooled),
                "sim_speed": sim_seconds * 1000.0 / sum(pooled),
                # Set-ups have no probes of their own: the run's probes
                # put their median on the reference host's scale.
                "setup_s": scaled(statistics.median(r.setup_s for r in repeats), probes),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                + max(repeat.worker_rss_mb for repeat in repeats),
                "sim_bytes_per_player_s": sum(repeat.bytes_sent for repeat in measured)
                / workload.bots
                / sim_seconds,
                "sim_staleness_mean_ms": inconsistency.age_sum / max(1, inconsistency.ages),
                "sim_pos_error_mean": inconsistency.error_sum / max(1, inconsistency.errors),
            }
            names = END_TO_END
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "windows_per_repeat": windows,
        "fingerprints": [repeat.fingerprint for repeat in measured],
    }
