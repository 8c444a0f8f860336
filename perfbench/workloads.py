"""The benchmark's workloads and the rigs (server or cluster + bot fleet)
they run on.

Every workload is a fixed load in *simulated* time: bots act every
100 ms of sim time whatever the host speed, so the benchmark measures
how much host time the program needs for a stated fleet, not a
latency-under-rate curve. Bots are generated from the seed; the program
only receives the generated :class:`WorkloadSpec`.
"""

from __future__ import annotations

import functools
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field

from repro.bots.workload import BUILDER_MIX, BehaviorMix, Workload, WorkloadSpec
from repro.cluster import ParallelShardRunner
from repro.core.partition import ChunkPartitioner
from repro.experiments.configs import make_policy
from repro.server.config import ServerConfig
from repro.server.engine import GameServer
from repro.sim.simulator import Simulation
from repro.telemetry.hub import Telemetry
from repro.world.world import World

#: The world map and the server's own random streams (link jitter) are
#: fixed, like one deployed server; the run's seed generates the fleet.
MAP_SEED = 0
#: One measured window: a simulated 20 Hz tick.
WINDOW_MS = 50.0
#: Measured realizations per untraced run, each a fleet of its own
#: generated from the run's seed.
REPEATS = 3


@dataclass(frozen=True)
class BenchWorkload:
    """One traffic mix and the deployment it runs on."""

    name: str
    why: str
    policy: str  # "adaptive" | "vanilla" (direct mode, no middleware)
    bots: int
    movement: str
    behavior: BehaviorMix = field(default_factory=lambda: BUILDER_MIX)
    #: "memory", or "sqlite" for an on-disk store in a fresh directory.
    store: str = "memory"
    #: > 1 runs a ParallelShardRunner with one worker process per shard,
    #: owning vertical strips ``strip_width`` chunks wide round-robin.
    shards: int = 1
    strip_width: int = 4
    #: Join/warm-up span, simulated ms; part of set-up, never measured.
    #: Covers the staggered joins (10 ms apart) and their chunk bursts.
    warmup_ms: float = 1_200.0
    #: Mean host wall ms per window on the reference host (2-vCPU VM,
    #: Python 3.11), over its fast and slow states, when the benchmark
    #: was defined. It only sizes the run: the REPEATS realizations of
    #: ``windows(seconds)`` windows each measure about ``seconds`` there.
    #: The number of windows, hence the simulated work, depends on
    #: nothing else.
    reference_window_ms: float = 100.0

    def windows(self, seconds: float) -> int:
        return max(2, math.ceil(seconds * 1000.0 / REPEATS / self.reference_window_ms))

    def spec(self, seed: int) -> WorkloadSpec:
        return WorkloadSpec(
            bots=self.bots,
            seed=seed,
            movement=self.movement,
            behavior=self.behavior,
            # 10 arrival phases per 100 ms act period: every 50 ms
            # window gets the same share of bot actions.
            arrival_stagger_ms=10.0,
            # The harness samples inconsistency between windows, never
            # inside a timed one.
            measure_interval_ms=0.0,
        )


WORKLOADS: dict[str, BenchWorkload] = {
    w.name: w
    for w in (
        BenchWorkload(
            name="hotspot-adaptive",
            why="paper's main configuration: core flush/commit carry most of the tick",
            policy="adaptive",
            bots=75,
            movement="hotspot",
            reference_window_ms=150.0,
        ),
        BenchWorkload(
            name="sharded-parallel",
            why="only workload on repro.cluster: worker pipes, bus and handoffs every tick",
            policy="adaptive",
            bots=50,
            movement="hotspot",
            shards=2,
            # One-chunk strips: most moves near the origin hotspot cross a
            # shard border, so handoffs (≈40 per realization) and their
            # view resyncs come often enough to average out.
            strip_width=1,
            reference_window_ms=90.0,
        ),
        BenchWorkload(
            name="durable-village",
            why="only workload on repro.backends: on-disk sqlite store, block-write heavy",
            policy="adaptive",
            bots=16,
            movement="village",
            behavior=BehaviorMix(build=0.3, dig=0.2, chat=0.01),
            store="sqlite",
            reference_window_ms=85.0,
        ),
    )
}


class Rig:
    """A started server or cluster with its bot fleet, one per repeat.

    ``close()`` stops worker processes, closes the state store and
    deletes the store's directory; it is idempotent.
    """

    def __init__(
        self,
        workload: BenchWorkload,
        seed: int,
        tmp_root: str,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.workload = workload
        self.sim = Simulation()
        self.tmpdir: str | None = None
        store = "memory"
        if workload.store == "sqlite":
            # A fresh directory per rig: no run reads another's database.
            os.makedirs(tmp_root, exist_ok=True)
            self.tmpdir = tempfile.mkdtemp(prefix="store-", dir=tmp_root)
            store = f"sqlite:///{self.tmpdir}/state.db"
        config = ServerConfig(synchronous_delivery=True, state_store=store, seed=MAP_SEED)
        self.parallel = workload.shards > 1
        if self.parallel:
            # fork: the traced run's wrappers reach the workers this way.
            self.server = ParallelShardRunner(
                self.sim,
                shards=workload.shards,
                strip_width=workload.strip_width,
                config=config,
                policy_factory=functools.partial(make_policy, workload.policy),
                partitioner_factory=ChunkPartitioner,
                telemetry=telemetry,
                mp_context="fork",
            )
        else:
            policy = make_policy(workload.policy)
            self.server = GameServer(
                self.sim,
                world=World(seed=MAP_SEED),
                config=config,
                policy=policy,
                partitioner=None if policy is None else ChunkPartitioner(),
                direct_mode=policy is None,
            )
        self.server.start()
        self.fleet = Workload(self.sim, self.server, workload.spec(seed))
        self.fleet.start()
        self.finalized = False
        self._closed = False

    def finalize(self) -> None:
        """Pull a parallel cluster's transports and stats out of its
        workers (and stop them); a no-op for a single server."""
        if self.parallel:
            self.server.finalize()
        self.finalized = True

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            if self.parallel:
                self.server.stop()
                self.server.shutdown()
            else:
                self.server.close()
        finally:
            if self.tmpdir is not None:
                shutil.rmtree(self.tmpdir, ignore_errors=True)
