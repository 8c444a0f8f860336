"""Differential: S17 batched commit pipeline ≡ legacy per-object path.

The safety contract for the columnar commit engine: a default run must
be *packet-for-packet identical* to the same seeded run on the legacy
per-object path (kept as ground truth in :mod:`tests.reference_paths`)
— under a real bounded policy (so queues actually merge and flush), over 2,000 ticks, on a
single server AND on a 2-shard cluster, with checked-mode audits (which
include the I9 columnar checks) sampling both runs.

Unlike :mod:`tests.test_integration_differential` (zero bounds ≡
vanilla broadcast, the *middleware-is-thin* anchor), these runs keep
nonzero bounds so the flat store's merge/supersede/flush machinery is
exercised on the hot path being compared.
"""

from repro.bots.workload import BehaviorMix, Workload, WorkloadSpec
from repro.cluster import ShardedCluster
from repro.core.bounds import Bounds
from repro.policies.fixed import FixedBoundsPolicy
from repro.server.config import ServerConfig
from repro.server.engine import GameServer
from repro.sim.simulator import Simulation
from repro.world.world import World

from tests.reference_paths import (
    LegacyGameServer,
    has_columnar_dyconits,
    make_legacy_cluster,
)

SEED = 77
TICKS = 2_000
TICK_MS = 50.0
DURATION_MS = TICKS * TICK_MS
#: Sampled checked mode: a full I1-I9 audit every N ticks keeps the
#: 2k-tick runs affordable while still auditing the columnar store
#: dozens of times per run (set explicitly so the env override used by
#: the per-tick CI job does not stretch this test's runtime).
AUDIT_EVERY = 250

BOUNDS = Bounds(numerical=10.0, staleness_ms=500.0)


def make_spec(movement="hotspot"):
    return WorkloadSpec(
        bots=8,
        seed=SEED,
        movement=movement,
        behavior=BehaviorMix(build=0.1, dig=0.05, chat=0.01),
        arrival_stagger_ms=40.0,
    )


def make_config() -> ServerConfig:
    return ServerConfig(
        seed=SEED,
        synchronous_delivery=True,
        mob_count=3,
        audit_every_n_ticks=AUDIT_EVERY,
    )


def tap(server):
    captures: dict[str, list] = {}
    original_connect = server.connect

    def tapping_connect(name, handler, **kwargs):
        log = captures.setdefault(name, [])

        def tapped(delivered):
            log.append(delivered.packet)
            handler(delivered)

        return original_connect(name, tapped, **kwargs)

    server.connect = tapping_connect
    return captures


def run_single(use_batched: bool):
    sim = Simulation()
    server_cls = GameServer if use_batched else LegacyGameServer
    server = server_cls(
        sim,
        world=World(seed=SEED),
        config=make_config(),
        policy=FixedBoundsPolicy(BOUNDS),
    )
    server.start()
    workload = Workload(sim, server, make_spec())
    captures = tap(server)
    workload.start()
    sim.run_until(DURATION_MS)
    return captures, server


def run_cluster(use_batched: bool):
    sim = Simulation()
    make_cluster = ShardedCluster if use_batched else make_legacy_cluster
    cluster = make_cluster(
        sim,
        shards=2,
        strip_width=4,
        config=make_config(),
        policy_factory=lambda: FixedBoundsPolicy(BOUNDS),
    )
    cluster.start()
    workload = Workload(sim, cluster, make_spec("gathering"))
    captures = tap(cluster)
    workload.start()
    sim.run_until(DURATION_MS)
    return captures, cluster


def assert_streams_equal(legacy: dict, batched: dict) -> None:
    assert set(legacy) == set(batched)
    for name in legacy:
        assert legacy[name] == batched[name], f"packet stream diverged for {name}"


def test_single_server_2k_ticks_packet_identical():
    legacy, legacy_server = run_single(use_batched=False)
    batched, batched_server = run_single(use_batched=True)

    assert legacy_server.tick_count >= TICKS
    # Non-vacuity: the default run really took the columnar path (and
    # the reference really did not).
    assert has_columnar_dyconits(batched_server.dyconits)
    assert not has_columnar_dyconits(legacy_server.dyconits)

    assert_streams_equal(legacy, batched)
    assert (
        legacy_server.transport.total_bytes()
        == batched_server.transport.total_bytes()
    )
    assert (
        legacy_server.transport.packets_by_kind()
        == batched_server.transport.packets_by_kind()
    )
    # The dyconit machinery was actually on the hot path (bounded, not
    # pass-through), and both paths agree on its aggregate behaviour.
    assert batched_server.dyconits.stats.updates_merged > 0
    assert legacy_server.dyconits.stats == batched_server.dyconits.stats


def test_two_shard_cluster_2k_ticks_packet_identical():
    legacy, legacy_cluster = run_cluster(use_batched=False)
    batched, batched_cluster = run_cluster(use_batched=True)

    assert any(
        has_columnar_dyconits(shard.dyconits) for shard in batched_cluster.shards
    )
    assert not any(
        has_columnar_dyconits(shard.dyconits) for shard in legacy_cluster.shards
    )

    assert_streams_equal(legacy, batched)
    assert legacy_cluster.total_bytes() == batched_cluster.total_bytes()
    assert legacy_cluster.bus.total_bytes == batched_cluster.bus.total_bytes
    assert (
        legacy_cluster.bus.messages_by_kind == batched_cluster.bus.messages_by_kind
    )
    assert legacy_cluster.handoffs == batched_cluster.handoffs
    # The federated run exercised cross-shard machinery, not just two
    # independent servers.
    assert legacy_cluster.bus.total_messages > 0
    assert legacy_cluster.handoffs > 0
