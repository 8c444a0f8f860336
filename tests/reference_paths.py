"""Reference implementations that the differential tests compare against.

The program runs one implementation of each hot path below. The test
suite keeps the second, simpler one here, as an oracle that the fast
path must match packet for packet:

* **Per-object commit path.** :class:`LegacyStateStore` hands out
  dyconits without a columnar store (``Dyconit(flat=False)``), so the
  manager runs its per-update commit walk. :class:`LegacyGameServer` and
  :class:`LegacyShardServer` additionally commit every world event as it
  happens instead of buffering a burst through ``commit_many``.
* **Brute-force fan-out scans.** :class:`ScanGameServer` broadcasts by
  visiting every session and filtering by ``sees_chunk``, and handles a
  chunk crossing by visiting every session, instead of consulting the
  viewer index.

Each reference records that it ran, so a differential can assert that
its reference run really took the reference path.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from unittest import mock

from repro.backends.memory import InMemoryStateStore
from repro.cluster import ShardedCluster, facade
from repro.cluster.shard import ShardServer
from repro.core.dyconit import Dyconit
from repro.net.protocol import DestroyEntitiesPacket
from repro.server.config import ServerConfig
from repro.server.engine import GameServer
from repro.server.interest import InterestManager


# ----------------------------------------------------------------------
# Per-object commit path
# ----------------------------------------------------------------------


class LegacyStateStore(InMemoryStateStore):
    """In-memory store whose dyconits keep per-object subscription states."""

    name = "legacy-memory"

    def create_dyconit_state(self, dyconit_id, *, merging: bool) -> Dyconit:
        return Dyconit(dyconit_id, merging=merging, flat=False)


def has_columnar_dyconits(system) -> bool:
    """True if any live dyconit of ``system`` runs on the columnar store."""
    return any(dyconit._flat is not None for dyconit in system._dyconits.values())


class _UnbatchedCommits:
    """Server mixin: per-object dyconits, and every commit issued inline."""

    def __init__(self, *args, config: ServerConfig | None = None, **kwargs) -> None:
        config = config if config is not None else ServerConfig()
        super().__init__(
            *args,
            config=dataclasses.replace(config, state_store=LegacyStateStore()),
            **kwargs,
        )

    @contextmanager
    def _commit_batching(self):
        yield


class LegacyGameServer(_UnbatchedCommits, GameServer):
    """A :class:`GameServer` on the per-object commit path."""


class LegacyShardServer(_UnbatchedCommits, ShardServer):
    """A :class:`ShardServer` on the per-object commit path."""


def make_legacy_cluster(sim, **kwargs) -> ShardedCluster:
    """A :class:`ShardedCluster` whose shards run the per-object commit path."""
    with mock.patch.object(facade, "ShardServer", LegacyShardServer):
        return ShardedCluster(sim, **kwargs)


# ----------------------------------------------------------------------
# Brute-force fan-out scans
# ----------------------------------------------------------------------


class ScanInterestManager(InterestManager):
    """Handles chunk crossings by visiting every session."""

    def __init__(self, server) -> None:
        super().__init__(server)
        self.scan_calls = 0

    def on_entity_crossed(self, entity_id, old_chunk, new_chunk) -> None:
        self.scan_calls += 1
        for session in self.server.sessions.values():
            if session.entity_id == entity_id:
                continue
            sees = session.sees_chunk(new_chunk)
            if not sees:
                if session.forget_entity(entity_id):
                    self.server.send_packets(
                        session, [DestroyEntitiesPacket(entity_ids=(entity_id,))]
                    )
            elif entity_id not in session.known_entities:
                packet = self.server.codec.encode_entity_snapshot(session, entity_id)
                if packet is not None:
                    self.server.send_packets(session, [packet])


class ScanGameServer(GameServer):
    """A :class:`GameServer` whose fan-out paths scan every session.

    The viewer index is still maintained (its upkeep is part of the
    interest manager); it is just never consulted for fan-out.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.interest = ScanInterestManager(self)
        self.broadcast_scans = 0

    def _broadcast_direct(self, event, exclude) -> None:
        self.broadcast_scans += 1
        chunk = event.chunk_pos
        for session in self.sessions.values():
            if session.client_id == exclude:
                continue
            if chunk is not None and not session.sees_chunk(chunk):
                continue
            packets = self.codec.encode(session, [event])
            if packets:
                self.send_packets(session, packets)
