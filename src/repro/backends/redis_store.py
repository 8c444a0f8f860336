"""Redis-backed :class:`StateStore` adapter (env-gated): a checkpoint sink.

Dyconit state itself lives in process, on the memory store's columnar
:class:`~repro.core.dyconit.Dyconit` objects, so a Redis run commits on
exactly the memory path. Restart (S20) only ever reads checkpoint blobs,
and those are what Redis keeps:

* ``{ns}:ckpt`` — a hash of checkpoint key → blob;
* ``{ns}:ckptord`` — a sorted set ordering keys by first save, scored
  from the ``{ns}:ckptseq`` counter (an overwrite keeps its place).

Row keys that an older build mirrored into a namespace are never read.

The adapter needs a reachable Redis and the ``redis`` client package;
construction raises :class:`BackendUnavailable` otherwise, which the
conformance suite reports as a skip. Point ``REPRO_REDIS_URL`` at a
server (e.g. ``redis://localhost:6379/0``) to include it in the suite.
"""

from __future__ import annotations

import os

from repro.backends.base import BackendUnavailable
from repro.backends.memory import InMemoryStateStore

#: Environment variable gating the adapter (and carrying the server URL).
REDIS_URL_ENV = "REPRO_REDIS_URL"


def _connect(url: str | None):
    if url is None:
        url = os.environ.get(REDIS_URL_ENV)
    if not url:
        raise BackendUnavailable(
            f"redis backend requires {REDIS_URL_ENV} to point at a server"
        )
    try:
        import redis  # noqa: PLC0415 - optional dependency, gated import
    except ImportError as exc:  # pragma: no cover - depends on environment
        raise BackendUnavailable("the 'redis' client package is not installed") from exc
    client = redis.Redis.from_url(url)
    try:
        client.ping()
    except Exception as exc:  # pragma: no cover - depends on environment
        raise BackendUnavailable(f"redis server at {url} is unreachable") from exc
    return client


class RedisStateStore(InMemoryStateStore):
    """Columnar in-process dyconits with checkpoints in a Redis database."""

    name = "redis"

    def __init__(self, url: str | None = None, namespace: str = "repro") -> None:
        self._r = _connect(url)
        self._ns = namespace

    # -- restart surface (S20) -----------------------------------------

    def _ckpt_hash(self) -> str:
        return f"{self._ns}:ckpt"

    def _ckpt_order(self) -> str:
        return f"{self._ns}:ckptord"

    def save_checkpoint(self, key: str, blob: bytes) -> None:
        pipe = self._r.pipeline(transaction=True)
        pipe.hset(self._ckpt_hash(), key, blob)
        pipe.zadd(self._ckpt_order(), {key: self._r.incr(f"{self._ns}:ckptseq")},
                  nx=True)
        pipe.execute()

    def load_checkpoint(self, key: str) -> bytes | None:
        return self._r.hget(self._ckpt_hash(), key)

    def checkpoint_keys(self) -> list[str]:
        return [key.decode() for key in self._r.zrange(self._ckpt_order(), 0, -1)]

    def close(self) -> None:
        self._r.close()
