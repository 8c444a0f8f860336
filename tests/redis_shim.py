"""An in-process stand-in for a Redis server, for the checkpoint sink.

:class:`~repro.backends.redis_store.RedisStateStore` keeps only
checkpoint blobs in Redis, through a handful of commands. This fake
implements exactly those, with the client's reply types (``bytes`` for
stored values and members). A :class:`FakeRedisHost` shares one fake
per URL, so a store reopened on the same URL sees what an earlier
instance wrote, like a server outliving a killed process. Patch its
:meth:`~FakeRedisHost.connect` over ``redis_store._connect`` to run
the adapter without a server.
"""


def _bytes(value) -> bytes:
    if isinstance(value, bytes):
        return value
    return str(value).encode()


class FakeRedis:
    """The commands the checkpoint sink uses, on plain dicts."""

    def __init__(self) -> None:
        self._hashes: dict[str, dict[bytes, bytes]] = {}
        self._zsets: dict[str, dict[bytes, float]] = {}
        self._counters: dict[str, int] = {}

    def ping(self) -> bool:
        return True

    def hset(self, name: str, key, value) -> int:
        fields = self._hashes.setdefault(name, {})
        added = _bytes(key) not in fields
        fields[_bytes(key)] = _bytes(value)
        return int(added)

    def hget(self, name: str, key) -> bytes | None:
        return self._hashes.get(name, {}).get(_bytes(key))

    def incr(self, name: str) -> int:
        self._counters[name] = self._counters.get(name, 0) + 1
        return self._counters[name]

    def zadd(self, name: str, mapping: dict, nx: bool = False) -> int:
        scores = self._zsets.setdefault(name, {})
        added = 0
        for member, score in mapping.items():
            member = _bytes(member)
            if member in scores:
                if nx:
                    continue
            else:
                added += 1
            scores[member] = float(score)
        return added

    def zrange(self, name: str, start: int, end: int) -> list[bytes]:
        ordered = sorted(self._zsets.get(name, {}).items(), key=lambda kv: (kv[1], kv[0]))
        members = [member for member, __ in ordered]
        return members[start:] if end == -1 else members[start:end + 1]

    def pipeline(self, transaction: bool = True) -> "FakePipeline":
        return FakePipeline(self)

    def close(self) -> None:
        pass


class FakePipeline:
    """Queues commands; ``execute`` runs them back to back."""

    def __init__(self, server: FakeRedis) -> None:
        self._server = server
        self._queued: list = []

    def hset(self, *args, **kwargs) -> "FakePipeline":
        self._queued.append(("hset", args, kwargs))
        return self

    def zadd(self, *args, **kwargs) -> "FakePipeline":
        self._queued.append(("zadd", args, kwargs))
        return self

    def execute(self) -> list:
        queued, self._queued = self._queued, []
        return [getattr(self._server, cmd)(*args, **kwargs) for cmd, args, kwargs in queued]


class FakeRedisHost:
    """Fake servers by URL; a new host starts with none."""

    def __init__(self) -> None:
        self._servers: dict[str, FakeRedis] = {}

    def connect(self, url: str | None) -> FakeRedis:
        """Drop-in for ``redis_store._connect``: one fake server per URL."""
        return self._servers.setdefault(url or "redis://shim", FakeRedis())
