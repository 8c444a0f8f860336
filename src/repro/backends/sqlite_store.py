"""SQL row-level :class:`StateStore` adapter: SQLite, and Postgres by subclass.

Subscription queues and conit accounting live in two tables:

* ``subs(dyconit, sub_id, pos, b_num, b_stale, b_order, acc_error,
  oldest, enqueued, merged)`` — one row per live subscription; ``pos``
  is a store-global insertion counter so iteration order over a
  dyconit's subscriptions equals legacy dict insertion order.
* ``pending(dyconit, sub_id, seq, mkey, time, blob)`` — one row per
  queued update; ``seq`` is a store-global enqueue counter, and a
  supersede deletes the old row before inserting the new one, so
  ``ORDER BY seq`` reproduces the legacy delete-then-reinsert dict
  order exactly (the property the sort-free drain relies on).

Dyconit ids and merge keys are pickled to blobs (equal tuples of
primitives pickle to equal bytes within a process); updates are pickled
whole — world events are frozen dataclasses, so an unpickled update is
value-equal to the committed one and encodes to identical packets.
Floats round-trip exactly (``REAL`` is IEEE-754 binary64), and every
read-modify-write performs the same Python float additions in the same
order as the in-memory path, so the accounting is *bit*-compatible, not
just approximately equal — the conformance suite and the SQLite fuzz
twin assert as much.

Persistence semantics: dropping a dyconit (or the whole system) deletes
its rows, but a handle re-created over surviving rows *re-attaches* —
``subscribe`` with an id that still owns a row resumes its queue and
accounting instead of resetting them (subscriber callbacks are runtime
objects and are never persisted).

The connection runs in autocommit (``isolation_level=None``): the
default driver mode opens an implicit transaction on the first write
and this store never called ``commit()``, so a file-backed store used
to silently roll back *everything* when the connection closed — data
only looked durable because re-attach tests shared the connection.
Checkpoint writes get an explicit ``BEGIN IMMEDIATE … COMMIT`` so a
process killed mid-save leaves the old blob, never a torn one.

The handle and view below are the only SQL queue implementation: every
statement they run comes from their store's :class:`Statements`,
built once at construction from the table prefix and the driver's
placeholder, and goes through the store's ``_execute`` / ``_fetchone``
/ ``_fetchall``. :class:`~repro.backends.postgres_store.PostgresStateStore`
overrides just those (plus the connect, DDL types and ``BEGIN``) to run
the same rows on a Postgres connection.
"""

from __future__ import annotations

import pickle
import sqlite3
from typing import Hashable

from repro.backends.base import DyconitStateHandle, StateStore, SubscriptionSnapshot
from repro.core.bounds import Bounds
from repro.core.dyconit import EnqueueResult, SubscriptionState
from repro.core.subscription import Subscriber
from repro.core.update import Update


def _blob(value) -> bytes:
    return pickle.dumps(value, protocol=4)


def schema(prefix: str, blob: str, integer: str, real: str) -> str:
    """The three tables and the supersede index, as ``;``-separated DDL
    in the given column types, table names prefixed by ``prefix``."""
    return f"""
CREATE TABLE IF NOT EXISTS {prefix}subs (
    dyconit {blob} NOT NULL,
    sub_id {integer} NOT NULL,
    pos {integer} NOT NULL,
    b_num {real} NOT NULL,
    b_stale {real} NOT NULL,
    b_order {real} NOT NULL,
    acc_error {real} NOT NULL,
    oldest {real},
    enqueued {integer} NOT NULL,
    merged {integer} NOT NULL,
    PRIMARY KEY (dyconit, sub_id)
);
CREATE TABLE IF NOT EXISTS {prefix}pending (
    dyconit {blob} NOT NULL,
    sub_id {integer} NOT NULL,
    seq {integer} NOT NULL,
    mkey {blob} NOT NULL,
    time {real} NOT NULL,
    blob {blob} NOT NULL,
    PRIMARY KEY (dyconit, sub_id, seq)
);
CREATE INDEX IF NOT EXISTS {prefix}pending_by_key ON {prefix}pending (dyconit, sub_id, mkey);
CREATE TABLE IF NOT EXISTS {prefix}checkpoints (
    key TEXT PRIMARY KEY,
    ord {integer} NOT NULL,
    blob {blob} NOT NULL
);
"""


class Statements:
    """Every row statement a store runs, built once per store.

    ``prefix`` namespaces the table names and ``p`` is the driver's
    parameter placeholder (``?`` for sqlite3, ``%s`` for the Postgres
    drivers).
    """

    def __init__(self, prefix: str, p: str) -> None:
        subs, pending, ckpt = f"{prefix}subs", f"{prefix}pending", f"{prefix}checkpoints"
        row = f"WHERE dyconit = {p} AND sub_id = {p}"

        def select(columns: str) -> str:
            return f"SELECT {columns} FROM {subs} {row}"

        # -- subs: one row per subscription
        self.bounds = select("b_num, b_stale, b_order")
        self.error = select("acc_error")
        self.oldest = select("oldest")
        self.enqueued = select("enqueued")
        self.merged = select("merged")
        self.trip = select("acc_error, oldest, b_num, b_stale, b_order")
        self.account = select("acc_error, oldest, enqueued, merged")
        self.sub_exists = select("1")
        self.set_bounds = (
            f"UPDATE {subs} SET b_num = {p}, b_stale = {p}, b_order = {p} {row}"
        )
        self.set_account = (
            f"UPDATE {subs} SET acc_error = {p}, oldest = {p}, enqueued = {p}, "
            f"merged = {p} {row}"
        )
        self.clear_account = f"UPDATE {subs} SET acc_error = 0.0, oldest = NULL {row}"
        self.set_oldest = f"UPDATE {subs} SET oldest = {p} {row}"
        insert = (
            f"INSERT INTO {subs} (dyconit, sub_id, pos, b_num, b_stale, b_order, "
            f"acc_error, oldest, enqueued, merged) VALUES ({p}, {p}, {p}, {p}, {p}, {p}, "
        )
        self.insert_sub = insert + "0.0, NULL, 0, 0)"
        self.insert_snapshot = insert + f"{p}, {p}, {p}, {p})"
        self.delete_sub = f"DELETE FROM {subs} {row}"
        self.delete_subs_of = f"DELETE FROM {subs} WHERE dyconit = {p}"
        self.delete_all_subs = f"DELETE FROM {subs}"
        self.max_pos = f"SELECT MAX(pos) FROM {subs}"
        # -- pending: one row per queued update, in seq order
        self.pending_items = f"SELECT mkey, blob FROM {pending} {row} ORDER BY seq"
        self.pending_blobs = f"SELECT blob FROM {pending} {row} ORDER BY seq"
        self.pending_rows = (
            f"SELECT seq, mkey, time, blob FROM {pending} {row} ORDER BY seq"
        )
        self.pending_count = f"SELECT COUNT(*) FROM {pending} {row}"
        self.key_exists = f"SELECT 1 FROM {pending} {row} AND mkey = {p}"
        self.delete_key = f"DELETE FROM {pending} {row} AND mkey = {p}"
        self.insert_pending = (
            f"INSERT INTO {pending} (dyconit, sub_id, seq, mkey, time, blob) "
            f"VALUES ({p}, {p}, {p}, {p}, {p}, {p})"
        )
        self.delete_pending = f"DELETE FROM {pending} {row}"
        self.delete_pending_of = f"DELETE FROM {pending} WHERE dyconit = {p}"
        self.delete_all_pending = f"DELETE FROM {pending}"
        self.max_seq = f"SELECT MAX(seq) FROM {pending}"
        # -- checkpoints: restart blobs in first-save order
        self.max_ord = f"SELECT MAX(ord) FROM {ckpt}"
        self.upsert_checkpoint = (
            f"INSERT INTO {ckpt} (key, ord, blob) VALUES ({p}, {p}, {p}) "
            f"ON CONFLICT (key) DO UPDATE SET blob = EXCLUDED.blob"
        )
        self.load_checkpoint = f"SELECT blob FROM {ckpt} WHERE key = {p}"
        self.checkpoint_keys = f"SELECT key FROM {ckpt} ORDER BY ord"


class SQLiteStateStore(StateStore):
    """Dyconit state in a SQLite database (``:memory:`` by default)."""

    name = "sqlite"
    #: Opens the checkpoint write transaction.
    _begin = "BEGIN IMMEDIATE"

    def __init__(self, path: str = ":memory:") -> None:
        self.path = path
        # Autocommit: the driver's default implicit-transaction mode
        # would roll every write back at close (nothing here commits).
        # check_same_thread=False: the gateway serves GET /store from
        # its HTTP thread while the simulation owns all writes; SQLite's
        # serialized threading mode makes the shared connection safe for
        # that single-writer/concurrent-reader split.
        self._conn = sqlite3.connect(path, isolation_level=None, check_same_thread=False)
        # The simulation is the single writer and owns durability at the
        # run level; per-statement fsync would only distort benchmarks.
        self._conn.execute("PRAGMA synchronous=OFF")
        self._conn.executescript(schema("", "BLOB", "INTEGER", "REAL"))
        self._open(Statements("", "?"))

    def _open(self, sql: Statements) -> None:
        """Adopt the statement set; resume the counters past stored rows."""
        self._sql = sql
        self._closed = False
        (top,) = self._fetchone(sql.max_seq)
        self._seq = (top or 0) + 1
        (top,) = self._fetchone(sql.max_pos)
        self._pos = (top or 0) + 1

    # -- driver plumbing (Postgres overrides these with cursors) -------

    def _execute(self, sql: str, params: tuple = ()) -> None:
        self._conn.execute(sql, params)

    def _fetchone(self, sql: str, params: tuple = ()):
        return self._conn.execute(sql, params).fetchone()

    def _fetchall(self, sql: str, params: tuple = ()) -> list:
        return self._conn.execute(sql, params).fetchall()

    def create_dyconit_state(
        self, dyconit_id: Hashable, *, merging: bool
    ) -> "SQLiteDyconitState":
        # Row handles have no columnar store (``_flat is None``), so the
        # manager's per-update commit walk drives them.
        return SQLiteDyconitState(self, dyconit_id, merging=merging)

    def drop_dyconit_state(self, dyconit_id: Hashable) -> None:
        dk = _blob(dyconit_id)
        self._execute(self._sql.delete_subs_of, (dk,))
        self._execute(self._sql.delete_pending_of, (dk,))

    def next_seq(self) -> int:
        seq, self._seq = self._seq, self._seq + 1
        return seq

    def next_pos(self) -> int:
        pos, self._pos = self._pos, self._pos + 1
        return pos

    # -- restart surface (S20) -----------------------------------------

    def reset(self) -> None:
        """Wipe all dyconit rows; checkpoints survive.

        Restore runs this first so rows written *after* a checkpoint by
        a later-killed run can never leak into the resumed one.
        """
        self._execute(self._sql.delete_all_subs)
        self._execute(self._sql.delete_all_pending)
        self._seq = 1
        self._pos = 1

    def save_checkpoint(self, key: str, blob: bytes) -> None:
        # A new key takes the next ``ord``; an existing one keeps its
        # place and only swaps the blob.
        self._execute(self._begin)
        try:
            (top,) = self._fetchone(self._sql.max_ord)
            self._execute(self._sql.upsert_checkpoint, (key, (top or 0) + 1, blob))
        except BaseException:
            self._execute("ROLLBACK")
            raise
        self._execute("COMMIT")

    def load_checkpoint(self, key: str) -> bytes | None:
        row = self._fetchone(self._sql.load_checkpoint, (key,))
        return None if row is None else bytes(row[0])

    def checkpoint_keys(self) -> list[str]:
        return [key for (key,) in self._fetchall(self._sql.checkpoint_keys)]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._conn.close()


class SQLiteSubscriptionView:
    """A :class:`SubscriptionState`-compatible window onto one subs row.

    Identity-stable (one per subscriber for the handle's lifetime), like
    the S17 flat views; every access reads the database, every mutation
    writes it — the row *is* the state.
    """

    __slots__ = ("_handle", "_store", "_sql", "subscriber")

    def __init__(self, handle: "SQLiteDyconitState", subscriber: Subscriber) -> None:
        self._handle = handle
        self._store = handle._store
        self._sql = handle._store._sql
        self.subscriber = subscriber

    # -- row plumbing --------------------------------------------------

    def _key(self) -> tuple[bytes, int]:
        return (self._handle._dk, self.subscriber.subscriber_id)

    def _row(self, select: str):
        return self._store._fetchone(select, self._key())

    @property
    def merging(self) -> bool:
        return self._handle.merging

    # -- bounds --------------------------------------------------------

    @property
    def bounds(self) -> Bounds:
        row = self._row(self._sql.bounds)
        if row is None:
            return Bounds.INFINITE
        return Bounds(row[0], row[1], row[2])

    @bounds.setter
    def bounds(self, bounds: Bounds) -> None:
        self._store._execute(
            self._sql.set_bounds,
            (bounds.numerical, bounds.staleness_ms, bounds.order, *self._key()),
        )

    # -- queue accounting ----------------------------------------------

    @property
    def accumulated_error(self) -> float:
        row = self._row(self._sql.error)
        return 0.0 if row is None else row[0]

    @property
    def oldest_pending_time(self) -> float | None:
        row = self._row(self._sql.oldest)
        return None if row is None else row[0]

    @property
    def enqueued_count(self) -> int:
        row = self._row(self._sql.enqueued)
        return 0 if row is None else row[0]

    @property
    def merged_count(self) -> int:
        row = self._row(self._sql.merged)
        return 0 if row is None else row[0]

    @property
    def pending(self) -> dict[tuple, Update]:
        rows = self._store._fetchall(self._sql.pending_items, self._key())
        return {pickle.loads(mkey): pickle.loads(blob) for mkey, blob in rows}

    @property
    def has_pending(self) -> bool:
        return self.oldest_pending_time is not None

    def oldest_age_ms(self, now: float) -> float:
        oldest = self.oldest_pending_time
        if oldest is None:
            return 0.0
        return now - oldest

    def tripped_dimension(self, now: float) -> str | None:
        row = self._row(self._sql.trip)
        if row is None or row[1] is None:
            return None
        acc_error, oldest, b_num, b_stale, b_order = row
        (count,) = self._row(self._sql.pending_count)
        return Bounds(b_num, b_stale, b_order).tripped_dimension(
            acc_error, now - oldest, count
        )

    def exceeds_bounds(self, now: float) -> bool:
        return self.tripped_dimension(now) is not None

    # -- mutation ------------------------------------------------------

    def enqueue(self, update: Update) -> EnqueueResult:
        store, sql = self._store, self._sql
        dk, sub_id = self._key()
        row = self._row(sql.account)
        if row is None:
            raise KeyError(
                f"subscriber {sub_id} is not subscribed to "
                f"{self._handle.dyconit_id!r}"
            )
        acc_error, oldest, enqueued, merged = row
        key = (
            update.merge_key
            if self._handle.merging
            else (enqueued, update.merge_key)
        )
        mkey = _blob(key)
        superseded = store._fetchone(sql.key_exists, (dk, sub_id, mkey)) is not None
        if superseded:
            store._execute(sql.delete_key, (dk, sub_id, mkey))
            merged += 1
        store._execute(
            sql.insert_pending,
            (dk, sub_id, store.next_seq(), mkey, update.time, _blob(update)),
        )
        became_pending = oldest is None
        store._execute(
            sql.set_account,
            (
                acc_error + update.weight,  # same float add as the legacy path
                update.time if became_pending else oldest,
                enqueued + 1,
                merged,
                dk,
                sub_id,
            ),
        )
        return EnqueueResult(superseded=superseded, became_pending=became_pending)

    def drain(self) -> list[Update]:
        store, sql = self._store, self._sql
        key = self._key()
        rows = store._fetchall(sql.pending_blobs, key)
        store._execute(sql.delete_pending, key)
        store._execute(sql.clear_account, key)
        return [pickle.loads(blob) for (blob,) in rows]

    def restore_time_order(self) -> None:
        store, sql = self._store, self._sql
        dk, sub_id = key = self._key()
        rows = store._fetchall(sql.pending_rows, key)
        if not rows:
            return
        # Stable by time: equal-time entries keep their current order —
        # the exact semantics of the legacy sorted() re-dict.
        ordered = sorted(rows, key=lambda row: row[2])
        store._execute(sql.delete_pending, key)
        for __, mkey, time, blob in ordered:
            store._execute(
                sql.insert_pending, (dk, sub_id, store.next_seq(), mkey, time, blob)
            )
        first_time = ordered[0][2]
        (oldest,) = self._row(sql.oldest)
        if oldest is None or first_time < oldest:
            store._execute(sql.set_oldest, (first_time, dk, sub_id))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SQLiteSubscriptionView(subscriber={self.subscriber.subscriber_id}, "
            f"dyconit={self._handle.dyconit_id!r})"
        )


class SQLiteDyconitState(DyconitStateHandle):
    """One dyconit's subscriptions, resident in the store's database."""

    def __init__(
        self, store: SQLiteStateStore, dyconit_id: Hashable, merging: bool = True
    ) -> None:
        self._store = store
        self._sql = store._sql
        self.dyconit_id = dyconit_id
        self._dk = _blob(dyconit_id)
        self.merging = merging
        self.default_bounds = Bounds.ZERO
        self.total_committed_weight = 0.0
        self.commit_count = 0
        #: Runtime subscriber objects (delivery callbacks are not rows);
        #: insertion-ordered, mirroring legacy dict order for iteration.
        self._views: dict[int, SQLiteSubscriptionView] = {}

    # -- subscription management ---------------------------------------

    @property
    def subscriber_count(self) -> int:
        return len(self._views)

    def subscribers(self) -> list[Subscriber]:
        return [view.subscriber for view in self._views.values()]

    def subscription_states(self) -> list[SQLiteSubscriptionView]:
        return list(self._views.values())

    def is_subscribed(self, subscriber_id: int) -> bool:
        return subscriber_id in self._views

    def subscribe(
        self, subscriber: Subscriber, bounds: Bounds | None = None
    ) -> SQLiteSubscriptionView:
        sub_id = subscriber.subscriber_id
        view = self._views.get(sub_id)
        if view is not None:
            if bounds is not None:
                view.bounds = bounds
            return view
        view = SQLiteSubscriptionView(self, subscriber)
        self._views[sub_id] = view
        store = self._store
        if store._fetchone(self._sql.sub_exists, (self._dk, sub_id)) is not None:
            # Re-attach to a persisted subscription: the queue and its
            # accounting survive a handle (or process) restart.
            if bounds is not None:
                view.bounds = bounds
            return view
        effective = bounds if bounds is not None else self.default_bounds
        store._execute(
            self._sql.insert_sub,
            (
                self._dk,
                sub_id,
                store.next_pos(),
                effective.numerical,
                effective.staleness_ms,
                effective.order,
            ),
        )
        return view

    def unsubscribe(self, subscriber_id: int) -> SubscriptionState | None:
        view = self._views.pop(subscriber_id, None)
        if view is None:
            return None
        # Materialize the final state (the caller may still flush it),
        # exactly like the flat store's unsubscribe.
        state = SubscriptionState(
            subscriber=view.subscriber,
            bounds=view.bounds,
            pending=dict(view.pending),
            accumulated_error=view.accumulated_error,
            oldest_pending_time=view.oldest_pending_time,
            enqueued_count=view.enqueued_count,
            merged_count=view.merged_count,
            merging=self.merging,
        )
        key = (self._dk, subscriber_id)
        self._store._execute(self._sql.delete_sub, key)
        self._store._execute(self._sql.delete_pending, key)
        return state

    def get_state(self, subscriber_id: int) -> SQLiteSubscriptionView | None:
        return self._views.get(subscriber_id)

    def restore_subscription(
        self, subscriber: Subscriber, snap: SubscriptionSnapshot
    ) -> SQLiteSubscriptionView:
        """Write one snapshot back as rows — floats verbatim, queue order
        reproduced with fresh seqs (see :class:`SubscriptionSnapshot`)."""
        sub_id = subscriber.subscriber_id
        if sub_id in self._views:
            raise ValueError(
                f"subscriber {sub_id} already subscribed to {self.dyconit_id!r}"
            )
        store, sql = self._store, self._sql
        store._execute(sql.delete_sub, (self._dk, sub_id))
        store._execute(sql.delete_pending, (self._dk, sub_id))
        store._execute(
            sql.insert_snapshot,
            (
                self._dk,
                sub_id,
                store.next_pos(),
                snap.bounds.numerical,
                snap.bounds.staleness_ms,
                snap.bounds.order,
                snap.accumulated_error,
                snap.oldest_pending_time,
                snap.enqueued_count,
                snap.merged_count,
            ),
        )
        for key, update in snap.pending:
            store._execute(
                sql.insert_pending,
                (self._dk, sub_id, store.next_seq(), _blob(key),
                 update.time, _blob(update)),
            )
        view = SQLiteSubscriptionView(self, subscriber)
        self._views[sub_id] = view
        return view

    def set_bounds(self, subscriber_id: int, bounds: Bounds) -> None:
        view = self._views.get(subscriber_id)
        if view is None:
            raise KeyError(
                f"subscriber {subscriber_id} is not subscribed to {self.dyconit_id}"
            )
        view.bounds = bounds

    # -- commit path ---------------------------------------------------

    def commit(
        self, update: Update, exclude_subscriber: int | None = None
    ) -> list[tuple[SQLiteSubscriptionView, EnqueueResult]]:
        touched: list[tuple[SQLiteSubscriptionView, EnqueueResult]] = []
        for subscriber_id, view in self._views.items():
            if subscriber_id == exclude_subscriber:
                continue
            result = view.enqueue(update)
            touched.append((view, result))
        if touched:
            # Hotness counts commits that enqueued for someone — same
            # rule as the in-memory paths.
            self.total_committed_weight += update.weight
            self.commit_count += 1
        return touched

    def __repr__(self) -> str:
        return (
            f"SQLiteDyconitState({self.dyconit_id!r}, "
            f"subscribers={self.subscriber_count}, commits={self.commit_count})"
        )
