"""Bounded blocking FIFO stores.

The store is the paper's central fault-propagation primitive: PRESS's
per-peer send queues and per-disk request queues are bounded, and a
producer whose queue is full *blocks*.  When one node stops draining its
queue (disk fault, freeze, hang), every cooperating peer eventually blocks
on a full send queue to it — which is exactly how a single-component fault
stalls the whole cluster (Figure 4 of the paper).

``put``/``get`` return events; both are cancellable while still queued so
that get-with-timeout and process-kill work without leaking slots.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.sim.kernel import Environment, Event, SimulationError


class StoreFullError(SimulationError):
    """Raised by :meth:`Store.put_nowait` when the store is at capacity."""


class StorePut(Event):
    """Pending put; triggers (value=None) when the item is accepted."""

    __slots__ = ("item", "_store")

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        self.item = item
        self._store = store

    def cancel(self) -> None:
        """Withdraw the put if it has not been accepted yet."""
        if not self.triggered:
            try:
                self._store._put_waiters.remove(self)
            except ValueError:
                pass


class StoreGet(Event):
    """Pending get; triggers with the item as value."""

    __slots__ = ("_store")

    def __init__(self, store: "Store"):
        # Event.__init__ inlined: one per server-loop receive.
        self.env = store.env
        self.callbacks = []
        self._value = None
        self._ok = None
        self._scheduled = False
        self._processed = False
        self._defused = False
        self._store = store

    def cancel(self) -> None:
        """Withdraw the get if it has not been satisfied yet."""
        if not self.triggered:
            try:
                self._store._get_waiters.remove(self)
            except ValueError:
                pass


class Store:
    """FIFO queue of Python objects with optional capacity bound."""

    __slots__ = ("env", "capacity", "name", "items", "_put_waiters",
                 "_get_waiters")

    def __init__(self, env: Environment, capacity: float = float("inf"), name: str = ""):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.items: Deque[Any] = deque()
        # deques, not lists: _reconcile pops from the head on every
        # admitted put/get, and a list.pop(0) is O(n) in queued waiters
        self._put_waiters: Deque[StorePut] = deque()
        self._get_waiters: Deque[StoreGet] = deque()

    # -- introspection ----------------------------------------------------
    @property
    def level(self) -> int:
        """Number of stored items (excludes queued putters)."""
        return len(self.items)

    @property
    def backlog(self) -> int:
        """Stored items plus blocked putters — the 'queue length' a
        monitoring threshold should see, since a blocked producer's item is
        logically destined for this queue."""
        return len(self.items) + len(self._put_waiters)

    @property
    def full(self) -> bool:
        return len(self.items) >= self.capacity

    def peek(self) -> Any:
        if not self.items:
            raise SimulationError(f"peek on empty store {self.name!r}")
        return self.items[0]

    # -- operations ---------------------------------------------------------
    def put(self, item: Any) -> StorePut:
        ev = StorePut(self, item)
        self._put_waiters.append(ev)
        self._reconcile()
        return ev

    def put_nowait(self, item: Any) -> None:
        """Insert immediately; raise :class:`StoreFullError` if at capacity
        or if earlier putters are still queued (FIFO fairness)."""
        if not self.try_put(item):
            raise StoreFullError(f"store {self.name!r} full (capacity={self.capacity})")

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False instead of raising when full.

        A producer that may block calls this first and yields :meth:`put`
        only when it returns False: an accepted item then costs no
        :class:`StorePut` event and no resume.
        """
        if self._put_waiters or len(self.items) >= self.capacity:
            return False
        if self._get_waiters:  # empty: hand the item over
            self._get_waiters.popleft().succeed(item)
        else:
            self.items.append(item)
        return True

    def get(self) -> StoreGet:
        ev = StoreGet(self)
        items = self.items
        if not items:
            self._get_waiters.append(ev)
            return ev
        # No getter is queued while items are stored: take the head and
        # admit the oldest putter into the slot it frees, as _reconcile
        # would.
        ev.succeed(items.popleft())
        if self._put_waiters and len(items) < self.capacity:
            put = self._put_waiters.popleft()
            items.append(put.item)
            put.succeed()
        return ev

    def get_nowait(self) -> Any:
        """Remove and return the head item; raise if empty."""
        if not self.items:
            raise SimulationError(f"get_nowait on empty store {self.name!r}")
        item = self.items.popleft()
        self._reconcile()
        return item

    def release_putters(self) -> int:
        """Unblock every queued putter, *dropping* their items.

        Used when a queue is torn down (peer excluded): producers blocked
        on the dead queue must resume, and the undelivered messages are
        lost — exactly TCP-send semantics on a reset connection.
        Returns the number of putters released.
        """
        waiters, self._put_waiters = self._put_waiters, deque()
        for put in waiters:
            put.succeed()
        return len(waiters)

    def withdraw_putters(self) -> None:
        """Withdraw every queued putter without admitting its item.

        The withdrawn puts never trigger: their producers are expected to
        be interrupted by the same teardown (a connection reset), so the
        items must not reach a reader.
        """
        self._put_waiters.clear()

    def force_put(self, item: Any, front: bool = False) -> None:
        """Insert ignoring the capacity bound (e.g. control sentinels that
        must reach the reader even when the buffer is full)."""
        if self._get_waiters:  # empty: hand the item over
            self._get_waiters.popleft().succeed(item)
        elif front:
            self.items.appendleft(item)
        else:
            self.items.append(item)

    def clear(self) -> list:
        """Drop all stored items (crash/state-loss); returns what was dropped.

        Queued getters stay queued, and queued putters are then admitted
        into the freed room.  A teardown whose blocked producers must not
        deliver calls :meth:`withdraw_putters` first.
        """
        dropped = list(self.items)
        self.items.clear()
        self._reconcile()
        return dropped

    # -- matching -------------------------------------------------------------
    def _reconcile(self) -> None:
        progress = True
        while progress:
            progress = False
            # Admit queued putters while there is room.
            while self._put_waiters and len(self.items) < self.capacity:
                put = self._put_waiters.popleft()
                self.items.append(put.item)
                put.succeed()
                progress = True
            # Satisfy queued getters while there are items.
            while self._get_waiters and self.items:
                get = self._get_waiters.popleft()
                get.succeed(self.items.popleft())
                progress = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Store {self.name!r} level={self.level}/{self.capacity} "
            f"+{len(self._put_waiters)}p/{len(self._get_waiters)}g>"
        )
