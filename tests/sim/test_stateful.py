"""Stateful property tests (hypothesis RuleBasedStateMachine)."""

from collections import deque

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.press.cache import CacheDirectory, LruCache
from repro.sim.kernel import Environment
from repro.sim.store import Store, StoreFullError


class StoreMachine(RuleBasedStateMachine):
    """A Store against a model of its item deque and its getter and
    putter FIFOs, under blocking and non-blocking operations.

    The model settles the FIFOs the way the store's general matching
    loop does: admit putters while there is room, then serve getters
    while there are items, until neither moves.  Every event the store
    triggers must be the next one the model triggers, with the model's
    value, and ``env.step()`` must process them in that order.
    """

    def __init__(self):
        super().__init__()
        self.env = Environment()
        self.capacity = 3
        self.store = Store(self.env, capacity=self.capacity)
        self.model = deque()
        self.getters = deque()  # queued StoreGet events
        self.putters = deque()  # queued (StorePut, item)
        self.pending = deque()  # triggered, unprocessed: (event, value)
        self.counter = 0

    def _item(self):
        self.counter += 1
        return self.counter

    def _settle(self):
        progress = True
        while progress:
            progress = False
            while self.putters and len(self.model) < self.capacity:
                put, item = self.putters.popleft()
                self.model.append(item)
                self.pending.append((put, None))
                progress = True
            while self.getters and self.model:
                self.pending.append((self.getters.popleft(),
                                     self.model.popleft()))
                progress = True

    def _room(self):
        return not self.putters and len(self.model) < self.capacity

    @rule()
    def put(self):
        item = self._item()
        if self._room():
            self.store.put_nowait(item)
            self.model.append(item)
            self._settle()
        else:
            try:
                self.store.put_nowait(item)
                raise AssertionError("accepted beyond capacity")
            except StoreFullError:
                pass

    @rule()
    def try_put(self):
        item = self._item()
        room = self._room()
        assert self.store.try_put(item) == room
        if room:
            self.model.append(item)
            self._settle()

    @rule(front=st.booleans())
    def force_put(self, front):
        item = self._item()
        self.store.force_put(item, front=front)
        if front:
            self.model.appendleft(item)
        else:
            self.model.append(item)
        self._settle()

    @rule()
    def blocking_put(self):
        item = self._item()
        self.putters.append((self.store.put(item), item))
        self._settle()

    @rule()
    def blocking_get(self):
        self.getters.append(self.store.get())
        self._settle()

    @precondition(lambda self: self.model)
    @rule()
    def get(self):
        assert self.store.get_nowait() == self.model.popleft()
        self._settle()

    @precondition(lambda self: self.model)
    @rule()
    def peek(self):
        assert self.store.peek() == self.model[0]

    @precondition(lambda self: self.getters)
    @rule(i=st.integers(min_value=0))
    def cancel_get(self, i):
        get = self.getters[i % len(self.getters)]
        get.cancel()
        self.getters.remove(get)

    @precondition(lambda self: self.putters)
    @rule(i=st.integers(min_value=0))
    def cancel_put(self, i):
        entry = self.putters[i % len(self.putters)]
        entry[0].cancel()
        self.putters.remove(entry)

    @precondition(lambda self: self.pending)
    @rule()
    def cancel_triggered(self):
        self.pending[-1][0].cancel()  # a no-op once triggered

    @rule()
    def clear(self):
        dropped = self.store.clear()
        assert dropped == list(self.model)
        self.model.clear()
        self._settle()

    @precondition(lambda self: self.pending)
    @rule()
    def step(self):
        event, value = self.pending.popleft()
        seen = []
        event.callbacks.append(seen.append)
        self.env.step()
        assert seen == [event]
        assert event.processed and event.ok and event.value == value

    @invariant()
    def matches_model(self):
        store = self.store
        assert list(store.items) == list(self.model)
        assert store.level == len(self.model)
        assert store.full == (len(self.model) >= self.capacity)
        assert list(store._get_waiters) == list(self.getters)
        assert list(store._put_waiters) == [p for p, _ in self.putters]
        assert len(self.env._queue) == len(self.pending)
        for event, value in self.pending:
            assert event.triggered and not event.processed
            assert event.value == value
        for event in list(self.getters) + [p for p, _ in self.putters]:
            assert not event.triggered
        # what the fast paths rely on
        assert not store._get_waiters or not store.items
        assert not store._put_waiters or store.full


class CacheDirectoryMachine(RuleBasedStateMachine):
    """Directory forward and inverse indices must stay consistent."""

    nodes = st.integers(min_value=0, max_value=4)
    fids = st.integers(min_value=0, max_value=15)

    def __init__(self):
        super().__init__()
        self.directory = CacheDirectory()
        self.model = set()  # {(node, fid)}

    @rule(node=nodes, fid=fids)
    def add(self, node, fid):
        self.directory.add(node, fid)
        self.model.add((node, fid))

    @rule(node=nodes, fid=fids)
    def remove(self, node, fid):
        self.directory.remove(node, fid)
        self.model.discard((node, fid))

    @rule(node=nodes)
    def drop_node(self, node):
        self.directory.drop_node(node)
        self.model = {(n, f) for n, f in self.model if n != node}

    @rule(node=nodes, fid=fids)
    def replace_node(self, node, fid):
        self.directory.replace_node(node, [fid])
        self.model = {(n, f) for n, f in self.model if n != node}
        self.model.add((node, fid))

    @invariant()
    def indices_consistent(self):
        for fid in range(16):
            expected = {n for n, f in self.model if f == fid}
            assert self.directory.holders(fid) == expected
        for node in range(5):
            expected = sorted(f for n, f in self.model if n == node)
            assert self.directory.files_of(node) == expected


class LruMachine(RuleBasedStateMachine):
    """LRU cache vs an ordered-list model."""

    fids = st.integers(min_value=0, max_value=20)

    def __init__(self):
        super().__init__()
        self.capacity = 4
        self.cache = LruCache(self.capacity)
        self.model = []  # LRU .. MRU

    def _touch(self, fid):
        if fid in self.model:
            self.model.remove(fid)
        self.model.append(fid)
        if len(self.model) > self.capacity:
            return self.model.pop(0)
        return None

    @rule(fid=fids)
    def access(self, fid):
        hit = self.cache.lookup(fid)
        assert hit == (fid in self.model)
        if hit:
            self._touch(fid)
        else:
            evicted = self.cache.insert(fid)
            assert evicted == self._touch(fid)

    @rule(fid=fids)
    def remove(self, fid):
        self.cache.remove(fid)
        if fid in self.model:
            self.model.remove(fid)

    @invariant()
    def contents_match(self):
        assert self.cache.contents() == self.model


TestStoreMachine = StoreMachine.TestCase
TestCacheDirectoryMachine = CacheDirectoryMachine.TestCase
TestLruMachine = LruMachine.TestCase

for case in (TestStoreMachine, TestCacheDirectoryMachine, TestLruMachine):
    case.settings = settings(max_examples=40, stateful_step_count=30,
                             deadline=None)
