"""TCP-like connection semantics: flow control, blocking, reset."""

import pytest

from repro.hardware.host import Host
from repro.net.network import ClusterNetwork
from repro.net.transport import CLOSED, Connection, ConnectionClosed


@pytest.fixture
def setup(env):
    net = ClusterNetwork(env)
    a, b = Host(env, "a", 0), Host(env, "b", 1)
    net.attach(a)
    net.attach(b)
    conn = Connection(env, net, a, b, window=4)
    return net, a, b, conn


class TestDelivery:
    def test_send_recv_in_order(self, env, setup):
        net, a, b, conn = setup
        received = []

        def sender():
            for i in range(5):
                yield from conn.endpoint(a).send(i)

        def receiver():
            while len(received) < 5:
                msg = yield conn.endpoint(b).recv()
                received.append(msg)

        env.process(sender())
        env.process(receiver())
        env.run(until=1)
        assert received == [0, 1, 2, 3, 4]

    def test_window_backpressure(self, env, setup):
        net, a, b, conn = setup
        done = []

        def sender():
            for i in range(6):
                yield from conn.endpoint(a).send(i)
                done.append((env.now, i))

        env.process(sender())
        env.run(until=5)
        # Window of 4: the 5th message blocks until the reader drains.
        assert len(done) == 4

        def reader():
            while True:
                yield conn.endpoint(b).recv()

        env.process(reader())
        env.run(until=10)
        assert len(done) == 6

    def test_send_blocks_while_peer_down(self, env, setup):
        net, a, b, conn = setup
        done = []

        def sender():
            yield from conn.endpoint(a).send("x")
            done.append(env.now)

        b.freeze()
        env.process(sender())
        env.run(until=5)
        assert done == []
        b.unfreeze()
        env.run(until=6)
        assert len(done) == 1

    def test_send_blocks_while_link_down(self, env, setup):
        net, a, b, conn = setup
        done = []

        def sender():
            yield from conn.endpoint(a).send("x")
            done.append(env.now)

        net.link(a).up = False
        env.process(sender())
        env.run(until=3)
        assert done == []
        net.link(a).up = True
        env.run(until=4)
        assert len(done) == 1


class TestReset:
    def test_blocked_sender_aborted(self, env, setup):
        net, a, b, conn = setup
        outcome = []

        def sender():
            b.freeze()
            try:
                yield from conn.endpoint(a).send("x")
                outcome.append("sent")
            except ConnectionClosed:
                outcome.append("closed")

        env.process(sender())
        env.run(until=1)
        conn.reset()
        env.run(until=2)
        assert outcome == ["closed"]

    def test_reader_gets_closed_sentinel(self, env, setup):
        net, a, b, conn = setup
        got = []

        def reader():
            msg = yield conn.endpoint(b).recv()
            got.append(msg)

        env.process(reader())
        env.run(until=1)
        conn.reset()
        env.run(until=2)
        assert got == [CLOSED]

    def test_buffered_data_discarded_on_reset(self, env, setup):
        net, a, b, conn = setup

        def sender():
            yield from conn.endpoint(a).send("data")

        env.process(sender())
        env.run(until=1)
        conn.reset()
        got = []

        def reader():
            msg = yield conn.endpoint(b).recv()
            got.append(msg)

        env.process(reader())
        env.run(until=2)
        assert got == [CLOSED]

    def test_send_after_reset_fails(self, env, setup):
        net, a, b, conn = setup
        conn.reset()
        outcome = []

        def sender():
            try:
                yield from conn.endpoint(a).send("x")
            except ConnectionClosed:
                outcome.append("closed")

        env.process(sender())
        env.run(until=1)
        assert outcome == ["closed"]

    def test_reset_idempotent(self, env, setup):
        _, _, _, conn = setup
        conn.reset()
        conn.reset()

    def test_reset_while_blocked_on_flow_control(self, env, setup):
        net, a, b, conn = setup
        outcome = []

        def sender():
            try:
                for i in range(5):  # window 4, nobody reads: the 5th blocks
                    yield from conn.endpoint(a).send(i)
                outcome.append("sent")
            except ConnectionClosed:
                outcome.append(("closed", env.now))

        env.process(sender())
        env.run(until=1)
        assert outcome == [] and conn.endpoint(b).pending == 4
        conn.reset()
        env.run(until=2)
        assert outcome == [("closed", 1)]
        assert not conn.endpoint(a)._senders

    def test_reset_during_transfer(self, env, setup):
        net, a, b, conn = setup
        size = 250_000_000
        assert net.transfer_time(size) > 1.0
        outcome = []

        def sender():
            try:
                yield from conn.endpoint(a).send("big", size=size)
                outcome.append("sent")
            except ConnectionClosed:
                outcome.append(("closed", env.now))

        env.process(sender())
        env.run(until=0.25)
        assert conn.endpoint(a)._senders
        conn.reset()
        env.run(until=3)  # past where the transfer would have ended
        assert outcome == [("closed", 0.25)]
        assert not conn.endpoint(a)._senders

    def test_reset_withdraws_blocked_sends(self, env):
        """Data of sends still blocked at reset never reaches the reader."""
        net = ClusterNetwork(env)
        a, b = Host(env, "a", 0), Host(env, "b", 1)
        net.attach(a)
        net.attach(b)
        conn = Connection(env, net, a, b, window=1)
        outcome = {}

        def sender(msg):
            try:
                yield from conn.endpoint(a).send(msg)
                outcome[msg] = "sent"
            except ConnectionClosed:
                outcome[msg] = "closed"

        for msg in ("m0", "m1", "m2"):
            env.process(sender(msg))
        env.run(until=1)
        conn.reset()
        got = []

        def reader():
            while True:
                msg = yield conn.endpoint(b).recv()
                got.append(msg)
                if msg is CLOSED:
                    return

        env.process(reader())
        env.run(until=2)
        assert outcome == {"m0": "sent", "m1": "closed", "m2": "closed"}
        assert got == [CLOSED]

    def test_peer_of(self, setup):
        net, a, b, conn = setup
        assert conn.peer_of(a) is b
        assert conn.peer_of(b) is a


class TestSenderOwner:
    """A send runs inside its caller's process, under the caller's owner."""

    SIZE = 250_000_000  # a 2 s transfer: the fault lands mid-transfer

    def _start(self, env, conn, a, owner, done):
        def sender():
            yield from conn.endpoint(a).send("x", size=self.SIZE)
            done.append(env.now)

        env.process(sender(), owner=owner)

    def test_frozen_sender_delivers_after_thaw(self, env, setup):
        net, a, b, conn = setup
        group = a.add_group("app")
        done = []
        self._start(env, conn, a, group, done)
        env.run(until=0.25)
        group.freeze()
        env.run(until=5)  # the transfer finished while frozen
        assert done == [] and conn.endpoint(b).pending == 0
        group.thaw(env)
        env.run(until=6)
        assert done == [5] and conn.endpoint(b).pending == 1

    def test_crashed_sender_delivers_nothing(self, env, setup):
        net, a, b, conn = setup
        group = a.add_group("app")
        done = []
        self._start(env, conn, a, group, done)
        env.run(until=0.25)
        group.crash()
        env.run(until=5)
        assert done == [] and conn.endpoint(b).pending == 0
        assert not conn.endpoint(a)._senders

    def test_reset_of_frozen_sender_after_its_put_was_admitted(self, env,
                                                                setup):
        """The admission and the reset interrupt are both parked while
        frozen; on thaw the sender leaves by ConnectionClosed and the
        interrupt finds it gone, not waiting on its next message."""
        net, a, b, conn = setup
        group = a.add_group("app")
        queue = [f"m{i}" for i in range(5)]  # window 4: m4 blocks
        log = []

        def send_loop():
            while queue:
                msg = queue.pop(0)
                try:
                    yield from conn.endpoint(a).send(msg)
                except ConnectionClosed:
                    log.append(("closed", msg))
                    return
                log.append(("sent", msg))
                yield env.timeout(1.0)  # the next message's wait

        env.process(send_loop(), owner=group)
        env.run(until=10)
        assert log[-1] == ("sent", "m3") and conn.endpoint(b).pending == 4
        group.freeze()

        def reader():
            yield conn.endpoint(b).recv()  # admits the blocked m4

        env.process(reader())
        env.run(until=11)
        conn.reset()
        env.run(until=12)  # the interrupt parks behind the admission
        group.thaw(env)
        env.run(until=20)  # must not raise an unhandled Interrupt
        assert log[-1] == ("closed", "m4")
        assert not conn.endpoint(a)._senders

