"""The query state machine both queriers share, driven with no I/O.

A recording fake driver stands in for the transports: channels are
strings, transmits and timers are appended to lists, and the test
decides when a timer fires or a channel dies.  Every case ends with
the same invariant check the replay engines run.
"""

from types import SimpleNamespace

import pytest

from repro.check.invariants import verify_queriers
from repro.dns.constants import Flag
from repro.dns.message import Message
from repro.obs import Observer
from repro.replay.querier import ClientWire, QueryCore, ResilienceConfig
from repro.trace.record import QueryRecord

RETRY = ResilienceConfig(timeout=2.0, max_retries=3, backoff=2.0)
SRC = "172.16.0.1"


class FakeTimer:
    def __init__(self, delay, pending):
        self.delay = delay
        self.pending = pending
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class FakeDriver(QueryCore):
    """Records every action the core asks of its transport."""

    def __init__(self, resilience=RETRY, strand_after=None):
        super().__init__("fake", resilience, ClientWire())
        self.strand_after = strand_after
        self.clock = SimpleNamespace(now=0.0, obs=None)
        self.channels = {}          # (src, proto) -> channel key
        self.opened = []
        self.wires = []             # (channel key, wire) per transmit
        self.timers = []
        self.stalled = []
        self.settled = 0

    def _channel(self, src, proto):
        return self.channels.get((src, proto))

    def _open(self, src, proto):
        key = self.channels.get((src, proto))
        if key is None:
            key = f"{proto}:{src}#{len(self.opened)}"
            self.channels[(src, proto)] = key
            self.opened.append(key)
        return key

    def _transmit(self, key, wire):
        self.wires.append((key, wire))

    def _arm(self, delay, pending):
        timer = FakeTimer(delay, pending)
        self.timers.append(timer)
        return timer

    def _stalled(self, key):
        self.stalled.append(key)

    def _settled(self):
        self.settled += 1

    # -- test controls -------------------------------------------------

    def send(self, proto="udp", qname="www.example.com."):
        self.start(QueryRecord(time=0.0, src=SRC, qname=qname,
                               proto=proto), self.clock.now)
        return self.results[-1]

    def fire(self):
        """Fire the most recently armed live timer."""
        timer = next(t for t in reversed(self.timers) if not t.cancelled)
        timer.cancelled = True          # fired: a late cancel is moot
        self.on_timer(timer.pending)

    def lose(self, proto, resend):
        self.channel_lost(self.channels.pop((SRC, proto)), resend)

    def live_timers(self):
        return [t for t in self.timers if not t.cancelled]


def answer(msg_id, tc=False):
    return Message(msg_id=msg_id,
                   flags=Flag.QR | (Flag.TC if tc else 0)).to_wire()


def msg_id_of(wire):
    return int.from_bytes(wire[:2], "big")


def verified(core):
    verify_queriers([core], expected_results=len(core.results))
    assert core.settled == sum(1 for r in core.results
                               if r.answered or r.timed_out
                               or r.failed_over) \
        + core.unanswered_at_close


def test_udp_retransmits_same_id_with_backoff():
    core = FakeDriver()
    result = core.send()
    key, wire = core.wires[0]
    for _ in range(2):
        core.fire()
    assert core.wires == [(key, wire)] * 3        # same datagram, same id
    assert [t.delay for t in core.timers] == [2.0, 4.0, 8.0]
    assert result.attempts == 3 and core.retransmits == 2
    core.clock.now = 7.0
    core.on_response(key, answer(msg_id_of(wire)))
    assert result.latency == 7.0 and core.recovered == 1
    assert core.live_timers() == []
    # A second query exhausts the policy: 1 + max_retries sends.
    lost = core.send()
    for _ in range(4):
        core.fire()
    assert lost.timed_out and lost.attempts == 4
    assert [t.delay for t in core.timers[3:]] == [2.0, 4.0, 8.0, 16.0]
    assert core.timeouts == 1 and core.stalled == []
    assert core.pending_count() == 0
    verified(core)


def test_tc_falls_back_to_tcp_and_reids_a_busy_id():
    core = FakeDriver()
    on_tcp = core.send("tcp")                     # holds id 1 on TCP
    core._msg_seq = 0                             # the UDP query gets 1 too
    truncated = core.send("udp")
    udp_key, udp_wire = core.wires[-1]
    assert msg_id_of(udp_wire) == 1
    core.on_response(udp_key, answer(1, tc=True))
    tcp_key, tcp_wire = core.wires[-1]
    assert tcp_key == core.channels[(SRC, "tcp")]
    assert msg_id_of(tcp_wire) == 2 and tcp_wire[2:] == udp_wire[2:]
    assert truncated.fell_back and core.tcp_fallbacks == 1
    assert core.timers[1].cancelled               # the UDP wait is over
    core.on_response(tcp_key, answer(2))
    core.on_response(tcp_key, answer(1))
    assert truncated.answered and on_tcp.answered
    assert core.recovered == 1                    # the fallback only
    verified(core)


def test_late_udp_answer_after_fallback_is_ignored():
    core = FakeDriver()
    result = core.send()
    udp_key = core.wires[0][0]
    core.on_response(udp_key, answer(1, tc=True))
    tcp_key = core.wires[-1][0]
    core.clock.now = 0.03                          # a duplicate datagram
    core.on_response(udp_key, answer(1, tc=True))
    assert not result.answered and core.pending_count() == 1
    core.clock.now = 0.15
    reply = answer(1)
    core.on_response(tcp_key, reply)
    assert result.latency == 0.15
    assert result.response_size == len(reply)
    verified(core)


def test_stream_close_resends_once_then_times_out():
    core = FakeDriver()
    result = core.send("tcp")
    first, wire = core.wires[0]
    core.lose("tcp", resend=True)
    fresh, resent = core.wires[-1]
    assert fresh != first and resent == wire
    assert core.opened == [first, fresh]
    assert result.attempts == 2 and core.reconnects == 1
    assert core.timers[0].cancelled
    assert core.live_timers()[0].delay == RETRY.wait_for(2)
    core.lose("tcp", resend=True)                  # the reconnect is spent
    assert result.timed_out and core.timeouts == 1
    assert len(core.opened) == 2 and core.live_timers() == []
    verified(core)


def test_stream_timeout_reports_a_stalled_channel():
    core = FakeDriver()
    result = core.send("tcp")
    core.fire()
    assert result.timed_out and result.attempts == 1
    assert core.stalled == [core.channels[(SRC, "tcp")]]
    verified(core)


def test_quic_close_does_not_reconnect():
    core = FakeDriver()
    result = core.send("quic")
    core.lose("quic", resend=False)
    assert result.timed_out and core.reconnects == 0
    assert len(core.opened) == 1 and len(core.wires) == 1
    verified(core)


def test_crash_fails_over_every_pending_query_and_cancels_timers():
    core = FakeDriver()
    results = [core.send(proto) for proto in ("udp", "tcp", "quic")]
    core.crash()
    assert all(r.failed_over for r in results)
    assert core.failed_over == 3 and core.pending_count() == 0
    assert core.live_timers() == []
    core.on_response(core.wires[0][0], answer(1))  # lost with the process
    assert not results[0].answered
    verified(core)


def test_malformed_response_is_counted_once():
    core = FakeDriver()
    core.clock.obs = Observer()
    result = core.send()
    key = core.wires[0][0]
    good = answer(1)
    core.on_response(key, good)
    core.on_response(key, good[:2] + b"junk")
    core.on_response(key, answer(7))               # no such query
    assert result.answered
    assert core.malformed == 1
    snapshot = core.clock.obs.metrics.snapshot()
    assert snapshot["replay.malformed_responses"] == 1
    verified(core)


@pytest.mark.parametrize("strand_after", [None, 5.0],
                         ids=["at-close", "after-wait"])
def test_unresilient_strand_counts_unanswered_at_close(strand_after):
    core = FakeDriver(resilience=None, strand_after=strand_after)
    result = core.send("tcp")
    if strand_after is None:
        assert core.timers == []                   # waits for its channel
        core.lose("tcp", resend=True)
    else:
        assert core.timers[0].delay == strand_after
        core.fire()
    assert not result.timed_out and not result.answered
    assert core.unanswered_at_close == 1 and core.reconnects == 0
    assert core.pending_count() == 0
    verified(core)
