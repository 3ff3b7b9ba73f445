"""The client side of the wire that both queriers share.

:class:`~repro.replay.querier.ClientWire` precompiles query wire per
question and memoizes the last response decode; the sim querier indexes
pending UDP ids per source.  Each shortcut must be invisible: the bytes
on the wire, every response verdict, and every id allocation are what
the full build/parse path produced.
"""

import asyncio
import gc
import logging

import pytest

from repro.dns.constants import EDNS_COOKIE, Flag, RRClass, RRType
from repro.dns.message import (Edns, Message, encode_edns_option,
                               get_edns_option)
from repro.dns.wire import WireError
from repro.experiments.harness import authoritative_world, wildcard_zone
from repro.netsim import LinkParams, Simulator
from repro.replay import Querier, ReplayConfig, ReplayEngine
from repro.replay.backends import LiveBackend, LiveReplayConfig
from repro.replay.backends.live import LiveQuerier
from repro.replay.querier import QUERY_WIRE_CACHE_SIZE, ClientWire
from repro.server import AuthoritativeServer
from repro.server.overload import CookieConfig, OverloadConfig, client_cookie
from repro.server.responder import DnsResponder
from repro.trace.binaryform import binary_to_trace, trace_to_binary
from repro.trace.record import QueryRecord, Trace
from repro.trace.textform import text_to_trace, trace_to_text

from tests.server.helpers import make_example_zone

SRC = "10.9.0.1"


def record(qname="www.example.com.", **fields) -> QueryRecord:
    return QueryRecord(time=0.0, src=SRC, qname=qname, **fields)


def full_wire(rec: QueryRecord, msg_id: int) -> bytes:
    message = rec.to_message()
    message.msg_id = msg_id
    return message.to_wire()


def answer_wire(msg_id: int, qname="www.example.com.") -> bytes:
    """A real response from the shared answering core."""
    responder = DnsResponder(zones=[make_example_zone()])
    return responder.reply_wire("udp", full_wire(record(qname), msg_id),
                                SRC, 5353)


# -- precompiled query wire ---------------------------------------------------


@pytest.mark.parametrize("rec", [
    record(),
    record(qtype=RRType.AAAA, rd=True),
    record(do=True),
    record(edns_payload=1232),
    record("version.bind.", qtype=RRType.TXT, qclass=RRClass.CH),
], ids=["plain", "aaaa-rd", "do", "edns", "chaos"])
def test_query_wire_is_the_full_encoding_with_the_id_patched(rec):
    wire = ClientWire()
    for msg_id in (0, 1, 0xBEEF, 0xFFFF):
        assert wire.query(rec, msg_id) == full_wire(rec, msg_id)
    assert len(wire.query_wires) == 1


def test_query_wire_memo_keys_on_the_question_class():
    wire = ClientWire()
    chaos = record("version.bind.", qtype=RRType.TXT, qclass=RRClass.CH)
    internet = chaos.with_(qclass=RRClass.IN)
    wire.query(chaos, 1)
    assert Message.from_wire(wire.query(internet, 2)).question.qclass \
        == RRClass.IN
    assert Message.from_wire(wire.query(chaos, 3)).question.qclass \
        == RRClass.CH


def test_query_wire_memo_never_grows_past_its_bound():
    wire = ClientWire()
    total = QUERY_WIRE_CACHE_SIZE + 300
    for i in range(total):
        rec = record(f"q{i}.example.com.")
        assert wire.query(rec, i & 0xFFFF) == full_wire(rec, i & 0xFFFF)
        assert len(wire.query_wires) <= QUERY_WIRE_CACHE_SIZE
    assert len(wire.query_wires) == QUERY_WIRE_CACHE_SIZE
    # FIFO: the oldest questions went first, the newest are kept.
    names = [key[0] for key in wire.query_wires]
    assert names[0] == f"q{total - QUERY_WIRE_CACHE_SIZE}.example.com."
    assert names[-1] == f"q{total - 1}.example.com."


def test_queriers_of_one_replay_share_one_query_table():
    world = authoritative_world([wildcard_zone()], seed=2)
    world.run(Trace([record(f"n{i}.example.com.").with_(
        time=i * 0.01, src=f"10.9.0.{i}") for i in range(12)]))
    tables = {id(q.wire.query_wires) for q in world.engine.queriers}
    assert len(tables) == 1
    assert len(world.engine.queriers[0].wire.query_wires) == 12


def test_cookie_queries_bypass_the_memo_and_learn_server_cookies():
    wire = ClientWire(cookies=True)
    rec = record()
    first = Message.from_wire(wire.query(rec, 1))
    assert get_edns_option(first.edns.options, EDNS_COOKIE) \
        == client_cookie(SRC)
    assert not wire.query_wires
    server_cookie = bytes(range(16))
    wire.learn(SRC, Edns(options=encode_edns_option(
        EDNS_COOKIE, client_cookie(SRC) + server_cookie)))
    second = Message.from_wire(wire.query(rec, 2))
    assert get_edns_option(second.edns.options, EDNS_COOKIE) \
        == client_cookie(SRC) + server_cookie
    assert not wire.query_wires


def test_cookie_replay_still_attaches_and_learns_cookies():
    world = authoritative_world(
        [wildcard_zone()], client_instances=1, queriers_per_instance=2,
        overload=OverloadConfig(cookies=CookieConfig()), cookies=True,
        seed=5)
    result = world.run(Trace([
        QueryRecord(time=i * 0.01, src=f"10.9.{i % 3}.7",
                    qname=f"q{i % 2}.example.com.") for i in range(30)]))
    assert result.report.answered_fraction() == 1.0
    # Every source's second and later queries echo a learned server
    # cookie, which the server validates.
    assert world.server.cookies_validated == 30 - 3
    for querier in world.engine.queriers:
        assert not querier.wire.query_wires
        assert querier.wire.server_cookies


# -- memoized response decode -------------------------------------------------


def counting_parser(monkeypatch) -> list:
    calls = []
    real = Message.from_wire

    def from_wire(data):
        calls.append(data)
        return real(data)
    monkeypatch.setattr(Message, "from_wire", from_wire)
    return calls


def test_decode_matches_the_full_parser():
    wire = ClientWire()
    payload = answer_wire(0x1234)
    message = Message.from_wire(payload)
    assert wire.decode_response(payload) == (
        0x1234, message.flags, message.rcode, message.edns)


def test_same_tail_other_id_reuses_the_decode(monkeypatch):
    wire = ClientWire()
    first, second = answer_wire(7), answer_wire(8)
    other = answer_wire(9, qname="mail.example.com.")
    assert first[2:] == second[2:]
    calls = counting_parser(monkeypatch)
    id1, *rest1 = wire.decode_response(first)
    id2, *rest2 = wire.decode_response(second)
    assert (id1, id2) == (7, 8)
    assert rest1 == rest2
    assert len(calls) == 1
    # A different answer is parsed afresh and replaces the entry.
    assert wire.decode_response(other)[0] == 9
    assert len(calls) == 2


def test_malformed_after_a_cached_answer_still_raises():
    wire = ClientWire()
    good = answer_wire(3)
    wire.decode_response(good)
    for junk in (b"", b"\x00", good[:2] + b"junk", good[:11],
                 b"\x00\x04" + good[2:-1]):
        with pytest.raises(WireError):
            Message.from_wire(junk)
        with pytest.raises(WireError):
            wire.decode_response(junk)
    # Failures are not memoized: the good entry still answers.
    assert wire.decode_response(good)[0] == 3


def test_decode_keeps_the_edns_extended_rcode():
    payload = Message(msg_id=5, flags=Flag.QR,
                      edns=Edns(ext_rcode=1)).to_wire()
    assert Message.from_wire(payload).rcode == 16        # BADVERS
    wire = ClientWire()
    assert wire.decode_response(payload)[2] == 16
    assert wire.decode_response(b"\x00\x06" + payload[2:])[2] == 16


def test_sim_querier_counts_malformed_after_cached_answer():
    sim = Simulator(observe=True)
    server_host = sim.add_host("server", ["10.0.0.2"], LinkParams())
    sock = server_host.udp_socket(53)
    responder = DnsResponder(zones=[make_example_zone()])

    def answer_then_junk(payload, src, sport):
        sock.sendto(responder.reply_wire("udp", payload, src, sport),
                    src, sport)
        sock.sendto(payload[:2] + b"junk", src, sport)
    sock.on_datagram = answer_then_junk
    client = sim.add_host("client", ["10.0.0.1"], LinkParams())
    querier = Querier(client, "10.0.0.2")
    querier.timer.sync(0.0, sim.now)
    querier.handle_record_fast(record())
    sim.run_until_idle()
    assert querier.results[0].answered
    assert querier.malformed == 1
    assert sim.observer.metrics.snapshot()[
        "replay.malformed_responses"] == 1


def test_live_querier_counts_malformed_after_cached_answer():
    querier = LiveQuerier("q", "127.0.0.1", 53)
    good = answer_wire(1)
    querier._udp.datagram_received(good, None)
    querier._udp.datagram_received(b"\x00\x02" + good[2:], None)  # memo hit
    querier._udp.datagram_received(good[:2] + b"junk", None)
    assert querier.malformed == 1


# -- per-source pending ids ---------------------------------------------------


def blackholed_querier():
    sim = Simulator()
    sim.add_host("server", ["10.0.0.2"], LinkParams())  # no DNS app
    client = sim.add_host("client", ["10.0.0.1"], LinkParams())
    querier = Querier(client, "10.0.0.2")
    querier.timer.sync(0.0, sim.now)
    return sim, querier


def test_id_pending_on_one_source_does_not_block_another():
    sim, querier = blackholed_querier()
    a = record().with_(src="172.16.0.1")
    b = record().with_(src="172.16.0.2")
    querier.handle_record_fast(a)
    sim.run_until_idle()
    assert 1 in querier._taken_ids(a)
    assert 1 not in querier._taken_ids(b)
    querier._msg_seq = 0                # the next id would be 1 again
    querier.handle_record_fast(b)
    sim.run_until_idle()
    assert {pending.result.record.src: list(table)
            for table in querier.pending.values()
            for pending in table.values()} \
        == {"172.16.0.1": [1], "172.16.0.2": [1]}
    assert querier.pending_count() == 2
    querier.crash()
    assert querier.failed_over == 2
    assert querier.pending_count() == 0


# -- qclass survives the trace forms and the replay ---------------------------


def test_chaos_record_replays_as_class_ch():
    chaos = QueryRecord(time=0.0, src="10.9.0.1", qname="version.bind.",
                        qtype=RRType.TXT, qclass=RRClass.CH)
    internet = chaos.with_(time=0.01, qclass=RRClass.IN)
    trace = text_to_trace(trace_to_text(Trace([chaos, internet])))
    trace = binary_to_trace(trace_to_binary(trace))
    assert [r.qclass for r in trace] == [RRClass.CH, RRClass.IN]
    sim = Simulator()
    server_host = sim.add_host("server", ["10.0.0.2"], LinkParams())
    server = AuthoritativeServer(server_host, zones=[make_example_zone()],
                                 log_queries=True)
    engine = ReplayEngine(sim, "10.0.0.2", ReplayConfig(
        client_instances=1, queriers_per_instance=1, mode="direct",
        seed=1))
    engine.run(trace)
    assert [(e.qname.to_text(), e.qclass) for e in server.query_log] \
        == [("version.bind.", RRClass.CH), ("version.bind.", RRClass.IN)]


# -- live pump tasks ----------------------------------------------------------


@pytest.mark.parametrize("cap", [1, 64], ids=["evicting", "racing"])
def test_live_reaps_every_pump_task(monkeypatch, caplog, cap):
    """Two TCP sources whose queries all start at once.  With one
    connection slot, every connect evicts the other source's channel;
    with room for both, a source's concurrent first queries race to
    connect.  Either way every reader pump must be finished when the
    querier closes, not left for the garbage collector to find
    pending."""
    pumps: list[asyncio.Task] = []
    pending_at_close: list[int] = []
    real_pump, real_close = (LiveQuerier._pump_channel,
                             LiveQuerier._aclose)

    async def pump(self, channel):
        pumps.append(asyncio.current_task())
        await real_pump(self, channel)

    async def aclose(self):
        await real_close(self)
        pending_at_close.append(sum(not task.done() for task in pumps))
    monkeypatch.setattr(LiveQuerier, "_pump_channel", pump)
    monkeypatch.setattr(LiveQuerier, "_aclose", aclose)
    trace = Trace([QueryRecord(time=0.0, src=f"10.9.0.{i % 2}",
                               qname="www.example.com.", proto="tcp")
                   for i in range(16)])
    backend = LiveBackend([make_example_zone()], config=ReplayConfig(
        backend="live", client_instances=1, queriers_per_instance=1,
        fast=True, live=LiveReplayConfig(
            tcp_connection_cap=cap, query_timeout=0.5,
            run_deadline=60.0)))
    with caplog.at_level(logging.ERROR, logger="asyncio"):
        report = backend.run(trace)
        del pumps[:]
        gc.collect()
    assert len(report.results) == 16
    assert backend.server.established >= 2
    if cap > 1:
        # The race's losers closed, the winners carried every query.
        assert report.answered_fraction() == 1.0
    assert pending_at_close == [0]
    assert "Task was destroyed" not in caplog.text
