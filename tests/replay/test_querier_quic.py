"""Tests for DNS-over-QUIC replay through the querier."""

import pytest

from repro.netsim import LinkParams, Simulator
from repro.replay.querier import Querier
from repro.server import AuthoritativeServer
from repro.trace.record import QueryRecord

from tests.server.helpers import make_example_zone


def build(delay=0.040, timeout=20.0):
    sim = Simulator()
    server_host = sim.add_host("server", ["10.0.0.2"],
                               LinkParams(delay=delay / 2))
    client_host = sim.add_host("client", ["10.0.0.1"],
                               LinkParams(delay=delay / 2))
    server = AuthoritativeServer(server_host, zones=[make_example_zone()],
                                 tcp_idle_timeout=timeout,
                                 log_queries=True)
    querier = Querier(client_host, "10.0.0.2")
    querier.timer.sync(0.0, sim.now)
    return sim, querier, server


def rec(t, src="a", qname="www.example.com."):
    return QueryRecord(time=t, src=src, qname=qname, proto="quic")


def test_quic_query_answered():
    sim, querier, server = build()
    querier.handle_record(rec(0.0))
    sim.run_until_idle()
    assert querier.results[0].answered
    assert server.query_log[0].proto == "quic"


def test_fresh_quic_costs_two_rtt():
    # delay is one-way, so the RTT is 0.080: fresh QUIC = 2 RTT = 0.160.
    sim, querier, server = build(delay=0.040)
    querier.handle_record(rec(0.0))
    sim.run_until_idle()
    assert querier.results[0].latency == pytest.approx(0.160, rel=0.1)


def test_quic_connection_reused_one_rtt():
    sim, querier, server = build(delay=0.040)
    querier.handle_record(rec(0.0))
    querier.handle_record(rec(1.0, qname="mail.example.com."))
    sim.run(until=10.0)
    # Warm connection: 1 RTT (= 2 * one-way delay).
    assert querier.results[1].latency == pytest.approx(0.080, rel=0.1)


def test_zero_rtt_reconnect_after_idle_close():
    sim, querier, server = build(delay=0.040, timeout=2.0)
    querier.handle_record(rec(0.0))
    # Reconnect after the server's idle close: the session ticket makes
    # the second fresh connection a 1-RTT exchange.
    querier.handle_record(rec(10.0, qname="mail.example.com."))
    sim.run(until=30.0)
    assert all(r.answered for r in querier.results)
    assert querier.results[0].latency == pytest.approx(0.160, rel=0.1)
    assert querier.results[1].latency == pytest.approx(0.080, rel=0.1)


def test_quic_faster_than_tls_for_fresh_queries():
    sim, querier, server = build(delay=0.040)
    querier.handle_record(QueryRecord(time=0.0, src="q",
                                      qname="www.example.com.",
                                      proto="quic"))
    querier.handle_record(QueryRecord(time=0.0, src="t",
                                      qname="mail.example.com.",
                                      proto="tls"))
    sim.run(until=10.0)
    by_proto = {r.record.proto: r for r in querier.results}
    assert by_proto["quic"].latency < by_proto["tls"].latency * 0.6


def test_different_sources_different_quic_connections():
    sim, querier, server = build()
    querier.handle_record(rec(0.0, src="a"))
    querier.handle_record(rec(0.0, src="b",
                              qname="mail.example.com."))
    sim.run(until=5.0)
    assert len(querier.pending) == 2        # one channel per source
    assert all(r.answered for r in querier.results)
