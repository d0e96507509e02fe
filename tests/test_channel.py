"""Unit tests for the inter-router channel."""

from types import SimpleNamespace

import pytest

from repro.sim.message import Packet
from repro.sim.routers.base import Channel


def endpoint(node):
    """The router fields a channel's notifiers touch."""
    return SimpleNamespace(node=node, _pending_in=0, _pending_credit=0)


def channel(active=None):
    """Node 0 port 0 -> node 1 port 1."""
    return Channel(endpoint(0), 0, endpoint(1), 1,
                   set() if active is None else active)


def flit():
    return Packet(packet_id=0, src=0, dst=1, length_flits=1,
                  creation_cycle=0, route=[4]).make_flits()[0]


class TestDataPath:
    def test_flit_round_trip(self):
        ch = channel()
        f = flit()
        ch.send_flit(f)
        assert ch.busy
        assert ch.take_flit() is f
        assert not ch.busy

    def test_empty_take_returns_none(self):
        assert channel().take_flit() is None

    def test_single_flit_bandwidth(self):
        """One flit per cycle: a second send before the take is a
        protocol violation."""
        ch = channel()
        ch.send_flit(flit())
        with pytest.raises(RuntimeError):
            ch.send_flit(flit())

    def test_take_clears_slot_for_next_cycle(self):
        ch = channel()
        ch.send_flit(flit())
        ch.take_flit()
        ch.send_flit(flit())  # no error


class TestCreditPath:
    def test_credits_drain_in_order(self):
        ch = channel()
        ch.send_credit(2)
        ch.send_credit(0)
        assert ch.take_credits() == [2, 0]
        assert ch.take_credits() == []

    def test_credits_and_data_are_independent(self):
        ch = channel()
        ch.send_flit(flit())
        ch.send_credit(1)
        assert ch.take_credits() == [1]
        assert ch.busy


class TestNotifiers:
    def test_flit_marks_downstream_pending_and_active(self):
        active = set()
        ch = channel(active)
        ch.send_flit(flit())
        assert ch.flit_router._pending_in == 1 << 1
        assert ch.credit_router._pending_credit == 0
        assert active == {1}

    def test_credit_marks_upstream_pending_and_active(self):
        active = set()
        ch = channel(active)
        ch.send_credit(0)
        assert ch.credit_router._pending_credit == 1 << 0
        assert ch.flit_router._pending_in == 0
        assert active == {0}
