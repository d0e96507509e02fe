"""Unit tests for the inter-router channel.

Routers drain a channel in their arrival phase by reading its ``_flit``
and ``_credits`` fields directly; the round-trip tests drain through a
real router's arrival phase.
"""

from types import SimpleNamespace

import pytest

from repro.sim.message import Packet
from repro.sim.network import Network
from repro.sim.routers.base import Channel
from repro.sim.topology import NORTH, SOUTH

from tests.conftest import small_config


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


def wired(kind="vc"):
    """A real channel (node 0 north output) and its two routers."""
    network = Network(small_config(kind, num_vcs=3) if kind == "vc"
                      else small_config(kind))
    ch = network.routers[0].out_channels[NORTH]
    return ch, ch.credit_router, ch.flit_router


class TestDataPath:
    def test_flit_round_trip(self):
        ch, _, downstream = wired("wormhole")
        f = flit()
        ch.send_flit(f)
        assert ch.busy
        downstream.arrival_phase(1)
        assert list(downstream.fifos[SOUTH]) == [f]
        assert not ch.busy

    def test_empty_take_returns_none(self):
        """Draining an idle channel moves nothing."""
        ch, _, downstream = wired("wormhole")
        downstream._pending_in |= ch.flit_bit
        downstream.arrival_phase(1)
        assert downstream.buffered_flits() == 0
        assert not ch.busy

    def test_single_flit_bandwidth(self):
        """One flit per cycle: a second send before the take is a
        protocol violation."""
        ch = channel()
        ch.send_flit(flit())
        with pytest.raises(RuntimeError):
            ch.send_flit(flit())

    def test_take_clears_slot_for_next_cycle(self):
        ch, _, downstream = wired("wormhole")
        ch.send_flit(flit())
        downstream.arrival_phase(1)
        ch.send_flit(flit())  # no error


class TestCreditPath:
    def test_credits_drain_in_order(self):
        ch, upstream, _ = wired()
        credits = upstream.out_credits[NORTH]
        credits[2] -= 1
        credits[0] -= 1
        ch.send_credit(2)
        ch.send_credit(0)
        assert ch._credits == [2, 0]
        upstream.arrival_phase(1)
        assert ch._credits == []
        assert credits == [upstream.vc_depth] * 3

    def test_credits_and_data_are_independent(self):
        ch, upstream, _ = wired()
        upstream.out_credits[NORTH][1] -= 1
        ch.send_flit(flit())
        ch.send_credit(1)
        upstream.arrival_phase(1)
        assert ch._credits == []
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
