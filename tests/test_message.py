"""Unit tests for packets and flits."""

import pytest

from repro.sim.message import FlitType, Packet


def packet(length=5, pid=0):
    return Packet(packet_id=pid, src=0, dst=5, length_flits=length,
                  creation_cycle=10, route=[0, 2, 4])


class TestSegmentation:
    def test_five_flit_packet_structure(self):
        flits = packet(5).make_flits()
        assert [f.ftype for f in flits] == [
            FlitType.HEAD, FlitType.BODY, FlitType.BODY, FlitType.BODY,
            FlitType.TAIL]

    def test_two_flit_packet_has_no_body(self):
        flits = packet(2).make_flits()
        assert [f.ftype for f in flits] == [FlitType.HEAD, FlitType.TAIL]

    def test_single_flit_packet_is_head_tail(self):
        (flit,) = packet(1).make_flits()
        assert flit.ftype == FlitType.HEAD_TAIL
        assert flit.is_head and flit.is_tail

    def test_sequence_numbers(self):
        flits = packet(4).make_flits()
        assert [f.seq for f in flits] == [0, 1, 2, 3]

    def test_payloads_attached(self):
        flits = packet(3).make_flits(payloads=[1, 2, 3])
        assert [f.payload for f in flits] == [1, 2, 3]

    def test_payload_count_must_match(self):
        with pytest.raises(ValueError):
            packet(3).make_flits(payloads=[1, 2])

    def test_rejects_empty_packet(self):
        p = packet(5)
        p.length_flits = 0
        with pytest.raises(ValueError):
            p.make_flits()


class TestFlitTypes:
    def test_head_predicates(self):
        assert FlitType.HEAD.is_head and not FlitType.HEAD.is_tail
        assert FlitType.TAIL.is_tail and not FlitType.TAIL.is_head
        assert not FlitType.BODY.is_head and not FlitType.BODY.is_tail
        assert FlitType.HEAD_TAIL.is_head and FlitType.HEAD_TAIL.is_tail


class TestRouting:
    def test_head_consults_route_by_index(self):
        p = packet()
        head = p.make_flits()[0]
        assert head.next_output_port() == 0
        head.route_idx = 2
        assert head.next_output_port() == 4

    def test_route_exhaustion_raises(self):
        p = packet()
        head = p.make_flits()[0]
        head.route_idx = 3
        with pytest.raises(IndexError):
            head.next_output_port()


class TestLatency:
    def test_latency_spans_creation_to_ejection(self):
        p = packet()
        p.eject_cycle = 42
        assert p.latency == 32

    def test_latency_before_ejection_raises(self):
        with pytest.raises(ValueError):
            packet().latency
