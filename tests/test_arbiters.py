"""Unit tests for the functional arbiters."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.arbiters import (
    MatrixArbiter,
    QueuingArbiter,
    RoundRobinArbiter,
    make_arbiter,
)
from tests.reference_arbiters import ReferenceMatrixArbiter

ALL = [MatrixArbiter, RoundRobinArbiter, QueuingArbiter]


class TestCommon:
    @pytest.mark.parametrize("cls", ALL)
    def test_no_requests_no_grant(self, cls):
        assert cls(4).grant([]) is None

    @pytest.mark.parametrize("cls", ALL)
    def test_single_request_wins(self, cls):
        assert cls(4).grant([2]) == 2

    @pytest.mark.parametrize("cls", ALL)
    def test_winner_among_requesters(self, cls):
        arb = cls(8)
        for _ in range(50):
            winner = arb.grant([1, 3, 5])
            assert winner in (1, 3, 5)

    @pytest.mark.parametrize("cls", ALL)
    def test_rejects_out_of_range(self, cls):
        with pytest.raises(ValueError):
            cls(4).grant([4])
        with pytest.raises(ValueError):
            cls(4).grant([-1])

    @pytest.mark.parametrize("cls", ALL)
    def test_rejects_zero_size(self, cls):
        with pytest.raises(ValueError):
            cls(0)

    @pytest.mark.parametrize("cls", ALL)
    def test_long_run_fairness(self, cls):
        """Under persistent contention every requester gets served —
        within 2x of its fair share over a long run."""
        arb = cls(4)
        wins = {i: 0 for i in range(4)}
        rounds = 400
        for _ in range(rounds):
            wins[arb.grant([0, 1, 2, 3])] += 1
        for i in range(4):
            assert wins[i] >= rounds / 8


class TestMatrix:
    def test_least_recently_served(self):
        arb = MatrixArbiter(3)
        first = arb.grant([0, 1, 2])
        second = arb.grant([0, 1, 2])
        third = arb.grant([0, 1, 2])
        assert {first, second, third} == {0, 1, 2}
        # The cycle repeats: the earliest winner is due again.
        assert arb.grant([0, 1, 2]) == first

    def test_recent_winner_loses_ties(self):
        arb = MatrixArbiter(2)
        w = arb.grant([0, 1])
        other = 1 - w
        assert arb.grant([0, 1]) == other


@st.composite
def matrix_ops(draw):
    """A size and a sequence of grant / grant_single / reset calls."""
    size = draw(st.integers(1, 12))
    requester = st.integers(0, size - 1)
    op = st.one_of(
        st.tuples(st.just("grant"),
                  st.lists(requester, max_size=size, unique=True)),
        st.tuples(st.just("grant_single"), requester),
        st.tuples(st.just("reset"), st.none()),
    )
    return size, draw(st.lists(op, max_size=60))


class TestMatrixMatchesReference:
    """The stamp-based :class:`MatrixArbiter` grants exactly as the
    explicit priority matrix does, call for call."""

    @given(matrix_ops())
    @settings(max_examples=300)
    def test_same_grants(self, case):
        size, ops = case
        fast, ref = MatrixArbiter(size), ReferenceMatrixArbiter(size)
        for name, arg in ops:
            if name == "reset":
                fast.reset()
                ref.reset()
            else:
                assert getattr(fast, name)(arg) == getattr(ref, name)(arg)
        # Same priority order afterwards: the full-contention grant
        # sequence drains both identically.
        everyone = list(range(size))
        assert [fast.grant(everyone) for _ in range(size)] == \
            [ref.grant(everyone) for _ in range(size)]


class TestRoundRobin:
    def test_pointer_rotates(self):
        arb = RoundRobinArbiter(4)
        order = [arb.grant([0, 1, 2, 3]) for _ in range(8)]
        assert order == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_skips_idle_requesters(self):
        arb = RoundRobinArbiter(4)
        assert arb.grant([2]) == 2
        assert arb.grant([0, 1]) == 0  # pointer moved past 2 -> 3 -> 0


class TestQueuing:
    def test_fcfs_order(self):
        arb = QueuingArbiter(4)
        assert arb.grant([2]) == 2         # 2 arrives and wins
        assert arb.grant([0, 3]) in (0, 3)  # 0 and 3 arrive together

    def test_earlier_arrival_wins(self):
        arb = QueuingArbiter(4)
        arb.grant([1, 2])  # both queued; one granted
        # Requester 3 arrives later than the leftover one.
        leftover = {1, 2} - {arb.grant([1, 2, 3])}
        assert 3 in leftover or leftover <= {1, 2}

    def test_withdrawn_requests_dropped(self):
        arb = QueuingArbiter(4)
        arb.grant([1, 2])     # queue: the loser of {1, 2}
        winner = arb.grant([3])  # 1/2 withdrew; 3 must win
        assert winner == 3

    def test_requeue_after_withdrawal(self):
        arb = QueuingArbiter(4)
        first = arb.grant([1, 2])
        arb.grant([3])  # the {1,2} loser withdrew
        assert arb.grant([1]) == 1  # may rejoin later


class TestFactory:
    def test_make_by_name(self):
        assert isinstance(make_arbiter("matrix", 4), MatrixArbiter)
        assert isinstance(make_arbiter("round_robin", 4), RoundRobinArbiter)
        assert isinstance(make_arbiter("queuing", 4), QueuingArbiter)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_arbiter("oracle", 4)
