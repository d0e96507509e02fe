"""Functional arbiters — the decision logic the power models are hooked to.

Each arbiter picks one winner among requesters.  The policies mirror the
power-model variants of :mod:`repro.power.arbiter`:

* :class:`MatrixArbiter` — least-recently-served, the pairwise priority
  matrix the matrix arbiter power model describes (carried as one
  grant stamp per requester);
* :class:`RoundRobinArbiter` — rotating pointer;
* :class:`QueuingArbiter` — strict FCFS on request arrival order.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Sequence


class Arbiter:
    """Base arbiter over ``size`` requester slots."""

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError(f"arbiter size must be >= 1, got {size}")
        self.size = size
        #: The stamp list when this arbiter is a :class:`MatrixArbiter`
        #: (whose ``grant_single`` is one list store plus a counter bump),
        #: else ``None``.  Hot router call sites test this to
        #: inline the uncontended grant instead of paying a method call:
        #: ``st[v] = arb._next; arb._next += 1`` is exactly
        #: ``grant_single(v)`` minus the bounds check (indices at those
        #: sites are structurally in range).
        self._fstamp: Optional[list] = None

    def grant(self, requests: Sequence[int]) -> Optional[int]:
        """Pick a winner among ``requests`` (requester indices).

        Returns ``None`` when there are no requests.  Updates internal
        priority state when a grant is issued.
        """
        raise NotImplementedError

    def grant_single(self, request: int) -> int:
        """Fast path for the uncontended case: exactly equivalent to
        ``grant([request])`` — same winner, same priority-state update —
        without building the candidate machinery.  Router hot loops
        call this when only one requester is active."""
        raise NotImplementedError

    def reset(self) -> None:
        """Restore construction-time priority state in place.

        Part of the simulation-context reuse contract
        (:meth:`repro.sim.network.Network.reset`): after ``reset()`` the
        arbiter must be grant-for-grant indistinguishable from a freshly
        constructed instance, without reallocating any state that hot
        call sites may have cached (notably ``_fstamp``).
        """
        raise NotImplementedError

    def _check(self, requests: Sequence[int]) -> None:
        for r in requests:
            if not 0 <= r < self.size:
                raise ValueError(
                    f"requester {r} outside 0..{self.size - 1}"
                )


class MatrixArbiter(Arbiter):
    """Least-recently-served arbiter with O(1) grants.

    The hardware is a pairwise priority matrix: requester ``i`` beats
    ``j`` iff ``i < j`` at reset, and a grant moves the winner to the
    bottom against everyone (its row clears, its column sets) — the
    update whose flip-flop energy the matrix arbiter power model
    charges.  That relation stays a total order whose rank is "least
    recently granted first, never-granted by index", so it is carried
    as one integer per requester: never-granted slot ``i`` holds ``i``,
    and each grant restamps the winner with the next value of a
    monotonic counter.  The winner among any request set is the minimum
    stamp — grant for grant the matrix scan (tests/test_arbiters.py
    checks it against an explicit-matrix reference).
    """

    def __init__(self, size: int) -> None:
        super().__init__(size)
        self._stamp = list(range(size))
        self._next = size
        self._fstamp = self._stamp

    def grant(self, requests: Sequence[int]) -> Optional[int]:
        self._check(requests)
        if not requests:
            return None
        stamp = self._stamp
        winner = min(requests, key=stamp.__getitem__)
        stamp[winner] = self._next
        self._next += 1
        return winner

    def grant_single(self, request: int) -> int:
        if not 0 <= request < self.size:
            raise ValueError(
                f"requester {request} outside 0..{self.size - 1}"
            )
        self._stamp[request] = self._next
        self._next += 1
        return request

    def reset(self) -> None:
        # In place: router hot loops alias this list through ``_fstamp``.
        self._stamp[:] = range(self.size)
        self._next = self.size


class RoundRobinArbiter(Arbiter):
    """Rotating-priority arbiter: the pointer moves past each winner."""

    def __init__(self, size: int) -> None:
        super().__init__(size)
        self._pointer = 0

    def grant(self, requests: Sequence[int]) -> Optional[int]:
        self._check(requests)
        if not requests:
            return None
        active = set(requests)
        for offset in range(self.size):
            candidate = (self._pointer + offset) % self.size
            if candidate in active:
                self._pointer = (candidate + 1) % self.size
                return candidate
        return None  # pragma: no cover - active is non-empty

    def grant_single(self, request: int) -> int:
        if not 0 <= request < self.size:
            raise ValueError(
                f"requester {request} outside 0..{self.size - 1}"
            )
        self._pointer = (request + 1) % self.size
        return request

    def reset(self) -> None:
        self._pointer = 0


class QueuingArbiter(Arbiter):
    """First-come-first-served arbiter.

    Requesters join a queue the first round they request; grants pop the
    oldest requester that is still requesting.
    """

    def __init__(self, size: int) -> None:
        super().__init__(size)
        self._queue: Deque[int] = deque()
        self._queued = set()

    def grant(self, requests: Sequence[int]) -> Optional[int]:
        self._check(requests)
        active = set(requests)
        for r in requests:
            if r not in self._queued:
                self._queue.append(r)
                self._queued.add(r)
        # Drop queued requesters that withdrew.
        while self._queue and self._queue[0] not in active:
            stale = self._queue.popleft()
            self._queued.discard(stale)
        if not self._queue:
            return None
        winner = self._queue.popleft()
        self._queued.discard(winner)
        return winner

    def grant_single(self, request: int) -> int:
        if not 0 <= request < self.size:
            raise ValueError(
                f"requester {request} outside 0..{self.size - 1}"
            )
        if request not in self._queued:
            self._queue.append(request)
            self._queued.add(request)
        # Queued requesters ahead of this one have withdrawn (they are
        # not requesting this round) — drop them, exactly as grant()
        # does with a one-element active set.
        while self._queue[0] != request:
            stale = self._queue.popleft()
            self._queued.discard(stale)
        self._queue.popleft()
        self._queued.discard(request)
        return request

    def reset(self) -> None:
        self._queue.clear()
        self._queued.clear()


ARBITER_KINDS = {
    "matrix": MatrixArbiter,
    "round_robin": RoundRobinArbiter,
    "queuing": QueuingArbiter,
}


def make_arbiter(kind: str, size: int) -> Arbiter:
    """Instantiate an arbiter by policy name."""
    try:
        cls = ARBITER_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown arbiter kind {kind!r}; options: {sorted(ARBITER_KINDS)}"
        ) from None
    return cls(size)
