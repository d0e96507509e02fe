"""Reference arbiters the simulator's fast implementations are checked
against."""

from typing import Optional, Sequence

from repro.sim.arbiters import Arbiter


class ReferenceMatrixArbiter(Arbiter):
    """Least-recently-served arbiter with an explicit pairwise priority
    matrix — the hardware the matrix arbiter power model describes.

    ``self._pri[i][j]`` is True when requester ``i`` beats ``j``.  After
    a grant, the winner loses priority against everyone (its row clears,
    its column sets).
    """

    def __init__(self, size: int) -> None:
        super().__init__(size)
        self._pri = [[i < j for j in range(size)] for i in range(size)]

    def grant(self, requests: Sequence[int]) -> Optional[int]:
        self._check(requests)
        if not requests:
            return None
        active = set(requests)
        winner = next(i for i in active
                      if all(self._pri[i][j] for j in active if j != i))
        return self.grant_single(winner)

    def grant_single(self, request: int) -> int:
        self._check([request])
        pri = self._pri
        for j in range(self.size):
            if j != request:
                pri[request][j] = False
                pri[j][request] = True
        return request

    def reset(self) -> None:
        for i, row in enumerate(self._pri):
            for j in range(self.size):
                row[j] = i < j
