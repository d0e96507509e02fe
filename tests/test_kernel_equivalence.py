"""The stamp-based :class:`MatrixArbiter` the cycle kernel uses grants
exactly as the explicit-matrix reference, including its single-request
fast path."""

import random

from repro.sim.arbiters import MatrixArbiter
from tests.reference_arbiters import ReferenceMatrixArbiter


def test_fast_matrix_arbiter_matches_reference():
    rng = random.Random(7)
    size = 5
    ref = ReferenceMatrixArbiter(size)
    fast = MatrixArbiter(size)
    for _ in range(500):
        requests = sorted(rng.sample(range(size),
                                     rng.randrange(1, size + 1)))
        assert ref.grant(requests) == fast.grant(requests)


def test_fast_matrix_arbiter_grant_single_matches_grant():
    rng = random.Random(11)
    size = 4
    ref = MatrixArbiter(size)
    single = MatrixArbiter(size)
    for _ in range(300):
        if rng.random() < 0.5:
            r = rng.randrange(size)
            assert ref.grant([r]) == single.grant_single(r)
        else:
            requests = sorted(rng.sample(range(size),
                                         rng.randrange(1, size + 1)))
            assert ref.grant(requests) == single.grant(requests)
    assert ref._stamp == single._stamp
