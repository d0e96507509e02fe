"""Source dimension-ordered routing (DOR).

The paper uses "simple source dimension-ordered routing where the route is
encoded in a packet beforehand at source", routing "along the y-axis
first" (section 4.3).  Routes are lists of output-port indices, one per
router visited, ending with the destination's LOCAL (ejection) port.

On a torus, minimal routing may take the wraparound channel.  When the two
directions are equidistant (distance exactly half the ring), the tie-break
policy matters:

* ``"avoid_wrap"`` — choose the direction whose path does not cross the
  ring's wraparound edge.  With rings of size <= 4 this makes every
  multi-hop straight run wrap-free, which breaks all intra-ring channel
  cycles and renders plain wormhole routing deadlock-free (used for the
  wormhole and central-buffer routers, which have no VC classes to spend
  on datelines).
* ``"even"`` — alternate directions deterministically by source parity,
  preserving the torus's load symmetry (used with VC routers, whose
  deadlock freedom comes from dateline VC classes instead).

A network routes its packets through a :class:`RouteTable`: the y leg of
a route depends only on (source row, destination row, source parity) and
the x leg only on (source column, destination column, source parity), so
two per-dimension segment tables of ``2 * (width**2 + height**2)``
immutable tuples give every route by one concatenation.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.sim.topology import EAST, LOCAL, NORTH, SOUTH, WEST, Topology

TIE_BREAKS = ("avoid_wrap", "even")


def _ring_steps(position: int, target: int, size: int, wraparound: bool,
                tie_break: str, parity: int) -> Tuple[int, int]:
    """Direction and hop count along one ring.

    Returns ``(step, hops)`` with ``step`` in ``{-1, 0, +1}``.
    """
    if position == target:
        return 0, 0
    if not wraparound:
        return (1, target - position) if target > position else (-1, position - target)
    forward = (target - position) % size
    backward = (position - target) % size
    if forward < backward:
        return 1, forward
    if backward < forward:
        return -1, backward
    # Equidistant: apply the tie-break policy.
    if tie_break == "avoid_wrap":
        # Going +1 wraps iff the path passes the size-1 -> 0 edge.
        wraps_forward = position + forward >= size
        return (-1, backward) if wraps_forward else (1, forward)
    if tie_break == "even":
        return (1, forward) if parity % 2 == 0 else (-1, backward)
    raise ValueError(f"unknown tie_break {tie_break!r}; options: {TIE_BREAKS}")


def dimension_ordered_route(topo: Topology, src: int, dst: int,
                            tie_break: str = "avoid_wrap") -> List[int]:
    """Compute the y-then-x DOR route from ``src`` to ``dst``.

    The returned list holds one output port per router visited, with the
    final entry being LOCAL (ejection at the destination).
    """
    if src == dst:
        raise ValueError(f"source and destination are both node {src}")
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"unknown tie_break {tie_break!r}; options: {TIE_BREAKS}")
    sx, sy = topo.coords(src)
    dx_, dy_ = topo.coords(dst)
    parity = sx + sy
    route: List[int] = []
    # Y dimension first (paper section 4.3: "we route along the y-axis
    # first").
    step, hops = _ring_steps(sy, dy_, topo.height, topo.wraparound,
                             tie_break, parity)
    route.extend([NORTH if step > 0 else SOUTH] * hops)
    # Then X.
    step, hops = _ring_steps(sx, dx_, topo.width, topo.wraparound,
                             tie_break, parity)
    route.extend([EAST if step > 0 else WEST] * hops)
    route.append(LOCAL)
    return route


class RouteTable:
    """Every y-then-x DOR route of one topology, from per-dimension
    segment tables built once.

    ``route(src, dst)`` equals ``tuple(dimension_ordered_route(topo, src,
    dst, tie_break))``.  The tables hold ``entries == 2 * (width**2 +
    height**2)`` shared segment tuples (both source parities, every
    (from, to) pair per ring) — not one route per node pair, which a
    16x16 fabric would need 65,280 of.
    """

    def __init__(self, topo: Topology, tie_break: str = "avoid_wrap") -> None:
        if tie_break not in TIE_BREAKS:
            raise ValueError(
                f"unknown tie_break {tie_break!r}; options: {TIE_BREAKS}")

        def segments(size: int, up: int, down: int, tail: tuple):
            # [parity][from][to] -> ports along one ring, then ``tail``.
            table = []
            for parity in (0, 1):
                rows = []
                for position in range(size):
                    row = []
                    for target in range(size):
                        step, hops = _ring_steps(
                            position, target, size, topo.wraparound,
                            tie_break, parity)
                        row.append((up if step > 0 else down,) * hops + tail)
                    rows.append(tuple(row))
                table.append(rows)
            return table

        y_table = segments(topo.height, NORTH, SOUTH, ())
        x_table = segments(topo.width, EAST, WEST, (LOCAL,))
        #: Segments stored in the two tables.
        self.entries = sum(len(row) for table in (y_table, x_table)
                           for rows in table for row in rows)
        coords = [topo.coords(node) for node in range(topo.num_nodes)]
        #: Per source node, its row of each table (shared, not copied).
        self._y_rows = [y_table[(x + y) % 2][y] for x, y in coords]
        self._x_rows = [x_table[(x + y) % 2][x] for x, y in coords]
        #: Per destination node, its column in each table.
        self._y_of = [y for _, y in coords]
        self._x_of = [x for x, _ in coords]

    def route(self, src: int, dst: int) -> Tuple[int, ...]:
        """The route from ``src`` to ``dst`` as an immutable tuple."""
        if src == dst:
            raise ValueError(f"source and destination are both node {src}")
        return (self._y_rows[src][self._y_of[dst]]
                + self._x_rows[src][self._x_of[dst]])


def route_hops(route: Sequence[int]) -> int:
    """Number of router-to-router hops in a route (excludes ejection)."""
    return len(route) - 1


def route_nodes(topo: Topology, src: int,
                route: Sequence[int]) -> List[int]:
    """The node sequence a route visits, starting at ``src``."""
    nodes = [src]
    for port in route[:-1]:
        nxt = topo.neighbor(nodes[-1], port)
        if nxt is None:
            raise ValueError(
                f"route leaves the topology at node {nodes[-1]} port {port}"
            )
        nodes.append(nxt)
    return nodes
