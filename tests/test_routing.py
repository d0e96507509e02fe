"""Unit tests for dimension-ordered source routing."""

import pytest

from repro.sim.routing import (TIE_BREAKS, RouteTable,
                                dimension_ordered_route, route_hops,
                                route_nodes)
from repro.sim.topology import EAST, LOCAL, NORTH, SOUTH, Mesh, Torus


class TestBasics:
    def test_route_ends_with_ejection(self):
        topo = Torus(4)
        route = dimension_ordered_route(topo, 0, 5)
        assert route[-1] == LOCAL

    def test_y_dimension_first(self):
        """Section 4.3: 'In our dimension-ordered routing, we route along
        the y-axis first.'"""
        topo = Torus(4)
        src = topo.node_at(0, 0)
        dst = topo.node_at(1, 1)
        route = dimension_ordered_route(topo, src, dst)
        assert route == [NORTH, EAST, LOCAL]

    def test_single_dimension_route(self):
        topo = Torus(4)
        route = dimension_ordered_route(
            topo, topo.node_at(0, 0), topo.node_at(0, 1))
        assert route == [NORTH, LOCAL]

    def test_rejects_self_route(self):
        with pytest.raises(ValueError):
            dimension_ordered_route(Torus(4), 3, 3)

    def test_rejects_unknown_tie_break(self):
        with pytest.raises(ValueError):
            dimension_ordered_route(Torus(4), 0, 1, tie_break="coin_flip")

    def test_route_hops(self):
        topo = Torus(4)
        route = dimension_ordered_route(
            topo, topo.node_at(0, 0), topo.node_at(1, 1))
        assert route_hops(route) == 2


class TestMinimality:
    def test_all_pairs_minimal_on_torus(self):
        topo = Torus(4)
        for src in range(16):
            for dst in range(16):
                if src == dst:
                    continue
                for tie in ("avoid_wrap", "even"):
                    route = dimension_ordered_route(topo, src, dst,
                                                    tie_break=tie)
                    assert route_hops(route) == \
                        topo.manhattan_distance(src, dst)

    def test_all_pairs_minimal_on_mesh(self):
        topo = Mesh(3)
        for src in range(9):
            for dst in range(9):
                if src == dst:
                    continue
                route = dimension_ordered_route(topo, src, dst)
                assert route_hops(route) == topo.manhattan_distance(src, dst)

    def test_routes_terminate_at_destination(self):
        topo = Torus(4)
        for src in range(16):
            for dst in range(16):
                if src == dst:
                    continue
                route = dimension_ordered_route(topo, src, dst)
                assert route_nodes(topo, src, route)[-1] == dst


class TestWraparound:
    def test_uses_wrap_when_strictly_shorter(self):
        topo = Torus(4)
        route = dimension_ordered_route(
            topo, topo.node_at(0, 0), topo.node_at(0, 3))
        assert route == [SOUTH, LOCAL]

    def test_avoid_wrap_keeps_two_hop_runs_off_wrap_edges(self):
        """The deadlock-freedom property: with avoid_wrap, no multi-hop
        straight run crosses a wraparound edge on a radix-4 torus, so
        intra-ring channel cycles cannot form."""
        topo = Torus(4)
        for src in range(16):
            for dst in range(16):
                if src == dst:
                    continue
                route = dimension_ordered_route(topo, src, dst,
                                                tie_break="avoid_wrap")
                nodes = route_nodes(topo, src, route)
                for dim in ("y", "x"):
                    in_dim = [(i, p) for i, p in enumerate(route[:-1])
                              if (p in (NORTH, SOUTH)) == (dim == "y")]
                    if len(in_dim) >= 2:
                        # A multi-hop run must stay off wrap edges.
                        for i, port in in_dim:
                            assert not topo.crosses_wrap_edge(
                                nodes[i], port), (src, dst, route)

    def test_even_tie_break_balances_directions(self):
        """Half the sources take each direction on equidistant pairs,
        preserving torus symmetry."""
        topo = Torus(4)
        directions = []
        for x in range(4):
            for y in range(4):
                src = topo.node_at(x, y)
                dst = topo.node_at(x, (y + 2) % 4)
                route = dimension_ordered_route(topo, src, dst,
                                                tie_break="even")
                directions.append(route[0])
        assert directions.count(NORTH) == 8
        assert directions.count(SOUTH) == 8

    def test_mesh_never_wraps(self):
        topo = Mesh(4)
        route = dimension_ordered_route(
            topo, topo.node_at(0, 0), topo.node_at(0, 3))
        assert route == [NORTH, NORTH, NORTH, LOCAL]


class TestRouteNodes:
    def test_node_sequence(self):
        topo = Torus(4)
        src = topo.node_at(1, 2)
        dst = topo.node_at(2, 3)
        route = dimension_ordered_route(topo, src, dst)
        nodes = route_nodes(topo, src, route)
        assert nodes[0] == src
        assert nodes[-1] == dst
        assert len(nodes) == route_hops(route) + 1


class TestRouteTable:
    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    @pytest.mark.parametrize("shape", [(2, 4), (3, 3), (4, 4), (5, 3)])
    @pytest.mark.parametrize("grid", [Torus, Mesh])
    def test_tables_give_every_dimension_ordered_route(self, grid, shape,
                                                       tie_break):
        topo = grid(*shape)
        table = RouteTable(topo, tie_break)
        for src in range(topo.num_nodes):
            for dst in range(topo.num_nodes):
                if src != dst:
                    assert table.route(src, dst) == tuple(
                        dimension_ordered_route(topo, src, dst, tie_break))

    @pytest.mark.parametrize("shape", [(2, 4), (4, 4), (16, 16), (32, 8)])
    def test_table_size_grows_with_sides_not_node_pairs(self, shape):
        width, height = shape
        table = RouteTable(Torus(width, height), "even")
        assert table.entries == 2 * (width ** 2 + height ** 2)
        # Every node's rows point into the shared tables: no segment
        # is stored per node or per node pair.
        stored = {id(segment)
                  for rows in (table._y_rows, table._x_rows)
                  for row in rows for segment in row}
        assert len(stored) <= table.entries
        nodes = width * height
        assert table.entries < nodes * (nodes - 1)

    def test_routes_are_immutable_tuples(self):
        route = RouteTable(Torus(4)).route(0, 5)
        assert isinstance(route, tuple)
        with pytest.raises(TypeError):
            route[0] = LOCAL

    def test_rejects_self_route_and_unknown_tie_break(self):
        with pytest.raises(ValueError):
            RouteTable(Torus(4)).route(3, 3)
        with pytest.raises(ValueError):
            RouteTable(Torus(4), tie_break="coin_flip")
