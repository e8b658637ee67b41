from __future__ import annotations

import pytest
from hypothesis import given

from triconvex.bitset import VertexSet
from triconvex.errors import ParseError, ValidationError
from triconvex.graph import (
    Graph,
    connected_components,
    is_connected,
    load_graph,
    parse_dimacs,
    parse_edge_list,
    parse_graph,
    shortest_path,
    to_dimacs,
    to_edge_list,
)
from triconvex.oracle import is_triangle_path

from .strategies import graphs, graphs_with_subsets


class TestGraph:
    def test_basic_structure(self):
        g = Graph(4, [(0, 1), (1, 2), (1, 2)])  # duplicate collapses
        assert g.n == 4 and g.m == 2
        assert g.has_edge(2, 1) and not g.has_edge(0, 2)
        assert list(g.neighbors(1)) == [0, 2]
        assert g.degree(3) == 0
        assert list(g.edges()) == [(0, 1), (1, 2)]

    def test_rejects_self_loop_and_bad_ids(self):
        with pytest.raises(ValidationError):
            Graph(3, [(1, 1)])
        with pytest.raises(ValidationError):
            Graph(3, [(0, 3)])

    @pytest.mark.parametrize("v", [-1, 5, 7])
    def test_row_of_an_unknown_vertex_is_rejected(self, bowtie, v):
        with pytest.raises(ValidationError):
            bowtie.neighbors(v)
        with pytest.raises(ValidationError):
            bowtie.degree(v)

    @pytest.mark.parametrize("u, v", [(0, -1), (-1, 0), (0, 5), (5, 0), (-1, 7)])
    def test_edge_with_an_unknown_end_is_absent(self, bowtie, u, v):
        assert not bowtie.has_edge(u, v)

    def test_induced_subgraph_keeps_ascending_order(self):
        g = Graph(5, [(0, 2), (2, 4), (0, 4), (1, 3)])
        sub, vertices = g.induced(VertexSet.from_iterable(5, [0, 2, 4]))
        assert vertices == (0, 2, 4)
        assert sub.n == 3 and sub.m == 3
        assert sub.has_edge(0, 1) and sub.has_edge(1, 2) and sub.has_edge(0, 2)


class TestParsing:
    def test_edge_list_basic(self):
        g = parse_graph("0 1\n1 2\n")
        assert g.n == 3 and list(g.edges()) == [(0, 1), (1, 2)]

    def test_edge_list_comments_and_isolated(self):
        g = parse_edge_list("# a triangle plus a loner\n0 1\n1 2 # chain\n0 2\n3\n")
        assert g.n == 4 and g.m == 3 and g.degree(3) == 0

    def test_edge_list_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            parse_edge_list("0 0\n")

    def test_edge_list_malformed_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_edge_list("0 1\nnope\n")
        assert err.value.line == 2

    def test_edge_list_negative_id(self):
        with pytest.raises(ValidationError):
            parse_edge_list("0 -1\n")

    def test_dimacs_is_one_based(self):
        g = parse_graph("c path\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n", fmt="dimacs")
        assert g.n == 4 and list(g.edges()) == [(0, 1), (1, 2), (2, 3)]

    def test_dimacs_errors(self):
        with pytest.raises(ParseError):
            parse_dimacs("e 1 2\n")
        with pytest.raises(ValidationError):
            parse_dimacs("p edge 3 1\ne 1 4\n")
        with pytest.raises(ValidationError):
            parse_dimacs("p edge 3 1\ne 2 2\n")
        with pytest.raises(ParseError) as err:
            parse_dimacs("p edge 3 1\nx 1 2\n")
        assert err.value.line == 2

    def test_non_utf8_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes(b"0 1\n\xff 2\n")
        with pytest.raises(ParseError, match="not UTF-8"):
            load_graph(str(path))

    @given(graphs(max_n=8))
    def test_round_trip_both_formats(self, g):
        assert parse_edge_list(to_edge_list(g)) == g
        assert parse_dimacs(to_dimacs(g)) == g


class TestComponents:
    def test_path_cut(self, p4):
        comps = connected_components(p4, VertexSet.from_iterable(4, [1]))
        assert [sorted(c) for c in comps] == [[0], [2, 3]]

    def test_whole_graph_when_nothing_removed(self, c5):
        comps = connected_components(c5)
        assert len(comps) == 1 and len(comps[0]) == 5

    def test_cycle_cut(self, c5):
        comps = connected_components(c5, VertexSet.from_iterable(5, [0, 2]))
        assert [sorted(c) for c in comps] == [[1], [3, 4]]

    @given(graphs_with_subsets(max_n=9))
    def test_partition_with_no_crossing_edges(self, case):
        g, removed = case
        comps = connected_components(g, removed)
        seen = 0
        for c in comps:
            assert c.bits & removed.bits == 0
            assert c.bits & seen == 0
            seen |= c.bits
        assert seen == ((1 << g.n) - 1) & ~removed.bits
        for a in comps:
            for b in comps:
                if a is not b:
                    assert not any(g._adj[v] & b.bits for v in a)


class TestShortestPath:
    def test_unique_path(self, p4):
        path = shortest_path(p4, 0, 3)
        assert path.vertices == (0, 1, 2, 3)

    def test_single_vertex(self, c5):
        assert shortest_path(c5, 2, 2).vertices == (2,)

    def test_forced_route_around_cycle(self, c5):
        within = VertexSet.from_iterable(5, [0, 2, 3, 4])
        path = shortest_path(c5, 0, 2, within)
        assert path.vertices == (0, 4, 3, 2)

    def test_endpoint_outside_raises(self, c5):
        with pytest.raises(ValidationError):
            shortest_path(c5, 0, 2, VertexSet.from_iterable(5, [0, 1]))
        for u in (-1, 5):
            with pytest.raises(ValidationError):
                shortest_path(c5, u, 2)
        with pytest.raises(ValidationError):
            shortest_path(c5, 0, 2, VertexSet.full(6))

    def test_disconnected_returns_none(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert shortest_path(g, 0, 3) is None

    def test_tie_breaks_to_smallest_next_vertex(self):
        # two shortest 0-3 routes: through 1 or through 2
        g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert shortest_path(g, 0, 3).vertices == (0, 1, 3)

    @given(graphs_with_subsets(max_n=9))
    def test_result_is_induced_hence_triangle_path(self, case):
        g, within = case
        verts = list(within)
        if len(verts) < 2:
            return
        u, v = verts[0], verts[-1]
        path = shortest_path(g, u, v, within)
        if path is None:
            return
        assert set(path) <= set(verts)
        vs = path.vertices
        for i in range(len(vs)):
            for j in range(i + 2, len(vs)):
                assert not g.has_edge(vs[i], vs[j])  # shortest paths are induced
        assert is_triangle_path(g, vs)


def test_is_connected():
    assert is_connected(Graph(1))
    assert not is_connected(Graph(2))
    assert is_connected(Graph(2, [(0, 1)]))
