from __future__ import annotations

import pytest

from triconvex.bitset import VertexSet
from triconvex.errors import BudgetExceededError
from triconvex.generators import bowtie_graph, complete_graph, cycle_graph, path_graph
from triconvex import oracle
from triconvex.graph import Graph
from triconvex.oracle import (
    brute_atoms,
    brute_convexity_number,
    brute_hull,
    brute_hull_number,
    brute_interval,
    brute_is_convex,
    check_convexity_axioms,
    enumerate_triangle_paths,
    is_triangle_path,
)


def vs(n, items):
    return VertexSet.from_iterable(n, items)


class TestTrianglePathEnumeration:
    def test_triangle_has_both_routes(self, k3):
        paths = enumerate_triangle_paths(k3, 0, 1)
        assert [p.vertices for p in paths] == [(0, 1), (0, 2, 1)]

    def test_four_cycle_long_route_blocked_by_endpoint_chord(self):
        # 0,3,2,1 spans positions 1..4; the 0-1 edge joins positions 4 apart
        # minus one, which exceeds the allowed distance of 2.
        c4 = cycle_graph(4)
        paths = enumerate_triangle_paths(c4, 0, 1)
        assert [p.vertices for p in paths] == [(0, 1)]

    def test_four_cycle_opposite_corners(self):
        c4 = cycle_graph(4)
        paths = enumerate_triangle_paths(c4, 0, 2)
        assert [p.vertices for p in paths] == [(0, 1, 2), (0, 3, 2)]

    def test_path_graph_unique(self, p4):
        assert [p.vertices for p in enumerate_triangle_paths(p4, 0, 3)] == [(0, 1, 2, 3)]

    def test_same_endpoint(self, k3):
        assert [p.vertices for p in enumerate_triangle_paths(k3, 1, 1)] == [(1,)]

    def test_every_enumerated_path_passes_the_predicate(self, c5):
        for u in range(5):
            for v in range(u + 1, 5):
                for p in enumerate_triangle_paths(c5, u, v):
                    assert is_triangle_path(c5, p.vertices)

    def test_predicate_rejects_non_paths_and_long_chords(self, k3):
        c4 = cycle_graph(4)
        assert not is_triangle_path(k3, (0, 1, 0))  # a repeated vertex
        assert not is_triangle_path(c4, (0, 2))  # a step along a non-edge
        assert not is_triangle_path(c4, (0, 1, 2, 3))  # chord 0-3 spans three positions

    def test_budget_refusal(self):
        g = path_graph(12)
        with pytest.raises(BudgetExceededError):
            enumerate_triangle_paths(g, 0, 11)


    def test_path_cap_is_one_count_per_pair(self, k4, monkeypatch):
        # K4 has three triangle 0-1 paths: (0, 1), (0, 2, 1) and (0, 3, 1)
        monkeypatch.setattr(oracle, "MAX_PATHS", 3)
        assert len(enumerate_triangle_paths(k4, 0, 1)) == 3
        monkeypatch.setattr(oracle, "MAX_PATHS", 2)
        with pytest.raises(BudgetExceededError, match="triangle path cap exceeded"):
            enumerate_triangle_paths(k4, 0, 1)


class TestIntervalAndHull:
    def test_nonadjacent_cycle_pair_spans_everything(self, c5):
        assert brute_interval(c5, vs(5, [0, 2])) == VertexSet.full(5)

    def test_singleton_interval_is_itself(self, c5):
        assert brute_interval(c5, vs(5, [3])) == vs(5, [3])

    def test_cycle_edge_is_convex(self, c5):
        assert brute_interval(c5, vs(5, [0, 1])) == vs(5, [0, 1])
        assert brute_is_convex(c5, vs(5, [0, 1]))

    def test_hull_reaches_fixpoint(self, p4):
        assert brute_hull(p4, vs(4, [0, 3])) == VertexSet.full(4)


class TestBruteNumbers:
    def test_complete_graph(self, k4):
        assert brute_convexity_number(k4) == 1
        assert brute_hull_number(k4) == 2

    def test_path_five(self):
        p5 = path_graph(5)
        assert brute_convexity_number(p5) == 4
        assert brute_hull_number(p5) == 2

    def test_bowtie(self, bowtie):
        assert brute_convexity_number(bowtie) == 3
        assert brute_hull_number(bowtie) == 2

    def test_budget_refusal(self):
        g = path_graph(17)
        with pytest.raises(BudgetExceededError):
            brute_convexity_number(g)


class TestBruteAtoms:
    def test_bowtie_splits_at_shared_vertex(self, bowtie):
        assert {tuple(sorted(a)) for a in brute_atoms(bowtie)} == {(0, 1, 2), (0, 3, 4)}

    def test_chordless_cycle_is_prime(self, c5):
        assert brute_atoms(c5) == {VertexSet.full(5)}

    def test_two_triangles_sharing_an_edge(self):
        g = complete_graph(4)
        g = Graph(4, [e for e in g.edges() if e != (0, 1)])
        assert {tuple(sorted(a)) for a in brute_atoms(g)} == {(0, 2, 3), (1, 2, 3)}


class TestAxioms:
    def test_hold_on_small_primes_and_cliques(self, c5, k3):
        assert check_convexity_axioms(c5)
        assert check_convexity_axioms(k3)

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError):
            check_convexity_axioms(path_graph(6))
