from __future__ import annotations

import pytest

from triconvex.bitset import VertexSet
from triconvex.convexity import is_t_convex, is_t_hull_set, t_convex_hull
from triconvex.decomposition import decompose
from triconvex.errors import ContractViolationError, ValidationError
from triconvex.generators import complete_graph, path_graph, star_graph, triangle_star_graph
from triconvex.graph import Graph, is_connected
from triconvex.hull_number import (
    _reducible_hull_bits,
    hull_number,
    is_hull_set_by_characterization,
    satisfies,
)
from triconvex.oracle import brute_hull_number


def vs(n, items):
    return VertexSet.from_iterable(n, items)


class TestSatisfies:
    def test_outer_leaves_reach_through_the_centre(self, tri_star3):
        dec = decompose(tri_star3)
        verdict = satisfies(tri_star3, dec, vs(7, [1, 3, 5]), 0)
        assert verdict.condition == "cond2"
        assert verdict.evidence == (0, 1)

    def test_local_pair_hulls_its_own_triangle(self, bowtie):
        dec = decompose(bowtie)
        # no vertex outside the atom, so only the trace condition can apply
        verdict = satisfies(bowtie, dec, vs(5, [1, 2]), 0)
        assert verdict.condition == "cond3"
        assert sorted(verdict.evidence) == [1, 2]

    def test_pivot_plus_member_pair(self, bowtie):
        dec = decompose(bowtie)
        verdict = satisfies(bowtie, dec, vs(5, [1, 2, 3]), 0)
        assert verdict.condition == "cond2"
        assert verdict.evidence == (0, 1)

    def test_unreached_triangle_is_unsatisfied(self, tri_star3):
        dec = decompose(tri_star3)
        verdict = satisfies(tri_star3, dec, vs(7, [1, 3]), 2)
        assert verdict.condition == "none"

    def test_overlap_that_fails_to_separate_yields_no_pivot(self):
        # atoms {3,4,5} and {1,2,3} meet in {3}, but removing 3 leaves the
        # two atoms connected through 1-4-5, so flow from far seed vertices
        # is not forced through 3: counting it as a pivot would declare
        # {0,6} a hull set even though its hull stalls at {0,5,6}
        g = Graph(
            7,
            [(0, 5), (1, 2), (1, 3), (1, 4), (2, 3), (3, 4), (3, 5), (4, 5), (5, 6)],
        )
        dec = decompose(g)
        middle = next(i for i, a in enumerate(dec.atoms) if sorted(a) == [3, 4, 5])
        assert satisfies(g, dec, vs(7, [0, 6]), middle).condition == "none"
        assert not is_hull_set_by_characterization(g, dec, vs(7, [0, 6]))
        assert sorted(t_convex_hull(g, vs(7, [0, 6]))) == [0, 5, 6]
        res = hull_number(g)
        assert res.value == brute_hull_number(g) == 3
        assert sorted(res.hull_set) == [0, 3, 6]

    def test_two_pivots_condition(self):
        # path of three triangles: middle one is hulled by its two shared
        # vertices once both far sides hold seed vertices
        g = Graph(
            9,
            [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4), (4, 5), (4, 6), (5, 6),
             (6, 7), (6, 8), (7, 8)],
        )
        dec = decompose(g)
        middle = next(i for i, a in enumerate(dec.atoms) if sorted(a) == [2, 3, 4])
        verdict = satisfies(g, dec, vs(9, [0, 8]), middle)
        assert verdict.condition == "cond1"
        assert verdict.evidence == (2, 4)


class TestCharacterization:
    def test_bowtie_outer_pair(self, bowtie):
        dec = decompose(bowtie)
        assert is_hull_set_by_characterization(bowtie, dec, vs(5, [1, 3]))

    def test_two_leaves_miss_the_third_triangle(self, tri_star3):
        dec = decompose(tri_star3)
        assert not is_hull_set_by_characterization(tri_star3, dec, vs(7, [1, 3]))

    def test_singletons_never_qualify(self, bowtie):
        dec = decompose(bowtie)
        assert not is_hull_set_by_characterization(bowtie, dec, vs(5, [1]))

    def test_rejected_on_prime_graphs(self, c5):
        dec = decompose(c5)
        with pytest.raises(ContractViolationError):
            is_hull_set_by_characterization(c5, dec, vs(5, [0, 2]))

    def test_equivalent_to_hull_covering_everything(self, sampled_corpus):
        for g in sampled_corpus:
            if not is_connected(g) or g.n < 2:
                continue
            dec = decompose(g)
            if dec.t < 2:
                continue
            for bits in range(1 << g.n):
                if bits.bit_count() < 2:
                    continue
                s = VertexSet(g.n, bits)
                assert is_hull_set_by_characterization(g, dec, s) == is_t_hull_set(g, s), (
                    sorted(g.edges()),
                    sorted(s),
                )


class TestHullNumber:
    def test_single_vertex(self):
        res = hull_number(Graph(1))
        assert res.value == 1 and sorted(res.hull_set) == [0]

    def test_nontrivial_primes_need_two(self, c5):
        res = hull_number(c5)
        assert res.value == 2 and sorted(res.hull_set) == [0, 2]

    def test_complete_graphs_use_any_pair(self):
        for n in (2, 3, 6):
            res = hull_number(complete_graph(n))
            assert res.value == 2 and sorted(res.hull_set) == [0, 1]

    def test_triangle_star_needs_one_per_triangle(self, tri_star3):
        res = hull_number(tri_star3)
        assert res.value == 3 and sorted(res.hull_set) == [1, 3, 5]

    def test_star_needs_all_leaves(self, claw):
        res = hull_number(claw)
        assert res.value == 3 and sorted(res.hull_set) == [1, 2, 3]

    def test_bowtie(self, bowtie):
        res = hull_number(bowtie)
        assert res.value == 2 and sorted(res.hull_set) == [1, 3]

    def test_path_hulls_from_its_endpoints(self, p6):
        res = hull_number(p6)
        assert res.value == 2 and sorted(res.hull_set) == [0, 5]

    def test_star_of_many_triangles(self):
        g = triangle_star_graph(5)
        assert hull_number(g).value == 5

    def test_trees_need_their_leaves(self):
        # spider with three legs of length two: exactly the 3 leaf tips
        g = Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
        res = hull_number(g)
        assert res.value == 3 and sorted(res.hull_set) == [2, 4, 6]

    def test_result_always_hulls(self, sampled_corpus):
        for g in sampled_corpus:
            if not is_connected(g) or g.n < 1:
                continue
            res = hull_number(g)
            assert len(res.hull_set) == res.value
            assert t_convex_hull(g, res.hull_set) == VertexSet.full(g.n)

    def test_matches_bruteforce_on_corpus(self, sampled_corpus):
        for g in sampled_corpus:
            if not is_connected(g) or g.n < 1:
                continue
            assert hull_number(g).value == brute_hull_number(g), sorted(g.edges())

    def test_rejects_disconnected(self):
        with pytest.raises(ValidationError):
            hull_number(Graph(2))

    # The reverse sweep is not yet optimal everywhere (ROADMAP item 1): on the
    # first graph it returns 3 where 2 vertices hull, and on the second the
    # set it builds fails verification with AlgorithmError. The marks are
    # strict, so the fix turns them into failures that must be un-marked.
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 1), (0, 2), (0, 3), (0, 5), (1, 2), (1, 4), (3, 4)],
            [(0, 4), (1, 2), (1, 4), (1, 5), (2, 4), (3, 4), (3, 5)],
        ],
        ids=["three-for-two", "fails-verification"],
    )
    def test_sweep_reaches_the_optimum(self, edges):
        g = Graph(6, edges)
        assert hull_number(g).value == brute_hull_number(g)


class TestSweepTrace:
    def test_uncovered_parts_are_disjoint_with_private_choices(self, sampled_corpus):
        # every vertex the sweep adds sits in its own uncovered region and
        # the regions never overlap, so the loop spends at most one vertex
        # per region; optimality itself is pinned by the brute-force
        # comparison above
        for g in sampled_corpus:
            if not is_connected(g) or g.n < 2:
                continue
            dec = decompose(g)
            if dec.t < 2:
                continue
            trace = []
            _reducible_hull_bits(g, dec, trace)
            seen = 0
            for i, chosen, uncovered in trace:
                assert chosen in uncovered
                assert uncovered <= dec.atoms[i]
                assert uncovered.bits & seen == 0
                seen |= uncovered.bits

    def test_uncovered_parts_need_not_be_concave_globally(self):
        # with the ordering rooted at the leaf atom {0,1}, the uncovered
        # part {2,3} of atom {0,2,3} is crossed by the triangle path 0,2,4
        # of the complement, and the minimum hull set {1,4} misses it
        # entirely; concavity of these regions depends on the ordering, so
        # it is not an invariant the sweep can promise
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (2, 3), (2, 4)])
        dec = decompose(g)
        assert [sorted(a) for a in dec.atoms] == [[0, 1], [0, 2, 3], [0, 2, 4]]
        trace = []
        _reducible_hull_bits(g, dec, trace)
        (i, chosen, uncovered), = trace
        assert sorted(uncovered) == [2, 3]
        complement = VertexSet(5, 0b11111 & ~uncovered.bits)
        assert not is_t_convex(g, complement)[0]
        assert is_t_hull_set(g, vs(5, [1, 4]))  # optimal set avoiding the region
        assert hull_number(g).value == brute_hull_number(g) == 2
