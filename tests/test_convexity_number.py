from __future__ import annotations

import pytest

from triconvex.bitset import VertexSet
from triconvex.convexity import is_t_convex
from triconvex.convexity_number import convex_extension, convexity_number
from triconvex.decomposition import decompose
from triconvex.errors import ContractViolationError, ValidationError
from triconvex.generators import (
    path_graph,
    random_connected_graph,
    star_graph,
    triangle_star_graph,
)
from triconvex.graph import Graph, connected_components, is_connected
from triconvex.oracle import brute_convexity_number
from triconvex.prime import enumerate_prime_convex_sets


def vs(n, items):
    return VertexSet.from_iterable(n, items)


def bfs_extension(g, dec, i, c):
    """Reference route: one search of G - c per seed, keeping the
    components that avoid the rest of atom i."""
    remainder = dec.atoms[i].bits & ~c.bits
    out = c.bits
    for comp in connected_components(g, c):
        if not comp.bits & remainder:
            out |= comp.bits
    return VertexSet(g.n, out)


def atom_convex_seeds(g, dec):
    """(atom index, seed) for every convex set of every atom, in the order
    convexity_number scans them."""
    for i, atom in enumerate(dec.atoms):
        sub, vertices = g.induced(atom)
        for local in enumerate_prime_convex_sets(sub):
            yield i, VertexSet(g.n, sum(1 << vertices[pos] for pos in local))


def reference_convexity_number(g):
    """convexity_number's scan and tie-break over the reference extension."""
    dec = decompose(g)
    best = (0, None, -1, None)
    for i, seed in atom_convex_seeds(g, dec):
        if seed == dec.atoms[i]:
            continue
        ext = bfs_extension(g, dec, i, seed)
        if len(ext) > best[0]:
            best = (len(ext), ext, i, seed)
    return best


DIFFERENTIAL_GRAPHS = {
    **{
        f"random_connected:{n},{p},{seed}": random_connected_graph(n, p, seed)
        for n, p in ((30, 0.1), (60, 0.05), (120, 0.02), (200, 0.01), (200, 0.03))
        for seed in range(2)
    },
    "path:2": path_graph(2),
    "path:40": path_graph(40),
    "star:1": star_graph(1),
    "star:25": star_graph(25),
    "triangle_star:1": triangle_star_graph(1),
    "triangle_star:6": triangle_star_graph(6),
}


class TestConvexExtension:
    def test_bowtie_shared_vertex_pulls_in_far_triangle(self, bowtie):
        dec = decompose(bowtie)
        ext = convex_extension(bowtie, dec, 0, vs(5, [0]))
        assert sorted(ext) == [0, 3, 4]

    def test_bowtie_leaf_stays_alone(self, bowtie):
        dec = decompose(bowtie)
        assert sorted(convex_extension(bowtie, dec, 0, vs(5, [1]))) == [1]

    def test_non_separating_singleton_is_unchanged(self, c5):
        dec = decompose(c5)
        assert sorted(convex_extension(c5, dec, 0, vs(5, [2]))) == [2]

    def test_empty_seed_stays_empty(self, bowtie):
        dec = decompose(bowtie)
        assert convex_extension(bowtie, dec, 0, vs(5, [])) == vs(5, [])

    def test_rejects_seed_outside_its_atom(self, bowtie):
        dec = decompose(bowtie)
        assert sorted(dec.atoms[0]) == [0, 1, 2]
        with pytest.raises(ContractViolationError):
            convex_extension(bowtie, dec, 0, vs(5, [0, 3]))

    @pytest.mark.parametrize("name", DIFFERENTIAL_GRAPHS)
    def test_matches_one_search_per_seed(self, name):
        g = DIFFERENTIAL_GRAPHS[name]
        dec = decompose(g)
        for i, seed in atom_convex_seeds(g, dec):
            assert convex_extension(g, dec, i, seed) == bfs_extension(g, dec, i, seed), (
                i,
                sorted(seed),
            )

    def test_extension_is_convex_in_the_whole_graph(self, sampled_corpus):
        full_graphs = [g for g in sampled_corpus if is_connected(g) and g.n >= 2]
        for g in full_graphs[::5]:
            dec = decompose(g)
            for i, seed in atom_convex_seeds(g, dec):
                if seed == dec.atoms[i]:
                    continue
                ext = convex_extension(g, dec, i, seed)
                assert is_t_convex(g, ext)[0], (sorted(g.edges()), i, sorted(seed))


class TestConvexityNumber:
    def test_complete_graph_only_has_singletons(self, k5):
        res = convexity_number(k5)
        assert res.value == 1 and sorted(res.witness) == [0]

    def test_bowtie(self, bowtie):
        res = convexity_number(bowtie)
        assert res.value == 3
        assert sorted(res.witness) == [0, 3, 4]
        assert res.atom_index == 0 and sorted(res.seed) == [0]

    def test_long_path(self, p6):
        res = convexity_number(p6)
        assert res.value == 5 and sorted(res.witness) == [1, 2, 3, 4, 5]

    def test_cycle(self, c5):
        res = convexity_number(c5)
        assert res.value == 2 and sorted(res.witness) == [0, 1]

    def test_claw(self, claw):
        assert convexity_number(claw).value == 3

    def test_trees_lose_exactly_one_leaf(self):
        for n in range(2, 9):
            assert convexity_number(path_graph(n)).value == n - 1

    def test_witness_is_always_proper_and_convex(self, sampled_corpus):
        for g in sampled_corpus:
            if not is_connected(g) or g.n < 2:
                continue
            res = convexity_number(g)
            assert len(res.witness) == res.value
            assert res.witness.bits != (1 << g.n) - 1
            assert is_t_convex(g, res.witness)[0]

    def test_matches_bruteforce_on_corpus(self, sampled_corpus):
        for g in sampled_corpus:
            if not is_connected(g) or g.n < 2:
                continue
            assert convexity_number(g).value == brute_convexity_number(g), sorted(g.edges())

    @pytest.mark.parametrize("name", DIFFERENTIAL_GRAPHS)
    def test_matches_one_search_per_seed_route(self, name):
        g = DIFFERENTIAL_GRAPHS[name]
        res = convexity_number(g)
        assert (res.value, res.witness, res.atom_index, res.seed) == (
            reference_convexity_number(g)
        )

    def test_rejects_trivial_and_disconnected_inputs(self):
        with pytest.raises(ValidationError):
            convexity_number(Graph(1))
        with pytest.raises(ValidationError):
            convexity_number(Graph(4, [(0, 1), (2, 3)]))
