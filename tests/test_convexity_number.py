from __future__ import annotations

import itertools
import random

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
from triconvex.graph import Graph, _components_bits, is_connected
from triconvex.oracle import brute_convexity_number
from triconvex.prime import enumerate_prime_convex_sets


def vs(n, items):
    return VertexSet.from_iterable(n, items)


def bfs_extension(g, dec, i, c):
    """Reference route: one search of G - c per seed, keeping the
    components that avoid the rest of atom i."""
    remainder = dec.atoms[i].bits & ~c.bits
    out = c.bits
    for comp, _ in _components_bits(g._adj, ((1 << g.n) - 1) & ~c.bits):
        if not comp & remainder:
            out |= comp
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


# Clique sums: pieces glued one at a time along a clique of the graph built
# so far, so the pieces' cliques become clique separators and the atoms are
# the pieces (or merge where a glue is not minimal). The pieces are primes
# with clique numbers 2 to 4.
PIECES = (
    (2, [(0, 1)]),
    (3, [(0, 1), (0, 2), (1, 2)]),
    (4, list(itertools.combinations(range(4), 2))),
    (4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
    (5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
    (5, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2), (4, 3)]),
    (5, [(a, b) for a in (0, 1) for b in (2, 3, 4)]),
)


def cliques(n, edges, k):
    """Every k-clique of the graph on 0..n-1 with ``edges``, as tuples."""
    es = set(edges) | {(b, a) for a, b in edges}
    return [
        c
        for c in itertools.combinations(range(n), k)
        if all(pair in es for pair in itertools.combinations(c, 2))
    ]


def clique_sum(rng, lo=9, hi=14):
    """A random clique sum on lo..hi vertices with shuffled labels.

    It starts from a random piece (K2, K3, K4, C4, C5, the wheel W4 or
    K_{2,3}) and glues random pieces along a random clique of size 1, 1, 2,
    2 or 3 of the graph so far, size 1 when the graph or the piece has no
    clique of the size drawn, while n stays at most a cap drawn from lo..hi.
    """
    cap = rng.randint(lo, hi)
    n, edges = rng.choice(PIECES)
    edges = list(edges)
    while True:
        size, piece = rng.choice(PIECES)
        k = rng.choice((1, 1, 2, 2, 3))
        here, there = cliques(n, edges, k), cliques(size, piece, k)
        if not (here and there):
            k, here, there = 1, [(v,) for v in range(n)], [(v,) for v in range(size)]
        if n + size - k > cap:
            if n >= lo:
                break
            continue
        glue = dict(zip(rng.choice(there), rng.sample(rng.choice(here), k)))
        for v in range(size):
            if v not in glue:
                glue[v] = n
                n += 1
        edges += [(glue[a], glue[b]) for a, b in piece]
    labels = list(range(n))
    rng.shuffle(labels)
    return Graph(n, [(labels[a], labels[b]) for a, b in edges])


def relabelled(g, rng):
    labels = list(range(g.n))
    rng.shuffle(labels)
    return Graph(g.n, [(labels[u], labels[v]) for u, v in g.edges()])


class TestCliqueSums:
    def test_generator_builds_connected_reducible_graphs_in_range(self):
        rng = random.Random(1)
        graphs = [clique_sum(rng) for _ in range(200)]
        assert all(9 <= g.n <= 14 and is_connected(g) for g in graphs)
        assert sum(decompose(g).t > 1 for g in graphs) >= 180
        assert max(decompose(g).t for g in graphs) >= 5

    def test_matches_bruteforce_and_ignores_labels(self):
        # past the path oracles' reach (n > 9) the brute force scans every
        # subset with the polynomial convexity test
        rng = random.Random(2)
        for _ in range(1000):
            g = clique_sum(rng)
            value = convexity_number(g).value
            assert value == brute_convexity_number(g), sorted(g.edges())
            assert convexity_number(relabelled(g, rng)).value == value, sorted(g.edges())


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

    def test_a_graph_with_a_leaf_leaves_out_only_a_leaf(self):
        # V - v is convex exactly when v has at most one neighbour, and a
        # leaf's only atom is its edge, so the scan first reaches n - 1 at
        # the first leaf edge in D-order, seeded by the endpoint (the
        # smaller, if both are leaves) whose other end is a leaf
        def leaf_answer(g):
            full = (1 << g.n) - 1
            for i, atom in enumerate(decompose(g).atoms):
                if len(atom) == 2:
                    a, b = sorted(atom)
                    for seed, leaf in ((a, b), (b, a)):
                        if g.degree(leaf) == 1:
                            witness = VertexSet(g.n, full & ~(1 << leaf))
                            return g.n - 1, witness, i, vs(g.n, [seed])
            return None

        rng = random.Random(7)
        graphs = [path_graph(n) for n in (2, 3, 9)] + [star_graph(k) for k in (1, 5)]
        graphs += [
            random_connected_graph(rng.randint(2, 60), rng.choice((0.03, 0.06, 0.1, 0.2)), seed)
            for seed in range(200)
        ]
        leafy = 0
        for g in graphs:
            res = convexity_number(g)
            expected = leaf_answer(g)
            if expected is None:
                assert res.value < g.n - 1, sorted(g.edges())
            else:
                assert (res.value, res.witness, res.atom_index, res.seed) == expected
                leafy += 1
        assert 150 < leafy < len(graphs)

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
