from __future__ import annotations

import itertools
import random

import pytest

from triconvex import prime
from triconvex.bitset import VertexSet, bit_members
from triconvex.convexity import is_t_convex, t_convex_hull
from triconvex.decomposition import _pivot_details, decompose, is_prime
from triconvex.generators import complete_graph, cycle_graph, random_connected_graph
from triconvex.graph import Graph, is_connected
from triconvex.prime import (
    _by_size_then_members,
    enumerate_prime_convex_sets,
    prime_is_t_convex,
    prime_t_hull,
)

from .test_convexity import wheel
from .test_convexity_number import DIFFERENTIAL_GRAPHS, atom_convex_seeds
from .test_decomposition import min_degree_gnp, pivot_corpus


def vs(n, items):
    return VertexSet.from_iterable(n, items)


def prime_corpus(graphs):
    return [g for g in graphs if is_connected(g) and is_prime(g)]


def scan_is_clique(g, bits):
    return all(not bits & ~g._adj[v] & ~(1 << v) for v in bit_members(bits))


def scan_is_convex(g, bits):
    """Reference route: clique test, then a scan of every outside vertex."""
    if bits == (1 << g.n) - 1:
        return True
    outside = [v for v in range(g.n) if not (bits >> v) & 1]
    return scan_is_clique(g, bits) and all((g._adj[v] & bits).bit_count() < 2 for v in outside)


def scan_hull(g, bits):
    """Reference route: one closure round over the outside vertices."""
    full = (1 << g.n) - 1
    if bits == full or not scan_is_clique(g, bits):
        return full
    ext = bits
    for v in range(g.n):
        if (g._adj[v] & bits).bit_count() >= 2:
            ext |= 1 << v
    return ext if scan_is_convex(g, ext) else full


def edge_set_enumeration(g):
    """Reference route: the enumerator with a set of edge tuples as its
    worklist filter, returning the family as a list of VertexSets."""
    full = (1 << g.n) - 1
    family = {0, full} | {1 << v for v in range(g.n)}
    done = set()
    for u, v in g.edges():
        if (u, v) in done:
            continue
        cand = (1 << u) | (1 << v) | (g._adj[u] & g._adj[v])
        if scan_is_convex(g, cand):
            family.add(cand)
        for a in bit_members(cand):
            for b in bit_members(g._adj[a] & cand & ~((1 << (a + 1)) - 1)):
                done.add((a, b))
    ordered = sorted(family, key=lambda b: (b.bit_count(), tuple(bit_members(b))))
    return [VertexSet(g.n, b) for b in ordered]


def largest_atom(g):
    atom = max(decompose(g).atoms, key=len)
    return g.induced(atom)[0]


# Prime graphs large enough that outside vertices outnumber any clique:
# cycles, and the largest atom of seeded random graphs, sparse to dense.
PRIME_GRAPHS = {
    "cycle:4": cycle_graph(4),
    "cycle:40": cycle_graph(40),
    **{
        f"atom of random_connected:{n},{p},{seed}": largest_atom(
            random_connected_graph(n, p, seed)
        )
        for n, p in ((120, 0.03), (60, 0.1), (30, 0.3), (20, 0.6))
        for seed in range(2)
    },
}


def random_clique(g, rng):
    """A random clique grown greedily from a random vertex."""
    v = rng.randrange(g.n)
    bits = 1 << v
    common = g._adj[v]
    while common and rng.random() < 0.8:
        w = rng.choice(list(bit_members(common)))
        bits |= 1 << w
        common &= g._adj[w]
    return bits


class TestMemberFoldMatchesOutsideScan:
    @pytest.mark.parametrize("name", PRIME_GRAPHS)
    def test_on_random_cliques_and_non_cliques(self, name):
        g = PRIME_GRAPHS[name]
        assert is_prime(g)
        rng = random.Random(name)
        cliques = [random_clique(g, rng) for _ in range(150)]
        others = [
            sum(1 << v for v in rng.sample(range(g.n), rng.randint(2, min(5, g.n))))
            for _ in range(150)
        ]
        # a clique plus some neighbours of one member
        grown = [b | (g._adj[(b & -b).bit_length() - 1] & rng.getrandbits(g.n)) for b in cliques]
        # for each vertex v and neighbour a, an edge {a, b} that v sees twice
        seen = []
        for v in range(g.n):
            for a in bit_members(g._adj[v]):
                common = g._adj[v] & g._adj[a]
                if common:
                    seen.append((1 << a) | (common & -common))
        family = [s.bits for s in enumerate_prime_convex_sets(g)]
        for bits in cliques + others + grown + seen + family:
            s = VertexSet(g.n, bits)
            assert prime_is_t_convex(g, s) == scan_is_convex(g, bits), sorted(s)
            assert prime_t_hull(g, s).bits == scan_hull(g, bits), sorted(s)


class TestPrimeConvexityTest:
    def test_cycle_edge(self, c5):
        assert prime_is_t_convex(c5, vs(5, [0, 1]))

    def test_triangle_edge_is_not(self, k3):
        assert not prime_is_t_convex(k3, vs(3, [0, 1]))

    def test_non_clique_is_not(self, c5):
        assert not prime_is_t_convex(c5, vs(5, [0, 2]))

    def test_whole_set_always_is(self, c5):
        assert prime_is_t_convex(c5, VertexSet.full(5))

    def test_agrees_with_general_test_on_primes(self, sampled_corpus):
        for g in prime_corpus(sampled_corpus):
            for bits in range(1 << g.n):
                s = VertexSet(g.n, bits)
                assert prime_is_t_convex(g, s) == is_t_convex(g, s)[0], (
                    sorted(g.edges()),
                    sorted(s),
                )


class TestPrimeHull:
    def test_nonadjacent_pair_hulls(self, c5):
        assert prime_t_hull(c5, vs(5, [0, 2])) == VertexSet.full(5)

    def test_edge_is_its_own_hull(self, c5):
        assert prime_t_hull(c5, vs(5, [0, 1])) == vs(5, [0, 1])

    def test_complete_graph_pair_hulls(self, k4):
        assert prime_t_hull(k4, vs(4, [0, 1])) == VertexSet.full(4)

    def test_agrees_with_general_hull_on_primes(self, sampled_corpus):
        for g in prime_corpus(sampled_corpus):
            for bits in range(1 << g.n):
                s = VertexSet(g.n, bits)
                assert prime_t_hull(g, s) == t_convex_hull(g, s), (
                    sorted(g.edges()),
                    sorted(s),
                )


class TestEnumeration:
    def test_cycle_family(self, c5):
        family = enumerate_prime_convex_sets(c5)
        listed = [tuple(sorted(s)) for s in family]
        assert listed == [
            (),
            (0,), (1,), (2,), (3,), (4,),
            (0, 1), (0, 4), (1, 2), (2, 3), (3, 4),
            (0, 1, 2, 3, 4),
        ]

    def test_triangle_family(self, k3):
        family = enumerate_prime_convex_sets(k3)
        assert [tuple(sorted(s)) for s in family] == [(), (0,), (1,), (2,), (0, 1, 2)]

    def test_single_vertex_graph(self):
        family = enumerate_prime_convex_sets(Graph(1))
        assert [tuple(sorted(s)) for s in family] == [(), (0,)]

    def test_equals_exhaustive_family_on_primes(self, sampled_corpus):
        for g in prime_corpus(sampled_corpus):
            expected = {
                bits
                for bits in range(1 << g.n)
                if is_t_convex(g, VertexSet(g.n, bits))[0]
            }
            got = {s.bits for s in enumerate_prime_convex_sets(g)}
            assert got == expected, sorted(g.edges())

    def test_each_listed_set_passes_the_prime_test(self, sampled_corpus):
        for g in prime_corpus(sampled_corpus)[:40]:
            for s in enumerate_prime_convex_sets(g):
                assert prime_is_t_convex(g, s)

    def test_proper_sets_share_at_most_one_vertex(self, sampled_corpus):
        for g in prime_corpus(sampled_corpus):
            full = (1 << g.n) - 1
            proper = [
                s for s in enumerate_prime_convex_sets(g) if len(s) >= 2 and s.bits != full
            ]
            for a, b in itertools.combinations(proper, 2):
                assert len(a & b) <= 1, sorted(g.edges())

    def test_fewer_big_sets_than_vertices(self, sampled_corpus):
        for g in prime_corpus(sampled_corpus):
            full = (1 << g.n) - 1
            big = [
                s for s in enumerate_prime_convex_sets(g) if len(s) >= 3 and s.bits != full
            ]
            assert len(big) < g.n, sorted(g.edges())

    def test_matches_edge_set_enumerator_in_order(self, sampled_corpus):
        for g in prime_corpus(sampled_corpus) + list(PRIME_GRAPHS.values()):
            assert list(enumerate_prime_convex_sets(g)) == edge_set_enumeration(g), sorted(
                g.edges()
            )

    def test_complete_graph_family_size(self):
        # trivial sets only: empty, V, and n singletons
        for n in (2, 3, 5):
            assert len(enumerate_prime_convex_sets(complete_graph(n))) == n + 2


def large_primes():
    """Primes of 64 vertices or more, whose sort keys span several bytes:
    three min-degree-3 G(200, 10/200), C_70 and its wheel (triangle-free,
    then all triangles), and one 600-vertex graph of the benchmark's
    prime-dense shape."""
    graphs = [min_degree_gnp(200, 10 / 200, 3, seed) for seed in range(3)]
    return graphs + [cycle_graph(70), wheel(70), min_degree_gnp(600, 10 / 600, 3, 0)]


class TestEnumerationAtScale:
    def test_matches_edge_set_enumerator_in_order(self):
        for g in large_primes():
            assert decompose(g).t == 1, g.n
            assert list(enumerate_prime_convex_sets(g)) == edge_set_enumeration(g), g.n

    def test_byte_key_sorts_by_size_then_members(self):
        # k-sets, half of them sharing k // 2 members, plus V; every other
        # family cut to mixed sizes
        rng = random.Random(4)
        for trial in range(200):
            n = rng.randint(1, 700)
            k = rng.randint(0, min(6, 2 * n // 3))
            shared = rng.sample(range(n), k // 2)
            others = [v for v in range(n) if v not in shared]
            family = {(1 << n) - 1}
            for _ in range(40):
                if rng.random() < 0.5:
                    members = shared + rng.sample(others, k - len(shared))
                else:
                    members = rng.sample(others, k)
                if trial % 2:
                    members = members[: rng.randint(0, k)]
                family.add(sum(1 << v for v in members))
            expected = sorted(family, key=lambda b: (b.bit_count(), tuple(bit_members(b))))
            assert list(_by_size_then_members(family, n)) == expected, (n, k)

    def test_triangle_free_edges_take_no_convexity_test(self, monkeypatch):
        # a work guard, not a clock: an edge with no common neighbour is
        # added on sight, and every other edge is tested at most once
        calls = []
        convex = prime._prime_convex_bits

        def counted(adj, atom, bits):
            calls.append(bits)
            return convex(adj, atom, bits)

        monkeypatch.setattr(prime, "_prime_convex_bits", counted)
        enumerate_prime_convex_sets(cycle_graph(70))
        assert calls == []
        for g in large_primes()[:3]:
            calls.clear()
            enumerate_prime_convex_sets(g)
            with_triangle = sum(1 for u, v in g.edges() if g._adj[u] & g._adj[v])
            assert 0 < len(calls) <= with_triangle, g.n


# ---------------------------------------------------------------------------
# within=F works on an atom in the graph's own ids; the reference route
# relabels the atom with g.induced, runs on the copy and lifts back.


def atom_seeds(g, dec, i, rng):
    """Five seeded subsets of atom i (two random, a pair, a clique, a clique
    plus one vertex), its R-set, and its pivots for everything outside it."""
    atom = dec.atoms[i].bits
    members = list(bit_members(atom))
    seeds = [sum(1 << v for v in members if rng.random() < p) for p in (0.25, 0.6)]
    seeds.append(sum(1 << v for v in rng.sample(members, min(2, len(members)))))
    v = rng.choice(members)
    clique, common = 1 << v, g._adj[v] & atom
    while common and rng.random() < 0.8:
        w = rng.choice(list(bit_members(common)))
        clique |= 1 << w
        common &= g._adj[w]
    seeds.append(clique)
    seeds.append(clique | (1 << rng.choice(members)))
    if i:
        seeds.append(dec.r_sets[i - 1].bits)
    seeds.append(_pivot_details(g, dec, i, VertexSet(g.n, ((1 << g.n) - 1) & ~atom)))
    return seeds


def within_corpus():
    return pivot_corpus() + list(DIFFERENTIAL_GRAPHS.values())


class TestWithinMatchesInducedCopy:
    def test_hull_and_convexity_test(self):
        rng = random.Random(11)
        for g in within_corpus():
            dec = decompose(g)
            for i, atom in enumerate(dec.atoms):
                sub, vertices = g.induced(atom)
                for bits in atom_seeds(g, dec, i, rng):
                    s = VertexSet(g.n, bits)
                    local = VertexSet(sub.n, sum(1 << p for p, v in enumerate(vertices) if v in s))
                    lifted = sum(1 << vertices[p] for p in prime_t_hull(sub, local))
                    where = (sorted(g.edges()), i, sorted(s))
                    assert prime_t_hull(g, s, within=atom).bits == lifted, where
                    assert prime_is_t_convex(g, s, within=atom) == prime_is_t_convex(
                        sub, local
                    ), where

    def test_enumeration_in_order(self):
        for g in within_corpus():
            dec = decompose(g)
            expected = [[] for _ in dec.atoms]
            for i, seed in atom_convex_seeds(g, dec):
                expected[i].append(seed.bits)
            for i, atom in enumerate(dec.atoms):
                family = enumerate_prime_convex_sets(g, within=atom)
                assert family.n == g.n
                assert list(family.bits) == expected[i], (sorted(g.edges()), i)
