from __future__ import annotations

import itertools
import random

from hypothesis import given, settings

from triconvex import convexity
from triconvex.bitset import VertexSet, bit_members
from triconvex.convexity import (
    _forced_paths,
    _mono_violation,
    _p3_violation,
    _violating_components,
    is_m_convex,
    is_p3_convex,
    is_t_convex,
    is_t_hull_set,
    t_convex_hull,
)
from triconvex.decomposition import decompose
from triconvex.generators import path_graph, random_connected_graph, star_graph
from triconvex.graph import Graph, _components_bits, shortest_path
from triconvex.oracle import brute_hull, brute_is_convex

from .strategies import graphs_with_subsets


def vs(n, items):
    return VertexSet.from_iterable(n, items)


class TestP3Convexity:
    def test_two_vertices_of_a_clique_are_seen_twice(self, k4):
        assert not is_p3_convex(k4, vs(4, [0, 1]))

    def test_whole_vertex_set(self, k4):
        assert is_p3_convex(k4, VertexSet.full(4))

    def test_common_neighbour_breaks_it(self, c5):
        assert not is_p3_convex(c5, vs(5, [0, 2]))
        assert is_p3_convex(c5, vs(5, [0, 1]))


class TestMConvexity:
    def test_cycle_gap_pair(self, c5):
        assert not is_m_convex(c5, vs(5, [0, 2]))

    def test_path_prefix(self, p4):
        assert is_m_convex(p4, vs(4, [0, 1]))

    def test_clique_subset_has_no_nonadjacent_pair(self, k5):
        assert is_m_convex(k5, vs(5, [0, 1]))


class TestTConvexity:
    def test_cycle_edge_is_convex(self, c5):
        convex, witness = is_t_convex(c5, vs(5, [0, 1]))
        assert convex and witness is None

    def test_triangle_edge_reports_the_apex(self, k3):
        convex, witness = is_t_convex(k3, vs(3, [0, 1]))
        assert not convex
        assert witness.kind == "p3-violation" and witness.vertex == 2

    def test_cycle_gap_reports_common_neighbour_first(self, c5):
        convex, witness = is_t_convex(c5, vs(5, [0, 2]))
        assert not convex
        assert witness.kind == "p3-violation" and witness.vertex == 1

    def test_mono_witness_structure(self, p6):
        convex, witness = is_t_convex(p6, vs(6, [0, 5]))
        assert not convex
        assert witness.kind == "mono-violation"
        u, v = witness.pair
        assert not p6.has_edge(u, v)
        comp = witness.component
        assert any(w in comp for w in p6.neighbors(u))
        assert any(w in comp for w in p6.neighbors(v))

    def test_conjunction_of_the_two_subtests(self, sampled_corpus):
        for g in sampled_corpus[: 400 : 4]:
            for bits in range(1 << g.n):
                s = VertexSet(g.n, bits)
                assert is_t_convex(g, s)[0] == (is_p3_convex(g, s) and is_m_convex(g, s))

    def test_matches_bruteforce_on_small_corpus(self, small_corpus):
        for g in small_corpus:
            for bits in range(1 << g.n):
                s = VertexSet(g.n, bits)
                assert is_t_convex(g, s)[0] == brute_is_convex(g, s), (
                    sorted(g.edges()),
                    sorted(s),
                )


class TestHull:
    def test_cycle_gap_pair_hulls_everything(self, c5):
        assert t_convex_hull(c5, vs(5, [0, 2])) == VertexSet.full(5)

    def test_singleton_is_convex(self, c5):
        assert t_convex_hull(c5, vs(5, [3])) == vs(5, [3])

    def test_empty_set_is_convex(self, c5):
        assert t_convex_hull(c5, vs(5, [])) == vs(5, [])

    def test_path_endpoints_absorb_the_path(self, p4):
        assert t_convex_hull(p4, vs(4, [0, 3])) == VertexSet.full(4)

    def test_matches_bruteforce_on_small_corpus(self, small_corpus):
        for g in small_corpus:
            for bits in range(1 << g.n):
                s = VertexSet(g.n, bits)
                assert t_convex_hull(g, s) == brute_hull(g, s), (
                    sorted(g.edges()),
                    sorted(s),
                )

    @given(graphs_with_subsets(max_n=9))
    @settings(max_examples=200)
    def test_extensive_idempotent_and_convex(self, case):
        g, s = case
        hull = t_convex_hull(g, s)
        assert s <= hull
        assert t_convex_hull(g, hull) == hull
        assert is_t_convex(g, hull)[0]

    @given(graphs_with_subsets(max_n=9))
    @settings(max_examples=200)
    def test_monotone(self, case):
        g, s = case
        import random

        extra = random.Random(s.bits).getrandbits(g.n)
        bigger = VertexSet(g.n, s.bits | extra)
        assert t_convex_hull(g, s) <= t_convex_hull(g, bigger)


class TestHullSet:
    def test_cycle_pair(self, c5):
        assert is_t_hull_set(c5, vs(5, [0, 2]))

    def test_bowtie_outer_pair(self, bowtie):
        assert is_t_hull_set(bowtie, vs(5, [1, 3]))

    def test_singleton_cannot_hull_a_clique(self, k4):
        assert not is_t_hull_set(k4, vs(4, [0]))


class TestConvexFamilyAxioms:
    def test_family_closed_under_intersection(self, small_corpus):
        for g in small_corpus:
            if g.n > 5:
                continue
            family = [
                bits
                for bits in range(1 << g.n)
                if is_t_convex(g, VertexSet(g.n, bits))[0]
            ]
            assert 0 in family and (1 << g.n) - 1 in family
            fam = set(family)
            for a, b in itertools.combinations(family, 2):
                assert a & b in fam


# ---------------------------------------------------------------------------
# Differential check of the hull against the restart-per-vertex route: absorb
# the smallest outside vertex with two neighbours inside, rescan from scratch,
# and cross a doubly-attached component only when no such vertex is left.
# Its mono scan finds each component's attached members by a pass over every
# member of the set.


def reference_components(g, alive):
    """Components of G[alive] by a plain BFS, by min vertex, each with the
    vertices outside ``alive`` that have a neighbour in it."""
    out = []
    left = alive
    while left:
        seed = (left & -left).bit_length() - 1
        comp, queue = 1 << seed, [seed]
        while queue:
            for w in g.neighbors(queue.pop()):
                if (alive >> w) & 1 and not (comp >> w) & 1:
                    comp |= 1 << w
                    queue.append(w)
        left &= ~comp
        boundary = 0
        for v in bit_members(((1 << g.n) - 1) & ~alive):
            if g._adj[v] & comp:
                boundary |= 1 << v
        out.append((comp, boundary))
    return out


def reference_mono_violation(g, bits):
    adj = g._adj
    for comp, _ in reference_components(g, ((1 << g.n) - 1) & ~bits):
        attached = 0
        for u in bit_members(bits):
            if adj[u] & comp:
                attached |= 1 << u
        for u in bit_members(attached):
            missing = attached & ~adj[u] & ~((2 << u) - 1)
            if missing:
                return u, (missing & -missing).bit_length() - 1, comp
    return None


def reference_hull_bits(g, bits, mono_sets=None):
    """The hull; ``mono_sets``, when given, receives every set scanned for a
    mono violation."""
    adj = g._adj
    full = (1 << g.n) - 1
    while True:
        v = _p3_violation(adj, full, bits)
        if v is not None:
            bits |= 1 << v
            continue
        if mono_sets is not None:
            mono_sets.append(bits)
        hit = reference_mono_violation(g, bits)
        if hit is None:
            return bits
        u, v, comp = hit
        for w in shortest_path(g, u, v, VertexSet(g.n, comp | (1 << u) | (1 << v))):
            bits |= 1 << w


def cubic_core_with_trees(core, hung, seed):
    """A 3-regular core (a cycle plus a perfect matching of non-neighbours)
    with ``hung`` tree vertices, each joined to a random earlier vertex."""
    rng = random.Random(seed)
    while True:
        order = list(range(core))
        rng.shuffle(order)
        pairs = list(zip(order[::2], order[1::2]))
        if all((a - b) % core not in (1, core - 1) for a, b in pairs):
            break
    edges = [(i, (i + 1) % core) for i in range(core)] + pairs
    edges += [(rng.randrange(v), v) for v in range(core, core + hung)]
    return Graph(core + hung, edges)


def hull_corpus():
    graphs = [
        random_connected_graph(n, p, seed)
        for n, p, seed in itertools.product(
            (10, 30, 80, 200), (0.02, 0.05, 0.15, 0.4), range(2)
        )
    ]
    graphs.append(random_connected_graph(200, 0.3, 0))
    graphs += [path_graph(n) for n in (2, 9, 150, 400)]
    graphs += [star_graph(k) for k in (1, 6, 120)]
    graphs += [
        cubic_core_with_trees(core, hung, seed)
        for core, hung, seed in ((8, 12, 0), (30, 60, 1), (60, 140, 2), (150, 350, 3))
    ]
    return graphs


def hull_seeds(g, rng):
    sets = [0, (1 << g.n) - 1]
    for size in (1, 2, 3, 5):
        for _ in range(4):
            sets.append(sum(1 << v for v in rng.sample(range(g.n), min(size, g.n))))
    for density in (0.05, 0.2, 0.5):
        sets.append(sum(1 << v for v in range(g.n) if rng.random() < density))
    return sets


class TestAgainstRestartRoute:
    def test_hull_and_hull_set_match_restart_route(self):
        rng = random.Random(11)
        full_hulls = 0
        for g in hull_corpus():
            full = (1 << g.n) - 1
            for bits in hull_seeds(g, rng):
                expected = reference_hull_bits(g, bits)
                s = VertexSet(g.n, bits)
                context = (g.n, sorted(g.edges()), sorted(s))
                assert t_convex_hull(g, s).bits == expected, context
                assert is_t_hull_set(g, s) == (expected == full), context
                full_hulls += bits != full and expected == full
        # proper seeds reach both answers of is_t_hull_set
        assert full_hulls > 20

    def test_mono_witnesses_match_member_loop(self):
        # seeds, their complements and every p3-closed set the restart
        # route scans on the way to the hull
        rng = random.Random(17)
        witnesses = convex = 0
        for g in hull_corpus():
            full = (1 << g.n) - 1
            for bits in hull_seeds(g, rng):
                sets = [bits, full & ~bits]
                reference_hull_bits(g, bits, sets)
                for s_bits in sets:
                    expected = reference_mono_violation(g, s_bits)
                    context = (g.n, sorted(g.edges()), bin(s_bits))
                    assert _mono_violation(g._adj, full, s_bits) == expected, context
                    assert is_m_convex(g, VertexSet(g.n, s_bits)) == (expected is None), context
                    witnesses += expected is not None
                    convex += expected is None
        assert witnesses > 500 and convex > 500

    def test_components_match_bfs_with_per_member_boundary(self):
        # no vertex, every vertex, random masks, atom complements and hull
        # complements left alive
        rng = random.Random(13)
        for g in hull_corpus():
            full = (1 << g.n) - 1
            masks = [0, full]
            masks += [sum(1 << v for v in range(g.n) if rng.random() < d) for d in (0.1, 0.5, 0.9)]
            masks += [full & ~atom.bits for atom in decompose(g).atoms]
            masks += [full & ~reference_hull_bits(g, bits) for bits in hull_seeds(g, rng)]
            for alive in masks:
                assert _components_bits(g._adj, alive) == reference_components(g, alive), (
                    g.n,
                    sorted(g.edges()),
                    bin(alive),
                )


def outside_scan_p3_violation(adj, full, bits):
    for v in bit_members(full & ~bits):
        if (adj[v] & bits).bit_count() >= 2:
            return v
    return None


def is_induced_path(g, bits, u, t):
    """Is G[bits] a path with ends u and t?"""
    degrees = {w: (g._adj[w] & bits).bit_count() for w in bit_members(bits)}
    ends = sorted(w for w, d in degrees.items() if d == 1)
    inner_ok = all(d == 2 for w, d in degrees.items() if w not in (u, t))
    connected = reference_components(g, bits)[0][0] == bits
    return ends == sorted((u, t)) and inner_ok and connected


class CountingRows(list):
    """Adjacency rows that count how often a row is read."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


class TestMonoStep:
    def test_p3_member_fold_and_outside_scan_agree(self):
        rng = random.Random(23)
        graphs = [random_connected_graph(n, p, seed) for n, p, seed in ((12, 0.3, 0), (40, 0.1, 1))]
        graphs += [path_graph(30), star_graph(15), cubic_core_with_trees(10, 20, 4)]
        for g in graphs:
            full = (1 << g.n) - 1
            for size in range(g.n + 1):
                for _ in range(3):
                    bits = sum(1 << v for v in rng.sample(range(g.n), size))
                    assert _p3_violation(g._adj, full, bits) == outside_scan_p3_violation(
                        g._adj, full, bits
                    ), (g.n, sorted(g.edges()), bin(bits))

    def test_forced_paths_are_induced_and_inside_the_component_and_the_hull(self):
        rng = random.Random(29)
        crossings = 0
        for g in hull_corpus():
            adj = g._adj
            full = (1 << g.n) - 1
            for bits in hull_seeds(g, rng):
                sets = []
                hull = reference_hull_bits(g, bits, sets)
                for s_bits in sets:
                    for u, missing, comp in _violating_components(adj, full, s_bits):
                        context = (g.n, sorted(g.edges()), bin(s_bits), u)
                        inner = _forced_paths(adj, comp, u, missing)
                        assert inner and not inner & ~comp & ~hull, context
                        union = 0
                        for t in bit_members(missing):
                            path = _forced_paths(adj, comp, u, 1 << t)
                            walk = path | (1 << u) | (1 << t)
                            assert is_induced_path(g, walk, u, t), (context, t)
                            within = VertexSet(g.n, comp | (1 << u) | (1 << t))
                            assert len(shortest_path(g, u, t, within)) == walk.bit_count()
                            union |= path
                            crossings += 1
                        assert inner == union, context
        assert crossings > 100

    def test_a_hull_needs_few_component_scans(self, monkeypatch):
        # 50 pairs of a 3-regular core with hung trees, the shape where a
        # scan per crossed pair took about 16 searches per hull
        calls = 0
        search = convexity._components_bits

        def counted(adj, alive):
            nonlocal calls
            calls += 1
            return search(adj, alive)

        monkeypatch.setattr(convexity, "_components_bits", counted)
        g = cubic_core_with_trees(150, 350, 5)
        rng = random.Random(5)
        for _ in range(50):
            t_convex_hull(g, vs(g.n, rng.sample(range(g.n), 2)))
        assert calls <= 8 * 50

    def test_component_boundaries_are_folded_over_the_smaller_side(self):
        # the search reads each alive row once; the boundaries read the
        # rows of S and of N(S) when S is the smaller side, else each alive
        # row once more
        rng = random.Random(31)
        for g in (random_connected_graph(120, 0.05, 2), cubic_core_with_trees(40, 80, 6)):
            for density in (0.02, 0.1, 0.3, 0.5, 0.7, 0.95):
                alive = sum(1 << v for v in range(g.n) if rng.random() < density)
                rows = CountingRows(g._adj)
                assert _components_bits(rows, alive) == reference_components(g, alive)
                size, outside = alive.bit_count(), g.n - alive.bit_count()
                assert rows.reads <= 2 * size + min(size, outside), (density, rows.reads)
