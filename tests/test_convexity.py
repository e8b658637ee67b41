from __future__ import annotations

import collections
import itertools
import random

from hypothesis import given, settings

from triconvex import convexity
from triconvex.bitset import VertexSet, bit_members, byte_members
from triconvex.convexity import (
    _forced_paths,
    _kept_core,
    _lone_piece,
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
from triconvex.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)
from triconvex.graph import (
    _WIDE_LEVEL,
    Graph,
    _component_bits,
    _components_bits,
    _non_edge,
    _pendant_forest,
    shortest_path,
)
from triconvex.oracle import brute_hull, brute_is_convex

from .strategies import graphs_with_subsets
from .test_closed_forms import random_recursive_tree


def vs(n, items):
    return VertexSet.from_iterable(n, items)


def kept_bits(g, bits):
    """All that ``_kept_core`` keeps: its core side and its tree paths."""
    core, trees, _ = _kept_core(g, bits)
    return core | trees


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
    while True:
        v = _p3_violation(adj, bits)
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


def caterpillar(spine, legs):
    """A path of ``spine`` vertices, each with ``legs`` leaves."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(i, spine + i * legs + j) for i in range(spine) for j in range(legs)]
    return Graph(spine * (legs + 1), edges)


def cycle_with_hung_paths(cycle, lengths):
    """C_cycle with, at vertex i, a hung path of ``lengths[i % len(lengths)]``
    vertices."""
    edges = [(i, (i + 1) % cycle) for i in range(cycle)]
    n = cycle
    for i in range(cycle):
        prev = i
        for _ in range(lengths[i % len(lengths)]):
            edges.append((prev, n))
            prev, n = n, n + 1
    return Graph(n, edges)


def spider(legs, length):
    """A centre with ``legs`` paths of ``length`` vertices each."""
    edges = []
    for leg in range(legs):
        prev = 0
        for j in range(length):
            v = 1 + leg * length + j
            edges.append((prev, v))
            prev = v
    return Graph(1 + legs * length, edges)


def pendant_graphs():
    """Graphs whose vertices mostly lie in pendant trees, and K2 and K1."""
    return [
        caterpillar(12, 3),
        cycle_with_hung_paths(9, (0, 3, 1, 5)),
        cycle_with_hung_paths(5, (2,)),
        spider(5, 6),
        complete_graph(2),
        complete_graph(1),
    ]


def wheel(rim):
    """A hub 0 joined to every vertex of a cycle on 1..rim."""
    edges = [(0, i) for i in range(1, rim + 1)]
    edges += [(i, i % rim + 1) for i in range(1, rim + 1)]
    return Graph(rim + 1, edges)


def hang_blocks(base, blocks, seed, chain=False):
    """``base`` with each of ``blocks`` hung at a random vertex (its vertex 0
    becomes that vertex, a cut vertex): of anything built so far, or with
    ``chain`` of the block hung just before. Then one random relabelling."""
    rng = random.Random(seed)
    edges, n = list(base.edges()), base.n
    last = range(n)
    for block in blocks:
        ids = [rng.choice(last)] + list(range(n, n + block.n - 1))
        edges += [(ids[u], ids[v]) for u, v in block.edges()]
        n += block.n - 1
        last = ids if chain else range(n)
    label = list(range(n))
    rng.shuffle(label)
    return Graph(n, [(label[u], label[v]) for u, v in edges])


def block_hung_graphs():
    """C5 and K4 blocks and wheels hung at cut vertices, and chains of
    cycles: a member at a cut vertex may meet only a member-free block."""
    c5, k4 = cycle_graph(5), complete_graph(4)
    return [
        hang_blocks(random_connected_graph(20, 0.15, 0), [c5, k4, wheel(5), c5, wheel(6)], 0),
        hang_blocks(cycle_graph(8), [c5, c5, c5, k4, k4], 1),
        hang_blocks(k4, [wheel(5), c5, c5, wheel(4)], 2),
        hang_blocks(random_connected_graph(60, 0.06, 1), [c5, k4, wheel(5)] * 6, 3),
        hang_blocks(cycle_graph(5), [cycle_graph(k) for k in (4, 5, 6, 7, 5)], 4, chain=True),
        hang_blocks(cycle_graph(6), [c5] * 10, 5, chain=True),
    ]


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
    graphs += pendant_graphs()
    graphs += block_hung_graphs()
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
    def test_hull_and_hull_set_match_restart_route(self, monkeypatch):
        scans = 0
        scan = convexity._violating_components

        def counted(adj, core, bits):
            nonlocal scans
            scans += 1
            return scan(adj, core, bits)

        monkeypatch.setattr(convexity, "_violating_components", counted)
        rng = random.Random(11)
        full_hulls = fallbacks = 0
        for g in hull_corpus():
            full = (1 << g.n) - 1
            for bits in hull_seeds(g, rng):
                expected = reference_hull_bits(g, bits)
                s = VertexSet(g.n, bits)
                context = (g.n, sorted(g.edges()), sorted(s))
                before = scans
                assert t_convex_hull(g, s).bits == expected, context
                fallbacks += scans > before
                assert is_t_hull_set(g, s) == (expected == full), context
                full_hulls += bits != full and expected == full
        # proper seeds reach both answers of is_t_hull_set, and the member
        # search comes back empty-handed often enough to test the full scan
        assert full_hulls > 20
        assert fallbacks >= 20

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
                    assert _mono_violation(g, s_bits, *_kept_core(g, s_bits)) == expected, context
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

    def test_seed_mask_search_is_the_union_of_single_seed_searches(self):
        # each seed keeps itself and adds every component of G[alive] it
        # lies in or has a neighbour in; seeds outside alive and no seed
        # at all included
        rng = random.Random(19)
        searches = outside = 0
        for g in hull_corpus():
            for density in (0.0, 0.3, 0.7, 1.0):
                alive = sum(1 << v for v in range(g.n) if rng.random() < density)
                components = [comp for comp, _ in reference_components(g, alive)]
                for seed_density in (0.0, 0.1, 0.4):
                    seeds = sum(1 << v for v in range(g.n) if rng.random() < seed_density)
                    expected = seeds
                    for v in bit_members(seeds):
                        near = (1 << v) | g._adj[v]
                        expected |= sum(comp for comp in components if comp & near)
                    context = (g.n, sorted(g.edges()), bin(alive), bin(seeds))
                    assert _component_bits(g._adj, alive, seeds) == expected, context
                    union = 0
                    for v in bit_members(seeds):
                        union |= _component_bits(g._adj, alive, 1 << v)
                    assert union == expected, context
                    searches += 1
                    outside += bool(seeds & ~alive)
        assert searches > 500 and outside > 200


def outside_scan_p3_violation(adj, full, bits):
    for v in bit_members(full & ~bits):
        if (adj[v] & bits).bit_count() >= 2:
            return v
    return None


def bfs_levels(g, within, source):
    """BFS levels from ``source`` inside G[within], as masks."""
    levels, seen = [1 << source], 1 << source
    while True:
        grown = 0
        for v in bit_members(levels[-1]):
            grown |= g._adj[v]
        grown &= within & ~seen
        if not grown:
            return levels
        seen |= grown
        levels.append(grown)


def is_induced_path(g, bits, u, t):
    """Is G[bits] a path with ends u and t?"""
    degrees = {w: (g._adj[w] & bits).bit_count() for w in bit_members(bits)}
    ends = sorted(w for w, d in degrees.items() if d == 1)
    inner_ok = all(d == 2 for w, d in degrees.items() if w not in (u, t))
    connected = sum(bfs_levels(g, bits, u)) == bits
    return ends == sorted((u, t)) and inner_ok and connected


def geodesics(g, alive, u, targets):
    """``{t: (inside, from_u, from_t)}`` for every target t that u reaches
    inside alive + {u, t}: ``inside`` is every w in alive with
    d_u(w) + d_t(w) = d(u, t), and ``from_u``/``from_t`` are the BFS levels
    from u and t there."""
    out = {}
    for t in bit_members(targets):
        within = alive | (1 << u) | (1 << t)
        from_u = bfs_levels(g, within, u)
        d = next((i for i, level in enumerate(from_u) if level >> t & 1), None)
        if d is not None:
            from_t = bfs_levels(g, within, t)
            inside = 0
            for i in range(1, d):
                inside |= from_u[i] & from_t[d - i]
            out[t] = inside, from_u, from_t
    return out


def walk_through(g, from_u, from_t, w):
    """A u-t walk through ``w`` that steps one BFS level down at a time, to u
    by ``from_u`` and to t by ``from_t``, as a mask."""
    walk = 1 << w
    for levels in (from_u, from_t):
        v = w
        i = next(i for i, level in enumerate(levels) if level >> v & 1)
        for level in reversed(levels[:i]):
            step = g._adj[v] & level
            v = (step & -step).bit_length() - 1
            walk |= 1 << v
    return walk


def component_scans_per_hull(monkeypatch, g, seed, pairs=50):
    """Component searches per hull, over the hulls of random vertex pairs."""
    calls = 0
    search = convexity._components_bits

    def counted(adj, alive, within=None):
        nonlocal calls
        calls += 1
        return search(adj, alive, within)

    monkeypatch.setattr(convexity, "_components_bits", counted)
    rng = random.Random(seed)
    for _ in range(pairs):
        t_convex_hull(g, vs(g.n, rng.sample(range(g.n), 2)))
    return calls / pairs


def member_beside_a_block(block, cycles, length):
    """Vertex 0 on the square of a cycle through 0..block, joined to vertex
    block + 1, where a chain of ``cycles`` cycles of ``length`` vertices
    starts: each cycle meets the next at its vertex farthest from where it
    meets the one before."""
    ring = block + 1
    edges = [(i, (i + step) % ring) for i in range(ring) for step in (1, 2)]
    edges.append((0, ring))
    start, n = ring, ring + 1
    for _ in range(cycles):
        ids = [start] + list(range(n, n + length - 1))
        edges += [(ids[i], ids[(i + 1) % length]) for i in range(length)]
        start, n = ids[length // 2], n + length - 1
    return Graph(n, edges)


class CountingRows(list):
    """Adjacency rows that count how often a row is read."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def wide_mask_cases(rng):
    """``(adj, mask)`` pairs over G(n, 10/n) and G(n, 1/2) for n in 1, 40,
    300 and 700: masks of 0, 1, 2 and 31-34 members, around
    ``_WIDE_LEVEL``, and dense ones."""
    for n in (1, 40, 300, 700):
        for p in (min(1.0, 10 / n), 0.5):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            adj = Graph(n, pairs)._adj
            for size in (0, 1, 2, 31, 32, 33, 34):
                if size <= n:
                    yield adj, sum(1 << v for v in rng.sample(range(n), size))
            for density in (0.5, 0.9, 1.0):
                yield adj, sum(1 << v for v in range(n) if rng.random() < density)


class TestSeenTwice:
    def test_matches_a_low_bit_count(self, monkeypatch):
        # more than _WIDE_LEVEL outside vertices are listed by bytes, fewer by
        # the low bit, and both yield by increasing id
        wide = []

        def counted(bits):
            wide.append(bits.bit_count())
            return byte_members(bits)

        monkeypatch.setattr(convexity, "byte_members", counted)
        rng = random.Random(13)
        for adj, outside in wide_mask_cases(rng):
            n = len(adj)
            bits = rng.getrandbits(n) & ~outside
            expected = [v for v in bit_members(outside) if (adj[v] & bits).bit_count() > 1]
            size = outside.bit_count()
            wide.clear()
            assert list(convexity._seen_twice(adj, bits, outside)) == expected, (n, size)
            assert wide == ([size] if size > _WIDE_LEVEL else []), (n, size)

    def test_the_p3_witness_is_the_smallest_kept_non_member_seen_twice(self):
        # through the public test, with S the larger side and more than
        # _WIDE_LEVEL kept non-members, so they are counted by bytes; the
        # hung leaves are dropped and see one member at most
        g = hang_blocks(random_connected_graph(120, 0.08, 5), [complete_graph(2)] * 30, 5)
        adj = g._adj
        core = list(bit_members(_pendant_forest(g)[0]))
        rng = random.Random(79)
        for _ in range(20):
            bits = sum(1 << v for v in rng.sample(core, 80))
            outside = kept_bits(g, bits) & ~bits
            assert bits.bit_count() > outside.bit_count() > _WIDE_LEVEL
            twice = [v for v in range(g.n) if not bits >> v & 1 and (adj[v] & bits).bit_count() > 1]
            assert len(twice) > 1 and not (1 << twice[0]) & ~outside
            convex, witness = is_t_convex(g, VertexSet(g.n, bits))
            assert not convex and witness.kind == "p3-violation"
            assert witness.vertex == twice[0], (sorted(bit_members(bits)), twice)


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
                    assert _p3_violation(g._adj, bits) == outside_scan_p3_violation(
                        g._adj, full, bits
                    ), (g.n, sorted(g.edges()), bin(bits))

    def test_forced_paths_are_every_shortest_path_inside_of_both_routes(self):
        # the scan crosses (u, missing, D) for each violating component D;
        # the member search crosses (u, S - N[u], core - S) from the first
        # member next to the core minus S with a non-neighbour in S
        rng = random.Random(29)
        crossings = 0
        for g in hull_corpus():
            adj = g._adj
            full = (1 << g.n) - 1
            for bits in hull_seeds(g, rng):
                sets = []
                hull = reference_hull_bits(g, bits, sets)
                for s_bits in sets:
                    alive = kept_bits(g, s_bits) & ~s_bits
                    routes = list(_violating_components(adj, full, s_bits))
                    for u in bit_members(s_bits):
                        missing = s_bits & ~adj[u] & ~(1 << u)
                        if missing and adj[u] & alive:
                            routes.append((u, missing, alive))
                            break
                    for u, targets, within in routes:
                        context = (g.n, sorted(g.edges()), bin(s_bits), u, bin(within))
                        inner = _forced_paths(adj, within, u, targets)
                        assert not inner & ~hull, context
                        union = 0
                        for t, (inside, from_u, from_t) in geodesics(g, within, u, targets).items():
                            # each vertex of an induced u-t path lies on one
                            left = inside & ~union
                            while left:
                                w = (left & -left).bit_length() - 1
                                walk = walk_through(g, from_u, from_t, w)
                                assert is_induced_path(g, walk, u, t), (context, w, t)
                                left &= ~walk
                            union |= inside
                        assert inner == union, context
                        crossings += bool(inner)
        assert crossings > 100

    def test_a_hull_needs_few_component_scans(self, monkeypatch):
        # a 3-regular core with hung trees, the shape where a scan per
        # crossed pair took about 16 searches per hull, and one per mono
        # round about 5
        g = cubic_core_with_trees(150, 350, 5)
        assert component_scans_per_hull(monkeypatch, g, 5) <= 1

    def test_a_prime_hull_needs_few_component_scans(self, monkeypatch):
        # one prime atom, where a scan per mono round took about 2.3 per hull
        g = random_connected_graph(300, 0.03, 0)
        assert len(decompose(g).atoms) == 1
        assert component_scans_per_hull(monkeypatch, g, 0) <= 1

    def test_a_closure_makes_one_empty_member_search_at_most(self, monkeypatch):
        # member 0 is the first member with an alive neighbour, but those
        # all lie in a member-free 2-connected block hung at 0 that reaches
        # no member; the closure must cross the chain of cycles by scans
        block = 40
        g = member_beside_a_block(block, cycles=4, length=7)
        empty = []
        crossing = convexity._forced_paths

        def counted(adj, alive, u, targets):
            inner = crossing(adj, alive, u, targets)
            empty.append(not inner)
            return inner

        monkeypatch.setattr(convexity, "_forced_paths", counted)
        first, far = block + 1, g.n - 1  # on the first and the last cycle
        fallbacks = 0
        for members in ([0, first, far], [0, first, far - 3], [0, first, 50], [0, first, 47, far]):
            bits = sum(1 << v for v in members)
            empty.clear()
            assert t_convex_hull(g, VertexSet(g.n, bits)).bits == reference_hull_bits(g, bits)
            assert sum(empty) <= 1, (members, empty)
            fallbacks += any(empty)
        assert fallbacks == 4

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


def min_degree_gnp(n, p, seed, min_degree=3):
    """``random_connected_graph`` with each degree raised to ``min_degree``
    by edges to uniform non-neighbours, as the benchmark's dense graphs are."""
    rng = random.Random(seed)
    adj = list(random_connected_graph(n, p, seed)._adj)
    for u in range(n):
        while adj[u].bit_count() < min_degree:
            v = rng.randrange(n)
            if v != u:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph(n, [(u, v) for u in range(n) for v in bit_members(adj[u] >> u << u)])


def dense_graphs():
    """Dense G(n, p), alone and with small blocks hung at cut vertices (their
    other vertices see one member of a hull through the dense part, so it
    stays proper), and one min-degree-3 G(200, 10/200)."""
    c5, k4 = cycle_graph(5), complete_graph(4)
    graphs = []
    for seed, (n, p) in enumerate(itertools.product((20, 32, 45, 60), (0.3, 0.5))):
        g = random_connected_graph(n, p, seed)
        graphs += [g, hang_blocks(g, [c5, k4, cycle_graph(4)][: 1 + seed % 3], seed)]
    graphs.append(min_degree_gnp(200, 10 / 200, 0))
    return graphs


def dense_seeds(g, rng):
    """Pairs and triples, and random sets from a tenth to most of V."""
    sets = [sum(1 << v for v in rng.sample(range(g.n), k)) for k in (2, 2, 2, 2, 3, 3)]
    for density in (0.1, 0.25, 0.4, 0.55, 0.7, 0.85):
        sets.append(sum(1 << v for v in range(g.n) if rng.random() < density))
    return sets


def between(g, alive, u, t):
    """``(inside, d)``: d = d(u, t) and inside every w in ``alive`` with
    d(u, w) + d(w, t) = d, distances taken through ``alive``; ``(0, None)``
    when t is out of u's reach."""
    within = alive | (1 << u) | (1 << t)
    from_u = {v: i for i, level in enumerate(bfs_levels(g, within, u)) for v in bit_members(level)}
    from_t = {v: i for i, level in enumerate(bfs_levels(g, within, t)) for v in bit_members(level)}
    d = from_u.get(t)
    if d is None:
        return 0, None
    inside = 0
    for w in bit_members(alive):
        if from_u.get(w, g.n) + from_t.get(w, g.n) == d:
            inside |= 1 << w
    return inside, d


def one_sided_paths(adj, alive, u, targets):
    """The one-sided crossing: a BFS from ``u`` alone through ``alive`` until
    every target is reached, then one backward sweep from the targets."""
    levels, hits, seen = [adj[u] & alive], [], adj[u] & alive
    while True:
        grown = 0
        for v in bit_members(levels[-1]):
            grown |= adj[v]
        hits.append(grown & targets)
        targets &= ~grown
        grown &= alive & ~seen
        if not (grown and targets):
            break
        seen |= grown
        levels.append(grown)
    inner = kept = 0
    for level, hit in zip(reversed(levels), reversed(hits)):
        reach = 0
        for v in bit_members(kept | hit):
            reach |= adj[v]
        kept = level & reach
        inner |= kept
    return inner


class TestSmallerSide:
    def test_dense_hulls_match_the_restart_route(self, monkeypatch):
        # once a round's new members outnumber the vertices left alive, the
        # round counts each alive vertex's members instead of folding
        counts = 0
        count = convexity._seen_twice

        def counted(adj, bits, outside):
            nonlocal counts
            counts += 1
            return count(adj, bits, outside)

        monkeypatch.setattr(convexity, "_seen_twice", counted)
        rng = random.Random(61)
        rounds = proper = 0
        for g in dense_graphs():
            full = (1 << g.n) - 1
            for bits in dense_seeds(g, rng):
                expected = reference_hull_bits(g, bits)
                s = VertexSet(g.n, bits)
                context = (g.n, sorted(g.edges()), sorted(s))
                before = counts
                assert t_convex_hull(g, s).bits == expected, context
                rounds += counts - before
                assert is_t_hull_set(g, s) == (expected == full), context
                proper += expected != full
        assert rounds >= 100 and proper >= 30

    def test_a_fold_after_a_count_round_folds_the_members_it_skipped(self):
        # S = {0, 1, 2} outnumbers {3, 4}, so the first round counts and
        # absorbs 3; then {3} does not outnumber {4}, so the next round folds,
        # and 4 sees 3 and the skipped member 0. Folding 3 alone misses 4,
        # and no mono round finds it: its members 0 and 3 are adjacent.
        g = Graph(5, [(0, 3), (1, 3), (2, 3), (0, 4), (3, 4)])
        assert t_convex_hull(g, vs(5, [0, 1, 2])) == VertexSet.full(5)

    def test_one_target_crossing_is_every_vertex_between(self):
        # random alive masks, from sparse ones that leave t out of reach to
        # all of V but u and t
        rng = random.Random(67)
        graphs = [random_connected_graph(n, p, seed) for n, p, seed in ((30, 0.1, 0), (60, 0.05, 1))]
        graphs += dense_graphs()[:4] + [cubic_core_with_trees(40, 40, 7), cycle_graph(31)]
        distances = collections.Counter()
        for g in graphs:
            adj = g._adj
            for density in (0.3, 0.5, 0.7, 0.9, 1.0):
                for _ in range(25):
                    u, t = rng.sample(range(g.n), 2)
                    if adj[u] >> t & 1:
                        continue
                    alive = sum(1 << v for v in range(g.n) if rng.random() < density)
                    alive &= ~((1 << u) | (1 << t))
                    expected, d = between(g, alive, u, t)
                    context = (g.n, sorted(g.edges()), bin(alive), u, t)
                    assert _forced_paths(adj, alive, u, 1 << t) == expected, context
                    assert one_sided_paths(adj, alive, u, 1 << t) == expected, context
                    distances[min(d or 0, 5)] += 1
        # out of reach (0), the meeting set alone (2), one side's sweep (3)
        # and both (4 and more)
        assert min(distances[d] for d in (0, 2, 3, 4, 5)) >= 50, distances

    def test_a_pair_hull_reads_at_most_n_rows(self, monkeypatch):
        # the benchmark's dense shape, where a pair hull is almost always V:
        # folding every member read about 1.7 n rows per hull, and a
        # one-sided crossing as many rows as its whole BFS ball
        g = min_degree_gnp(600, 10 / 600, 3)
        rows = CountingRows(g._adj)
        g._adj = rows
        calls = []
        crossing = convexity._forced_paths

        def recorded(adj, alive, u, targets):
            calls.append((alive, u, targets))
            return crossing(adj, alive, u, targets)

        monkeypatch.setattr(convexity, "_forced_paths", recorded)
        t_convex_hull(g, vs(g.n, [0, 1]))
        rng = random.Random(71)
        reads = []
        for _ in range(100):
            s = vs(g.n, rng.sample(range(g.n), 2))
            rows.reads = 0
            t_convex_hull(g, s)
            reads.append(rows.reads)
        assert sorted(reads)[len(reads) // 2] <= g.n, sorted(reads)
        single = [call for call in calls if not call[2] & (call[2] - 1)]
        assert len(single) > 100
        for alive, u, targets in single:
            rows.reads = 0
            inner = crossing(rows, alive, u, targets)
            met = rows.reads
            rows.reads = 0
            assert one_sided_paths(rows, alive, u, targets) == inner
            assert met < rows.reads, (alive, u, targets)

    def test_hulls_match_with_the_crossing_rule_off(self, monkeypatch):
        # with every member search crossing by one BFS to all the members u
        # misses, as before the rule, the hulls are the same. The dense
        # graphs are where the rule picks one target of several; the cubic
        # core with hung trees, the sparse-atoms shape, leaves it to a BFS
        picked = collections.Counter()
        rule = convexity._crossing_targets

        def recorded(adj, alive, near, missing):
            targets = rule(adj, alive, near, missing)
            if targets and missing & (missing - 1):
                picked["bfs" if targets == missing else "one of several"] += 1
            return targets

        graphs = [min_degree_gnp(600, 10 / 600, 3)]
        graphs += [random_connected_graph(300, 0.03, seed) for seed in range(3)]
        graphs.append(cubic_core_with_trees(150, 350, 5))
        rng = random.Random(73)
        cases = []
        for g in graphs:
            for size in (2, 2, 2, 2, 3, 3, 5, 20):
                cases += [(g, vs(g.n, rng.sample(range(g.n), size))) for _ in range(8)]
        monkeypatch.setattr(convexity, "_crossing_targets", recorded)
        hulls = [t_convex_hull(g, s) for g, s in cases]
        # the rule off: every member search crosses to all the members u misses
        monkeypatch.setattr(convexity, "_crossing_targets", lambda *args: args[-1])
        for (g, s), hull in zip(cases, hulls):
            assert t_convex_hull(g, s) == hull, (g.n, sorted(s))
        assert picked["one of several"] >= 50 and picked["bfs"] >= 50, picked

    def test_a_missed_member_with_no_alive_neighbour_is_no_target(self, monkeypatch):
        # the 6-cycle 0-4-5-2-7-6 with the path 0-3-1 hung at 0: member 1
        # sees only member 3, so from 0 the search meets 2, the first missed
        # member with an alive neighbour; with 2 left out, 0 misses only 1
        # and the search crosses nowhere, leaving the scan to find S closed
        g = Graph(8, [(0, 3), (3, 1), (0, 4), (4, 5), (5, 2), (0, 6), (6, 7), (7, 2)])
        calls = []
        crossing = convexity._forced_paths

        def recorded(adj, alive, u, targets):
            calls.append((u, targets))
            return crossing(adj, alive, u, targets)

        monkeypatch.setattr(convexity, "_forced_paths", recorded)
        assert t_convex_hull(g, vs(8, [0, 1, 2, 3])) == VertexSet.full(8)
        assert calls[0] == (0, 1 << 2)
        calls.clear()
        assert t_convex_hull(g, vs(8, [0, 1, 3])) == vs(8, [0, 1, 3])
        assert calls == []
        for bits in (0b1111, 0b1011):
            assert t_convex_hull(g, VertexSet(8, bits)).bits == reference_hull_bits(g, bits)


def reference_peel(g, bits):
    """The vertices of member-free pendant trees: sweep after sweep, delete
    every non-member with at most one neighbour left."""
    full = (1 << g.n) - 1
    left = full
    while True:
        drop = [v for v in bit_members(left & ~bits) if (g._adj[v] & left).bit_count() <= 1]
        if not drop:
            return full & ~left
        for v in drop:
            left &= ~(1 << v)


def peel_graphs():
    return pendant_graphs() + [cubic_core_with_trees(30, 60, 1)]


class TestPendantPeel:
    def test_hull_and_searches_avoid_member_free_pendant_trees(self, monkeypatch):
        # both searches: the component scan, and the crossing BFS, whose
        # region is all it may enter
        searched = []
        search, crossing = convexity._components_bits, convexity._forced_paths

        def recorded(adj, alive, within=None):
            searched.append(alive)
            return search(adj, alive, within)

        def recorded_crossing(adj, alive, u, targets):
            searched.append(alive)
            return crossing(adj, alive, u, targets)

        monkeypatch.setattr(convexity, "_components_bits", recorded)
        monkeypatch.setattr(convexity, "_forced_paths", recorded_crossing)
        rng = random.Random(37)
        checked = 0
        for g in peel_graphs():
            for bits in hull_seeds(g, rng):
                searched.clear()
                peeled = reference_peel(g, bits)
                hull = t_convex_hull(g, VertexSet(g.n, bits)).bits
                context = (g.n, sorted(g.edges()), bin(bits))
                assert not hull & peeled, context
                assert not any(alive & peeled for alive in searched), context
                checked += bool(searched and peeled)
        assert checked > 30

    def test_violating_components_on_a_core_attach_members_only(self):
        # path 0 - 1 - 2 with member 0 and core {0, 1}: the boundary of {1}
        # is taken within the core, so the peeled vertex 2 is no partner of 0
        g = path_graph(3)
        assert list(_violating_components(g._adj, 0b011, 0b001)) == []
        assert _components_bits(g._adj, 0b010, 0b011) == [(0b010, 0b001)]
        rng = random.Random(43)
        crossings = 0
        for g in peel_graphs():
            adj = g._adj
            full = (1 << g.n) - 1
            for bits in hull_seeds(g, rng):
                core = full & ~reference_peel(g, bits)
                got = list(_violating_components(adj, core, bits))
                context = (g.n, sorted(g.edges()), bin(bits))
                components = reference_components(g, core & ~bits)
                within = _components_bits(adj, core & ~bits, core)
                assert within == [(comp, boundary & core) for comp, boundary in components]
                for u, missing, comp in got:
                    assert (bits >> u) & 1 and not missing & ~bits, context
                    assert not comp & ~core, context
                    assert comp in [comp for comp, _ in components], context
                on_g = {
                    (u, missing, comp & core)
                    for u, missing, comp in _violating_components(adj, full, bits)
                }
                assert set(got) == on_g, context
                crossings += len(got)
        assert crossings > 20

    def test_induced_subgraph_hulls_as_the_rebuilt_graph(self):
        rng = random.Random(41)
        for g in peel_graphs():
            for _ in range(4):
                keep = VertexSet(g.n, sum(1 << v for v in range(g.n) if rng.random() < 0.7))
                sub, _ = g.induced(keep)
                rebuilt = Graph(sub.n, sub.edges())
                for bits in hull_seeds(sub, rng):
                    s = VertexSet(sub.n, bits)
                    assert t_convex_hull(sub, s) == t_convex_hull(rebuilt, s), (
                        sorted(rebuilt.edges()),
                        sorted(s),
                    )


def disjoint_union(graphs, seed):
    """The graphs side by side under one random relabelling, and each part's
    vertices under it."""
    n = sum(g.n for g in graphs)
    label = list(range(n))
    random.Random(seed).shuffle(label)
    edges, parts, offset = [], [], 0
    for g in graphs:
        edges += [(label[offset + u], label[offset + v]) for u, v in g.edges()]
        parts.append([label[offset + v] for v in range(g.n)])
        offset += g.n
    return Graph(n, edges), parts


def forest_graphs():
    """Forests with several tree components and isolated vertices, K1 and K2,
    the empty graph, and a core with hung trees beside tree components.
    Each comes with its tree components' vertex lists."""
    trees = [path_graph(7), star_graph(4), random_recursive_tree(12, 1), Graph(1), complete_graph(2)]
    forest, parts = disjoint_union(trees, 0)
    mixed, mixed_parts = disjoint_union([cubic_core_with_trees(10, 15, 7)] + trees, 1)
    return [
        (Graph(0), []),
        (Graph(1), [[0]]),
        (complete_graph(2), [[0, 1]]),
        (Graph(5), [[v] for v in range(5)]),
        (forest, parts),
        (mixed, mixed_parts[1:]),
        (spider(4, 3), [list(range(13))]),
    ]


def tree_component_seeds(parts, rng):
    """Sets whose members all lie in tree components: one member, two in one
    component, and a few spread over several."""
    sets = []
    for part in parts:
        sets.append(1 << rng.choice(part))
        if len(part) > 1:
            sets.append(sum(1 << v for v in rng.sample(part, 2)))
    every = [v for part in parts for v in part]
    for size in (2, 3, 6):
        sets.append(sum(1 << v for v in rng.sample(every, min(size, len(every)))))
    return sets


def induced_pendant_graphs(rng):
    """Induced subgraphs of graphs whose pendant forest is already built."""
    out = []
    for g in peel_graphs():
        _kept_core(g, 0)
        for _ in range(3):
            keep = VertexSet(g.n, sum(1 << v for v in range(g.n) if rng.random() < 0.7))
            out.append(g.induced(keep)[0])
    return out


class TestKeptCore:
    def test_equals_the_sweep_peel(self):
        rng = random.Random(47)
        cases = [(g, hull_seeds(g, rng)) for g in peel_graphs() + induced_pendant_graphs(rng)]
        trimmed = 0
        for g, parts in forest_graphs():
            seeds = hull_seeds(g, rng) + tree_component_seeds(parts, rng) if g.n else [0]
            cases.append((g, seeds))
        for g, seeds in cases:
            full = (1 << g.n) - 1
            for bits in seeds:
                kept = kept_bits(g, bits)
                context = (g.n, sorted(g.edges()), bin(bits))
                assert kept == full & ~reference_peel(g, bits), context
                # walks that run on to the forest roots keep more than the
                # member paths do
                core, parent = g._forest[:2]
                walked = core | bits
                for v in bit_members(bits & ~core):
                    while parent[v] >= 0:
                        v = parent[v]
                        walked |= 1 << v
                trimmed += walked != kept
        assert trimmed > 20

    def test_the_forest_is_built_once_per_graph(self):
        g = cubic_core_with_trees(30, 60, 1)
        assert g._forest is None
        t_convex_hull(g, vs(g.n, [40, 70]))
        forest = g._forest
        is_t_convex(g, vs(g.n, [41, 71]))
        assert g._forest is forest
        sub, _ = g.induced(VertexSet.full(g.n))
        assert sub._forest is None and sub == g


class TestKeptP3Universe:
    def test_the_kept_set_gives_the_whole_graph_answer(self, monkeypatch):
        # is_t_convex checks P3 over what _kept_core keeps: a dropped vertex
        # sees one member at most, so the smallest outside vertex seen twice
        # is the one over all of G
        calls = []
        p3 = convexity._p3_violation

        def recorded(adj, bits, universe=None):
            calls.append((bits, universe))
            return p3(adj, bits, universe)

        monkeypatch.setattr(convexity, "_p3_violation", recorded)
        rng = random.Random(59)
        cases = [(g, hull_seeds(g, rng)) for g in pendant_graphs()]
        for g, parts in forest_graphs():
            if g.n:
                cases.append((g, hull_seeds(g, rng) + tree_component_seeds(parts, rng)))
        found = narrowed = seen_once = 0
        for g, seeds in cases:
            adj, full = g._adj, (1 << g.n) - 1
            for bits in seeds:
                hull = t_convex_hull(g, VertexSet(g.n, bits)).bits
                for s_bits in (bits, full & ~bits, hull):
                    calls.clear()
                    is_t_convex(g, VertexSet(g.n, s_bits))
                    for members, universe in calls:
                        context = (g.n, sorted(g.edges()), bin(members))
                        v = p3(adj, members, universe)
                        assert v == p3(adj, members), context
                        dropped = full & ~universe
                        counts = [(adj[w] & members).bit_count() for w in bit_members(dropped)]
                        assert max(counts, default=0) <= 1, context
                        found += v is not None
                        narrowed += bool(dropped)
                        seen_once += 1 in counts
        assert found > 80 and narrowed > 120 and seen_once > 100, (found, narrowed, seen_once)


def member_tree_paths(g, parts, bits):
    """The union, over the tree components ``parts``, of the tree paths
    between the members of ``bits`` in each: parent pointers from the first
    member, and every member's path up to it."""
    union = 0
    for part in parts:
        members = [v for v in part if (bits >> v) & 1]
        if not members:
            continue
        parent = {members[0]: None}
        queue = [members[0]]
        for u in queue:
            for w in g.neighbors(u):
                if w not in parent:
                    parent[w] = u
                    queue.append(w)
        for v in members:
            while v is not None:
                union |= 1 << v
                v = parent[v]
    return union


def shuffled_path(n, seed):
    """P_n under a random relabelling, so the peel meets its vertices in no
    particular order."""
    label = list(range(n))
    random.Random(seed).shuffle(label)
    return relabelled(path_graph(n), label)


class TestTreeComponentPaths:
    def test_kept_parts_and_hulls_match_the_references(self):
        # 1-10 members in some of the tree components, and in the core-plus-
        # trees graph sometimes in its core part too: the tree side is the
        # union of member tree paths, the rest is the sweep peel's
        rng = random.Random(67)
        cases = [(g, parts, 6) for g, parts in forest_graphs()]
        cases.append((shuffled_path(2000, 5), [list(range(2000))], 3))
        cases += [
            (random_recursive_tree(n, seed), [list(range(n))], 6)
            for n, seed in ((40, 2), (300, 3), (1000, 4))
        ]
        climbs = 0
        for g, parts, reps in cases:
            full = (1 << g.n) - 1
            in_trees = sum(1 << v for part in parts for v in part)
            for _ in range(reps):
                bits = 0
                for part in parts:
                    if len(parts) == 1 or rng.random() < 0.7:
                        size = min(rng.randint(1, 10), len(part))
                        bits |= sum(1 << v for v in rng.sample(part, size))
                if full & ~in_trees and rng.random() < 0.5:
                    bits |= sum(1 << v for v in rng.sample(list(bit_members(full & ~in_trees)), 2))
                core, trees, _ = _kept_core(g, bits)
                paths = member_tree_paths(g, parts, bits)
                context = (g.n, sorted(g.edges()), bin(bits))
                assert trees == paths, context
                assert core | trees == full & ~reference_peel(g, bits), context
                hull = t_convex_hull(g, VertexSet(g.n, bits)).bits
                assert hull == reference_hull_bits(g, bits), context
                assert hull & in_trees == paths, context
                climbs += (paths & ~bits).bit_count() > 1
        assert climbs > 30


def chorded_forest(rng):
    """1-4 random recursive trees side by side under one relabelling, with up
    to five chords, each of which closes a cycle in a component or joins
    two."""
    sizes = [rng.randint(1, 25) for _ in range(rng.randint(1, 4))]
    trees = [random_recursive_tree(n, rng.randrange(10**6)) for n in sizes]
    g, _ = disjoint_union(trees, rng.randrange(10**6))
    chords = [tuple(rng.sample(range(g.n), 2)) for _ in range(rng.randint(0, 5)) if g.n > 1]
    return Graph(g.n, list(g.edges()) + chords)


def sets_with_an_edge(g, rng, reps):
    """``reps`` sets of 1-7 members, half of them with both ends of an edge
    added."""
    edges = list(g.edges())
    sets = []
    for _ in range(reps):
        bits = sum(1 << v for v in rng.sample(range(g.n), rng.randint(1, min(g.n, 7))))
        if edges and rng.random() < 0.5:
            u, v = rng.choice(edges)
            bits |= (1 << u) | (1 << v)
        sets.append(bits)
    return sets


class TestLonePiece:
    def test_is_the_one_component_of_the_tree_part(self):
        # the count c_T - |M| + sum deg_T(m) - |E(M)| against a search of
        # the kept tree part minus S: the piece and its two smallest
        # attached members when there is one, None when there are none or
        # several, with adjacent members and chords that turn trees cyclic
        rng = random.Random(107)
        lone = several = adjacent = 0
        for _ in range(400):
            g = chorded_forest(rng)
            adj = g._adj
            for bits in sets_with_an_edge(g, rng, 8):
                core, trees, member_trees = _kept_core(g, bits)
                pieces = _components_bits(adj, trees & ~bits, trees)
                got = _lone_piece(adj, bits, trees, member_trees)
                context = (g.n, sorted(g.edges()), bin(bits))
                if len(pieces) == 1:
                    (piece, attached), = pieces
                    u, v = itertools.islice(bit_members(attached), 2)
                    assert got == ((piece & -piece).bit_length() - 1, u, v, piece), context
                    lone += 1
                    members = bits & trees
                    adjacent += any(adj[m] & members for m in bit_members(members))
                else:
                    assert got is None, context
                    several += len(pieces) > 1
        assert lone > 400 and several > 300 and adjacent > 250


def p3_closure(g, bits):
    """The smallest superset of ``bits`` with no outside vertex seen twice."""
    while True:
        v = _p3_violation(g._adj, bits)
        if v is None:
            return bits
        bits |= 1 << v


def full_graph_mono(g, bits):
    """``(pair, D)`` for the first component D of G - S by minimum vertex
    whose attached members are not a clique, from a scan of all of G - S."""
    adj = g._adj
    for comp, boundary in _components_bits(adj, ((1 << g.n) - 1) & ~bits):
        hit = _non_edge(adj, boundary & bits)
        if hit is not None:
            u, missing = hit
            return (u, (missing & -missing).bit_length() - 1), comp
    return None


def full_graph_t_convex(g, bits):
    """The convexity test on all of G: the p3 check, then ``full_graph_mono``."""
    v = _p3_violation(g._adj, bits)
    if v is not None:
        return False, "p3-violation", v, None, None
    hit = full_graph_mono(g, bits)
    if hit is not None:
        return False, "mono-violation", None, *hit
    return True, None, None, None, None


def t_convex_tuple(g, bits):
    convex, witness = is_t_convex(g, VertexSet(g.n, bits))
    if witness is None:
        return convex, None, None, None, None
    comp = witness.component.bits if witness.component is not None else None
    return convex, witness.kind, witness.vertex, witness.pair, comp


def tree_side_graphs():
    """Random recursive trees and shuffled paths up to 300 vertices, forests
    of several tree components, and disconnected graphs that mix tree
    components with a cyclic one (a 3-regular core with hung trees)."""
    graphs = [random_recursive_tree(n, seed) for n, seed in ((20, 71), (90, 72), (300, 73))]
    graphs += [shuffled_path(n, seed) for n, seed in ((12, 74), (60, 75), (300, 76))]
    forest = [random_recursive_tree(40, 77), path_graph(15), star_graph(6)]
    graphs.append(disjoint_union(forest + [random_recursive_tree(25, 78)], 79)[0])
    small = [random_recursive_tree(9, 80), path_graph(5), Graph(1)]
    graphs.append(disjoint_union(small * 3, 81)[0])
    for seed in range(8):
        core = cubic_core_with_trees(10, 25, seed)
        parts = [random_recursive_tree(30, 82 + seed), core, path_graph(12)]
        graphs.append(disjoint_union(parts, 90 + seed)[0])
    return graphs


def small_sets_and_hulls(g, rng, reps):
    """``reps`` sets of each size from 1 to 6, their complements and their
    hulls."""
    full = (1 << g.n) - 1
    sets = []
    for size in range(1, 7):
        for _ in range(reps):
            bits = sum(1 << v for v in rng.sample(range(g.n), min(size, g.n)))
            sets += [bits, full & ~bits]
    return sets + [t_convex_hull(g, VertexSet(g.n, bits)).bits for bits in sets]


def recorded_widenings(monkeypatch):
    """Replace ``convexity._lockstep`` by a wrapper that counts the rows each
    widening reads and records ``(reads, |A|, |B|, a side ran dry first)``,
    after checking the side it returns against a plain search."""
    runs = []
    lockstep = convexity._lockstep

    def recorded(adj, alive, a, b):
        rows = CountingRows(adj)
        a_first, grown = lockstep(rows, alive, a, b)
        sides = [_component_bits(adj, alive, a), _component_bits(adj, alive, b)]
        assert grown == sides[0 if a_first else 1]
        assert not sides[0] & sides[1]
        runs.append((rows.reads, sides[0].bit_count(), sides[1].bit_count(), a_first))
        return a_first, grown

    monkeypatch.setattr(convexity, "_lockstep", recorded)
    return runs


class TestWitnessesOnTheKeptCore:
    def test_hung_minimum_names_the_whole_component(self):
        # C8 through members 1 and 2 with a leaf 0 hung at 7: the two
        # components of G - S are {3, 4, 5} and {0, 6, 7, 8}; the second
        # comes first by its minimum, which lies in the dropped leaf
        g = Graph(9, [(1, 3), (3, 4), (4, 5), (5, 2), (2, 6), (6, 7), (7, 8), (8, 1), (0, 7)])
        s = 0b110
        assert kept_bits(g, s) == 0b111111110
        assert t_convex_tuple(g, s) == (False, "mono-violation", None, (1, 2), 0b111000001)
        assert t_convex_tuple(g, s) == full_graph_t_convex(g, s)
        assert not is_m_convex(g, VertexSet(9, s))

    def test_match_the_full_graph_route(self, monkeypatch):
        # the pendant corpus with seeds, complements, p3 closures and hulls;
        # then trees and paths up to 300 vertices, forests, and tree
        # components beside a member-free one or a cyclic component, with
        # 1-6 members, complements and hulls: pieces of the kept tree part,
        # widened over the smaller side, whose complement must skip a
        # member-free tree component
        runs = recorded_widenings(monkeypatch)
        rng = random.Random(53)
        cases = []
        for g in hull_corpus() + pendant_graphs() + [g for g, _ in forest_graphs()]:
            full = (1 << g.n) - 1
            for bits in hull_seeds(g, rng):
                closed = p3_closure(g, bits)
                hull = t_convex_hull(g, VertexSet(g.n, bits)).bits
                cases += [(g, s) for s in (bits, full & ~bits, closed, full & ~closed, hull)]
        for g in tree_side_graphs():
            cases += [(g, s) for s in small_sets_and_hulls(g, rng, 10)]
        witnesses = widened = tree_side = mixed = 0
        for g, s_bits in cases:
            expected = full_graph_t_convex(g, s_bits)
            context = (g.n, sorted(g.edges()), bin(s_bits))
            assert t_convex_tuple(g, s_bits) == expected, context
            s = VertexSet(g.n, s_bits)
            assert is_m_convex(g, s) == (full_graph_mono(g, s_bits) is None), context
            if expected[1] == "mono-violation":
                witnesses += 1
                widened += bool(expected[4] & ~kept_bits(g, s_bits))
                _, _, _, tree, _, components = _pendant_forest(g)
                if tree[expected[3][0]] >= 0:
                    tree_side += 1
                    member_trees = {tree[v] for v in bit_members(s_bits) if tree[v] >= 0}
                    mixed += components > len(member_trees)
        a_first = sum(run[3] for run in runs)
        assert witnesses > 500 and widened > 300
        assert tree_side > 450 and mixed > 70
        assert a_first > 600 and len(runs) - a_first > 450

    def test_tree_pair_tests_make_no_component_search(self, monkeypatch):
        # a work guard, not a clock: a pair or its hull in a tree is judged
        # from the climb and a count of its pieces, never by a component
        # search
        searches = []
        search = convexity._components_bits
        monkeypatch.setattr(
            convexity, "_components_bits", lambda *args: searches.append(args) or search(*args)
        )
        rng = random.Random(101)
        lone = 0
        for g in (path_graph(2000), random_recursive_tree(2000, 102)):
            for _ in range(200):
                s = vs(g.n, rng.sample(range(g.n), 2))
                is_t_convex(g, s)
                is_t_convex(g, t_convex_hull(g, s))
                # a pair with a neighbour of one end added, whose kept tree
                # part minus S is still one piece: counted, not searched
                a, b = s
                s = vs(g.n, [a, b, rng.choice(list(g.neighbors(a)))])
                _, trees, member_trees = _kept_core(g, s.bits)
                lone += _lone_piece(g._adj, s.bits, trees, member_trees) is not None
                is_t_convex(g, s)
            assert not searches
        assert lone > 300

    def test_a_widening_reads_twice_the_smaller_side(self, monkeypatch):
        # a work guard, not a clock: on the shape of the sparse-atoms
        # benchmark, pair and hull-complement witnesses widen over the
        # smaller side of the dropped trees
        runs = recorded_widenings(monkeypatch)
        rng = random.Random(103)
        for seed in range(3):
            g = cubic_core_with_trees(150, 350, seed)
            full = (1 << g.n) - 1
            for _ in range(40):
                bits = sum(1 << v for v in rng.sample(range(g.n), 2))
                hull = t_convex_hull(g, VertexSet(g.n, bits)).bits
                for s_bits in (bits, full & ~hull):
                    assert t_convex_tuple(g, s_bits) == full_graph_t_convex(g, s_bits)
        for reads, a, b, _ in runs:
            assert reads <= 2 * min(a, b) + 1, (reads, a, b)
        # the dropped trees hanging from the members are the smaller side,
        # and most of the dropped forest is never read
        assert len(runs) > 50
        assert sum(reads for reads, *_ in runs) * 4 < sum(a for _, a, _, _ in runs)


def relabelled(g, label):
    return Graph(g.n, [(label[u], label[v]) for u, v in g.edges()])


def relabel_bits(bits, label):
    return sum(1 << label[v] for v in bit_members(bits))


class TestLabelInvariance:
    def test_hull_and_verdict_follow_a_relabelling(self):
        rng = random.Random(59)
        graphs = pendant_graphs() + peel_graphs() + [g for g, _ in forest_graphs()]
        # a prime-dense sized graph, whose hull rounds fold and count by bytes
        for g in graphs + block_hung_graphs() + [min_degree_gnp(600, 10 / 600, 3)]:
            seeds = hull_seeds(g, rng)
            hulls = [t_convex_hull(g, VertexSet(g.n, bits)).bits for bits in seeds]
            verdicts = [is_t_convex(g, VertexSet(g.n, bits))[0] for bits in seeds]
            for _ in range(8):
                label = list(range(g.n))
                rng.shuffle(label)
                h = relabelled(g, label)
                for bits, hull, verdict in zip(seeds, hulls, verdicts):
                    s = VertexSet(h.n, relabel_bits(bits, label))
                    context = (g.n, sorted(g.edges()), label, bin(bits))
                    assert t_convex_hull(h, s).bits == relabel_bits(hull, label), context
                    assert is_t_convex(h, s)[0] == verdict, context
