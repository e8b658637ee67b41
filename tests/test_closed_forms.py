"""Closed-form answers on graph families, beyond the oracles' reach.

Triangle paths in a tree are its unique paths, so a tree's hull number is
its number of leaves and its convexity number is n - 1 (drop one leaf).
A cycle C_n with n >= 4 has convex edges but no larger proper convex set,
and any two non-adjacent vertices hull to everything: both numbers are 2.
In K_n with n >= 3 every pair hulls to V through a triangle and a single
vertex is convex: convexity number 1, hull number 2.
The triangle star of k >= 2 triangles has no leaf: hull number k, since a
path into a triangle must leave it through the centre, so every triangle
needs a member besides it, and one outer vertex of each hulls V; and
convexity number 2k - 1 = n - 2, since V minus one triangle's outer pair is
convex, while a set missing one vertex leaves it seen twice or the centre
between two non-adjacent members.

Each form is first confirmed against the brute-force oracles on small
members of its family, then asserted at sizes the oracles cannot reach.

A tree's hull of S is the union of its paths between members of S, checked
on 10,000-vertex trees against parent-pointer walks; for a pair, the
convexity test searches nothing off the path between them, and the hull
searches nothing at all and reads parent links only on that path. A tree's
atoms are its edges, and a D-ordering places each edge after one that
shares its single overlap vertex; that is checked on 10,000-vertex trees,
under their generated labels and under a random relabelling, together with
the tie-break: every edge has weight 1, so the edges come in Prim's order
by (min, max) pairs.
"""

from __future__ import annotations

import heapq
import itertools
import random
import time

import pytest

from triconvex import convexity
from triconvex.bitset import VertexSet, bit_members
from triconvex.convexity import is_t_convex, is_t_hull_set, t_convex_hull
from triconvex.convexity_number import convexity_number
from triconvex.decomposition import decompose
from triconvex.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
    triangle_star_graph,
)
from triconvex.graph import Graph, _pendant_forest
from triconvex.hull_number import hull_number
from triconvex.oracle import brute_convexity_number, brute_hull_number


def random_recursive_tree(n: int, seed: int) -> Graph:
    """Vertex v joins a uniformly random earlier vertex."""
    rng = random.Random(seed)
    return Graph(n, [(rng.randrange(v), v) for v in range(1, n)])


def shuffled(g: Graph, seed: int) -> Graph:
    """g under a random relabelling, so no search meets its vertices in the
    order they were generated."""
    label = list(range(g.n))
    random.Random(seed).shuffle(label)
    return Graph(g.n, [(label[u], label[v]) for u, v in g.edges()])


def leaves(g: Graph) -> int:
    return sum(1 for v in range(g.n) if g.degree(v) == 1)


def tree_forms(g: Graph) -> tuple[int, int]:
    return leaves(g), g.n - 1


def cycle_forms(g: Graph) -> tuple[int, int]:
    return 2, 2


def complete_forms(g: Graph) -> tuple[int, int]:
    return 2, 1


def triangle_star_forms(g: Graph) -> tuple[int, int]:
    k = (g.n - 1) // 2
    return k, 2 * k - 1


SMALL = {
    "random recursive tree": (
        [random_recursive_tree(n, seed) for n in range(2, 9) for seed in range(3)],
        tree_forms,
    ),
    "path": ([path_graph(n) for n in range(2, 9)], tree_forms),
    "star": ([star_graph(k) for k in range(1, 8)], tree_forms),
    "cycle": ([cycle_graph(n) for n in range(4, 9)], cycle_forms),
    "complete": ([complete_graph(n) for n in range(3, 9)], complete_forms),
    "triangle star": ([triangle_star_graph(k) for k in range(2, 5)], triangle_star_forms),
}

LARGE = {
    "random recursive tree:1000": (random_recursive_tree(1000, 0), tree_forms),
    "path:400": (path_graph(400), tree_forms),
    "star:200": (star_graph(200), tree_forms),
    "cycle:1000": (cycle_graph(1000), cycle_forms),
    "complete:150": (complete_graph(150), complete_forms),
    "triangle_star:150": (triangle_star_graph(150), triangle_star_forms),
}


@pytest.mark.parametrize("family", SMALL)
def test_form_matches_oracle_on_small_members(family):
    graphs, forms = SMALL[family]
    for g in graphs:
        assert (brute_hull_number(g), brute_convexity_number(g)) == forms(g), sorted(g.edges())


@pytest.mark.parametrize("name", LARGE)
def test_form_holds_at_scale(name):
    g, forms = LARGE[name]
    hull = hull_number(g)
    convex = convexity_number(g)
    assert (hull.value, convex.value) == forms(g)
    assert len(hull.hull_set) == hull.value
    assert len(convex.witness) == convex.value


TREES_AT_SCALE = {
    "path:10000": path_graph(10000),
    "random recursive tree:10000": random_recursive_tree(10000, 0),
    "star:9999": star_graph(9999),
    "shuffled path:10000": shuffled(path_graph(10000), 1),
    "shuffled random recursive tree:10000": shuffled(random_recursive_tree(10000, 0), 2),
}


def edge_prim_order(g: Graph) -> list[int]:
    """A tree's edges in Prim's order with every weight 1: the edge (0, b)
    with b smallest first, then always the smallest (min, max) pair among
    the edges at a covered vertex."""
    rows = [[] for _ in range(g.n)]
    for u, v in g.edges():
        rows[u].append(v)
        rows[v].append(u)
    covered = {0}
    heap = [(0, v) for v in rows[0]]
    heapq.heapify(heap)
    order = []
    while heap:
        u, v = heapq.heappop(heap)
        order.append((1 << u) | (1 << v))
        fresh = v if u in covered else u
        covered.add(fresh)
        for w in rows[fresh]:
            if w not in covered:
                heapq.heappush(heap, (min(fresh, w), max(fresh, w)))
    return order


@pytest.mark.parametrize("name", TREES_AT_SCALE)
def test_tree_decomposes_into_its_edges_at_scale(name):
    # Checked directly: verify_d_ordering's separator test is O(t * n) here,
    # and the reference Prim over all atom pairs is quadratic.
    g = TREES_AT_SCALE[name]
    dec = decompose(g)
    atoms = [a.bits for a in dec.atoms]
    assert len(atoms) == g.n - 1
    assert set(atoms) == {(1 << u) | (1 << v) for u, v in g.edges()}
    assert atoms == edge_prim_order(g)
    first_atom = dict.fromkeys(bit_members(atoms[0]), 0)
    r_union = 0
    for i in range(1, len(atoms)):
        overlap = [v for v in bit_members(atoms[i]) if v in first_atom]
        assert len(overlap) == 1
        assert dec.r_sets[i - 1].bits == 1 << overlap[0]
        assert first_atom[overlap[0]] < i
        r_union |= 1 << overlap[0]
        for v in bit_members(atoms[i]):
            first_atom.setdefault(v, i)
    assert dec.r_union.bits == r_union


def test_shuffled_path_decomposes_within_a_second():
    # an alarm, not a benchmark: a path's edges are read off the pendant
    # forest, while numbering all of a relabelled P_4000 with MCS-M takes
    # seconds
    g = shuffled(path_graph(4000), 3)
    start = time.perf_counter()
    dec = decompose(g)
    assert time.perf_counter() - start < 1.0
    assert dec.t == 3999


def tree_path_union(g: Graph, members: list[int]) -> set[int]:
    """Vertices on the tree paths between every two members: parent
    pointers from vertex 0, and each pair climbs from the deeper end."""
    parent = [-1] * g.n
    depth = [0] * g.n
    queue = [0]
    for u in queue:
        for w in g.neighbors(u):
            if w != parent[u]:
                parent[w], depth[w] = u, depth[u] + 1
                queue.append(w)
    union = set(members)
    for a, b in itertools.combinations(members, 2):
        while a != b:
            if depth[a] < depth[b]:
                a, b = b, a
            union.add(a)
            a = parent[a]
        union.add(a)
    return union


@pytest.mark.parametrize("name", ["path:10000", "random recursive tree:10000"])
def test_tree_hull_is_the_union_of_member_paths_at_scale(name):
    g = TREES_AT_SCALE[name]
    rng = random.Random(name)
    for size in (2, 3, 10):
        for _ in range(3):
            members = rng.sample(range(g.n), size)
            hull = t_convex_hull(g, VertexSet.from_iterable(g.n, members))
            assert set(hull) == tree_path_union(g, members), sorted(members)
    leaf_set = [v for v in range(g.n) if g.degree(v) == 1]
    assert is_t_hull_set(g, VertexSet.from_iterable(g.n, leaf_set))
    assert not is_t_hull_set(g, VertexSet.from_iterable(g.n, leaf_set[1:]))


def test_pair_queries_make_no_component_search(monkeypatch):
    # a work guard, not a clock: a pair's hull and convexity test in a tree
    # read the tree path between the pair off the forest, with no component
    # search
    g = TREES_AT_SCALE["random recursive tree:10000"]
    searched = []
    search = convexity._components_bits

    def recorded(adj, alive, within=None):
        searched.append(alive)
        return search(adj, alive, within)

    monkeypatch.setattr(convexity, "_components_bits", recorded)
    rng = random.Random(61)
    for _ in range(6):
        pair = rng.sample(range(g.n), 2)
        path = sum(1 << v for v in tree_path_union(g, pair))
        searched.clear()
        s = VertexSet.from_iterable(g.n, pair)
        assert t_convex_hull(g, s).bits == path
        assert is_t_convex(g, s)[0] == (path.bit_count() <= 2)
        assert not searched, pair


class ReadLog(list):
    """A list that records which indices are read."""

    def __init__(self, items):
        super().__init__(items)
        self.read = set()

    def __getitem__(self, i):
        self.read.add(i)
        return super().__getitem__(i)


@pytest.mark.parametrize("name", ["path:10000", "random recursive tree:10000"])
def test_pair_hulls_climb_only_their_tree_path(monkeypatch, name):
    # a work guard, not a clock: a pair's hull in a tree component is its
    # tree path, read off parent links on that path alone, with no
    # component search and no crossing
    g = TREES_AT_SCALE[name]
    called = []
    for attr in ("_components_bits", "_forced_paths"):
        real = getattr(convexity, attr)
        monkeypatch.setattr(
            convexity, attr, lambda *args, real=real, attr=attr: called.append(attr) or real(*args)
        )
    forest = _pendant_forest(g)
    parent = ReadLog(forest[1])
    monkeypatch.setattr(g, "_forest", (forest[0], parent, *forest[2:]))
    rng = random.Random(name)
    for pair in [(0, g.n - 1)] + [rng.sample(range(g.n), 2) for _ in range(6)]:
        path = tree_path_union(g, pair)
        parent.read.clear()
        assert set(t_convex_hull(g, VertexSet.from_iterable(g.n, pair))) == path, pair
        assert not called, (pair, called)
        assert parent.read <= path, (pair, len(parent.read - path))
