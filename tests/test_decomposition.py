from __future__ import annotations

import inspect
import itertools
import random
import sys

import pytest

from triconvex import decomposition
from triconvex.bitset import VertexSet, bit_members
from triconvex.decomposition import (
    Decomposition,
    _has_two_full_components,
    _mcs_m,
    _outside_groups,
    _pivot_details,
    decompose,
    is_prime,
    verify_d_ordering,
)
from triconvex.convexity_number import convex_extension, convexity_number
from triconvex.errors import AlgorithmError, ContractViolationError, ValidationError
from triconvex.generators import (
    all_connected_graphs,
    bowtie_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    star_graph,
    triangle_star_graph,
)
from triconvex.graph import (
    Graph,
    _component_bits,
    _components_bits,
    _non_edge,
    _pendant_forest,
    is_connected,
)
from triconvex.hull_number import (
    SatisfactionVerdict,
    hull_number,
    is_hull_set_by_characterization,
    satisfies,
)
from triconvex.oracle import brute_atoms
from triconvex.prime import enumerate_prime_convex_sets, prime_is_t_convex, prime_t_hull

from .test_closed_forms import shuffled
from .test_convexity import cubic_core_with_trees, wheel
from .test_convexity_number import DIFFERENTIAL_GRAPHS


def vs(n, items):
    return VertexSet.from_iterable(n, items)


def atom_family(dec):
    return {tuple(sorted(a)) for a in dec.atoms}


class TestDecompose:
    def test_bowtie(self, bowtie):
        dec = decompose(bowtie)
        assert [sorted(a) for a in dec.atoms] == [[0, 1, 2], [0, 3, 4]]
        assert [sorted(r) for r in dec.r_sets] == [[0]]
        assert sorted(dec.r_union) == [0]

    def test_chordless_cycle_is_one_atom(self, c5):
        dec = decompose(c5)
        assert dec.t == 1 and dec.atoms[0] == VertexSet.full(5)
        assert dec.r_sets == ()

    def test_path_atoms_are_its_edges(self, p4):
        dec = decompose(p4)
        assert [sorted(a) for a in dec.atoms] == [[0, 1], [1, 2], [2, 3]]
        assert [sorted(r) for r in dec.r_sets] == [[1], [2]]

    @pytest.mark.parametrize(
        "n, edges, atoms, r_sets",
        [
            # triangles at the cut vertex 2, with forest edges at 1 and 2:
            # weight-1 atoms come in member order, core and forest alike
            (
                8,
                [(0, 1), (0, 2), (1, 2), (2, 5), (2, 6), (5, 6), (1, 3), (2, 4), (2, 7)],
                [[0, 1, 2], [1, 3], [2, 4], [2, 5, 6], [2, 7]],
                [[1], [2], [2], [2]],
            ),
            # vertex 0 a leaf hung on the C4 core: its edge is the root
            (
                7,
                [(1, 2), (2, 3), (3, 4), (1, 4), (0, 3), (3, 6), (4, 5)],
                [[0, 3], [1, 2, 3, 4], [3, 6], [4, 5]],
                [[3], [3], [4]],
            ),
            # vertex 0 on the core, with forest neighbours either side of
            # the core atoms that hold it
            (
                7,
                [(0, 1), (0, 2), (0, 3), (2, 3), (0, 4), (0, 5), (4, 5), (0, 6)],
                [[0, 1], [0, 2, 3], [0, 4, 5], [0, 6]],
                [[0], [0], [0]],
            ),
        ],
    )
    def test_forest_edges_and_core_atoms_follow_member_order(self, n, edges, atoms, r_sets):
        dec = decompose(Graph(n, edges))
        assert [sorted(a) for a in dec.atoms] == atoms
        assert [sorted(r) for r in dec.r_sets] == r_sets

    def test_single_vertex(self):
        dec = decompose(Graph(1))
        assert dec.t == 1 and sorted(dec.atoms[0]) == [0]

    def test_disconnected_rejected(self):
        with pytest.raises(ValidationError):
            decompose(Graph(3, [(0, 1)]))

    def test_empty_graph_rejected(self):
        with pytest.raises(ValidationError, match="^decomposition needs at least one vertex$"):
            decompose(Graph(0))

    @pytest.mark.parametrize(
        "g",
        [
            # two trees: no 2-core, two tree components
            Graph(7, [(0, 1), (1, 2), (1, 3), (4, 5), (5, 6)]),
            # a cycle and an isolated vertex: a 2-core and one tree component
            Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0)]),
            # two cycles: a 2-core the search from its smallest vertex misses
            # part of, and no tree component
            Graph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)]),
            # a cycle with a hung tree beside a separate tree
            Graph(8, [(0, 1), (1, 2), (2, 0), (2, 3), (4, 5), (5, 6), (5, 7)]),
        ],
        ids=["two trees", "cycle and isolated vertex", "two cycles", "cycle and tree"],
    )
    def test_disconnected_peels_are_refused(self, g):
        # connectivity is read off the cached pendant peel
        assert not is_connected(g)
        with pytest.raises(ValidationError, match="^decomposition requires a connected graph$"):
            decompose(g)
        with pytest.raises(ValidationError, match="^convexity number requires a connected graph$"):
            convexity_number(g)
        with pytest.raises(ValidationError, match="^hull number requires a connected graph$"):
            hull_number(g)

    def test_connected_peels_are_accepted(self):
        # K_1 is one tree component; a tree, a cycle with hung trees and a
        # leafless graph are read off the peel too
        assert is_connected(Graph(1)) and decompose(Graph(1)).t == 1
        for g in (path_graph(6), star_graph(5), cubic_core_with_trees(10, 12, 0), cycle_graph(5)):
            assert is_connected(g)
            assert decompose(g).t >= 1

    def test_deterministic(self, sampled_corpus):
        for g in sampled_corpus[:120]:
            if is_connected(g):
                assert decompose(g) == decompose(g)

    def test_matches_bruteforce_on_corpus(self, sampled_corpus):
        for g in sampled_corpus:
            if not is_connected(g):
                continue
            dec = decompose(g)
            assert set(dec.atoms) == brute_atoms(g), sorted(g.edges())

    def test_atom_count_bound(self, sampled_corpus):
        for g in sampled_corpus:
            if is_connected(g) and g.n >= 2:
                assert decompose(g).t < g.n

    def test_chordal_graphs_decompose_into_maximal_cliques(self, small_corpus):
        checked = 0
        for g in small_corpus:
            if not _is_chordal(g):
                continue
            cliques = _maximal_cliques(g)
            assert atom_family(decompose(g)) == cliques
            checked += 1
        assert checked > 100

    def test_separator_residue_inside_atoms_is_filtered(self):
        # two triangles glued along {0,2} plus a pendant: naive carving
        # strands the prime residue {0,2}, which must not be reported.
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (2, 3), (2, 4)])
        assert atom_family(decompose(g)) == {(0, 1), (0, 2, 3), (0, 2, 4)}

    def test_atom_with_no_private_vertex_survives(self):
        # central triangle shares each edge with an outer triangle
        g = Graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (1, 4), (2, 4), (0, 5), (2, 5)])
        assert atom_family(decompose(g)) == {(0, 1, 2), (0, 1, 3), (1, 2, 4), (0, 2, 5)}


class TestRSetSeparatorProperties:
    def test_r_sets_are_minimal_separators(self, sampled_corpus):
        # removing R_i splits the witnessing earlier atom from atom i, and
        # no proper subset of R_i may separate the same pair
        for g in sampled_corpus:
            if not is_connected(g) or g.n < 2:
                continue
            dec = decompose(g)
            for i, r in enumerate(dec.r_sets, start=1):
                assert len(r) >= 1
                p = next(
                    p for p in range(i) if r.bits & ~dec.atoms[p].bits == 0
                )
                far = dec.atoms[i] - r
                near = dec.atoms[p] - r
                if not far or not near:
                    continue
                assert _separates(g, r, far.first(), near.first())
                if len(r) <= 4:
                    for k in range(len(r)):
                        for sub in itertools.combinations(sorted(r), k):
                            assert not _separates(
                                g, vs(g.n, sub), far.first(), near.first()
                            )


P4 = path_graph(4)
# 0 and 1 each see 2 and 3, and 2 has the pendant 4: {2} and {0, 1} are
# both clique separators with two full components.
DIAMOND_TAIL = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 4)])

# One (graph, atoms, r_sets, r_union) per invariant that verify_d_ordering
# checks, each breaking that invariant and no earlier one.
BROKEN_DECOMPOSITIONS = {
    "no atoms": (P4, [], [], []),
    "missing vertex": (P4, [[0, 1], [1, 2]], [[1]], [1]),
    "uncovered edge": (P4, [[0, 1], [2, 3]], [[]], []),
    "t >= n": (complete_graph(2), [[0, 1], [0, 1]], [[0, 1]], [0, 1]),
    "r_sets length": (P4, [[0, 1], [1, 2], [2, 3]], [[1]], [1]),
    "R recurrence": (P4, [[0, 1], [1, 2], [2, 3]], [[1], [1]], [1]),
    "non-clique R": (cycle_graph(4), [[0, 1, 2], [0, 2, 3]], [[0, 2]], [0, 2]),
    "non-separating R": (
        Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
        [[0, 1, 2], [1, 2, 3]],
        [[1, 2]],
        [1, 2],
    ),
    "R outside every earlier atom": (
        DIAMOND_TAIL,
        [[0, 2], [1, 2, 4], [0, 1, 3]],
        [[2], [0, 1]],
        [0, 1, 2],
    ),
    "r_union": (bowtie_graph(), [[0, 1, 2], [0, 3, 4]], [[0]], [0, 1]),
}


class TestVerifyDOrdering:
    def test_accepts_decompose_output(self, bowtie, c5):
        assert verify_d_ordering(bowtie, decompose(bowtie))
        assert verify_d_ordering(c5, decompose(c5))

    def test_rejects_reordered_atoms(self, p4):
        n = 4
        broken = Decomposition(
            atoms=(vs(n, [0, 1]), vs(n, [2, 3]), vs(n, [1, 2])),
            r_sets=(vs(n, []), vs(n, [1, 2])),
            r_union=vs(n, [1, 2]),
        )
        assert not verify_d_ordering(p4, broken)

    def test_rejects_non_prime_atom(self, p4):
        merged = Decomposition(
            atoms=(vs(4, [0, 1, 2]), vs(4, [2, 3])),
            r_sets=(vs(4, [2]),),
            r_union=vs(4, [2]),
        )
        assert not verify_d_ordering(p4, merged)

    @pytest.mark.parametrize("case", BROKEN_DECOMPOSITIONS)
    def test_rejects_each_broken_invariant(self, case):
        g, atoms, r_sets, r_union = BROKEN_DECOMPOSITIONS[case]
        n = g.n
        dec = Decomposition(
            tuple(vs(n, a) for a in atoms), tuple(vs(n, r) for r in r_sets), vs(n, r_union)
        )
        assert not verify_d_ordering(g, dec, check_atom_primality=False)

    def test_holds_across_corpus(self, sampled_corpus):
        for g in sampled_corpus:
            if is_connected(g):
                assert verify_d_ordering(g, decompose(g)), sorted(g.edges())


class TestDOrderChecks:
    # families built by hand on graphs whose 2-core is every vertex, so
    # no forest edge joins them
    def test_overlap_outside_the_parent_is_refused(self):
        # {2, 3, 4} meets the root {0, 1, 2} and {0, 4, 5} in {2, 4}
        g = Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4), (0, 4), (0, 5), (4, 5)])
        with pytest.raises(AlgorithmError, match="^atom ordering violates the containment property$"):
            decomposition._d_order(g, [0b000111, 0b011100, 0b110001])

    def test_disconnected_family_is_refused(self):
        with pytest.raises(AlgorithmError, match="^atom intersection graph is disconnected$"):
            decomposition._d_order(cycle_graph(6), [0b000011, 0b111100])


class TestIsPrime:
    def test_known_values(self, c5, bowtie):
        assert is_prime(c5)
        assert not is_prime(bowtie)
        assert is_prime(Graph(1))
        assert is_prime(complete_graph(4))
        assert not is_prime(path_graph(3))

    def test_disconnected_rejected(self):
        with pytest.raises(ValidationError):
            is_prime(Graph(2))


class TestPivots:
    def test_bowtie_far_seed_marks_shared_vertex(self, bowtie):
        dec = decompose(bowtie)
        assert _pivot_details(bowtie, dec, 0, vs(5, [3])) == 0b00001

    def test_seed_inside_atom_has_no_pivots(self, bowtie):
        dec = decompose(bowtie)
        for i in range(dec.t):
            inside = dec.atoms[i]
            assert _pivot_details(bowtie, dec, i, inside) == 0

    def test_triangle_star_far_leaves(self, tri_star3):
        dec = decompose(tri_star3)
        assert _pivot_details(tri_star3, dec, 0, vs(7, [3, 5])) == 0b0000001

    def test_ridge_locked_pivots_are_found(self):
        # 2 witnesses both shared vertices of the two atoms, although its
        # route to vertex 0 avoiding 1 runs through 3, which lies as far
        # from atom {0, 1, 4} as 2 does.
        g = Graph(5, [(0, 1), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3)])
        dec = decompose(g)
        assert [sorted(a) for a in dec.atoms] == [[0, 1, 2, 3], [0, 1, 4]]
        s = vs(5, [2])
        assert _pivot_details(g, dec, 1, s) == 0b00011


# Bowtie atoms: 0 = {0, 1, 2}, 1 = {0, 3, 4}. Every per-atom function
# rejects an atom index outside 0..t-1, a set of another universe and a
# decomposition of another graph (here P_8, whose atom indices and vertex
# ids would otherwise pass, and P_5, of the bowtie's own size), and the
# within= routines also reject a seed outside the named atom.
OTHER = VertexSet(3, 0b001)


def other_dec():
    return decompose(path_graph(8))


def same_size_dec():
    return decompose(path_graph(5))


BAD_ATOM_ARGUMENTS = {
    "satisfies index -1": (lambda g, d: satisfies(g, d, vs(5, [1]), -1), ValidationError),
    "satisfies index t": (lambda g, d: satisfies(g, d, vs(5, [1]), 2), ValidationError),
    "satisfies universe": (lambda g, d: satisfies(g, d, OTHER, 0), ValidationError),
    "extension index -1": (lambda g, d: convex_extension(g, d, -1, vs(5, [0])), ValidationError),
    "extension index 5": (lambda g, d: convex_extension(g, d, 5, vs(5, [0])), ValidationError),
    "extension universe": (lambda g, d: convex_extension(g, d, 0, OTHER), ValidationError),
    "characterization universe": (
        lambda g, d: is_hull_set_by_characterization(g, d, VertexSet(3, 0b011)),
        ValidationError,
    ),
    "satisfies other decomposition": (
        lambda g, d: satisfies(g, other_dec(), vs(5, [0, 1]), 3),
        ValidationError,
    ),
    "extension other decomposition": (
        lambda g, d: convex_extension(g, other_dec(), 2, vs(5, [])),
        ValidationError,
    ),
    "characterization other decomposition": (
        lambda g, d: is_hull_set_by_characterization(g, other_dec(), vs(5, [0, 1])),
        ValidationError,
    ),
    "satisfies same-size decomposition": (
        lambda g, d: satisfies(g, same_size_dec(), vs(5, [0, 1]), 3),
        ValidationError,
    ),
    "extension same-size decomposition": (
        lambda g, d: convex_extension(g, same_size_dec(), 2, vs(5, [])),
        ValidationError,
    ),
    "characterization same-size decomposition": (
        lambda g, d: is_hull_set_by_characterization(g, same_size_dec(), vs(5, [0, 1])),
        ValidationError,
    ),
    "hull within universe": (
        lambda g, d: prime_t_hull(g, vs(5, [0]), within=VertexSet(3, 0b111)),
        ValidationError,
    ),
    "hull seed universe": (lambda g, d: prime_t_hull(g, OTHER), ValidationError),
    "convex within universe": (
        lambda g, d: prime_is_t_convex(g, vs(5, [0]), within=VertexSet(3, 0b111)),
        ValidationError,
    ),
    "enumerate within universe": (
        lambda g, d: enumerate_prime_convex_sets(g, within=VertexSet(3, 0b111)),
        ValidationError,
    ),
    "hull seed outside atom": (
        lambda g, d: prime_t_hull(g, vs(5, [3]), within=d.atoms[0]),
        ContractViolationError,
    ),
    "convex seed outside atom": (
        lambda g, d: prime_is_t_convex(g, vs(5, [1, 3]), within=d.atoms[0]),
        ContractViolationError,
    ),
}


@pytest.mark.parametrize("case", BAD_ATOM_ARGUMENTS)
def test_bad_atom_arguments_are_rejected(bowtie, case):
    call, error = BAD_ATOM_ARGUMENTS[case]
    with pytest.raises(error):
        call(bowtie, decompose(bowtie))


def test_decomposition_of_an_equal_graph_is_accepted(bowtie):
    # the graph check compares graphs, not objects: a copy built from the
    # same edges gets the answers of the graph that was decomposed
    dec = decompose(bowtie)
    copy = Graph(bowtie.n, bowtie.edges())
    s = vs(5, [1, 3])
    assert copy is not bowtie
    assert satisfies(copy, dec, s, 1) == satisfies(bowtie, dec, s, 1)
    assert convex_extension(copy, dec, 0, vs(5, [1])) == convex_extension(
        bowtie, dec, 0, vs(5, [1])
    )
    assert is_hull_set_by_characterization(copy, dec, s)


# ---------------------------------------------------------------------------
# Reference route: bucket MCS-M, a sweep over every candidate separator with
# a full-graph separator test, an inclusion-maximality filter and an O(k^2)
# Prim. decompose must give the same Decomposition, order included.


def bucket_mcs_m(g):
    """Whole triangulation H, elimination order and generators, by buckets."""
    n = g.n
    adj = g._adj
    h = list(adj)
    weight = [0] * n
    unnumbered = (1 << n) - 1
    visit_order = []
    generators = 0
    prev_w = -1
    for _ in range(n):
        best, best_w = -1, -1
        for v in bit_members(unnumbered):
            if weight[v] > best_w:
                best, best_w = v, weight[v]
        x = best
        if best_w <= prev_w:
            generators |= 1 << x
        prev_w = best_w
        unnumbered ^= 1 << x
        visit_order.append(x)
        # buckets[j]: reached vertices traversable once the frontier weight is j
        reached = 1 << x
        buckets = [[] for _ in range(n + 1)]
        bumped = 0
        for y in bit_members(adj[x] & unnumbered):
            reached |= 1 << y
            buckets[weight[y]].append(y)
            bumped |= 1 << y
        for level in range(n):
            bucket = buckets[level]
            while bucket:
                z = bucket.pop()
                for w in bit_members(adj[z] & unnumbered & ~reached):
                    reached |= 1 << w
                    if weight[w] > level:
                        bumped |= 1 << w
                        buckets[weight[w]].append(w)
                    else:
                        bucket.append(w)
        for y in bit_members(bumped):
            weight[y] += 1
            if not (adj[x] >> y) & 1:
                h[x] |= 1 << y
                h[y] |= 1 << x
    visit_order.reverse()
    return h, visit_order, generators


def quadratic_prim(atom_bits):
    atoms = sorted(atom_bits, key=lambda b: tuple(bit_members(b)))
    k = len(atoms)
    in_tree = [False] * k
    in_tree[0] = True
    weight = [(atoms[i] & atoms[0]).bit_count() for i in range(k)]
    order = [0]
    for _ in range(k - 1):
        pick, best = -1, 0
        for i in range(k):
            if not in_tree[i] and weight[i] > best:
                pick, best = i, weight[i]
        assert pick >= 0
        in_tree[pick] = True
        order.append(pick)
        for i in range(k):
            if not in_tree[i]:
                weight[i] = max(weight[i], (atoms[i] & atoms[pick]).bit_count())
    return [atoms[i] for i in order]


def reference_has_two_full_components(adj, rest, sep):
    """Per-component search, with fullness tested member by member."""
    found = 0
    while rest:
        comp = _component_bits(adj, rest, rest & -rest)
        rest &= ~comp
        if all(adj[s] & comp for s in bit_members(sep)):
            found += 1
            if found == 2:
                return True
    return False


def reference_decompose(g):
    n = g.n
    if n == 1:
        return Decomposition((VertexSet(1, 1),), (), VertexSet(1, 0))
    adj = g._adj
    full = (1 << n) - 1
    h, elim, _ = bucket_mcs_m(g)
    madjs = [0] * n
    later = 0
    for idx in range(n - 1, -1, -1):
        madjs[idx] = h[elim[idx]] & later
        later |= 1 << elim[idx]
    alive = full
    carved = []
    for idx, x in enumerate(elim):
        sep = madjs[idx]
        if not sep or not (alive >> x) & 1 or sep & ~alive:
            continue
        if _non_edge(adj, sep) is not None:
            continue
        if not reference_has_two_full_components(adj, full & ~sep, sep):
            continue
        comp = _component_bits(adj, alive & ~sep, 1 << x)
        if comp | sep == alive:
            continue
        carved.append(comp | sep)
        alive &= ~comp
    pieces = set([alive] + carved)
    atom_bits = [p for p in pieces if not any(q != p and p & ~q == 0 for q in pieces)]
    ordered = quadratic_prim(atom_bits)
    r_bits = []
    union = ordered[0]
    for b in ordered[1:]:
        r_bits.append(b & union)
        union |= b
    r_union = 0
    for r in r_bits:
        r_union |= r
    return Decomposition(
        tuple(VertexSet(n, b) for b in ordered),
        tuple(VertexSet(n, r) for r in r_bits),
        VertexSet(n, r_union),
    )


def random_recursive_tree(n, seed):
    rng = random.Random(seed)
    return Graph(n, [(rng.randrange(v), v) for v in range(1, n)])


def tree_of_cliques(blocks, seed):
    """Blocks glued along 1-3 shared vertices of an earlier block; each block
    is a clique or a random graph on a Hamiltonian path."""
    rng = random.Random(seed)
    edges = set()
    placed = []
    n = 0
    for _ in range(blocks):
        share = []
        if placed:
            host = rng.choice(placed)
            share = rng.sample(host, rng.randint(1, min(3, len(host))))
        fresh = list(range(n, n + rng.randint(1, 5)))
        n += len(fresh)
        block = share + fresh
        dense = rng.random() < 0.5
        for u, v in itertools.combinations(block, 2):
            if dense or rng.random() < 0.6:
                edges.add((min(u, v), max(u, v)))
        edges.update((min(u, v), max(u, v)) for u, v in zip(block, block[1:]))
        placed.append(block)
    return Graph(n, sorted(edges))


def min_degree_gnp(n, p, k, seed):
    """G(n, p) made connected, then every degree raised to k by edges to
    random non-neighbours, so no pendant vertex splits off an atom."""
    rng = random.Random(seed)
    g = random_connected_graph(n, p, seed)
    rows = [set(g.neighbors(v)) for v in range(n)]
    for u in range(n):
        while len(rows[u]) < k:
            v = rng.randrange(n)
            if v != u:
                rows[u].add(v)
                rows[v].add(u)
    return Graph(n, [(u, v) for u in range(n) for v in rows[u] if u < v])


def with_pendant_paths(g, paths, seed):
    """g with ``paths`` paths of 1-6 vertices hung from random vertices,
    relabelled."""
    rng = random.Random(seed)
    edges = list(g.edges())
    n = g.n
    for _ in range(paths):
        at = rng.randrange(n)
        length = rng.randint(1, 6)
        for v in range(n, n + length):
            edges.append((at, v))
            at = v
        n += length
    return shuffled(Graph(n, edges), seed)


def k4_windmill(k):
    """k K4s sharing the vertex 0."""
    quads = [(0, 3 * i + 1, 3 * i + 2, 3 * i + 3) for i in range(k)]
    return Graph(3 * k + 1, [e for quad in quads for e in itertools.combinations(quad, 2)])


def k4_book(k):
    """k K4s sharing the edge {0, 1}."""
    quads = [(0, 1, 2 * i + 2, 2 * i + 3) for i in range(k)]
    return Graph(2 * k + 2, [e for quad in quads for e in itertools.combinations(quad, 2)])


def differential_corpus():
    graphs = []
    for n, p, seed in itertools.product((12, 25, 50, 100, 200), (0.02, 0.05, 0.15), range(3)):
        graphs.append(random_connected_graph(n, p, seed))
    # most madj rows stop being cliques early on these
    graphs += [random_connected_graph(150, 0.3, seed) for seed in range(3)]
    graphs += [min_degree_gnp(200, 10 / 200, 3, seed) for seed in range(3)]
    graphs += [tree_of_cliques(blocks, seed) for blocks in (3, 8, 20, 40) for seed in range(10)]
    graphs += [path_graph(n) for n in (1, 2, 3, 10, 150)]
    # one block with no forest: every MCS-M step floods the label-0 rest
    graphs += [cycle_graph(n) for n in (5, 40, 300)] + [wheel(40)]
    graphs += [random_recursive_tree(n, seed) for n in (10, 60, 200) for seed in range(3)]
    graphs += [star_graph(k) for k in (1, 2, 5, 120)]
    # where the pendant forest meets the 2-core, under shuffled labels
    graphs += [
        shuffled(cubic_core_with_trees(core, hung, seed), seed)
        for core, hung in ((4, 6), (10, 30), (20, 50), (36, 84))
        for seed in range(3)
    ]
    graphs += [shuffled(path_graph(n), seed) for n in (4, 30, 120) for seed in range(2)]
    graphs += [
        shuffled(random_recursive_tree(n, seed), seed) for n in (10, 60, 120) for seed in range(2)
    ]
    graphs += [
        with_pendant_paths(cycle_graph(k), paths, seed)
        for k, paths in ((3, 1), (4, 2), (9, 5), (30, 12))
        for seed in range(2)
    ]
    graphs += [
        with_pendant_paths(tree_of_cliques(blocks, seed), paths, seed)
        for blocks, paths in ((3, 2), (8, 5), (20, 10))
        for seed in range(3)
    ]
    # where forest edges and core atoms meet in the rank order: vertex 0 a
    # leaf on the core, vertex 0 on the core with a forest neighbour below
    # its core atoms, stars centred off 0, and K2 atoms of the 2-core (a
    # bridge between two cycles) beside hung trees
    graphs += [leaf_zero_on_core(k, seed) for k in (3, 5, 12) for seed in range(2)]
    graphs += [
        Graph(9, [(0, 1), (0, 2), (0, 3), (2, 3), (3, 4), (4, 5), (2, 5), (0, 6), (6, 7), (7, 8)]),
        Graph(6, [(0, 1), (0, 4), (0, 5), (4, 5), (1, 2), (2, 3), (3, 1)]),
    ]
    graphs += [
        Graph(k + 1, [(centre, v) for v in range(k + 1) if v != centre])
        for k, centre in ((2, 1), (5, 3), (40, 17), (40, 40))
    ]
    # C5 and C6 joined by the bridge {4, 5}
    bridged = [(i, (i + 1) % 5) for i in range(5)] + [(4, 5)]
    bridged += [(5 + i, 5 + (i + 1) % 6) for i in range(6)]
    graphs += [
        with_pendant_paths(Graph(11, bridged), paths, seed)
        for paths in (0, 3, 8)
        for seed in range(3)
    ]
    # hubs, vertices in many atoms, whose incidence lists D-ordering skips:
    # one shared vertex, two, and a hub first covered off the root atom or
    # by a forest edge
    hubs = [triangle_star_graph(k) for k in (1, 2, 7, 30)]
    hubs += [k4_windmill(k) for k in (1, 3, 20)] + [k4_book(k) for k in (2, 5, 20)]
    graphs += hubs + [shuffled(g, seed) for g in hubs for seed in range(2)]
    graphs += [with_pendant_paths(g, 6, seed) for g in hubs[2:] for seed in range(2)]
    return graphs


def leaf_zero_on_core(k, seed):
    """A k-cycle and hung paths, relabelled, with vertex 0 a leaf whose
    neighbour lies on the cycle."""
    g = with_pendant_paths(cycle_graph(k), 3, seed)
    edges = [(u + 1, v + 1) for u, v in g.edges()]
    on_core = random.Random(seed).choice(list(bit_members(_pendant_forest(g)[0]))) + 1
    return Graph(g.n + 1, edges + [(0, on_core)])


def incidence_reads(g):
    """Line events on the line of ``_d_order`` that reads an incidence
    list, one per list and one per entry, while g is decomposed."""
    code = decomposition._d_order.__code__
    source, start = inspect.getsourcelines(decomposition._d_order)
    lines = {start + i for i, text in enumerate(source) if "incident.get(" in text}
    assert lines
    reads = 0

    def on_line(frame, event, arg):
        nonlocal reads
        if event == "line" and frame.f_lineno in lines:
            reads += 1
        return on_line

    def on_call(frame, event, arg):
        # _d_order, and the comprehensions it runs in frames of their own
        inner = frame.f_code is code or frame.f_back is not None and frame.f_back.f_code is code
        return on_line if inner and frame.f_code.co_filename == code.co_filename else None

    outer = sys.gettrace()
    sys.settrace(on_call)
    try:
        decompose(g)
    finally:
        sys.settrace(outer)
    return reads


class TestAgainstReferenceRoute:
    def test_decompose_matches_bucket_route(self):
        for g in differential_corpus():
            assert decompose(g) == reference_decompose(g), sorted(g.edges())

    def test_mcs_m_numbers_the_two_core_alone(self, monkeypatch):
        # a work guard, not a clock: forest edges are read off the peel,
        # so MCS-M is handed the 2-core, and nothing at all on a tree
        masks = []
        mcs_m = decomposition._mcs_m

        def recorded(g, within):
            masks.append(within)
            return mcs_m(g, within)

        monkeypatch.setattr(decomposition, "_mcs_m", recorded)
        trees = 0
        for g in differential_corpus():
            masks.clear()
            decompose(g)
            if g.n == 1:
                assert masks == []
                continue
            assert masks == [_pendant_forest(g)[0]], sorted(g.edges())
            if g.m == g.n - 1:
                assert masks == [0], sorted(g.edges())
                trees += 1
        assert trees > 20

    def test_forest_edges_build_no_member_tuple(self, monkeypatch):
        # a work guard, not a clock: the member tuples, which the sort key
        # and the incidence lists are built from, are made for core atoms
        # alone, and for nothing at all on a tree
        masks = []
        members = decomposition.bit_members

        def recorded(bits):
            masks.append(bits)
            return members(bits)

        monkeypatch.setattr(decomposition, "bit_members", recorded)
        graphs = [shuffled(path_graph(2000), 4), star_graph(1000)]
        for g in graphs:
            masks.clear()
            dec = decompose(g)
            assert dec.t == g.n - 1
            assert masks == []
        g = with_pendant_paths(tree_of_cliques(20, 1), 10, 1)
        core = _pendant_forest(g)[0]
        masks.clear()
        dec = decompose(g)
        core_atoms = [a.bits for a in dec.atoms if not a.bits & ~core]
        assert 1 < len(core_atoms) < dec.t
        assert masks and all(not bits & ~core for bits in masks)
        assert set(core_atoms) <= set(masks)

    @pytest.mark.parametrize("family", [triangle_star_graph, k4_windmill])
    def test_d_order_reads_hub_lists_linearly(self, family):
        # a doubling work guard, not a clock: the hub's incidence list is
        # skipped, so the reads double with the atoms; rescanning it grew
        # them about 4x. A K4 book has no guard: each K4 shares two vertices
        # with the rest, and the second one's list is still rescanned, so
        # its reads grow about 4x (ROADMAP item 13)
        small, large = incidence_reads(family(200)), incidence_reads(family(400))
        assert large <= 2.2 * small, (small, large)

    def test_full_component_test_matches_per_member_loop(self):
        # every R-set, and cliques grown at random from a random vertex
        rng = random.Random(5)
        answers = set()
        for g in differential_corpus():
            adj = g._adj
            full = (1 << g.n) - 1
            seps = [r.bits for r in decompose(g).r_sets]
            for _ in range(10):
                v = rng.randrange(g.n)
                clique = 1 << v
                for w in rng.sample(list(g.neighbors(v)), g.degree(v)):
                    if not clique & ~adj[w] and rng.random() < 0.7:
                        clique |= 1 << w
                seps.append(clique)
            for sep in seps:
                expected = reference_has_two_full_components(adj, full & ~sep, sep)
                assert _has_two_full_components(adj, full & ~sep, sep) == expected, (
                    sorted(g.edges()),
                    bin(sep),
                )
                answers.add(expected)
        assert answers == {False, True}

    def test_mcs_m_matches_bucket_search(self):
        # the same elimination order on the vertices numbered before the
        # search stops, and the generators whose madj row in the bucket
        # route's H is a clique of G are exactly the live ones, with that row
        for g in differential_corpus():
            madj, elim, live = _mcs_m(g, (1 << g.n) - 1)
            h, ref_elim, generators = bucket_mcs_m(g)
            assert elim == ref_elim[g.n - len(elim) :], sorted(g.edges())
            ref_live = 0
            later = 0
            for x in reversed(ref_elim):
                row = h[x] & later
                later |= 1 << x
                if (generators >> x) & 1 and _non_edge(g._adj, row) is None:
                    ref_live |= 1 << x
                    assert madj[x] == row, sorted(g.edges())
            assert live == ref_live, sorted(g.edges())


# ---------------------------------------------------------------------------
# Reference pivot route: one search of G - (F_i & F_j) per distinct overlap,
# with the qualifying atoms j kept, and condition 2 taking its candidates
# outside F_j. _pivot_details and satisfies must give the same masks and verdicts.


def reference_pivot_details(g, dec, i, s):
    f_bits = dec.atoms[i].bits
    s_out = s.bits & ~f_bits
    if not s_out:
        return []
    comp_cache = {}
    details = []
    for j, other in enumerate(dec.atoms):
        if j == i:
            continue
        shared = other.bits & f_bits
        if not shared:
            continue
        rest = other.bits & ~shared
        if not rest:
            continue
        comps = comp_cache.get(shared)
        if comps is None:
            comps = [c for c, _ in _components_bits(g._adj, ((1 << g.n) - 1) & ~shared)]
            comp_cache[shared] = comps
        seed = (rest & -rest).bit_length() - 1
        comp = next(c for c in comps if (c >> seed) & 1)
        if comp & (f_bits & ~shared):
            continue
        if comp & s_out:
            details.append((j, shared))
    return details


def reference_satisfies(g, dec, s, i):
    """satisfies on a relabelled copy of the atom, sharing no helper with it."""
    atom = dec.atoms[i]
    sub, vertices = g.induced(atom)
    index = {v: pos for pos, v in enumerate(vertices)}

    def pair_hulls(u, v):
        pair = VertexSet.from_iterable(sub.n, (index[u], index[v]))
        return prime_t_hull(sub, pair).bits == (1 << sub.n) - 1

    details = reference_pivot_details(g, dec, i, s)
    pivot_bits = 0
    for _, shared in details:
        pivot_bits |= shared
    pivot_list = list(bit_members(pivot_bits))
    for a_pos, u in enumerate(pivot_list):
        for v in pivot_list[a_pos + 1 :]:
            if pair_hulls(u, v):
                return SatisfactionVerdict(i, "cond1", (u, v))
    s_in_atom = s.bits & atom.bits
    for u in pivot_list:
        for j, shared in details:
            if not (shared >> u) & 1:
                continue
            for v in bit_members(s_in_atom & ~dec.atoms[j].bits):
                if pair_hulls(u, v):
                    return SatisfactionVerdict(i, "cond2", (u, v))
    local = 0
    for v in bit_members(s_in_atom):
        local |= 1 << index[v]
    if prime_t_hull(sub, VertexSet(sub.n, local)).bits == (1 << sub.n) - 1:
        return SatisfactionVerdict(i, "cond3", VertexSet(g.n, s_in_atom))
    return SatisfactionVerdict(i, "none")


def pivot_corpus():
    graphs = [g for n in range(2, 6) for g in all_connected_graphs(n)]
    for n, p, seed in itertools.product((12, 25, 50, 100, 200), (0.02, 0.05, 0.15), range(2)):
        graphs.append(random_connected_graph(n, p, seed))
    graphs += [tree_of_cliques(blocks, seed) for blocks in (3, 8, 20, 40) for seed in range(8)]
    graphs += [path_graph(n) for n in (3, 10, 100)]
    graphs += [random_recursive_tree(n, 0) for n in (10, 60, 200)]
    graphs += [star_graph(k) for k in (2, 5, 60)]
    graphs += [triangle_star_graph(k) for k in (2, 5, 40)]
    # atoms {3,4,5} and {1,2,3} meet in {3}, which does not separate them
    graphs.append(
        Graph(7, [(0, 5), (1, 2), (1, 3), (1, 4), (2, 3), (3, 4), (3, 5), (4, 5), (5, 6)])
    )
    return [g for g in graphs if decompose(g).t > 1]


def seeded_sets(g, rng):
    sets = [hull_number(g).hull_set]
    for density in (0.03, 0.15, 0.5):
        sets.append(VertexSet(g.n, sum(1 << v for v in range(g.n) if rng.random() < density)))
    sets.append(VertexSet.from_iterable(g.n, rng.sample(range(g.n), min(3, g.n))))
    return sets


class TestAgainstReferencePivots:
    def test_pivots_and_verdicts_match_per_overlap_route(self):
        rng = random.Random(7)
        for g in pivot_corpus():
            dec = decompose(g)
            for s in seeded_sets(g, rng):
                for i in range(dec.t):
                    expected = 0
                    for _, shared in reference_pivot_details(g, dec, i, s):
                        expected |= shared
                    assert _pivot_details(g, dec, i, s) == expected, (sorted(g.edges()), i, sorted(s))
                    assert satisfies(g, dec, s, i) == reference_satisfies(g, dec, s, i), (
                        sorted(g.edges()),
                        i,
                        sorted(s),
                    )


def searched_groups(g, atom):
    """N(D) -> components D of G - atom, by a set-based search per D."""
    groups = {}
    seen = set(atom)
    for start in range(g.n):
        if start in seen:
            continue
        seen.add(start)
        comp, boundary, queue = {start}, set(), [start]
        while queue:
            v = queue.pop()
            for w in g.neighbors(v):
                if w in atom:
                    boundary.add(w)
                elif w not in seen:
                    seen.add(w)
                    comp.add(w)
                    queue.append(w)
        groups.setdefault(frozenset(boundary), []).append(comp)
    return groups


class TestOutsideGroups:
    def test_match_a_search_grouped_by_boundary(self):
        graphs = pivot_corpus() + list(DIFFERENTIAL_GRAPHS.values())
        graphs += [star_graph(k) for k in (1, 3, 30)]
        graphs += [triangle_star_graph(k) for k in (1, 3, 30)]
        largest = 0
        for g in graphs:
            for i, atom in enumerate(decompose(g).atoms):
                expected = {}
                for boundary, comps in searched_groups(g, atom).items():
                    members = set().union(*comps)
                    expected[sum(1 << v for v in boundary)] = sum(1 << v for v in members)
                    largest = max(largest, len(comps))
                assert _outside_groups(g._adj, atom.bits) == expected, (sorted(g.edges()), i)
        # some separator has two or more components, so grouping is exercised
        assert largest >= 2


def _separates(g, sep, a, b):
    reach = _component_bits(g._adj, ((1 << g.n) - 1) & ~sep.bits, 1 << a)
    return not (reach >> b) & 1


def _is_chordal(g):
    # peo existence by repeated simplicial elimination
    adj = list(g._adj)
    alive = (1 << g.n) - 1
    for _ in range(g.n):
        pick = -1
        rest = alive
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            nbrs = adj[v] & alive
            if all(
                nbrs & ~adj[(w & -w).bit_length() - 1] & ~(w & -w) == 0
                for w in _bits(nbrs)
            ):
                pick = v
                break
        if pick < 0:
            return False
        alive &= ~(1 << pick)
    return True


def _maximal_cliques(g):
    cliques = set()
    for size in range(g.n, 0, -1):
        for combo in itertools.combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in itertools.combinations(combo, 2)):
                if not any(set(combo) <= set(c) for c in cliques):
                    cliques.add(combo)
    return cliques


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low
        mask ^= low
