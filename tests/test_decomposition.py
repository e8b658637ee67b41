from __future__ import annotations

import itertools
import random

import pytest

from triconvex.bitset import VertexSet, bit_members
from triconvex.decomposition import (
    Decomposition,
    _has_two_full_components,
    _is_clique,
    _mcs_m,
    _outside_groups,
    decompose,
    is_prime,
    pivots,
    verify_d_ordering,
)
from triconvex.convexity_number import convex_extension
from triconvex.errors import ContractViolationError, ValidationError
from triconvex.generators import (
    all_connected_graphs,
    complete_graph,
    path_graph,
    random_connected_graph,
    star_graph,
    triangle_star_graph,
)
from triconvex.graph import Graph, _component_bits, connected_components, is_connected
from triconvex.hull_number import (
    SatisfactionVerdict,
    hull_number,
    is_hull_set_by_characterization,
    satisfies,
)
from triconvex.oracle import brute_atoms
from triconvex.prime import enumerate_prime_convex_sets, prime_is_t_convex, prime_t_hull

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

    def test_single_vertex(self):
        dec = decompose(Graph(1))
        assert dec.t == 1 and sorted(dec.atoms[0]) == [0]

    def test_disconnected_rejected(self):
        with pytest.raises(ValidationError):
            decompose(Graph(3, [(0, 1)]))

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

    def test_holds_across_corpus(self, sampled_corpus):
        for g in sampled_corpus:
            if is_connected(g):
                assert verify_d_ordering(g, decompose(g)), sorted(g.edges())


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
        assert sorted(pivots(bowtie, dec, 0, vs(5, [3]))) == [0]

    def test_seed_inside_atom_has_no_pivots(self, bowtie):
        dec = decompose(bowtie)
        for i in range(dec.t):
            inside = dec.atoms[i]
            assert pivots(bowtie, dec, i, inside) == vs(5, [])

    def test_triangle_star_far_leaves(self, tri_star3):
        dec = decompose(tri_star3)
        assert sorted(pivots(tri_star3, dec, 0, vs(7, [3, 5]))) == [0]

    def test_ridge_locked_pivots_are_found(self):
        # 2 witnesses both shared vertices of the two atoms, although its
        # route to vertex 0 avoiding 1 runs through 3, which lies as far
        # from atom {0, 1, 4} as 2 does.
        g = Graph(5, [(0, 1), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3)])
        dec = decompose(g)
        assert [sorted(a) for a in dec.atoms] == [[0, 1, 2, 3], [0, 1, 4]]
        s = vs(5, [2])
        assert sorted(pivots(g, dec, 1, s)) == [0, 1]


# Bowtie atoms: 0 = {0, 1, 2}, 1 = {0, 3, 4}. Every per-atom function
# rejects an atom index outside 0..t-1, a set of another universe and a
# decomposition of another graph (here P_8, whose atom indices and vertex
# ids would otherwise pass), and the within= routines also reject a seed
# outside the named atom.
OTHER = VertexSet(3, 0b001)


def other_dec():
    return decompose(path_graph(8))


BAD_ATOM_ARGUMENTS = {
    "satisfies index -1": (lambda g, d: satisfies(g, d, vs(5, [1]), -1), ValidationError),
    "satisfies index t": (lambda g, d: satisfies(g, d, vs(5, [1]), 2), ValidationError),
    "satisfies universe": (lambda g, d: satisfies(g, d, OTHER, 0), ValidationError),
    "pivots index -1": (lambda g, d: pivots(g, d, -1, vs(5, [3])), ValidationError),
    "pivots index t": (lambda g, d: pivots(g, d, 2, vs(5, [3])), ValidationError),
    "pivots universe": (lambda g, d: pivots(g, d, 0, OTHER), ValidationError),
    "extension index -1": (lambda g, d: convex_extension(g, d, -1, vs(5, [0])), ValidationError),
    "extension index 5": (lambda g, d: convex_extension(g, d, 5, vs(5, [0])), ValidationError),
    "extension universe": (lambda g, d: convex_extension(g, d, 0, OTHER), ValidationError),
    "characterization universe": (
        lambda g, d: is_hull_set_by_characterization(g, d, VertexSet(3, 0b011)),
        ValidationError,
    ),
    "pivots other decomposition": (
        lambda g, d: pivots(g, other_dec(), 3, vs(5, [0])),
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
        seed = (rest & -rest).bit_length() - 1
        comp = _component_bits(adj, rest, seed)
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
        if not _is_clique(adj, sep):
            continue
        if not reference_has_two_full_components(adj, full & ~sep, sep):
            continue
        comp = _component_bits(adj, alive & ~sep, x)
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
    rows = [set(random_connected_graph(n, p, seed).neighbors(v)) for v in range(n)]
    for u in range(n):
        while len(rows[u]) < k:
            v = rng.randrange(n)
            if v != u:
                rows[u].add(v)
                rows[v].add(u)
    return Graph(n, [(u, v) for u in range(n) for v in rows[u] if u < v])


def differential_corpus():
    graphs = []
    for n, p, seed in itertools.product((12, 25, 50, 100, 200), (0.02, 0.05, 0.15), range(3)):
        graphs.append(random_connected_graph(n, p, seed))
    # most madj rows stop being cliques early on these
    graphs += [random_connected_graph(150, 0.3, seed) for seed in range(3)]
    graphs += [min_degree_gnp(200, 10 / 200, 3, seed) for seed in range(3)]
    graphs += [tree_of_cliques(blocks, seed) for blocks in (3, 8, 20, 40) for seed in range(10)]
    graphs += [path_graph(n) for n in (1, 2, 3, 10, 150)]
    graphs += [random_recursive_tree(n, seed) for n in (10, 60, 200) for seed in range(3)]
    graphs += [star_graph(k) for k in (1, 2, 5, 120)]
    return graphs


class TestAgainstReferenceRoute:
    def test_decompose_matches_bucket_route(self):
        for g in differential_corpus():
            assert decompose(g) == reference_decompose(g), sorted(g.edges())

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
            madj, elim, live = _mcs_m(g)
            h, ref_elim, generators = bucket_mcs_m(g)
            assert elim == ref_elim[g.n - len(elim) :], sorted(g.edges())
            ref_live = 0
            later = 0
            for x in reversed(ref_elim):
                row = h[x] & later
                later |= 1 << x
                if (generators >> x) & 1 and _is_clique(g._adj, row):
                    ref_live |= 1 << x
                    assert madj[x] == row, sorted(g.edges())
            assert live == ref_live, sorted(g.edges())


# ---------------------------------------------------------------------------
# Reference pivot route: one search of G - (F_i & F_j) per distinct overlap,
# with the qualifying atoms j kept, and condition 2 taking its candidates
# outside F_j. pivots and satisfies must give the same masks and verdicts.


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
            comps = connected_components(g, VertexSet(g.n, shared))
            comp_cache[shared] = comps
        seed = (rest & -rest).bit_length() - 1
        comp = next(c.bits for c in comps if seed in c)
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
                    assert pivots(g, dec, i, s).bits == expected, (sorted(g.edges()), i, sorted(s))
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
    comps = connected_components(g, sep)
    ca = next(c for c in comps if a in c)
    return b not in ca


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
