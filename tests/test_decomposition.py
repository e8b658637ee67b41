from __future__ import annotations

import itertools

import pytest

from triconvex.bitset import VertexSet
from triconvex.decomposition import (
    Decomposition,
    decompose,
    is_prime,
    pivots,
    verify_d_ordering,
)
from triconvex.errors import ValidationError
from triconvex.generators import complete_graph, path_graph
from triconvex.graph import Graph, connected_components, is_connected
from triconvex.oracle import brute_atoms


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
