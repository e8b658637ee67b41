"""Minimum hull sets via the per-atom satisfaction characterization.

A set with at least two vertices hulls a reducible graph exactly when it
"satisfies" every atom through one of three conditions built from pivots
and hulls inside the atom. The minimum hull set is assembled by sweeping
the atoms in reverse decomposition order, adding one completing vertex per
atom whose pivots-plus-overlap seed falls short, then finishing the first
atom. The returned set is always re-verified against the full hull.

Each atom F is worked on in G's own vertex ids: its hulls are
``prime_t_hull(g, s, within=F)`` and every set is a mask over ``0..n-1``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitset import VertexSet, bit_members
from .convexity import _hull_bits
from .decomposition import Decomposition, _atom_arguments, _pivot_details, decompose
from .errors import AlgorithmError, ContractViolationError, ValidationError
from .graph import Graph, _non_edge, is_connected
from .prime import prime_t_hull


@dataclass(frozen=True, slots=True)
class SatisfactionVerdict:
    """Which condition a set meets on one atom, with the realizing evidence.

    The pivots are the union of the separators S = N(D) of G - F_i whose
    group U(S), the components D with that N(D), meets the set: the mask
    that ``decomposition._pivot_details`` returns.

    cond1: two pivots hulling the atom (evidence: the pair).
    cond2: a pivot plus a member of the atom outside that pivot's N(D),
    together hulling it (evidence: the pair).
    cond3: the set's trace on the atom hulls it (evidence: the trace).
    """

    atom_index: int
    condition: str
    evidence: tuple[int, int] | VertexSet | None = None


@dataclass(frozen=True, slots=True)
class HullNumberResult:
    value: int
    hull_set: VertexSet


def _pair_hulls_atom(g: Graph, atom: VertexSet, a: int, b: int) -> bool:
    if not g.has_edge(a, b):
        return True  # a non-adjacent pair hulls any prime graph
    return prime_t_hull(g, VertexSet(g.n, (1 << a) | (1 << b)), within=atom) == atom


def satisfies(g: Graph, dec: Decomposition, s: VertexSet, i: int) -> SatisfactionVerdict:
    """First satisfied condition of s on atom i, or condition "none".

    The pivots come as one mask from ``_pivot_details``. Condition 2
    pairs a pivot u with a member of s in the atom outside an N(D) holding
    u (N(D) is the overlap of F_i with the atom on D's side). It tries
    only the members that are not pivots, once per u: a pivot candidate
    would already have completed u under condition 1, and a non-pivot
    lies outside every N(D), so the first pair found is the same.
    """
    atom = VertexSet(g.n, _atom_arguments(g, dec, i, s))
    pivot_bits = _pivot_details(g, dec, i, s)
    pivot_list = list(bit_members(pivot_bits))

    for a_pos, u in enumerate(pivot_list):
        for v in pivot_list[a_pos + 1 :]:
            if _pair_hulls_atom(g, atom, u, v):
                return SatisfactionVerdict(i, "cond1", (u, v))

    s_in_atom = s & atom
    candidates = list(bit_members(s_in_atom.bits & ~pivot_bits))
    for u in pivot_list:
        for v in candidates:
            if _pair_hulls_atom(g, atom, u, v):
                return SatisfactionVerdict(i, "cond2", (u, v))

    if prime_t_hull(g, s_in_atom, within=atom) == atom:
        return SatisfactionVerdict(i, "cond3", s_in_atom)

    return SatisfactionVerdict(i, "none")


def is_hull_set_by_characterization(g: Graph, dec: Decomposition, s: VertexSet) -> bool:
    """Hull-set test for reducible graphs: |s| >= 2 and every atom satisfied."""
    _atom_arguments(g, dec, 0, s)  # every decomposition has atom 0; this checks s and dec
    if dec.t < 2:
        raise ContractViolationError(
            "characterization applies to reducible graphs; primes hull from any "
            "non-adjacent pair"
        )
    if len(s) < 2:
        return False
    return all(satisfies(g, dec, s, i).condition != "none" for i in range(dec.t))


def _first_nonadjacent_pair(adj: list[int], within: int) -> tuple[int, int]:
    """Lexicographically first non-adjacent pair of G[within]; its two
    smallest members when G[within] is complete."""
    hit = _non_edge(adj, within)
    if hit is not None:
        u, missing = hit
        return u, (missing & -missing).bit_length() - 1
    first, second, *_ = bit_members(within)
    return first, second


def _line_seven_choice(g: Graph, atom: VertexSet, seed: int, hull: int) -> int:
    """Smallest atom vertex whose addition to the seed hulls the whole atom.

    The current hull is a proper convex set, hence a clique; any vertex
    with a non-neighbour inside it completes immediately (non-adjacent
    pairs hull primes), so the explicit hull computation only runs for
    candidates adjacent to the entire current hull.
    """
    adj = g._adj
    for v in bit_members(atom.bits & ~hull):
        if hull & ~adj[v]:
            return v
        if prime_t_hull(g, VertexSet(g.n, seed | (1 << v)), within=atom) == atom:
            return v
    raise AlgorithmError("no completing vertex in a prime atom")


def _reducible_hull_bits(g: Graph, dec: Decomposition) -> int:
    """Reverse sweep of the atoms, then completion of the first atom.

    Each atom whose seed falls short gets one vertex, chosen from the part
    of the atom its seed's hull leaves uncovered. Those parts are pairwise
    disjoint, so the sweep spends at most one vertex on each.
    """
    n = g.n
    selected = 0
    for i in range(dec.t - 1, 0, -1):
        atom = dec.atoms[i]
        seed = _pivot_details(g, dec, i, VertexSet(n, selected)) | dec.r_sets[i - 1].bits
        hull = prime_t_hull(g, VertexSet(n, seed), within=atom).bits
        if hull == atom.bits:
            continue
        chosen = _line_seven_choice(g, atom, seed, hull)
        selected |= 1 << chosen

    hull_so_far = _hull_bits(g, selected) if selected else 0
    f1 = dec.atoms[0].bits
    if f1 & ~hull_so_far:
        for v in bit_members(f1):
            if f1 & ~_hull_bits(g, hull_so_far | (1 << v)) == 0:
                selected |= 1 << v
                break
        else:
            u, v = _first_nonadjacent_pair(g._adj, f1)
            selected |= (1 << u) | (1 << v)
    return selected


def hull_number(g: Graph) -> HullNumberResult:
    """Minimum number of vertices whose hull is the whole graph.

    Single vertex: itself. Non-trivial primes always hull from two
    vertices (any non-adjacent pair, or any pair of a complete graph).
    Reducible graphs run the reverse atom sweep. The set handed back is
    verified to hull V before returning.
    """
    if g.n < 1:
        raise ValidationError("hull number needs at least one vertex")
    if not is_connected(g):
        raise ValidationError("hull number requires a connected graph")
    if g.n == 1:
        return HullNumberResult(1, VertexSet(1, 1))
    dec = decompose(g)
    if dec.t == 1:
        pair = _first_nonadjacent_pair(g._adj, (1 << g.n) - 1)
        hull_set = VertexSet.from_iterable(g.n, pair)
    else:
        hull_set = VertexSet(g.n, _reducible_hull_bits(g, dec))
    if _hull_bits(g, hull_set.bits) != (1 << g.n) - 1:
        raise AlgorithmError("hull-number result failed verification")
    return HullNumberResult(len(hull_set), hull_set)
