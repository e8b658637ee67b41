"""Minimum hull sets via the per-atom satisfaction characterization.

A set with at least two vertices hulls a reducible graph exactly when it
"satisfies" every atom through one of three conditions built from pivots
and atom-local hull sets. The minimum hull set is assembled by sweeping
the atoms in reverse decomposition order, adding one completing vertex per
atom whose pivots-plus-overlap seed falls short, then finishing the first
atom. The returned set is always re-verified against the full hull.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitset import VertexSet, bit_members
from .convexity import _hull_bits
from .decomposition import Decomposition, _pivot_details, decompose, pivots
from .errors import AlgorithmError, ContractViolationError, ValidationError
from .graph import Graph, is_connected
from .prime import prime_t_hull


@dataclass(frozen=True, slots=True)
class SatisfactionVerdict:
    """Which condition a set meets on one atom, with the realizing evidence.

    Pivots are the vertices of N(D) for the components D of G - F_i that
    meet the set (see ``decomposition._pivot_details``).

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


def _pair_hulls_atom(sub: Graph, a: int, b: int) -> bool:
    if not sub.has_edge(a, b):
        return True  # a non-adjacent pair hulls any prime graph
    return prime_t_hull(sub, VertexSet.from_iterable(sub.n, (a, b))).bits == (1 << sub.n) - 1


def satisfies(g: Graph, dec: Decomposition, s: VertexSet, i: int) -> SatisfactionVerdict:
    """First satisfied condition of s on atom i, or condition "none".

    Condition 2 pairs a pivot u with a member of s in the atom outside an
    N(D) holding u (N(D) is the overlap of F_i with the atom on D's side).
    It tries only the members that are not pivots, once per u: a pivot
    candidate would already have completed u under condition 1, and a
    non-pivot lies outside every N(D), so the first pair found is the same.
    """
    atom = dec.atoms[i]
    sub, vertices = g.induced(atom)
    index = {v: pos for pos, v in enumerate(vertices)}
    boundaries = _pivot_details(g, dec, i, s)
    pivot_bits = 0
    for boundary in boundaries:
        pivot_bits |= boundary
    pivot_list = list(bit_members(pivot_bits))

    for a_pos, u in enumerate(pivot_list):
        for v in pivot_list[a_pos + 1 :]:
            if _pair_hulls_atom(sub, index[u], index[v]):
                return SatisfactionVerdict(i, "cond1", (u, v))

    s_in_atom = s.bits & atom.bits
    candidates = list(bit_members(s_in_atom & ~pivot_bits))
    for u in pivot_list:
        for v in candidates:
            if _pair_hulls_atom(sub, index[u], index[v]):
                return SatisfactionVerdict(i, "cond2", (u, v))

    local = 0
    for v in bit_members(s_in_atom):
        local |= 1 << index[v]
    if prime_t_hull(sub, VertexSet(sub.n, local)).bits == (1 << sub.n) - 1:
        return SatisfactionVerdict(i, "cond3", VertexSet(g.n, s_in_atom))

    return SatisfactionVerdict(i, "none")


def is_hull_set_by_characterization(g: Graph, dec: Decomposition, s: VertexSet) -> bool:
    """Hull-set test for reducible graphs: |s| >= 2 and every atom satisfied."""
    if dec.t < 2:
        raise ContractViolationError(
            "characterization applies to reducible graphs; primes hull from any "
            "non-adjacent pair"
        )
    if len(s) < 2:
        return False
    return all(satisfies(g, dec, s, i).condition != "none" for i in range(dec.t))


def _restrict(bits: int, vertices: tuple[int, ...]) -> int:
    local = 0
    for pos, v in enumerate(vertices):
        if (bits >> v) & 1:
            local |= 1 << pos
    return local


def _first_nonadjacent_pair(g: Graph) -> tuple[int, int]:
    """Lexicographically first non-adjacent pair; (0, 1) in a complete graph."""
    adj = g._adj
    full = (1 << g.n) - 1
    for u in range(g.n):
        missing = full & ~adj[u] & ~((1 << (u + 1)) - 1)
        if missing:
            return u, (missing & -missing).bit_length() - 1
    return 0, 1


def _line_seven_choice(sub: Graph, seed_local: int, hull_local: int) -> int:
    """Smallest atom vertex whose addition to the seed hulls the whole atom.

    The current hull is a proper convex set, hence a clique; any vertex
    with a non-neighbour inside it completes immediately (non-adjacent
    pairs hull primes), so the explicit hull computation only runs for
    candidates adjacent to the entire current hull.
    """
    full = (1 << sub.n) - 1
    adj = sub._adj
    for v in bit_members(full & ~hull_local):
        if hull_local & ~adj[v]:
            return v
        if prime_t_hull(sub, VertexSet(sub.n, seed_local | (1 << v))).bits == full:
            return v
    raise AlgorithmError("no completing vertex in a prime atom")


def _reducible_hull_bits(
    g: Graph, dec: Decomposition, trace: list[tuple[int, int, VertexSet]] | None = None
) -> int:
    """Reverse sweep of the atoms, then completion of the first atom.

    When ``trace`` is given it receives (atom index, chosen vertex,
    uncovered part of the atom) for every iteration that had to add a
    vertex; the uncovered parts are the disjoint concave sets behind the
    optimality argument.
    """
    n = g.n
    selected = 0
    for i in range(dec.t - 1, 0, -1):
        p = pivots(g, dec, i, VertexSet(n, selected))
        seed_global = p.bits | dec.r_sets[i - 1].bits
        sub, vertices = g.induced(dec.atoms[i])
        seed_local = _restrict(seed_global, vertices)
        hull_local = prime_t_hull(sub, VertexSet(sub.n, seed_local)).bits
        if hull_local == (1 << sub.n) - 1:
            continue
        v_local = _line_seven_choice(sub, seed_local, hull_local)
        chosen = vertices[v_local]
        selected |= 1 << chosen
        if trace is not None:
            uncovered = 0
            for pos in bit_members(((1 << sub.n) - 1) & ~hull_local):
                uncovered |= 1 << vertices[pos]
            trace.append((i, chosen, VertexSet(n, uncovered)))

    hull_so_far = _hull_bits(g, selected) if selected else 0
    f1 = dec.atoms[0].bits
    if f1 & ~hull_so_far:
        completing = None
        for v in bit_members(f1):
            if f1 & ~_hull_bits(g, hull_so_far | (1 << v)) == 0:
                completing = v
                break
        if completing is not None:
            selected |= 1 << completing
        else:
            sub, vertices = g.induced(dec.atoms[0])
            pair = _first_nonadjacent_pair(sub)
            selected |= (1 << vertices[pair[0]]) | (1 << vertices[pair[1]])
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
        hull_set = VertexSet.from_iterable(g.n, _first_nonadjacent_pair(g))
    else:
        hull_set = VertexSet(g.n, _reducible_hull_bits(g, dec))
    if _hull_bits(g, hull_set.bits) != (1 << g.n) - 1:
        raise AlgorithmError("hull-number result failed verification")
    return HullNumberResult(len(hull_set), hull_set)
