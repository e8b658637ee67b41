"""Polynomial convexity test and convex hull for the triangle path convexity.

A set S is convex exactly when no outside vertex has two neighbours in S
and no two non-adjacent members of S have neighbours in a common component
of G - S. Every vertex either repair adds lies in the hull, so the hull is
a closure taken in rounds: one round absorbs every outside vertex seen
twice, read off a member fold (``twice |= once & adj[u]; once |= adj[u]``)
that each round extends by the members it added; only when no such vertex
is left does it cross one doubly-attached component by a shortest path.
The fold costs O(|hull|) mask operations per hull. The convexity test
scans the outside vertices instead, which costs O(n - |S|) and suits one
test of a large set. The mono scan reads the members attached to each
component D of G - S off the boundary N(D) that ``graph._components_bits``
returns with D, so one scan is one search: O(n) mask operations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitset import VertexSet
from .errors import ValidationError
from .graph import Graph, _components_bits, shortest_path


@dataclass(frozen=True, slots=True)
class ConvexityWitness:
    """Evidence that a set is not convex.

    kind "p3-violation": ``vertex`` lies outside the set and has at least
    two neighbours inside. kind "mono-violation": ``pair`` are non-adjacent
    members both adjacent to ``component`` of the complement.
    """

    kind: str
    vertex: int | None = None
    pair: tuple[int, int] | None = None
    component: VertexSet | None = None


def _check_subset(g: Graph, s: VertexSet) -> None:
    if s.n != g.n:
        raise ValidationError("vertex set has wrong universe size")


def _p3_violation(adj: list[int], full: int, bits: int) -> int | None:
    """Smallest outside vertex with two or more neighbours inside, if any."""
    outside = full & ~bits
    while outside:
        low = outside & -outside
        outside ^= low
        v = low.bit_length() - 1
        if (adj[v] & bits).bit_count() >= 2:
            return v
    return None


def _mono_violation(adj: list[int], full: int, bits: int) -> tuple[int, int, int] | None:
    """First non-adjacent pair of the set attached to a common component.

    The members attached to a component D of G - S are N(D), the boundary
    ``_components_bits`` pairs D with: O(n - |S|) mask operations for the
    components plus O(|S| + |N(S)|) for every boundary, with no pass over
    the members per component. Components are scanned by minimum vertex id
    and the pair is the lexicographically smallest one, so hull traces are
    reproducible.
    """
    for comp, attached in _components_bits(adj, full & ~bits):
        scan = attached
        while scan:
            low = scan & -scan
            scan ^= low
            u = low.bit_length() - 1
            missing = attached & ~adj[u] & ~((low << 1) - 1)
            if missing:
                v = (missing & -missing).bit_length() - 1
                return u, v, comp
    return None


def is_p3_convex(g: Graph, s: VertexSet) -> bool:
    """No vertex outside s has two neighbours in s."""
    _check_subset(g, s)
    return _p3_violation(g._adj, (1 << g.n) - 1, s.bits) is None


def is_m_convex(g: Graph, s: VertexSet) -> bool:
    """No component of G - s touches two non-adjacent members of s."""
    _check_subset(g, s)
    return _mono_violation(g._adj, (1 << g.n) - 1, s.bits) is None


def is_t_convex(g: Graph, s: VertexSet) -> tuple[bool, ConvexityWitness | None]:
    """Triangle-path convexity test; on failure returns a witness.

    The outside-vertex condition is reported first: absorbing one vertex
    is cheaper than a path, and the hull is the same either way.
    """
    _check_subset(g, s)
    adj = g._adj
    full = (1 << g.n) - 1
    v = _p3_violation(adj, full, s.bits)
    if v is not None:
        return False, ConvexityWitness(kind="p3-violation", vertex=v)
    hit = _mono_violation(adj, full, s.bits)
    if hit is not None:
        u, v, comp = hit
        return False, ConvexityWitness(
            kind="mono-violation", pair=(u, v), component=VertexSet(g.n, comp)
        )
    return True, None


def _hull_bits(g: Graph, bits: int) -> int:
    """Closure of ``bits``: p3 rounds from one member fold, then mono paths.

    ``once``/``twice`` hold the vertices seeing at least one/two members.
    Each round folds only the members added since the last one, so the p3
    work over the whole hull is O(|hull|) mask operations, and absorbs all
    of ``twice & ~bits`` at once. Only a p3-closed set gets the mono scan;
    the vertices of its path are folded in the next round.
    """
    adj = g._adj
    full = (1 << g.n) - 1
    once = twice = 0
    new = bits
    while True:
        while new:
            low = new & -new
            new ^= low
            row = adj[low.bit_length() - 1]
            twice |= once & row
            once |= row
        new = twice & ~bits
        if new:
            bits |= new
            continue
        hit = _mono_violation(adj, full, bits)
        if hit is None:
            return bits
        u, v, comp = hit
        path = shortest_path(g, u, v, VertexSet(g.n, comp | (1 << u) | (1 << v)))
        for w in path:
            new |= 1 << w
        new &= ~bits
        bits |= new


def t_convex_hull(g: Graph, s: VertexSet) -> VertexSet:
    """The minimum convex superset of s.

    Each closure round absorbs, all at once, every outside vertex with two
    neighbours inside. When a round finds none, the first doubly-attached
    component the convexity test reports is crossed by a shortest path
    between the offending pair (restricted to that component), whose
    vertices are all forced into the hull, and the rounds resume. The
    hull is the same whatever order the forced vertices join in.
    """
    _check_subset(g, s)
    return VertexSet(g.n, _hull_bits(g, s.bits))


def is_t_hull_set(g: Graph, s: VertexSet) -> bool:
    """Does the hull of s cover the whole vertex set?"""
    _check_subset(g, s)
    return _hull_bits(g, s.bits) == (1 << g.n) - 1

