"""Polynomial convexity test and convex hull for the triangle path convexity.

A set S is convex exactly when no outside vertex has two neighbours in S
and no two non-adjacent members of S have neighbours in a common component
of G - S. Every vertex either repair adds lies in the hull, so the hull is
a closure taken in rounds: one round absorbs every outside vertex seen
twice, read off a member fold (``twice |= once & adj[u]; once |= adj[u]``)
that each round extends by the members it added. Only when no such vertex
is left does a mono scan run: one search of G - S, and in every component
D whose attached members N(D) are not a clique, one BFS from the first
member u with a non-neighbour in N(D), which absorbs a shortest path
through D from u to each such non-neighbour. The fold costs O(|hull|) mask
operations per hull. The convexity test checks the outside condition over
the smaller side, the members or the outside vertices, so a pair costs two
row ORs. Every mono scan reads the members attached to each component D
of G - S off the boundary N(D) that ``graph._components_bits`` returns
with D, so one scan is one search: O(n) mask operations.

Before its closure the hull peels the member-free pendant trees: it deletes,
while it can, a non-member with at most one neighbour left, starting from the
graph's degree <= 1 vertices outside S (``Graph._leaves``). Each peeled
vertex has at most one neighbour among the vertices peeled after it and the
core, so the peeled vertices form trees that each hang from at most one core
vertex, and a path entering one has no way back out: no path joins two
members, of S or of any superset that avoids the trees, through them, and
the hull never enters them. Its rounds and mono scans then run on the core
that is left, which on graphs with many hung trees is a fraction of V. The
convexity test does not peel: its mono witness names a whole component of
G - S, hung vertices included, and a core-only check run before the full
scan measured slower on trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .bitset import VertexSet, bit_members
# shortest_path stays a module attribute: benchmark/tracer.py wraps it here.
from .graph import Graph, _check_universe, _components_bits, shortest_path  # noqa: F401


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


def _p3_violation(adj: list[int], full: int, bits: int) -> int | None:
    """Smallest outside vertex with two or more neighbours inside, if any.

    The smaller side is scanned: with at most half the vertices inside, a
    member fold (``twice |= once & adj[u]; once |= adj[u]``) marks every
    vertex seeing two members; otherwise each outside vertex counts its
    neighbours inside.
    """
    outside = full & ~bits
    if bits.bit_count() <= outside.bit_count():
        once = twice = 0
        for u in bit_members(bits):
            row = adj[u]
            twice |= once & row
            once |= row
        twice &= outside
        return (twice & -twice).bit_length() - 1 if twice else None
    while outside:
        low = outside & -outside
        outside ^= low
        v = low.bit_length() - 1
        if (adj[v] & bits).bit_count() >= 2:
            return v
    return None


def _violating_components(
    adj: list[int], core: int, bits: int
) -> Iterator[tuple[int, int, int]]:
    """``(u, missing, D)`` for every component D of G[core] - S whose
    attached members A = N(D) & S are not a clique, by minimum vertex id of D.

    ``core`` is V for the convexity test and what the hull's peel leaves for
    the hull. The boundary ``_components_bits`` pairs D with is every
    neighbour of D outside ``core & ~S``, so with peeled vertices outside the
    core it may hold some of them: A is that boundary cut to S. A peeled
    vertex hangs from D by a tree that reaches no member, so A is also the
    member boundary of the component of G - S that contains D.

    ``u`` is the smallest member of A with a non-neighbour in A and
    ``missing`` all of its non-neighbours there; each lies above ``u``,
    since a lower one would itself have ``u`` as a higher non-neighbour.
    One search: O(|core| - |S|) mask operations for the components plus the
    smaller side's rows for every boundary, with no pass over the members
    per component.
    """
    for comp, boundary in _components_bits(adj, core & ~bits):
        attached = boundary & bits
        scan = attached
        while scan:
            low = scan & -scan
            scan ^= low
            u = low.bit_length() - 1
            missing = attached & ~adj[u] & ~((low << 1) - 1)
            if missing:
                yield u, missing, comp
                break


def _mono_violation(adj: list[int], full: int, bits: int) -> tuple[int, int, int] | None:
    """First non-adjacent pair of the set attached to a common component.

    Components are scanned by minimum vertex id and the pair is the
    lexicographically smallest one, so witnesses are reproducible.
    """
    for u, missing, comp in _violating_components(adj, full, bits):
        return u, (missing & -missing).bit_length() - 1, comp
    return None


def _forced_paths(adj: list[int], comp: int, u: int, targets: int) -> int:
    """Inner vertices of one shortest u-t path through ``comp`` per target t.

    One BFS from ``u`` that stays inside ``comp`` (every target has a
    neighbour there and none is adjacent to ``u``). ``grown`` is all a
    level reaches, so a single ``grown & targets`` per level finds the
    targets next to it; each is walked back to ``u`` through the levels
    before, lowest vertex first. A shortest path through D is induced, so
    it is a triangle path and all its vertices lie in the hull.
    """
    levels = [adj[u] & comp]
    seen = levels[0]
    inner = 0
    while True:
        grown = 0
        f = levels[-1]
        while f:
            low = f & -f
            f ^= low
            grown |= adj[low.bit_length() - 1]
        hit = grown & targets
        if hit:
            targets ^= hit
            for t in bit_members(hit):
                cur = t
                for level in reversed(levels):
                    step = adj[cur] & level
                    step &= -step
                    inner |= step
                    cur = step.bit_length() - 1
            if not targets:
                return inner
        grown &= comp & ~seen
        seen |= grown
        levels.append(grown)


def is_p3_convex(g: Graph, s: VertexSet) -> bool:
    """No vertex outside s has two neighbours in s."""
    _check_universe(g, s)
    return _p3_violation(g._adj, (1 << g.n) - 1, s.bits) is None


def is_m_convex(g: Graph, s: VertexSet) -> bool:
    """No component of G - s touches two non-adjacent members of s."""
    _check_universe(g, s)
    return _mono_violation(g._adj, (1 << g.n) - 1, s.bits) is None


def is_t_convex(g: Graph, s: VertexSet) -> tuple[bool, ConvexityWitness | None]:
    """Triangle-path convexity test; on failure returns a witness.

    The outside-vertex condition is reported first: absorbing one vertex
    is cheaper than a path, and the hull is the same either way.
    """
    _check_universe(g, s)
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
    """Closure of ``bits``: pendant-tree peel, then p3 rounds from one member
    fold and mono scans on the core that is left.

    The peel deletes, while it can, a non-member with at most one neighbour
    left, starting from the graph's degree <= 1 vertices outside S. Each
    peeled vertex has at most one neighbour that is peeled later or stays, so
    a path through one would have to leave it through an earlier peeled
    vertex, and the earliest inner one has no such way out: no path
    between members of S, or of any superset that avoids the peeled set,
    enters it. The hull never does, so the closure runs on the core alone.

    ``once``/``twice`` hold the vertices seeing at least one/two members.
    Each round folds only the members added since the last one, so the p3
    work over the whole hull is O(|hull|) mask operations, and absorbs all
    of ``twice & ~bits`` at once (a peeled vertex sees at most one member).
    Only a p3-closed set gets a mono scan: one search of the core minus S,
    and for every component whose attached members are not a clique, one
    BFS through it from the first of them with a non-neighbour among them to
    every such non-neighbour (``_forced_paths``). Absorbing inside one
    component leaves the others and their boundaries as they were, so all
    are crossed in the same scan; the path vertices are folded in the next
    round.
    """
    adj = g._adj
    core = (1 << g.n) - 1
    stack = [v for v in g._leaves if not (bits >> v) & 1]
    while stack:
        v = stack.pop()
        core ^= 1 << v
        rest = adj[v] & core & ~bits
        if rest:
            # v's last neighbour, a non-member; pushed once, when its
            # degree in the core first drops to 1
            w = rest.bit_length() - 1
            if (adj[w] & core).bit_count() == 1:
                stack.append(w)
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
        if not new:
            for u, missing, comp in _violating_components(adj, core, bits):
                new |= _forced_paths(adj, comp, u, missing)
            if not new:
                return bits
        bits |= new


def t_convex_hull(g: Graph, s: VertexSet) -> VertexSet:
    """The minimum convex superset of s.

    Each closure round absorbs, all at once, every outside vertex with two
    neighbours inside. When a round finds none, every component D of the
    complement whose attached members are not pairwise adjacent is crossed:
    from its first attached member u that has a non-adjacent one, a shortest
    path through D to every such non-neighbour, whose vertices are all forced
    into the hull. Then the rounds resume. The hull is the same whatever
    order the forced vertices join in. All of this runs on the core left
    once the pendant trees without a member of s are peeled, since no
    triangle path between members enters one (see ``_hull_bits``).
    """
    _check_universe(g, s)
    return VertexSet(g.n, _hull_bits(g, s.bits))


def is_t_hull_set(g: Graph, s: VertexSet) -> bool:
    """Does the hull of s cover the whole vertex set?"""
    _check_universe(g, s)
    return _hull_bits(g, s.bits) == (1 << g.n) - 1

