"""Fast convexity routines for prime graphs (no clique separator).

On a prime graph a proper convex set is exactly a clique whose outside
vertices see at most one of its members, which makes the convex family
small enough to enumerate outright. Both halves of that test come from one
fold over the members u of S, never over the vertices outside it:

    twice |= once & adj[u]; once |= adj[u]      (clique: S inside N[u])

after which the doubly-seen outside vertices are ``twice & ~S``. The
convexity test and the hull's single closure round, ``S | twice``, thus
cost O(|S|) mask operations instead of O(n).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .bitset import VertexSet, bit_members
from .errors import ContractViolationError
from .graph import Graph


@dataclass(frozen=True, slots=True)
class PrimeConvexFamily:
    """Every convex set of a prime graph, sorted by size then members.

    The sets are kept as masks over ``0..n-1`` and wrapped in
    :class:`VertexSet` only as they are iterated.
    """

    n: int
    bits: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.bits)

    def __iter__(self) -> Iterator[VertexSet]:
        return (VertexSet(self.n, b) for b in self.bits)


def _require_prime(g: Graph) -> None:
    from .decomposition import is_prime

    if not is_prime(g):
        raise ContractViolationError("graph is not prime")


def _twice_seen(adj: list[int], bits: int) -> int | None:
    """Vertices with two or more neighbours in ``bits``, or None when
    ``bits`` is not a clique.

    One pass over the members: ``twice |= once & adj[u]; once |= adj[u]``,
    with the clique test on the same row, so the cost is O(|bits|) mask
    operations however many vertices lie outside.
    """
    once = twice = 0
    rest = bits
    while rest:
        low = rest & -rest
        rest ^= low
        row = adj[low.bit_length() - 1]
        if bits & ~row & ~low:
            return None
        twice |= once & row
        once |= row
    return twice


def _prime_convex_bits(adj: list[int], full: int, bits: int) -> bool:
    if bits == full:
        return True
    twice = _twice_seen(adj, bits)
    return twice is not None and not twice & ~bits


def prime_is_t_convex(g: Graph, s: VertexSet, checked: bool = False) -> bool:
    """Convexity test for prime graphs: clique with no doubly-seen outside.

    The caller guarantees primality; pass checked=True to have it verified
    (used by tests).
    """
    if checked:
        _require_prime(g)
    return _prime_convex_bits(g._adj, (1 << g.n) - 1, s.bits)


def prime_t_hull(g: Graph, s: VertexSet, checked: bool = False) -> VertexSet:
    """Hull in a prime graph: one closure round decides everything.

    A non-clique seed already hulls to V. Otherwise add the vertices
    with two neighbours in the seed (``S | twice``); if that is convex it
    is the hull, and if not the hull is V.
    """
    if checked:
        _require_prime(g)
    adj = g._adj
    full = (1 << g.n) - 1
    bits = s.bits
    if bits == full:
        return VertexSet(g.n, full)
    twice = _twice_seen(adj, bits)
    if twice is None:
        return VertexSet(g.n, full)
    ext = bits | twice
    if _prime_convex_bits(adj, full, ext):
        return VertexSet(g.n, ext)
    return VertexSet(g.n, full)


def enumerate_prime_convex_sets(g: Graph, checked: bool = False) -> PrimeConvexFamily:
    """All convex sets of a prime graph.

    Seeds the family with the trivial sets, then closes each edge once: the
    candidate for edge uv is {u, v} plus their common neighbours, kept when
    convex. All edges inside an accepted candidate are dropped from the
    worklist, which is what keeps every set from being produced twice.
    """
    if checked:
        _require_prime(g)
    adj = g._adj
    n = g.n
    full = (1 << n) - 1
    family = {0, full}
    for v in range(n):
        family.add(1 << v)
    # done[a]: the higher ends b of the edges ab already inside a candidate
    done = [0] * n
    for u, v in g.edges():
        if (done[u] >> v) & 1:
            continue
        cand = (1 << u) | (1 << v) | (adj[u] & adj[v])
        if _prime_convex_bits(adj, full, cand):
            family.add(cand)
        for a in bit_members(cand):
            done[a] |= adj[a] & cand & ~((1 << (a + 1)) - 1)
    ordered = sorted(family, key=lambda b: (b.bit_count(), tuple(bit_members(b))))
    return PrimeConvexFamily(n, tuple(ordered))
