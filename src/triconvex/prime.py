"""Fast convexity routines for prime graphs (no clique separator).

On a prime graph a proper convex set is exactly a clique whose outside
vertices see at most one of its members, which makes the convex family
small enough to enumerate outright. Both halves of that test come from one
fold over the members u of S, never over the vertices outside it:

    twice |= once & adj[u]; once |= adj[u]      (clique: S inside N[u])

after which the doubly-seen outside vertices are ``twice & ~S``. The
convexity test and the hull's single closure round, ``S | twice``, thus
cost O(|S|) mask operations instead of O(n).

With ``within=F`` each routine works on the prime subgraph G[F], such as
an atom, in G's own vertex ids: the fold reads only rows of members of
S inside F, so cutting its outputs to F (``twice & F``) is enough, and no
relabelled copy of G[F] is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .bitset import VertexSet, bit_members
from .errors import ContractViolationError
from .graph import Graph, _check_universe


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


def _atom_bits(g: Graph, within: VertexSet | None, s: VertexSet | None) -> int:
    """Mask of the prime subgraph G[within], all of G by default, once the
    sets are checked against g and the seed s (if any) against the atom."""
    _check_universe(g, within, s)
    atom = (1 << g.n) - 1 if within is None else within.bits
    if s is not None and s.bits & ~atom:
        raise ContractViolationError("seed is not inside the atom")
    return atom


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


def _prime_convex_bits(adj: list[int], atom: int, bits: int) -> bool:
    if bits == atom:
        return True
    twice = _twice_seen(adj, bits)
    return twice is not None and not twice & atom & ~bits


def prime_is_t_convex(g: Graph, s: VertexSet, *, within: VertexSet | None = None) -> bool:
    """Convexity test for prime graphs: clique with no doubly-seen outside.

    ``within`` names a prime subgraph G[within] to test s in, in G's own
    ids; s must lie inside it. The caller guarantees primality.
    """
    return _prime_convex_bits(g._adj, _atom_bits(g, within, s), s.bits)


def prime_t_hull(g: Graph, s: VertexSet, *, within: VertexSet | None = None) -> VertexSet:
    """Hull in a prime graph: one closure round decides everything.

    A non-clique seed already hulls to V. Otherwise add the vertices
    with two neighbours in the seed (``S | twice``); if that is convex it
    is the hull, and if not the hull is V. With ``within``, V is that
    prime subgraph's vertex set and the hull is taken in G[within].
    """
    atom = _atom_bits(g, within, s)
    bits = s.bits
    adj = g._adj
    if bits != atom:
        twice = _twice_seen(adj, bits)
        if twice is not None:
            ext = bits | (twice & atom)
            if _prime_convex_bits(adj, atom, ext):
                return VertexSet(g.n, ext)
    return VertexSet(g.n, atom)


def enumerate_prime_convex_sets(g: Graph, *, within: VertexSet | None = None) -> PrimeConvexFamily:
    """All convex sets of a prime graph, or of G[within] in G's ids.

    Seeds the family with the trivial sets, then closes each edge once: the
    candidate for edge uv is {u, v} plus their common neighbours, kept when
    convex. All edges inside an accepted candidate are dropped from the
    worklist, which is what keeps every set from being produced twice.
    """
    atom = _atom_bits(g, within, None)
    adj = g._adj
    family = {0, atom}
    # done[a]: the higher ends b of the edges ab already inside a candidate
    done: dict[int, int] = {}
    for u in bit_members(atom):
        family.add(1 << u)
        for v in bit_members(adj[u] & atom & ~((1 << (u + 1)) - 1)):
            if (done.get(u, 0) >> v) & 1:
                continue
            cand = (1 << u) | (1 << v) | (adj[u] & adj[v] & atom)
            if _prime_convex_bits(adj, atom, cand):
                family.add(cand)
            for a in bit_members(cand):
                done[a] = done.get(a, 0) | (adj[a] & cand & ~((1 << (a + 1)) - 1))
    ordered = sorted(family, key=lambda b: (b.bit_count(), tuple(bit_members(b))))
    return PrimeConvexFamily(g.n, tuple(ordered))
