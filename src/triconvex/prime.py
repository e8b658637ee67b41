"""Fast convexity routines for prime graphs (no clique separator).

On a prime graph a proper convex set is exactly a clique whose outside
vertices see at most one of its members, which makes the convex family
small enough to enumerate outright. Both halves of that test read only
the rows of the members of S, never those of the vertices outside it: the
clique test ``graph._non_edge`` and the member fold ``graph._fold``, whose
``twice & ~S`` are the doubly-seen outside vertices. The convexity test and
the hull's single closure round, ``S | twice``, thus cost O(|S|) mask
operations instead of O(n).

With ``within=F`` each routine works on the prime subgraph G[F], such as
an atom, in G's own vertex ids: the fold reads only rows of members of
S inside F, so cutting its outputs to F (``twice & F``) is enough, and no
relabelled copy of G[F] is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .bitset import VertexSet, bit_members
from .errors import ContractViolationError
from .graph import Graph, _check_universe, _fold, _non_edge


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


def _prime_convex_bits(adj: list[int], atom: int, bits: int) -> bool:
    if bits == atom:
        return True
    return _non_edge(adj, bits) is None and not _fold(adj, bits, 0, 0)[1] & atom & ~bits


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
    if bits != atom and _non_edge(adj, bits) is None:
        ext = bits | (_fold(adj, bits, 0, 0)[1] & atom)
        if _prime_convex_bits(adj, atom, ext):
            return VertexSet(g.n, ext)
    return VertexSet(g.n, atom)


# _SORT_BYTES[x]: 255 minus x with its bits reversed
_SORT_BYTES = bytes(255 - int(f"{x:08b}"[::-1], 2) for x in range(256))


def _by_size_then_members(family: Iterable[int], n: int) -> tuple[int, ...]:
    """Masks over ``0..n-1`` sorted by size, then by their ascending members.

    Of two sets of one size, the first holds the lowest member of their
    symmetric difference. Their little-endian bytes, each byte's bits
    reversed and complemented (``_SORT_BYTES``), compare the same way, so
    the key builds no member tuple. The size stays first, as the bytes
    order sets of different sizes otherwise.
    """
    size = (n + 7) >> 3

    def key(b: int) -> tuple[int, bytes]:
        return b.bit_count(), b.to_bytes(size, "little").translate(_SORT_BYTES)

    return tuple(sorted(family, key=key))


def enumerate_prime_convex_sets(g: Graph, *, within: VertexSet | None = None) -> PrimeConvexFamily:
    """All convex sets of a prime graph, or of G[within] in G's ids.

    Seeds the family with the trivial sets, then closes each edge once: the
    candidate for edge uv is {u, v} plus their common neighbours, kept when
    convex. The edges of every candidate are dropped from the worklist,
    accepted or not: in a prime graph the only proper convex set that holds
    an edge ab is its candidate, and for an edge ab inside the candidate of
    uv, ab's candidate holds uv, so it is uv's whenever it is proper convex.
    An edge with no common neighbour is convex on sight and inside no other
    candidate, so it is added with no test and no worklist marks. The
    family is sorted by ``_by_size_then_members``, on byte keys.
    """
    atom = _atom_bits(g, within, None)
    adj = g._adj
    family = {0, atom}
    # done[a]: the higher ends b of the edges ab already inside a candidate
    done: dict[int, int] = {}
    for u in bit_members(atom):
        low = 1 << u
        family.add(low)
        row = adj[u] & atom
        for v in bit_members(row & ~((low << 1) - 1)):
            common = row & adj[v]
            if not common:
                family.add(low | (1 << v))
                continue
            if (done.get(u, 0) >> v) & 1:
                continue
            cand = low | (1 << v) | common
            if _prime_convex_bits(adj, atom, cand):
                family.add(cand)
            for a in bit_members(cand):
                done[a] = done.get(a, 0) | (adj[a] & cand & ~((1 << (a + 1)) - 1))
    return PrimeConvexFamily(g.n, _by_size_then_members(family, g.n))
