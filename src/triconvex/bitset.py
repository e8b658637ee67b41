"""Fixed-universe vertex sets stored as integer bitmasks.

All algorithms in this package treat vertex sets as immutable values.
The raw ``bits`` attribute is deliberately public: hot loops drop down to
plain integer arithmetic and only wrap results back into :class:`VertexSet`
at module boundaries.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class VertexSet:
    """An immutable set of vertex ids drawn from the universe ``0..n-1``."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int = 0):
        if n < 0:
            raise ValueError("universe size must be nonnegative")
        if bits < 0 or bits >> n:
            raise ValueError("bits outside universe")
        self.n = n
        self.bits = bits

    @classmethod
    def from_iterable(cls, n: int, vertices: Iterable[int]) -> VertexSet:
        bits = 0
        for v in vertices:
            if not 0 <= v < n:
                if not n:
                    raise ValueError(f"vertex {v}: the graph has no vertices")
                raise ValueError(f"vertex {v} outside universe 0..{n - 1}")
            bits |= 1 << v
        return cls(n, bits)

    @classmethod
    def empty(cls, n: int) -> VertexSet:
        return cls(n, 0)

    @classmethod
    def full(cls, n: int) -> VertexSet:
        return cls(n, (1 << n) - 1)

    def _check(self, other: VertexSet) -> None:
        if self.n != other.n:
            raise ValueError("vertex sets belong to different universes")

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and (self.bits >> v) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return bit_members(self.bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def __or__(self, other: VertexSet) -> VertexSet:
        self._check(other)
        return VertexSet(self.n, self.bits | other.bits)

    def __and__(self, other: VertexSet) -> VertexSet:
        self._check(other)
        return VertexSet(self.n, self.bits & other.bits)

    def __sub__(self, other: VertexSet) -> VertexSet:
        self._check(other)
        return VertexSet(self.n, self.bits & ~other.bits)

    def __le__(self, other: VertexSet) -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    def first(self) -> int:
        """Smallest member."""
        if not self.bits:
            raise ValueError("empty vertex set has no first element")
        return (self.bits & -self.bits).bit_length() - 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VertexSet):
            return NotImplemented
        return self.n == other.n and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __repr__(self) -> str:
        return f"VertexSet({self.n}, {{{', '.join(map(str, self))}}})"


def bit_members(bits: int) -> Iterator[int]:
    """Iterate the set bits of a mask in ascending order.

    Each member costs a few big-int operations as long as the mask, which is
    cheapest for a few members; :func:`byte_members` lists a mask of more
    than a few dozen members faster.
    """
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


# _BYTE_OFFSETS[b]: the set bit offsets of the byte b, ascending
_BYTE_OFFSETS = tuple(tuple(p for p in range(8) if b >> p & 1) for b in range(256))


def byte_members(bits: int) -> list[int]:
    """The set bits of a nonnegative mask in ascending order, as a list.

    One pass over the mask's bytes (``int.to_bytes``) and one table lookup
    per nonzero byte, so a member costs no big-int operation. That pays
    where ``bit_members`` pays a few operations over the whole mask per
    member: a 598-member mask of 600 bits lists about three times faster.
    The pass costs a few microseconds even for one member, so below about
    20 members on a few hundred bits, and below about 50 on thousands,
    ``bit_members`` is faster. Its callers, ``graph._reach``, ``graph._fold``
    and ``convexity._seen_twice``, take it past ``graph._WIDE_LEVEL``
    members.
    """
    data = bits.to_bytes((bits.bit_length() + 7) >> 3, "little")
    return [8 * i + p for i, b in enumerate(data) if b for p in _BYTE_OFFSETS[b]]
