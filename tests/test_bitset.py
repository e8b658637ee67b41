from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from triconvex.bitset import VertexSet, bit_members, byte_members

members = st.sets(st.integers(min_value=0, max_value=30))


def test_construction_and_membership():
    s = VertexSet.from_iterable(6, [0, 2, 5])
    assert list(s) == [0, 2, 5]
    assert 2 in s and 3 not in s
    assert len(s) == 3
    assert s.first() == 0


def test_rejects_out_of_universe():
    with pytest.raises(ValueError):
        VertexSet.from_iterable(4, [4])
    with pytest.raises(ValueError):
        VertexSet(3, 1 << 5)
    with pytest.raises(ValueError, match="^vertex 0: the graph has no vertices$"):
        VertexSet.from_iterable(0, [0])


def test_mixed_universes_rejected():
    with pytest.raises(ValueError):
        VertexSet(4, 1) | VertexSet(5, 1)


def test_empty_and_full():
    assert not VertexSet.empty(5)
    assert list(VertexSet.full(3)) == [0, 1, 2]
    with pytest.raises(ValueError):
        VertexSet.empty(3).first()


@given(members, members)
def test_set_algebra_matches_builtin_sets(a, b):
    n = 32
    sa, sb = VertexSet.from_iterable(n, a), VertexSet.from_iterable(n, b)
    assert set(sa | sb) == a | b
    assert set(sa & sb) == a & b
    assert set(sa - sb) == a - b
    assert (sa <= sb) == (a <= b)


@given(members)
def test_iteration_is_ascending_and_hash_consistent(a):
    s = VertexSet.from_iterable(32, a)
    assert list(s) == sorted(a)
    assert s == VertexSet.from_iterable(32, sorted(a, reverse=True))
    assert hash(s) == hash(VertexSet(32, s.bits))


def test_bit_members_matches_iteration():
    assert list(bit_members(0b101001)) == [0, 3, 5]


def test_byte_members_matches_bit_members():
    # every density, byte-boundary universes, and the masks of one end bit
    # or all bits
    rng = random.Random(5)
    for n in (1, 7, 8, 9, 63, 64, 65, 600):
        masks = [0, 1, 1 << (n - 1), (1 << n) - 1]
        for density in (0.01, 0.05, 0.2, 0.5, 0.8, 0.99):
            for _ in range(5):
                masks.append(sum(1 << v for v in range(n) if rng.random() < density))
        for bits in masks:
            assert byte_members(bits) == list(bit_members(bits)), (n, bits)
