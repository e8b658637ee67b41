"""Exponential ground-truth implementations used for cross-validation.

Everything here works straight from the definitions: triangle paths are
enumerated one by one, intervals are unions over pairs, hulls iterate the
interval operator to a fixpoint, and atoms come from recursively splitting
on brute-force clique minimal separators. These routines exist to anchor
the polynomial algorithms in tests; they refuse inputs beyond fixed
budgets instead of running unbounded: path enumeration (and everything
built on intervals) at ``MAX_PATH_VERTICES``, subset scans at
``MAX_SUBSET_VERTICES``, the axiom check at ``MAX_AXIOM_VERTICES``, and
any one vertex pair at ``MAX_PATHS`` triangle paths. The subset scans for
the convexity and hull numbers test each subset with the interval table
up to ``MAX_PATH_VERTICES`` and with the polynomial routines beyond it.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator

from .bitset import VertexSet, bit_members
from .convexity import is_t_convex, t_convex_hull
from .convexity_number import convexity_number
from .decomposition import decompose
from .errors import BudgetExceededError
from .graph import Graph, Path, _components_bits, _non_edge, is_connected
from .hull_number import hull_number

# Path enumeration blows up fastest, subset scans next.
MAX_PATH_VERTICES = 9
MAX_SUBSET_VERTICES = 16
MAX_AXIOM_VERTICES = 5
MAX_PATHS = 2_000_000


def _check_budget(g: Graph, limit: int, what: str) -> None:
    if g.n > limit:
        raise BudgetExceededError(f"{what} capped at n <= {limit}, got n = {g.n}")


def is_triangle_path(g: Graph, vertices: tuple[int, ...]) -> bool:
    """Definition check: a path with no chord spanning more than 2 positions."""
    if len(set(vertices)) != len(vertices):
        return False
    for i in range(len(vertices) - 1):
        if not g.has_edge(vertices[i], vertices[i + 1]):
            return False
    for i, j in itertools.combinations(range(len(vertices)), 2):
        if j - i > 2 and g.has_edge(vertices[i], vertices[j]):
            return False
    return True


def _triangle_paths(adj: list[int], u: int, v: int) -> Iterator[list[int]]:
    """Every triangle u-v path (u != v) in DFS (lexicographic) order.

    Each path is yielded as the live DFS stack with v appended; callers
    copy what they keep. ``ban`` holds path vertices at least two positions
    behind the tip: a new vertex adjacent to any of them would create a
    long chord. More than ``MAX_PATHS`` paths raise BudgetExceededError.
    """
    path = [u]
    count = 0

    def extend(visited: int, ban: int) -> Iterator[list[int]]:
        nonlocal count
        for w in bit_members(adj[path[-1]] & ~visited):
            if adj[w] & ban:
                continue
            path.append(w)
            if w == v:
                count += 1
                if count > MAX_PATHS:
                    raise BudgetExceededError("triangle path cap exceeded")
                yield path
            else:
                new_ban = ban | (1 << path[-3]) if len(path) >= 3 else ban
                yield from extend(visited | (1 << w), new_ban)
            path.pop()

    return extend(1 << u, 0)


def enumerate_triangle_paths(g: Graph, u: int, v: int) -> list[Path]:
    """All triangle paths from u to v, in DFS (lexicographic) order."""
    _check_budget(g, MAX_PATH_VERTICES, "path enumeration")
    if u == v:
        return [Path((u,))]
    return [Path(tuple(p)) for p in _triangle_paths(g._adj, u, v)]


@lru_cache(maxsize=64)
def _interval_table(g: Graph) -> tuple[tuple[int, ...], ...]:
    """I(u, v) for every pair, cached per graph to make subset scans cheap."""
    table = [[0] * g.n for _ in range(g.n)]
    for u in range(g.n):
        table[u][u] = 1 << u
        for v in range(u + 1, g.n):
            bits = (1 << u) | (1 << v)
            for p in _triangle_paths(g._adj, u, v):
                for w in p:
                    bits |= 1 << w
            table[u][v] = table[v][u] = bits
    return tuple(tuple(row) for row in table)


def _interval_bits(g: Graph, bits: int) -> int:
    if bits.bit_count() <= 1:
        return bits
    table = _interval_table(g)
    members = list(bit_members(bits))
    acc = bits
    for i, u in enumerate(members):
        row = table[u]
        for v in members[i + 1 :]:
            acc |= row[v]
    return acc


def _hull_fix(g: Graph, bits: int) -> int:
    """Iterate the interval operator from ``bits`` to its fixpoint."""
    while True:
        nxt = _interval_bits(g, bits)
        if nxt == bits:
            return bits
        bits = nxt


def brute_interval(g: Graph, s: VertexSet) -> VertexSet:
    """Interval of a set: union of triangle-path intervals over its pairs."""
    _check_budget(g, MAX_PATH_VERTICES, "path enumeration")
    return VertexSet(g.n, _interval_bits(g, s.bits))


def brute_is_convex(g: Graph, s: VertexSet) -> bool:
    _check_budget(g, MAX_PATH_VERTICES, "path enumeration")
    return _interval_bits(g, s.bits) == s.bits


def brute_hull(g: Graph, s: VertexSet) -> VertexSet:
    """Iterate the interval operator to its fixpoint."""
    _check_budget(g, MAX_PATH_VERTICES, "path enumeration")
    return VertexSet(g.n, _hull_fix(g, s.bits))


def brute_convexity_number(g: Graph) -> int:
    """Maximum size of a proper convex set, by exhaustive subset scan."""
    _check_budget(g, MAX_SUBSET_VERTICES, "subset scan")
    if g.n <= MAX_PATH_VERTICES:
        convex = lambda bits: _interval_bits(g, bits) == bits
    else:
        convex = lambda bits: is_t_convex(g, VertexSet(g.n, bits))[0]
    full = (1 << g.n) - 1
    best = 0
    for bits in range(full):
        if bits.bit_count() > best and convex(bits):
            best = bits.bit_count()
    return best


def brute_hull_number(g: Graph) -> int:
    """Minimum hull set size: subsets by increasing size, first hit wins."""
    _check_budget(g, MAX_SUBSET_VERTICES, "subset scan")
    full = (1 << g.n) - 1
    if g.n <= MAX_PATH_VERTICES:
        hull = lambda bits: _hull_fix(g, bits)
    else:
        hull = lambda bits: t_convex_hull(g, VertexSet(g.n, bits)).bits
    for size in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            bits = 0
            for v in combo:
                bits |= 1 << v
            if hull(bits) == full:
                return size
    raise AssertionError("V(G) itself is always a hull set")


def brute_atoms(g: Graph) -> set[VertexSet]:
    """Maximal prime subgraphs by recursive clique-separator splitting.

    Splits on any clique that is a minimal separator of the current piece
    (two components seeing all of it), recursing on separator-components
    until no such clique exists. Deduplicated and maximality-filtered.
    """
    _check_budget(g, MAX_SUBSET_VERTICES, "subset scan")
    adj = g._adj
    pieces: set[int] = set()

    def split(sub: int) -> None:
        members = list(bit_members(sub))
        for size in range(1, len(members) - 1):
            for combo in itertools.combinations(members, size):
                sep = 0
                for v in combo:
                    sep |= 1 << v
                if _non_edge(adj, sep) is not None:
                    continue
                comps = [c for c, _ in _components_bits(adj, sub & ~sep)]
                full_comps = [
                    c for c in comps if all(adj[s] & c for s in bit_members(sep))
                ]
                if len(full_comps) >= 2:
                    for comp in comps:
                        split(comp | sep)
                    return
        pieces.add(sub)

    if g.n >= 1:
        for comp, _ in _components_bits(adj, (1 << g.n) - 1):
            split(comp)
    maximal = [p for p in pieces if not any(q != p and p & ~q == 0 for q in pieces)]
    return {VertexSet(g.n, p) for p in maximal}


def check_convexity_axioms(g: Graph) -> bool:
    """The convex family contains empty set and V and is intersection-closed."""
    _check_budget(g, MAX_AXIOM_VERTICES, "axiom check")
    full = (1 << g.n) - 1
    family = {bits for bits in range(full + 1) if _interval_bits(g, bits) == bits}
    if 0 not in family or full not in family:
        return False
    members = sorted(family)
    return all(a & b in family for a, b in itertools.combinations(members, 2))


def run_cross_validation(graphs) -> list[str]:
    """Compare every polynomial routine against its oracle on each graph.

    Returns human-readable mismatch descriptions; empty means all good.
    """
    mismatches: list[str] = []
    for idx, g in enumerate(graphs):
        label = f"graph[{idx}] (n={g.n}, m={g.m})"
        full = (1 << g.n) - 1
        for bits in range(full + 1):
            s = VertexSet(g.n, bits)
            fast = is_t_convex(g, s)[0]
            slow = brute_is_convex(g, s)
            if fast != slow:
                mismatches.append(f"{label}: convexity of {sorted(s)} = {fast}, oracle {slow}")
            fast_hull = t_convex_hull(g, s)
            slow_hull = brute_hull(g, s)
            if fast_hull != slow_hull:
                mismatches.append(
                    f"{label}: hull of {sorted(s)} = {sorted(fast_hull)}, oracle {sorted(slow_hull)}"
                )
        if not is_connected(g) or g.n < 1:
            continue
        dec = decompose(g)
        if set(dec.atoms) != brute_atoms(g):
            mismatches.append(f"{label}: atom family differs from oracle")
        if g.n >= 2:
            fast_cn = convexity_number(g).value
            slow_cn = brute_convexity_number(g)
            if fast_cn != slow_cn:
                mismatches.append(f"{label}: convexity number {fast_cn}, oracle {slow_cn}")
        fast_hn = hull_number(g).value
        slow_hn = brute_hull_number(g)
        if fast_hn != slow_hn:
            mismatches.append(f"{label}: hull number {fast_hn}, oracle {slow_hn}")
        if g.n <= MAX_AXIOM_VERTICES and not check_convexity_axioms(g):
            mismatches.append(f"{label}: convexity axioms violated")
    return mismatches
