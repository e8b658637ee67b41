"""Exponential ground-truth implementations used for cross-validation.

Everything here works straight from the definitions: triangle paths are
enumerated one by one, intervals are unions over pairs, hulls iterate the
interval operator to a fixpoint, and atoms come from recursively splitting
on brute-force clique minimal separators. These routines exist to anchor
the polynomial algorithms in tests; they refuse inputs beyond their
budget instead of running unbounded.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .bitset import VertexSet, bit_members
from .errors import BudgetExceededError
from .graph import Graph, Path, _components_bits, _is_clique


@dataclass(frozen=True, slots=True)
class OracleBudget:
    """Hard caps: path enumeration blows up fastest, subset scans next."""

    max_path_vertices: int = 9
    max_subset_vertices: int = 16
    max_axiom_vertices: int = 5
    max_paths: int = 2_000_000


DEFAULT_BUDGET = OracleBudget()


def _check_paths(g: Graph, budget: OracleBudget) -> None:
    if g.n > budget.max_path_vertices:
        raise BudgetExceededError(
            f"path enumeration capped at n <= {budget.max_path_vertices}, got n = {g.n}"
        )


def _check_subsets(g: Graph, budget: OracleBudget) -> None:
    if g.n > budget.max_subset_vertices:
        raise BudgetExceededError(
            f"subset scan capped at n <= {budget.max_subset_vertices}, got n = {g.n}"
        )


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


def enumerate_triangle_paths(
    g: Graph, u: int, v: int, budget: OracleBudget = DEFAULT_BUDGET
) -> list[Path]:
    """All triangle paths from u to v, in DFS (lexicographic) order."""
    _check_paths(g, budget)
    if u == v:
        return [Path((u,))]
    adj = g._adj
    out: list[Path] = []
    path = [u]

    def extend(visited: int, ban: int) -> None:
        # ban holds path vertices at least two positions behind the tip;
        # a new vertex adjacent to any of them would create a long chord.
        cur = path[-1]
        candidates = adj[cur] & ~visited
        for w in bit_members(candidates):
            if adj[w] & ban:
                continue
            if w == v:
                if len(out) >= budget.max_paths:
                    raise BudgetExceededError("triangle path cap exceeded")
                out.append(Path(tuple(path) + (v,)))
                continue
            path.append(w)
            new_ban = ban | (1 << path[-3]) if len(path) >= 3 else ban
            extend(visited | (1 << w), new_ban)
            path.pop()

    extend(1 << u, 0)
    return out


def _pair_interval_bits(adj: list[int], u: int, v: int, max_paths: int) -> int:
    """Union of the vertex sets of all triangle u-v paths, as a bitmask."""
    acc = (1 << u) | (1 << v)
    count = 0

    def extend(path: list[int], visited: int, ban: int) -> None:
        nonlocal acc, count
        cur = path[-1]
        for w in bit_members(adj[cur] & ~visited):
            if adj[w] & ban:
                continue
            if w == v:
                count += 1
                if count > max_paths:
                    raise BudgetExceededError("triangle path cap exceeded")
                acc |= visited | (1 << v)
                continue
            path.append(w)
            new_ban = ban | (1 << path[-3]) if len(path) >= 3 else ban
            extend(path, visited | (1 << w), new_ban)
            path.pop()

    extend([u], 1 << u, 0)
    return acc


@lru_cache(maxsize=64)
def _interval_table(g: Graph, max_paths: int) -> tuple[tuple[int, ...], ...]:
    """I(u, v) for every pair, cached per graph to make subset scans cheap."""
    table = [[0] * g.n for _ in range(g.n)]
    for u in range(g.n):
        table[u][u] = 1 << u
        for v in range(u + 1, g.n):
            bits = _pair_interval_bits(g._adj, u, v, max_paths)
            table[u][v] = bits
            table[v][u] = bits
    return tuple(tuple(row) for row in table)


def _interval_bits(g: Graph, bits: int, budget: OracleBudget) -> int:
    if bits.bit_count() <= 1:
        return bits
    table = _interval_table(g, budget.max_paths)
    members = list(bit_members(bits))
    acc = bits
    for i, u in enumerate(members):
        row = table[u]
        for v in members[i + 1 :]:
            acc |= row[v]
    return acc


def brute_interval(g: Graph, s: VertexSet, budget: OracleBudget = DEFAULT_BUDGET) -> VertexSet:
    """Interval of a set: union of triangle-path intervals over its pairs."""
    _check_paths(g, budget)
    return VertexSet(g.n, _interval_bits(g, s.bits, budget))


def brute_is_convex(g: Graph, s: VertexSet, budget: OracleBudget = DEFAULT_BUDGET) -> bool:
    _check_paths(g, budget)
    return _interval_bits(g, s.bits, budget) == s.bits


def brute_hull(g: Graph, s: VertexSet, budget: OracleBudget = DEFAULT_BUDGET) -> VertexSet:
    """Iterate the interval operator to its fixpoint."""
    _check_paths(g, budget)
    cur = s.bits
    while True:
        nxt = _interval_bits(g, cur, budget)
        if nxt == cur:
            return VertexSet(g.n, cur)
        cur = nxt


def brute_convexity_number(g: Graph, budget: OracleBudget = DEFAULT_BUDGET) -> int:
    """Maximum size of a proper convex set, by exhaustive subset scan."""
    _check_subsets(g, budget)
    convex = _convex_test(g, budget)
    full = (1 << g.n) - 1
    best = 0
    for bits in range(full):
        if bits.bit_count() > best and convex(bits):
            best = bits.bit_count()
    return best


def brute_hull_number(g: Graph, budget: OracleBudget = DEFAULT_BUDGET) -> int:
    """Minimum hull set size: subsets by increasing size, first hit wins."""
    _check_subsets(g, budget)
    full = (1 << g.n) - 1
    if g.n <= budget.max_path_vertices:
        hull = lambda bits: _brute_hull_fix(g, bits, budget)
    else:
        from .convexity import t_convex_hull

        hull = lambda bits: t_convex_hull(g, VertexSet(g.n, bits)).bits
    for size in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            bits = 0
            for v in combo:
                bits |= 1 << v
            if hull(bits) == full:
                return size
    raise AssertionError("V(G) itself is always a hull set")


def _brute_hull_fix(g: Graph, bits: int, budget: OracleBudget) -> int:
    cur = bits
    while True:
        nxt = _interval_bits(g, cur, budget)
        if nxt == cur:
            return cur
        cur = nxt


def _convex_test(g: Graph, budget: OracleBudget):
    if g.n <= budget.max_path_vertices:
        return lambda bits: _interval_bits(g, bits, budget) == bits
    from .convexity import is_t_convex

    return lambda bits: is_t_convex(g, VertexSet(g.n, bits))[0]


def brute_atoms(g: Graph, budget: OracleBudget = DEFAULT_BUDGET) -> set[VertexSet]:
    """Maximal prime subgraphs by recursive clique-separator splitting.

    Splits on any clique that is a minimal separator of the current piece
    (two components seeing all of it), recursing on separator-components
    until no such clique exists. Deduplicated and maximality-filtered.
    """
    _check_subsets(g, budget)
    adj = g._adj
    pieces: set[int] = set()

    def split(sub: int) -> None:
        members = list(bit_members(sub))
        for size in range(1, len(members) - 1):
            for combo in itertools.combinations(members, size):
                sep = 0
                for v in combo:
                    sep |= 1 << v
                if not _is_clique(adj, sep):
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


def check_convexity_axioms(g: Graph, budget: OracleBudget = DEFAULT_BUDGET) -> bool:
    """The convex family contains empty set and V and is intersection-closed."""
    if g.n > budget.max_axiom_vertices:
        raise BudgetExceededError(
            f"axiom check capped at n <= {budget.max_axiom_vertices}, got n = {g.n}"
        )
    full = (1 << g.n) - 1
    family = {bits for bits in range(full + 1) if _interval_bits(g, bits, budget) == bits}
    if 0 not in family or full not in family:
        return False
    members = sorted(family)
    return all(a & b in family for a, b in itertools.combinations(members, 2))


def run_cross_validation(graphs, budget: OracleBudget = DEFAULT_BUDGET) -> list[str]:
    """Compare every polynomial routine against its oracle on each graph.

    Returns human-readable mismatch descriptions; empty means all good.
    """
    from .convexity import is_t_convex, t_convex_hull
    from .convexity_number import convexity_number
    from .decomposition import decompose
    from .graph import is_connected
    from .hull_number import hull_number

    mismatches: list[str] = []
    for idx, g in enumerate(graphs):
        label = f"graph[{idx}] (n={g.n}, m={g.m})"
        full = (1 << g.n) - 1
        for bits in range(full + 1):
            s = VertexSet(g.n, bits)
            fast = is_t_convex(g, s)[0]
            slow = brute_is_convex(g, s, budget)
            if fast != slow:
                mismatches.append(f"{label}: convexity of {sorted(s)} = {fast}, oracle {slow}")
            fast_hull = t_convex_hull(g, s)
            slow_hull = brute_hull(g, s, budget)
            if fast_hull != slow_hull:
                mismatches.append(
                    f"{label}: hull of {sorted(s)} = {sorted(fast_hull)}, oracle {sorted(slow_hull)}"
                )
        if not is_connected(g) or g.n < 1:
            continue
        dec = decompose(g)
        if set(dec.atoms) != brute_atoms(g, budget):
            mismatches.append(f"{label}: atom family differs from oracle")
        if g.n >= 2:
            fast_cn = convexity_number(g).value
            slow_cn = brute_convexity_number(g, budget)
            if fast_cn != slow_cn:
                mismatches.append(f"{label}: convexity number {fast_cn}, oracle {slow_cn}")
        fast_hn = hull_number(g).value
        slow_hn = brute_hull_number(g, budget)
        if fast_hn != slow_hn:
            mismatches.append(f"{label}: hull number {fast_hn}, oracle {slow_hn}")
        if g.n <= budget.max_axiom_vertices and not check_convexity_axioms(g, budget):
            mismatches.append(f"{label}: convexity axioms violated")
    return mismatches
