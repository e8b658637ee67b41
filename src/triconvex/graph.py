"""Simple undirected graphs over dense integer vertex ids.

Vertices are always ``0..n-1`` and adjacency is stored as one bitmask per
vertex, which keeps membership tests and set algebra cheap for every
algorithm built on top. External 1-based formats (DIMACS) are shifted to
0-based on ingest. Graphs are immutable once constructed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Iterator

from .bitset import VertexSet, bit_members
from .errors import ParseError, ValidationError

# Largest accepted vertex count. Adjacency is one Python int per vertex, so
# a count read from a file is checked before anything of that length is
# allocated.
MAX_VERTICES = 1_000_000


class Graph:
    """An immutable simple undirected graph on vertices ``0..n-1``.

    ``_leaves`` lists the vertices of degree at most 1, ascending: the
    starting points of the hull's pendant-tree peel.
    """

    __slots__ = ("n", "_adj", "_m", "_leaves")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValidationError("vertex count must be nonnegative")
        if n > MAX_VERTICES:
            raise ValidationError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"vertex id out of range in edge ({u}, {v})")
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self._set_adjacency(adj)

    def _set_adjacency(self, adj: list[int]) -> None:
        """Store the rows with the edge count and the degree-<=1 vertices."""
        degrees = [a.bit_count() for a in adj]
        self._adj = adj
        self._m = sum(degrees) // 2
        self._leaves = [v for v, d in enumerate(degrees) if d <= 1]

    @property
    def m(self) -> int:
        return self._m

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and (self._adj[u] >> v) & 1 == 1

    def neighbors(self, v: int) -> VertexSet:
        if not 0 <= v < self.n:
            raise ValidationError(f"vertex {v} outside 0..{self.n - 1}")
        return VertexSet(self.n, self._adj[v])

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as ordered pairs (u < v), ascending lexicographic."""
        for u in range(self.n):
            higher = self._adj[u] >> (u + 1)
            while higher:
                low = higher & -higher
                yield u, u + low.bit_length()
                higher ^= low

    def induced(self, s: VertexSet) -> tuple[Graph, tuple[int, ...]]:
        """Induced subgraph on ``s`` with vertices relabelled ``0..|s|-1``.

        Returns the subgraph and the tuple mapping local index to original
        id. The mapping is ascending, so local id order matches global id
        order and deterministic scans survive the translation.
        """
        vertices = tuple(s)
        index = {v: i for i, v in enumerate(vertices)}
        sub = Graph.__new__(Graph)
        adj = []
        for v in vertices:
            row = 0
            rest = self._adj[v] & s.bits
            for w in bit_members(rest):
                row |= 1 << index[w]
            adj.append(row)
        sub.n = len(vertices)
        sub._set_adjacency(adj)
        return sub, vertices

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, tuple(self._adj)))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True, slots=True)
class Path:
    """An ordered sequence of distinct vertices, consecutive ones adjacent."""

    vertices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.vertices)

    def __getitem__(self, i: int) -> int:
        return self.vertices[i]


# ---------------------------------------------------------------------------
# Internal bitmask traversal helpers, shared by the sibling modules.


def _component_bits(adj: list[int], alive: int, seed: int) -> int:
    """Connected component of ``seed`` in the subgraph induced on ``alive``."""
    comp = 1 << seed
    frontier = comp
    while frontier:
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            f ^= low
            nxt |= adj[low.bit_length() - 1]
        nxt &= alive & ~comp
        comp |= nxt
        frontier = nxt
    return comp


def _is_clique(adj: list[int], bits: int) -> bool:
    for v in bit_members(bits):
        if bits & ~adj[v] & ~(1 << v):
            return False
    return True


def _components_bits(adj: list[int], alive: int) -> list[tuple[int, int]]:
    """Components D of the subgraph induced on ``alive``, by min vertex id,
    each paired with N(D) - ``alive``, its neighbours outside ``alive``.

    With S the vertices outside ``alive``, a D whose pair is S is a full
    component of G - S. Each boundary is folded over the smaller side: when
    S is the smaller one, only members adjacent to S can contribute, so the
    rows of S are folded into ``touch`` first and each component is folded
    over its members in ``touch`` (O(|S| + |N(S)|) mask operations);
    otherwise each component is folded over all its members (O(|alive|)).
    """
    if not alive:
        return []
    outside = ((1 << len(adj)) - 1) & ~alive
    touch = alive
    if outside.bit_count() <= alive.bit_count():
        touch = 0
        for v in bit_members(outside):
            touch |= adj[v]
    out = []
    rest = alive
    while rest:
        seed = (rest & -rest).bit_length() - 1
        comp = _component_bits(adj, rest, seed)
        rest &= ~comp
        reach = 0
        for u in bit_members(comp & touch):
            reach |= adj[u]
        out.append((comp, reach & ~alive))
    return out


def _check_universe(g: Graph, *sets: VertexSet | None) -> None:
    """Reject any of ``sets`` (None is skipped) not drawn from ``0..g.n-1``."""
    if any(s is not None and s.n != g.n for s in sets):
        raise ValidationError("vertex set has wrong universe size")


def connected_components(g: Graph, removed: VertexSet | None = None) -> list[VertexSet]:
    """Components of ``G - removed``, ordered by their minimum vertex id."""
    _check_universe(g, removed)
    mask = (1 << g.n) - 1
    if removed is not None:
        mask &= ~removed.bits
    return [VertexSet(g.n, c) for c, _ in _components_bits(g._adj, mask)]


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    return _component_bits(g._adj, (1 << g.n) - 1, 0) == (1 << g.n) - 1


def shortest_path(g: Graph, u: int, v: int, within: VertexSet | None = None) -> Path | None:
    """A minimum-length u-v path inside the subgraph induced on ``within``.

    Ties are broken by always stepping to the smallest-id neighbour that
    still lies on a shortest path, so the result is deterministic. Returns
    None when u and v are disconnected inside ``within``.
    """
    _check_universe(g, within)
    mask = (1 << g.n) - 1 if within is None else within.bits
    if not (0 <= u < g.n and 0 <= v < g.n and (mask >> u) & 1 and (mask >> v) & 1):
        raise ValidationError("path endpoints must lie inside the search set")
    if u == v:
        return Path((u,))
    adj = g._adj
    # BFS from v recording distance levels; walk greedily from u downhill.
    levels = [1 << v]
    seen = 1 << v
    while True:
        frontier = levels[-1]
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            f ^= low
            nxt |= adj[low.bit_length() - 1]
        nxt &= mask & ~seen
        if not nxt:
            return None
        seen |= nxt
        levels.append(nxt)
        if (nxt >> u) & 1:
            break
    path = [u]
    cur = u
    for depth in range(len(levels) - 2, -1, -1):
        step = adj[cur] & levels[depth]
        cur = (step & -step).bit_length() - 1
        path.append(cur)
    return Path(tuple(path))


# ---------------------------------------------------------------------------
# Parsing and serialization.


def parse_edge_list(text: str) -> Graph:
    """Parse the whitespace edge-list format.

    One ``u v`` pair per line, 0-based ids, ``#`` comments. A line holding a
    single integer declares an (isolated) vertex. The vertex count is the
    largest id mentioned plus one.
    """
    edges = []
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            ids = [int(p) for p in parts]
        except ValueError:
            raise ParseError(f"expected integers, got {line!r}", line=lineno) from None
        if any(i < 0 for i in ids):
            raise ValidationError(f"line {lineno}: vertex id out of range: {min(ids)}")
        if len(ids) == 1:
            max_id = max(max_id, ids[0])
        elif len(ids) == 2:
            u, v = ids
            if u == v:
                raise ValidationError(f"line {lineno}: self-loop at vertex {u}")
            edges.append((u, v))
            max_id = max(max_id, u, v)
        else:
            raise ParseError(f"expected 1 or 2 integers, got {len(ids)}", line=lineno)
    return Graph(max_id + 1, edges)


def parse_dimacs(text: str) -> Graph:
    """Parse DIMACS format: ``p edge n m`` header, 1-based ``e u v`` lines."""
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ParseError("duplicate problem line", line=lineno)
            if len(parts) != 4 or parts[1] not in ("edge", "col"):
                raise ParseError(f"malformed problem line {line!r}", line=lineno)
            try:
                n = int(parts[2])
            except ValueError:
                raise ParseError(f"malformed problem line {line!r}", line=lineno) from None
        elif parts[0] == "e":
            if n is None:
                raise ParseError("edge before problem line", line=lineno)
            if len(parts) != 3:
                raise ParseError(f"malformed edge line {line!r}", line=lineno)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(f"malformed edge line {line!r}", line=lineno) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValidationError(f"line {lineno}: vertex id out of range 1..{n}")
            if u == v:
                raise ValidationError(f"line {lineno}: self-loop at vertex {u}")
            edges.append((u - 1, v - 1))
        else:
            raise ParseError(f"unknown line type {parts[0]!r}", line=lineno)
    if n is None:
        raise ParseError("missing problem line")
    return Graph(n, edges)


FORMATS = ("edge-list", "dimacs")


def parse_graph(text: str, fmt: str = "edge-list") -> Graph:
    if fmt == "edge-list":
        return parse_edge_list(text)
    if fmt == "dimacs":
        return parse_dimacs(text)
    raise ValidationError(f"unknown graph format {fmt!r}")


def to_edge_list(g: Graph) -> str:
    """Serialize to the edge-list format; round-trips through parse_edge_list."""
    lines = [f"{u} {v}" for u, v in g.edges()]
    covered = 0
    for u, v in g.edges():
        covered |= (1 << u) | (1 << v)
    for v in range(g.n):
        if not (covered >> v) & 1:
            lines.append(str(v))
    return "\n".join(lines) + ("\n" if lines else "")


def to_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def sniff_format(path: str) -> str:
    ext = os.path.splitext(path)[1].lower()
    return "dimacs" if ext in (".col", ".dimacs", ".clq") else "edge-list"


def load_graph(path: str, fmt: str | None = None) -> Graph:
    """Read a graph file, guessing the format from the extension."""
    if fmt is None:
        fmt = sniff_format(path)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
    return parse_graph(text, fmt)
