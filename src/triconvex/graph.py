"""Simple undirected graphs over dense integer vertex ids.

Vertices are always ``0..n-1`` and adjacency is stored as one bitmask per
vertex, which keeps membership tests and set algebra cheap for every
algorithm built on top. External 1-based formats (DIMACS) are shifted to
0-based on ingest. Graphs are immutable once constructed.
"""

from __future__ import annotations

import os
import re
from array import array
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Iterator

from .bitset import VertexSet, bit_members, byte_members
from .errors import ParseError, ValidationError

# Largest accepted vertex count, checked before any row is allocated. Each
# row is one Python int as long as its highest neighbour id, so even a path
# holds about n^2/16 bytes of rows: 160 MB at this n, some 60 GB at
# n = 1,000,000.
MAX_VERTICES = 50_000

# The one width rule of the member walks: a mask with more members than
# this is listed by bytes (``byte_members``), a narrower one by the low bit.
# ``_reach`` counts what is left after its first two members, ``_fold`` and
# ``convexity._seen_twice`` the whole mask once it has two. Measured with
# CPython 3.11 on x86, the byte route wins past 16-24 members at n <= 256,
# 32-40 at n = 600 and 50-60 at n = 2,500-10,000.
_WIDE_LEVEL = 32


class Graph:
    """An immutable simple undirected graph on vertices ``0..n-1``.

    ``_forest`` caches the graph's pendant forest, ``(core, parent, depth,
    tree, roots, components)`` from :func:`_pendant_forest`, filled on first
    use: the hull and the convexity test keep only the part of it that a
    vertex set needs, and ``decompose`` reads each forest edge as an atom
    and runs MCS-M+ on the 2-core alone.
    """

    __slots__ = ("n", "_adj", "_m", "_forest")

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
        """Store the rows with the edge count; the forest is not built yet."""
        self._adj = adj
        self._m = sum(a.bit_count() for a in adj) // 2
        self._forest = None

    @classmethod
    def _from_rows(cls, adj: list[int]) -> Graph:
        """The graph on ``0..len(adj)-1`` with these symmetric, loop-free
        rows, already checked by the caller."""
        g = cls.__new__(cls)
        g.n = len(adj)
        g._set_adjacency(adj)
        return g

    @property
    def m(self) -> int:
        return self._m

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and (self._adj[u] >> v) & 1 == 1

    def neighbors(self, v: int) -> VertexSet:
        if not 0 <= v < self.n:
            if not self.n:
                raise ValidationError(f"vertex {v}: the graph has no vertices")
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
        adj = []
        for v in vertices:
            row = 0
            rest = self._adj[v] & s.bits
            for w in bit_members(rest):
                row |= 1 << index[w]
            adj.append(row)
        return Graph._from_rows(adj), vertices

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


def _reach(adj: list[int], bits: int) -> int:
    """Every neighbour of a member of ``bits``: the OR of the members' rows,
    N(X) for the set X of them, and 0 for an empty mask. Each BFS level of
    the component searches, ``shortest_path`` and the hull's crossings, and
    each boundary fold, is one call.

    The first two members come off the mask by the low bit (``f & -f``,
    ``f ^= low``), a few operations on n-bit ints each, so a one- or
    two-member mask, as a level on a path or a cycle, costs that and no
    width test. A wider mask counts the rest once: past ``_WIDE_LEVEL``
    members ``byte_members`` lists them in one pass over the mask's bytes
    and a table lookup per nonzero byte, about three times cheaper per
    member on a 600-vertex level; otherwise the low-bit step goes on. The
    OR does not depend on the order, so both routes give the same mask.
    ``_fold`` and ``convexity._seen_twice`` list their masks under the same
    rule, with the crossover measured at ``_WIDE_LEVEL``.
    """
    if not bits:
        return 0
    low = bits & -bits
    bits ^= low
    out = adj[low.bit_length() - 1]
    if bits:
        low = bits & -bits
        bits ^= low
        out |= adj[low.bit_length() - 1]
        if bits.bit_count() > _WIDE_LEVEL:
            for v in byte_members(bits):
                out |= adj[v]
        else:
            while bits:
                low = bits & -bits
                bits ^= low
                out |= adj[low.bit_length() - 1]
    return out


def _component_bits(adj: list[int], alive: int, seeds: int) -> int:
    """``seeds`` plus every vertex they reach by paths through ``alive``; for
    seeds inside ``alive``, the union of their components of G[alive].
    Each BFS level is one ``_reach`` of the last."""
    comp = frontier = seeds
    while frontier:
        frontier = _reach(adj, frontier) & alive & ~comp
        comp |= frontier
    return comp


def _pendant_forest(g: Graph) -> tuple[int, list[int], list[int], list[int], int, int]:
    """``(core, parent, depth, tree, roots, components)``: the 2-core of G
    and, for every other vertex v, its forest links, built once per graph
    and cached on it.

    One peel deletes, while it can, a vertex with at most one neighbour
    left; ``core`` is what is left. ``parent[v]`` is v's one neighbour left
    when v is deleted, or -1 when it has none (the last vertex of a tree
    component). Every other neighbour of v was deleted before it, with v as
    its parent, so the deleted vertices form a forest: trees hung from one
    core vertex each, and whole tree components rooted at their -1 vertex.
    ``depth[v]`` is v's distance to its tree component's root, or to the
    core vertex its tree hangs from, and ``tree[v]`` is that root, or -1 on
    a hung tree; a core vertex has depth 0 and tree -1. ``roots`` holds the
    vertices hung straight from the core, the only forest vertices with a
    core neighbour, and ``components`` counts the tree components. A parent
    is deleted after its children, so one pass over the peel order in
    reverse fills all of them from the parents, with one mask operation per
    hung root. Each vertex is deleted at most once, with one degree update,
    so O(n) mask operations after the n row popcounts.
    """
    forest = g._forest
    if forest is None:
        adj = g._adj
        degree = [a.bit_count() for a in adj]
        parent = [-1] * g.n
        core = (1 << g.n) - 1
        order = []
        # a vertex is pushed once: at degree <= 1, or when its degree drops to 1
        stack = [v for v, d in enumerate(degree) if d <= 1]
        while stack:
            v = stack.pop()
            order.append(v)
            core ^= 1 << v
            rest = adj[v] & core
            if rest:
                w = rest.bit_length() - 1
                parent[v] = w
                degree[w] -= 1
                if degree[w] == 1:
                    stack.append(w)
        depth = [0] * g.n
        tree = [-1] * g.n
        roots = components = 0
        for v in reversed(order):
            p = parent[v]
            if p < 0:
                tree[v] = v
                components += 1
            else:
                t = tree[v] = tree[p]
                d = depth[v] = depth[p] + 1
                if d == 1 and t < 0:
                    roots |= 1 << v
        forest = g._forest = (core, parent, depth, tree, roots, components)
    return forest


def _non_edge(adj: list[int], bits: int) -> tuple[int, int] | None:
    """``(u, missing)`` for the smallest member u of ``bits`` with a
    non-neighbour above it in ``bits``, ``missing`` all of those; None when
    ``bits`` is a clique. A non-adjacent pair shows at its lower member, so
    only higher non-neighbours are looked for."""
    scan = bits
    while scan:
        low = scan & -scan
        scan ^= low
        missing = bits & ~adj[low.bit_length() - 1] & ~((low << 1) - 1)
        if missing:
            return low.bit_length() - 1, missing
    return None


def _fold(adj: list[int], bits: int, once: int, twice: int) -> tuple[int, int]:
    """``(once, twice)`` with the rows of the members of ``bits`` folded in:
    the vertices seeing at least one, and at least two, members folded so far.

    The P3 half of the convexity test: folded from ``(0, 0)`` over all of S,
    ``twice & ~S`` holds the outside vertices with two neighbours in S. It
    costs two mask operations per member, however many vertices lie outside,
    and a set that grows (the hull's rounds) folds each new member once by
    passing the masks back in.

    Members come off the mask under ``_reach``'s width rule: past
    ``_WIDE_LEVEL`` members ``byte_members`` lists them in one pass, and a
    narrower mask goes by the low bit; the byte route wins past 32-40
    members at n = 600. Most calls fold one or two members, so
    ``bits & (bits - 1)`` lets them skip the popcount. The fold does not
    depend on the order, so both routes give the same masks.
    """
    if bits & (bits - 1) and bits.bit_count() > _WIDE_LEVEL:
        for v in byte_members(bits):
            row = adj[v]
            twice |= once & row
            once |= row
        return once, twice
    while bits:
        low = bits & -bits
        bits ^= low
        row = adj[low.bit_length() - 1]
        twice |= once & row
        once |= row
    return once, twice


def _components_bits(
    adj: list[int], alive: int, within: int | None = None
) -> list[tuple[int, int]]:
    """Components D of the subgraph induced on ``alive``, by min vertex id,
    each paired with N(D) & ``within`` - ``alive``, its neighbours outside
    ``alive`` among ``within`` (default: all of G).

    With S = ``within`` - ``alive``, a D whose pair is S is a full component
    of G[within] - S. Each boundary is folded over the smaller side: when S
    is the smaller one, only members adjacent to S can contribute, so the
    rows of S are folded into ``touch`` first and each component is folded
    over its members in ``touch`` (O(|S| + |N(S)|) mask operations);
    otherwise each component is folded over all its members (O(|alive|)).
    Each component is one ``_component_bits`` search, and each fold one
    ``_reach``.
    """
    if not alive:
        return []
    outside = (((1 << len(adj)) - 1) if within is None else within) & ~alive
    touch = alive
    if outside.bit_count() <= alive.bit_count():
        touch = _reach(adj, outside)
    out = []
    rest = alive
    while rest:
        comp = _component_bits(adj, rest, rest & -rest)
        rest &= ~comp
        out.append((comp, _reach(adj, comp & touch) & outside))
    return out


def _check_universe(g: Graph, *sets: VertexSet | None) -> None:
    """Reject any of ``sets`` (None is skipped) not drawn from ``0..g.n-1``."""
    if any(s is not None and s.n != g.n for s in sets):
        raise ValidationError("vertex set has wrong universe size")


def is_connected(g: Graph) -> bool:
    """Read off the cached peel (``_pendant_forest``): a forest is connected
    when it is one tree component, and a graph with a 2-core when it has no
    tree component and one search of the core covers the core, as every hung
    tree hangs from a core vertex. On a tree that is no search at all."""
    if g.n == 0:
        return True
    core, _, _, _, _, components = _pendant_forest(g)
    if not core:
        return components == 1
    return not components and _component_bits(g._adj, core, core & -core) == core


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
        nxt = _reach(adj, levels[-1]) & mask & ~seen
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


# The plain texts that the parsers read in one pass: ASCII decimal ids of at
# most nine digits, fields split by one space, every line ended by "\n". An
# edge list is ``u v`` lines; a DIMACS text is comment lines, one ``p edge n
# m`` line and ``e u v`` lines. A comment holds no character that
# ``str.splitlines`` ends a line at, so the text has the lines that the line
# loop would read. A longer number goes to the line loop, whose ``int`` may
# refuse it (past 4300 digits) and which then reports it at its line.
_ID = "[0-9]{1,9}"


def _line_run(line: str) -> tuple[re.Pattern, re.Pattern]:
    """Patterns for a run of lines that each match ``line``, a regex ending
    in a newline: one matches the run's first line, the other is searched
    for at the first newline not followed by such a line (see
    ``_run_end``). Neither keeps state per line, whereas a fullmatch of
    ``(?:line)*`` keeps some 190 bytes a line on the regex engine's stack
    (and ``*+``, which keeps none, needs Python 3.11)."""
    return re.compile(line), re.compile(rf"\n(?!{line})")


_EDGE_LINES = _line_run(rf"{_ID} {_ID}\n")
_COMMENT_LINES = _line_run(r"c[^\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]*\n")
_E_LINES = _line_run(rf"e {_ID} {_ID}\n")
_PROBLEM_LINE = re.compile(rf"p edge ({_ID}) {_ID}\n")
# Characters of a plain text split into fields at once (see ``_plain_ids``).
_BLOCK = 1 << 16
# An id as the formats spell it (see ``_check_decimal``).
_DECIMAL = re.compile(r"-?[0-9]+")


def _check_decimal(raw: str, fields: list[str], first: int = 0) -> None:
    """Raise ValueError unless each of ``fields`` from index ``first`` on,
    read from the line ``raw``, is an ASCII decimal integer. ``int`` also
    reads a "+" sign, "_" between digits and non-ASCII digits, so only a
    line that is not ASCII or holds a "+" or "_" is matched: on any other
    line, a field that ``int`` reads is decimal."""
    if (not raw.isascii() or "_" in raw or "+" in raw) and not all(
        map(_DECIMAL.fullmatch, fields[first:])
    ):
        raise ValueError(fields)


def _run_end(text: str, pos: int, run: tuple[re.Pattern, re.Pattern]) -> int:
    """Where the run of lines of ``text`` from ``pos`` on that ``run`` (see
    ``_line_run``) matches ends: at the start of the first line that it
    does not match, or at the end of the text."""
    first, not_next = run
    return not_next.search(text, pos).end() if first.match(text, pos) else pos


def _plain_ids(text: str, start: int, keyword: bool) -> list[list[int] | array]:
    """The ids of the plain lines of ``text`` from ``start`` on, in runs of
    consecutive ids; with ``keyword``, each line's first field is a keyword
    and is skipped. A text of up to ``_BLOCK`` characters is one list. A
    longer one is split a block of whole lines at a time and each run is
    kept as 4-byte ints, so that at most one block's fields and int objects
    are alive at once, not a str and an int for every id of the text."""
    runs: list[list[int] | array] = []
    end = len(text)
    while start < end:
        # a plain line is at most 22 characters, so a block ends at a newline
        stop = text.rfind("\n", start, start + _BLOCK) + 1
        fields = text[start:stop].split()
        if keyword:
            del fields[::3]
        ids = list(map(int, fields))
        runs.append(ids if not runs and stop == end else array("i", ids))
        start = stop
    return runs


def _plain_rows(runs: list[list[int] | array], first: int, n: int) -> list[int] | None:
    """The rows of the graph on ``n`` vertices whose edges are the
    consecutive pairs of ids in ``runs``, ids counted from ``first`` and
    already checked to lie in ``first..first + n - 1``; None when an edge is
    a self-loop, for the line loop to report at its line. Every id is known
    before any row exists, so each row is set in place."""
    adj = [0] * (first + n)
    for ids in runs:
        pairs = iter(ids)
        for u, v in zip(pairs, pairs):
            if u == v:
                return None
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return [row >> first for row in adj[first:]] if first else adj


def _plain_edge_list(text: str) -> Graph | None:
    """The graph of ``text`` when it is a plain edge list with every id under
    ``MAX_VERTICES`` and no self-loop, else None. Its ids go when it returns,
    before any line loop runs."""
    if _run_end(text, 0, _EDGE_LINES) < len(text):
        return None
    runs = _plain_ids(text, 0, False)
    n = max(map(max, runs), default=-1) + 1
    adj = _plain_rows(runs, 0, n) if n <= MAX_VERTICES else None
    return None if adj is None else Graph._from_rows(adj)


def _plain_dimacs(text: str) -> Graph | None:
    """The graph of ``text`` when it is a plain DIMACS text with n at most
    ``MAX_VERTICES``, every id in ``1..n`` and no self-loop, else None."""
    header = _PROBLEM_LINE.match(text, _run_end(text, 0, _COMMENT_LINES))
    if not header or _run_end(text, header.end(), _E_LINES) < len(text):
        return None
    n = int(header[1])
    if n > MAX_VERTICES:
        return None
    runs = _plain_ids(text, header.end(), True)
    in_range = min(map(min, runs), default=1) >= 1 and max(map(max, runs), default=n) <= n
    adj = _plain_rows(runs, 1, n) if in_range else None
    return None if adj is None else Graph._from_rows(adj)


def parse_edge_list(text: str | Iterable[str]) -> Graph:
    """Parse the whitespace edge-list format from a text or its lines.

    One ``u v`` pair per line, ASCII decimal 0-based ids, ``#`` comments. A
    line holding a single integer declares an (isolated) vertex. The vertex
    count is the largest id mentioned plus one; an id past the cap fails at
    its line.

    Two routes give the same graph or the same error. A text in plain form
    (``u v`` lines of ids up to nine digits, single spaces, each line ended
    by a newline) is read in one pass: one regex match and one search check
    it (``_run_end``), ``split`` and ``map(int)`` read its ids a block of
    lines at a time (``_plain_ids``), and ``max`` checks them against
    ``MAX_VERTICES`` before the rows are set. Every other text, and every
    iterable of lines (``load_graph`` among them), goes through the line
    loop, as does a plain text with an id past the cap or a self-loop, so
    that each error is raised at its line.

    The line loop sets each line's adjacency bits as it is read, in a row
    list that grows as ids appear, so repeated edges take no memory. Row v
    holds neighbour w as bit ``w - low[v]``, with ``low[v]`` the smallest of
    v and its neighbours read so far: a smaller neighbour shifts the row,
    and every row is shifted into place at the end. So a row spans only its
    own ids, and a long path streamed up to the line that crosses the cap
    holds O(n) bits, not the n^2/16 bytes its placed rows take; the plain
    route sets placed rows only once every id is known to be under the cap.
    """
    if isinstance(text, str):
        g = _plain_edge_list(text)
        if g is not None:
            return g
        text = text.splitlines()
    rows: list[int] = []
    low: list[int] = []
    for lineno, raw in enumerate(text, 1):
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        parts = raw.split()
        if not parts:
            continue
        # u and v: the smallest and largest id; an edge line takes no sort
        try:
            _check_decimal(raw, parts)
            if len(parts) == 2:
                u, v = int(parts[0]), int(parts[1])
                if u > v:
                    u, v = v, u
            else:
                ids = sorted(map(int, parts))
                u, v = ids[0], ids[-1]
        except ValueError:
            raise ParseError(f"expected integers, got {raw.strip()!r}", line=lineno) from None
        if u < 0 or v >= MAX_VERTICES:
            raise ValidationError(f"line {lineno}: vertex id out of range 0..{MAX_VERTICES - 1}")
        if len(parts) > 2:
            raise ParseError(f"expected 1 or 2 integers, got {len(parts)}", line=lineno)
        while v >= len(rows):
            low.append(len(rows))
            rows.append(0)
        if len(parts) == 2:
            if u == v:
                raise ValidationError(f"line {lineno}: self-loop at vertex {u}")
            rows[u] |= 1 << (v - low[u])
            base = low[v]
            if u < base:
                rows[v] = (rows[v] << (base - u)) | 1
                low[v] = u
            else:
                rows[v] |= 1 << (u - base)
    return Graph._from_rows([row << base for row, base in zip(rows, low)])


def parse_dimacs(text: str | Iterable[str]) -> Graph:
    """Parse DIMACS format, from a text or its lines: a ``p edge n m`` or
    ``p col n m`` header, checked whole at its line, n against 0 and
    ``MAX_VERTICES``; 1-based ``e u v`` lines with ASCII decimal ids; and
    comment lines, whose first field starts with ``c``.

    As in :func:`parse_edge_list`, a text in plain form (comments, then one
    ``p edge`` line, then ``e u v`` lines, single spaces, each line ended by
    a newline) is read in one pass, its ids read a block of lines at a time
    and checked against ``1..n`` by ``min`` and ``max``. Every other text,
    every iterable of lines, and a plain text with an id out of range, a
    self-loop or n past the cap goes through the line loop, which raises
    each error at its line. The header bounds every row before the first
    edge line, so the line loop sets each line's adjacency bits as it is
    read.
    """
    if isinstance(text, str):
        g = _plain_dimacs(text)
        if g is not None:
            return g
        text = text.splitlines()
    n = None
    for lineno, raw in enumerate(text, 1):
        parts = raw.split()
        if not parts:
            continue
        kind = parts[0]
        if kind == "e":
            if n is None:
                raise ParseError("edge before problem line", line=lineno)
            if len(parts) != 3:
                raise ParseError(f"malformed edge line {raw.strip()!r}", line=lineno)
            try:
                _check_decimal(raw, parts, 1)
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(f"malformed edge line {raw.strip()!r}", line=lineno) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValidationError(f"line {lineno}: vertex id out of range 1..{n}")
            if u == v:
                raise ValidationError(f"line {lineno}: self-loop at vertex {u}")
            adj[u - 1] |= 1 << (v - 1)
            adj[v - 1] |= 1 << (u - 1)
        elif kind == "p":
            if n is not None:
                raise ParseError("duplicate problem line", line=lineno)
            line = raw.strip()
            if len(parts) != 4 or parts[1] not in ("edge", "col"):
                raise ParseError(f"malformed problem line {line!r}", line=lineno)
            try:
                _check_decimal(raw, parts, 2)
                n, _ = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"malformed problem line {line!r}", line=lineno) from None
            if n < 0:
                raise ValidationError(f"line {lineno}: vertex count must be nonnegative")
            if n > MAX_VERTICES:
                raise ValidationError(
                    f"line {lineno}: vertex count {n} exceeds the limit of {MAX_VERTICES}"
                )
            adj = [0] * n
        elif not kind.startswith("c"):
            raise ParseError(f"unknown line type {kind!r}", line=lineno)
    if n is None:
        raise ParseError("missing problem line")
    return Graph._from_rows(adj)


PARSERS = {"edge-list": parse_edge_list, "dimacs": parse_dimacs}
FORMATS = tuple(PARSERS)


def parse_graph(text: str | Iterable[str], fmt: str = "edge-list") -> Graph:
    """Parse a text, or its lines, with the parser ``PARSERS`` names for fmt."""
    if fmt not in PARSERS:
        raise ValidationError(f"unknown graph format {fmt!r}")
    return PARSERS[fmt](text)


def edge_list_lines(g: Graph) -> Iterator[str]:
    """The lines of the edge-list format, one at a time: each edge, then
    each isolated vertex."""
    yield from (f"{u} {v}" for u, v in g.edges())
    yield from (str(v) for v, row in enumerate(g._adj) if not row)


def to_edge_list(g: Graph) -> str:
    """Serialize to the edge-list format; round-trips through parse_edge_list."""
    return "".join(f"{line}\n" for line in edge_list_lines(g))


def to_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def sniff_format(path: str) -> str:
    ext = os.path.splitext(path)[1].lower()
    return "dimacs" if ext in (".col", ".dimacs", ".clq") else "edge-list"


def load_graph(path: str, fmt: str | None = None) -> Graph:
    """Read a graph file, guessing the format from the extension.

    The parser gets the lines, split as ``str.splitlines`` splits the text,
    while they are read and decoded one at a time (no UTF-8 character holds a
    newline byte), so an oversize file is refused at the line that crosses
    the cap.
    """
    if fmt is None:
        fmt = sniff_format(path)

    def lines(fh: BinaryIO) -> Iterator[str]:
        for raw in fh:
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                at = fh.tell() - len(raw) + exc.start
                raise ParseError(f"{path}: not UTF-8 ({exc.reason} at byte {at})") from None
            yield from text.splitlines()

    with open(path, "rb") as fh:
        return parse_graph(lines(fh), fmt)
