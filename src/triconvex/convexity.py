"""Polynomial convexity test and convex hull for the triangle path convexity.

A set S is convex exactly when no outside vertex has two neighbours in S
(the P3 condition) and no two non-adjacent members of S have neighbours in
a common component of G - S (the mono condition). Every vertex either
repair adds lies in the hull, so the hull is the closure under both.

Cost: the P3 rounds of a hull cost O(|hull|) mask operations in all, each
mono round one crossing of O(n) row ORs, and at most one scan of G - S
shows the closure closed. A crossing from a member that misses no more
members than it has neighbours outside meets one of them in the middle;
otherwise one BFS reaches them all. The P3 rounds and check list a mask of
more than ``graph._WIDE_LEVEL`` members by bytes, as the BFS levels are
listed, so a wide round pays a table lookup per member, not a low-bit step
over the whole mask. A convexity test costs O(|S| + the forest vertices
kept) steps, plus the P3 check over the smaller of S and the kept
non-members, three mask operations per member in a tree component to
count the pieces there, one scan when a member lies on the 2-core or
those pieces are several, and 2·min(|A|, |B|) row reads to widen a
witness, A and B its two sides.

Where each mechanism lives:

- ``_kept_core``: what S keeps of the cached pendant forest
  (``graph._pendant_forest``). Member-free pendant trees are dropped, and
  a tree component's kept part is its part of the hull.
- ``_p3_violation`` and ``_seen_twice``: the P3 condition, read over the
  smaller side, within what is kept for a test.
- ``_forced_paths``: the one crossing, every shortest path from a member
  to its non-neighbours, meeting in the middle for a single target.
  ``_crossing_targets``: which non-neighbours a member search crosses to.
- ``_violating_components``: the one mono scan, of the core side, the
  tree components or both. ``_lone_piece``: a tree part minus S that is one
  piece, found by counting, with no scan.
- ``_mono_violation`` and ``_lockstep``: the witness pick, widened to its
  whole component of G - S over the smaller side.
- ``_hull_bits``: the closure's rounds. ``is_t_convex``: the test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .bitset import VertexSet, bit_members, byte_members
from .graph import (
    _WIDE_LEVEL,
    Graph,
    _check_universe,
    _component_bits,
    _components_bits,
    _fold,
    _non_edge,
    _pendant_forest,
    _reach,
)
# shortest_path stays a module attribute: benchmark/tracer.py wraps it here.
from .graph import shortest_path  # noqa: F401


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


def _seen_twice(adj: list[int], bits: int, outside: int) -> Iterator[int]:
    """The vertices of ``outside`` with two or more neighbours in ``bits``, by
    increasing id: the outside count, one row read per vertex of ``outside``
    however many members there are. ``_p3_violation`` takes the first, the
    hull's count rounds all of them.

    ``outside`` is listed under ``graph._reach``'s width rule: past
    ``_WIDE_LEVEL`` vertices by ``byte_members``, which wins past 32-40
    members at n = 600, otherwise by the low bit. Both routes go by
    increasing id, so the first one yielded is the smallest."""
    if outside & (outside - 1) and outside.bit_count() > _WIDE_LEVEL:
        for v in byte_members(outside):
            if (adj[v] & bits).bit_count() > 1:
                yield v
        return
    while outside:
        low = outside & -outside
        outside ^= low
        v = low.bit_length() - 1
        if (adj[v] & bits).bit_count() > 1:
            yield v


def _p3_violation(adj: list[int], bits: int, universe: int | None = None) -> int | None:
    """Smallest vertex of ``universe`` (default: all of G) outside ``bits``
    with two or more neighbours inside, if any.

    The smaller side is scanned: with at most as many members as outside
    vertices of ``universe``, the member fold (``graph._fold``) marks every
    vertex seeing two members; otherwise the outside count (``_seen_twice``)
    checks each outside vertex in id order and stops at the first.
    ``is_t_convex`` passes what ``_kept_core`` keeps: a dropped vertex sees
    at most one member, since two member neighbours would put it on a kept
    path, so the answer is the one over all of G, and the outside side is
    only the kept non-members.
    """
    outside = (((1 << len(adj)) - 1) if universe is None else universe) & ~bits
    if bits.bit_count() <= outside.bit_count():
        twice = _fold(adj, bits, 0, 0)[1] & outside
        return (twice & -twice).bit_length() - 1 if twice else None
    return next(_seen_twice(adj, bits, outside), None)


def _kept_core(g: Graph, bits: int) -> tuple[int, int, int]:
    """``(core, trees, member_trees)``: what deleting, again and again, a
    non-member of ``bits`` with at most one neighbour left keeps of G, read
    off the cached pendant forest, split into the part that meets the
    2-core or hangs from it and the part in tree components, and the number
    of tree components that hold a member.

    The 2-core is never deleted and neither is a member. A forest vertex
    stays exactly when a member hangs below it, on a tree hung from the
    core, or when it lies on a path between two members, in a tree
    component. So each member on a hung tree walks ``parent`` up to the
    first vertex already kept. In a tree component the kept part is the
    union of the tree paths between its members: ``top`` is the meeting
    point of the members so far, the one kept vertex closest to the root,
    and each new member climbs against it, deeper side first, until the two
    sides meet, or until the member's side reaches a kept vertex, below
    ``top``. O(|S| + the vertices kept off the core) steps, each one or two
    mask operations.
    """
    core, parent, depth, tree, _, _ = _pendant_forest(g)
    kept = core | bits
    trees = 0
    tops = {}
    for v in bit_members(bits & ~core):
        t = tree[v]
        if t < 0:
            p = parent[v]
            while not (kept >> p) & 1:
                kept |= 1 << p
                p = parent[p]
            continue
        trees |= 1 << v
        top = tops.setdefault(t, v)
        while depth[v] > depth[top]:
            v = parent[v]
            if (trees >> v) & 1:
                break
            trees |= 1 << v
        else:
            while depth[top] > depth[v]:
                top = parent[top]
                trees |= 1 << top
            while v != top:
                v, top = parent[v], parent[top]
                trees |= (1 << v) | (1 << top)
            tops[t] = top
    return kept & ~trees, trees, len(tops)


def _violating_components(
    adj: list[int], within: int, bits: int
) -> Iterator[tuple[int, int, int]]:
    """``(u, missing, D)`` for every component D of G[within] - S whose
    attached members A = N(D) & S are not a clique, by minimum vertex id of
    D: the one scan of what is kept minus S, for the hull and both tests.

    ``within`` is the core side of what ``_kept_core`` keeps, its tree part,
    or both: no edge joins the tree components to the core side, so one
    search lists the components of either. The boundaries are taken within
    it (``graph._components_bits``), so the members there are the whole
    outside, and the boundaries are folded over the smaller of them and the
    rest of ``within``, not over the dropped vertices as well. A dropped
    vertex hangs from one kept vertex by a tree that reaches no member, so D
    lies in one component of G - S, whose member boundary is also A; a
    component of G - S that holds no kept vertex has at most one attached
    member.

    ``(u, missing)`` is ``graph._non_edge`` of A: the smallest member of A
    with a non-neighbour in A, and all of its non-neighbours there.
    One search: O(|within| - |S|) mask operations for the components plus
    the smaller side's rows for every boundary, with no pass over the
    members per component.
    """
    for comp, boundary in _components_bits(adj, within & ~bits, within):
        hit = _non_edge(adj, boundary)
        if hit is not None:
            yield *hit, comp


def _lone_piece(
    adj: list[int], bits: int, trees: int, member_trees: int
) -> tuple[int, int, int, int] | None:
    """``(low, u, v, piece)`` when the kept tree part minus S is one piece,
    a component of G[trees] - S, with ``low`` its minimum vertex and (u, v)
    its two smallest attached members; None when it has none or several.

    ``trees`` and ``member_trees`` are what ``_kept_core`` keeps in the tree
    components. That part T is a forest, so with M = S & T it has
    c_T - |M| + sum of deg_T(m) over M - |E(M)| pieces, c_T being
    ``member_trees``: three mask operations per member, and no climb.
    Every leaf of T is a member, so a piece has at least two attached
    members, and no two of them are adjacent: the edge would close a cycle
    through the piece. So a piece violates, and its smallest pair is its
    two smallest members.
    """
    piece = trees & ~bits
    members = trees & bits
    count = member_trees - members.bit_count()
    inner = 0
    attached = []
    for m in bit_members(members):
        row = adj[m]
        count += (row & trees).bit_count()
        inner += (row & members).bit_count()
        if row & piece:
            attached.append(m)
    if count - inner // 2 != 1:
        return None
    return (piece & -piece).bit_length() - 1, attached[0], attached[1], piece


def _lockstep(adj: list[int], alive: int, a: int, b: int) -> tuple[bool, int]:
    """``(True, A)`` or ``(False, B)``, with A and B all that ``a`` and
    ``b`` reach through ``alive``: the side that runs dry first.

    Both sides grow level by level, one row at a time, always on the side
    that has read fewer rows. A side runs dry having read each of its rows
    once, and the other has then read at most one row more: at most
    2·min(|A|, |B|) + 1 row reads in all.
    """
    seen = [a, b]
    level = [a, b]
    grown = [0, 0]
    reads = [0, 0]
    while True:
        i = int(reads[1] < reads[0])
        f = level[i]
        if not f:
            f = grown[i] & alive & ~seen[i]
            if not f:
                return not i, seen[i]
            seen[i] |= f
            grown[i] = 0
        low = f & -f
        level[i] = f ^ low
        grown[i] |= adj[low.bit_length() - 1]
        reads[i] += 1


def _mono_violation(
    g: Graph, bits: int, core: int, trees: int, member_trees: int
) -> tuple[int, int, int] | None:
    """``(u, v, component)``: the first non-adjacent pair of the set attached
    to a common component of G - S.

    The component is the first by minimum vertex id and the pair the
    lexicographically smallest one it is attached to, so witnesses are
    reproducible. ``(core, trees, member_trees)`` is what ``_kept_core``
    keeps, and every violating component of G - S holds kept vertices: a
    component D of what is kept minus S. A lone piece of the tree part is
    found by counting (``_lone_piece``); otherwise the tree part joins the
    core side, when a member lies there, in the one scan
    (``_violating_components``), which runs only when one of them is to be
    searched. When nothing is dropped the smallest D is the answer.
    Otherwise the smallest vertex of a widened D may lie in a dropped tree,
    so each D is widened to its component of G - S, by increasing minimum,
    until neither a D nor any dropped vertex can go below the best widened
    minimum found.

    A widening works the smaller side. The dropped vertices that hang from
    a kept vertex split by hang point: side A hangs from D, side B from the
    members and the other kept components. Their seeds, the dropped
    neighbours of the kept set, come from the forest once per test: the
    roots hung from the 2-core and the dropped neighbours of the kept forest
    vertices. The rows of D, or of the kept vertices outside it, whichever
    are fewer, split them. ``_lockstep`` grows both sides and keeps the one
    that runs dry first: A, or B, whose complement among the dropped
    vertices that hang from a kept vertex is A. A tree component with no
    member hangs from no kept vertex and stays out: when G has one, one
    search from the kept set finds the rest. A widening reads at most
    2·min(|A|, |B|) + 1 rows after its seeds.
    """
    adj = g._adj
    full = (1 << len(adj)) - 1
    kept = core | trees
    dropped = full & ~kept
    hits = []
    scan = core if bits & core else 0
    if trees & ~bits:
        lone = _lone_piece(adj, bits, trees, member_trees)
        if lone is None:
            scan |= trees
        else:
            hits.append(lone)
    if scan:
        for u, missing, comp in _violating_components(adj, scan, bits):
            low = (comp & -comp).bit_length() - 1
            hits.append((low, u, (missing & -missing).bit_length() - 1, comp))
            if not dropped:
                break
    if not hits:
        return None
    hits.sort()  # by minimum vertex: the components are disjoint
    if not dropped:
        return hits[0][1:]
    two_core, _, _, _, roots, components = _pendant_forest(g)
    seeds = dropped & (roots | _reach(adj, kept & ~two_core))
    floor = (dropped & -dropped).bit_length() - 1
    size = kept.bit_count()
    hang = best = None
    best_low = len(adj)
    for low, u, v, comp in hits:
        if best_low < min(low, floor):
            break
        if 2 * comp.bit_count() <= size:
            a = dropped & _reach(adj, comp)
            b = seeds & ~a
        else:
            b = dropped & _reach(adj, kept & ~comp)
            a = seeds & ~b
        a_first, grown = _lockstep(adj, dropped, a, b)
        if not a_first:
            if hang is None:
                hang = dropped
                if components > member_trees:
                    hang &= _component_bits(adj, full, kept)
            grown = hang & ~grown
        comp |= grown
        low = (comp & -comp).bit_length() - 1
        if low < best_low:
            best, best_low = (u, v, comp), low
    return best


def _forced_paths(adj: list[int], alive: int, u: int, targets: int) -> int:
    """Inner vertices of every shortest u-t path through ``alive``, for each
    target t that a BFS from ``u`` through ``alive`` reaches.

    The hull's one crossing routine: its member search passes the core minus
    S and the non-neighbours of u in S that ``_crossing_targets`` picks, one
    of them or all, its scan one violating component and the attached
    members u misses. No target is ``u`` or adjacent to it, and none is
    alive. A shortest u-t path with its inside in G - S is induced, as a
    chord would shorten it, so it is a triangle path and all its vertices
    lie in the hull.

    One target t meets in the middle: levels grow from u and from t through
    ``alive``, the smaller newest level first, until a new level meets what
    the other side has seen. The seen sets were disjoint before, so that
    meeting set lies in the other side's newest level and holds every inner
    vertex at its distance from u; a side that runs dry first leaves u and t
    apart. Each side then sweeps back from the meeting set through its
    earlier levels, keeping the vertices next to one kept a level later.
    With t two steps away the meeting set is ``adj[u] & adj[t] & alive``,
    with no sweep.

    More targets take one forward BFS from ``u`` that stays inside ``alive``
    until every target is reached or the levels run out; ``grown`` is all a
    level reaches, so one ``grown & targets`` per level finds the targets
    first reached from it. One backward sweep then keeps, level by level
    from the deepest, the vertices next to a target first reached from their
    level or to a vertex kept one level deeper: exactly the inner vertices
    of the shortest paths. Either way O(the vertices searched + the targets)
    row ORs, and the meeting reads the rows of the smaller side at each
    step. Every level and every sweep step is one ``graph._reach``, so a
    crossing reads its wide levels by bytes.
    """
    if not targets & (targets - 1):
        ends = [[adj[u] & alive], [adj[targets.bit_length() - 1] & alive]]
        seen = [ends[0][0], ends[1][0]]
        meet = seen[0] & seen[1]
        while not meet:
            i = int(ends[0][-1].bit_count() > ends[1][-1].bit_count())
            grown = _reach(adj, ends[i][-1]) & alive & ~seen[i]
            if not grown:
                return 0
            meet = grown & seen[1 - i]
            seen[i] |= grown
            ends[i].append(grown)
        inner = meet
        for levels in ends:
            kept = meet
            for level in reversed(levels[:-1]):
                kept = level & _reach(adj, kept)
                inner |= kept
        return inner
    levels = [adj[u] & alive]
    hits = []
    seen = levels[0]
    while True:
        grown = _reach(adj, levels[-1])
        hit = grown & targets
        targets ^= hit
        hits.append(hit)
        grown &= alive & ~seen
        if not (grown and targets):
            break
        seen |= grown
        levels.append(grown)
    inner = kept = 0
    for level, hit in zip(reversed(levels), reversed(hits)):
        kept = level & _reach(adj, kept | hit)
        inner |= kept
    return inner


def _crossing_targets(adj: list[int], alive: int, near: int, missing: int) -> int:
    """The members that the hull's member search crosses to from a member u,
    given ``near``, u's neighbours in ``alive``, and ``missing``, its
    non-neighbours in S.

    When u misses no more members than it has alive neighbours, one meet
    in the middle to the first missing member with an alive neighbour, or
    none when no missing member has one: a member with no alive neighbour
    is no path's end. Otherwise all of them, by one BFS. Per
    target, a meet is cheaper where alive neighbours are many and targets
    few, as on dense graphs, and a BFS where many members are missed
    through few alive neighbours, as on sparse ones.
    """
    if missing.bit_count() > near.bit_count():
        return missing
    while missing:
        low = missing & -missing
        if adj[low.bit_length() - 1] & alive:
            return low
        missing ^= low
    return 0


def is_p3_convex(g: Graph, s: VertexSet) -> bool:
    """No vertex outside s has two neighbours in s."""
    _check_universe(g, s)
    return _p3_violation(g._adj, s.bits) is None


def is_m_convex(g: Graph, s: VertexSet) -> bool:
    """No component of G - s touches two non-adjacent members of s.

    A verdict needs no witness component, so the tree components are read
    off the climb alone: a piece of their kept part minus S always violates
    (see ``_lone_piece``), so they pass exactly when that part is S there.
    The core side is scanned only when a member lies on it.
    """
    _check_universe(g, s)
    bits = s.bits
    core, trees, _ = _kept_core(g, bits)
    if trees & ~bits:
        return False
    return not bits & core or next(_violating_components(g._adj, core, bits), None) is None


def is_t_convex(g: Graph, s: VertexSet) -> tuple[bool, ConvexityWitness | None]:
    """Triangle-path convexity test; on failure returns a witness.

    ``_kept_core`` runs first. When no member lies on the core side and the
    kept tree part is S itself, S is convex: every member tree path stays
    in S, so no outside vertex sees two members and every component of
    G - S touches one member at most. That verdict takes no fold and no
    search. Otherwise the outside-vertex condition is reported first:
    absorbing one vertex is cheaper than a path, and the hull is the same
    either way. The mono witness (``_mono_violation``) comes from one scan
    of the kept set minus S, or, when the kept tree part minus S is one
    piece, from that piece, found by counting, and the core side's scan
    when a member lies there; its component is still the whole component of
    G - s, the first by minimum vertex id. The P3 check reads only the kept
    set, ``core | trees``: a dropped vertex sees at most one member (see
    ``_p3_violation``), so the witness, the smallest outside vertex seen
    twice, is the same as over all of G. Cost: O(|S| + the forest vertices
    kept) steps, then the P3 check over the smaller of S and the kept
    non-members, three mask operations per tree member to count the
    pieces, and the scan when a member lies on the core side or the tree
    part splits into several pieces, plus 2·min(|A|, |B|) rows for each
    witness widening (see ``_mono_violation``).
    """
    _check_universe(g, s)
    bits = s.bits
    core, trees, member_trees = _kept_core(g, bits)
    if not bits & core and trees == bits:
        return True, None
    v = _p3_violation(g._adj, bits, core | trees)
    if v is not None:
        return False, ConvexityWitness(kind="p3-violation", vertex=v)
    hit = _mono_violation(g, bits, core, trees, member_trees)
    if hit is not None:
        u, v, comp = hit
        return False, ConvexityWitness(
            kind="mono-violation", pair=(u, v), component=VertexSet(g.n, comp)
        )
    return True, None


def _hull_bits(g: Graph, bits: int) -> int:
    """Closure of ``bits``: p3 rounds over the smaller side and mono rounds,
    on the core side of what ``_kept_core`` keeps of G for ``bits``.

    The dropped trees hold no member and each hangs from at most one kept
    vertex, so no path between members of S, or of any superset that avoids
    them, enters one. A tree component's kept part is the union of the tree
    paths between its members; every path of a tree is induced, so that is
    its part of the hull, added at once. The closure runs on the rest, the
    kept part that meets the 2-core, from the members there; with none of
    them it returns the tree paths with no round.

    Each round first takes ``alive``, the core minus S, and returns at once
    when it is empty. Then it works the smaller side. When the members added
    by the last round outnumber ``alive``, it counts each alive vertex's
    members (``_seen_twice``) and leaves those members in ``unfolded``;
    otherwise it folds (``graph._fold``) them and every unfolded member into
    the running fold and reads off ``twice & alive``. Either way it absorbs
    every alive vertex seen twice at once. Each member is folded at most
    once, and a count round reads fewer rows than the members it skipped, so
    the p3 work over the whole hull is O(|hull|) mask operations. A
    p3-closed set gets a mono round. It first crosses, by ``_forced_paths``
    through all of ``alive``, from the first member u with a neighbour in
    ``alive`` and a non-neighbour in S.
    ``border`` holds the members that may still have an alive neighbour;
    as ``alive`` only shrinks, a member found without one leaves it for
    good, so finding u costs O(|hull|) mask operations per closure. If no
    member qualifies, every member next to ``alive`` sees all of S and S is
    closed. When u misses no more members than it has alive neighbours, the
    crossing is one meet in the middle to the first missed member that has
    an alive neighbour; otherwise it is one BFS to every missed member
    (``_crossing_targets``). Only when no missed member has an alive
    neighbour, or the crossing absorbs nothing, does the full scan run: one
    search of ``alive``, and every component whose attached members are not
    a clique is crossed from the first of them with a non-neighbour among
    them. ``scan`` then keeps the rest of the closure on the scan, so at
    most one member search per closure comes back empty. The closure is
    unique, so the order vertices join in does not change the hull.
    """
    adj = g._adj
    core, trees, _ = _kept_core(g, bits)
    bits &= core
    once = twice = unfolded = border = 0
    new = bits
    scan = False
    while True:
        alive = core & ~bits
        if not alive:
            return bits | trees
        border |= new
        if new.bit_count() > alive.bit_count():
            unfolded |= new
            new = 0
            for v in _seen_twice(adj, bits, alive):
                new |= 1 << v
        else:
            once, twice = _fold(adj, new | unfolded, once, twice)
            unfolded = 0
            new = twice & alive
        if not new:
            if not scan:
                for u in bit_members(border):
                    row = adj[u]
                    near = row & alive
                    if not near:
                        border ^= 1 << u
                        continue
                    missing = bits & ~row & ~(1 << u)
                    if missing:
                        targets = _crossing_targets(adj, alive, near, missing)
                        if targets:
                            new = _forced_paths(adj, alive, u, targets)
                        break
                else:
                    return bits | trees
                scan = not new
            if scan:
                for u, missing, comp in _violating_components(adj, core, bits):
                    new |= _forced_paths(adj, comp, u, missing)
                if not new:
                    return bits | trees
        bits |= new


def t_convex_hull(g: Graph, s: VertexSet) -> VertexSet:
    """The minimum convex superset of s.

    The pendant trees holding no member of s are dropped: a triangle path
    between two members that entered one would have to leave it the way it
    came. In a tree component the hull is the union of the tree paths
    between the members there, taken with no round. On the part that meets
    the 2-core it is a closure (see ``_hull_bits``). Cost: O(|S| + the
    forest vertices kept) steps to find what is kept, then, only when a
    member lies on the core side, O(|hull|) mask operations for all the
    rounds that absorb outside vertices seen twice, each of which folds the
    new members or counts the members of the vertices left outside, whichever
    side is smaller, and O(n) for each mono round, each of which but the
    last absorbs a vertex. A mono round that crosses to one member meets it
    in the middle, reading the rows of the smaller side at each step; the
    member search crosses to one member whenever its member misses no more
    members than it has neighbours outside.
    """
    _check_universe(g, s)
    return VertexSet(g.n, _hull_bits(g, s.bits))


def is_t_hull_set(g: Graph, s: VertexSet) -> bool:
    """Does the hull of s cover the whole vertex set?"""
    _check_universe(g, s)
    return _hull_bits(g, s.bits) == (1 << g.n) - 1

