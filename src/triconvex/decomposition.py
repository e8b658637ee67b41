"""Clique minimal separator decomposition into maximal prime subgraphs.

The pendant forest comes first: the peel that leaves the 2-core
(``graph._pendant_forest``, cached on the graph) hangs every other vertex
from a parent, and each such forest edge is a bridge, so an atom on its
own. G being connected, its 2-core C is connected or empty, and the atoms
of G[C] are the remaining atoms of G. On C alone the route is MCS-M+
followed by the ``Atoms`` sweep of Berry, Pogorelcnik and Simonet ("An
introduction to clique minimal separator decomposition", Algorithms 3(2),
2010). MCS-M+ yields a minimal triangulation H of G[C], an elimination
order and the minimal-separator generators: for a generator x, madj(x),
the H-neighbours of x eliminated after it, is a minimal separator of H,
and every minimal separator of H arises this way. H being minimal, the
clique minimal separators of G[C] are those of them that are cliques of
G. So H itself is never stored: the search keeps madj(y) for each vertex y
only while it is still a clique of G, a live mask drops y the first time
it is not (madj only grows, so a dropped y can never carve), and the
search ends once no unnumbered vertex is live.
Sweeping the elimination order, each live generator x carves madj(x) plus
the component of x in the remainder minus madj(x) as one atom; the
remainder of C left at the end, when nonempty, is the last atom. A step
costs one component search inside the part it carves, so there is no
search over the whole graph per candidate.

One walk (``_d_order``) then puts the atoms in a D-ordering, so every
atom's overlap with its predecessors sits inside one earlier atom, and
takes those overlaps as it goes. It is Prim's algorithm over the atoms,
and an atom's weight is the number of its members already covered: the
placed atoms form a subtree of a clique tree, so that count is the
atom's largest overlap with one placed atom, and the atom whose placement
last raised it is its parent. Each vertex's incidence list is read once,
when the vertex is first covered, however many atoms share it. Only the
2-core's atoms are sorted and indexed by vertex; each forest edge is
read off the graph's rows as its first end is covered, and ranked among
the core atoms by an integer key made of its two ends, which orders them
as their member tuples would.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .bitset import VertexSet, bit_members
from .errors import AlgorithmError, ValidationError
from .graph import (
    Graph,
    _check_universe,
    _component_bits,
    _components_bits,
    _non_edge,
    _pendant_forest,
    is_connected,
)


@dataclass(frozen=True, slots=True)
class Decomposition:
    """Atoms F_1..F_t in a D-ordering with their overlap sets R_2..R_t.

    ``r_sets[i]`` is the intersection of ``atoms[i + 1]`` with the union of
    all earlier atoms; each one is a clique of G and a relative minimal
    separator. ``r_union`` is the union of all of them. ``graph`` is the
    graph that ``decompose`` split, which the per-atom functions check
    their graph against; it takes no part in equality.
    """

    atoms: tuple[VertexSet, ...]
    r_sets: tuple[VertexSet, ...]
    r_union: VertexSet
    graph: Graph | None = field(default=None, compare=False, repr=False)

    @property
    def t(self) -> int:
        return len(self.atoms)


def _has_two_full_components(adj: list[int], rest: int, sep: int) -> bool:
    """Does G[rest], with rest outside sep, have two components adjacent to
    every separator vertex?"""
    return sum(not sep & ~boundary for _, boundary in _components_bits(adj, rest)) >= 2


def _mcs_m(g: Graph, within: int) -> tuple[list[int], list[int], int]:
    """MCS-M+ on G[within]: madj rows, elimination order and the live
    generators.

    Only the vertices of ``within`` are numbered, by descending label (ties
    to the smallest id); every label layer lies inside ``within``, so a
    vertex outside it that a row reaches is never bumped, admitted or
    recorded. A vertex's label rises when the newly numbered vertex x
    reaches it through unnumbered vertices of strictly smaller label, and
    every such reach is an edge xy of the minimal triangulation H (a fill
    edge when it is not an edge of G). ``by_w[w]`` masks the unnumbered
    vertices of label w, so selection is the lowest bit of the highest
    non-empty mask. The search from x is graded over these masks: at level
    w it bumps the label-w vertices next to the region (x plus the
    unnumbered vertices it reaches through labels below w), then admits
    the label-w vertices. The bumped part of a layer, its AND with the
    reach, is taken first. Only when it is not the whole layer and the
    reach meets an admitted vertex outside the region does the region
    grow, by ORing adjacency rows, and the part is retaken after that. The
    levels end at the highest non-empty layer once x has left its own: no
    unnumbered vertex lies above it, so no mask of the labels not yet
    admitted is needed.

    H is not stored. ``madj[y]`` collects the vertices that reached y
    before y was numbered, which are y's H-neighbours eliminated after it.
    A vertex leaves ``live`` the first time a new one is not adjacent in G
    to all of its madj row so far; from then on its row is never read, so
    it is no longer extended. The search stops once no unnumbered vertex
    is live: none of them can carve, and the rows of the numbered vertices
    are already complete.

    Returns the madj rows (exact for live vertices), the order in which
    the numbered vertices are eliminated (lowest number first; vertices
    left unnumbered by the stop would all come before them) and the mask
    of live minimal-separator generators: the vertices selected with a
    label no higher than the label the previously numbered vertex had when
    it was selected, and whose madj row is a clique of G.
    """
    n = g.n
    adj = g._adj
    madj = [0] * n
    live = within
    by_w = [0] * (n + 1)
    by_w[0] = unnumbered = live
    top = 0
    prev = -1
    generators = 0
    visit_order: list[int] = []
    while live & unnumbered:
        low = by_w[top] & -by_w[top]
        by_w[top] ^= low
        unnumbered ^= low
        x = low.bit_length() - 1
        visit_order.append(x)
        if top <= prev:
            generators |= low
        prev = top
        # every unnumbered vertex lies at or below the highest non-empty
        # layer once x has left its own, so the search ends there
        while top and not by_w[top]:
            top -= 1
        # reach = N(region); pending = admitted vertices outside the region
        reach = adj[x]
        pending = 0
        bumped = 0
        # the snapshot keeps a vertex bumped into w + 1 out of the next layer
        for w, layer in enumerate(by_w[: top + 1]):
            if not layer:
                continue
            b = reach & layer
            # a layer inside N(region) is bumped whole, flood or not, and a
            # flood needs an admitted vertex that the region reaches
            if b != layer and (frontier := reach & pending):
                while frontier:
                    pending ^= frontier
                    # not _reach: a call per wave made _mcs_m about 10 % slower on dense
                    # primes, and byte-listed waves 1-7 %, so it takes one member at a time
                    while frontier:
                        v = frontier.bit_length() - 1
                        reach |= adj[v]
                        frontier ^= 1 << v
                    frontier = reach & pending
                b = reach & layer
            if b:
                by_w[w] ^= b
                by_w[w + 1] |= b
                bumped |= b
            pending |= layer
        if by_w[top + 1]:
            top += 1
        for y in bit_members(bumped & live):
            if madj[y] & ~adj[x]:
                live ^= 1 << y
            else:
                madj[y] |= low
    visit_order.reverse()
    return madj, visit_order, generators & live


def decompose(g: Graph) -> Decomposition:
    """Decompose a connected graph into its maximal prime subgraphs.

    Each edge of the pendant forest (``graph._pendant_forest``) is a bridge
    and so an atom on its own; MCS-M+ and the carving sweep run on the
    2-core alone, which is connected or empty, and whose atoms are the
    remaining ones. On a tree no vertex is numbered. ``_d_order`` takes
    the 2-core's atoms, reads the forest edges off the peel as it places
    them, orders all of them and builds the result.
    """
    if g.n < 1:
        raise ValidationError("decomposition needs at least one vertex")
    if not is_connected(g):
        raise ValidationError("decomposition requires a connected graph")
    if g.n == 1:
        return Decomposition((VertexSet(1, 1),), (), VertexSet(1, 0), g)
    adj = g._adj
    core = _pendant_forest(g)[0]
    madj, elim, carvers = _mcs_m(g, core)

    pieces = []
    alive = core
    for x in elim:
        if (carvers >> x) & 1:
            sep = madj[x]
            comp = _component_bits(adj, alive & ~sep, 1 << x)
            pieces.append(comp | sep)
            alive &= ~comp
    if alive:
        pieces.append(alive)
    return _d_order(g, pieces)


def _d_order(g: Graph, core_atoms: list[int]) -> Decomposition:
    """The decomposition of g into the edges of its pendant forest and the
    given atoms of its 2-core, in a deterministic D-ordering found through
    a join tree of the atom family.

    The atoms are the maximal cliques of the chordal graph obtained by
    completing each atom, so a maximum-weight spanning tree T of their
    intersection graph is a clique tree (Blair and Peyton, "An introduction
    to chordal graphs and clique trees", 1993). Prim's addition order, with
    weight |F_j & F_p| maximised over the placed atoms p, rooted at the
    lexicographically smallest atom, ties to the lexicographically smaller
    atom, is therefore a valid ordering. Each atom's R-set, its overlap
    with the atoms placed before it, is taken as it is placed and checked
    to be nonempty and inside its parent.

    The weight is read as a count: the number of members of F_j already
    covered. Every placed prefix P is a subtree of T, so every covered
    member of an unplaced F_j lies in each atom on T's path from F_j into
    P, and so in the atom p* where that path enters P; the count is
    |F_j & F_p*|, the largest overlap. A member covered now lies in no
    earlier atom, so p* is the atom just placed: ``parent``, the position
    of the atom whose placement last raised the count, is the join-tree
    parent. Each core vertex's incidence list is read once, when the
    vertex is first covered, and each core atom on it, but the one being
    placed, gains 1.

    The next atom comes off a lazy heap keyed (-weight, rank). The rank is
    2(a·n + b) for an atom whose two smallest members are a < b, plus 1
    on a core atom, and then the core atom's index in member-tuple order.
    Two atoms with different (a, b) compare as their member tuples do, and
    no core atom shares its (a, b) with a forest edge, one end of which
    lies off the 2-core; so the order is lexicographic, with no member
    tuple built for a forest edge.

    A forest edge {v, w} shares at most one vertex with any other atom, so
    it enters the heap once, with weight 1 and as its parent the atom
    that first covers v: when v is first covered, each edge from v to an
    uncovered vertex w is pushed, where every edge of a forest vertex is a
    forest edge and the forest edges at a core vertex go to its neighbours
    off the core.
    """
    n = g.n
    adj = g._adj
    core, _, _, _, _, components = _pendant_forest(g)
    keyed = sorted((tuple(bit_members(b)), b) for b in core_atoms)
    members = [key for key, _ in keyed]
    atoms = [b for _, b in keyed]
    rank = [(mem[0] * n + mem[1]) * 2 + 1 for mem in members]
    incident: dict[int, list[int]] = {}
    for i, mem in enumerate(members):
        for v in mem:
            incident.setdefault(v, []).append(i)
    # every vertex off the core but a tree's root hangs from its forest edge
    k = len(atoms) + n - core.bit_count() - components
    # the covered members of each core atom
    weight = [0] * len(atoms)
    # the position in the order of the atom that last raised the weight
    parent = [0] * len(atoms)
    heap: list[tuple[int, int, int]] = []
    ordered: list[VertexSet] = []
    r_sets: list[VertexSet] = []
    union = r_union = 0
    # a heap entry is (-weight, rank, core index or the parent's position);
    # the root is the first core atom or vertex 0's smallest forest edge
    candidates = [(0, rank[0], 0)] if atoms else []
    row = adj[0] & ~core if core & 1 else adj[0]
    if row:
        candidates.append((0, ((row & -row).bit_length() - 1) * 2, 0))
    pick = min(candidates)
    while True:
        _, key, i = pick
        if key & 1:
            mask = atoms[i]
            up = parent[i]
            fresh = bit_members(mask & ~union)
        else:
            a, b = divmod(key >> 1, n)
            mask = (1 << a) | (1 << b)
            up = i
            fresh = (b,) if (union >> a) & 1 else (a,) if union else (a, b)
        if ordered:
            r = mask & union
            if not r:
                raise AlgorithmError("empty overlap set in a connected decomposition")
            if r & ~ordered[up].bits:
                raise AlgorithmError("atom ordering violates the containment property")
            r_sets.append(VertexSet(n, r))
            r_union |= r
        pos = len(ordered)
        ordered.append(VertexSet(n, mask))
        if pos + 1 == k:
            break
        union |= mask
        shared: dict[int, int] = {}
        for v in fresh:
            row = adj[v] & ~union
            if (core >> v) & 1:
                row &= ~core
                for j in incident.get(v, ()):
                    shared[j] = shared.get(j, 0) + 1
            while row:
                u = row.bit_length() - 1
                row ^= 1 << u
                heapq.heappush(heap, (-1, (v * n + u if v < u else u * n + v) * 2, pos))
        if shared:
            # a core atom is on the lists of its own fresh members
            if key & 1:
                del shared[i]
            for j, w in shared.items():
                weight[j] += w
                parent[j] = pos
                heapq.heappush(heap, (-weight[j], rank[j], j))
        while heap:
            pick = heapq.heappop(heap)
            neg_w, key, i = pick
            # a forest edge is pushed once, and a core atom once per rise of
            # its count; placing it ends its rises, so its entries go stale
            if not key & 1 or -neg_w == weight[i]:
                break
        else:
            raise AlgorithmError("atom intersection graph is disconnected")
    return Decomposition(tuple(ordered), tuple(r_sets), VertexSet(n, r_union), g)


def is_prime(g: Graph) -> bool:
    """A connected graph is prime when it has no clique separator."""
    return decompose(g).t == 1


def verify_d_ordering(g: Graph, dec: Decomposition, check_atom_primality: bool = True) -> bool:
    """Check every structural invariant of a decomposition against g.

    Covers: vertex and edge coverage, the R-set recurrence, nonempty clique
    R-sets that are relative minimal separators, the D-ordering containment
    property, the atom-count bound, and (optionally, it is the expensive
    part) primality of each atom's induced subgraph.
    """
    n = g.n
    adj = g._adj
    full = (1 << n) - 1
    if not dec.atoms:
        return False
    cover = 0
    for a in dec.atoms:
        cover |= a.bits
    if cover != full:
        return False
    for u, v in g.edges():
        if not any((a.bits >> u) & 1 and (a.bits >> v) & 1 for a in dec.atoms):
            return False
    if n >= 2 and dec.t >= n:
        return False
    if len(dec.r_sets) != dec.t - 1:
        return False
    union = dec.atoms[0].bits
    r_union = 0
    for i in range(1, dec.t):
        r = dec.atoms[i].bits & union
        if r != dec.r_sets[i - 1].bits:
            return False
        if not r:
            return False
        if _non_edge(adj, r) is not None:
            return False
        if not _has_two_full_components(adj, full & ~r, r):
            return False
        if not any(r & ~dec.atoms[p].bits == 0 for p in range(i)):
            return False
        union |= dec.atoms[i].bits
        r_union |= r
    if r_union != dec.r_union.bits:
        return False
    if check_atom_primality:
        for a in dec.atoms:
            sub, _ = g.induced(a)
            if not is_prime(sub):
                return False
    return True


# ---------------------------------------------------------------------------
# Pivots.


def _atom_arguments(g: Graph, dec: Decomposition, i: int, s: VertexSet) -> int:
    """Mask of atom i, after checking that i indexes an atom of dec and
    that s and dec belong to g; the per-atom public functions call it."""
    if not 0 <= i < dec.t:
        raise ValidationError(f"atom index {i} outside 0..{dec.t - 1}")
    _check_universe(g, s)
    if dec.graph is not g and dec.graph != g:
        raise ValidationError("decomposition belongs to another graph")
    return dec.atoms[i].bits


def _outside_groups(adj: list[int], f_bits: int) -> dict[int, int]:
    """U(S) for each separator S = N(D) of a component D of G - F: the
    union of the components of G - F with that N(D). Pivots and extensions
    read only these unions, so one search of G - F, O(n + m), serves both."""
    groups: dict[int, int] = {}
    for comp, boundary in _components_bits(adj, ((1 << len(adj)) - 1) & ~f_bits):
        groups[boundary] = groups.get(boundary, 0) | comp
    return groups


def _pivot_details(g: Graph, dec: Decomposition, i: int, s: VertexSet) -> int:
    """Pivot mask of atom i: the union of N(D) over the components D of G - F_i meeting s.

    The pivots of F_i are the shared vertices through which hull flow from
    the seed vertices of s outside F_i is forced into F_i: the overlaps
    S = F_i & F_j with another atom F_j such that the component C of G - S
    holding F_j - S avoids F_i - S and meets s. These overlaps are exactly
    the neighbourhoods N(D) of the components D of G - F_i that meet s:

    - C avoids F_i - S and is closed in G - S, so C is a component D of
      G - F_i with N(D) inside S. Each vertex of the clique S has a
      neighbour in F_j - S, F_j being prime, so S = N(D).
    - For a component D of G - F_i, N(D) is a clique minimal separator with
      D a full component; the atom of G[D | N(D)] containing N(D) is an
      atom F_j of G with F_j & F_i = N(D) and F_j - F_i inside D.

    An overlap that fails to separate F_j from the rest of F_i is not a
    pivot set: hull flow towards F_i is not forced through it. So the
    groups of one search of G - F_i (``_outside_groups``) answer the
    question, with no search per overlap (Berry, Pogorelcnik and Simonet,
    Algorithms 2010).
    """
    f_bits = dec.atoms[i].bits
    if not s.bits & ~f_bits:
        return 0
    out = 0
    for boundary, union in _outside_groups(g._adj, f_bits).items():
        if union & s.bits:
            out |= boundary
    return out
