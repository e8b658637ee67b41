"""Clique minimal separator decomposition into maximal prime subgraphs.

The route is MCS-M+ followed by the ``Atoms`` sweep of Berry, Pogorelcnik
and Simonet ("An introduction to clique minimal separator decomposition",
Algorithms 3(2), 2010). MCS-M+ yields a minimal triangulation H of G, an
elimination order and the minimal-separator generators: for a generator x,
madj(x), the H-neighbours of x eliminated after it, is a minimal separator
of H, and every minimal separator of H arises this way. H being minimal,
the clique minimal separators of G are those of them that are cliques of
G. So H itself is never stored: the search keeps madj(y) for each vertex y
only while it is still a clique of G, a live mask drops y the first time
it is not (madj only grows, so a dropped y can never carve), and the
search ends once no unnumbered vertex is live.
Sweeping the elimination order, each live generator x carves madj(x) plus
the component of x in the remainder minus madj(x) as one atom; the
remainder left at the end is the last atom. A step costs one component
search inside the part it carves, so there is no search over the whole
graph per candidate.

The atoms are then put in a D-ordering (see ``_d_order``), so every
atom's overlap with its predecessors sits inside one earlier atom.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .bitset import VertexSet, bit_members
from .errors import AlgorithmError, ValidationError
from .graph import (
    Graph,
    _check_universe,
    _component_bits,
    _components_bits,
    _is_clique,
    is_connected,
)


@dataclass(frozen=True, slots=True)
class Decomposition:
    """Atoms F_1..F_t in a D-ordering with their overlap sets R_2..R_t.

    ``r_sets[i]`` is the intersection of ``atoms[i + 1]`` with the union of
    all earlier atoms; each one is a clique of G and a relative minimal
    separator. ``r_union`` is the union of all of them.
    """

    atoms: tuple[VertexSet, ...]
    r_sets: tuple[VertexSet, ...]
    r_union: VertexSet

    @property
    def t(self) -> int:
        return len(self.atoms)


def _has_two_full_components(adj: list[int], rest: int, sep: int) -> bool:
    """Does G[rest], with rest outside sep, have two components adjacent to
    every separator vertex?"""
    return sum(not sep & ~boundary for _, boundary in _components_bits(adj, rest)) >= 2


def _mcs_m(g: Graph) -> tuple[list[int], list[int], int]:
    """MCS-M+: madj rows, elimination order and the live generators.

    Vertices are numbered n..1 by descending label (ties to the smallest
    id); a vertex's label rises when the newly numbered vertex x reaches it
    through unnumbered vertices of strictly smaller label, and every such
    reach is an edge xy of the minimal triangulation H (a fill edge when it
    is not an edge of G). ``by_w[w]`` masks the unnumbered vertices of
    label w, so selection is the lowest bit of the highest non-empty mask.
    The search from x is graded over these masks: at level w it bumps the
    label-w vertices next to the region (x plus the unnumbered vertices it
    reaches through labels below w), then admits the label-w vertices and
    grows the region by ORing adjacency rows. Growth stops once every
    vertex of a higher label already touches the region, which always
    holds after the highest label present.

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
    live = (1 << n) - 1
    by_w = [0] * (n + 1)
    by_w[0] = unnumbered = live
    top = 0
    prev = -1
    generators = 0
    visit_order: list[int] = []
    while live & unnumbered:
        while not by_w[top]:
            top -= 1
        low = by_w[top] & -by_w[top]
        by_w[top] ^= low
        unnumbered ^= low
        x = low.bit_length() - 1
        visit_order.append(x)
        if top <= prev:
            generators |= low
        prev = top
        # reach = N(region); pending = admitted vertices outside the region;
        # above = vertices of labels not yet admitted.
        reach = adj[x]
        pending = 0
        above = unnumbered
        bumps: list[tuple[int, int]] = []
        for w, layer in enumerate(by_w[: top + 1]):
            if not above:
                break
            if not layer:
                continue
            if reach & layer:
                bumps.append((w, reach & layer))
            above ^= layer
            # Once every higher label touches the region, growing it
            # changes no bump.
            if not above & ~reach:
                continue
            pending |= layer
            frontier = reach & pending
            while frontier:
                pending ^= frontier
                while frontier:
                    v = frontier.bit_length() - 1
                    reach |= adj[v]
                    frontier ^= 1 << v
                frontier = reach & pending
        bumped = 0
        for w, b in bumps:
            by_w[w] ^= b
            by_w[w + 1] |= b
            bumped |= b
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
    """Decompose a connected graph into its maximal prime subgraphs."""
    if g.n < 1:
        raise ValidationError("decomposition needs at least one vertex")
    if not is_connected(g):
        raise ValidationError("decomposition requires a connected graph")
    n = g.n
    if n == 1:
        return Decomposition((VertexSet(1, 1),), (), VertexSet(1, 0))
    adj = g._adj
    madj, elim, carvers = _mcs_m(g)

    alive = (1 << n) - 1
    pieces: list[int] = []
    for x in elim:
        if (carvers >> x) & 1:
            sep = madj[x]
            comp = _component_bits(adj, alive & ~sep, x)
            pieces.append(comp | sep)
            alive &= ~comp
    pieces.append(alive)

    ordered = _d_order(pieces)
    atoms = tuple(VertexSet(n, b) for b in ordered)
    r_bits = []
    union = ordered[0]
    r_union = 0
    for b in ordered[1:]:
        r = b & union
        if not r:
            raise AlgorithmError("empty overlap set in a connected decomposition")
        r_bits.append(r)
        r_union |= r
        union |= b
    return Decomposition(atoms, tuple(VertexSet(n, r) for r in r_bits), VertexSet(n, r_union))


def _d_order(atom_bits: list[int]) -> list[int]:
    """Deterministic D-ordering via a join tree of the atom family.

    The atoms are the maximal cliques of the chordal graph obtained by
    completing each atom, so a maximum-weight spanning tree of their
    intersection graph is a join tree: along it, an atom's overlap with
    all previously placed atoms is contained in its parent. Prim's
    addition order (rooted at the lexicographically smallest atom, ties
    to the lexicographically smaller atom) is therefore a valid ordering.

    An atom's weight is its largest overlap with a placed atom. Placing an
    atom updates only the atoms that share a vertex with it, found through
    the vertex-to-atom incidence lists, and the next atom comes off a lazy
    heap keyed (-weight, index). No atom contains another, so an atom whose
    weight reaches its size minus one cannot improve: it is dropped from
    the incidence lists at their next scan, and on a star K_{1,k} the
    centre's list empties after the second placement instead of being
    rescanned k times.
    """
    if len(atom_bits) <= 1:
        return list(atom_bits)
    keyed = sorted((tuple(bit_members(b)), b) for b in atom_bits)
    members = [key for key, _ in keyed]
    atoms = [b for _, b in keyed]
    k = len(atoms)
    incident: dict[int, list[int]] = {}
    for i, mem in enumerate(members):
        for v in mem:
            incident.setdefault(v, []).append(i)
    weight = [0] * k
    parent = [0] * k
    placed = [False] * k
    # placed, or sharing all but one vertex with a placed atom
    done = [False] * k
    heap: list[tuple[int, int]] = []
    order = [0]
    pick = 0
    placed[0] = done[0] = True
    while len(order) < k:
        shared: dict[int, int] = {}
        for v in members[pick]:
            live = [i for i in incident[v] if not done[i]]
            incident[v] = live
            for i in live:
                shared[i] = shared.get(i, 0) + 1
        for i, w in shared.items():
            if w > weight[i]:
                weight[i] = w
                parent[i] = pick
                heapq.heappush(heap, (-w, i))
                done[i] = w == len(members[i]) - 1
        while heap:
            neg_w, pick = heapq.heappop(heap)
            if not placed[pick] and -neg_w == weight[pick]:
                break
        else:
            raise AlgorithmError("atom intersection graph is disconnected")
        placed[pick] = done[pick] = True
        order.append(pick)
    placed_union = atoms[0]
    for pos in order[1:]:
        if atoms[pos] & placed_union & ~atoms[parent[pos]]:
            raise AlgorithmError("atom ordering violates the containment property")
        placed_union |= atoms[pos]
    return [atoms[i] for i in order]


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
        if not _is_clique(adj, r):
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
    _check_universe(g, s, dec.atoms[0])
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


def pivots(g: Graph, dec: Decomposition, i: int, s: VertexSet) -> VertexSet:
    """Pivots of atom i with respect to s, straight from the definition.

    A vertex of F_i is a pivot when it lies in N(D) for a component D of
    G - F_i that holds a vertex of s: flow from that vertex enters F_i
    through N(D), the overlap of F_i with the atom on D's side.
    """
    _atom_arguments(g, dec, i, s)
    return VertexSet(g.n, _pivot_details(g, dec, i, s))
