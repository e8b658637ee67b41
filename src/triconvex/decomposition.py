"""Clique minimal separator decomposition into maximal prime subgraphs.

The route: run an MCS-M elimination game to obtain a minimal triangulation
H of G together with an elimination order. The higher-numbered
H-neighbourhoods of the eliminated vertices are the candidate separators;
a candidate survives when it is a clique of G and a relative minimal
separator of G (at least two components of G - S see all of S). Sweeping
the elimination order and carving off the component of each surviving
candidate peels the maximal prime subgraphs one by one; the reverse carve
order attaches every piece to the remainder through its separator, which
is exactly the ordering property the rest of the library relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitset import VertexSet, bit_members
from .errors import AlgorithmError, ValidationError
from .graph import Graph, _component_bits, _components_bits, is_connected


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


def _is_clique(adj: list[int], bits: int) -> bool:
    for v in bit_members(bits):
        if bits & ~adj[v] & ~(1 << v):
            return False
    return True


def _has_two_full_components(adj: list[int], rest: int, sep: int) -> bool:
    """Does G - sep have two components adjacent to every separator vertex?"""
    found = 0
    while rest:
        seed = (rest & -rest).bit_length() - 1
        comp = _component_bits(adj, rest, seed)
        rest &= ~comp
        if all(adj[s] & comp for s in bit_members(sep)):
            found += 1
            if found == 2:
                return True
    return False


def _mcs_m(g: Graph) -> tuple[list[int], list[int]]:
    """MCS-M: minimal triangulation H (adjacency masks) and elimination order.

    Vertices are numbered n..1 by descending weight (ties to the smallest
    id); a vertex's weight rises when the previously numbered vertex can
    reach it through unnumbered vertices of strictly smaller weight, and
    such a reach that is not an edge becomes a fill edge of H. The returned
    order lists vertices as eliminated, i.e. lowest number first.
    """
    n = g.n
    adj = g._adj
    h = list(adj)
    weight = [0] * n
    unnumbered = (1 << n) - 1
    visit_order: list[int] = []
    for _ in range(n):
        best, best_w = -1, -1
        rest = unnumbered
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            if weight[v] > best_w:
                best, best_w = v, weight[v]
        x = best
        unnumbered ^= 1 << x
        visit_order.append(x)
        # Graded search: buckets[j] holds reached vertices traversable once
        # the frontier weight is j; a vertex with weight above the current
        # level is reachable through strictly smaller weights, so it gets a
        # weight bump (and a fill edge if needed).
        reached = 1 << x
        buckets: list[list[int]] = [[] for _ in range(n + 1)]
        bumped = 0
        for y in bit_members(adj[x] & unnumbered):
            reached |= 1 << y
            buckets[weight[y]].append(y)
            bumped |= 1 << y
        for level in range(n):
            bucket = buckets[level]
            while bucket:
                z = bucket.pop()
                for w in bit_members(adj[z] & unnumbered & ~reached):
                    reached |= 1 << w
                    if weight[w] > level:
                        bumped |= 1 << w
                        buckets[weight[w]].append(w)
                    else:
                        bucket.append(w)
        for y in bit_members(bumped):
            weight[y] += 1
            if not (adj[x] >> y) & 1:
                h[x] |= 1 << y
                h[y] |= 1 << x
    visit_order.reverse()
    return h, visit_order


def decompose(g: Graph) -> Decomposition:
    """Decompose a connected graph into its maximal prime subgraphs."""
    if g.n < 1:
        raise ValidationError("decomposition needs at least one vertex")
    if not is_connected(g):
        raise ValidationError("decomposition requires a connected graph")
    n = g.n
    full = (1 << n) - 1
    if n == 1:
        return Decomposition((VertexSet(1, 1),), (), VertexSet(1, 0))
    adj = g._adj
    h, elim = _mcs_m(g)

    madjs = [0] * n
    later = 0
    for idx in range(n - 1, -1, -1):
        madjs[idx] = h[elim[idx]] & later
        later |= 1 << elim[idx]

    alive = full
    carved: list[int] = []
    for idx, x in enumerate(elim):
        sep = madjs[idx]
        if not sep or not (alive >> x) & 1:
            continue
        if sep & ~alive:
            continue
        if not _is_clique(adj, sep):
            continue
        if not _has_two_full_components(adj, full & ~sep, sep):
            continue
        comp = _component_bits(adj, alive & ~sep, x)
        piece = comp | sep
        if piece == alive:
            continue
        carved.append(piece)
        alive &= ~comp

    # Sweeping can leave separator residues: prime pieces strictly inside a
    # real atom (carving {0,2,3} then {0,2,4} strands the prime piece {0,2}).
    # Every piece is prime and every atom occurs as a piece, so keeping the
    # inclusion-maximal pieces is exactly the atom family.
    pieces = set([alive] + carved)
    atom_bits = [
        p for p in pieces if not any(q != p and p & ~q == 0 for q in pieces)
    ]
    ordered = _d_order(atom_bits)
    atoms = tuple(VertexSet(n, b) for b in ordered)
    r_bits = []
    union = ordered[0]
    for b in ordered[1:]:
        r = b & union
        if not r:
            raise AlgorithmError("empty overlap set in a connected decomposition")
        r_bits.append(r)
        union |= b
    r_union = 0
    for r in r_bits:
        r_union |= r
    return Decomposition(atoms, tuple(VertexSet(n, r) for r in r_bits), VertexSet(n, r_union))


def _d_order(atom_bits: list[int]) -> list[int]:
    """Deterministic D-ordering via a join tree of the atom family.

    The atoms are the maximal cliques of the chordal graph obtained by
    completing each atom, so a maximum-weight spanning tree of their
    intersection graph is a join tree: along it, an atom's overlap with
    all previously placed atoms is contained in its parent. Prim's
    addition order (rooted at the lexicographically smallest atom, ties
    to the lexicographically smaller atom) is therefore a valid ordering.
    """
    if len(atom_bits) <= 1:
        return list(atom_bits)
    atoms = sorted(atom_bits, key=_lex_key)
    k = len(atoms)
    in_tree = [False] * k
    in_tree[0] = True
    weight = [(atoms[i] & atoms[0]).bit_count() for i in range(k)]
    parent = [0] * k
    order = [0]
    for _ in range(k - 1):
        pick, best = -1, 0
        for i in range(k):
            if not in_tree[i] and weight[i] > best:
                pick, best = i, weight[i]
        if pick < 0:
            raise AlgorithmError("atom intersection graph is disconnected")
        in_tree[pick] = True
        order.append(pick)
        for i in range(k):
            if not in_tree[i]:
                w = (atoms[i] & atoms[pick]).bit_count()
                if w > weight[i]:
                    weight[i] = w
                    parent[i] = pick
    placed_union = atoms[0]
    for pos in order[1:]:
        if atoms[pos] & placed_union & ~atoms[parent[pos]]:
            raise AlgorithmError("atom ordering violates the containment property")
        placed_union |= atoms[pos]
    return [atoms[i] for i in order]


def _lex_key(bits: int) -> tuple[int, ...]:
    return tuple(bit_members(bits))


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


def _pivot_details(g: Graph, dec: Decomposition, i: int, s: VertexSet) -> list[tuple[int, int]]:
    """Qualifying (other-atom index, shared-vertex bits) pairs for atom i.

    Atom j qualifies when some vertex of s outside atom i lies in the
    component of G - (F_i intersect F_j) that contains the rest of F_j;
    the shared vertices are then pivots of F_i. The component must also
    avoid the rest of F_i: when the overlap fails to separate the two
    atoms, hull flow towards F_i is not forced through the shared
    vertices, and counting them as pivots breaks both the hull-set
    characterization and the minimum-hull-set sweep.
    """
    adj = g._adj
    full = (1 << g.n) - 1
    f_bits = dec.atoms[i].bits
    s_out = s.bits & ~f_bits
    if not s_out:
        return []
    comp_cache: dict[int, list[int]] = {}
    details: list[tuple[int, int]] = []
    for j, other in enumerate(dec.atoms):
        if j == i:
            continue
        shared = other.bits & f_bits
        if not shared:
            continue
        rest = other.bits & ~shared
        if not rest:
            continue
        comps = comp_cache.get(shared)
        if comps is None:
            comps = _components_bits(adj, full & ~shared)
            comp_cache[shared] = comps
        seed = rest & -rest
        comp = next(c for c in comps if c & seed)
        if comp & (f_bits & ~shared):
            continue
        if comp & s_out:
            details.append((j, shared))
    return details


def pivots(g: Graph, dec: Decomposition, i: int, s: VertexSet) -> VertexSet:
    """Pivots of atom i with respect to s, straight from the definition.

    A vertex of F_i shared with another atom F' is a pivot when a vertex of
    s outside F_i lives on F' 's side of the shared separator.
    """
    if s.n != g.n:
        raise ValidationError("vertex set has wrong universe size")
    out = 0
    for _, shared in _pivot_details(g, dec, i, s):
        out |= shared
    return VertexSet(g.n, out)
