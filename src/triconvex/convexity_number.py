"""Maximum proper convex set of a connected graph.

Every maximum proper convex set arises from a convex set C of a single
atom F_i, extended by the components of G - C that avoid F_i minus C.
Scanning the atoms' (small) convex families and keeping the largest
extension therefore solves the problem in polynomial time. Each atom's
family comes from ``enumerate_prime_convex_sets(g, within=F_i)``, as masks
in G's own vertex ids, so no relabelled copy of the atom is built.

For C inside F_i, the components of G - C that avoid F_i minus C are
exactly the components D of G - F_i whose neighbourhood N(D) lies inside
C: such a component of G - C misses F_i, so it sits in one D and, being
closed in G - C, equals it; conversely N(D) inside C makes D a component
of G - C. Whether D joins depends on N(D) alone, so each atom needs one
search of G - F_i, O(n + m), grouped by separator: U(S), the union of the
D with N(D) = S (``decomposition._outside_groups``). Each seed is then
extended in O(#separators) mask tests, one per atom on a star K_{1,k}.
When the graph is a single atom every extension is the seed itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitset import VertexSet
from .convexity import is_t_convex
from .decomposition import Decomposition, _atom_arguments, _outside_groups, decompose
from .errors import AlgorithmError, ContractViolationError, ValidationError
# _components_bits stays a module attribute: benchmark/tracer.py wraps it here.
from .graph import Graph, _components_bits, is_connected  # noqa: F401
from .prime import enumerate_prime_convex_sets


@dataclass(frozen=True, slots=True)
class ConvexityNumberResult:
    """value = |witness|; witness is a maximum proper convex set of G.

    atom_index and seed record the atom and the atom-convex set whose
    extension realised the maximum.
    """

    value: int
    witness: VertexSet
    atom_index: int
    seed: VertexSet


def _extend(c_bits: int, groups: dict[int, int]) -> int:
    """c plus every U(S) of ``_outside_groups`` with S inside c."""
    out = c_bits
    for boundary, union in groups.items():
        if not boundary & ~c_bits:
            out |= union
    return out


def convex_extension(g: Graph, dec: Decomposition, i: int, c: VertexSet) -> VertexSet:
    """Extend a convex set of atom i by the components of G - c that avoid
    the rest of the atom. The result is convex in G whenever c is convex
    in the atom, which the caller guarantees. Raises
    ContractViolationError when c is not inside the atom."""
    f_bits = _atom_arguments(g, dec, i, c)
    if c.bits & ~f_bits:
        raise ContractViolationError("seed is not inside the atom")
    return VertexSet(g.n, _extend(c.bits, _outside_groups(g._adj, f_bits)))


def convexity_number(g: Graph) -> ConvexityNumberResult:
    """Size of a maximum proper convex set, with the set as witness.

    Scans atoms in decomposition order and each atom's convex sets in
    (size, members) order; the first pair achieving the maximum wins, so
    results are deterministic. The witness is re-checked before returning.
    """
    if g.n < 2:
        raise ValidationError("convexity number needs at least two vertices")
    if not is_connected(g):
        raise ValidationError("convexity number requires a connected graph")
    dec = decompose(g)
    full = (1 << g.n) - 1
    best = ConvexityNumberResult(0, VertexSet(g.n, 0), -1, VertexSet(g.n, 0))
    for i, atom in enumerate(dec.atoms):
        groups = _outside_groups(g._adj, atom.bits)
        for seed_bits in enumerate_prime_convex_sets(g, within=atom).bits:
            if seed_bits == atom.bits:
                continue
            extended = _extend(seed_bits, groups)
            size = extended.bit_count()
            if size > best.value:
                best = ConvexityNumberResult(
                    size, VertexSet(g.n, extended), i, VertexSet(g.n, seed_bits)
                )
    if best.value < 1 or best.witness.bits == full:
        raise AlgorithmError("no proper convex witness found")
    convex, _ = is_t_convex(g, best.witness)
    if not convex:
        raise AlgorithmError("convexity-number witness failed verification")
    return best
