"""The benchmark's workloads: which graphs each one generates, and why.

Each workload is one pass of all five operations over its graphs plus a
batch of hull and convex-test queries on random vertex pairs. ``FULL`` is
what the benchmark measures; ``TINY`` has the same shapes at a size the
test-suite runs in well under a second. README.md explains the sizes.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    graphs: tuple[dict, ...]


WHY = {
    "prime-dense": "one near-spanning prime atom: MCS-M, prime enumeration and convex "
    "extension dominate; pivots and D-ordering do almost nothing",
    "sparse-atoms": "hundreds of atoms around one prime core: pivots, component searches "
    "and mono-violation hull rounds dominate; enumeration is small",
    "trees": "atom count close to n: MCS-M buckets, the separator sweep and D-ordering "
    "dominate; answers have closed forms",
}


def _at_size(
    dense_n: int, core: int, trees: int, core_n: int, tree_n: int, leaves: int, queries: int
) -> dict[str, Workload]:
    """The three workloads at one size; ``queries`` is per graph on prime-dense."""
    dense = {
        "family": "gnp", "n": dense_n, "p": 10 / dense_n, "min_degree": 3, "queries": queries
    }
    sparse = {"family": "core", "core": core, "trees": trees, "n": core_n, "queries": queries // 2}
    third = queries // 3
    graphs = {
        "prime-dense": (dense, dense),
        "sparse-atoms": (sparse, sparse),
        "trees": (
            {"family": "tree", "n": tree_n, "queries": queries - 2 * third},
            {"family": "path", "n": tree_n, "queries": third},
            {"family": "star", "leaves": leaves, "queries": third},
        ),
    }
    return {name: Workload(name, WHY[name], graphs[name]) for name in WHY}


FULL = _at_size(dense_n=600, core=150, trees=180, core_n=500, tree_n=500, leaves=250, queries=100)
TINY = _at_size(dense_n=30, core=10, trees=8, core_n=30, tree_n=30, leaves=12, queries=12)
SCALES = {"full": FULL, "tiny": TINY}
