"""Seeded benchmark inputs, rendered as the text the program parses.

The generators live here rather than in ``triconvex.generators`` so that
edits to the library cannot change what the benchmark measures: one
(workload, seed) pair always gives byte-identical edge-list and DIMACS
text. Every random stream is seeded from a string naming the workload,
the graph and the seed, and Python seeds ``random.Random`` from a string
through SHA-512, so the streams do not depend on hash randomization.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class GraphInput:
    """One input graph: a label, its vertex count, edges and query pairs.

    ``family`` is "gnp", "core", "tree", "path" or "star"; trees, paths and
    stars have closed-form hull and convexity numbers that the checks use.
    """

    label: str
    family: str
    n: int
    edges: tuple[tuple[int, int], ...]
    queries: tuple[tuple[int, int], ...]

    def edge_list_text(self) -> str:
        lines = [f"{u} {v}" for u, v in self.edges]
        seen = bytearray(self.n)
        for u, v in self.edges:
            seen[u] = seen[v] = 1
        lines.extend(str(v) for v in range(self.n) if not seen[v])
        return "\n".join(lines) + "\n"

    def dimacs_text(self) -> str:
        lines = [f"c {self.label}", f"p edge {self.n} {len(self.edges)}"]
        lines.extend(f"e {u + 1} {v + 1}" for u, v in self.edges)
        return "\n".join(lines) + "\n"


def _rng(*parts: object) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def gnp_connected(n: int, p: float, min_degree: int, rng: random.Random) -> list[tuple[int, int]]:
    """Erdos-Renyi G(n, p), degrees raised to ``min_degree``, then connected.

    A vertex below ``min_degree`` gains edges to uniform non-neighbours;
    without that, a pendant vertex turns up in about one graph in four at
    average degree 10 and splits off an atom. Components are then ordered by
    their smallest vertex and each later one is joined by one edge between
    a random vertex of the part built so far and a random vertex of it.
    """
    adj = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u].add(v)
                adj[v].add(u)
    for u in range(n):
        while len(adj[u]) < min(min_degree, n - 1):
            v = rng.randrange(n)
            if v != u and v not in adj[u]:
                adj[u].add(v)
                adj[v].add(u)
    edges = [(u, v) for u in range(n) for v in sorted(adj[u]) if u < v]
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    comps: dict[int, list[int]] = {}
    for v in range(n):
        comps.setdefault(find(v), []).append(v)
    ordered = sorted(comps.values(), key=lambda c: c[0])
    built = list(ordered[0])
    for comp in ordered[1:]:
        a, b = rng.choice(built), rng.choice(comp)
        edges.append((min(a, b), max(a, b)))
        built.extend(comp)
    return sorted(edges)


def cubic_core_forest(core: int, trees: int, n: int, rng: random.Random) -> list[tuple[int, int]]:
    """A 3-regular core on ``core`` vertices with ``trees`` random trees hung off it.

    The core is a Hamiltonian cycle plus a random perfect matching, so it
    is 2-connected and almost always prime. Each tree root hangs from a
    uniform core vertex and every later vertex from a uniform earlier tree
    vertex, so each tree edge is an atom and removing the core leaves
    exactly ``trees`` components. Vertex labels are then shuffled so that
    id order carries no structure.
    """
    order = list(range(core))
    rng.shuffle(order)
    cycle = {tuple(sorted((order[i], order[i - 1]))) for i in range(core)}
    while True:
        rng.shuffle(order)
        matching = {tuple(sorted(order[i : i + 2])) for i in range(0, core, 2)}
        if not matching & cycle:
            break
    hang = [(rng.randrange(core), i) for i in range(core, core + trees)]
    hang += [(rng.randrange(core, i), i) for i in range(core + trees, n)]
    label = list(range(n))
    rng.shuffle(label)
    edges = [*cycle, *matching, *hang]
    return sorted((min(label[u], label[v]), max(label[u], label[v])) for u, v in edges)


def random_recursive_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Vertex i > 0 hangs from a uniform earlier vertex."""
    return [(rng.randrange(i), i) for i in range(1, n)]


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def star_edges(leaves: int) -> list[tuple[int, int]]:
    """K_{1,leaves} with centre 0."""
    return [(0, i) for i in range(1, leaves + 1)]


def query_pairs(n: int, count: int, rng: random.Random) -> list[tuple[int, int]]:
    """``count`` random pairs of distinct vertices, smaller id first."""
    pairs = []
    for _ in range(count):
        u, v = rng.sample(range(n), 2)
        pairs.append((min(u, v), max(u, v)))
    return pairs


def build_graph(workload: str, seed: int, index: int, spec: dict) -> GraphInput:
    """Generate graph ``index`` of a workload from its spec dictionary."""
    family = spec["family"]
    label = f"{workload}/{index}/{family}"
    rng = _rng(workload, index, family, seed)
    if family == "gnp":
        n = spec["n"]
        edges = gnp_connected(n, spec["p"], spec["min_degree"], rng)
    elif family == "core":
        n = spec["n"]
        edges = cubic_core_forest(spec["core"], spec["trees"], n, rng)
    elif family == "tree":
        n = spec["n"]
        edges = random_recursive_tree(n, rng)
    elif family == "path":
        n = spec["n"]
        edges = path_edges(n)
    elif family == "star":
        n = spec["leaves"] + 1
        edges = star_edges(spec["leaves"])
    else:
        raise ValueError(f"unknown graph family {family!r}")
    queries = query_pairs(n, spec["queries"], _rng(workload, index, "queries", seed))
    return GraphInput(label, family, n, tuple(edges), tuple(queries))
