"""Named graph families and seeded random graphs for tests and the CLI."""

from __future__ import annotations

import itertools
import random
from typing import Iterator

from .bitset import bit_members
from .errors import ValidationError
from .graph import Graph, _components_bits

# Largest n random_connected_graph accepts, far below graph.MAX_VERTICES: its
# n(n-1)/2-pair scan takes some 20 s at this n (100 ns a pair, 2-vCPU host).
MAX_RANDOM_VERTICES = 20_000

# Vertex layout of the named families, used throughout the test-suite:
# bowtie: 0 is the shared vertex of triangles {0,1,2} and {0,3,4}.
# triangle_star k: 0 is the centre; triangle i is {0, 2i-1, 2i}.
# star k: 0 is the centre of K_{1,k}.
#
# Edges go to Graph as generators, so an oversized n from a CLI spec fails
# Graph's vertex-count check before any edge is built; random_connected_graph
# checks MAX_RANDOM_VERTICES itself before its pair scan.


def path_graph(n: int) -> Graph:
    _require(n >= 1, "path needs n >= 1")
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    _require(n >= 3, "cycle needs n >= 3")
    return Graph(n, ((i, (i + 1) % n) for i in range(n)))


def complete_graph(n: int) -> Graph:
    _require(n >= 1, "complete graph needs n >= 1")
    return Graph(n, itertools.combinations(range(n), 2))


def star_graph(k: int) -> Graph:
    _require(k >= 1, "star needs k >= 1 leaves")
    return Graph(k + 1, ((0, i) for i in range(1, k + 1)))


def bowtie_graph() -> Graph:
    return Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])


def triangle_star_graph(k: int) -> Graph:
    _require(k >= 1, "triangle star needs k >= 1 triangles")
    edges = []
    for i in range(1, k + 1):
        a, b = 2 * i - 1, 2 * i
        edges += [(0, a), (0, b), (a, b)]
    return Graph(2 * k + 1, edges)


def random_connected_graph(n: int, p: float, seed: int = 0) -> Graph:
    """Erdos-Renyi G(n, p) made connected; deterministic per seed.

    Connectivity is forced by joining every later component to the first
    one with a random edge, so the result is a function of (n, p, seed).
    """
    _require(n >= 1, "random graph needs n >= 1")
    _require(0.0 <= p <= 1.0, "edge probability must be in [0, 1]")
    _require(n <= MAX_RANDOM_VERTICES, f"random graph needs n <= {MAX_RANDOM_VERTICES}")
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    g = Graph(n, edges)
    comps = _components_bits(g._adj, (1 << n) - 1)
    if len(comps) > 1:
        members = [list(bit_members(c)) for c, _ in comps]
        for comp in members[1:]:
            edges.append((rng.choice(members[0]), rng.choice(comp)))
        g = Graph(n, edges)
    return g


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


# Each spec kind that from_spec accepts: its form, named in the errors, and
# the most parameters it takes.
SPEC_FORMS = {
    "path": ("path:N", 1),
    "cycle": ("cycle:N", 1),
    "complete": ("complete:N", 1),
    "star": ("star:K", 1),
    "bowtie": ("bowtie", 0),
    "triangle_star": ("triangle_star:K", 1),
    "random_connected": ("random_connected:N,P[,SEED]", 3),
}


def from_spec(spec: str, default_seed: int = 0) -> Graph:
    """Build a graph from a CLI spec string like ``cycle:5``.

    Supported: the forms in ``SPEC_FORMS``.
    """
    kind, _, argtext = spec.partition(":")
    if kind not in SPEC_FORMS:
        raise ValidationError(f"unknown generator kind {kind!r}")
    form, most = SPEC_FORMS[kind]
    args = [a for a in argtext.split(",") if a] if argtext else []
    if len(args) > most:
        raise ValidationError(f"bad generator spec {spec!r}: expected {form}")
    try:
        if kind == "path":
            return path_graph(int(args[0]))
        if kind == "cycle":
            return cycle_graph(int(args[0]))
        if kind == "complete":
            return complete_graph(int(args[0]))
        if kind == "star":
            return star_graph(int(args[0]))
        if kind == "bowtie":
            return bowtie_graph()
        if kind == "triangle_star":
            return triangle_star_graph(int(args[0]))
        if kind == "random_connected":
            n, p = int(args[0]), float(args[1])
            seed = int(args[2]) if len(args) > 2 else default_seed
            return random_connected_graph(n, p, seed)
    except (IndexError, ValueError):
        raise ValidationError(f"bad generator spec {spec!r}: expected {form}") from None


def all_connected_graphs(n: int) -> Iterator[Graph]:
    """Every connected labeled graph on exactly n vertices.

    Exhaustive over the 2^(n(n-1)/2) edge subsets; intended for n <= 5.
    """
    _require(n >= 1, "need n >= 1")
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
        g = Graph(n, edges)
        if len(_components_bits(g._adj, (1 << n) - 1)) == 1:
            yield g
