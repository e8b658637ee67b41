"""Named graph families and seeded random graphs for tests and the CLI."""

from __future__ import annotations

import itertools
import random
from typing import Iterator

from .bitset import bit_members
from .errors import ValidationError
from .graph import Graph, _check_decimal, _components_bits, is_connected

# Largest n random_connected_graph accepts, below graph.MAX_VERTICES: its
# n(n-1)/2-pair scan takes some 20 s at this n (100 ns a pair, 2-vCPU host).
MAX_RANDOM_VERTICES = 20_000
# Largest n complete_graph accepts: its n(n-1)/2 edges take some 5 s at
# this n (0.4 us an edge, 2-vCPU host).
MAX_COMPLETE_VERTICES = 5_000

# Vertex layout of the named families, used throughout the test-suite:
# bowtie: 0 is the shared vertex of triangles {0,1,2} and {0,3,4}.
# triangle_star k: 0 is the centre; triangle i is {0, 2i-1, 2i}.
# star k: 0 is the centre of K_{1,k}.
#
# Edges go to Graph as generators, so an oversized n from a CLI spec fails
# Graph's vertex-count check before any edge is built, and no edge list is
# held in memory; complete_graph and random_connected_graph check their own
# caps before their loops.


def path_graph(n: int) -> Graph:
    _require(n >= 1, "path needs n >= 1")
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    _require(n >= 3, "cycle needs n >= 3")
    return Graph(n, ((i, (i + 1) % n) for i in range(n)))


def complete_graph(n: int) -> Graph:
    _require(n >= 1, "complete graph needs n >= 1")
    _require(n <= MAX_COMPLETE_VERTICES, f"complete graph needs n <= {MAX_COMPLETE_VERTICES}")
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
    g = Graph(n, ((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p))
    comps = _components_bits(g._adj, (1 << n) - 1)
    if len(comps) > 1:
        members = [list(bit_members(c)) for c, _ in comps]
        bridges = [(rng.choice(members[0]), rng.choice(comp)) for comp in members[1:]]
        g = Graph(n, itertools.chain(g.edges(), bridges))
    return g


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


# Each spec kind that from_spec accepts: its form, named in the errors, its
# builder and the type of each parameter the builder takes.
SPECS = {
    "path": ("path:N", path_graph, (int,)),
    "cycle": ("cycle:N", cycle_graph, (int,)),
    "complete": ("complete:N", complete_graph, (int,)),
    "star": ("star:K", star_graph, (int,)),
    "bowtie": ("bowtie", bowtie_graph, ()),
    "triangle_star": ("triangle_star:K", triangle_star_graph, (int,)),
    "random_connected": ("random_connected:N,P[,SEED]", random_connected_graph, (int, float, int)),
}


def from_spec(spec: str, default_seed: int = 0) -> Graph:
    """Build a graph from a CLI spec string like ``cycle:5``: one of the
    forms in ``SPECS``, with a left-out SEED taken from ``default_seed``."""
    kind, _, argtext = spec.partition(":")
    if kind not in SPECS:
        raise ValidationError(f"unknown generator kind {kind!r}")
    form, build, types = SPECS[kind]
    args = [a.strip() for a in argtext.split(",") if a]
    if form.endswith("[,SEED]") and len(args) == len(types) - 1:
        args.append(str(default_seed))
    bad = ValidationError(f"bad generator spec {spec!r}: expected {form}")
    if len(args) != len(types):
        raise bad
    try:
        # an integer is ASCII decimal, as in graph files
        _check_decimal(argtext, [a for t, a in zip(types, args) if t is int])
        return build(*(t(a) for t, a in zip(types, args)))
    except ValueError:
        raise bad from None


def all_connected_graphs(n: int) -> Iterator[Graph]:
    """Every connected labeled graph on exactly n vertices.

    Exhaustive over the 2^(n(n-1)/2) edge subsets; intended for n <= 5.
    """
    _require(n >= 1, "need n >= 1")
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
        g = Graph(n, edges)
        if is_connected(g):
            yield g
