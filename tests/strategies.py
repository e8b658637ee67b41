"""Hypothesis strategies for graphs and vertex subsets."""

from __future__ import annotations

from hypothesis import strategies as st

from triconvex.bitset import VertexSet
from triconvex.graph import Graph, _components_bits


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 9, connected: bool = False):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
    g = Graph(n, edges)
    if connected:
        comps = _components_bits(g._adj, (1 << n) - 1)
        if len(comps) > 1:
            for comp, _ in comps[1:]:
                edges.append((0, (comp & -comp).bit_length() - 1))
            g = Graph(n, edges)
    return g


@st.composite
def graphs_with_subsets(draw, min_n: int = 1, max_n: int = 9, connected: bool = False):
    g = draw(graphs(min_n=min_n, max_n=max_n, connected=connected))
    bits = draw(st.integers(min_value=0, max_value=(1 << g.n) - 1))
    return g, VertexSet(g.n, bits)
