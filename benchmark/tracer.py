"""Per-layer spans for the traced benchmark run.

The library has no instrumentation of its own, so the traced run wraps the
functions at the module attribute each caller looks up at call time (a
module-level ``from .x import f`` binds ``f`` in the importing module, so
that binding is the one to replace). :meth:`Tracer.install` swaps the
wrappers in and :meth:`Tracer.restore` puts the originals back; the untimed
run installs nothing. A wrap point whose attribute no longer exists is
skipped, and the metrics fed only by skipped points are reported absent.

Spans are kept per (name, parent name) edge of the call tree, with call
count, inclusive time and self time (inclusive time minus the time of
child spans). A span called directly inside a span of the same name is
part of it: a component search that runs further component searches is
one search.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from triconvex import convexity, decomposition, graph

# The package exports functions under these two module names, so the
# modules themselves come from importlib.
convexity_number = importlib.import_module("triconvex.convexity_number")
hull_number = importlib.import_module("triconvex.hull_number")

Hook = Callable[[Counter, tuple, dict, object], None]


def _count_convex_sets(counters: Counter, args: tuple, kwargs: dict, result: object) -> None:
    counters["prime.convex_sets"] += len(result)


def _count_useful_extension(counters: Counter, args: tuple, kwargs: dict, result: object) -> None:
    seed = kwargs["c"] if "c" in kwargs else args[3]
    if len(result) > len(seed):
        counters["convexity_number.extension.useful"] += 1


@dataclass(frozen=True)
class WrapPoint:
    owner: object
    attribute: str
    span: str
    hook: Hook | None = None

    @property
    def label(self) -> str:
        return f"{getattr(self.owner, '__name__', self.owner)}.{self.attribute}"


# Every name through which a caller reaches a measured routine. Graph.induced
# is a method, so the class attribute is wrapped.
WRAP_POINTS: tuple[WrapPoint, ...] = (
    WrapPoint(graph.Graph, "induced", "graph.induced"),
    WrapPoint(graph, "_component_bits", "graph.component_search"),
    WrapPoint(decomposition, "_component_bits", "graph.component_search"),
    WrapPoint(decomposition, "_components_bits", "graph.component_search"),
    WrapPoint(convexity, "_components_bits", "graph.component_search"),
    WrapPoint(convexity_number, "_components_bits", "graph.component_search"),
    WrapPoint(convexity, "shortest_path", "graph.shortest_path"),
    WrapPoint(convexity_number, "decompose", "decomposition.decompose"),
    WrapPoint(hull_number, "decompose", "decomposition.decompose"),
    WrapPoint(decomposition, "decompose", "decomposition.decompose"),
    WrapPoint(decomposition, "_mcs_m", "decomposition.mcs_m"),
    WrapPoint(decomposition, "_has_two_full_components", "decomposition.separator_test"),
    WrapPoint(decomposition, "_d_order", "decomposition.d_order"),
    WrapPoint(decomposition, "_pivot_details", "decomposition.pivots"),
    WrapPoint(hull_number, "_pivot_details", "decomposition.pivots"),
    WrapPoint(
        convexity_number, "enumerate_prime_convex_sets", "prime.enumerate", _count_convex_sets
    ),
    WrapPoint(hull_number, "prime_t_hull", "prime.hull"),
    WrapPoint(convexity, "_p3_violation", "convexity.p3_scan"),
    WrapPoint(convexity, "_mono_violation", "convexity.mono_scan"),
    WrapPoint(convexity, "_hull_bits", "convexity.hull"),
    WrapPoint(hull_number, "_hull_bits", "convexity.hull"),
    WrapPoint(convexity_number, "is_t_convex", "convexity.test"),
    WrapPoint(
        convexity_number, "convex_extension", "convexity_number.extension", _count_useful_extension
    ),
    WrapPoint(hull_number, "_reducible_hull_bits", "hull_number.sweep"),
)


class Tracer:
    """Collects spans while installed; the benchmark opens one root per op."""

    def __init__(self, points: tuple[WrapPoint, ...] = WRAP_POINTS):
        self.points = points
        # (span, parent span) -> [calls, inclusive seconds, self seconds]
        self.stats: dict[tuple[str, str], list] = {}
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[list] = [["", 0.0]]
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stats = {}
        self.counters = Counter()

    @property
    def spans(self) -> set[str]:
        """Span names with at least one installed wrap point."""
        return {p.span for p in self.points if p.label not in self.missing}

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for point in self.points:
            original = getattr(point.owner, point.attribute, None)
            if original is None:
                self.missing.append(point.label)
                continue
            self._saved.append((point.owner, point.attribute, original))
            setattr(point.owner, point.attribute, self._wrap(original, point.span, point.hook))

    def restore(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def root(self, name: str, fn: Callable, *args):
        """Run ``fn(*args)`` as a root span called ``name``."""
        return self._wrap(fn, name, None)(*args)

    def _wrap(self, fn: Callable, name: str, hook: Hook | None) -> Callable:
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            if parent[0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                key = (name, parent[0])
                entry = self.stats.get(key)
                if entry is None:
                    entry = self.stats[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def totals(self, name: str, parent: str | None = None) -> tuple[int, float, float]:
        """(calls, inclusive s, self s) of span ``name``, optionally under one parent."""
        calls, total, own = 0, 0.0, 0.0
        for (span, up), (c, t, s) in self.stats.items():
            if span == name and (parent is None or up == parent):
                calls += c
                total += t
                own += s
        return calls, total, own
