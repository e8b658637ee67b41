"""Set-up, timed passes, answer checks and metrics for one workload run.

A pass runs every operation once on every graph of the workload: the
decomposition, the convexity number, the hull number, one hull query per
random vertex pair, and a convex test of each pair and of each hull. Passes
repeat until the time is spent (at least ``MIN_PASSES``), and every timing
metric is a median over passes, which keeps short bursts of machine noise
out of the figures. Answers are checked outside the timed region.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from inputs import GraphInput, build_graph
from tracer import Tracer
from workloads import SCALES
from triconvex import convexity, decomposition
from triconvex.bitset import VertexSet
from triconvex.graph import Graph, parse_graph

# The package exports functions under these two module names, so the
# modules themselves come from importlib.
convexity_number = importlib.import_module("triconvex.convexity_number")
hull_number = importlib.import_module("triconvex.hull_number")

EXPECTED_PATH = Path(__file__).with_name("expected.json")
MIN_PASSES = 3
SETUP_REPEATS = 31
TAIL_BEYOND = 10
# Timings are scaled to a machine on which the reference work takes
# REFERENCE_NOMINAL_S seconds: the shared host drifts by a fifth or more
# over minutes, and the reference work drifts with it (see README.md).
REFERENCE_SEARCHES = 8
REFERENCE_NOMINAL_S = 0.0015

END_TO_END_UNITS = {
    "setup_s": "s",
    "decompose_s": "s",
    "convexity_number_s": "s",
    "hull_number_s": "s",
    "hull_ms.p50": "ms",
    "hull_ms.tail": "ms",
    "convex_test_s": "s",
    "peak_rss_mb": "MB",
}

# Span-derived per-layer metrics: (metric, span, parent span or None for
# any, suffixes). ".calls" counts calls, ".s" is self time and ".total_s"
# inclusive time, both in seconds per pass.
SPAN_METRICS: tuple[tuple[str, str, str | None, tuple[str, ...]], ...] = (
    ("decomposition.decompose", "decomposition.decompose", None, ("calls", "s")),
    ("decomposition.mcs_m", "decomposition.mcs_m", None, ("calls", "s")),
    ("decomposition.separator_test", "decomposition.separator_test", None,
     ("calls", "s", "total_s")),
    ("decomposition.d_order", "decomposition.d_order", None, ("s",)),
    ("decomposition.pivots", "decomposition.pivots", None, ("calls", "s", "total_s")),
    ("graph.component_search", "graph.component_search", None, ("calls", "s")),
    ("graph.induced", "graph.induced", None, ("calls", "s")),
    ("graph.shortest_path", "graph.shortest_path", None, ("calls", "s")),
    ("prime.enumerate", "prime.enumerate", None, ("calls", "s")),
    ("prime.hull", "prime.hull", None, ("calls", "s")),
    ("convexity.p3_scan", "convexity.p3_scan", None, ("calls", "s")),
    ("convexity.mono_scan", "convexity.mono_scan", None, ("calls", "s", "total_s")),
    ("convexity.hull", "convexity.hull", None, ("calls", "s", "total_s")),
    ("convexity_number.extension", "convexity_number.extension", None,
     ("calls", "s", "total_s")),
    ("convexity_number.verify", "convexity.test", "op.convexity_number", ("s", "total_s")),
    ("hull_number.sweep", "hull_number.sweep", None, ("s", "total_s")),
    ("hull_number.verify", "convexity.hull", "op.hull_number", ("s", "total_s")),
)

PER_LAYER_UNITS = {
    f"{metric}.{suffix}": ("count" if suffix == "calls" else "s")
    for metric, _, _, suffixes in SPAN_METRICS
    for suffix in suffixes
}
PER_LAYER_UNITS.update(
    {
        "decomposition.atoms": "count",
        "decomposition.largest_atom": "count",
        "prime.convex_sets": "count",
        "convexity.hull.rounds": "count",
        "convexity_number.extension.useful_ratio": "ratio",
        "trace.overhead_ratio": "ratio",
    }
)


@dataclass
class Loaded:
    spec: GraphInput
    graph: Graph
    seeds: list[VertexSet]


@dataclass
class Pass:
    """One pass: per-op totals, per-query hull times and every answer.

    ``totals`` and ``hull_times`` are scaled to the nominal machine speed;
    ``wall`` is the unscaled time of all calls and ``scales`` holds the
    factor applied to each group of calls. ``raw`` holds the answers as
    returned, for the checks; the run keeps it for the first pass only.
    """

    wall: float = 0.0
    scales: list[float] = field(default_factory=list)
    totals: dict[str, float] = field(default_factory=dict)
    hull_times: list[float] = field(default_factory=list)
    answers: dict[tuple, object] = field(default_factory=dict)
    raw: dict[tuple, object] = field(default_factory=dict)
    attempted: int = 0

    @property
    def scaled_wall(self) -> float:
        return sum(self.totals.values()) + sum(self.hull_times)


class Raised:
    """Stands in for the answer of an operation that raised."""

    def __init__(self, exc: Exception):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Raised) and other.text == self.text

    def __repr__(self) -> str:
        return f"Raised({self.text!r})"


# ---------------------------------------------------------------------------
# Set-up.


def generate(workload: str, seed: int, scale: str = "full") -> list[GraphInput]:
    specs = SCALES[scale][workload].graphs
    return [build_graph(workload, seed, i, spec) for i, spec in enumerate(specs)]


def parse_all(inputs: list[GraphInput], texts: list[tuple[str, str]]) -> list[Graph]:
    """Parse every input from its edge-list and DIMACS text; both must agree."""
    graphs = []
    for gi, (edge_text, dimacs_text) in zip(inputs, texts):
        g = parse_graph(edge_text, "edge-list")
        if parse_graph(dimacs_text, "dimacs") != g or g.n != gi.n or g.m != len(gi.edges):
            raise AssertionError(f"{gi.label}: edge-list and DIMACS parses disagree")
        graphs.append(g)
    return graphs


def setup(inputs: list[GraphInput], repeats: int = SETUP_REPEATS) -> tuple[list[Loaded], float]:
    """Parse the inputs ``repeats`` times; returns them and the median time.

    Each parse is scaled like the calls of a pass (see :func:`run_pass`).
    """
    texts = [(gi.edge_list_text(), gi.dimacs_text()) for gi in inputs]
    times = []
    speed = reference_time()
    for _ in range(repeats):
        start = time.perf_counter()
        graphs = parse_all(inputs, texts)
        took = time.perf_counter() - start
        before, speed = speed, reference_time()
        times.append(took * REFERENCE_NOMINAL_S * 2 / (before + speed))
    loaded = [
        Loaded(gi, g, [VertexSet.from_iterable(g.n, pair) for pair in gi.queries])
        for gi, g in zip(inputs, graphs)
    ]
    return loaded, statistics.median(times)


# ---------------------------------------------------------------------------
# Answers in comparable form: sets by their bitmask.


def canonical(op: str, out: object) -> object:
    if isinstance(out, Raised):
        return out
    if op == "decompose":
        return (
            tuple(a.bits for a in out.atoms),
            tuple(r.bits for r in out.r_sets),
            out.r_union.bits,
        )
    if op == "convexity_number":
        return (out.value, out.witness.bits, out.atom_index, out.seed.bits)
    if op == "hull_number":
        return (out.value, out.hull_set.bits)
    if op == "hull":
        return out.bits
    convex, witness = out
    if witness is None:
        return (convex,)
    component = witness.component.bits if witness.component is not None else None
    return (convex, witness.kind, witness.vertex, witness.pair, component)


def digest(values: list) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:24]


# ---------------------------------------------------------------------------
# Timed passes.


def _reference_graph(n: int = 600, p: float = 0.012) -> list[int]:
    rng = random.Random("reference")
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


REFERENCE_ADJ = _reference_graph()


def _reference_work(adj: list[int]) -> int:
    """Breadth-first searches over a fixed bitmask graph with bands removed."""
    n = len(adj)
    reached = 0
    for band in range(REFERENCE_SEARCHES):
        alive = ((1 << n) - 1) & ~(((1 << 40) - 1) << (band * 50 % (n - 40)))
        comp = frontier = 1 << ((band * 50 + 45) % n)
        while frontier:
            grown = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                grown |= adj[low.bit_length() - 1]
            frontier = grown & alive & ~comp
            comp |= frontier
        reached += comp.bit_count()
    return reached


def reference_time() -> float:
    """Median of three timings of a fixed piece of benchmark-owned work.

    The work is the kind the library does (bitmask breadth-first search in
    pure Python) but is the benchmark's own code, so its time tracks only
    how fast the machine runs such code at that moment.
    """
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _reference_work(REFERENCE_ADJ)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_pass(loaded: list[Loaded], tracer: Tracer | None = None) -> Pass:
    """Run every operation once on every graph, timing each call.

    The reference work runs before and after every group of calls (one
    operation on one graph, or one graph's batch of queries), and the
    group's times are scaled by the nominal reference time over the mean of
    those two readings.
    """
    result = Pass()
    clock = time.perf_counter
    speed = [reference_time()]

    def call(key: tuple, name: str, fn, *args):
        result.attempted += 1
        start = clock()
        try:
            out = tracer.root(f"op.{name}", fn, *args) if tracer else fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            out = Raised(exc)
        took = clock() - start
        result.raw[key] = out
        result.answers[key] = canonical(key[1], out)
        return out, took

    def settle(metric: str, times: list[float]) -> None:
        speed.append(reference_time())
        scale = REFERENCE_NOMINAL_S * 2 / (speed[-2] + speed[-1])
        result.scales.append(scale)
        result.wall += sum(times)
        if metric == "hull":
            result.hull_times.extend(t * scale for t in times)
        else:
            result.totals[metric] = result.totals.get(metric, 0.0) + sum(times) * scale

    gc.collect()
    for gi, item in enumerate(loaded):
        g = item.graph
        for op, fn in (
            ("decompose", decomposition.decompose),
            ("convexity_number", convexity_number.convexity_number),
            ("hull_number", hull_number.hull_number),
        ):
            settle(op, [call((gi, op), op, fn, g)[1]])
        hulls, times = [], []
        for q, seed in enumerate(item.seeds):
            hull, took = call((gi, "hull", q), "hull", convexity.t_convex_hull, g, seed)
            hulls.append(hull)
            times.append(took)
        settle("hull", times)
        times = []
        tests = [("seed_test", q, s) for q, s in enumerate(item.seeds)]
        tests += [("hull_test", q, h) for q, h in enumerate(hulls) if not isinstance(h, Raised)]
        for kind, q, s in tests:
            times.append(call((gi, kind, q), "convex_test", convexity.is_t_convex, g, s)[1])
        settle("convex_test", times)
    return result


# ---------------------------------------------------------------------------
# Checks, outside the timed region.


def _leaves(g: Graph) -> int:
    return sum(1 for v in range(g.n) if g.degree(v) == 1)


def check_answers(loaded: list[Loaded], first: Pass) -> set[tuple]:
    """Keys of the first pass's answers that fail a correctness check."""
    bad = set()
    raw = first.raw
    for gi, item in enumerate(loaded):
        g = item.graph
        full = (1 << g.n) - 1
        tree_like = item.spec.family in ("tree", "path", "star")

        def fails(key: tuple, predicate) -> None:
            out = raw.get(key)
            if out is None or isinstance(out, Raised) or not predicate(out):
                bad.add(key)

        fails((gi, "decompose"), lambda d: decomposition.verify_d_ordering(
            g, d, check_atom_primality=False))
        fails((gi, "convexity_number"), lambda r: (
            0 < r.value < g.n
            and len(r.witness) == r.value
            and r.seed.bits & ~r.witness.bits == 0
            and convexity.is_t_convex(g, r.witness)[0]
            and (not tree_like or r.value == g.n - 1)
        ))
        fails((gi, "hull_number"), lambda r: (
            len(r.hull_set) == r.value
            and convexity.t_convex_hull(g, r.hull_set).bits == full
            and (not tree_like or r.value == _leaves(g))
        ))
        for q, seed in enumerate(item.seeds):
            hull = raw.get((gi, "hull", q))
            fails((gi, "hull", q), lambda h: seed.bits & ~h.bits == 0)
            hull_ok = (gi, "hull", q) not in bad
            fails((gi, "hull_test", q), lambda t: t == (True, None) and hull_ok)
            fails((gi, "seed_test", q), lambda t: hull_ok and t[0] == (hull.bits == seed.bits))
    return bad


def answer_digests(loaded: list[Loaded], first: Pass) -> dict[str, dict[str, str]]:
    """Per graph and operation kind, a digest of every answer of the pass."""
    out = {}
    for gi, item in enumerate(loaded):
        per_kind: dict[str, list] = {}
        for key, answer in first.answers.items():
            if key[0] == gi:
                per_kind.setdefault(key[1], []).append((key[2:], answer))
        out[item.spec.label] = {
            kind: digest(sorted(v, key=lambda pair: pair[0])) for kind, v in per_kind.items()
        }
    return out


def load_expected(scale: str, workload: str, seed: int) -> dict | None:
    if not EXPECTED_PATH.is_file():
        return None
    table = json.loads(EXPECTED_PATH.read_text())
    return table.get(f"{scale}/{workload}/{seed}")


def mismatched_kinds(digests: dict, expected: dict | None) -> set[tuple[str, str]]:
    """(graph label, kind) pairs whose answers differ from the committed ones."""
    if expected is None:
        return set()
    wrong = set()
    for label in set(digests) | set(expected):
        mine, theirs = digests.get(label, {}), expected.get(label, {})
        for kind in set(mine) | set(theirs):
            if mine.get(kind) != theirs.get(kind):
                wrong.add((label, kind))
    return wrong


# ---------------------------------------------------------------------------
# Metrics.


def _tail(samples: list[float]) -> tuple[float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100
    return ordered[n - TAIL_BEYOND - 1], (100 * (n - TAIL_BEYOND)) // n


def end_to_end(passes: list[Pass], setup_s: float) -> tuple[dict[str, float], str]:
    per_query = [statistics.median(ts) for ts in zip(*(p.hull_times for p in passes))]
    per_query_ms = [t * 1000.0 for t in per_query]
    tail, pct = _tail(per_query_ms)
    metrics = {
        "setup_s": setup_s,
        "hull_ms.p50": statistics.median(per_query_ms),
        "hull_ms.tail": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for op in ("decompose", "convexity_number", "hull_number", "convex_test"):
        metrics[f"{op}_s"] = statistics.median(p.totals[op] for p in passes)
    note = (
        f"hull_ms.tail is p{pct} of {len(per_query)} queries, each the median of "
        f"{len(passes)} passes"
    )
    return metrics, note


def layer_sample(tracer: Tracer, loaded: list[Loaded], traced: Pass) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    spans = tracer.spans
    scale = statistics.median(traced.scales)
    out: dict[str, float] = {}
    for metric, span, parent, suffixes in SPAN_METRICS:
        if span not in spans:
            continue
        calls, total, own = tracer.totals(span, parent)
        values = {"calls": calls, "s": own * scale, "total_s": total * scale}
        for suffix in suffixes:
            out[f"{metric}.{suffix}"] = values[suffix]
    decs = [traced.answers[(gi, "decompose")] for gi in range(len(loaded))]
    if not any(isinstance(d, Raised) for d in decs):
        out["decomposition.atoms"] = sum(len(d[0]) for d in decs)
        out["decomposition.largest_atom"] = max(a.bit_count() for d in decs for a in d[0])
    if "prime.enumerate" in spans:
        out["prime.convex_sets"] = tracer.counters["prime.convex_sets"]
    if {"convexity.hull", "convexity.p3_scan"} <= spans:
        out["convexity.hull.rounds"] = tracer.totals("convexity.p3_scan", "convexity.hull")[0]
    if "convexity_number.extension" in spans:
        calls = tracer.totals("convexity_number.extension")[0]
        useful = tracer.counters["convexity_number.extension.useful"]
        out["convexity_number.extension.useful_ratio"] = useful / calls if calls else 0.0
    return out


# ---------------------------------------------------------------------------
# One run.


@dataclass
class RunResult:
    metrics: dict[str, float]
    attempted: int
    failed: int
    notes: list[str]
    digests: dict[str, dict[str, str]]
    answers: list[dict[tuple, object]]


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str = "full",
) -> RunResult:
    inputs = generate(workload, seed, scale)
    loaded, setup_s = setup(inputs)
    tracer = Tracer() if trace else None
    plain: list[Pass] = []
    traced: list[Pass] = []
    samples: list[dict[str, float]] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        plain.append(run_pass(loaded))
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                traced.append(run_pass(loaded, tracer))
            finally:
                tracer.restore()
            samples.append(layer_sample(tracer, loaded, traced[-1]))
            traced[-1].raw.clear()
        if len(plain) > 1:
            plain[-1].raw.clear()  # only the first pass's answers are checked in full
        took = time.perf_counter() - began
        if len(plain) >= MIN_PASSES and time.perf_counter() - start + took > seconds:
            break

    passes = plain + traced
    first = passes[0]
    bad = check_answers(loaded, first)
    digests = answer_digests(loaded, first)
    wrong = mismatched_kinds(digests, load_expected(scale, workload, seed))
    labels = [item.spec.label for item in loaded]
    failed = 0
    reasons: dict[tuple, str] = {}
    for p in passes:
        for key, answer in p.answers.items():
            if isinstance(answer, Raised):
                reason = f"raised {answer.text}"
            elif answer != first.answers.get(key):
                reason = "differs from the first pass"
            elif key in bad:
                reason = "failed its check"
            elif (labels[key[0]], key[1]) in wrong:
                reason = "differs from expected.json"
            else:
                continue
            failed += 1
            reasons.setdefault(key, reason)

    scales = [s for p in passes for s in p.scales]
    notes = [
        f"{len(plain)} untraced and {len(traced)} traced passes; unscaled time of all calls "
        f"{sum(p.wall for p in passes):.3f} s; speed scale median {statistics.median(scales):.3f}, "
        f"range {min(scales):.3f}-{max(scales):.3f}"
    ]
    notes += [f"{labels[k[0]]} {k[1:]}: {why}" for k, why in sorted(reasons.items(), key=repr)]
    if tracer is not None:
        metrics = {
            name: statistics.median_low(s[name] for s in samples)
            for name in PER_LAYER_UNITS
            if all(name in s for s in samples)
        }
        metrics["trace.overhead_ratio"] = (
            statistics.median(p.scaled_wall for p in traced)
            / statistics.median(p.scaled_wall for p in plain)
            - 1.0
        )
        notes += [f"absent wrap point: {label}" for label in tracer.missing]
    else:
        metrics, note = end_to_end(plain, setup_s)
        notes.append(note)
    return RunResult(
        metrics,
        sum(p.attempted for p in passes),
        failed,
        notes,
        digests,
        [p.answers for p in passes],
    )
