"""Command-line interface.

Each subcommand is defined once, in ``COMMANDS``: its help, its arguments
and the function that runs it. The six graph subcommands and
``oracle-compare`` read a graph from ``--graph FILE`` or ``--generate
KIND:PARAMS``, and ``oracle-compare`` also takes ``--corpus SPEC``;
``bench`` builds its own graphs, from ``--sizes`` or from one or more
``--generate`` specs, and ``generate`` takes a spec only. Each
emits human-readable text or, with ``--json``, a JSON report. Exit codes:
0 success, 1 validation error or closed output, 2 oracle mismatch, 64
usage error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import sys
import time
from typing import Iterator

from . import __version__
from .bitset import VertexSet
from .convexity import is_t_convex, t_convex_hull
from .convexity_number import convexity_number
from .decomposition import decompose, is_prime
from .errors import ContractViolationError, Error, ValidationError
from .generators import all_connected_graphs, from_spec, random_connected_graph
from .graph import (
    FORMATS,
    Graph,
    _check_decimal,
    edge_list_lines,
    load_graph,
    parse_graph,
    to_edge_list,
)
from .hull_number import hull_number
from .oracle import MAX_PATH_VERTICES, run_cross_validation
from .prime import enumerate_prime_convex_sets

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_MISMATCH = 2
EXIT_USAGE = 64

# exhaustive:N enumerates 2^(N(N-1)/2) edge subsets per size: 32,768 at
# N = 6, 2,097,152 at N = 7.
MAX_EXHAUSTIVE_N = 6


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse default exits with 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _graph_source(p: argparse.ArgumentParser, corpus: bool = False) -> None:
    """Add ``--graph``/``--generate`` (with ``corpus``, also ``--corpus``),
    ``--format`` and ``--seed`` to ``p``."""
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", metavar="FILE", help="graph file to read")
    src.add_argument(
        "--generate",
        metavar="KIND:PARAMS",
        help="generate a named graph, e.g. cycle:5 or random_connected:100,0.05",
    )
    if corpus:
        src.add_argument(
            "--corpus",
            metavar="SPEC",
            help="exhaustive:N (all connected graphs, n <= N <= 6) or random:N,COUNT[,SEED]",
        )
    p.add_argument("--format", choices=FORMATS, help="override format sniffing")
    p.add_argument("--seed", type=int, default=0, help="seed for generated graphs")


def _vertex_arguments(p: argparse.ArgumentParser) -> None:
    _graph_source(p)
    p.add_argument("--vertices", required=True, help="comma-separated vertex ids")


def _bench_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--algorithm", required=True, choices=tuple(_BENCH_RUNS))
    p.add_argument("--sizes", help="comma-separated vertex counts of random graphs")
    p.add_argument("--p", type=float, help="edge probability of --sizes (default 0.05)")
    p.add_argument(
        "--generate",
        dest="specs",
        action="append",
        metavar="KIND:PARAMS",
        help="a generated graph to time instead of --sizes; repeatable",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=3, help="timing repetitions per size")


def _spec_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--generate", required=True, metavar="KIND:PARAMS")
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="triconvex", description=__doc__)
    parser.add_argument("--version", action="version", version=f"triconvex {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.add_argument("--json", action="store_true", help="emit a JSON report")
    return parser


def _read_graph(args: argparse.Namespace) -> Graph:
    """The graph of ``--graph FILE`` or ``--generate KIND:PARAMS``."""
    if getattr(args, "graph", None):
        return load_graph(args.graph, args.format)
    return from_spec(args.generate, default_seed=args.seed)


def _parse_ints(text: str, what: str) -> list[int]:
    """Comma-separated ASCII decimal integers, as in graph files, each with
    the whitespace around it dropped, or a ValidationError naming ``what``."""
    fields = [tok.strip() for tok in text.split(",")]
    try:
        _check_decimal(text, fields)
        return [int(tok) for tok in fields]
    except ValueError:
        raise ValidationError(f"{what} must be comma-separated integers, got {text!r}") from None


def _parse_vertices(text: str, n: int) -> VertexSet:
    if not text.strip():
        return VertexSet(n, 0)
    try:
        return VertexSet.from_iterable(n, _parse_ints(text, "--vertices"))
    except ValueError as exc:
        raise ValidationError(str(exc)) from None


def _witness_json(witness) -> dict | None:
    if witness is None:
        return None
    out: dict = {"kind": witness.kind}
    if witness.vertex is not None:
        out["vertex"] = witness.vertex
    if witness.pair is not None:
        out["pair"] = list(witness.pair)
    if witness.component is not None:
        out["component"] = sorted(witness.component)
    return out


def _corpus_graphs(spec: str, default_seed: int) -> Iterator[Graph]:
    """The graphs of a corpus spec, checked in full and then built lazily."""
    kind, _, argtext = spec.partition(":")
    fields = ",".join(a for a in argtext.split(",") if a)
    args = _parse_ints(fields, f"corpus spec {spec!r}") if fields else []
    if kind == "exhaustive":
        if len(args) != 1:
            raise ValidationError(f"corpus spec {spec!r} needs exhaustive:N")
        limit = args[0]
        if limit < 1:
            raise ValidationError(f"corpus spec {spec!r}: N must be at least 1")
        if limit > MAX_EXHAUSTIVE_N:
            raise ValidationError(
                f"corpus spec {spec!r}: exhaustive corpora go up to n = {MAX_EXHAUSTIVE_N}"
            )
        return itertools.chain.from_iterable(map(all_connected_graphs, range(1, limit + 1)))
    if kind == "random":
        if len(args) not in (2, 3):
            raise ValidationError(f"corpus spec {spec!r} needs random:N,COUNT[,SEED]")
        n, count = args[0], args[1]
        if n > MAX_PATH_VERTICES:
            raise ValidationError(
                f"corpus spec {spec!r}: the oracles go up to n = {MAX_PATH_VERTICES}"
            )
        if count < 1:
            raise ValidationError(f"corpus spec {spec!r}: COUNT must be at least 1")
        seed0 = args[2] if len(args) > 2 else default_seed
        probs = (0.2, 0.3, 0.4, 0.5, 0.6)
        return (
            random_connected_graph(n, probs[i % len(probs)], seed0 + i) for i in range(count)
        )
    raise ValidationError(f"unknown corpus spec {spec!r}")


def _decompose(args: argparse.Namespace, g: Graph) -> tuple[dict, list[str]]:
    dec = decompose(g)
    atoms = [sorted(a) for a in dec.atoms]
    r_sets = [sorted(r) for r in dec.r_sets]
    lines = [f"atom {i}: {a}" for i, a in enumerate(atoms, 1)]
    lines += [f"overlap R_{i}: {r}" for i, r in enumerate(r_sets, 2)]
    return {"atoms": atoms, "r_sets": r_sets}, lines


def _convex_test(args: argparse.Namespace, g: Graph) -> tuple[dict, list[str]]:
    convex, witness = is_t_convex(g, _parse_vertices(args.vertices, g.n))
    result = {"convex": convex, "witness": _witness_json(witness)}
    return result, ["convex" if convex else f"not convex: {result['witness']}"]


def _hull(args: argparse.Namespace, g: Graph) -> tuple[dict, list[str]]:
    hull = sorted(t_convex_hull(g, _parse_vertices(args.vertices, g.n)))
    return {"hull": hull}, [f"hull: {hull}"]


def _enumerate_prime(args: argparse.Namespace, g: Graph) -> tuple[dict, list[str]]:
    if not is_prime(g):
        raise ContractViolationError("graph is not prime")
    sets = [sorted(s) for s in enumerate_prime_convex_sets(g)]
    return {"sets": sets}, [f"{len(sets)} convex sets", *(f"  {s}" for s in sets)]


def _convexity_number(args: argparse.Namespace, g: Graph) -> tuple[dict, list[str]]:
    res = convexity_number(g)
    witness = sorted(res.witness)
    return {"value": res.value, "witness": witness}, [
        f"convexity number: {res.value} witness: {witness}"
    ]


def _hull_number(args: argparse.Namespace, g: Graph) -> tuple[dict, list[str]]:
    res = hull_number(g)
    hull_set = sorted(res.hull_set)
    return {"value": res.value, "hull_set": hull_set, "verified": True}, [
        f"hull number: {res.value} hull set: {hull_set}"
    ]


def _oracle_compare(args: argparse.Namespace, _: None) -> tuple[dict, list[str]]:
    graphs = _corpus_graphs(args.corpus, args.seed) if args.corpus else [_read_graph(args)]
    # zip draws a graph before a tick, so the ticks taken count the graphs.
    ticks = itertools.count()
    mismatches = run_cross_validation(g for g, _ in zip(graphs, ticks))
    count = next(ticks)
    lines = [f"compared {count} graph(s): {len(mismatches)} mismatch(es)"]
    lines += [f"  {line}" for line in mismatches]
    return {"graphs": count, "mismatches": mismatches}, lines


_BENCH_RUNS = {
    "decompose": decompose,
    # the hull and the convexity test of the two end vertices, or of the
    # one vertex of K_1
    "hull": lambda g: t_convex_hull(g, VertexSet.from_iterable(g.n, {0, g.n - 1})),
    "convex-test": lambda g: is_t_convex(g, VertexSet.from_iterable(g.n, {0, g.n - 1})),
    "convexity-number": convexity_number,
    "hull-number": hull_number,
    "parse": parse_graph,
}
# What an algorithm times instead of the graph, made before the timed calls:
# parse reads the graph's edge-list text.
_BENCH_INPUTS = {"parse": to_edge_list}
_BENCH_COLUMNS = ("algorithm", "spec", "n", "m", "median_ms", "reps")


def _bench(args: argparse.Namespace, _: None) -> tuple[dict, list[str]]:
    if args.reps < 1:
        raise ValidationError(f"--reps must be at least 1, got {args.reps}")
    if args.specs:
        if args.sizes is not None or args.p is not None:
            raise ValidationError("bench takes --generate or --sizes and --p, not both")
        specs = args.specs
    elif args.sizes is not None:
        p = 0.05 if args.p is None else args.p
        sizes = _parse_ints(args.sizes, "--sizes")
        specs = [f"random_connected:{n},{p},{args.seed}" for n in sizes]
    else:
        raise ValidationError("bench needs --sizes or --generate")
    run = _BENCH_RUNS[args.algorithm]
    rows = []
    for spec in specs:
        g = from_spec(spec, default_seed=args.seed)
        arg = _BENCH_INPUTS[args.algorithm](g) if args.algorithm in _BENCH_INPUTS else g
        times = []
        for _ in range(args.reps):
            t0 = time.perf_counter()
            run(arg)
            times.append((time.perf_counter() - t0) * 1000.0)
        median = round(statistics.median(times), 3)
        values = (args.algorithm, spec, g.n, g.m, median, len(times))
        rows.append(dict(zip(_BENCH_COLUMNS, values)))
    lines = [",".join(_BENCH_COLUMNS)]
    lines += [",".join(str(row[c]) for c in _BENCH_COLUMNS) for row in rows]
    return {"rows": rows}, lines


def _generate(args: argparse.Namespace, g: Graph) -> tuple[dict, Iterator[str]]:
    # The report holds the edges as pairs; the text streams them.
    edges = list(g.edges()) if args.json else None
    return {"n": g.n, "edges": edges}, edge_list_lines(g)


# Each subcommand: its help, a function adding its arguments but --json,
# and run(args, graph), which returns the JSON result and the human lines.
COMMANDS = {
    "decompose": ("maximal prime subgraphs and overlap sets", _graph_source, _decompose),
    "convex-test": ("test a vertex set for convexity", _vertex_arguments, _convex_test),
    "hull": ("convex hull of a vertex set", _vertex_arguments, _hull),
    "enumerate-prime": ("all convex sets of a prime graph", _graph_source, _enumerate_prime),
    "convexity-number": ("maximum proper convex set", _graph_source, _convexity_number),
    "hull-number": ("minimum hull set", _graph_source, _hull_number),
    "oracle-compare": (
        "cross-validate against brute force",
        lambda p: _graph_source(p, corpus=True),
        _oracle_compare,
    ),
    "bench": ("timing table over generated graphs", _bench_arguments, _bench),
    "generate": ("write a generated graph as an edge list", _spec_arguments, _generate),
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    run = COMMANDS[args.command][2]
    started = time.perf_counter()
    try:
        # oracle-compare reads its own graphs and bench builds its own.
        g = None if args.command in ("oracle-compare", "bench") else _read_graph(args)
        payload, lines = run(args, g)
        if args.json:
            report = {
                "command": args.command,
                "input": getattr(args, "graph", None) or getattr(args, "generate", None)
                or getattr(args, "corpus", None),
                "result": payload,
                "wall_ms": round((time.perf_counter() - started) * 1000.0, 3),
                "graph": {
                    "n": None if g is None else g.n,
                    "m": None if g is None else g.m,
                    "atoms": len(payload["atoms"]) if "atoms" in payload else None,
                },
            }
            # The report is one line, written as the encoder's chunks, never
            # as one string.
            encoded = json.JSONEncoder(indent=2, sort_keys=True).iterencode(report)
            chunks = itertools.chain(encoded, ("\n",))
        else:
            chunks = itertools.chain.from_iterable(zip(lines, itertools.repeat("\n")))
        # Each newline is its own write: a write the closed pipe cuts short
        # raises nothing, but the newline after it, or the flush, raises
        # BrokenPipeError.
        write = sys.stdout.write
        for chunk in chunks:
            write(chunk)
        sys.stdout.flush()
    except (Error, OSError) as exc:
        if isinstance(exc, BrokenPipeError):
            # The reader closed stdout: point it at the null device, so the
            # flush at exit has somewhere to write what is still buffered.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_MISMATCH if payload.get("mismatches") else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
