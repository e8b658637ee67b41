"""Command-line interface.

Every subcommand reads a graph (``--graph FILE`` or ``--generate
KIND:PARAMS``), runs one algorithm, and emits either human-readable text
or a JSON report. Exit codes: 0 success, 1 validation error, 2 oracle
mismatch, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from . import __version__
from .bitset import VertexSet
from .convexity import is_t_convex, t_convex_hull
from .convexity_number import convexity_number
from .decomposition import decompose, is_prime
from .errors import ContractViolationError, Error, ValidationError
from .generators import all_connected_graphs, from_spec, random_connected_graph
from .graph import FORMATS, Graph, load_graph, to_edge_list
from .hull_number import hull_number
from .oracle import DEFAULT_BUDGET, run_cross_validation
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


def _add_graph_arguments(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", metavar="FILE", help="graph file to read")
    src.add_argument(
        "--generate",
        metavar="KIND:PARAMS",
        help="generate a named graph, e.g. cycle:5 or random_connected:100,0.05",
    )
    p.add_argument("--format", choices=FORMATS, help="override format sniffing")
    p.add_argument("--seed", type=int, default=0, help="seed for generated graphs")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit a JSON report")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="triconvex", description=__doc__)
    parser.add_argument("--version", action="version", version=f"triconvex {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="maximal prime subgraphs and overlap sets")
    _add_graph_arguments(p)
    _add_common(p)

    p = sub.add_parser("convex-test", help="test a vertex set for convexity")
    _add_graph_arguments(p)
    _add_common(p)
    p.add_argument("--vertices", required=True, help="comma-separated vertex ids")

    p = sub.add_parser("hull", help="convex hull of a vertex set")
    _add_graph_arguments(p)
    _add_common(p)
    p.add_argument("--vertices", required=True, help="comma-separated vertex ids")

    p = sub.add_parser("enumerate-prime", help="all convex sets of a prime graph")
    _add_graph_arguments(p)
    _add_common(p)
    p.add_argument("--checked", action="store_true", help="reject a graph that is not prime")

    p = sub.add_parser("convexity-number", help="maximum proper convex set")
    _add_graph_arguments(p)
    _add_common(p)

    p = sub.add_parser("hull-number", help="minimum hull set")
    _add_graph_arguments(p)
    _add_common(p)

    p = sub.add_parser("oracle-compare", help="cross-validate against brute force")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", metavar="FILE")
    src.add_argument("--generate", metavar="KIND:PARAMS")
    src.add_argument(
        "--corpus",
        metavar="SPEC",
        help="exhaustive:N (all connected graphs, n <= N <= 6) or random:N,COUNT[,SEED]",
    )
    p.add_argument("--format", choices=FORMATS)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)

    p = sub.add_parser("bench", help="timing table over generated graphs")
    p.add_argument(
        "--algorithm",
        required=True,
        choices=("decompose", "hull", "convexity-number", "hull-number"),
    )
    p.add_argument("--sizes", required=True, help="comma-separated vertex counts")
    p.add_argument("--p", type=float, default=0.05, help="edge probability")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=3, help="timing repetitions per size")
    _add_common(p)

    p = sub.add_parser("generate", help="write a generated graph as an edge list")
    p.add_argument("--generate", dest="spec", required=True, metavar="KIND:PARAMS")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)

    return parser


def _read_graph(args: argparse.Namespace) -> Graph:
    if getattr(args, "graph", None):
        return load_graph(args.graph, args.format)
    return from_spec(args.generate, default_seed=args.seed)


def _parse_ints(text: str, what: str) -> list[int]:
    """Comma-separated integers, or a ValidationError naming ``what``."""
    try:
        return [int(tok) for tok in text.split(",")]
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


def _corpus_graphs(spec: str, default_seed: int) -> list[Graph]:
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
        graphs: list[Graph] = []
        for n in range(1, limit + 1):
            graphs.extend(all_connected_graphs(n))
        return graphs
    if kind == "random":
        if len(args) not in (2, 3):
            raise ValidationError(f"corpus spec {spec!r} needs random:N,COUNT[,SEED]")
        n, count = args[0], args[1]
        if count < 1:
            raise ValidationError(f"corpus spec {spec!r}: COUNT must be at least 1")
        seed0 = args[2] if len(args) > 2 else default_seed
        probs = (0.2, 0.3, 0.4, 0.5, 0.6)
        return [
            random_connected_graph(n, probs[i % len(probs)], seed0 + i) for i in range(count)
        ]
    raise Error(f"unknown corpus spec {spec!r}")


def _run_command(args: argparse.Namespace) -> tuple[dict, int, Graph | None, int | None]:
    """Returns (result payload, exit code, graph, atom count if computed)."""
    cmd = args.command

    if cmd == "generate":
        g = from_spec(args.spec, default_seed=args.seed)
        payload = {"n": g.n, "edges": [list(e) for e in g.edges()]}
        return payload, EXIT_OK, g, None

    if cmd == "bench":
        return _run_bench(args), EXIT_OK, None, None

    if cmd == "oracle-compare":
        if args.corpus:
            graphs = _corpus_graphs(args.corpus, args.seed)
        else:
            graphs = [_read_graph(args)]
        mismatches = run_cross_validation(graphs, DEFAULT_BUDGET)
        payload = {
            "graphs": len(graphs),
            "mismatches": mismatches,
        }
        return payload, EXIT_MISMATCH if mismatches else EXIT_OK, None, None

    g = _read_graph(args)

    if cmd == "decompose":
        dec = decompose(g)
        payload = {
            "atoms": [sorted(a) for a in dec.atoms],
            "r_sets": [sorted(r) for r in dec.r_sets],
        }
        return payload, EXIT_OK, g, dec.t

    if cmd == "convex-test":
        s = _parse_vertices(args.vertices, g.n)
        convex, witness = is_t_convex(g, s)
        return {"convex": convex, "witness": _witness_json(witness)}, EXIT_OK, g, None

    if cmd == "hull":
        s = _parse_vertices(args.vertices, g.n)
        return {"hull": sorted(t_convex_hull(g, s))}, EXIT_OK, g, None

    if cmd == "enumerate-prime":
        if args.checked and not is_prime(g):
            raise ContractViolationError("graph is not prime")
        family = enumerate_prime_convex_sets(g)
        return {"sets": [sorted(s) for s in family]}, EXIT_OK, g, None

    if cmd == "convexity-number":
        res = convexity_number(g)
        payload = {"value": res.value, "witness": sorted(res.witness)}
        return payload, EXIT_OK, g, None

    if cmd == "hull-number":
        res = hull_number(g)
        payload = {"value": res.value, "hull_set": sorted(res.hull_set), "verified": True}
        return payload, EXIT_OK, g, None

    raise Error(f"unknown command {cmd!r}")


def _run_bench(args: argparse.Namespace) -> dict:
    runners = {
        "decompose": lambda g: decompose(g),
        "hull": lambda g: t_convex_hull(g, _bench_seed_set(g)),
        "convexity-number": lambda g: convexity_number(g),
        "hull-number": lambda g: hull_number(g),
    }
    run = runners[args.algorithm]
    rows = []
    for n in _parse_ints(args.sizes, "--sizes"):
        g = random_connected_graph(n, args.p, args.seed)
        times = []
        for _ in range(max(1, args.reps)):
            t0 = time.perf_counter()
            run(g)
            times.append((time.perf_counter() - t0) * 1000.0)
        rows.append(
            {
                "algorithm": args.algorithm,
                "n": n,
                "m": g.m,
                "median_ms": round(statistics.median(times), 3),
                "reps": len(times),
            }
        )
    return {"rows": rows}


def _bench_seed_set(g: Graph) -> VertexSet:
    if g.n < 2:
        return VertexSet.full(g.n)
    return VertexSet.from_iterable(g.n, (0, g.n - 1))


def _print_human(args: argparse.Namespace, payload: dict) -> None:
    cmd = args.command
    if cmd == "generate":
        g = Graph(payload["n"], [tuple(e) for e in payload["edges"]])
        sys.stdout.write(to_edge_list(g))
    elif cmd == "bench":
        print("algorithm,n,m,median_ms,reps")
        for row in payload["rows"]:
            print(f"{row['algorithm']},{row['n']},{row['m']},{row['median_ms']},{row['reps']}")
    elif cmd == "oracle-compare":
        print(f"compared {payload['graphs']} graph(s): {len(payload['mismatches'])} mismatch(es)")
        for line in payload["mismatches"]:
            print(f"  {line}")
    elif cmd == "decompose":
        for i, atom in enumerate(payload["atoms"], 1):
            print(f"atom {i}: {atom}")
        for i, r in enumerate(payload["r_sets"], 2):
            print(f"overlap R_{i}: {r}")
    elif cmd == "convex-test":
        print("convex" if payload["convex"] else f"not convex: {payload['witness']}")
    elif cmd == "hull":
        print(f"hull: {payload['hull']}")
    elif cmd == "enumerate-prime":
        print(f"{len(payload['sets'])} convex sets")
        for s in payload["sets"]:
            print(f"  {s}")
    elif cmd == "convexity-number":
        print(f"convexity number: {payload['value']} witness: {payload['witness']}")
    elif cmd == "hull-number":
        print(f"hull number: {payload['value']} hull set: {payload['hull_set']}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        payload, code, g, atom_count = _run_command(args)
    except (Error, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    wall_ms = round((time.perf_counter() - started) * 1000.0, 3)
    if args.json:
        report = {
            "command": args.command,
            "input": getattr(args, "graph", None) or getattr(args, "generate", None)
            or getattr(args, "spec", None) or getattr(args, "corpus", None),
            "result": payload,
            "wall_ms": wall_ms,
            "graph": {
                "n": g.n if g is not None else None,
                "m": g.m if g is not None else None,
                "atoms": atom_count,
            },
        }
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        _print_human(args, payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
