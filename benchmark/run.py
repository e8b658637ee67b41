"""Run one benchmark workload against the triconvex sources beside it.

    python3 benchmark/run.py --workload prime-dense --seed 0 --seconds 30 --trace 0

The inputs are generated from ``--seed`` by the benchmark's own code and
handed to the library as edge-list and DIMACS text. Passes over the
workload repeat for about ``--seconds`` seconds, then every answer is
checked. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics, or with ``--trace 1`` the per-layer metrics of a traced run. The
exit code is 0 when every answer checked out, 1 when one did not, and 2
when the library sources are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from workloads import FULL

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(FULL))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library() -> None:
    """Put the checkout's ``src`` first on the path; refuse any other copy."""
    if not (SRC / "triconvex" / "__init__.py").is_file():
        raise ImportError(f"no triconvex sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import triconvex

    if Path(triconvex.__file__).resolve().parent != SRC / "triconvex":
        raise ImportError(f"imported triconvex from {triconvex.__file__}, not {SRC}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        import_library()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import harness

    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    units = harness.PER_LAYER_UNITS if args.trace else harness.END_TO_END_UNITS
    for note in result.notes:
        print(f"# {note}")
    for name, value in result.metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": result.failed == 0,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in result.metrics.items()
                },
            }
        )
    )
    return 0 if result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
