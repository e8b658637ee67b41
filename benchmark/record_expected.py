"""Record the answers the benchmark compares against (``expected.json``).

    python3 benchmark/record_expected.py

Runs one untraced pass of every workload for each recorded seed, at full
and tiny scale, checks the answers, and stores a digest of every answer
per graph and operation kind, witnesses and tie-breaks included. Record
only at a commit whose answers are known good: later commits must
reproduce these digests exactly.
"""

from __future__ import annotations

import json
import sys

from run import import_library

FULL_SEEDS = range(10)
TINY_SEEDS = range(3)


def main() -> int:
    import_library()
    import harness
    from workloads import SCALES

    table = {}
    for scale, seeds in (("full", FULL_SEEDS), ("tiny", TINY_SEEDS)):
        for workload in SCALES[scale]:
            for seed in seeds:
                loaded, _ = harness.setup(harness.generate(workload, seed, scale), repeats=1)
                first = harness.run_pass(loaded)
                bad = harness.check_answers(loaded, first)
                if bad:
                    print(f"{scale}/{workload}/{seed}: answers fail checks: {sorted(bad)}")
                    return 1
                table[f"{scale}/{workload}/{seed}"] = harness.answer_digests(loaded, first)
                print(f"recorded {scale}/{workload}/{seed}", flush=True)
    harness.EXPECTED_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
