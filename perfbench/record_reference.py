"""Rewrite perfbench/reference.json from the library under src/.

    python3 perfbench/record_reference.py

For every workload, runs each pool instance once at the reference seed and
stores the SHA-256 of its canonical-JSON output.  Refuses to write when the
gate's independent routes disagree with any output.  Run it only at a commit
whose outputs are trusted; the gate then holds later commits to them.
"""

from __future__ import annotations

import json
import sys

import gate
from run import NULL, set_up
from workloads import WORKLOADS


def main() -> int:
    reference = {}
    for workload in WORKLOADS.values():
        ctx, _, _ = set_up(workload, gate.REFERENCE_SEED, tiny=False)
        outputs = {i: workload.op(ctx.lib, inst.dg, NULL) for i, inst in enumerate(ctx.pool)}
        failures = gate.check(ctx.lib, workload, ctx.pool, outputs, reference=None)
        if failures:
            for index, reason in sorted(failures.items()):
                print(f"{workload.name} {ctx.pool[index].key}: {reason}", file=sys.stderr)
            return 1
        reference[workload.name] = {ctx.pool[i].key: gate.digest(text) for i, text in outputs.items()}
    with open(gate.REFERENCE_PATH, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
