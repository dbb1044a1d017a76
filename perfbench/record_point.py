"""Run every workload over several seeds, report the spread, and record a trajectory point.

    python3 perfbench/record_point.py --commit abc1234 --seeds 1-10 [--append]

Each run is ``run.py`` in its own process, one after another, for the
run_seconds of BENCHMARK.json.  For every end-to-end metric the script prints
the median and the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound.  Two traced runs per workload follow; their exact per-layer
counts must agree.  With --append, one line per workload and trace mode goes to trajectory.jsonl:
the contract's result form (correct, attempted, failed, metrics with value and
unit), with each value the median over the runs; ``iqr_share`` and ``values``
give each metric's spread and its value in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.jsonl"
TRACED_RUNS = 2


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(spec, workload: str, seed: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarise(results: list[dict]) -> dict:
    names = results[0]["metrics"]
    point = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {},
        "iqr_share": {},
        "values": {},
    }
    for name, first in names.items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        point["metrics"][name] = {"value": median, "unit": first["unit"]}
        point["values"][name] = values
        if len(values) > 1 and median:
            q1, _, q3 = statistics.quantiles(values, n=4)
            point["iqr_share"][name] = (q3 - q1) / median
    return point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", required=True, help="the commit of src/ being measured")
    parser.add_argument("--seeds", default="1-10", help="a range lo-hi or a comma list")
    parser.add_argument("--append", action="store_true", help=f"append the point to {TRAJECTORY.name}")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    exact = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    seeds = parse_seeds(args.seeds)
    points = []
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run_once(spec, workload, seed, 0) for seed in seeds]
        point = summarise(results)
        print(f"{workload}: {len(results)} runs, seeds {args.seeds}, failed {point['failed']}/{point['attempted']}")
        for name, metric in point["metrics"].items():
            share = point["iqr_share"].get(name, 0.0)
            flag = "" if share < bounds[name] / 3 else "  <-- spread above a third of the bound"
            print(f"  {name:<20} median {metric['value']:<12.6g} iqr/median {share:.3f}  bound {bounds[name]}{flag}")
        points.append({"commit": args.commit, "workload": workload, "trace": 0, "seeds": seeds, **point})
        traced = [run_once(spec, workload, seeds[0], 1) for _ in range(TRACED_RUNS)]
        counts = [{n: r["metrics"][n]["value"] for n in exact} for r in traced]
        print(f"  traced: {len(traced)} runs at seed {seeds[0]}, exact counts repeat: {all(c == counts[0] for c in counts)}")
        points.append({"commit": args.commit, "workload": workload, "trace": 1, "seeds": [seeds[0]], **summarise(traced)})
    if args.append:
        with open(TRAJECTORY, "a") as f:
            for point in points:
                f.write(json.dumps(point) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
