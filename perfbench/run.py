"""Run one benchmark workload against the library under ``src/`` and print its metrics.

    python3 perfbench/run.py --workload expand-me --seed 1 --seconds 30 --trace 0

One process, one thread, closed loop: the next instance starts only after the
previous one returns, cycling through the workload's pool in a seeded order.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates untraced
and traced passes over the pool and prints the per-layer metrics (see
perfbench/README.md).  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  The exit code is 0 when the run completed, whatever the gate
found, and 2 when the library cannot be found or imported.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import gate  # noqa: E402
import calibration  # noqa: E402
from tracing import NullTracer, Patches, Tracer  # noqa: E402
from workloads import WORKLOADS, build_pool  # noqa: E402

SETUP_REPEATS = 3
LIBRARY_MODULES = ("cli", "checks", "digraph", "invariant", "ncsym", "setpart")
NULL = NullTracer()

# Per-layer self times, per traced instance: metric -> span names it sums.
LAYER_TIMES = {
    "digraph.ops_s": (
        "digraph.__init__", "digraph.delete_edges", "digraph.relabel", "digraph.contract_last_edge",
        "digraph.complement", "digraph.opposite", "digraph.product", "digraph.hamiltonian_path_count",
        "digraph.find_directed_cycle", "digraph.has_even_directed_cycle",
    ),
    "invariant.permutations_s": ("invariant.rb_by_permutations",),
    "invariant.deletion_contraction_s": ("invariant.rb_by_deletion_contraction",),
    "invariant.colorings_s": ("invariant.rb_by_colorings", "invariant.count_friendly"),
    "invariant.commutative_s": ("invariant.rb_commutative",),
    "invariant.tournament_s": ("invariant.rb_tournament",),
    "setpart.lattice_s": ("setpart.coarsenings", "setpart.refinements", "setpart.insert_last", "setpart.apply_perm"),
    "setpart.mobius_s": ("setpart.mobius", "setpart.mobius_from_bottom"),
    "ncsym.to_m_s": ("ncsym.to_basis.M",),
    "ncsym.to_e_s": ("ncsym.to_basis.E",),
    "ncsym.to_p_s": ("ncsym.to_basis.P",),
    "ncsym.commutative_image_s": ("ncsym.commutative_image",),
    "ncsym.arith_s": ("ncsym.__add__", "ncsym.scale", "ncsym.induct", "ncsym.act", "ncsym.multiply"),
    "ncsym.to_json_s": ("ncsym.to_json",),
    "checks.self_s": ("checks.check_identities",),
}
# Exact counts over the first traced pass: metric -> span names whose calls it sums.
LAYER_CALLS = {
    "digraph.delete_edges_calls": ("digraph.delete_edges",),
    "invariant.permutations_calls": ("invariant.rb_by_permutations",),
    "invariant.count_friendly_calls": ("invariant.count_friendly",),
    "setpart.mobius_calls": ("setpart.mobius", "setpart.mobius_from_bottom"),
    "ncsym.arith_calls": LAYER_TIMES["ncsym.arith_s"],
}
# Exact counts over the first traced pass, recorded by the tracer's own counters.
LAYER_COUNTS = (
    "invariant.p_terms", "ncsym.m_terms", "ncsym.e_terms", "ncsym.json_bytes",
    "checks.pass", "checks.skipped", "checks.fail",
)


class LibraryMissing(Exception):
    pass


@dataclass
class Context:
    lib: SimpleNamespace
    pool: list
    order: list[int]


@dataclass
class Op:
    index: int
    start: float
    end: float
    same: bool = False  # output equal to the instance's first output
    error: str | None = None
    calibrated: float = 0.0  # work time at the reference host speed (timed run only)


def import_library() -> SimpleNamespace:
    """Import redeiberge afresh from src/, dropping any earlier import and its caches."""
    if not (SRC / "redeiberge" / "__init__.py").is_file():
        raise LibraryMissing(f"no library source at {SRC / 'redeiberge'}")
    for name in [m for m in sys.modules if m == "redeiberge" or m.startswith("redeiberge.")]:
        del sys.modules[name]
    gc.collect()
    lib = SimpleNamespace(**{m: importlib.import_module("redeiberge." + m) for m in LIBRARY_MODULES})
    if Path(lib.cli.__file__).resolve().parent != SRC / "redeiberge":
        raise LibraryMissing(f"redeiberge imported from {lib.cli.__file__}, not from {SRC}")
    return lib


def set_up(workload, seed: int, tiny: bool) -> tuple[Context, tuple[float, float], float]:
    """Import, build the pool, warm up on its first instance.

    Returns (context, (start, end) of the whole set-up, pool load seconds).
    """
    start = time.perf_counter()
    lib = import_library()
    load_start = time.perf_counter()
    pool, order = build_pool(lib, workload, seed, tiny)
    load_seconds = time.perf_counter() - load_start
    try:
        workload.op(lib, pool[0].dg, NULL)
    except Exception:  # the timed passes record this instance's failure
        pass
    return Context(lib, pool, order), (start, time.perf_counter()), load_seconds


def run_pass(ctx: Context, workload, tracer, outputs: dict[int, str], deadline=None) -> list[Op]:
    """One closed-loop pass over the pool; with a deadline, start no instance after it.

    The first output of each instance is kept in `outputs`; later ones are
    compared with it and dropped, so memory does not grow with run length.
    """
    ops = []
    for index in ctx.order:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        tracer.instance = index
        start = time.perf_counter()
        try:
            output = tracer.call("bench.instance", workload.op, ctx.lib, ctx.pool[index].dg, tracer)
            ops.append(Op(index, start, time.perf_counter(), outputs.setdefault(index, output) == output))
        except Exception as exc:  # counted as a failed operation; the run goes on
            ops.append(Op(index, start, time.perf_counter(), error=repr(exc)))
    return ops


def op_ok(op: Op, failures: dict[int, str]) -> bool:
    return op.same and op.index not in failures


def run_timed(ctx: Context, workload, seconds: float, outputs: dict[int, str]):
    """Passes until the deadline; the last may be cut short. Returns (passes, rss MB)."""
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(run_pass(ctx, workload, NULL, outputs, deadline if passes else None))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return passes, rss_mb


def _cache_totals(lib):
    infos = (lib.setpart.coarsenings.cache_info(), lib.setpart.refinements.cache_info())
    return sum(i.hits for i in infos), sum(i.misses for i in infos), sum(i.currsize for i in infos)


def run_traced(ctx: Context, workload, seconds: float, tracer: Tracer, outputs: dict[int, str]):
    """Alternate untraced and traced full passes until the deadline.

    Returns (passes, overhead ratios of each traced pass over the untraced
    pass before it, first-pass counts).  Exact counts come from the first
    traced pass, which always follows the same warm-up and one untraced pass,
    so they repeat for a given seed.
    """
    patches = Patches(ctx.lib, tracer)
    passes, ratios = [], []
    first: dict[str, float] = {}
    deadline = time.perf_counter() + seconds
    while not first or time.perf_counter() < deadline:
        start = time.perf_counter()
        passes.append(run_pass(ctx, workload, NULL, outputs))
        untraced = time.perf_counter() - start
        hits0, misses0, _ = _cache_totals(ctx.lib)
        tracer.recording = not first
        patches.install()
        try:
            start = time.perf_counter()
            passes.append(run_pass(ctx, workload, tracer, outputs))
            ratios.append((time.perf_counter() - start) / untraced)
        finally:
            patches.restore()
            tracer.recording = False
        if not first:
            hits, misses, entries = _cache_totals(ctx.lib)
            lookups = hits - hits0 + misses - misses0
            first = {name: sum(tracer.calls[s] for s in spans) for name, spans in LAYER_CALLS.items()}
            first.update({name: tracer.counts[name] for name in LAYER_COUNTS})
            first["setpart.cache_entries"] = entries
            first["setpart.cache_lookups"] = lookups
            first["setpart.cache_hit_ratio"] = (hits - hits0) / lookups if lookups else 0.0
    return passes, ratios, first


def quantile_90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10)[-1] if len(samples) > 1 else samples[0]


def end_to_end_metrics(passes, failures, setup_times, rss_mb):
    """End-to-end metrics from calibrated times, with the wall-clock figures as notes.

    Each full pass is one replicate of the workload's mix.  Throughput is
    taken over all full passes; p50 and p90 are taken per pass and the median
    over passes is reported.  The last pass, cut short by the deadline, counts
    toward attempted and failed only.
    """
    full = [ops for ops in passes if len(ops) == len(passes[0])]
    ops = [op for pass_ops in full for op in pass_ops]

    def per_pass(statistic, wall=False):
        return statistics.median(
            statistic([op.end - op.start if wall else op.calibrated for op in pass_ops]) for pass_ops in full
        )

    p90 = per_pass(quantile_90)
    count = f"{len(full)} full passes of {len(full[0])}"
    wall_rate = len(ops) / sum(op.end - op.start for op in ops)
    notes = {
        "instances_per_s": f"over {count}; wall clock {wall_rate:.4g}",
        "instance_s.p50": f"median of {count}; wall clock {per_pass(statistics.median, wall=True):.4g}",
        "instance_s.p90": f"median of {count}, {sum(op.calibrated > p90 for op in ops)} samples beyond; "
        f"wall clock {per_pass(quantile_90, wall=True):.4g}",
        "setup_s": f"median of {len(setup_times)} set-ups",
    }
    metrics = {
        "instances_per_s": (sum(op_ok(op, failures) for op in ops) / sum(op.calibrated for op in ops), "1/s"),
        "instance_s.p50": (per_pass(statistics.median), "s"),
        "instance_s.p90": (p90, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "rss_peak_mb": (rss_mb, "MB"),
    }
    return metrics, notes


def per_layer_metrics(tracer: Tracer, first, traced_ops: int, ratios, load_times):
    metrics = {
        name: (sum(tracer.self_time[s] for s in spans) / traced_ops, "s")
        for name, spans in LAYER_TIMES.items()
    }
    for name, value in first.items():
        metrics[name] = (value, "ratio" if name.endswith("_ratio") else "count")
    metrics["cli.load_s"] = (statistics.median(load_times), "s")
    metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
    notes = {name: "self seconds per traced instance" for name in LAYER_TIMES}
    notes["setpart.cache_hit_ratio"] = f"base: {first['setpart.cache_lookups']} lookups"
    notes["cli.load_s"] = "pool load, median of set-ups"
    notes["trace.overhead_ratio"] = f"median of {len(ratios)} traced/untraced pass pairs"
    return metrics, notes


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one redeiberge benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=gate.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="n <= 5 instances, for the benchmark's own test"
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def set_up_repeatedly(workload, seed: int, tiny: bool):
    """SETUP_REPEATS cold set-ups; returns the last context, every set-up's span and load time."""
    spans, load_times = [], []
    for _ in range(SETUP_REPEATS):
        ctx, span, load_s = set_up(workload, seed, tiny)
        spans.append(span)
        load_times.append(load_s)
    return ctx, spans, load_times


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    outputs: dict[int, str] = {}
    try:
        if args.trace:
            ctx, _, load_times = set_up_repeatedly(workload, args.seed, args.tiny)
            tracer = Tracer()
            passes, ratios, first = run_traced(ctx, workload, args.seconds, tracer, outputs)
        else:
            with calibration.HostSpeed() as host:
                ctx, setup_spans, _ = set_up_repeatedly(workload, args.seed, args.tiny)
                passes, rss_mb = run_timed(ctx, workload, args.seconds, outputs)
            setup_times = [host.rescale(*span) for span in setup_spans]
            for op in (op for ops in passes for op in ops):
                op.calibrated = host.rescale(op.start, op.end)
    except (LibraryMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    use_reference = args.seed == gate.REFERENCE_SEED and not args.tiny
    reference = gate.load_reference(workload.name) if use_reference else None
    failures = gate.check(ctx.lib, workload, ctx.pool, outputs, reference)

    if args.trace:
        traced_ops = sum(len(ops) for ops in passes[1::2])
        metrics, notes = per_layer_metrics(tracer, first, traced_ops, ratios, load_times)
        tracer.write_spans(HERE / "out" / f"spans-{workload.name}-seed{args.seed}.jsonl")
    else:
        metrics, notes = end_to_end_metrics(passes, failures, setup_times, rss_mb)

    attempted = sum(len(ops) for ops in passes)
    failed = sum(not op_ok(op, failures) for ops in passes for op in ops)
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  pool {len(ctx.pool)} instances")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<36} {value:>14.6g} {unit}{note}")
    print(f"{'failed_ratio':<36} {failed / attempted:>14.6g} ratio  ({failed} of {attempted} operations)")
    for index, reason in sorted(failures.items()):
        print(f"FAIL {ctx.pool[index].key}: {reason}")
    for key, error in sorted({(ctx.pool[op.index].key, op.error) for ops in passes for op in ops if op.error}):
        print(f"ERROR {key}: {error}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
