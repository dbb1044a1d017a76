"""Command-line front end.

Instances come from digraph files or generator specs
("complete:4", "path:3", "random:5:0.3:7", "tournament:6:1", ...).
Exit status: 0 success, 1 at least one failed check, 2 usage or parse error;
0 also when the reader closes stdout early (``| head``), with no traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from .checks import ALL_CHECKS, check_identities
from .digraph import (
    Digraph,
    complete_digraph,
    cycle_digraph,
    discrete_digraph,
    parse_digraph,
    path_digraph,
    random_digraph,
    random_tournament,
)
from .errors import SizeLimitError
from .invariant import ROUTES, redei_berge, resolve_route
from .setpart import MAX_GROUND_SET, _digits

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2

GENERATOR_KINDS = ("complete", "discrete", "path", "cycle", "random", "tournament")


class UsageError(Exception):
    pass


def _checked_size(text: str) -> int:
    n = _digits(text)
    if n is None:
        raise ValueError(f"size {text!r} is not a run of ASCII digits")
    if n > MAX_GROUND_SET:
        raise ValueError(f"size {text} exceeds {MAX_GROUND_SET}")
    return n


def parse_generator_spec(spec: str, default_seed: int = 0) -> Digraph:
    """Build a digraph from "kind:args" (see GENERATOR_KINDS)."""
    parts = spec.split(":")
    kind = parts[0]
    try:
        if kind in ("complete", "discrete", "path", "cycle"):
            if len(parts) != 2:
                raise UsageError(f"generator {kind!r} takes one argument: {kind}:n")
            n = _checked_size(parts[1])
            return {
                "complete": complete_digraph,
                "discrete": discrete_digraph,
                "path": path_digraph,
                "cycle": cycle_digraph,
            }[kind](n)
        if kind == "random":
            if len(parts) not in (3, 4):
                raise UsageError("generator 'random' takes random:n:p[:seed]")
            n, p = _checked_size(parts[1]), float(parts[2])
            if not 0 <= p <= 1:
                raise ValueError(f"edge probability {p} outside [0, 1]")
            seed = int(parts[3]) if len(parts) == 4 else default_seed
            return random_digraph(n, p, seed)
        if kind == "tournament":
            if len(parts) not in (2, 3):
                raise UsageError("generator 'tournament' takes tournament:n[:seed]")
            n = _checked_size(parts[1])
            seed = int(parts[2]) if len(parts) == 3 else default_seed
            return random_tournament(n, seed)
    except ValueError as exc:
        raise UsageError(f"bad generator spec {spec!r}: {exc}") from None
    raise UsageError(f"unknown generator kind {kind!r}; expected one of {GENERATOR_KINDS}")


def load_instance(source: str, default_seed: int = 0) -> tuple[Digraph, str]:
    """Return (digraph, display name) from a generator spec or a file path."""
    head = source.split(":", 1)[0]
    if head in GENERATOR_KINDS:
        return parse_generator_spec(source, default_seed), source
    path = Path(source)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {source!r}: {exc}") from None
    try:
        dg = parse_digraph(text)
        if dg.n > MAX_GROUND_SET:
            raise ValueError(f"size {dg.n} exceeds {MAX_GROUND_SET}")
        return dg, source
    except ValueError as exc:
        raise UsageError(f"{source}: {exc}") from None


def _check_status(reports) -> int:
    """Exit 1 exactly when some report says fail."""
    return EXIT_CHECK_FAILURE if any(r.status == "fail" for r in reports) else EXIT_OK


# Each run_* returns (exit status, output): the JSON payload under --format
# json, else the text lines; main writes it.


def run_compute(args: argparse.Namespace) -> tuple[int, dict | list[str]]:
    dg, name = load_instance(args.input, args.seed)
    algorithm = resolve_route(args.algorithm, dg.n)
    result = redei_berge(dg, algorithm).to_basis(args.basis.upper())
    if args.commutative:
        result = result.commutative_image()
    if args.output == "json":
        element = result.to_json_dict()
        return EXIT_OK, {"instance": name, "command": "compute", "algorithm": algorithm, "element": element}
    return EXIT_OK, [f"instance: {name} ({dg.describe()})", f"algorithm: {algorithm}", *(result.lines() or ["0"])]


def run_verify(args: argparse.Namespace) -> tuple[int, dict | list[str]]:
    dg, name = load_instance(args.input, args.seed)
    reports = check_identities(dg, args.checks, instance=name)
    if args.output == "json":
        results = [
            {"check": r.check, "status": r.status} | ({"witness": r.witness} if r.witness else {}) for r in reports
        ]
        return _check_status(reports), {"instance": name, "command": "verify", "results": results}
    lines = [f"{r.check}: {r.status}" + (f"  ({r.witness})" if r.witness else "") for r in reports]
    return _check_status(reports), [f"instance: {name} ({dg.describe()})", *lines]


def run_bench(args: argparse.Namespace) -> tuple[int, dict | list[str]]:
    dg, name = load_instance(args.input, args.seed)
    resolve_route("auto", dg.n)  # refuses an n that the default route refuses
    rows = []
    for algorithm, (_, cap) in ROUTES.items():
        if dg.n > cap:
            continue
        start = time.perf_counter()
        element = redei_berge(dg, algorithm)
        terms = len(element.terms)  # inside the timed span: a route may build its terms when they are read
        elapsed = time.perf_counter() - start
        rows.append((algorithm, elapsed, terms, element.basis))
    if args.output == "json":
        results = [{"algorithm": a, "seconds": round(t, 6), "terms": k, "basis": b} for a, t, k, b in rows]
        return EXIT_OK, {"instance": name, "command": "bench", "results": results}
    lines = [f"instance: {name} ({dg.describe()})", f"{'algorithm':<22}{'seconds':>10}  {'terms':>5}  basis"]
    return EXIT_OK, lines + [f"{a:<22}{t:>10.4f}  {k:>5}  {b}" for a, t, k, b in rows]


def run_batch(args: argparse.Namespace) -> tuple[int, dict | list[str]]:
    parts = args.input.split(":")
    if (parts[0], len(parts)) not in (("random", 3), ("tournament", 2)):
        # any other spec fixes its digraph, so every seed would check the same one
        raise UsageError(f"batch needs a seedless generator spec, random:n:p or tournament:n; got {args.input!r}")
    if args.count < 1:
        raise UsageError(f"--count must be at least 1, got {args.count}")
    reports, rows = [], []
    for seed in range(args.seed, args.seed + args.count):
        name = f"{args.input}#seed={seed}"
        found = check_identities(parse_generator_spec(args.input, seed), args.checks, instance=name)
        counts = {status: sum(r.status == status for r in found) for status in ("pass", "fail", "skipped")}
        failures = [{"check": r.check, "witness": r.witness} for r in found if r.status == "fail"]
        rows.append((name, counts, failures))
        reports += found
    if args.output == "json":
        results = [{"instance": n, **c} | ({"failures": f} if f else {}) for n, c, f in rows]
        payload = {"command": "batch", "family": args.input, "count": args.count, "results": results}
        return _check_status(reports), payload
    lines = [f"family: {args.input}  count: {args.count}  base seed: {args.seed}"]
    for name, c, failures in rows:
        lines.append(f"{name}: {c['pass']} pass, {c['fail']} fail, {c['skipped']} skipped")
        lines += [f"  FAIL {f['check']}: {f['witness']}" for f in failures]
    lines.append(f"total failures: {sum(c['fail'] for _, c, _ in rows)}")
    return _check_status(reports), lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redeiberge",
        description="Compute and verify the Redei-Berge function of labeled digraphs "
        "in noncommuting variables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, run, with_checks=False):
        p.set_defaults(run=run)
        p.add_argument("input", help="digraph file or generator spec (e.g. cycle:3)")
        p.add_argument("--seed", type=int, default=0, help="seed for random generators")
        p.add_argument("--format", choices=("text", "json"), default="text", dest="output")
        if with_checks:
            p.add_argument(
                "--checks",
                default="all",
                help="comma-separated check names, or 'all' (default)",
            )

    p_compute = sub.add_parser("compute", help="print the expansion of one instance")
    add_common(p_compute, run_compute)
    p_compute.add_argument("--basis", choices=("m", "p", "e"), default="p")
    p_compute.add_argument("--commutative", action="store_true", help="let the variables commute")
    p_compute.add_argument(
        "--algorithm",
        choices=("auto",) + tuple(ROUTES),
        default="auto",
    )

    p_verify = sub.add_parser("verify", help="run identity checks on one instance")
    add_common(p_verify, run_verify, with_checks=True)

    p_bench = sub.add_parser("bench", help="time each applicable algorithm")
    add_common(p_bench, run_bench)

    p_batch = sub.add_parser("batch", help="verify a seeded random family")
    add_common(p_batch, run_batch, with_checks=True)
    p_batch.add_argument("--count", type=int, default=10, help="number of instances")

    return parser


def _parse_checks(raw: str) -> tuple[str, ...]:
    if raw == "all":
        return ALL_CHECKS
    names = tuple(name.strip() for name in raw.split(",") if name.strip())
    unknown = [n for n in names if n not in ALL_CHECKS]
    if unknown:
        raise UsageError(f"unknown checks {unknown}; available: {list(ALL_CHECKS)}")
    if not names:
        raise UsageError(f"no checks named; available: {list(ALL_CHECKS)}")
    return names


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if hasattr(args, "checks"):
            args.checks = _parse_checks(args.checks)
        status, output = args.run(args)
        print(json.dumps(output) if args.output == "json" else "\n".join(output))
        sys.stdout.flush()  # so that a closed stdout shows here, not at exit
        return status
    except (UsageError, SizeLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:  # the reader has gone; what is still buffered goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
