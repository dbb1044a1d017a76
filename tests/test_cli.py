"""Command-line behaviors: output shapes, exit codes, determinism, JSON round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from redeiberge import cli, invariant
from redeiberge.checks import VerificationReport
from redeiberge.digraph import cycle_digraph, format_digraph
from redeiberge.invariant import rb_by_permutations
from redeiberge.ncsym import CSymElement, NCSymElement


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_process(*argv, **kwargs):
    """Run the CLI in a fresh interpreter on this checkout's sources, each
    print written at once, so that a reader can go between two of them."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), PYTHONUNBUFFERED="1")
    return subprocess.Popen([sys.executable, "-m", "redeiberge.cli", *argv], env=env, stderr=subprocess.PIPE, **kwargs)


def test_a_closed_stdout_ends_the_command_quietly():
    read, write = os.pipe()
    os.close(read)  # every write to the child's stdout fails
    try:
        proc = cli_process("compute", "path:2", stdout=write)
    finally:
        os.close(write)
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (cli.EXIT_OK, b"")


def test_a_reader_that_takes_one_line_gets_it_and_no_traceback():
    # the shell's `redeiberge compute random:8:0.3:7 --basis m | head -1`
    proc = cli_process("compute", "random:8:0.3:7", "--basis", "m", stdout=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert first.startswith(b"instance: random:8:0.3:7 (n=8 ")
    assert (proc.returncode, err) == (cli.EXIT_OK, b"")


def test_compute_path_two_in_power_basis(capsys):
    code, out, _ = run(capsys, "compute", "path:2", "--basis", "p")
    assert code == 0
    assert "p[1/2]  1" in out


def test_compute_discrete_three_in_monomial_basis(capsys):
    code, out, _ = run(capsys, "compute", "discrete:3", "--basis", "m")
    assert code == 0
    expected = {"1/2/3": "1", "12/3": "2", "13/2": "2", "1/23": "2", "123": "6"}
    for blocks, coeff in expected.items():
        assert f"m[{blocks}]  {coeff}" in out


def test_compute_json_round_trips_through_element_format(capsys):
    code, out, _ = run(capsys, "compute", "cycle:3", "--basis", "p", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    element = NCSymElement.from_json_dict(payload["element"])
    assert element == rb_by_permutations(cycle_digraph(3))


def test_compute_commutative_matches_image(capsys):
    code, out, _ = run(capsys, "compute", "cycle:3", "--basis", "m", "--commutative", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    element = CSymElement.from_json_dict(payload["element"])
    assert element == rb_by_permutations(cycle_digraph(3)).to_basis("M").commutative_image()


def test_compute_all_bases_and_algorithms_are_consistent(capsys):
    results = {}
    for algorithm in ("definition", "permutations", "deletion-contraction"):
        code, out, _ = run(
            capsys, "compute", "cycle:3", "--basis", "e", "--algorithm", algorithm,
            "--format", "json",
        )
        assert code == 0
        results[algorithm] = json.loads(out)["element"]
    assert results["definition"] == results["permutations"] == results["deletion-contraction"]


def test_compute_from_file(tmp_path, capsys):
    source = tmp_path / "triangle.dg"
    source.write_text(format_digraph(cycle_digraph(3)))
    code, out, _ = run(capsys, "compute", str(source), "--basis", "p")
    assert code == 0
    assert "p[123]  2" in out


def test_parse_error_exit_code_and_line_number(tmp_path, capsys):
    source = tmp_path / "bad.dg"
    source.write_text("n 2\n1 2\n1 2\n")
    code, _, err = run(capsys, "compute", str(source))
    assert code == cli.EXIT_USAGE
    assert "line 3" in err


def test_file_beyond_ground_set_limit_is_usage_error(tmp_path, capsys):
    source = tmp_path / "big.dg"
    source.write_text("n 13\n1 2\n")
    code, out, err = run(capsys, "verify", str(source))
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert "size 13 exceeds 12" in err


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "compute", "/nonexistent/thing.dg")
    assert code == cli.EXIT_USAGE
    assert "cannot read" in err


def test_undecodable_file_is_usage_error(tmp_path, capsys):
    source = tmp_path / "bytes.dg"
    source.write_bytes(b"n 2\n\xff 2\n")
    code, out, err = run(capsys, "compute", str(source))
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err.startswith("error: cannot read") and err.count("\n") == 1


def test_algorithm_capacity_enforced(capsys):
    code, _, err = run(capsys, "compute", "random:7:0.3:1", "--algorithm", "definition")
    assert code == cli.EXIT_USAGE
    assert "refuses" in err


def test_auto_keeps_the_permutation_route_when_capacities_tie(capsys, monkeypatch):
    before = run(capsys, "compute", "random:6:0.3:7")
    monkeypatch.setitem(invariant.ROUTES, "definition", (invariant.ROUTES["definition"][0], 8))
    assert [invariant.resolve_route("auto", n) for n in range(9)] == ["permutations"] * 9
    assert run(capsys, "compute", "random:6:0.3:7") == before


@pytest.mark.parametrize(
    "spec, text, message",
    [
        pytest.param("complete:+3", None, "size '+3' is not a run of ASCII digits", id="signed-size"),
        pytest.param("complete:1_0", None, "size '1_0' is not a run of ASCII digits", id="underscored-size"),
        pytest.param(None, "n 2\n+1 2\n", "line 2: expected integers as runs of ASCII digits", id="signed-endpoint"),
        pytest.param(None, "n \u00b2\n", "line 1: expected 'n <count>'", id="superscript-count"),
    ],
)
def test_a_size_count_or_endpoint_is_a_run_of_ascii_digits(capsys, tmp_path, spec, text, message):
    if spec is None:
        spec = str(tmp_path / "instance.dg")
        Path(spec).write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "compute", spec)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_verify_cycle_all_checks_pass(capsys):
    code, out, _ = run(capsys, "verify", "cycle:3")
    assert code == 0
    for line in out.splitlines()[1:]:
        assert ": pass" in line or ": skipped" in line
    assert sum(": pass" in line for line in out.splitlines()) == 15


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "path:3", "--checks", "opposite,cycle-decomposition", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "verify"
    assert [r["check"] for r in payload["results"]] == ["opposite", "cycle-decomposition"]
    statuses = {r["check"]: r["status"] for r in payload["results"]}
    assert statuses == {"opposite": "pass", "cycle-decomposition": "skipped"}
    assert "witness" in payload["results"][1]


@pytest.mark.parametrize("spec", ["tournament:9:1", "tournament:11:1"])
def test_verify_beyond_route_capacity_reports_instead_of_raising(capsys, spec):
    code, out, _ = run(capsys, "verify", spec)
    n = spec.split(":")[1]
    assert code == 0
    assert "berge-parity: pass" in out.splitlines()
    assert "redei-parity: pass" in out.splitlines()
    assert f"commutative: skipped  (permutations route refuses n={n} (capacity 8))" in out.splitlines()


@pytest.mark.parametrize("n", [8, 9])
def test_verify_skip_reasons_come_from_the_route_registry(capsys, n):
    code, out, _ = run(capsys, "verify", f"random:{n}:0.3:1", "--checks", "cross-algorithm,opposite")
    assert code == 0
    lines = out.splitlines()
    if n == 8:
        assert "cross-algorithm: pass" in lines
        assert "opposite: pass" in lines
    else:
        assert "cross-algorithm: skipped  (deletion-contraction route refuses n=9 (capacity 8))" in lines
        assert "opposite: skipped  (permutations route refuses n=9 (capacity 8))" in lines


@pytest.mark.parametrize(
    "checks, message",
    [
        pytest.param("bogus", "unknown checks", id="bogus"),
        pytest.param(",", "no checks named", id="comma"),
        pytest.param("", "no checks named", id="empty"),
    ],
)
def test_verify_unknown_check_is_usage_error(capsys, checks, message):
    code, _, err = run(capsys, "verify", "cycle:3", "--checks", checks)
    assert code == cli.EXIT_USAGE
    assert message in err


def test_verify_failure_exit_code(capsys, monkeypatch):
    # the identities are theorems, so a real failure needs a stubbed runner
    def fake_checks(dg, checks=None, other=None, instance=None):
        return [VerificationReport("opposite", "stub", "fail", "forced for the exit-code test")]

    monkeypatch.setattr(cli, "check_identities", fake_checks)
    code, out, _ = run(capsys, "verify", "cycle:3")
    assert code == cli.EXIT_CHECK_FAILURE
    assert "fail" in out


def test_output_is_deterministic_across_runs(capsys):
    first = run(capsys, "compute", "random:5:0.3:9", "--basis", "m")
    second = run(capsys, "compute", "random:5:0.3:9", "--basis", "m")
    assert first == second
    first = run(capsys, "verify", "tournament:4:2")
    second = run(capsys, "verify", "tournament:4:2")
    assert first == second


def test_bench_lists_applicable_algorithms(capsys):
    code, out, _ = run(capsys, "bench", "cycle:3")
    assert code == 0
    for name in ("definition", "permutations", "deletion-contraction"):
        assert name in out


def test_bench_json(capsys):
    code, out, _ = run(capsys, "bench", "random:7:0.2:3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    names = [r["algorithm"] for r in payload["results"]]
    assert "definition" not in names  # capacity 6 < 7
    assert set(names) == {"permutations", "deletion-contraction"}


def test_bench_times_each_route_until_its_terms_are_counted(capsys, monkeypatch):
    events = []

    class Lazy:
        basis = "P"

        @property
        def terms(self):
            events.append("terms")
            return {}

    def clock():
        events.append("clock")
        return 0.0

    for name in invariant.ROUTES:
        monkeypatch.setitem(invariant.ROUTES, name, (lambda dg: Lazy(), invariant.ROUTES[name][1]))
    monkeypatch.setattr(cli.time, "perf_counter", clock)
    code, _, _ = run(capsys, "bench", "cycle:3")
    assert code == 0
    assert events == ["clock", "terms", "clock"] * len(invariant.ROUTES)


def test_bench_refuses_size_no_route_accepts(capsys):
    code, out, err = run(capsys, "bench", "random:9:0.3:1")
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert "refuses n=9" in err


def test_batch_family_summary(capsys):
    code, out, _ = run(
        capsys, "batch", "random:3:0.4", "--count", "4", "--seed", "11",
        "--checks", "opposite,integrality,berge-parity",
    )
    assert code == 0
    assert "total failures: 0" in out
    assert out.count("random:3:0.4#seed=") == 4


def test_batch_requires_generator_family(capsys):
    code, _, err = run(capsys, "batch", "somefile.dg")
    assert code == cli.EXIT_USAGE
    assert "generator spec" in err


@pytest.mark.parametrize("spec", ["random:4:0.5:7", "tournament:5:2", "complete:3"])
def test_batch_refuses_a_spec_that_fixes_its_digraph(capsys, spec):
    code, out, err = run(capsys, "batch", spec, "--count", "3")
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert "seedless" in err


def test_batch_count_below_one_is_usage_error(capsys):
    code, out, err = run(capsys, "batch", "random:3:0.3", "--count", "-3")
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert "--count" in err


def test_batch_json(capsys):
    code, out, _ = run(
        capsys, "batch", "tournament:4", "--count", "3", "--format", "json",
        "--checks", "tournament-formula,redei-parity",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 3
    assert all(r["fail"] == 0 for r in payload["results"])


BAD_GENERATORS = [
    ("random:abc:0.3", "bad generator spec 'random:abc:0.3': size 'abc' is not a run of ASCII digits"),
    ("random:3:1.7:1", "bad generator spec 'random:3:1.7:1': edge probability 1.7 outside [0, 1]"),
    ("random:3:-0.1:1", "bad generator spec 'random:3:-0.1:1': edge probability -0.1 outside [0, 1]"),
    ("complete:13", "bad generator spec 'complete:13': size 13 exceeds 12"),
    ("tournament:40:1", "bad generator spec 'tournament:40:1': size 40 exceeds 12"),
    # a wrong number of arguments, for each arity the grammar has
    ("complete:3:4", "generator 'complete' takes one argument: complete:n"),
    ("random:5", "generator 'random' takes random:n:p[:seed]"),
    ("random:5:0.3:1:2", "generator 'random' takes random:n:p[:seed]"),
    ("tournament:5:1:2", "generator 'tournament' takes tournament:n[:seed]"),
]


@pytest.mark.parametrize("spec, message", BAD_GENERATORS, ids=[spec for spec, _ in BAD_GENERATORS])
def test_usage_error_on_bad_generator(capsys, spec, message):
    assert run(capsys, "compute", spec) == (cli.EXIT_USAGE, "", f"error: {message}\n")


def test_parse_generator_spec_refuses_an_unknown_kind():
    # load_instance reads an unknown kind as a file path, so only a direct call gets here
    with pytest.raises(cli.UsageError, match=r"^unknown generator kind 'wheel'; expected one of \("):
        cli.parse_generator_spec("wheel:4")


@pytest.mark.parametrize(
    "argv",
    [["compute", "cycle:3", "--basis", "q"], ["verify"], ["frobnicate"]],
    ids=["unknown-basis", "no-input", "unknown-command"],
)
def test_argument_errors_exit_2_with_usage_only(capsys, argv):
    # argparse's own refusals: its usage text on stderr, nothing on stdout
    code, out, err = run(capsys, *argv)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err.startswith("usage: redeiberge") and "error: " in err and "Traceback" not in err


def test_help_exits_0(capsys):
    code, out, err = run(capsys, "--help")
    assert (code, err) == (cli.EXIT_OK, "")
    assert out.startswith("usage: redeiberge")
