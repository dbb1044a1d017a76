"""The CLI's documented contract, property-tested through cli.main in-process.

For generator specs and small digraph files with n in 0..13, `compute`,
`verify`, `bench` and `batch` keep the README's promises: exit 2 comes with
exactly one `error:` line and nothing on stdout; exit 0 or 1 comes with no
traceback; stdout is the same on a second run (not for `bench`, which
prints timings); `verify` and `batch` exit 1 exactly when a report says
`fail`; and `bench` times each route that serves n, in route order.  Sizes
above 8 are drawn only where the run ends in a refusal or a skip, so the
whole test stays cheap.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from redeiberge import cli
from redeiberge.checks import ALL_CHECKS
from redeiberge.digraph import Digraph, format_digraph
from redeiberge.invariant import ROUTES

# every check but the two parity checks skips above the permutation route's capacity
SKIPPING_CHECKS = ",".join(c for c in ALL_CHECKS if not c.endswith("-parity"))
# size tokens outside the grammar of a size (a run of ASCII digits)
BAD_SIZES = ("+3", "1_0", "-1", " 3", "²", "3.0", "")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@st.composite
def sizes(draw, cheap):
    """(size token, n): n up to cheap, or 9..13 where the routes refuse, or a
    token outside the grammar of a size (n is then None)."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(BAD_SIZES)), None
    n = draw(st.integers(0, cheap)) if draw(st.integers(0, 3)) else draw(st.integers(9, 13))
    return str(n), n


@st.composite
def specs(draw, cheap, seeded=True):
    """(spec, n) for a generator; batch takes a family, with no seed."""
    token, n = draw(sizes(cheap))
    kind = draw(st.sampled_from(cli.GENERATOR_KINDS if seeded else ("random", "tournament", "cycle")))
    seed = [str(draw(st.integers(-3, 10**6)))] if seeded and draw(st.booleans()) else []
    if kind == "random":
        p = draw(st.sampled_from(("0", "0.3", "0.5", "1", "1.0", "nan", "1.5")))
        return ":".join([kind, token, p] + seed), n
    if kind == "tournament":
        return ":".join([kind, token] + seed), n
    return f"{kind}:{token}", n


@st.composite
def digraph_texts(draw, cheap):
    """(file text, n) for a digraph file; above n = 5 its edges join the
    first three vertices only, and its header may be outside the grammar.
    Whitespace separates the header's fields, so "n  3" reads as n = 3."""
    token, n = draw(sizes(cheap))
    if token == " 3":
        n = 3
    vertices = range(1, (n if n is not None and n <= 5 else 3) + 1)
    pairs = [(u, v) for u in vertices for v in vertices]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8)) if pairs else []
    body = format_digraph(Digraph(len(vertices), edges)).split("\n", 1)[1]
    return f"n {token}\n{body}", n


@st.composite
def sources(draw, directory, cheap):
    """(input, n): a generator spec, or a digraph file written to directory."""
    if draw(st.booleans()):
        return draw(specs(cheap))
    text, n = draw(digraph_texts(cheap))
    path = Path(directory) / "instance.dg"
    path.write_text(text)
    return str(path), n


@st.composite
def invocations(draw, directory):
    """argv for compute (n up to 8 by the permutation route in p, else up to
    5), verify or batch (n up to 5); above 8 every run refuses or skips."""
    command = draw(st.sampled_from(("compute", "verify", "batch")))
    cheap = 8 if command == "compute" else 5
    if command == "batch":
        family, n = draw(specs(cheap, seeded=False))
        argv = ["batch", family, "--count", str(draw(st.integers(1, 2))), "--seed", str(draw(st.integers(-2, 50)))]
    else:
        source, n = draw(sources(directory, cheap))
        argv = [command, source]
    if command == "compute":
        small = n is None or n <= 5 or n >= 9
        argv += ["--basis", draw(st.sampled_from("pme" if small else "p"))]
        routes = ("auto", "permutations") + (("definition", "deletion-contraction") if small else ())
        argv += ["--algorithm", draw(st.sampled_from(routes))]
        if draw(st.booleans()):
            argv.append("--commutative")
    elif n is not None and n >= 9:
        argv += ["--checks", SKIPPING_CHECKS]
    return argv + ["--format", draw(st.sampled_from(("text", "json")))]


def assert_one_error_line(out, err):
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def failed_reports(command, output, out):
    if output == "json":
        payload = json.loads(out)
        if command == "batch":
            return sum(r["fail"] for r in payload["results"])
        return sum(r["status"] == "fail" for r in payload["results"])
    if command == "batch":
        return sum(line.startswith("  FAIL ") for line in out.splitlines())
    return sum(line.split("  (", 1)[0].endswith(": fail") for line in out.splitlines()[1:])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_cli_contract(data):
    with tempfile.TemporaryDirectory() as directory:
        argv = data.draw(invocations(directory))
        code, out, err = run(argv)
        assert code in (cli.EXIT_OK, cli.EXIT_CHECK_FAILURE, cli.EXIT_USAGE)
        if code == cli.EXIT_USAGE:
            assert_one_error_line(out, err)
            return
        assert "Traceback" not in err
        assert run(argv) == (code, out, err)
        command, output = argv[0], argv[-1]
        if command in ("verify", "batch"):
            assert (code == cli.EXIT_CHECK_FAILURE) == (failed_reports(command, output, out) > 0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_bench_contract(data):
    # every route serves n <= 5, so the drawn sizes run all routes or none
    with tempfile.TemporaryDirectory() as directory:
        source, n = data.draw(sources(directory, 5))
        output = data.draw(st.sampled_from(("text", "json")))
        code, out, err = run(["bench", source, "--format", output])
        assert code in (cli.EXIT_OK, cli.EXIT_USAGE)
        if code == cli.EXIT_USAGE:
            assert_one_error_line(out, err)
            return
        assert "Traceback" not in err
        if output == "json":
            assert out.count("\n") == 1 and out.endswith("\n")
            served = [name for name, (_, capacity) in ROUTES.items() if capacity >= n]
            assert [row["algorithm"] for row in json.loads(out)["results"]] == served
