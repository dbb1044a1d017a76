"""Pin the CLI's observable output: one sha256 of (exit code, stdout, stderr)
per invocation, recorded in cli_golden.json.

Run this module as a script to record the digests again:
    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from redeiberge import cli

GOLDEN = Path(__file__).with_name("cli_golden.json")

COMPUTE_SPECS = (
    "path:2", "cycle:3", "complete:4", "discrete:3", "discrete:0",
    "random:5:0.3:9", "random:6:0.4:2", "tournament:6:1", "random:7:0.3:1",
)
VERIFY_SPECS = (
    "cycle:3", "random:5:0.3:9", "tournament:5:2", "random:4:0.5:3",
    "complete:3", "tournament:9:1", "random:9:0.3:1",
)
REFUSALS = (
    ("compute", "random:7:0.3:1", "--algorithm", "definition"),
    ("compute", "random:9:0.3:1", "--basis", "m"),
    ("compute", "complete:13"),
    ("verify", "cycle:3", "--checks", "bogus"),
    ("verify", "cycle:3", "--checks", ","),
    ("verify", "tournament:13:1"),
    ("bench", "random:9:0.3:1"),
    ("batch", "random:4:0.5:7", "--count", "3"),
    ("batch", "random:3:0.3", "--count", "-3"),
)


def invocations():
    for spec in COMPUTE_SPECS:
        for basis in ("p", "m", "e"):
            for output in ("text", "json"):
                for commutative in ((), ("--commutative",)):
                    yield ("compute", spec, "--basis", basis, "--format", output, *commutative)
    for spec in VERIFY_SPECS:
        for output in ("text", "json"):
            yield ("verify", spec, "--format", output)
    yield ("batch", "random:4:0.3", "--count", "3", "--seed", "5")
    yield ("batch", "tournament:4", "--count", "3", "--format", "json")
    yield from REFUSALS


def digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return hashlib.sha256(json.dumps([code, out.getvalue(), err.getvalue()]).encode()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_invocation(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in invocations())


@pytest.mark.parametrize("argv", list(invocations()), ids=" ".join)
def test_cli_output_matches_golden(golden, argv):
    assert digest(argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    recorded = {" ".join(argv): digest(argv) for argv in invocations()}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} digests in {GOLDEN}")
