"""Output-correctness gate, run after the timed region.

Each instance's recorded output (from its first timed operation) must
  * hash, as canonical JSON, to the digest recorded in reference.json when the
    run uses the seed the references were recorded for;
  * report no failing identity check (verify-battery);
  * on a fixed sample, agree with independent routes: rb_commutative against
    the commutative image, and rb_by_deletion_contraction against the monomial
    expansion (n <= 7); an elementary expansion must also convert back (E->P
    uses other Mobius values than P->E) to rb_by_permutations.
A mismatch or an exception marks the instance failed; the gate never aborts.
"""

from __future__ import annotations

import hashlib
import json
import traceback
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEED = 1


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference(workload: str) -> dict[str, str]:
    with open(REFERENCE_PATH) as f:
        return json.load(f)[workload]


def _stated_elements(lib, workload: str, dg, output: str):
    """The monomial expansion, commutative image and elementary expansion
    (None when absent) that an output states or implies."""
    data = json.loads(output)
    ncsym = lib.ncsym
    if workload == "expand-me":
        return (
            ncsym.NCSymElement.from_json_dict(data["M"]),
            ncsym.CSymElement.from_json_dict(data["commutative"]),
            ncsym.NCSymElement.from_json_dict(data["E"]),
        )
    if workload == "expand-p":
        in_p = ncsym.NCSymElement.from_json_dict(data["P"])
    else:  # verify-battery outputs statuses; the expansion comes from the library
        in_p = lib.invariant.rb_by_permutations(dg)
    in_m = in_p.to_basis("M")
    return in_m, in_m.commutative_image(), None


def check(lib, workload, pool, outputs: dict[int, str], reference: dict[str, str] | None) -> dict[int, str]:
    """Map each failing instance index to the reason; instances with no output fail too."""
    failures: dict[int, str] = {}
    for idx, inst in enumerate(pool):
        output = outputs.get(idx)
        if output is None:
            failures[idx] = "no operation completed"
            continue
        try:
            reason = _check_one(lib, workload, inst, output, reference)
        except Exception:
            reason = "gate raised:\n" + traceback.format_exc()
        if reason:
            failures[idx] = reason
    return failures


def _check_one(lib, workload, inst, output, reference) -> str | None:
    if reference is not None and reference.get(inst.key) != digest(output):
        return f"digest of {inst.key} differs from reference.json"
    if workload.name == "verify-battery":
        failing = [check for check, status, _ in json.loads(output) if status == "fail"]
        if failing:
            return f"checks failed on {inst.key}: {failing}"
    if inst.slot != 0:
        return None
    routes = []
    if inst.family in workload.commutative_sample:
        routes.append("commutative")
    if inst.family in workload.delcon_sample:
        routes.append("deletion-contraction")
    if not routes:
        return None
    in_m, image, in_e = _stated_elements(lib, workload.name, inst.dg, output)
    if "commutative" in routes and image != lib.invariant.rb_commutative(inst.dg):
        return f"commutative image of {inst.key} differs from rb_commutative"
    if "deletion-contraction" in routes and in_m != lib.invariant.rb_by_deletion_contraction(inst.dg):
        return f"monomial expansion of {inst.key} differs from rb_by_deletion_contraction"
    if in_e is not None and in_e.to_basis("P") != lib.invariant.rb_by_permutations(inst.dg):
        return f"elementary expansion of {inst.key} does not convert back to rb_by_permutations"
    return None
