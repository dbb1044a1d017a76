"""The benchmark's workloads: instance pools, the timed operation and its output.

Every instance is built from a generator spec through ``redeiberge.cli.load_instance``
(the CLI's own input path), with a fixed generator seed per pool slot.  The run
seed then relabels each digraph by a seeded permutation and shuffles the order
in which the closed loop visits the pool.  Relabelling keeps the isomorphism
class, so every seed does the same amount of work on different inputs: the
spread between runs measures the machine, not the luck of the draw.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

GENERATOR_SEEDS = (1, 2, 3)


@dataclass(frozen=True)
class Workload:
    name: str
    families: tuple[str, ...]
    tiny_families: tuple[str, ...]  # same families at n <= 5, for the benchmark's own test
    # The timed operation: (lib, digraph, tracer) -> canonical output text.
    op: Callable
    # Gate sample: family indices whose first instance is checked against
    # rb_commutative, and against rb_by_deletion_contraction.
    commutative_sample: tuple[int, ...]
    delcon_sample: tuple[int, ...]


@dataclass(frozen=True)
class Instance:
    key: str  # the generator spec, generator seed included
    family: int
    slot: int  # position among the family's generator seeds
    dg: object


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _expand_p(lib, dg, tracer) -> str:
    element = lib.invariant.redei_berge(dg, "permutations")
    return tracer.call("ncsym.to_json", _to_json, tracer, {"P": element})


def _expand_me(lib, dg, tracer) -> str:
    element = lib.invariant.redei_berge(dg, "permutations")
    in_m = element.to_basis("M")
    in_e = element.to_basis("E")
    image = in_m.commutative_image()
    return tracer.call("ncsym.to_json", _to_json, tracer, {"M": in_m, "E": in_e, "commutative": image})


def _to_json(tracer, elements: dict) -> str:
    text = canonical_json({label: x.to_json_dict() for label, x in elements.items()})
    tracer.count("ncsym.json_bytes", len(text))
    return text


def _verify_battery(lib, dg, tracer) -> str:
    reports = tracer.call("checks.check_identities", lib.checks.check_identities, dg)
    for r in reports:
        tracer.count("checks." + r.status, 1)
    return canonical_json([[r.check, r.status, r.witness] for r in reports])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="expand-p",
            families=("random:8:0.3", "random:8:0.5", "random:8:0.7", "tournament:8"),
            tiny_families=("random:5:0.3", "random:5:0.5", "random:5:0.7", "tournament:5"),
            op=_expand_p,
            # P->M at n = 8 costs up to 2 s cold; one random family and the
            # tournaments (which have no 3-block terms at n = 8) keep it near 2 s.
            commutative_sample=(1, 3),
            delcon_sample=(),
        ),
        Workload(
            name="expand-me",
            families=("random:7:0.3", "random:7:0.6", "tournament:7"),
            tiny_families=("random:4:0.3", "random:4:0.6", "tournament:4"),
            op=_expand_me,
            commutative_sample=(0, 1, 2),
            # deletion-contraction takes 1 to 4 s per n = 7 instance; the sparsest is the cheapest.
            delcon_sample=(0,),
        ),
        Workload(
            name="verify-battery",
            families=("random:4:0.3", "random:5:0.3", "tournament:4", "tournament:5"),
            tiny_families=("random:2:0.3", "random:3:0.3", "tournament:2", "tournament:3"),
            op=_verify_battery,
            commutative_sample=(0, 1, 2, 3),
            delcon_sample=(0, 1, 2, 3),
        ),
    )
}


def build_pool(lib, workload: Workload, seed: int, tiny: bool) -> tuple[list[Instance], list[int]]:
    """Instances in family order, and the seeded order the closed loop visits them in."""
    rng = random.Random(seed)
    pool = []
    families = workload.tiny_families if tiny else workload.families
    for family, spec in enumerate(families):
        for slot, generator_seed in enumerate(GENERATOR_SEEDS):
            key = f"{spec}:{generator_seed}"
            dg, _ = lib.cli.load_instance(key)
            labels = list(range(1, dg.n + 1))
            rng.shuffle(labels)
            pool.append(Instance(key, family, slot, dg.relabel(labels)))
    order = list(range(len(pool)))
    rng.shuffle(order)
    return pool, order
