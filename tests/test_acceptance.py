"""Acceptance suite: the full battery of exact-equality criteria.

Each test covers one numbered criterion at its stated instance counts and
prints one line on success; any failure surfaces through pytest with the
offending instance in the assertion message.
"""

import itertools
import random
from fractions import Fraction

from redeiberge.checks import check_identities
from redeiberge.digraph import (
    Digraph,
    complete_digraph,
    cycle_digraph,
    discrete_digraph,
    has_even_directed_cycle,
    random_digraph,
    random_tournament,
)
from redeiberge.invariant import (
    rb_by_colorings,
    rb_by_deletion_contraction,
    rb_by_permutations,
    rb_commutative,
    rb_tournament,
)
from redeiberge.ncsym import CSymElement, NCSymElement
from redeiberge.setpart import (
    IntPartition,
    SetPartition,
    coarsenings,
    enumerate_partitions,
    factorial_weight,
    mobius,
    mobius_from_bottom,
    refinements,
    refines,
    singletons,
)

from oracles import tournament_formula


def all_digraphs(n, loops=True):
    pairs = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(1, n + 1)
        if loops or u != v
    ]
    for bits in range(1 << len(pairs)):
        yield Digraph(n, {pairs[i] for i in range(len(pairs)) if bits >> i & 1})


def all_tournaments(n):
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        yield Digraph(n, {(u, v) if b else (v, u) for (u, v), b in zip(pairs, bits)})


def integer_partitions(n, largest=None):
    """Independent enumeration used by the closed-form criterion."""
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in integer_partitions(n - first, first):
            yield (first,) + rest


def test_criterion_1_exhaustive_cross_algorithm_n3():
    # all 2**9 = 512 digraphs on three vertices (the full square of pairs,
    # which subsumes the loopless ones); the three algorithms agree exactly
    for dg in all_digraphs(3):
        reference = rb_by_permutations(dg).to_basis("M")
        assert reference == rb_by_colorings(dg), dg
        assert reference == rb_by_deletion_contraction(dg), dg
    print("ACCEPTANCE 1 cross-algorithm exhaustive n=3: PASS")


def test_criterion_2_randomized_cross_algorithm():
    for n in (4, 5, 6):
        for seed in range(200):
            dg = random_digraph(n, 0.3, seed * 31 + n)
            reference = rb_by_permutations(dg).to_basis("M")
            assert reference == rb_by_colorings(dg), dg
            assert reference == rb_by_deletion_contraction(dg), dg
    print("ACCEPTANCE 2 cross-algorithm 200 seeds at n in {4,5,6}: PASS")


def test_criterion_3_closed_forms():
    for n in range(1, 7):
        complete = rb_by_permutations(complete_digraph(n))
        in_e = complete.to_basis("E")
        assert in_e.terms == {SetPartition([range(1, n + 1)]): Fraction(1)}, n
        # commutative image: n! times the elementary function of the full degree
        image = in_e.commutative_image()
        from math import factorial

        assert image == CSymElement(n, "e", {IntPartition([n]): factorial(n)}), n

        discrete = rb_by_deletion_contraction(discrete_digraph(n)) if n <= 7 else None
        expected = NCSymElement(
            n, "M", {pi: factorial_weight(pi) for pi in enumerate_partitions(n)}
        )
        assert discrete == expected, n
        assert rb_by_permutations(discrete_digraph(n)).to_basis("M") == expected, n
        # image of the discrete expansion: n! times the sum of all monomial
        # functions, with the integer partitions enumerated independently
        expected_image = CSymElement(
            n, "m", {IntPartition(lam): factorial(n) for lam in integer_partitions(n)}
        )
        assert expected.commutative_image() == expected_image, n
    print("ACCEPTANCE 3 closed forms for complete and discrete digraphs (n <= 6): PASS")


def test_criterion_4_tournament_suite():
    def examine(t):
        expansion = rb_tournament(t)
        assert expansion == rb_by_permutations(t) and expansion == tournament_formula(t), t
        assert all(
            c.denominator == 1 and c >= 0 for c in expansion.terms.values()
        ), t
        assert expansion == rb_by_permutations(t.complement()), t
        assert t.hamiltonian_path_count() % 2 == 1, t

    count = 0
    for t in all_tournaments(4):
        examine(t)
        count += 1
    assert count == 64
    for n in (5, 6):
        for seed in range(100):
            examine(random_tournament(n, seed * 17 + n))
    print("ACCEPTANCE 4 tournament suite (64 exhaustive + 100 seeds at n in {5,6}, against the literal formula): PASS")


def test_criterion_5_identity_battery():
    battery = (
        "opposite",
        "product",
        "deletion-contraction",
        "subset-decomposition",
        "cycle-decomposition",
    )

    def run_battery(dg, other):
        reports = check_identities(dg, battery, other=other)
        failed = [(r.check, r.witness) for r in reports if r.status == "fail"]
        assert not failed, (dg, failed)

    rng = random.Random(2024)
    for n in (1, 2, 3):
        for dg in all_digraphs(n):
            run_battery(dg, other=dg)  # self-pair: total size <= 6
    for n, n_other in ((4, 3), (5, 2)):
        for seed in range(100):
            dg = random_digraph(n, 0.3, seed * 13 + n)
            other = random_digraph(n_other, 0.4, rng.randint(0, 10**6))
            run_battery(dg, other)

    # the triangle identity, written out as its seven explicit terms
    triangle = cycle_digraph(3)
    (report,) = check_identities(triangle, ["triangle"])
    assert report.status == "pass", report
    w = rb_by_permutations
    e1, e2, e3 = (1, 2), (2, 3), (3, 1)
    seven_terms = (
        w(triangle.delete_edges([e1]))
        + w(triangle.delete_edges([e2]))
        + w(triangle.delete_edges([e3]))
        - w(triangle.delete_edges([e1, e2]))
        - w(triangle.delete_edges([e2, e3]))
        - w(triangle.delete_edges([e3, e1]))
        + w(triangle.delete_edges([e1, e2, e3]))
    )
    assert w(triangle) == seven_terms
    print("ACCEPTANCE 5 identity battery (exhaustive n <= 3, 100 seeds at n in {4,5}): PASS")


def test_criterion_6_commutative_consistency():
    def consistent(dg):
        image = rb_by_permutations(dg).to_basis("M").commutative_image()
        # rb_commutative asserts symmetry of the descent aggregate internally
        assert image == rb_commutative(dg), dg

    for n in (1, 2, 3):
        for dg in all_digraphs(n):
            consistent(dg)
    for n in (4, 5):
        for seed in range(100):
            consistent(random_digraph(n, 0.3, seed * 7 + n))
    print("ACCEPTANCE 6 commutative consistency (exhaustive n <= 3, 100 seeds at n in {4,5}): PASS")


def test_criterion_7_berge_parity():
    def loopless_complement(dg):
        complement = dg.complement()
        return Digraph(dg.n, {(u, v) for u, v in complement.edges if u != v})

    for n in (1, 2, 3, 4):
        for dg in all_digraphs(n, loops=False):
            assert (
                dg.hamiltonian_path_count() % 2
                == loopless_complement(dg).hamiltonian_path_count() % 2
            ), dg
    for n in (5, 6):
        for seed in range(200):
            dg = random_digraph(n, 0.35, seed * 11 + n, loops=False)
            assert (
                dg.hamiltonian_path_count() % 2
                == loopless_complement(dg).hamiltonian_path_count() % 2
            ), dg
    print("ACCEPTANCE 7 Berge parity (exhaustive loopless n <= 4, 200 seeds at n in {5,6}): PASS")


def test_criterion_8_conversions_and_mobius():
    rng = random.Random(88)
    for n in range(1, 6):
        partitions = enumerate_partitions(n)
        for b1, b2 in itertools.product("MPE", repeat=2):
            keys = rng.sample(partitions, k=min(4, len(partitions)))
            x = NCSymElement(n, b1, {k: rng.randint(-4, 4) for k in keys})
            assert x.to_basis(b2).to_basis(b1) == x, (n, b1, b2)

    # product-formula Mobius against the recursive definition, every interval of Pi_4
    memo = {}

    def recursive(sigma, pi):
        if sigma == pi:
            return 1
        key = (sigma, pi)
        if key not in memo:
            memo[key] = -sum(
                recursive(sigma, tau)
                for tau in coarsenings(sigma)[0]
                if tau != pi and refines(tau, pi)
            )
        return memo[key]

    for pi in enumerate_partitions(4):
        for sigma in refinements(pi)[0]:
            assert mobius(sigma, pi) == recursive(sigma, pi), (sigma, pi)

    # the derived elementary-from-power inversion, verified by substitution on Pi_4
    for pi in enumerate_partitions(4):
        accum = {}
        for sigma in refinements(pi)[0]:
            outer = Fraction(mobius(sigma, pi), mobius_from_bottom(pi))
            for tau in refinements(sigma)[0]:
                accum[tau] = accum.get(tau, Fraction(0)) + outer * mobius_from_bottom(tau)
        assert NCSymElement(4, "P", accum) == NCSymElement(4, "P", {pi: 1}), pi
    print("ACCEPTANCE 8 basis round trips and Mobius validation: PASS")


def test_criterion_9_positivity_without_even_cycles():
    def sample(n, rng):
        while True:
            edges = set()
            for u in range(1, n + 1):
                if rng.random() < 0.15:
                    edges.add((u, u))
                for v in range(u + 1, n + 1):
                    if rng.random() < 0.35:
                        edges.add((u, v) if rng.random() < 0.5 else (v, u))
            dg = Digraph(n, edges)
            if not has_even_directed_cycle(dg):
                return dg

    for n in (4, 5, 6):
        rng = random.Random(500 + n)
        for _ in range(50):
            dg = sample(n, rng)
            expansion = rb_by_permutations(dg)
            assert all(c >= 0 for c in expansion.terms.values()), dg
            assert expansion.coefficient(singletons(n)) >= 1, dg
    print("ACCEPTANCE 9 power-sum positivity without even cycles (50 seeds each n in {4,5,6}): PASS")
