"""The identity-verification suite: pass/fail/skipped reporting and witnesses."""

import itertools
import math
import sys
import time
from array import array
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from redeiberge import checks, invariant
from redeiberge.checks import (
    ALL_CHECKS,
    VerificationReport,
    _CheckRunner,
    _contraction_tables_agree,
    _deletion_tables_vanish,
    _difference,
    check_identities,
)
from redeiberge.cli import parse_generator_spec
from redeiberge.digraph import (
    _LANE_CODES,
    Digraph,
    _complement_columns,
    _deletion_columns,
    _unpack,
    complete_digraph,
    cycle_digraph,
    discrete_digraph,
    hamiltonian_path_counts,
    path_digraph,
    random_digraph,
    random_tournament,
)
from redeiberge.invariant import _split_on_edge, count_friendly, rb_by_permutations
from redeiberge.ncsym import NCSymElement
from redeiberge.setpart import _selections, parse_set_partition

from oracles import counting_lemma_witness, pack_lanes

P = parse_set_partition


def by_name(reports):
    return {r.check: r for r in reports}


def test_every_check_passes_on_the_triangle():
    reports = check_identities(cycle_digraph(3))
    assert [r.check for r in reports] == list(ALL_CHECKS)
    assert all(r.status == "pass" for r in reports), [
        (r.check, r.witness) for r in reports if r.status != "pass"
    ]


def test_unknown_check_rejected():
    with pytest.raises(ValueError):
        check_identities(cycle_digraph(3), ["opposite", "nonsense"])


def test_subset_decomposition_skips_disjoint_paths():
    # a path plus an isolated vertex is a disjoint union of paths
    dg = Digraph(3, [(1, 2)])
    (report,) = check_identities(dg, ["subset-decomposition"])
    assert report.status == "skipped"
    assert "disjoint union of paths" in report.witness


def test_subset_decomposition_runs_on_cyclic_instance():
    (report,) = check_identities(Digraph(2, [(1, 2), (2, 1)]), ["subset-decomposition"])
    assert report.status == "pass"


def test_subset_decomposition_skips_when_too_many_edges():
    (report,) = check_identities(complete_digraph(4), ["subset-decomposition"])
    assert report.status == "skipped"
    assert "|E|" in report.witness


def test_cycle_decomposition_skips_acyclic():
    (report,) = check_identities(path_digraph(4), ["cycle-decomposition"])
    assert report.status == "skipped"


def test_triangle_skips_without_directed_triangle():
    (report,) = check_identities(path_digraph(3), ["triangle"])
    assert report.status == "skipped"


def test_triangle_runs_inside_larger_digraph():
    dg = Digraph(4, [(1, 2), (2, 3), (3, 1), (1, 4), (4, 4)])
    (report,) = check_identities(dg, ["triangle"])
    assert report.status == "pass"


def test_tournament_checks_skip_non_tournaments():
    reports = by_name(
        check_identities(
            discrete_digraph(3),
            ["tournament-complement", "tournament-formula", "redei-parity"],
        )
    )
    assert all(r.status == "skipped" for r in reports.values())
    assert all("not a tournament" in r.witness for r in reports.values())


def test_p_nonnegativity_skips_on_even_cycles():
    (report,) = check_identities(cycle_digraph(4), ["p-nonnegativity"])
    assert report.status == "skipped"
    assert "even" in report.witness


def test_counting_lemma_size_gate():
    (report,) = check_identities(complete_digraph(3), ["counting-lemma"])
    assert report.status == "skipped"
    (report,) = check_identities(cycle_digraph(3), ["counting-lemma"])
    assert report.status == "pass"


def test_counting_lemma_exhaustive_on_four_vertices():
    dg = Digraph(4, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)])
    (report,) = check_identities(dg, ["counting-lemma"])
    assert report.status == "pass"


def test_product_check_with_explicit_pair():
    reports = check_identities(cycle_digraph(3), ["product"], other=path_digraph(2))
    assert reports[0].status == "pass"


def test_product_check_skips_oversized_pairs():
    reports = check_identities(discrete_digraph(5), ["product"], other=discrete_digraph(5))
    assert reports[0].status == "skipped"


def test_product_budget_does_not_follow_the_route_capacity(monkeypatch):
    monkeypatch.setitem(invariant.ROUTES, "permutations", (invariant.ROUTES["permutations"][0], 12))
    (report,) = check_identities(discrete_digraph(5), ["product"], other=discrete_digraph(4))
    assert (report.status, report.witness) == ("skipped", "combined size 9 > 8")


@pytest.mark.parametrize("n", [9, 10, 12, 13])
def test_checks_skip_beyond_route_capacity(n):
    # every route refuses these sizes; each check reports instead of raising
    for dg in (discrete_digraph(n), complete_digraph(n), random_tournament(n, 1)):
        reports = check_identities(dg)
        assert [r.check for r in reports] == list(ALL_CHECKS)
        assert not [(r.check, r.witness) for r in reports if r.status == "fail"]
        if n == 13:  # above the cycle-count table's limit
            assert by_name(reports)["p-nonnegativity"].status == "skipped"
        # the Hamiltonian-path table serves every n the cycle-count table does
        berge = by_name(reports)["berge-parity"].status
        assert berge == {9: "pass", 10: "pass", 12: "pass", 13: "skipped"}[n]


def test_commutative_refuses_before_converting(monkeypatch):
    # with the P route raised to 9, the descent oracle's refusal must come
    # before the P -> M conversion, which takes seconds at n = 9
    monkeypatch.setitem(invariant.ROUTES, "permutations", (invariant.ROUTES["permutations"][0], 9))
    start = time.perf_counter()
    (report,) = check_identities(random_digraph(9, 0.3, 7), ["commutative"])
    assert time.perf_counter() - start < 0.1
    assert (report.status, report.witness) == ("skipped", "descent algorithm limited to n <= 8")


@pytest.mark.parametrize("spec", ["tournament:4:1", "random:5:0.3:1"])
def test_one_p_expansion_and_one_m_image_per_instance(monkeypatch, spec):
    # the checks that read W(X) share one P expansion of the instance and one
    # M image of it; the parities and deletion-contraction build neither
    dg = parse_generator_spec(spec)
    built, converted = [], []
    to_basis = NCSymElement.to_basis

    def counting_p(x):
        element = rb_by_permutations(x)
        if x == dg:
            built.append(element)
        return element

    def counting_to_basis(element, target):
        if target == "M" and any(element is b for b in built):
            converted.append(element)
        return to_basis(element, target)

    monkeypatch.setattr(checks, "rb_by_permutations", counting_p)
    monkeypatch.setattr(NCSymElement, "to_basis", counting_to_basis)
    reports = check_identities(dg)
    assert not [(r.check, r.witness) for r in reports if r.status == "fail"]
    assert (len(built), len(converted)) == (1, 1)
    built.clear()
    converted.clear()
    reports = check_identities(dg, ["berge-parity", "redei-parity", "deletion-contraction"])
    assert not [(r.check, r.witness) for r in reports if r.status == "fail"]
    assert (built, converted) == ([], [])


def test_checks_pass_on_seeded_instances():
    for seed in range(8):
        dg = random_digraph(4, 0.35, seed)
        reports = check_identities(dg)
        bad = [(r.check, r.witness) for r in reports if r.status == "fail"]
        assert not bad, bad


def test_berge_parity_with_loops_present():
    dg = Digraph(3, [(1, 1), (1, 2), (2, 3), (3, 3)])
    (report,) = check_identities(dg, ["berge-parity"])
    assert report.status == "pass"


def test_instance_label_threads_through():
    reports = check_identities(cycle_digraph(3), ["opposite"], instance="cycle:3")
    assert reports[0].instance == "cycle:3"


# -- failures and the reductions behind the fast checks -----------------------


def test_counting_lemma_names_the_first_failing_coloring(monkeypatch):
    # one wrong friendly count: of X minus S for one S of three edges, at the
    # colorings with classes 123/4, where it is the path count of block 123,
    # read from the cycles through 123 and the apex 5
    dg = parse_generator_spec("tournament:4:1")
    edges = sorted(dg.edges)
    S = [(1, 2), (2, 3), (2, 4)]
    lane = sum(1 << edges.index(e) for e in S)
    held_karp = checks._held_karp

    def off_by_one(columns, k):
        tables = _unpack(held_karp(columns, k), dg.n + 1, k)
        tables[lane][1 << dg.n | 0b0111] += 1
        return [int.from_bytes(array(_LANE_CODES[dg.n + 1], entry), sys.byteorder) for entry in zip(*tables)]

    def literal_off_by_one(deleted, colors):
        classes_123_4 = colors[0] == colors[1] == colors[2] != colors[3]
        return count_friendly(deleted, colors) + (deleted == dg.delete_edges(S) and classes_123_4)

    monkeypatch.setattr(checks, "_held_karp", off_by_one)
    (report,) = check_identities(dg, ["counting-lemma"])
    assert report.status == "fail"
    assert report.witness == counting_lemma_witness(dg, literal_off_by_one)
    assert report.witness == "coloring (1, 1, 1, 2), subset [(1, 2), (2, 3), (2, 4)]: 4 != 3"


@pytest.mark.parametrize(
    "spec, check, witness",
    [
        ("tournament:5:2", "subset-decomposition", "coefficient at 1/2/3/45: 0 != -36"),
        ("tournament:5:2", "cycle-decomposition", "coefficient at 12/3/4/5: 0 != -1"),
        ("tournament:5:2", "triangle", "coefficient at 12/3/4/5: 0 != -1"),
        ("random:5:0.3:1", "subset-decomposition", "coefficient at 1/2/3/45: 0 != -15"),
        ("random:5:0.3:1", "cycle-decomposition", None),
        ("random:5:0.3:1", "triangle", "coefficient at 1235/4: 3 != 2"),
    ],
)
def test_deletion_sums_name_the_first_differing_coefficient(monkeypatch, spec, check, witness):
    dg = parse_generator_spec(spec)
    monkeypatch.setattr(checks, "_deletion_columns", _faulty_deletions(lambda S: S[:2] if len(S) == 3 else S))
    (report,) = check_identities(dg, [check])
    assert (report.status, report.witness) == ("pass" if witness is None else "fail", witness)


def test_a_failing_deletion_sum_reads_the_tables_of_its_decision(monkeypatch):
    # the witness unpacks the packed tables the decision read: one pass over
    # the 2^10 deletion lanes per side, beside the two one-lane passes of W(X)
    lanes = []
    held_karp = invariant._held_karp

    def recording(columns, k):
        lanes.append(k)
        return held_karp(columns, k)

    monkeypatch.setattr(checks, "_deletion_columns", _faulty_deletions(lambda S: S[:2] if len(S) == 3 else S))
    monkeypatch.setattr(invariant, "_held_karp", recording)
    (report,) = check_identities(parse_generator_spec("tournament:5:2"), ["subset-decomposition"])
    assert (report.status, report.witness) == ("fail", "coefficient at 1/2/3/45: 0 != -36")
    assert sorted(lanes) == [1, 1, 1024, 1024]


@pytest.mark.parametrize(
    "spec, witness",
    [
        ("tournament:5:2", "coefficient at 1/2/345: 0 != 512"),
        ("tournament:4:1", "coefficient at 1/234: 0 != 32"),
        ("random:5:0.3:1", "coefficient at 1/2/345: 2 != -254"),
        ("random:5:0.3:2", "coefficient at 1/2/345: 1 != 33"),
        ("random:4:0.6:3", "coefficient at 1/234: 1 != 513"),
    ],
)
def test_a_weight_that_reads_edges_outside_its_block_is_named_by_the_full_comparison(monkeypatch, spec, witness):
    # a 3-vertex block weight that reads the parity of the whole edge set,
    # through the cycle counts of the digraph that the weights of X and of its
    # deletions read: the block tables of the deletions still vanish on these
    # instances, so only the locality compare of the counts sends them to the
    # full comparison.  Lane T of the deletions is X minus the edges that T
    # selects of sorted(E), so it has |E| - |T| edges
    dg = parse_generator_spec(spec)
    cycle_tables = invariant._cycle_tables

    def reads_every_edge(columns, k):
        in_x, in_complement = cycle_tables(columns, k)
        lanes = _unpack(in_x, dg.n, k)
        for T, counts in enumerate(lanes):
            for B in range(len(counts)):
                counts[B] += B.bit_count() == 3 and (len(dg.edges) - T.bit_count()) % 2
        if k == 1:
            return lanes[0], in_complement
        return [int.from_bytes(array(_LANE_CODES[dg.n], entry), sys.byteorder) for entry in zip(*lanes)], in_complement

    monkeypatch.setattr(invariant, "_cycle_tables", reads_every_edge)
    monkeypatch.setattr(checks, "_cycle_tables", reads_every_edge)
    (report,) = check_identities(dg, ["subset-decomposition"])
    assert (report.status, report.witness) == ("fail", witness)


def _faulty_deletions(fault):
    """_deletion_columns from literal deletions, each of the edges that
    fault keeps of its selection."""

    def deletion_columns(dg, removed):
        return pack_lanes([dg.delete_edges(fault(S)).successor_masks() for S in _selections(removed)])

    return deletion_columns


def _contract_the_wrong_way(dg):
    """contract_last_edge with the orientation swapped: the merged vertex takes
    the in-edges of n and the out-edges of n-1."""
    n = dg.n
    kept = {(u, v) for u, v in dg.edges if u <= n - 2 and v <= n - 2}
    kept |= {(w, n - 1) for w in range(1, n - 1) if (w, n) in dg.edges}
    kept |= {(n - 1, w) for w in range(1, n - 1) if (n - 1, w) in dg.edges}
    return Digraph(n - 1, kept)


@pytest.mark.parametrize(
    "spec, check, witness",
    [
        ("tournament:5:2", "subset-decomposition", "coefficient at 1/2/3/45: 0 != 9"),
        ("tournament:5:2", "cycle-decomposition", "coefficient at 1/24/3/5: 0 != 1"),
        ("random:5:0.3:1", "triangle", "coefficient at 1/2/3/45: 0 != 1"),
        ("random:4:0.6:3", "cycle-decomposition", "coefficient at 1/23/4: -1 != 0"),
        ("cycle:3", "subset-decomposition", "coefficient at 1/23: 0 != 1"),
        ("cycle:3", "triangle", "coefficient at 1/23: 0 != 1"),
        ("complete:3", "triangle", "coefficient at 1/23: -1 != 0"),
    ],
)
def test_a_deletion_that_keeps_an_edge_is_named_by_the_full_comparison(monkeypatch, spec, check, witness):
    # on cycle:3 and complete:3 the block tables of the faulty deletions still
    # vanish, so only the locality compare of their counts sends these
    # instances to the full comparison
    monkeypatch.setattr(checks, "_deletion_columns", _faulty_deletions(lambda S: S[:1] if len(S) == 2 else S))
    (report,) = check_identities(parse_generator_spec(spec), [check])
    assert (report.status, report.witness) == ("fail", witness)


@pytest.mark.parametrize(
    "spec, witness",
    [
        ("tournament:5:2", "edge (1,4): coefficient at 1/2/345: 0 != 2"),
        ("random:5:0.3:1", "edge (1,4): coefficient at 1/2/345: 2 != 0"),
        ("random:4:0.6:3", "edge (1,2): coefficient at 1/234: 0 != 1"),
        ("cycle:3", "edge (1,2): coefficient at 123: 2 != 0"),
        ("complete:3", None),
        ("random:6:0.3:1", "edge (1,4): coefficient at 1/2/3/456: 1 != 0"),
    ],
)
def test_a_contraction_with_the_wrong_orientation_is_named_by_the_full_comparison(monkeypatch, spec, witness):
    monkeypatch.setattr(Digraph, "contract_last_edge", _contract_the_wrong_way)
    (report,) = check_identities(parse_generator_spec(spec), ["deletion-contraction"])
    assert (report.status, report.witness) == ("pass" if witness is None else "fail", witness)


@pytest.mark.parametrize(
    "spec, witness",
    [
        ("cycle:3", "coefficient at 123: 3 != 0"),
        ("random:4:0.6:3", "coefficient at 1/234: 1 != 0"),
        ("tournament:5:2", "coefficient at 1/2/345: 1 != 2"),
        ("random:5:0.3:1", "coefficient at 1/2/345: 3 != 2"),
    ],
)
def test_cross_algorithm_past_the_definition_capacity_compares_p_with_deletion_contraction(monkeypatch, spec, witness):
    # with the definition route's capacity below n, the check never calls it:
    # it passes on the P -> M comparison, and that comparison alone names a
    # deletion-contraction fault
    dg = parse_generator_spec(spec)
    monkeypatch.setitem(invariant.ROUTES, "definition", (invariant.ROUTES["definition"][0], dg.n - 1))

    def refuses(dg):
        raise AssertionError("the definition route was called past its capacity")

    monkeypatch.setattr(checks, "rb_by_colorings", refuses)
    (report,) = check_identities(dg, ["cross-algorithm"])
    assert (report.status, report.witness) == ("pass", None)
    monkeypatch.setattr(Digraph, "contract_last_edge", _contract_the_wrong_way)
    (report,) = check_identities(dg, ["cross-algorithm"])
    assert (report.status, report.witness) == ("fail", witness)


def _rewrites_p(rewrite):
    """rb_by_permutations with its terms passed through rewrite(n, terms)."""
    return lambda dg: NCSymElement(dg.n, "P", rewrite(dg.n, dict(rb_by_permutations(dg).terms)))


@pytest.mark.parametrize(
    "check, fault, witness",
    [
        (
            "integrality",
            _rewrites_p(lambda n, terms: {**terms, P("123"): terms[P("123")] + Fraction(1, 2)}),
            "P-basis coefficient at 123 is 5/2",
        ),
        (
            "p-nonnegativity",
            _rewrites_p(lambda n, terms: {**terms, P("123"): -terms[P("123")]}),
            "negative power-sum coefficient -2 at 123",
        ),
        (
            "p-nonnegativity",
            _rewrites_p(lambda n, terms: {k: c for k, c in terms.items() if len(k) < n}),
            "coefficient at the all-singletons partition is 0, expected >= 1",
        ),
    ],
    ids=["fraction", "negative", "no-singletons"],
)
def test_a_faulty_p_expansion_is_named_by_its_check(monkeypatch, check, fault, witness):
    # cycle:3 has the P terms 1/2/3: 1 and 123: 2, and no even directed cycle
    monkeypatch.setattr(checks, "rb_by_permutations", fault)
    (report,) = check_identities(cycle_digraph(3), [check])
    assert (report.status, report.witness) == ("fail", witness)


def test_a_path_count_off_by_one_is_named_by_berge_parity(monkeypatch):
    # one more Hamiltonian path on cycle:3, which holds the edge (1, 2), and
    # none on its complement, which does not
    path_count = Digraph.hamiltonian_path_count
    monkeypatch.setattr(Digraph, "hamiltonian_path_count", lambda dg: path_count(dg) + ((1, 2) in dg.edges))
    (report,) = check_identities(cycle_digraph(3), ["berge-parity"])
    assert (report.status, report.witness) == ("fail", "Hamiltonian path counts 4 and 3 differ mod 2")


@st.composite
def digraphs_with_edge_sets(draw, max_n=6, max_edges=5):
    """A digraph with loops allowed, and a list of its edges: few such lists
    are cycles, so the deletion-sum identity fails on many of them."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
    edges = sorted(draw(st.sets(st.sampled_from(pairs), min_size=1)))
    return Digraph(n, edges), draw(st.lists(st.sampled_from(edges), min_size=1, max_size=max_edges, unique=True))


@settings(max_examples=200, deadline=None)
@given(digraphs_with_edge_sets())
@example((path_digraph(3), [(1, 2), (2, 3)]))
@example((cycle_digraph(4), [(1, 2), (2, 3), (3, 4), (4, 1)]))
@example((Digraph(2, [(1, 1), (1, 2), (2, 1)]), [(1, 1), (1, 2)]))
def test_deletion_tables_decide_as_the_alternating_sum(case):
    dg, edges = case
    full = _difference(rb_by_permutations(dg), _literal_deletion_sum(dg, edges))
    k = 1 << len(edges)
    assert _deletion_tables_vanish(dg.n, edges, invariant._cycle_tables(_deletion_columns(dg, edges), k)) == (full is None)


@pytest.mark.parametrize(
    "spec",
    [f"{family}:{seed}" for family in ("random:4:0.3", "random:5:0.3", "tournament:4", "tournament:5") for seed in (1, 2, 3)]
    + ["cycle:8"],
)
def test_block_weight_tables_of_the_deletions_equal_the_weights_of_each(spec):
    # the deletion checks read the counts of all 2^|F| deletions from one
    # packed pass per side, one lane per deletion
    dg = parse_generator_spec(spec)
    F = sorted(dg.edges)[: checks.MAX_SUBSET_EDGES]
    k = 1 << len(F)
    in_x, in_complement = (_unpack(t, dg.n, k) for t in invariant._cycle_tables(_deletion_columns(dg, F), k))
    sizes = [B.bit_count() for B in range(1 << dg.n)]
    weights = [list(map(invariant._block_weight, a, b, sizes)) for a, b in zip(in_x, in_complement)]
    assert weights == [invariant._block_weights(dg.delete_edges(S)) for S in _selections(F)]


@pytest.mark.parametrize("spec", ["tournament:5:1", "random:5:0.3:1"])
def test_the_deletion_sum_decision_builds_no_deletion(monkeypatch, spec):
    def refused(self, removed):
        raise AssertionError("delete_edges called")

    monkeypatch.setattr(Digraph, "delete_edges", refused)
    (report,) = check_identities(parse_generator_spec(spec), ["subset-decomposition"])
    assert report.status == "pass"


@st.composite
def digraphs_with_a_non_loop_edge(draw, max_n=6):
    """A digraph with loops allowed, one of its non-loop edges, and any
    digraph on one vertex fewer."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
    edge = draw(st.sampled_from([(u, v) for u, v in pairs if u != v]))
    other = Digraph(n - 1, draw(st.sets(st.sampled_from([(u, v) for u, v in pairs if u < n and v < n]))))
    return Digraph(n, draw(st.sets(st.sampled_from(pairs))) | {edge}), edge, other


@settings(max_examples=100, deadline=None)
@given(digraphs_with_a_non_loop_edge())
# here the third digraph's tables match through 3 and 4, and differ inside {1, 2}
@example((Digraph(4, [(1, 4), (3, 4), (4, 1), (4, 3)]), (3, 4), Digraph(3, [(1, 3), (2, 1)])))
def test_contraction_tables_decide_as_the_full_comparison(case):
    # the right contraction satisfies the identity; the wrong orientation and
    # an unrelated digraph mostly do not
    dg, (u, v), other = case
    _, moved, contracted = _split_on_edge(dg, u, v)
    deleted = moved.delete_edges([(dg.n - 1, dg.n)])
    for c in (contracted, _contract_the_wrong_way(moved), other):
        full = _difference(rb_by_permutations(moved), rb_by_permutations(deleted) - rb_by_permutations(c).induct())
        weights = map(invariant._block_weights, (moved, deleted, c))
        assert _contraction_tables_agree(*weights) == (full is None)


@settings(max_examples=100, deadline=None)
@given(digraphs_with_a_non_loop_edge())
@example((Digraph(4, [(1, 4), (3, 4), (4, 1), (4, 3)]), (3, 4), Digraph(3, [(1, 3), (2, 1)])))
def test_the_packed_contraction_decision_equals_the_per_edge_decision(case):
    # every non-loop edge with its right contraction, the wrong orientation and
    # an unrelated digraph, all packed as lanes of one pass per side
    dg, _, other = case
    splits = []
    for u, v in dg.non_loop_edges():
        _, moved, contracted = _split_on_edge(dg, u, v)
        splits += [(moved, c) for c in (contracted, _contract_the_wrong_way(moved), other)]
    packed = checks._contraction_weights(splits)
    for i, (moved, c) in enumerate(splits):
        deleted = moved.delete_edges([(dg.n - 1, dg.n)])
        one_by_one = _contraction_tables_agree(*map(invariant._block_weights, (moved, deleted, c)))
        assert _contraction_tables_agree(*packed[3 * i : 3 * i + 3]) == one_by_one


def test_deletion_contraction_makes_one_pass_pair_over_every_edge(monkeypatch):
    # the 10 edges of a 5-vertex tournament, three lanes each: moved, deleted
    # and the contraction with an isolated vertex added
    lanes = []
    held_karp = invariant._held_karp

    def recording(columns, k):
        lanes.append(k)
        return held_karp(columns, k)

    monkeypatch.setattr(invariant, "_held_karp", recording)
    (report,) = check_identities(parse_generator_spec("tournament:5:1"), ["deletion-contraction"])
    assert report.status == "pass"
    assert lanes == [30, 30]


def _restricted_growth(colors):
    """The coloring with the same classes, colored 1..k in order of first appearance."""
    ranks = {}
    for c in colors:
        ranks.setdefault(c, len(ranks) + 1)
    return tuple(ranks[c] for c in colors)


@pytest.mark.parametrize(
    "dg",
    [
        Digraph(4, [(1, 1), (1, 2), (2, 1), (2, 3), (3, 3), (3, 4), (4, 2)]),
        Digraph(4, [(1, 2), (2, 1), (3, 4), (4, 3), (1, 3)]),
        random_digraph(4, 0.5, seed=2),
        random_tournament(4, seed=1),
        random_tournament(4, seed=5),
    ],
    ids=["loops", "two-cycles", "random", "tournament-1", "tournament-5"],
)
def test_friendly_counts_depend_only_on_the_partition_into_color_classes(dg):
    # the counting-lemma check evaluates only the restricted growth string of
    # each partition, the first coloring in product order with its classes
    for colors in itertools.product(range(1, 5), repeat=4):
        rgs = _restricted_growth(colors)
        assert rgs <= colors
        assert count_friendly(dg, colors) == count_friendly(dg, rgs), colors


def test_counting_lemma_makes_one_path_table_call_over_every_deletion(monkeypatch):
    # the path tables of the 64 deletions are the cycle tables of their
    # loopless complements with the isolated vertex 5 added, an apex there,
    # packed one lane per deletion
    calls = []
    held_karp = checks._held_karp

    def recording(columns, k):
        calls.append((columns, k))
        return held_karp(columns, k)

    def refused(*args):
        raise AssertionError("a deletion or a literal friendly count was made")

    dg = parse_generator_spec("tournament:4:1")
    edges = sorted(dg.edges)
    with_apex = Digraph(5, edges)
    lanes = [_complement_columns(with_apex.delete_edges(S).successor_masks(), 1) for S in _selections(edges)]
    expected = [(pack_lanes(lanes), 64)]
    monkeypatch.setattr(checks, "_held_karp", recording)
    monkeypatch.setattr(Digraph, "delete_edges", refused)
    monkeypatch.setattr(checks, "count_friendly", refused)
    monkeypatch.setattr(invariant, "count_friendly", refused)
    (report,) = check_identities(dg, ["counting-lemma"])
    assert report.status == "pass"
    assert len(lanes) == 2 ** len(edges) == 64
    assert calls == expected


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("n", [6, 9])
def test_friendly_counts_read_the_path_tables_at_the_apex_field_width(n, m):
    # with the apex the path tables span n + 1 vertices, in wider fields than
    # n takes: 8 -> 16 bits at n = 6, 16 -> 32 at n = 9.  Every block B is the
    # one block of size above 1 of some partition, so the counts hold each
    # deletion's path table on every B
    assert array(_LANE_CODES[n]).itemsize < array(_LANE_CODES[n + 1]).itemsize
    dg = random_digraph(n, 0.3, 1)
    edges = dg.non_loop_edges()[:m]
    paths = [
        hamiltonian_path_counts(_complement_columns(dg.delete_edges(S).successor_masks(), 1)) for S in _selections(edges)
    ]
    for colors, counts in checks._friendly_counts(dg, edges).items():
        blocks = [sum(1 << v for v, c in enumerate(colors) if c == color) for color in set(colors)]
        assert counts == [math.prod(table[B] for B in blocks) for table in paths], colors


@pytest.mark.parametrize("spec", ["tournament:4:2", "random:4:0.3:1", "random:4:0.3:2"])
def test_the_counting_lemma_builds_no_deletion(monkeypatch, spec):
    # random:4:0.3:1 has a loop, a lane that leaves every successor mask alone
    def refused(self, removed):
        raise AssertionError("delete_edges called")

    dg = parse_generator_spec(spec)
    expected = check_identities(dg, ["counting-lemma"])
    monkeypatch.setattr(Digraph, "delete_edges", refused)
    assert check_identities(dg, ["counting-lemma"]) == expected
    assert expected[0].status == "pass"


def _friendly_counts_match_count_friendly(dg):
    """_friendly_counts of every deletion of dg, for every partition's
    restricted growth string in product order, against count_friendly."""
    edges = sorted(dg.edges)
    deleted = [dg.delete_edges(S) for S in _selections(edges)]
    table = checks._friendly_counts(dg, edges)
    colorings = itertools.product(range(1, dg.n + 1), repeat=dg.n)
    block_colorings = sorted({_restricted_growth(colors) for colors in colorings})
    assert list(table) == block_colorings
    for colors, counts in table.items():
        assert counts == [count_friendly(d, colors) for d in deleted], colors


@pytest.mark.parametrize(
    "spec", [f"tournament:4:{s}" for s in (1, 2, 3)] + [f"random:4:{p}:{s}" for p in (0.3, 0.6) for s in (1, 2, 3)]
)
def test_counting_lemma_path_table_counts_equal_the_literal_friendly_counts(spec):
    dg = parse_generator_spec(spec)
    _friendly_counts_match_count_friendly(dg)
    (report,) = check_identities(dg, ["counting-lemma"])
    if report.status != "skipped":  # the random ones at p = 0.6 have 7 to 10 edges, above the check's 6
        assert (report.status, report.witness) == ("pass", counting_lemma_witness(dg, count_friendly))


@st.composite
def digraphs_with_at_most(draw, max_n, max_edges):
    """A digraph on at most max_n vertices, loops allowed, with at most max_edges edges."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
    return Digraph(n, draw(st.sets(st.sampled_from(pairs), max_size=max_edges)))


@given(digraphs_with_at_most(max_n=4, max_edges=checks.MAX_COUNTING_LEMMA_EDGES))
@settings(max_examples=30, deadline=None)
def test_counting_lemma_path_table_counts_equal_the_literal_friendly_counts_on_drawn_digraphs(dg):
    _friendly_counts_match_count_friendly(dg)
    (report,) = check_identities(dg, ["counting-lemma"])
    assert report.status in ("pass", "skipped"), report.witness


def _literal_deletion_sum(dg, edges):
    total = NCSymElement(dg.n, "P", {})
    for r in range(1, len(edges) + 1):
        for S in itertools.combinations(edges, r):
            term = rb_by_permutations(dg.delete_edges(S))
            total = total + term if len(S) % 2 else total - term
    return total


@pytest.mark.parametrize(
    "dg",
    [random_digraph(n, p, seed) for n in (1, 2, 3, 4, 5) for p in (0.3, 0.6) for seed in (1, 2)]
    + [random_tournament(5, 3), cycle_digraph(5)],
)
def test_alternating_deletion_sum_matches_the_literal_sum(monkeypatch, dg):
    edges = sorted(dg.edges)[:8]
    expected = _difference(rb_by_permutations(dg), _literal_deletion_sum(dg, edges))
    assert _CheckRunner(dg, None, "")._deletion_sum_witness(edges) == expected
    monkeypatch.setattr(checks, "_deletion_tables_vanish", lambda n, edges, tables: False)
    assert _CheckRunner(dg, None, "")._deletion_sum_witness(edges) == expected


def test_alternating_deletion_sum_drops_the_terms_that_cancel(monkeypatch):
    dg = Digraph(2, [(2, 1), (2, 2)])
    edges = sorted(dg.edges)
    total = _literal_deletion_sum(dg, edges)
    assert P("12") in rb_by_permutations(dg.delete_edges([(2, 1)])).terms
    assert P("12") not in total.terms and total == rb_by_permutations(dg)
    monkeypatch.setattr(checks, "_deletion_tables_vanish", lambda n, edges, tables: False)
    assert _CheckRunner(dg, None, "")._deletion_sum_witness(edges) is None


# -- report plumbing -----------------------------------------------------------


def test_compare_elements_failure_carries_witness():
    lhs = NCSymElement(2, "P", {P("12"): 2})
    rhs = NCSymElement(2, "P", {P("12"): 3})
    witness = _difference(lhs, rhs)
    assert "12" in witness and "2" in witness and "3" in witness
    assert _difference(lhs, lhs) is None


def test_difference_names_a_degree_or_basis_mismatch():
    # two zero elements share every coefficient, yet are unequal
    for rhs in (NCSymElement(3, "P", {}), NCSymElement(2, "M", {})):
        assert _difference(NCSymElement(2, "P", {}), rhs) == "elements differ in degree or basis"


def test_verification_report_validation():
    with pytest.raises(ValueError):
        VerificationReport("c", "i", "fail")  # failure without witness
    with pytest.raises(ValueError):
        VerificationReport("c", "i", "maybe")
    ok = VerificationReport("c", "i", "pass")
    assert ok.passed and ok.witness is None
