"""The identity-verification suite: pass/fail/skipped reporting and witnesses."""

import pytest

from redeiberge.checks import (
    ALL_CHECKS,
    VerificationReport,
    _difference,
    check_identities,
)
from redeiberge.digraph import (
    Digraph,
    complete_digraph,
    cycle_digraph,
    discrete_digraph,
    path_digraph,
    random_digraph,
    random_tournament,
)
from redeiberge.ncsym import NCSymElement
from redeiberge.setpart import parse_set_partition

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


@pytest.mark.parametrize("n", [9, 10, 12, 13])
def test_checks_skip_beyond_route_capacity(n):
    # every route refuses these sizes; each check reports instead of raising
    for dg in (discrete_digraph(n), complete_digraph(n), random_tournament(n, 1)):
        reports = check_identities(dg)
        assert [r.check for r in reports] == list(ALL_CHECKS)
        assert not [(r.check, r.witness) for r in reports if r.status == "fail"]
        if n == 13:  # above the cycle-count table's limit
            assert by_name(reports)["p-nonnegativity"].status == "skipped"
        # the Hamiltonian-path count's apex table fits up to n = 11
        berge = by_name(reports)["berge-parity"].status
        assert berge == {9: "pass", 10: "pass", 12: "skipped", 13: "skipped"}[n]


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


# -- report plumbing -----------------------------------------------------------


def test_compare_elements_failure_carries_witness():
    lhs = NCSymElement.basis_element("P", P("12"), 2)
    rhs = NCSymElement.basis_element("P", P("12"), 3)
    witness = _difference(lhs, rhs)
    assert "12" in witness and "2" in witness and "3" in witness
    assert _difference(lhs, lhs) is None


def test_verification_report_validation():
    with pytest.raises(ValueError):
        VerificationReport("c", "i", "fail")  # failure without witness
    with pytest.raises(ValueError):
        VerificationReport("c", "i", "maybe")
    ok = VerificationReport("c", "i", "pass")
    assert ok.passed and ok.witness is None
