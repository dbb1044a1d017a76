"""Noncommutative symmetric function arithmetic, validated against the
word-expansion oracle and by exact round trips."""

import copy
import hashlib
import itertools
import json
import pickle
import random
import time
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redeiberge import ncsym, setpart
from redeiberge.digraph import Digraph, cycle_digraph, random_digraph, random_tournament
from redeiberge.errors import DegreeMismatchError, SizeLimitError
from redeiberge.invariant import rb_by_permutations
from redeiberge.ncsym import CSymElement, NCSymElement, multiply
from redeiberge.setpart import (
    MAX_LATTICE_DEGREE,
    IntPartition,
    SetPartition,
    _lattice,
    apply_perm,
    enumerate_partitions,
    insert_last,
    mobius,
    mobius_from_bottom,
    parse_set_partition,
    refinements,
    refines,
    singletons,
)

from oracles import commutative_image_by_terms, convert_along_rows, expand

P = parse_set_partition


def nc(basis, text, coeff=1):
    pi = P(text)
    return NCSymElement(pi.n, basis, {pi: coeff})


def random_element(n, basis, rng, max_terms=4):
    keys = rng.sample(enumerate_partitions(n), k=min(max_terms, len(enumerate_partitions(n))))
    return NCSymElement(n, basis, {k: rng.randint(-3, 3) for k in keys})


# -- the oracle's own frozen examples -----------------------------------------


def test_expand_monomial_basis():
    assert expand(nc("M", "12"), 2) == {(1, 1): 1, (2, 2): 1}


def test_expand_power_basis():
    # no constraint between singleton blocks: all four words appear
    assert expand(nc("P", "1/2"), 2) == {
        (1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 1,
    }


def test_expand_elementary_basis():
    assert expand(nc("E", "12"), 2) == {(1, 2): 1, (2, 1): 1}


# -- conversions ----------------------------------------------------------------


def test_p_in_monomial_basis_on_two_elements():
    assert nc("P", "1/2").to_basis("M") == NCSymElement(2, "M", {P("1/2"): 1, P("12"): 1})


def test_e_in_power_basis_on_two_elements():
    assert nc("E", "12").to_basis("P") == NCSymElement(2, "P", {P("1/2"): 1, P("12"): -1})


def test_all_bases_coincide_in_degree_one():
    for basis in ("M", "P", "E"):
        x = nc(basis, "1")
        for target in ("M", "P", "E"):
            assert x.to_basis(target).terms == {P("1"): Fraction(1)}


def test_conversions_preserve_expansion():
    # the word expansion is basis independent, so it pins every conversion
    for n in range(1, 5):
        k = min(n + 1, 4)
        for pi in enumerate_partitions(n):
            for basis in ("M", "P", "E"):
                x = NCSymElement(n, basis, {pi: 1})
                reference = expand(x, k)
                for target in ("M", "P", "E"):
                    assert expand(x.to_basis(target), k) == reference, (basis, target, pi)


def test_round_trips_identity_on_random_elements():
    rng = random.Random(11)
    for n in range(1, 6):
        for b1, b2 in itertools.product("MPE", repeat=2):
            x = random_element(n, b1, rng)
            assert x.to_basis(b2).to_basis(b1) == x, (n, b1, b2)


def test_e_in_p_inversion_by_substitution():
    # substituting e = sum mu(0,tau) p_tau into the p-from-e identity must
    # return p exactly, for every partition of ground size <= 4
    for n in range(1, 5):
        for pi in enumerate_partitions(n):
            accum = {}
            for sigma in refinements(pi)[0]:
                outer = Fraction(mobius(sigma, pi), mobius_from_bottom(pi))
                for tau in refinements(sigma)[0]:
                    accum[tau] = accum.get(tau, Fraction(0)) + outer * mobius_from_bottom(tau)
            assert NCSymElement(n, "P", accum) == NCSymElement(n, "P", {pi: 1})


# -- the four change-of-basis formulas, term by term ---------------------------------


@lru_cache(maxsize=None)
def _interval(pi, upward):
    """sigma >= pi (upward) or sigma <= pi, filtered from the full enumeration."""
    return [s for s in enumerate_partitions(pi.n) if (refines(pi, s) if upward else refines(s, pi))]


def _to_p_by_formula(x):
    pairs = []
    for pi, c in x.terms.items():
        if x.basis == "P":
            pairs.append((pi, c))
        elif x.basis == "M":  # m_pi = sum of mu(pi, sigma) p_sigma over sigma >= pi
            pairs += [(s, c * mobius(pi, s)) for s in _interval(pi, True)]
        else:  # e_pi = sum of mu(0, sigma) p_sigma over sigma <= pi
            pairs += [(s, c * mobius_from_bottom(s)) for s in _interval(pi, False)]
    return pairs


def _from_p_by_formula(pairs, target):
    out = {}
    for pi, c in pairs:
        if target == "P":
            row = [(pi, c)]
        elif target == "M":  # p_pi = sum of m_sigma over sigma >= pi
            row = [(s, c) for s in _interval(pi, True)]
        else:  # p_pi = (1 / mu(0, pi)) sum of mu(sigma, pi) e_sigma over sigma <= pi
            row = [(s, Fraction(c * mobius(s, pi), mobius_from_bottom(pi))) for s in _interval(pi, False)]
        for s, v in row:
            out[s] = out.get(s, 0) + v
    return out


@st.composite
def mixed_elements(draw, basis):
    n = draw(st.integers(1, 6))
    keys = draw(st.lists(st.sampled_from(enumerate_partitions(n)), min_size=1, max_size=4, unique=True))
    proper_fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(2, 6)).filter(lambda f: f.denominator > 1)
    coefficients = st.one_of(st.integers(-5, 5), proper_fractions)
    return NCSymElement(n, basis, {k: draw(coefficients) for k in keys})


@pytest.mark.parametrize("source, target", list(itertools.product("MPE", repeat=2)))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_conversion_matches_the_formulas(source, target, data):
    x = data.draw(mixed_elements(source))
    converted = x.to_basis(target)
    assert converted == NCSymElement(x.degree, target, _from_p_by_formula(_to_p_by_formula(x), target))
    # integral coefficients are ints; only non-integral ones are Fractions
    assert all(type(c) is int or c.denominator > 1 for c in converted.terms.values())


def seeded_element(n, basis, rng, size):
    """About size distinct random keys of degree n (each element a random block
    label, so no enumeration of the degree), with int and Fraction
    coefficients, some of them zero."""
    keys = set()
    for _ in range(size):
        labels = [rng.randrange(n) for _ in range(n)]
        keys.add(SetPartition([[x + 1 for x in range(n) if labels[x] == label] for label in set(labels)]))
    coefficients = (rng.randint(-4, 4), Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
    return NCSymElement(n, basis, {k: rng.choice(coefficients) for k in keys})


@pytest.mark.parametrize("n", range(0, 8))
def test_conversions_equal_the_row_sum_oracle_with_keys_ascending(n):
    rng = random.Random(n)
    for source, target in itertools.permutations("MPE", 2):
        for size in (1, 3, 12, 40):
            x = seeded_element(n, source, rng, size)
            converted = x.to_basis(target)
            assert converted.terms == convert_along_rows(x, target).terms, (source, target, x)
            keys = list(converted.terms)
            assert keys == sorted(keys), (source, target, x)


@pytest.mark.parametrize("n", range(0, 8))
def test_commutative_image_equals_the_per_term_formula(n):
    rng = random.Random(100 + n)
    for basis in "MPE":
        for size in (1, 3, 12, 40):
            x = seeded_element(n, basis, rng, size)
            assert x.commutative_image() == commutative_image_by_terms(x), x


@pytest.mark.parametrize("n", range(9, 13))
def test_commutative_image_of_sparse_elements_builds_no_lattice_table(n):
    rng = random.Random(200 + n)
    tables = _lattice.cache_info().currsize
    for basis in "MPE":
        x = seeded_element(n, basis, rng, 60)
        assert x.commutative_image() == commutative_image_by_terms(x), x
    assert _lattice.cache_info().currsize == tables


@pytest.mark.parametrize("n", range(MAX_LATTICE_DEGREE + 1, 13))
def test_conversion_to_another_basis_refuses_a_degree_without_a_lattice_table(n):
    tables = _lattice.cache_info().currsize
    for pi in (singletons(n), SetPartition([range(1, n + 1)])):
        for source, target in itertools.permutations("MPE", 2):
            x = NCSymElement(n, source, {pi: 1})
            start = time.perf_counter()
            with pytest.raises(SizeLimitError, match=f"degree {n}"):
                x.to_basis(target)
            assert time.perf_counter() - start < 0.1, (source, target, pi)
    assert _lattice.cache_info().currsize == tables


def test_conversion_to_its_own_basis_is_the_element_at_n_12():
    for basis in "MPE":
        x = NCSymElement(12, basis, {singletons(12): 2, SetPartition([range(1, 13)]): -1})
        assert x.to_basis(basis) is x


@pytest.mark.parametrize(
    "dg",
    [random_digraph(6, 0.4, 3), random_tournament(7, 1), random_digraph(8, 0.3, 7)],
    ids=["random-6", "tournament-7", "random-8"],
)
def test_power_sum_and_monomial_expansions_hold_ints(dg):
    in_p = rb_by_permutations(dg)
    for x in (in_p, in_p.to_basis("M")):
        assert all(type(c) is int for c in x.terms.values()), x.basis


def test_integral_coefficients_stay_int():
    data = {"degree": 3, "basis": "E", "terms": [{"blocks": "12/3", "coeff": "-4"}, {"blocks": "123", "coeff": "3/2"}]}
    x = NCSymElement.from_json_dict(data)
    assert type(x.coefficient(P("12/3"))) is int and x.coefficient(P("123")) == Fraction(3, 2)
    assert type(x.coefficient(P("1/2/3"))) is int  # absent: 0
    doubled = x.scale(Fraction(2))
    assert [type(c) for c in doubled.terms.values()] == [int, int]
    assert NCSymElement.from_json_dict(doubled.to_json_dict()).terms == {P("12/3"): -8, P("123"): 3}
    image = CSymElement.from_json_dict({"degree": 2, "basis": "p", "terms": [{"parts": [2], "coeff": "6"}]})
    assert type(image.coefficient(IntPartition([2]))) is int
    assert type(image.coefficient(IntPartition([1, 1]))) is int
    assert type(image.scale(Fraction(1, 3)).coefficient(IntPartition([2]))) is int


# -- linear structure -------------------------------------------------------------


def test_add_cancels_to_zero():
    x = nc("P", "12")
    assert (x + (-x)).is_zero()


def test_scale():
    assert nc("M", "1/2").scale(2) == nc("M", "1/2", 2)
    assert 2 * nc("M", "1/2") == nc("M", "1/2", 2)


def test_add_converts_mixed_bases():
    # p_12 = m_12, so the sum in the M basis is 2 m_12
    total = nc("M", "12") + nc("P", "12")
    assert total == nc("M", "12", 2)


def test_add_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        nc("P", "1") + nc("P", "12")
    # commutative elements add only within one basis
    with pytest.raises(DegreeMismatchError, match="equal degree and basis"):
        CSymElement(2, "p", {IntPartition([2]): 1}) + CSymElement(2, "m", {IntPartition([2]): 1})


def test_to_basis_refuses_an_unknown_basis():
    with pytest.raises(ValueError, match="basis must be one of"):
        nc("P", "12").to_basis("X")


def test_zero_coefficients_never_stored():
    x = NCSymElement(2, "P", {P("12"): 0, P("1/2"): 1})
    assert P("12") not in x.terms
    assert x.coefficient(P("12")) == 0


def test_keys_sharing_one_coefficient_object_sum_separately():
    three = Fraction(3)
    x = NCSymElement(2, "P", {P("1/2"): three, P("12"): three})
    assert x.to_basis("M") == NCSymElement(2, "M", {P("1/2"): 3, P("12"): 6})


def test_csym_sum_and_product_collect_colliding_keys():
    x = CSymElement(2, "p", {IntPartition([2]): 2, IntPartition([1, 1]): 1})
    y = CSymElement(2, "p", {IntPartition([2]): 3, IntPartition([1, 1]): -1})
    assert x + y == CSymElement(2, "p", {IntPartition([2]): 5})
    # p2 * p11 and p11 * p2 both land on p211: -2 + 3
    expected = {IntPartition([2, 2]): 6, IntPartition([2, 1, 1]): 1, IntPartition([1, 1, 1, 1]): -1}
    assert x * y == CSymElement(4, "p", expected)


# -- products ----------------------------------------------------------------------


def test_product_examples_match_oracle():
    p1 = nc("P", "1")
    assert p1 * p1 == nc("P", "1/2")
    assert nc("P", "12") * p1 == nc("P", "12/3")


def test_product_unit():
    one = NCSymElement(0, "P", {SetPartition([]): 1})
    x = nc("P", "13/2", 3)
    assert multiply(x, one) == x
    assert multiply(one, x) == x


def test_shift_union_rule_against_expansion():
    # validation required before relying on the rule: p_pi * p_rho must match
    # the word-by-word concatenation product, for all pairs of degree <= 3
    k = 3
    for na in range(1, 4):
        for nb in range(1, 4 - na + 1):
            for pi in enumerate_partitions(na):
                for rho in enumerate_partitions(nb):
                    x = NCSymElement(na, "P", {pi: 1})
                    y = NCSymElement(nb, "P", {rho: 1})
                    left = expand(multiply(x, y), k)
                    xw, yw = expand(x, k), expand(y, k)
                    expected = {}
                    for wa, ca in xw.items():
                        for wb, cb in yw.items():
                            word = wa + wb
                            expected[word] = expected.get(word, Fraction(0)) + ca * cb
                    assert left == expected, (pi, rho)


def test_product_of_random_elements_matches_convolution():
    rng = random.Random(3)
    for _ in range(5):
        x = random_element(2, rng.choice("MPE"), rng)
        y = random_element(1, rng.choice("MPE"), rng)
        left = expand(multiply(x, y), 3)
        expected = {}
        for wa, ca in expand(x, 3).items():
            for wb, cb in expand(y, 3).items():
                word = wa + wb
                expected[word] = expected.get(word, Fraction(0)) + ca * cb
        expected = {w: c for w, c in expected.items() if c}
        assert left == expected


# -- induction ------------------------------------------------------------------------


def test_induct_examples():
    assert nc("M", "1").induct() == nc("M", "12")
    assert nc("P", "1/2").induct() == nc("P", "1/23")
    mixed = nc("M", "12") + nc("M", "1/2", 2)
    assert mixed.induct() == nc("M", "123") + nc("M", "1/23", 2)


def test_induct_degree_zero_rejected():
    with pytest.raises(ValueError):
        NCSymElement(0, "P", {SetPartition([]): 1}).induct()


def test_induct_appends_last_letter_in_expansion():
    rng = random.Random(19)
    for n in range(1, 5):
        x = random_element(n, rng.choice("MP"), rng)
        k = 3
        expected = {}
        for word, c in expand(x, k).items():
            expected[word + (word[-1],)] = c
        assert expand(x.induct(), k) == expected


# -- position action ---------------------------------------------------------------------


def test_act_examples():
    x = nc("P", "13/2") + nc("M", "12/3").to_basis("P")
    assert x.act((1, 2, 3)) == x
    assert nc("M", "1/2").act((2, 1)) == nc("M", "1/2")
    assert nc("P", "13/2").act((2, 3, 1)) == nc("P", "12/3")
    with pytest.raises(DegreeMismatchError):
        nc("P", "1/2").act((1, 2, 3))
    for x in (nc("P", "1/2"), NCSymElement(2, "P", {})):
        for delta in ((1, 1), (2, 3)):
            with pytest.raises(ValueError, match="is not a permutation of 1..2"):
                x.act(delta)


def test_act_permutes_word_positions():
    rng = random.Random(23)
    for n in range(1, 5):
        delta = list(range(1, n + 1))
        rng.shuffle(delta)
        delta = tuple(delta)
        x = random_element(n, rng.choice("MP"), rng)
        acted = expand(x.act(delta), 3)
        original = expand(x, 3)
        moved = {}
        for word, c in original.items():
            # position j of the image word holds the letter from position
            # delta-inverse(j) of the original
            image = tuple(word[delta.index(j + 1)] for j in range(n))
            moved[image] = c
        assert acted == moved


@pytest.mark.parametrize("n", range(1, 6))
def test_act_on_an_e_element_stays_in_e_and_relabels_its_keys(n):
    # e_pi is equivariant: moving the positions of a word keeps its letters
    # distinct inside each block, so delta(e_pi) = e_delta(pi)
    rng = random.Random(400 + n)
    for _ in range(4):
        delta = list(range(1, n + 1))
        rng.shuffle(delta)
        x = random_element(n, "E", rng, max_terms=6)
        acted = x.act(delta)
        assert acted.basis == "E"
        assert acted.terms == {apply_perm(delta, pi): c for pi, c in x.terms.items()}
        moved = {tuple(word[delta.index(j + 1)] for j in range(n)): c for word, c in expand(x, n).items()}
        assert expand(acted, n) == moved


def test_act_on_an_e_element_of_degree_11_needs_no_lattice_table():
    reversal = tuple(range(11, 0, -1))
    x = NCSymElement(11, "E", {SetPartition([range(1, 11), [11]]): 3, singletons(11): -1})
    acted = x.act(reversal)
    assert acted == NCSymElement(11, "E", {SetPartition([[1], range(2, 12)]): 3, singletons(11): -1})


@pytest.mark.parametrize("n", range(0, 7))
def test_act_and_induct_keys_are_those_of_apply_perm_and_insert_last(n):
    rng = random.Random(300 + n)
    keys = enumerate_partitions(n)
    x = NCSymElement(n, "M", {pi: c for c, pi in enumerate(keys, start=1)})
    for _ in range(5):
        delta = list(range(1, n + 1))
        rng.shuffle(delta)
        acted = x.act(delta)
        assert list(acted.terms.items()) == [(apply_perm(delta, pi), c) for pi, c in x.terms.items()]
    if n:
        assert list(x.induct().terms.items()) == [(insert_last(pi), c) for pi, c in x.terms.items()]


def test_induct_refuses_a_thirteenth_element():
    with pytest.raises(SizeLimitError, match="element 13 outside 1..12"):
        NCSymElement(12, "P", {singletons(12): 1}).induct()


@pytest.mark.parametrize("basis", ["P", "M"])
def test_induct_refuses_a_thirteenth_element_for_zero_too(basis):
    with pytest.raises(SizeLimitError, match="element 13 outside 1..12"):
        NCSymElement(12, basis, {}).induct()


def test_multiply_refuses_degree_13_before_building_any_key(monkeypatch):
    # two M elements with every key of degrees 7 and 6: converting either to P
    # through an uncached lattice table would build keys, and so would joining
    # any pair of their P terms
    x = NCSymElement(7, "M", dict.fromkeys(enumerate_partitions(7), 1))
    y = NCSymElement(6, "M", dict.fromkeys(enumerate_partitions(6), 1))
    built = []

    def counting(n, masks):
        built.append(masks)
        return trusted(n, masks)

    trusted = setpart._trusted_partition
    monkeypatch.setattr(ncsym, "_lattice", setpart._lattice.__wrapped__)
    for module in (setpart, ncsym):
        monkeypatch.setattr(module, "_trusted_partition", counting)
    with pytest.raises(SizeLimitError, match="ground set size 13 exceeds 12"):
        multiply(x, y)
    assert built == []


# -- commutative image -----------------------------------------------------------------------


def test_commutative_image_examples():
    assert nc("P", "13/2").commutative_image() == CSymElement(3, "p", {IntPartition([2, 1]): 1})
    assert nc("M", "1/2").commutative_image() == CSymElement(2, "m", {IntPartition([1, 1]): 2})
    assert nc("E", "123").commutative_image() == CSymElement(3, "e", {IntPartition([3]): 6})


def test_commutative_image_collects_colliding_keys():
    x = nc("P", "12/3") + nc("P", "13/2") + nc("P", "1/23")
    assert x.commutative_image() == CSymElement(3, "p", {IntPartition([2, 1]): 3})


def test_commutative_image_is_multiplicative():
    rng = random.Random(31)
    for _ in range(6):
        na = rng.randint(1, 2)
        nb = rng.randint(1, 3 - na)
        x = random_element(na, "P", rng)
        y = random_element(nb, "P", rng)
        lhs = multiply(x, y).commutative_image()
        rhs = x.commutative_image() * y.commutative_image()
        assert lhs == rhs


def test_commutative_p_product_concatenates_parts():
    a = CSymElement(2, "p", {IntPartition([2]): 1})
    b = CSymElement(3, "p", {IntPartition([2, 1]): 2})
    assert a * b == CSymElement(5, "p", {IntPartition([2, 2, 1]): 2})
    with pytest.raises(ValueError):
        CSymElement(1, "m", {IntPartition([1]): 1}) * b


# -- serialization ----------------------------------------------------------------------------


def test_json_round_trip_and_order():
    x = NCSymElement(3, "P", {P("123"): Fraction(1, 2), P("1/2/3"): -2})
    data = x.to_json_dict()
    assert data["degree"] == 3 and data["basis"] == "P"
    assert [t["blocks"] for t in data["terms"]] == ["1/2/3", "123"]
    assert [t["coeff"] for t in data["terms"]] == ["-2", "1/2"]
    assert NCSymElement.from_json_dict(data) == x


def test_json_sums_terms_that_name_one_partition():
    terms = [{"blocks": "1/2", "coeff": "1"}, {"blocks": "2/1", "coeff": "5"}]
    x = NCSymElement.from_json_dict({"degree": 2, "basis": "P", "terms": terms})
    assert x == nc("P", "1/2", 6)


DEGREE_10 = NCSymElement(
    10,
    "P",
    {
        P("{1,2}/{3}/{4,5,6,7,8,9,10}"): 1,
        P("{1,10}/{2,3,4,5,6,7,8,9}"): -2,
        P("{1,2,3,4,5,6,7,8,9,10}"): 5,
        P("{1,2}/{3,10}/{4,5,6,7,8,9}"): Fraction(3, 4),
    },
)


@pytest.mark.parametrize(
    "x",
    [rb_by_permutations(random_digraph(8, 0.3, 1)), rb_by_permutations(random_tournament(8, 2)), DEGREE_10],
    ids=["random-8", "tournament-8", "degree-10"],
)
def test_serialised_order_is_canonical_key_order(x):
    in_order = sorted(x.terms)  # SetPartition's own (n, blocks) order
    assert [t["blocks"] for t in x.to_json_dict()["terms"]] == [str(pi) for pi in in_order]
    assert repr(x) == "<" + " + ".join(f"{x.terms[pi]}*p[{pi}]" for pi in in_order) + ">"


def test_repr_of_each_algebra_and_of_zero():
    w = rb_by_permutations(cycle_digraph(3))
    m = CSymElement(3, "m", {IntPartition([2, 1]): Fraction(5, 3), IntPartition([1, 1, 1]): -2, IntPartition([3]): 1})
    expected = [
        (w, "<1*p[1/2/3] + 2*p[123]>"),
        (w.commutative_image(), "<2*p(3) + 1*p(1,1,1)>"),
        (w.to_basis("E"), "<3*e[1/2/3] + -1*e[1/23] + -1*e[12/3] + 1*e[123] + -1*e[13/2]>"),
        (w.to_basis("E").commutative_image(), "<6*e(3) + -6*e(2,1) + 3*e(1,1,1)>"),
        (w.scale(Fraction(-1, 2)), "<-1/2*p[1/2/3] + -1*p[123]>"),
        (m, "<1*m(3) + 5/3*m(2,1) + -2*m(1,1,1)>"),
        (NCSymElement(2, "E", {}), "<0 (degree 2, E basis)>"),
        (CSymElement(0, "m", {}), "<0 (degree 0, m basis)>"),
    ]
    for x, text in expected:
        assert repr(x) == text


def test_lines_are_the_terms_in_output_order():
    w = rb_by_permutations(cycle_digraph(3))
    assert w.lines() == ["p[1/2/3]  1", "p[123]  2"]
    assert w.scale(Fraction(1, 2)).commutative_image().lines() == ["p(3)  1", "p(1,1,1)  1/2"]
    assert NCSymElement(2, "M", {}).lines() == []


def test_plain_elements_print_from_their_block_masks(monkeypatch):
    # repr, lines() and the JSON of plain P, M and E elements for n <= 8 (the
    # P terms inserted in reverse order, so the printer sorts them) match one
    # recorded SHA-256 with str(SetPartition) raising: no key text is built
    def unused(pi):
        raise AssertionError("str(SetPartition) called while printing an element")

    monkeypatch.setattr(SetPartition, "__str__", unused)
    digest = hashlib.sha256()
    for n in range(9):
        p = NCSymElement(n, "P", dict(reversed(rb_by_permutations(random_digraph(n, 0.4, n)).terms.items())))
        for x in (p, p.to_basis("M"), p.to_basis("E"), NCSymElement(n, "M", {})):
            digest.update(f"{x!r}\n{x.lines()}\n{x.to_json_dict()}\n".encode())
    assert digest.hexdigest() == "1f7ef89078d78d222c9623ac8dbb00431028ab55e26a9a818f1eaabaf2ed3ba9"


@pytest.mark.parametrize("c", [0.1, 0.5, "1/2", Decimal("0.1"), None])
def test_coefficients_are_ints_or_fractions(c):
    with pytest.raises(TypeError):
        NCSymElement(2, "P", {P("12"): c})
    with pytest.raises(TypeError):
        CSymElement(2, "p", {IntPartition([2]): c})
    with pytest.raises(TypeError):
        nc("P", "12").scale(c)
    assert nc("P", "12").scale(True) == nc("P", "12")  # a bool is an int
    assert nc("P", "12", Fraction(4, 2)).terms == {P("12"): 2}


@pytest.mark.parametrize("n", [9, 10])
def test_rendering_round_trips_at_the_brace_boundary(n):
    rng = random.Random(n)
    for _ in range(200):
        labels = [rng.randint(1, n) for _ in range(n)]
        pi = SetPartition([v for v in range(1, n + 1) if labels[v - 1] == label] for label in set(labels))
        assert parse_set_partition(str(pi)) == pi


def test_json_round_trip_large_ground_set():
    pi = SetPartition([list(range(1, 11))])
    x = NCSymElement(pi.n, "M", {pi: 7})
    assert NCSymElement.from_json_dict(x.to_json_dict()) == x


def _library_values():
    dg = random_digraph(4, 0.4, seed=3)
    wp = rb_by_permutations(dg)
    return {
        SetPartition: P("13/2"),
        IntPartition: IntPartition([2, 1]),
        Digraph: dg,
        NCSymElement: wp.scale(Fraction(1, 2)),
        CSymElement: wp.commutative_image(),
    }


@pytest.mark.parametrize("kind", [SetPartition, IntPartition, Digraph, NCSymElement, CSymElement])
@pytest.mark.parametrize(
    "clone", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))], ids=["copy", "deepcopy", "pickle"]
)
def test_every_library_value_copies_and_pickles(kind, clone):
    value = _library_values()[kind]
    twin = clone(value)
    assert type(twin) is kind and twin == value and repr(twin) == repr(value)


@pytest.mark.parametrize("element, basis", [(NCSymElement, "M"), (CSymElement, "m")])
def test_negative_degree_is_refused(element, basis):
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        element(-1, basis, {})


@pytest.mark.parametrize(
    "element, basis, key, unit",
    [(NCSymElement, "P", P("12"), P("1")), (CSymElement, "p", IntPartition([2]), IntPartition([1]))],
)
def test_degree_is_read_as_an_integer(element, basis, key, unit):
    for degree in (2.0, 2.5, "2"):
        with pytest.raises(TypeError):
            element(degree, basis, {key: 1})
    one = element(True, basis, {unit: 1})
    assert type(one.degree) is int
    assert json.dumps(one.to_json_dict()).startswith('{"degree": 1, ')


@pytest.mark.parametrize(
    "element, data",
    [
        (NCSymElement, {"degree": 2, "basis": "P", "terms": [{"blocks": "12", "coeff": 0.1}]}),
        (CSymElement, {"degree": 2, "basis": "p", "terms": [{"parts": [2], "coeff": 0.1}]}),
    ],
)
def test_json_coefficient_is_a_string_or_an_int(element, data):
    with pytest.raises(TypeError):
        element.from_json_dict(data)
    (term,) = data["terms"]
    for coeff, value in (("0.1", Fraction(1, 10)), ("-3/6", Fraction(-1, 2)), (4, 4)):
        x = element.from_json_dict({**data, "terms": [{**term, "coeff": coeff}]})
        assert list(x.terms.values()) == [value]


@pytest.mark.parametrize("element, basis", [(NCSymElement, "m"), (CSymElement, "M")])
def test_unknown_basis_is_refused(element, basis):
    with pytest.raises(ValueError, match="basis must be one of"):
        element(1, basis, {})


@pytest.mark.parametrize(
    "element, basis, key", [(NCSymElement, "M", P("12")), (CSymElement, "m", IntPartition([1, 1]))]
)
def test_key_of_the_wrong_size_is_refused(element, basis, key):
    with pytest.raises(DegreeMismatchError, match="has size 2, element degree 3"):
        element(3, basis, {key: 1})


@pytest.mark.parametrize("kind", [NCSymElement, CSymElement])
def test_elements_are_unhashable(kind):
    with pytest.raises(TypeError):
        hash(_library_values()[kind])


def test_the_two_algebras_do_not_mix():
    x, y = _library_values()[NCSymElement], _library_values()[CSymElement]
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        for a, b in ((x, y), (y, x)):
            with pytest.raises(TypeError):
                op(a, b)


@pytest.mark.parametrize("kind, name", [(Digraph, "edges"), (NCSymElement, "terms"), (CSymElement, "terms")])
def test_attributes_cannot_be_set_or_deleted(kind, name):
    value = _library_values()[kind]
    assert not hasattr(value, "__dict__")
    before = getattr(value, name)
    with pytest.raises(AttributeError, match="immutable"):
        setattr(value, name, before)
    with pytest.raises(AttributeError, match="immutable"):
        delattr(value, name)
    assert getattr(value, name) == before


def test_csym_json_round_trip():
    x = CSymElement(3, "m", {IntPartition([2, 1]): Fraction(5, 3)})
    data = x.to_json_dict()
    assert data["commutative"] is True
    assert CSymElement.from_json_dict(data) == x


def test_csym_json_sums_terms_that_name_one_partition():
    terms = [{"parts": [2, 1], "coeff": "1"}, {"parts": [1, 2], "coeff": "5"}]
    x = CSymElement.from_json_dict({"degree": 3, "basis": "m", "terms": terms})
    assert x == CSymElement(3, "m", {IntPartition([2, 1]): 6})


def test_integrality_flag():
    assert nc("P", "12", 3).is_integral()
    assert not nc("P", "12", Fraction(1, 2)).is_integral()
