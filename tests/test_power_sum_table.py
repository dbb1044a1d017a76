"""The permutation route's element, which holds its P expansion as a block
table, against the plain NCSymElement of the same terms."""

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redeiberge import ncsym
from redeiberge.cli import GENERATOR_KINDS, parse_generator_spec
from redeiberge.digraph import Digraph, random_digraph, random_tournament
from redeiberge.invariant import _block_weights, rb_by_permutations
from redeiberge.ncsym import NCSymElement, _PowerSumTable
from redeiberge.setpart import SetPartition, singletons


def _specs():
    for kind in GENERATOR_KINDS:
        for n in range(0, 9):
            if kind == "cycle" and n == 0:
                continue  # a cycle needs a vertex
            yield {"random": f"random:{n}:0.4:{n}", "tournament": f"tournament:{n}:{n}"}.get(kind, f"{kind}:{n}")


def _same(a, b):
    """Equal plain elements that print the same."""
    assert type(a) is type(b) is NCSymElement
    assert a == b and b == a and repr(a) == repr(b)


def _agree(dg):
    x = rb_by_permutations(dg)  # no term of it is read before the comparisons below
    plain = NCSymElement(dg.n, "P", dict(rb_by_permutations(dg).terms))
    n = dg.n
    assert type(x) is not NCSymElement
    assert x.lines() == plain.lines()
    assert x.to_json_dict() == plain.to_json_dict()
    assert x == plain and plain == x and x == rb_by_permutations(dg)
    assert not (x != plain or plain != x)
    for basis in "ME":
        _same(x.to_basis(basis), plain.to_basis(basis))
    assert x.to_basis("P") == plain
    assert x.commutative_image() == plain.commutative_image()
    # the route builds its terms on the first read, after all of the above
    assert repr(x) == repr(plain)
    assert x.terms == plain.terms and list(x.terms) == list(plain.terms)
    one_block = [SetPartition([range(1, n + 1)])] if n else []
    absent = [pi for pi in one_block + [singletons(n)] if pi not in plain.terms]
    for key in list(plain.terms) + absent:
        assert x.coefficient(key) == plain.coefficient(key)
    assert x.is_integral() and plain.is_integral()
    first, c = next(iter(plain.terms.items()))
    off = NCSymElement(n, "P", {**plain.terms, first: c + 1})
    assert x != off and off != x
    for k in (3, Fraction(-1, 2)):
        _same(x.scale(k), plain.scale(k))
        _same(x * k, plain * k)
        _same(k * x, k * plain)
    _same(x + x, plain + plain)
    _same(x + plain, plain + x)
    _same(x - plain, plain - x)
    _same(x - x, plain - plain)
    _same(-x, -plain)
    one = NCSymElement(1, "P", {singletons(1): 2})
    _same(x * one, plain * one)
    _same(one * x, one * plain)
    delta = list(range(1, n + 1))
    random.Random(n).shuffle(delta)
    _same(x.act(delta), plain.act(delta))
    if n:
        _same(x.induct(), plain.induct())
    for clone in (copy.copy, copy.deepcopy, lambda y: pickle.loads(pickle.dumps(y))):
        _same(clone(x), plain)
        _same(clone(rb_by_permutations(dg)), plain)  # before its terms are read


@pytest.mark.parametrize("spec", list(_specs()))
def test_the_route_element_agrees_with_the_plain_element_on_every_generator_kind(spec):
    _agree(parse_generator_spec(spec))


@st.composite
def digraphs(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
    return Digraph(n, draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set())))


@settings(max_examples=25, deadline=None)
@given(digraphs())
def test_the_route_element_agrees_with_the_plain_element_on_drawn_digraphs(dg):
    _agree(dg)


def test_the_table_equality_is_exact():
    # one weight apart: the coefficient at {B} with singletons differs
    dg = random_digraph(6, 0.4, 2)
    x = rb_by_permutations(dg)
    for other in (random_digraph(6, 0.4, 3), dg.delete_edges([sorted(dg.edges)[0]]), dg.opposite()):
        y = rb_by_permutations(other)
        plain = NCSymElement(6, "P", dict(rb_by_permutations(other).terms))
        assert (x == y) == (x == plain) == (plain == x) == (x.terms == plain.terms)
    assert rb_by_permutations(random_digraph(3, 0.5, 1)) != rb_by_permutations(random_digraph(4, 0.5, 1))


@pytest.mark.parametrize(
    "dg", [random_digraph(7, 0.3, 1), random_tournament(8, 2), random_digraph(0, 0.3, 1)], ids=["random", "tournament", "empty"]
)
def test_rendering_equality_and_conversion_build_no_key(monkeypatch, dg):
    built = []

    def counting(n, masks):
        built.append(masks)
        return trusted(n, masks)

    trusted = ncsym._trusted_partition
    for basis in "ME":  # the lattice tables exist before the count starts
        NCSymElement(dg.n, "P", {singletons(dg.n): 1}).to_basis(basis)
    monkeypatch.setattr(ncsym, "_trusted_partition", counting)
    x, y = rb_by_permutations(dg), rb_by_permutations(dg)
    for read in (x.lines, x.to_json_dict, lambda: x == y, lambda: x.to_basis("M"), lambda: x.to_basis("E")):
        read()
    assert built == []
    terms = x.terms
    assert len(built) == len(terms) > 0 and x.terms is terms  # built once, on the first read


@pytest.mark.parametrize("n", [9, 10])
def test_the_brace_form_renders_the_same_past_the_route_capacity(n):
    # the route refuses n > 8, so its element is built from the block table here
    weights = _block_weights(random_digraph(n, 0.3, 7))
    x = _PowerSumTable(n, weights)
    plain = NCSymElement(n, "P", dict(_PowerSumTable(n, weights).terms))
    assert x.lines() == plain.lines()
    assert x.to_json_dict() == plain.to_json_dict()
    assert ("{" in x.lines()[0]) == (n > 9)
