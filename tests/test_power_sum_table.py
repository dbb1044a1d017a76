"""The element of the permutation and tournament routes, which holds its P
expansion as a block table, against the plain NCSymElement of the same
terms."""

import copy
import gc
import itertools
import pickle
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redeiberge import ncsym
from redeiberge.cli import GENERATOR_KINDS, parse_generator_spec
from redeiberge.digraph import Digraph, complete_digraph, discrete_digraph, random_digraph, random_tournament
from redeiberge.invariant import _block_weights, rb_by_permutations, rb_tournament
from redeiberge.ncsym import NCSymElement, _PowerSumTable
from redeiberge.setpart import SetPartition, _block_labels, _nonzero_partitions, singletons


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


def _agree(dg, route=rb_by_permutations):
    x = route(dg)  # no term of it is read before the comparisons below
    plain = NCSymElement(dg.n, "P", dict(route(dg).terms))
    n = dg.n
    assert type(x) is not NCSymElement
    assert x.lines() == plain.lines()
    assert x.to_json_dict() == plain.to_json_dict()
    assert x == plain and plain == x and x == route(dg) and x == rb_by_permutations(dg)
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
        _same(clone(route(dg)), plain)  # before its terms are read


@pytest.mark.parametrize("spec", list(_specs()))
def test_the_route_element_agrees_with_the_plain_element_on_every_generator_kind(spec):
    dg = parse_generator_spec(spec)
    _agree(dg)
    if spec.startswith("tournament"):
        _agree(dg, rb_tournament)


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
    "dg, route",
    [
        (random_digraph(7, 0.3, 1), rb_by_permutations),
        (random_tournament(8, 2), rb_by_permutations),
        (random_tournament(8, 2), rb_tournament),
        (random_digraph(0, 0.3, 1), rb_by_permutations),
    ],
    ids=["random", "tournament", "tournament-route", "empty"],
)
def test_rendering_equality_and_conversion_build_no_key(monkeypatch, dg, route):
    built = []

    def counting(n, masks):
        built.append(masks)
        return trusted(n, masks)

    trusted = ncsym._trusted_partition
    for basis in "ME":  # the lattice tables exist before the count starts
        NCSymElement(dg.n, "P", {singletons(dg.n): 1}).to_basis(basis)
    monkeypatch.setattr(ncsym, "_trusted_partition", counting)
    x, y = route(dg), rb_by_permutations(dg)
    for read in (x.lines, x.to_json_dict, x.__repr__, lambda: x == y, lambda: x.to_basis("M"), lambda: x.to_basis("E")):
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


RENDERED_DIGRAPHS = {
    "sparse": lambda n: random_digraph(n, 0.2, n),
    "complete": complete_digraph,
    "discrete": discrete_digraph,
    "tournament": lambda n: random_tournament(n, n),
}


@pytest.mark.parametrize("kind", RENDERED_DIGRAPHS)
@pytest.mark.parametrize("n", range(0, 13))
def test_the_table_prints_its_keys_as_they_are_enumerated(kind, n):
    # the route refuses n > 8, so the table is built from the mask core; past
    # n = 9 blocks print as {a,b}.  An element of fewer than 6000 terms prints
    # as the plain one; of any element, the first 6000 keys rendered by the
    # enumerator are str() of the validated partitions of its masks
    weights = _block_weights(RENDERED_DIGRAPHS[kind](n))
    full = (1 << n) - 1
    head = list(itertools.islice(_nonzero_partitions(weights, full), 6000))
    if len(head) < 6000:
        x = _PowerSumTable(n, weights)
        plain = NCSymElement(n, "P", dict(_PowerSumTable(n, weights).terms))
        assert x.to_json_dict() == plain.to_json_dict()
        assert x.lines() == plain.lines()
        assert repr(x) == repr(plain)
    rendered = itertools.islice(_nonzero_partitions(weights, full, _block_labels(n)[1]), 6000)
    assert [(key[1:], c) for key, c in rendered] == [(str(SetPartition.from_masks(n, m)), c) for m, c in head]


# -- the enumerator's memo: bounded, and freed with its call


def test_the_first_partition_of_twelve_elements_comes_at_once():
    start = time.perf_counter()
    first = next(_nonzero_partitions([1] * 4096, 4095))
    assert time.perf_counter() - start < 0.1
    assert first == ((1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048), 1)


def test_streaming_the_n_12_table_keeps_memory_flat():
    weights = _block_weights(parse_generator_spec("random:12:0.3:7"))
    labels = _block_labels(12)[1]  # the label tables are not the enumerator's own
    tracemalloc.start()
    try:
        count = total = 0
        for _, c in _nonzero_partitions(weights, (1 << 12) - 1, labels):
            count += 1
            total += c
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 1932328 is the one-block monomial coefficient that test_invariant records
    assert (count, total) == (565481, 1932328)
    assert peak < 8 * 2**20, peak


def test_reading_a_table_leaves_no_garbage_cycle():
    x = rb_by_permutations(parse_generator_spec("random:8:0.3:7"))
    gc.collect()
    gc.disable()
    try:
        x.to_json_dict()
        x.lines()
        x.to_basis("M")
        next(_nonzero_partitions(x._weights, (1 << 8) - 1))
        assert gc.collect() == 0
    finally:
        gc.enable()
