"""The three expansion algorithms, the commutative descent oracle, and the
coefficient formulas, cross-checked against each other and brute force."""

import gc
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redeiberge.cli import parse_generator_spec
from redeiberge.digraph import (
    Digraph,
    complete_digraph,
    cycle_digraph,
    discrete_digraph,
    path_digraph,
    random_digraph,
    random_tournament,
)
from redeiberge import checks, invariant
from redeiberge.checks import ALL_CHECKS, check_identities
from redeiberge.errors import SizeLimitError, SymmetryViolationError
from redeiberge.invariant import (
    count_friendly,
    descent_aggregate,
    monomial_coefficient,
    rb_by_colorings,
    rb_by_deletion_contraction,
    rb_by_permutations,
    rb_commutative,
    rb_tournament,
    redei_berge,
)
from redeiberge.ncsym import CSymElement, NCSymElement, multiply
from redeiberge.setpart import (
    IntPartition,
    SetPartition,
    _MEMO_REST,
    _block_labels,
    _nonzero_partitions,
    enumerate_partitions,
    factorial_weight,
    inverse_perm,
    parse_set_partition,
)

from oracles import deletion_contraction, elementary_coefficient, is_friendly, tournament_formula
from test_checks import _contract_the_wrong_way, digraphs_with_a_non_loop_edge

P = parse_set_partition


def nc(basis, text, coeff=1):
    pi = P(text)
    return NCSymElement(pi.n, basis, {pi: coeff})


def brute_force_friendly_count(dg, colors):
    """Oracle: filter all n! listings against the friendliness conditions."""
    return sum(
        1
        for listing in itertools.permutations(range(1, dg.n + 1))
        if is_friendly(dg, colors, listing)
    )


# -- friendly listings ----------------------------------------------------------


def test_count_friendly_examples():
    assert count_friendly(discrete_digraph(2), (1, 1)) == 2
    assert count_friendly(path_digraph(2), (1, 1)) == 1
    assert count_friendly(path_digraph(2), (1, 2)) == 1


def test_count_friendly_against_brute_force():
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randint(1, 5)
        dg = random_digraph(n, 0.4, rng.randint(0, 10**6))
        colors = tuple(rng.randint(1, n) for _ in range(n))
        assert count_friendly(dg, colors) == brute_force_friendly_count(dg, colors)


def test_count_friendly_validates_coloring():
    with pytest.raises(ValueError):
        count_friendly(discrete_digraph(2), (1,))
    with pytest.raises(ValueError):
        count_friendly(discrete_digraph(2), (1, 0))


@pytest.mark.parametrize("colors", [(1.5, 1), ("2", "1")], ids=["float", "string"])
def test_count_friendly_refuses_colors_that_are_not_integers(colors):
    # read through int(), (1.5, 1) would count as the coloring (1, 1)
    with pytest.raises(TypeError):
        count_friendly(discrete_digraph(2), colors)


# one digraph of each kind on n vertices: loops on a path, 2-cycles on the pairs
# with u + v not divisible by 3 plus a path, and a tournament
SMALL_DIGRAPHS = {
    "loops": lambda n: Digraph(n, [(v, v) for v in range(1, n + 1)] + [(v, v + 1) for v in range(1, n)]),
    "two-cycles": lambda n: Digraph(
        n,
        [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v and (u + v) % 3]
        + [(v, v + 1) for v in range(1, n)],
    ),
    "tournament": lambda n: random_tournament(n, seed=n),
}


@pytest.mark.parametrize("kind", SMALL_DIGRAPHS)
@pytest.mark.parametrize("n", range(0, 6))
def test_friendly_count_is_the_same_for_every_coloring_of_the_blocks(kind, n):
    # the symmetry of the function: which color each class gets does not matter
    dg = SMALL_DIGRAPHS[kind](n)
    for pi in enumerate_partitions(n):
        counts = set()
        for order in itertools.permutations(pi.blocks):
            colors = [0] * n
            for color, block in enumerate(order, start=1):
                for v in block:
                    colors[v - 1] = color
            counts.add(count_friendly(dg, colors))
        assert len(counts) == 1, (pi, counts)


@pytest.mark.parametrize("kind", SMALL_DIGRAPHS)
@pytest.mark.parametrize("n", range(1, 5))
def test_count_friendly_matches_the_listing_oracle_on_every_coloring(kind, n):
    dg = SMALL_DIGRAPHS[kind](n)
    for colors in itertools.product(range(1, n + 1), repeat=n):
        assert count_friendly(dg, colors) == brute_force_friendly_count(dg, colors), colors


def test_definition_route_counts_one_coloring_per_set_partition(monkeypatch):
    seen = []

    def recording(dg, colors):
        seen.append(tuple(colors))
        return count_friendly(dg, colors)

    monkeypatch.setattr(invariant, "count_friendly", recording)
    dg = random_digraph(5, 0.4, seed=1)
    assert rb_by_colorings(dg) == rb_by_permutations(dg).to_basis("M")
    assert len(seen) == len(set(seen)) == 52  # Bell(5)


# -- frozen expansions ------------------------------------------------------------


def test_complete_on_two_vertices():
    assert rb_by_colorings(complete_digraph(2)) == nc("M", "1/2")
    assert rb_by_permutations(complete_digraph(2)) == nc("P", "1/2") - nc("P", "12")


def test_discrete_on_two_vertices():
    assert rb_by_colorings(discrete_digraph(2)) == nc("M", "1/2") + nc("M", "12", 2)
    assert rb_by_permutations(discrete_digraph(2)) == nc("P", "1/2") + nc("P", "12")


def test_single_vertex():
    assert rb_by_colorings(discrete_digraph(1)) == nc("M", "1")
    assert rb_by_colorings(Digraph(1, [(1, 1)])) == nc("M", "1")  # loops are invisible


def test_empty_ground_set():
    # every route reaches n = 0 through its general path: the one partition
    # of the empty set, with coefficient 1, in every basis
    dg = discrete_digraph(0)
    for route, basis in (
        (rb_by_colorings, "M"),
        (rb_by_permutations, "P"),
        (rb_by_deletion_contraction, "M"),
        (rb_tournament, "P"),
    ):
        w = route(dg)
        assert w == NCSymElement(0, basis, {SetPartition([]): 1}), route.__name__
        for target in "MPE":
            assert w.to_basis(target) == NCSymElement(0, target, {SetPartition([]): 1})
    skipped = {"deletion-contraction", "subset-decomposition", "cycle-decomposition", "triangle", "counting-lemma"}
    statuses = {r.check: r.status for r in check_identities(dg)}
    assert statuses == {c: "skipped" if c in skipped else "pass" for c in ALL_CHECKS}


def test_path_on_two_vertices():
    expected = nc("P", "1/2")
    assert rb_by_permutations(path_digraph(2)) == expected
    assert rb_by_deletion_contraction(path_digraph(2)) == expected.to_basis("M")
    assert rb_by_deletion_contraction(path_digraph(2)) == nc("M", "1/2") + nc("M", "12")


def test_discrete_closed_form():
    for n in range(1, 6):
        loopy = Digraph(n, [(v, v) for v in range(1, n + 1) if v % 2])
        for dg in (discrete_digraph(n), loopy):
            w = rb_by_deletion_contraction(dg)
            assert w == NCSymElement(
                n, "M", {pi: factorial_weight(pi) for pi in enumerate_partitions(n)}
            )


def test_complete_closed_form():
    for n in range(1, 6):
        w = rb_by_permutations(complete_digraph(n)).to_basis("E")
        assert w == NCSymElement(n, "E", {SetPartition([range(1, n + 1)]): 1})


def test_path_recurrence():
    # deleting then contracting the last edge of a path gives
    # W(path n) = W(path n-1 with an isolated extra vertex) - W(path n-1) inducted
    for n in (3, 4, 5):
        path_minus = Digraph(n, {(i, i + 1) for i in range(1, n - 1)})
        lhs = rb_by_permutations(path_digraph(n))
        rhs = rb_by_permutations(path_minus) - rb_by_permutations(path_digraph(n - 1)).induct()
        assert lhs == rhs


# -- cross-algorithm agreement ------------------------------------------------------


def test_three_algorithms_agree_on_random_instances():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 5)
        dg = random_digraph(n, 0.35, rng.randint(0, 10**6))
        in_m = rb_by_permutations(dg).to_basis("M")
        assert in_m == rb_by_colorings(dg)
        assert in_m == rb_by_deletion_contraction(dg)
        assert in_m.is_integral()


def test_relabeling_equivariance():
    rng = random.Random(29)
    for _ in range(25):
        n = rng.randint(2, 6)
        dg = random_digraph(n, 0.3, rng.randint(0, 10**6))
        delta = list(range(1, n + 1))
        rng.shuffle(delta)
        delta = tuple(delta)
        assert rb_by_permutations(dg).act(delta) == rb_by_permutations(dg.relabel(delta))


def test_product_identity():
    rng = random.Random(37)
    for _ in range(20):
        na = rng.randint(1, 4)
        nb = rng.randint(1, 7 - na)
        x = random_digraph(na, 0.4, rng.randint(0, 10**6))
        y = random_digraph(nb, 0.4, rng.randint(0, 10**6))
        assert rb_by_permutations(x.product(y)) == multiply(
            rb_by_permutations(x), rb_by_permutations(y)
        )


def test_size_guards():
    with pytest.raises(SizeLimitError):
        rb_by_permutations(discrete_digraph(9))
    with pytest.raises(SizeLimitError):
        rb_by_colorings(discrete_digraph(9))
    with pytest.raises(SizeLimitError):
        rb_by_colorings(discrete_digraph(7))
    with pytest.raises(SizeLimitError):
        rb_by_deletion_contraction(discrete_digraph(9))
    with pytest.raises(SizeLimitError):
        rb_commutative(discrete_digraph(9))


def test_dispatcher():
    dg = cycle_digraph(3)
    reference = rb_by_permutations(dg)
    assert redei_berge(dg) == reference
    assert redei_berge(dg, "definition").to_basis("P") == reference
    assert redei_berge(dg, "deletion-contraction").to_basis("P") == reference
    with pytest.raises(ValueError):
        redei_berge(dg, "magic")
    with pytest.raises(SizeLimitError):
        redei_berge(discrete_digraph(9))


def test_dispatch_reads_the_route_function_from_the_module(monkeypatch):
    # perfbench's tracer wraps the route functions by their module attribute
    monkeypatch.setattr(invariant, "rb_by_permutations", lambda dg: "fake")
    assert redei_berge(cycle_digraph(3)) == "fake"
    assert redei_berge(cycle_digraph(3), "permutations") == "fake"


@pytest.mark.parametrize("name", list(invariant.ROUTES))
def test_every_route_runs_at_its_capacity_and_refuses_above(name):
    capacity = invariant.ROUTES[name][1]
    dg = path_digraph(capacity)
    assert redei_berge(dg, name).to_basis("P") == rb_by_permutations(dg)
    with pytest.raises(SizeLimitError) as refusal:
        redei_berge(path_digraph(capacity + 1), name)
    assert str(refusal.value) == f"{name} route refuses n={capacity + 1} (capacity {capacity})"


# -- deletion-contraction on block masks ----------------------------------------------


@st.composite
def digraphs_with_loops(draw, max_n=6):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
    return Digraph(n, draw(st.sets(st.sampled_from(pairs))) if pairs else ())


@settings(max_examples=60, deadline=None)
@given(digraphs_with_loops())
def test_deletion_contraction_equals_p_to_m_on_drawn_digraphs(dg):
    assert rb_by_deletion_contraction(dg) == rb_by_permutations(dg).to_basis("M")


@pytest.mark.parametrize("spec", ["random:8:0.3:1", "tournament:8:1", "complete:8"])
def test_deletion_contraction_equals_p_to_m_at_its_capacity(spec):
    dg = parse_generator_spec(spec)
    assert dg.n == invariant.ROUTES["deletion-contraction"][1]
    assert rb_by_deletion_contraction(dg) == rb_by_permutations(dg).to_basis("M")


@settings(max_examples=100, deadline=None)
@given(digraphs_with_a_non_loop_edge())
def test_split_on_edge_equals_the_validated_path(case):
    # inverse_perm, relabel and a contraction built through Digraph.__init__,
    # on every non-loop edge
    dg, n = case[0], case[0].n
    for u, v in dg.non_loop_edges():
        order = tuple(w for w in range(1, n + 1) if w not in (u, v)) + (u, v)
        moved = dg.relabel(inverse_perm(order))
        kept = {(a, b) for a, b in moved.edges if a <= n - 2 and b <= n - 2}
        kept |= {(w, n - 1) for w in range(1, n - 1) if (w, n - 1) in moved.edges}
        kept |= {(n - 1, w) for w in range(1, n - 1) if (n, w) in moved.edges}
        assert invariant._split_on_edge(dg, u, v) == (order, moved, Digraph(n - 1, kept))


@settings(max_examples=60, deadline=None)
@given(digraphs_with_loops())
def test_deletion_contraction_equals_the_literal_recursion(dg):
    assert rb_by_deletion_contraction(dg) == deletion_contraction(dg)


# the originals, which the faults below call while they stand patched in
_split_on_edge, _discrete_weights = invariant._split_on_edge, invariant._discrete_weights
_contracted = invariant._contracted


def _split_by_delta(dg, u, v):
    """_split_on_edge handing back delta, not delta^-1, as its vertex order."""
    order, moved, contracted = _split_on_edge(dg, u, v)
    return inverse_perm(order), moved, contracted


def _leaf_off_on_three_blocks(n):
    """The edge-free block table with 1 added on every 3-element block."""
    return tuple(w + (B.bit_count() == 3) for B, w in enumerate(_discrete_weights(n)))


def _contracted_with_plus(d, c, to, ends):
    """The deletion-contraction relation with + in place of -: 2d - (d - c)."""
    return tuple(2 * a - b for a, b in zip(d, _contracted(d, c, to, ends)))


@pytest.mark.parametrize("spec", ["random:8:0.3:1", "tournament:5:2"])
@pytest.mark.parametrize(
    "owners, name, fault",
    [
        pytest.param([Digraph], "contract_last_edge", _contract_the_wrong_way, id="contraction-orientation"),
        pytest.param([invariant], "_split_on_edge", _split_by_delta, id="delta-for-its-inverse"),
        pytest.param([invariant], "_discrete_weights", _leaf_off_on_three_blocks, id="leaf-off-by-one"),
        pytest.param([invariant, checks], "_contracted", _contracted_with_plus, id="relation-plus"),
    ],
)
def test_verify_names_each_fault_of_the_route(monkeypatch, spec, owners, name, fault):
    # the route differs from P->M without raising, and so cross-algorithm
    # fails; a fault of the shared relation fails deletion-contraction too
    dg = parse_generator_spec(spec)
    expected = rb_by_permutations(dg).to_basis("M")
    for owner in owners:
        monkeypatch.setattr(owner, name, fault)
    assert rb_by_deletion_contraction(dg) != expected
    status = {report.check: report.status for report in check_identities(dg)}
    assert status["cross-algorithm"] == "fail"
    assert (status["deletion-contraction"] == "fail") == (name in ("_contracted", "contract_last_edge"))


def test_the_memo_lives_for_one_call(monkeypatch):
    # a memo kept past the call would hand the second call the first result
    dg = parse_generator_spec("random:6:0.3:1")
    first = rb_by_deletion_contraction(dg)
    monkeypatch.setattr(Digraph, "contract_last_edge", _contract_the_wrong_way)
    assert rb_by_deletion_contraction(dg) != first
    capacity = invariant.ROUTES["deletion-contraction"][1]
    assert invariant._discrete_weights.cache_info().maxsize == capacity + 1


@pytest.mark.parametrize("spec", ["tournament:8:1", "random:8:0.3:1"])
def test_the_memo_is_freed_without_the_cycle_collector(spec):
    # a memo held in a reference cycle (a self-recursive closure, say) would
    # outlive the call until the next collection
    dg = parse_generator_spec(spec)
    gc.collect()
    gc.disable()
    try:
        rb_by_deletion_contraction(dg)
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- tournaments -----------------------------------------------------------------------


def test_tournament_examples():
    assert rb_tournament(path_digraph(2)) == nc("P", "1/2")
    assert rb_tournament(cycle_digraph(3)) == nc("P", "1/2/3") + nc("P", "123", 2)
    transitive = Digraph(3, [(1, 2), (1, 3), (2, 3)])
    assert rb_tournament(transitive) == nc("P", "1/2/3")


def test_tournament_requires_tournament():
    with pytest.raises(ValueError):
        rb_tournament(discrete_digraph(2))


def test_tournament_matches_permutation_expansion():
    # and the literal formula, summed permutation by permutation, which reads
    # neither route's block table
    rng = random.Random(41)
    for _ in range(30):
        t = random_tournament(rng.randint(2, 7), rng.randint(0, 10**6))
        expansion = rb_tournament(t)
        assert expansion == rb_by_permutations(t) and expansion == tournament_formula(t), t
        assert all(c > 0 and c.denominator == 1 for c in expansion.terms.values())


def test_permutation_route_at_its_capacity():
    # the tournament formula and the descent oracle cross-check the block-weight
    # expansion at n = 8, where no other route reaches
    for seed in (1, 2, 3):
        t = random_tournament(8, seed)
        assert rb_by_permutations(t) == rb_tournament(t)
    dg = random_digraph(8, 0.3, 1)
    assert rb_by_permutations(dg).to_basis("M").commutative_image() == rb_commutative(dg)


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_tournament_formula_matches_permutation_route_beyond_its_capacity(n, monkeypatch):
    # the cycle enumeration reads no Hamiltonian cycle table, so it checks the
    # block-weight expansion up to the largest ground set a partition allows
    monkeypatch.setitem(invariant.ROUTES, "permutations", (invariant.ROUTES["permutations"][0], 12))
    t = random_tournament(n, n)
    x, y = rb_by_permutations(t), rb_tournament(t)
    assert x == y
    for table in (x, y):  # the comparison read the two block tables, and no term
        with pytest.raises(AttributeError):
            object.__getattribute__(table, "terms")


# -- the power-sum enumerator ----------------------------------------------------------


def literal_nonzero_partitions(weights, vertices):
    """Oracle: every set partition of the vertices (ascending bit positions)
    in enumerate_partitions order, as (block masks, product of their
    weights), zero products left out.  Relabeling 1..k to the vertices keeps
    the order of the element tuples, so this is the enumerator's order too."""
    out = []
    for pi in enumerate_partitions(len(vertices)):
        blocks = tuple(sum(1 << vertices[x - 1] for x in b) for b in pi.blocks)
        coeff = math.prod(weights[B] for B in blocks)
        if coeff:
            out.append((blocks, coeff))
    return out


ENUMERATOR_DIGRAPHS = {
    "sparse": lambda n: random_digraph(n, 0.2, n),
    "half": lambda n: random_digraph(n, 0.5, n),
    "dense": lambda n: random_digraph(n, 0.8, n),
    "tournament": lambda n: random_tournament(n, n),
}


@pytest.mark.parametrize("kind", ENUMERATOR_DIGRAPHS)
@pytest.mark.parametrize("n", range(0, 9))
def test_enumerator_yields_the_literal_terms_in_output_order(kind, n):
    dg = ENUMERATOR_DIGRAPHS[kind](n)
    weights = invariant._block_weights(dg)
    assert list(_nonzero_partitions(weights, (1 << n) - 1)) == literal_nonzero_partitions(weights, range(n))
    terms = list(rb_by_permutations(dg).terms)
    assert terms == sorted(terms)


KEY_DIGRAPHS = {
    **ENUMERATOR_DIGRAPHS,
    **SMALL_DIGRAPHS,
    "complete": complete_digraph,
    "discrete": discrete_digraph,
    "path": path_digraph,
    "cycle": lambda n: cycle_digraph(n) if n else discrete_digraph(0),
}


@pytest.mark.parametrize("kind", KEY_DIGRAPHS)
@pytest.mark.parametrize("n", range(0, 9))
def test_keys_built_without_validation_equal_the_validated_ones(kind, n):
    # rb_by_permutations and rb_tournament build their keys from the masks
    # they enumerate without checking them again, and act, induct and
    # multiply from the masks of theirs; each must be the partition the
    # validating SetPartition.from_masks makes of its own masks, and carry
    # those masks
    dg = KEY_DIGRAPHS[kind](n)
    routes = (rb_by_permutations, rb_tournament) if dg.is_tournament() else (rb_by_permutations,)
    for route in routes:
        x = route(dg)
        derived = [x.act(tuple(range(n, 0, -1))), multiply(x, rb_by_permutations(path_digraph(2)))]
        for y in [x, *derived, *([x.induct()] if n else [])]:
            for key in y.terms:
                masks = tuple(sum(1 << (v - 1) for v in block) for block in key.blocks)
                twin = SetPartition.from_masks(key.n, masks)
                assert type(key) is SetPartition and key == twin and hash(key) == hash(twin), (route, key)
                assert key.masks == masks, (route, key)


def test_enumerator_on_partial_grounds_and_arbitrary_weights():
    # block weights, and tables with zeros anywhere (singletons included), as
    # the deletion checks pass
    rng = random.Random(59)
    for _ in range(60):
        n = rng.randint(1, 8)
        if rng.random() < 0.5:
            weights = invariant._block_weights(random_digraph(n, rng.choice((0.2, 0.5, 0.8)), rng.randint(0, 10**6)))
        else:
            weights = [rng.choice((0, 0, 1, -2, 3)) for _ in range(1 << n)]
        ground = rng.randrange(1 << n)
        vertices = [v for v in range(n) if ground >> v & 1]
        assert list(_nonzero_partitions(weights, ground)) == literal_nonzero_partitions(weights, vertices)


def test_enumerator_order_at_n_12():
    # tournament:12:2, past the route's capacity, straight from the mask core
    weights = invariant._block_weights(random_tournament(12, 2))
    keys = [SetPartition.from_masks(12, blocks) for blocks, _ in _nonzero_partitions(weights, (1 << 12) - 1)]
    assert len(keys) == 5677
    assert keys == sorted(keys)


@pytest.mark.parametrize("size", [_MEMO_REST, _MEMO_REST + 1])
def test_enumerator_on_grounds_at_the_memo_bound(size):
    # a ground of _MEMO_REST elements completes from the memo alone and one of
    # _MEMO_REST + 1 from the stack first; zero weights anywhere (singletons
    # included) or none, in masks and in rendered keys
    rng = random.Random(size)
    for trial in range(40):
        n = rng.randint(size, 9)
        vertices = sorted(rng.sample(range(n), size))
        ground = sum(1 << v for v in vertices)
        weights = [1 if trial % 4 == 0 else rng.choice((0, 0, 1, -2, 3)) for _ in range(1 << n)]
        expected = literal_nonzero_partitions(weights, vertices)
        assert list(_nonzero_partitions(weights, ground)) == expected
        labels = _block_labels(n)[1]
        rendered = [("".join([labels[B] for B in blocks]), c) for blocks, c in expected]
        assert list(_nonzero_partitions(weights, ground, labels)) == rendered


# -- commutative oracle -------------------------------------------------------------------


def test_descent_aggregate_example():
    agg = descent_aggregate(path_digraph(2))
    assert agg == {frozenset(): 1, frozenset({1}): 1}


def test_commutative_examples():
    assert rb_commutative(path_digraph(2)) == CSymElement(
        2, "m", {IntPartition([2]): 1, IntPartition([1, 1]): 2}
    )
    assert rb_commutative(discrete_digraph(2)) == CSymElement(
        2, "m", {IntPartition([2]): 2, IntPartition([1, 1]): 2}
    )
    # the complete digraph on 2 vertices: twice the strict word (1,2)
    assert rb_commutative(complete_digraph(2)) == CSymElement(
        2, "m", {IntPartition([1, 1]): 2}
    )


def test_commutative_oracle_rejects_an_asymmetric_aggregate(monkeypatch):
    # F_{1} in degree 3 is M_(1,2) + M_(1,1,1): the rearrangement (2,1) is missing
    monkeypatch.setattr(invariant, "descent_aggregate", lambda dg: {frozenset({1}): 1})
    with pytest.raises(SymmetryViolationError, match=r"not symmetric at pattern \(2, 1, 0\)"):
        rb_commutative(discrete_digraph(3))


def test_commutative_image_matches_descent_oracle():
    rng = random.Random(43)
    for _ in range(30):
        n = rng.randint(1, 5)
        dg = random_digraph(n, 0.35, rng.randint(0, 10**6))
        image = rb_by_permutations(dg).to_basis("M").commutative_image()
        assert image == rb_commutative(dg)


# -- coefficient formulas -------------------------------------------------------------------


def test_monomial_coefficient_examples():
    assert monomial_coefficient(complete_digraph(2), P("12")) == 0
    assert monomial_coefficient(complete_digraph(2), P("1/2")) == 1
    # at n = 12, the friendly-listing product against the cycle side's sum
    # over the partitions of the one block
    dg = random_digraph(12, 0.3, 7)
    one_block = monomial_coefficient(dg, SetPartition([range(1, 13)]))
    weights = invariant._block_weights(dg)
    assert one_block == sum(c for _, c in _nonzero_partitions(weights, (1 << 12) - 1)) == 1932328


def test_elementary_coefficient_on_discrete_two():
    # converting p[1/2] + p[12] to the E basis gives 2 e[1/2] - e[12]
    expansion = rb_by_permutations(discrete_digraph(2)).to_basis("E")
    assert expansion == nc("E", "1/2", 2) - nc("E", "12")
    assert elementary_coefficient(discrete_digraph(2), P("1/2")) == 2
    assert elementary_coefficient(discrete_digraph(2), P("12")) == -1


def test_coefficient_formulas_match_full_conversion():
    rng = random.Random(47)
    for _ in range(12):
        n = rng.randint(1, 4)
        dg = random_digraph(n, 0.4, rng.randint(0, 10**6))
        w = rb_by_permutations(dg)
        in_m = w.to_basis("M")
        in_e = w.to_basis("E")
        for pi in enumerate_partitions(n):
            assert monomial_coefficient(dg, pi) == in_m.coefficient(pi), (dg, pi)
            assert elementary_coefficient(dg, pi) == in_e.coefficient(pi), (dg, pi)


def test_coefficient_degree_mismatch():
    with pytest.raises(ValueError):
        monomial_coefficient(discrete_digraph(2), P("1/2/3"))
