"""Set partition lattice: enumeration, refinement order, Mobius function, weights."""

import copy
import hashlib
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redeiberge import invariant
from redeiberge.digraph import Digraph, random_digraph, random_tournament
from redeiberge.errors import DegreeMismatchError, OrderViolationError, SizeLimitError
from redeiberge.ncsym import NCSymElement, multiply
from redeiberge.setpart import (
    LATTICE_CACHE_SIZE,
    MAX_GROUND_SET,
    MAX_LATTICE_DEGREE,
    IntPartition,
    SetPartition,
    _block_labels,
    _coarser,
    _finer,
    _lattice,
    _mask_elements,
    _mask_texts,
    apply_perm,
    coarsenings,
    enumerate_partitions,
    factorial_weight,
    insert_last,
    inverse_perm,
    lambda_of,
    mobius,
    mobius_from_bottom,
    multiplicity_weight,
    parse_set_partition,
    refines,
    refinements,
    singletons,
)

from oracles import render_set_partition

P = parse_set_partition


# -- independent oracles -----------------------------------------------------


def equivalence_relations(n):
    """Brute force: all equivalence relations on {1..n} via label functions."""
    seen = set()
    for labels in itertools.product(range(n), repeat=n):
        blocks = {}
        for x, lab in zip(range(1, n + 1), labels):
            blocks.setdefault(lab, set()).add(x)
        seen.add(frozenset(frozenset(b) for b in blocks.values()))
    return seen


def mobius_recursive(sigma, pi, memo):
    """The defining recursion: mu(s,s)=1, mu(s,p) = -sum of mu(s,t) over s<=t<p."""
    if sigma == pi:
        return 1
    key = (sigma, pi)
    if key not in memo:
        total = 0
        for tau in coarsenings(sigma)[0]:
            if tau != pi and refines(tau, pi):
                total += mobius_recursive(sigma, tau, memo)
        memo[key] = -total
    return memo[key]


@st.composite
def set_partitions(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    blocks = {}
    for x, lab in enumerate(labels, start=1):
        blocks.setdefault(lab, []).append(x)
    return SetPartition(blocks.values())


@st.composite
def permutations_of(draw, n):
    return tuple(draw(st.permutations(range(1, n + 1))))


# -- construction and rendering ----------------------------------------------


def test_canonical_form_and_equality():
    a = SetPartition([[3, 1], [2]])
    b = SetPartition([(2,), (1, 3)])
    assert a == b
    assert hash(a) == hash(b)
    assert a.blocks == ((1, 3), (2,))
    assert str(a) == "13/2"


def test_invalid_partitions_rejected():
    with pytest.raises(ValueError):
        SetPartition([[1, 2], [2, 3]])  # overlap
    with pytest.raises(ValueError):
        SetPartition([[1], [3]])  # gap
    with pytest.raises(ValueError):
        SetPartition([[1], []])  # empty block
    with pytest.raises(ValueError):
        SetPartition([[0, 1]])  # not 1-based


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: SetPartition([range(1, 14)]), SizeLimitError),
        (lambda: insert_last(singletons(12)), SizeLimitError),
        (lambda: multiply(_top(7), _top(6)), SizeLimitError),
        (lambda: SetPartition([[1.0, 2]]), TypeError),
    ],
    ids=["constructor", "insert-last", "multiply", "float-element"],
)
def test_every_construction_obeys_one_size_bound(build, error):
    with pytest.raises(error):
        build()


def _top(n):
    return NCSymElement(n, "P", {SetPartition([range(1, n + 1)]): 1})


def test_constructor_names_the_bad_element():
    with pytest.raises(ValueError, match="element 2 appears twice"):
        SetPartition([[1, 2, 2]])
    with pytest.raises(ValueError, match="element -1 outside"):
        SetPartition([[-1, 1]])


def _masks(pi):
    return [sum(1 << (x - 1) for x in block) for block in pi.blocks]


@pytest.mark.parametrize("n", range(0, 7))
def test_from_masks_equals_constructor(n):
    for pi in enumerate_partitions(n):
        built = SetPartition.from_masks(n, _masks(pi))
        assert built == pi and hash(built) == hash(pi)
        assert built.blocks == pi.blocks and str(built) == str(pi)


@pytest.mark.parametrize(
    "masks, message",
    [
        ([0b001, 0, 0b110], "empty block"),
        ([0b011, 0b110], "overlap"),
        ([0b010, 0b101], "not ordered"),
        ([0b001, 0b010], "do not partition"),  # 3 missing
        ([0b001, 0b010, 0b1100], "do not partition"),  # 4 outside {1..3}
    ],
    ids=["zero", "overlap", "order", "missing", "outside"],
)
def test_from_masks_rejects_invalid_blocks(masks, message):
    with pytest.raises(ValueError, match=message):
        SetPartition.from_masks(3, masks)


def test_from_masks_size_guard():
    top = SetPartition.from_masks(12, [(1 << 12) - 1])
    assert top == SetPartition([range(1, 13)])
    with pytest.raises(SizeLimitError):
        SetPartition.from_masks(13, [(1 << 13) - 1])


def test_rendering_large_ground_set_uses_braces():
    pi = SetPartition([list(range(1, 10)), [10]])
    assert str(pi) == "{1,2,3,4,5,6,7,8,9}/{10}"
    assert parse_set_partition(str(pi)) == pi


def seeded_partitions(n, count, seed):
    """count set partitions of {1..n}, each element given a random label."""
    rng = random.Random(seed)
    for _ in range(count):
        blocks = {}
        for x in range(1, n + 1):
            blocks.setdefault(rng.randrange(n), []).append(x)
        yield SetPartition(blocks.values())


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 12])
def test_str_reads_the_block_text_table(n):
    """str(pi) is the literal rendering, and parses back to pi: every
    partition up to n = 7, seeded ones at 9 (the last digit-run size), 10 and 12."""
    partitions = enumerate_partitions(n) if n <= 7 else seeded_partitions(n, 300, n)
    for pi in partitions:
        assert str(pi) == render_set_partition(pi)
        assert parse_set_partition(str(pi)) == pi


@pytest.mark.parametrize("n", [10, 12])
def test_json_round_trip_past_the_digit_run_form(n):
    rng = random.Random(n)
    x = NCSymElement(n, "P", {pi: rng.randint(-9, 9) or 1 for pi in seeded_partitions(n, 50, n + 1)})
    assert len(x.terms) > 1
    assert NCSymElement.from_json_dict(x.to_json_dict()) == x


def test_block_text_cache_is_bounded():
    for cache in (_mask_texts, _block_labels):
        assert cache.cache_info().maxsize == MAX_GROUND_SET + 1


@pytest.mark.parametrize(
    "text, blocks",
    [
        ("134/2", [[1, 3, 4], [2]]),
        ("{1,3,4}/{2}", [[1, 3, 4], [2]]),
        ("", []),
        ("{1,2,3,4,5,6,7,8,9}/{10}", [range(1, 10), [10]]),
        ("{+1,2}", None),
        ("{ 1,2}", None),
        ("{1_0,1,2,3,4,5,6,7,8,9}", None),
        ("\u0661\u0662", None),  # Arabic-Indic one and two
        ("1a/2", None),
        ("{}", None),
        ("1//2", None),
    ],
)
def test_parse_both_grammars(text, blocks):
    """Each element is a run of ASCII digits, in the text and in a JSON key."""
    data = {"degree": 0, "basis": "M", "terms": [{"blocks": text, "coeff": "1"}]}
    if blocks is None:
        with pytest.raises(ValueError, match="cannot parse set partition block"):
            P(text)
        with pytest.raises(ValueError, match="cannot parse set partition block"):
            NCSymElement.from_json_dict(data)
    else:
        pi = SetPartition(blocks)
        assert P(text) == pi
        assert NCSymElement.from_json_dict({**data, "degree": pi.n}).terms == {pi: 1}


@given(set_partitions(max_n=12))
def test_parse_round_trip(pi):
    assert parse_set_partition(str(pi)) == pi


def test_int_partition_sorted_and_validated():
    lam = IntPartition([1, 3, 2])
    assert lam.parts == (3, 2, 1)
    assert lam.size == 6
    with pytest.raises(ValueError):
        IntPartition([2, 0])


def test_int_partition_parts_are_read_as_integers():
    with pytest.raises(TypeError):
        IntPartition([1.5, 1])
    with pytest.raises(TypeError):
        IntPartition([2.0])
    assert IntPartition([True, 2]).parts == (2, 1)
    assert all(type(p) is int for p in IntPartition([True, 2]))


def test_partitions_have_the_value_semantics_of_their_tuples():
    everything = [pi for n in range(6) for pi in enumerate_partitions(n)]
    shuffled = everything[:]
    random.Random(0).shuffle(shuffled)
    assert [(pi.n, pi.blocks) for pi in sorted(shuffled)] == sorted((pi.n, pi.blocks) for pi in everything)
    shapes = sorted({lambda_of(pi) for pi in shuffled})  # every integer partition of n <= 5
    assert [lam.parts for lam in shapes] == sorted(lam.parts for lam in shapes)
    for pi in everything:
        assert hash(pi) == hash((pi.n, pi.blocks, pi.masks))
        assert len(pi) == len(pi.blocks)
    for lam in shapes:
        assert type(lam.parts) is tuple and tuple(lam) == lam.parts
    for value in everything + shapes:
        assert not hasattr(value, "__dict__")
        for name in ("n", "blocks", "parts", "other"):
            with pytest.raises(AttributeError):
                setattr(value, name, 0)


# -- enumeration ---------------------------------------------------------------


def test_enumerate_single_element():
    assert enumerate_partitions(1) == [SetPartition([[1]])]


@pytest.mark.parametrize("n,count", [(3, 5), (4, 15)])
def test_enumerate_counts_against_brute_force(n, count):
    oracle = equivalence_relations(n)
    assert len(oracle) == count
    listed = enumerate_partitions(n)
    assert len(listed) == count
    assert {frozenset(frozenset(b) for b in pi.blocks) for pi in listed} == oracle


def test_enumerate_is_sorted_and_duplicate_free():
    for n in range(1, 7):
        listed = enumerate_partitions(n)
        assert listed == sorted(listed)
        assert len(set(listed)) == len(listed)


def test_enumerate_matches_bell_triangle():
    # Bell(n) for n = 0..10 (OEIS A000110), independent of the enumeration
    bell = (1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975)
    for n in range(0, 11):
        assert len(enumerate_partitions(n)) == bell[n]


def test_enumerate_size_guard():
    with pytest.raises(SizeLimitError):
        enumerate_partitions(-1)
    with pytest.raises(SizeLimitError):
        enumerate_partitions(13)


# -- refinement order -----------------------------------------------------------


def test_refines_examples():
    assert refines(P("1/2/3"), P("13/2"))
    assert refines(P("13/2"), P("13/2"))
    assert not refines(P("12/3"), P("13/2"))
    with pytest.raises(DegreeMismatchError):
        refines(P("1/2"), P("1/2/3"))


def test_refines_extremes():
    for n in range(1, 6):
        for pi in enumerate_partitions(n):
            assert refines(singletons(n), pi)
            assert refines(pi, SetPartition([range(1, n + 1)]))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_refines_is_a_partial_order(n):
    parts = enumerate_partitions(n)
    for a in parts:
        assert refines(a, a)
        for b in parts:
            if refines(a, b) and refines(b, a):
                assert a == b
            for c in parts:
                if refines(a, b) and refines(b, c):
                    assert refines(a, c)


def test_coarsenings_and_refinements_agree_with_refines():
    for n in range(1, 6):
        parts = enumerate_partitions(n)
        for pi in parts:
            ups = set(coarsenings(pi)[0])
            downs = set(refinements(pi)[0])
            assert ups == {s for s in parts if refines(pi, s)}
            assert downs == {s for s in parts if refines(s, pi)}


@pytest.mark.parametrize("n", range(1, 7))
def test_lattice_rows_are_sorted_intervals_with_their_mobius_values(n):
    parts = enumerate_partitions(n)
    for pi in parts:
        (up, up_mobius), (down, down_mobius, bottom) = coarsenings(pi), refinements(pi)
        assert up == tuple(sorted(s for s in parts if refines(pi, s)))
        assert down == tuple(sorted(s for s in parts if refines(s, pi)))
        assert up_mobius == tuple(mobius(pi, s) for s in up)
        assert down_mobius == tuple(mobius(s, pi) for s in down)
        assert bottom == tuple(mobius_from_bottom(s) for s in down)
    with pytest.raises(TypeError):
        coarsenings(pi)[1] = ()


@pytest.mark.parametrize("n", range(0, 7))
def test_every_construction_of_a_partition_is_equal_with_equal_hash(n):
    coarsenings.cache_clear()
    refinements.cache_clear()
    # both rows hold every partition of n; their entries are shared objects
    everything_up = coarsenings(singletons(n))[0]
    everything_down = refinements(min(enumerate_partitions(n), key=len))[0]  # the fewest blocks: the top
    assert all(a is b for a, b in zip(everything_up, everything_down))
    for pi, from_row in zip(enumerate_partitions(n), everything_up):
        built = (
            from_row,
            SetPartition([reversed(b) for b in reversed(pi.blocks)]),
            SetPartition.from_masks(n, _masks(pi)),
            parse_set_partition(str(pi)),
            copy.copy(pi),
            copy.deepcopy(pi),
            pickle.loads(pickle.dumps(pi)),
        )
        for other in (pi, *built):
            assert other == pi and hash(other) == hash(pi), (pi, other)
            assert {other: 1} == {pi: 1}
            # the masks field is the blocks as bitmasks, whatever built the key
            assert type(other) is SetPartition and other.masks == tuple(_masks(other)), (pi, other)


@pytest.mark.parametrize("row_of", [coarsenings, refinements])
@pytest.mark.parametrize(
    "clone", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))], ids=["copy", "deepcopy", "pickle"]
)
def test_lattice_rows_copy_and_pickle_with_their_values(row_of, clone):
    row = row_of(P("13/2/4"))
    twin = clone(row)
    assert type(twin) is type(row) and twin == row
    assert [hash(s) for s in twin[0]] == [hash(s) for s in row[0]]


def test_lattice_rows_and_the_enumeration_match_their_recorded_digest():
    # one SHA-256 over the row order, the partition texts and both Mobius
    # columns of every row for n <= 8, and every enumeration for n <= 9
    digest = hashlib.sha256()
    for n in range(0, 10):
        parts = enumerate_partitions(n)
        digest.update((f"{n}:" + " ".join(map(str, parts)) + "\n").encode())
        for pi in parts if n <= 8 else ():
            (up, up_mobius), (down, down_mobius, bottom) = coarsenings(pi), refinements(pi)
            digest.update((f"{pi}>" + " ".join(f"{s}:{m}" for s, m in zip(up, up_mobius)) + "\n").encode())
            digest.update((f"{pi}<" + " ".join(f"{s}:{m}:{b}" for s, m, b in zip(down, down_mobius, bottom)) + "\n").encode())
    assert digest.hexdigest() == "539b2a127c80d001b0949296e210b0cf186595cda96ff11150be8876bf3d7030"


def _digest_digraphs():
    """Every digraph with n <= 3, loops included, then seeded ones with 4 <= n <= 8."""
    for n in range(4):
        pairs = list(itertools.product(range(1, n + 1), repeat=2))
        for chosen in range(1 << len(pairs)):
            yield Digraph(n, [e for i, e in enumerate(pairs) if chosen >> i & 1])
    for n in range(4, 9):
        for seed, p in enumerate((0.2, 0.5, 0.8)):
            yield random_digraph(n, p, seed)
        yield random_tournament(n, n)


def test_subset_and_mobius_tables_match_their_recorded_digest():
    # one SHA-256 over the block weights of _digest_digraphs, the subset
    # table _mask_elements(n) for n <= 12, and the partitions of k <= 9 units
    # as the lattice table of degree k lists them: their masks and bottom, the
    # product of mu(|G|) over their groups G
    digest = hashlib.sha256()
    for dg in _digest_digraphs():
        digest.update(f"{dg.n}:{sorted(dg.edges)}:{invariant._block_weights(dg)}\n".encode())
    for n in range(MAX_GROUND_SET + 1):
        digest.update(f"{n}:{_mask_elements(n)}\n".encode())
    for k in range(10):
        partitions, _, bottom = _lattice(k)
        digest.update(f"{k}:{[(pi.masks, mu) for pi, mu in zip(partitions, bottom)]}\n".encode())
    assert digest.hexdigest() == "1e04ba07207e464cdf18b65705aca034a464e2dbb92c369150f7bb9b12300155"


def test_lattice_caches_are_bounded_lru_caches():
    for row_of in (coarsenings, refinements, _coarser, _finer):
        assert row_of.cache_info().maxsize == LATTICE_CACHE_SIZE
    # one lattice table per degree it serves, Bell(n) partitions each
    assert _lattice.cache_info().maxsize == MAX_LATTICE_DEGREE + 1
    with pytest.raises(SizeLimitError):
        _lattice(MAX_LATTICE_DEGREE + 1)


# -- Mobius function -------------------------------------------------------------


def test_mobius_point_and_small_values():
    memo = {}
    assert mobius(P("13/2"), P("13/2")) == 1
    assert mobius(P("1/2/3"), P("123")) == 2
    assert mobius_recursive(P("1/2/3"), P("123"), memo) == 2
    assert mobius(P("1/2/3"), P("12/3")) == -1
    assert mobius_recursive(P("1/2/3"), P("12/3"), memo) == -1


def test_mobius_requires_refinement():
    with pytest.raises(OrderViolationError):
        mobius(P("12/3"), P("13/2"))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_mobius_product_formula_equals_recursion(n):
    memo = {}
    for pi in enumerate_partitions(n):
        for sigma in refinements(pi)[0]:
            assert mobius(sigma, pi) == mobius_recursive(sigma, pi, memo), (sigma, pi)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_mobius_sums_to_zero_above_bottom(n):
    zero_hat = singletons(n)
    for pi in enumerate_partitions(n):
        if pi == zero_hat:
            continue
        assert sum(mobius(sigma, pi) for sigma in refinements(pi)[0]) == 0, pi


def test_mobius_from_bottom_matches_general():
    for n in range(1, 6):
        for pi in enumerate_partitions(n):
            assert mobius_from_bottom(pi) == mobius(singletons(n), pi)


@pytest.mark.parametrize("n", range(0, 9))
def test_lattice_table_carries_mobius_from_bottom_at_each_rank(n):
    partitions, rank, bottom = _lattice(n)
    assert partitions == tuple(enumerate_partitions(n))
    assert len(bottom) == len(partitions) == len(rank)
    for r, pi in enumerate(partitions):
        assert rank[pi.masks] == r
        assert bottom[r] == mobius_from_bottom(pi), pi


# -- statistics -------------------------------------------------------------------


def test_lambda_examples():
    assert lambda_of(P("13/2")) == IntPartition([2, 1])
    assert lambda_of(P("1/2/3")) == IntPartition([1, 1, 1])
    assert lambda_of(P("1234")) == IntPartition([4])


def test_multiplicity_weight_examples():
    assert multiplicity_weight(P("1/2")) == 2
    assert multiplicity_weight(P("12/3")) == 1
    # lambda = (2,2,1,1): 2! * 2! computed directly from the definition
    assert multiplicity_weight(P("1/2/34/56")) == 4


def test_factorial_weight_examples():
    assert factorial_weight(P("1/2/3")) == 1
    assert factorial_weight(P("123")) == 6
    assert factorial_weight(P("12/34")) == 4


def test_insert_last_examples():
    assert insert_last(P("1")) == P("12")
    assert insert_last(P("13/2")) == P("134/2")
    assert insert_last(P("1/2")) == P("1/23")
    with pytest.raises(ValueError):
        insert_last(SetPartition([]))


# -- group action ------------------------------------------------------------------


def test_apply_perm_examples():
    assert apply_perm((1, 2, 3), P("13/2")) == P("13/2")
    # 1->2, 2->3, 3->1: {1,3} maps to {2,1}
    assert apply_perm((2, 3, 1), P("13/2")) == P("12/3")
    assert apply_perm((2, 1), P("1/2")) == P("1/2")
    with pytest.raises(DegreeMismatchError):
        apply_perm((1, 2), P("1/2/3"))
    for delta in ((1, 1), (2, 3)):
        with pytest.raises(ValueError, match="is not a permutation of 1..2"):
            apply_perm(delta, P("1/2"))


@pytest.mark.parametrize("delta", [(1, 1), (3, 1), (0, 1)])
def test_inverse_perm_rejects_a_non_permutation(delta):
    with pytest.raises(ValueError, match="is not a permutation of 1..2"):
        inverse_perm(delta)


@settings(max_examples=60)
@given(st.data())
def test_apply_perm_is_a_lattice_automorphism(data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    delta = tuple(data.draw(st.permutations(range(1, n + 1))))
    labels_a = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    labels_b = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))

    def from_labels(labels):
        blocks = {}
        for x, lab in enumerate(labels, start=1):
            blocks.setdefault(lab, []).append(x)
        return SetPartition(blocks.values())

    sigma, pi = from_labels(labels_a), from_labels(labels_b)
    assert refines(sigma, pi) == refines(apply_perm(delta, sigma), apply_perm(delta, pi))
    assert lambda_of(apply_perm(delta, pi)) == lambda_of(pi)


def test_apply_perm_inverse_round_trip():
    rng = random.Random(5)
    for n in range(1, 6):
        for _ in range(10):
            delta = list(range(1, n + 1))
            rng.shuffle(delta)
            delta = tuple(delta)
            for pi in enumerate_partitions(n):
                assert apply_perm(inverse_perm(delta), apply_perm(delta, pi)) == pi
