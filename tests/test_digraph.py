"""Digraph constructions, predicates, Hamiltonian-path counting, text format."""

import hashlib
import itertools
import math
import random
import time
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redeiberge.checks import _find_triangle
from redeiberge.digraph import (
    Digraph,
    complete_digraph,
    cycle_digraph,
    discrete_digraph,
    format_digraph,
    _LANE_CODES,
    _complement_columns,
    _deletion_columns,
    _disjoint_paths,
    _held_karp,
    _unpack,
    hamiltonian_cycle_counts,
    hamiltonian_path_counts,
    has_even_directed_cycle,
    parse_digraph,
    path_digraph,
    random_digraph,
    random_tournament,
)
from redeiberge.errors import MissingEdgeError, SizeLimitError
from redeiberge.setpart import _selections

from oracles import pack_lanes


@st.composite
def digraphs(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
    edges = draw(st.sets(st.sampled_from(pairs)))
    return Digraph(n, edges)


def all_tournaments(n):
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        yield Digraph(n, {(u, v) if b else (v, u) for (u, v), b in zip(pairs, bits)})


# -- construction -------------------------------------------------------------


def test_edges_validated():
    with pytest.raises(ValueError):
        Digraph(2, [(1, 3)])
    with pytest.raises(ValueError):
        Digraph(0, [(1, 1)])
    with pytest.raises(ValueError, match="vertex count must be nonnegative"):
        Digraph(-1)
    Digraph(1, [(1, 1)])  # loops are allowed
    for n, edges in ((3, [(1, 2.5)]), (3, [(1.0, 2)]), (2.5, []), ("3", [])):
        with pytest.raises(TypeError):
            Digraph(n, edges)
    assert Digraph(True, [(True, 1)]) == Digraph(1, [(1, 1)])  # a bool is an int


def test_equality_is_exact():
    assert Digraph(2, [(1, 2)]) == Digraph(2, [(1, 2)])
    assert Digraph(2, [(1, 2)]) != Digraph(2, [(2, 1)])
    assert Digraph(2, ()) != Digraph(3, ())
    # equal digraphs hash alike: one edge set, listed in another order and reached by a deletion
    built = Digraph(3, [(1, 2), (2, 3), (3, 1)])
    other = Digraph(3, [(3, 1), (2, 3), (1, 2), (1, 1)]).delete_edges([(1, 1)])
    assert built == other and hash(built) == hash(other)


# -- complement and opposite ----------------------------------------------------


def test_complement_examples():
    assert complete_digraph(3).complement() == discrete_digraph(3)
    assert discrete_digraph(2).complement() == Digraph(2, [(1, 1), (1, 2), (2, 1), (2, 2)])
    assert path_digraph(2).complement() == Digraph(2, [(1, 1), (2, 2), (2, 1)])


def test_opposite_examples():
    assert path_digraph(2).opposite() == Digraph(2, [(2, 1)])
    symmetric = Digraph(2, [(1, 2), (2, 1)])
    assert symmetric.opposite() == symmetric


@given(digraphs())
def test_complement_and_opposite_are_involutions(dg):
    assert dg.complement().complement() == dg
    assert dg.opposite().opposite() == dg
    assert dg.opposite().complement() == dg.complement().opposite()


def test_tournament_complement_is_opposite_plus_loops():
    for n in range(1, 6):
        for t in all_tournaments(n):
            loopless = {(u, v) for u, v in t.complement().edges if u != v}
            assert loopless == t.opposite().edges


# -- deletion and contraction ------------------------------------------------------


def test_delete_edges_examples():
    assert path_digraph(2).delete_edges([(1, 2)]) == discrete_digraph(2)
    dg = cycle_digraph(3)
    assert dg.delete_edges([]) == dg
    assert dg.delete_edges(dg.edges) == discrete_digraph(3)
    with pytest.raises(MissingEdgeError):
        dg.delete_edges([(2, 1)])


def test_contract_examples():
    assert path_digraph(2).contract_last_edge() == discrete_digraph(1)
    assert path_digraph(3).contract_last_edge() == path_digraph(2)
    assert cycle_digraph(3).contract_last_edge() == Digraph(2, [(1, 2), (2, 1)])
    with pytest.raises(MissingEdgeError):
        discrete_digraph(3).contract_last_edge()
    with pytest.raises(MissingEdgeError):
        Digraph(3, [(3, 2)]).contract_last_edge()


def test_contract_drops_everything_incident_to_the_pair():
    # edges into the old head survive; edges out of the old tail survive;
    # the reverse edge, loops, and the other two directions vanish
    dg = Digraph(3, [(2, 3), (3, 2), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (3, 3)])
    assert dg.contract_last_edge() == Digraph(2, [(1, 2), (2, 1)])


def _assert_contraction_loop_free(dg):
    # loops at untouched vertices survive contraction (they are edges away
    # from the contracted pair); the merged vertex itself never gains one
    result = dg.contract_last_edge()
    assert result.n == dg.n - 1
    assert (result.n, result.n) not in result.edges
    for u, v in result.edges:
        if u == v:
            assert (u, v) in dg.edges and u <= dg.n - 2


def test_contract_never_creates_loops_exhaustive_small():
    for n in (2, 3, 4):
        pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if (u, v) != (n - 1, n)]
        for bits in range(1 << len(pairs)):
            edges = {pairs[i] for i in range(len(pairs)) if bits >> i & 1}
            edges.add((n - 1, n))
            _assert_contraction_loop_free(Digraph(n, edges))


def test_contract_never_creates_loops_sampled_n5():
    rng = random.Random(99)
    for _ in range(2000):
        edges = {(u, v) for u in range(1, 6) for v in range(1, 6) if rng.random() < 0.4}
        edges.add((4, 5))
        _assert_contraction_loop_free(Digraph(5, edges))


# -- relabeling and products ----------------------------------------------------------


def test_relabel_examples():
    dg = path_digraph(2)
    assert dg.relabel((1, 2)) == dg
    assert dg.relabel((2, 1)) == Digraph(2, [(2, 1)])
    for delta in ((1, 1), (1,), (1, 2, 3), (0, 1), (2, 3)):
        with pytest.raises(ValueError, match="not a permutation"):
            dg.relabel(delta)


@given(digraphs(max_n=6), st.data())
def test_relabel_is_a_group_action(dg, data):
    delta = tuple(data.draw(st.permutations(range(1, dg.n + 1))))
    inverse = tuple(sorted(range(1, dg.n + 1), key=lambda i: delta[i - 1]))
    assert dg.relabel(delta).relabel(inverse) == dg


def test_the_public_constructions_still_check():
    # relabel and the constructor check their input; only the results of a
    # valid digraph's own constructions skip the check
    dg = Digraph(3, [(1, 2), (2, 3), (3, 3)])
    for delta in ((1, 2, 2), (0, 1, 2), (1, 2, 4)):
        with pytest.raises(ValueError, match="not a permutation"):
            dg.relabel(delta)
    with pytest.raises(ValueError, match=r"edge \(3,4\) out of range for n=3"):
        Digraph(3, [(1, 2), (3, 4)])
    for built in (dg.relabel((3, 1, 2)), dg.delete_edges([(3, 3)]), dg.contract_last_edge()):
        assert type(built) is Digraph and type(built.edges) is frozenset
        assert built == Digraph(built.n, built.edges) and hash(built) == hash(Digraph(built.n, built.edges))
        with pytest.raises(AttributeError):
            built.n = 0


def test_product_examples():
    assert discrete_digraph(1) * discrete_digraph(1) == path_digraph(2)
    x = Digraph(3, [(1, 2), (3, 3)])
    assert x * discrete_digraph(0) == x
    assert discrete_digraph(0) * x == x
    assert discrete_digraph(2) * discrete_digraph(1) == Digraph(3, [(1, 3), (2, 3)])


def test_product_with_a_non_digraph_is_refused():
    assert path_digraph(2).__mul__(2) is NotImplemented
    with pytest.raises(TypeError):
        path_digraph(2) * 2


def test_product_shifts_right_factor():
    left = path_digraph(2)
    right = Digraph(2, [(2, 1)])
    expected = Digraph(4, [(1, 2), (4, 3), (1, 3), (1, 4), (2, 3), (2, 4)])
    assert left * right == expected


# -- predicates -----------------------------------------------------------------------


def test_is_tournament_examples():
    assert cycle_digraph(3).is_tournament()
    assert path_digraph(2).is_tournament()
    assert not discrete_digraph(2).is_tournament()
    assert not Digraph(2, [(1, 2), (2, 1)]).is_tournament()
    assert not Digraph(2, [(1, 2), (1, 1)]).is_tournament()


def test_is_disjoint_union_of_paths_examples():
    for n in range(1, 6):
        assert path_digraph(n).is_disjoint_union_of_paths()
        assert discrete_digraph(n).is_disjoint_union_of_paths()
    assert Digraph(5, [(1, 2), (4, 3)]).is_disjoint_union_of_paths()
    assert not cycle_digraph(3).is_disjoint_union_of_paths()
    assert not Digraph(2, [(1, 2), (2, 1)]).is_disjoint_union_of_paths()
    assert not Digraph(3, [(1, 2), (1, 3)]).is_disjoint_union_of_paths()  # out-degree 2
    assert not Digraph(3, [(1, 3), (2, 3)]).is_disjoint_union_of_paths()  # in-degree 2
    assert not Digraph(1, [(1, 1)]).is_disjoint_union_of_paths()  # loop


@given(digraphs(max_n=6))
def test_disjoint_paths_is_the_path_union_rule(dg):
    # the edge-list predicate the counting lemma filters by, on a set and on a sorted list
    edges = dg.edges
    rule = all(u != v for u, v in edges) and len({u for u, _ in edges}) == len(edges) == len({v for _, v in edges})
    rule = rule and dg.find_directed_cycle() is None
    assert _disjoint_paths(edges) == _disjoint_paths(sorted(edges)) == dg.is_disjoint_union_of_paths() == rule


def test_find_directed_cycle_examples():
    assert cycle_digraph(3).find_directed_cycle() == [(1, 2), (2, 3), (3, 1)]
    assert path_digraph(4).find_directed_cycle() is None
    assert Digraph(2, [(1, 2), (2, 1)]).find_directed_cycle() == [(1, 2), (2, 1)]


def test_find_directed_cycle_loop_handling():
    loop = Digraph(2, [(1, 1)])
    assert loop.find_directed_cycle() is None


def test_find_directed_cycle_returns_real_cycle():
    rng = random.Random(4)
    for _ in range(100):
        dg = random_digraph(6, 0.25, rng.randint(0, 10**6), loops=False)
        cycle = dg.find_directed_cycle()
        if cycle is None:
            continue
        assert all(e in dg.edges for e in cycle)
        assert len(cycle) >= 2
        for (a, b), (c, d) in zip(cycle, cycle[1:] + cycle[:1]):
            assert b == c


def _search_sample():
    """Every digraph with n <= 3 (loops included), then a seeded sample with
    4 <= n <= 7: random digraphs at several densities, random tournaments,
    and unions of paths with and without one extra edge."""
    for n in range(4):
        pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
        for bits in range(1 << len(pairs)):
            yield Digraph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
    rng = random.Random(19)
    for _ in range(300):
        n = rng.randint(4, 7)
        yield random_digraph(n, rng.choice((0.1, 0.2, 0.3, 0.5)), rng.randrange(10**6), loops=rng.random() < 0.5)
    for _ in range(300):
        yield random_tournament(rng.randint(4, 7), rng.randrange(10**6))
    for _ in range(200):
        n = rng.randint(4, 7)
        order = rng.sample(range(1, n + 1), n)
        edges = {(a, b) for a, b in zip(order, order[1:]) if rng.random() < 0.7}
        if rng.random() < 0.5:
            edges.add((rng.randint(1, n), rng.randint(1, n)))
        yield Digraph(n, edges)


def test_the_four_searches_keep_their_answers():
    """The answers of the tournament and path-union tests, the directed cycle
    found (cycle-decomposition takes its F from it) and the first directed
    triangle (the triangle check's), pinned as one digest over _search_sample."""
    rows = [
        repr((dg.n, sorted(dg.edges), dg.is_tournament(), dg.is_disjoint_union_of_paths(),
              dg.find_directed_cycle(), _find_triangle(dg)))
        for dg in _search_sample()
    ]
    assert len(rows) == 531 + 800
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == "c118bdb2c2b2314e4178756cf2b6a8933509b201d2f8cb45d263c48ed597ad54"


def test_simple_cycle_lengths_and_evenness():
    assert has_even_directed_cycle(cycle_digraph(4))
    assert has_even_directed_cycle(Digraph(2, [(1, 2), (2, 1)]))
    assert has_even_directed_cycle(Digraph(2, [(1, 2), (2, 1), (1, 1)]))
    assert not has_even_directed_cycle(cycle_digraph(3))
    assert not has_even_directed_cycle(Digraph(1, [(1, 1)]))


def brute_force_cycle_counts(dg):
    """Oracle: per vertex subset, the cyclic orderings (lowest vertex first)
    whose every consecutive pair, last to first included, is an edge."""
    counts = []
    for subset in range(1 << dg.n):
        vertices = [v for v in range(1, dg.n + 1) if subset >> (v - 1) & 1]
        count = 0
        if len(vertices) >= 2:
            for order in itertools.permutations(vertices[1:]):
                cycle = (vertices[0],) + order
                count += all((a, b) in dg.edges for a, b in zip(cycle, cycle[1:] + cycle[:1]))
        counts.append(count)
    return counts


def test_cycle_count_table_against_brute_force():
    rng = random.Random(23)
    sample = [random_digraph(rng.randint(1, 6), rng.choice([0.3, 0.6]), rng.randint(0, 10**6)) for _ in range(40)]
    # loops must be dropped and 2-cycles counted once
    assert any(u == v for dg in sample for u, v in dg.edges)
    assert any(u != v and (v, u) in dg.edges for dg in sample for u, v in dg.edges)
    for dg in sample + [complete_digraph(5), discrete_digraph(0)]:
        assert hamiltonian_cycle_counts(dg.successor_masks()) == brute_force_cycle_counts(dg), dg
    with pytest.raises(SizeLimitError):
        hamiltonian_cycle_counts([0] * 13)


def cycle_tables(lanes):
    """hamiltonian_cycle_counts of every successor list in lanes, all over the
    same n vertices, from one _held_karp pass over their packed columns."""
    return _unpack(_held_karp(pack_lanes(lanes), len(lanes)), len(lanes[0]), len(lanes))


@pytest.mark.parametrize("k", [1, 2, 3, 64])
def test_cycle_tables_of_many_lanes_equal_the_table_of_each(k):
    # a step keeps only the lanes with its edge, so the lanes mix dense and
    # sparse digraphs, loops (dropped) and 2-cycles (counted once)
    rng = random.Random(31 + k)
    for n in range(7):
        sample = [random_digraph(n, rng.choice([0.2, 0.5, 0.8]), rng.randint(0, 10**6)) for _ in range(k)]
        if k > 1:
            sample[-1] = complete_digraph(n)
        lanes = [dg.successor_masks() for dg in sample]
        tables = cycle_tables(lanes)
        assert len(tables) == k
        for i, dg in enumerate(sample):
            assert tables[i] == hamiltonian_cycle_counts(lanes[i]) == brute_force_cycle_counts(dg), (n, i, dg)


def test_lane_width_holds_the_largest_count_and_isolates_the_lanes():
    # (n - 1)! cycles run through all n vertices of the complete digraph; a
    # lane that overflowed its field would carry into the empty lane beside it
    assert [array(code).itemsize for code in _LANE_CODES] == [1] * 7 + [2] * 3 + [4] * 4
    complete, empty = complete_digraph(12).successor_masks(), discrete_digraph(12).successor_masks()
    start = time.perf_counter()
    tables = cycle_tables([complete, empty, complete])
    seconds = time.perf_counter() - start
    assert [table[-1] for table in tables] == [math.factorial(11), 0, math.factorial(11)]
    assert tables[0] == tables[2] == hamiltonian_cycle_counts(complete)
    assert not any(tables[1])
    assert seconds < 2, seconds


def test_one_lane_unpacks_to_its_own_table():
    # one lane's packed table is its plain table, up to (n - 1)! cycles of
    # the complete digraph in the field of each n
    for n in range(13):
        table = hamiltonian_cycle_counts(complete_digraph(n).successor_masks())
        assert _unpack(table, n, 1) == [table], n


@st.composite
def digraphs_with_removed_edges(draw, max_n=6, max_edges=6):
    """A digraph with loops allowed, and a list of distinct edges of it."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
    edges = sorted(draw(st.sets(st.sampled_from(pairs), min_size=1)))
    return Digraph(n, edges), draw(st.lists(st.sampled_from(edges), max_size=max_edges, unique=True))


def _assert_deletion_columns_hold_every_deletion(dg, removed):
    k = 1 << len(removed)
    columns = _deletion_columns(dg, removed)
    lanes = [dg.delete_edges(S).successor_masks() for S in _selections(removed)]
    assert _unpack(columns, dg.n, k) == lanes
    assert _unpack(_complement_columns(columns, k), dg.n, k) == [_complement_columns(lane, 1) for lane in lanes]


@settings(max_examples=200, deadline=None)
@given(digraphs_with_removed_edges())
def test_deletion_columns_hold_every_deletion(case):
    # lane S of the packed columns is dg minus the edges S selects, loops
    # (dropped from the masks) included, and so is its loopless complement
    _assert_deletion_columns_hold_every_deletion(*case)


def test_deletion_columns_in_32_bit_fields():
    dg = random_digraph(12, 0.3, 1)
    assert array(_LANE_CODES[12]).itemsize == 4
    _assert_deletion_columns_hold_every_deletion(dg, dg.non_loop_edges()[:2])
    _assert_deletion_columns_hold_every_deletion(dg, dg.non_loop_edges()[-1:] + sorted(dg.edges)[:1])


def test_deletion_columns_refuse_as_delete_edges_does():
    dg = path_digraph(3)
    removed = [(1, 2), (3, 1), (2, 1)]
    with pytest.raises(MissingEdgeError) as expected:
        dg.delete_edges(removed)
    with pytest.raises(MissingEdgeError) as refusal:
        _deletion_columns(dg, removed)
    assert str(refusal.value) == str(expected.value) == "edges not in digraph: [(2, 1), (3, 1)]"
    with pytest.raises(ValueError, match="repeated edges"):
        _deletion_columns(dg, [(1, 2), (2, 3), (1, 2)])


@pytest.mark.parametrize("counts", [hamiltonian_cycle_counts, hamiltonian_path_counts])
def test_count_tables_refuse_n_above_the_ground_set_at_once(counts):
    # n = 13: the path table on n itself, not on the 14 vertices with the apex
    start = time.perf_counter()
    with pytest.raises(SizeLimitError, match="n=13"):
        counts([0] * 13)
    assert time.perf_counter() - start < 0.1


# -- Hamiltonian paths --------------------------------------------------------------------


def brute_force_hamiltonian(dg):
    count = 0
    for listing in itertools.permutations(range(1, dg.n + 1)):
        if all((a, b) in dg.edges for a, b in zip(listing, listing[1:])):
            count += 1
    return count


def test_hamiltonian_examples():
    assert path_digraph(3).hamiltonian_path_count() == 1
    assert cycle_digraph(3).hamiltonian_path_count() == 3
    transitive = Digraph(3, [(1, 2), (1, 3), (2, 3)])
    assert transitive.hamiltonian_path_count() == 1


def test_hamiltonian_against_brute_force():
    rng = random.Random(12)
    for _ in range(40):
        dg = random_digraph(5, 0.4, rng.randint(0, 10**6))
        assert dg.hamiltonian_path_count() == brute_force_hamiltonian(dg)


@given(digraphs(max_n=7))
@settings(max_examples=40)
def test_hamiltonian_invariant_under_opposite(dg):
    assert dg.hamiltonian_path_count() == dg.opposite().hamiltonian_path_count()


@given(digraphs(max_n=6))
@settings(max_examples=40)
def test_hamiltonian_ignores_loops(dg):
    looped = Digraph(dg.n, dg.edges | {(v, v) for v in range(1, dg.n + 1)})
    assert looped.hamiltonian_path_count() == dg.hamiltonian_path_count()


def test_path_count_table_against_brute_force():
    rng = random.Random(29)
    sample = [random_digraph(rng.randint(1, 6), rng.choice([0.3, 0.6]), rng.randint(0, 10**6)) for _ in range(40)]
    assert any(u == v for dg in sample for u, v in dg.edges)  # loops must be dropped
    for dg in sample + [complete_digraph(5), discrete_digraph(4), discrete_digraph(0)]:
        table = hamiltonian_path_counts(dg.successor_masks())
        assert len(table) == 1 << dg.n
        for subset, count in enumerate(table):
            induced = [v for v in range(1, dg.n + 1) if subset >> (v - 1) & 1]
            relabel = {v: i for i, v in enumerate(induced, start=1)}
            sub = Digraph(len(induced), {(relabel[u], relabel[v]) for u, v in dg.edges if u in relabel and v in relabel})
            assert count == brute_force_hamiltonian(sub), (dg, induced)


def brute_force_path_counts(dg):
    """The listings of every vertex subset whose consecutive pairs are all edges."""
    counts = []
    for subset in range(1 << dg.n):
        vertices = [v for v in range(1, dg.n + 1) if subset >> (v - 1) & 1]
        listings = itertools.permutations(vertices)
        counts.append(sum(all((a, b) in dg.edges for a, b in zip(order, order[1:])) for order in listings))
    return counts


def path_tables(lanes):
    """hamiltonian_path_counts of every successor list in lanes, all over the
    same n vertices, from one _held_karp pass over the packed columns of the
    n + 1 vertices with the apex added."""
    n, k = len(lanes[0]), len(lanes)
    apex = 1 << n
    counts = _held_karp(pack_lanes([[mask | apex for mask in lane] + [apex - 1] for lane in lanes]), k)
    tables = _unpack(counts[apex:], n + 1, k)
    for table in tables:
        table[0] = 1
    return tables


@pytest.mark.parametrize("k", [1, 2, 3, 64])
def test_path_tables_of_many_lanes_equal_the_table_of_each(k):
    # as for the cycle tables, the lanes mix dense and sparse digraphs and loops
    rng = random.Random(37 + k)
    for n in range(7):
        sample = [random_digraph(n, rng.choice([0.2, 0.5, 0.8]), rng.randint(0, 10**6)) for _ in range(k)]
        if k > 1:
            sample[-1] = complete_digraph(n)
        lanes = [dg.successor_masks() for dg in sample]
        tables = path_tables(lanes)
        assert len(tables) == k
        for i, dg in enumerate(sample):
            assert tables[i] == hamiltonian_path_counts(lanes[i]) == brute_force_path_counts(dg), (n, i, dg)


def test_path_lane_width_holds_the_largest_count_and_isolates_the_lanes():
    # 12! paths run through all 12 vertices of the complete digraph, in the
    # 32-bit fields of the 13 vertices with the apex; a lane that overflowed
    # would carry into the empty lane beside it
    complete, empty = complete_digraph(12).successor_masks(), discrete_digraph(12).successor_masks()
    start = time.perf_counter()
    tables = path_tables([complete, empty, complete])
    seconds = time.perf_counter() - start
    assert [table[-1] for table in tables] == [math.factorial(12), 0, math.factorial(12)] == [479001600, 0, 479001600]
    assert tables[0] == tables[2] == [math.factorial(S.bit_count()) for S in range(1 << 12)]
    assert tables[1] == [int(S.bit_count() <= 1) for S in range(1 << 12)]
    assert seconds < 4, seconds


def test_hamiltonian_size_guard():
    # the path table takes the apex as a thirteenth vertex of its cycle table,
    # whose lane field is 32 bits wide: 12! > 2**16
    assert discrete_digraph(12).hamiltonian_path_count() == 0
    assert complete_digraph(12).hamiltonian_path_count() == math.factorial(12) > 1 << 16
    assert hamiltonian_path_counts(complete_digraph(12).successor_masks())[(1 << 11) - 1] == math.factorial(11)
    with pytest.raises(SizeLimitError, match="n=13"):
        discrete_digraph(13).hamiltonian_path_count()
    with pytest.raises(SizeLimitError, match="n=13"):
        hamiltonian_path_counts([0] * 13)


# -- generators -----------------------------------------------------------------------------


def test_complete_includes_loops():
    dg = complete_digraph(2)
    assert dg.edges == frozenset([(1, 1), (1, 2), (2, 1), (2, 2)])


def test_cycle_generator_small_cases():
    assert cycle_digraph(1) == Digraph(1, [(1, 1)])
    assert cycle_digraph(2) == Digraph(2, [(1, 2), (2, 1)])


def test_random_generators_are_seed_deterministic():
    assert random_digraph(6, 0.3, 42) == random_digraph(6, 0.3, 42)
    assert random_digraph(6, 0.3, 42) != random_digraph(6, 0.3, 43)
    assert random_tournament(6, 7) == random_tournament(6, 7)
    for seed in range(20):
        assert random_tournament(5, seed).is_tournament()
    assert all(u != v for u, v in random_digraph(6, 0.5, 3, loops=False).edges)


# -- text format ------------------------------------------------------------------------------


def test_parse_and_format_round_trip():
    dg = Digraph(3, [(1, 2), (3, 3)])
    assert parse_digraph(format_digraph(dg)) == dg


def test_parse_with_comments_and_blanks():
    text = """
    # a triangle
    n 3
    1 2
    2 3  # wraps around next
    3 1
    """
    assert parse_digraph(text) == cycle_digraph(3)


@pytest.mark.parametrize("header", ["n  3", "n\t3"])
def test_whitespace_separates_the_header_fields(header):
    assert parse_digraph(f"{header}\n1 2\n") == Digraph(3, [(1, 2)])


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("1 2\n", "line 1"),  # missing header
        ("n 2\n1 2\n1 2\n", "duplicate"),
        ("n 2\n1 3\n", "out of range"),
        ("n 2\n1 two\n", "integers"),
        ("n 2\n1 2 3\n", "expected"),
        ("", "missing"),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(ValueError) as err:
        parse_digraph(text)
    assert fragment in str(err.value)
