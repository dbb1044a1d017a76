"""The Redei-Berge function of a labeled digraph in noncommuting variables.

Three independent algorithms compute the same element, and a fourth computes
it for tournaments:

  * rb_by_colorings      -- straight from the defining sum over colorings and
                            friendly listings (monomial basis);
  * rb_by_permutations   -- signed sum over permutations all of whose cycles
                            are directed cycles of the digraph or of its
                            complement (power-sum basis), factored over the
                            blocks of each cycle type and read off per-subset
                            Hamiltonian cycle counts;
  * rb_by_deletion_contraction -- the recursion W(X) = W(X minus e) minus
                            W(X contract e) inducted, the contraction taken
                            after relabeling the chosen edge to (n-1, n),
                            run on power-sum block tables;
  * rb_tournament        -- Grinberg-Stanley's formula, a power-sum block
                            table of the tournament's odd directed cycles.

rb_commutative computes the classical commutative Redei-Berge function from
descent sets of vertex listings, entirely independently of the routes
above, and serves as the cross-check once variables are allowed to commute.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from functools import lru_cache
from operator import index
from typing import Sequence

from .digraph import Digraph, _complement_columns, _held_karp, hamiltonian_path_counts
from .errors import SizeLimitError, SymmetryViolationError
from .ncsym import CSymElement, NCSymElement, _PowerSumTable
from .setpart import IntPartition, SetPartition, _mask_elements, _selections, enumerate_partitions

# The one table of routes: name -> (function, largest n it accepts), in bench row order.  Each
# function is read from the module when called, so a wrapper set on the module attribute runs.
ROUTES = {
    "definition": (lambda dg: rb_by_colorings(dg), 6),
    "permutations": (lambda dg: rb_by_permutations(dg), 8),
    "deletion-contraction": (lambda dg: rb_by_deletion_contraction(dg), 8),
}
MAX_DESCENT_ALGORITHM = 8

Coloring = tuple[int, ...]


# -- friendly listings ------------------------------------------------------


def count_friendly(dg: Digraph, colors: Sequence[int]) -> int:
    """Number of vertex listings that are friendly for the given coloring.

    A friendly listing is weakly increasing in color, so it is one ordering of
    each color class placed class after class, and only consecutive vertices
    of one class can break it (by an edge between them).  The count is the
    product over the classes of their orderings with no consecutive pair an
    edge, so it depends only on the partition into classes.
    """
    colors = tuple(map(index, colors))  # an int or a bool; a float or a string raises TypeError
    if len(colors) != dg.n:
        raise ValueError(f"coloring has {len(colors)} entries for {dg.n} vertices")
    if any(c < 1 for c in colors):
        raise ValueError("colors must be positive integers")
    classes: dict[int, list[int]] = defaultdict(list)
    for v, c in enumerate(colors, start=1):
        classes[c].append(v)
    edges = dg.edges
    return math.prod(
        sum(all(pair not in edges for pair in zip(order, order[1:])) for order in itertools.permutations(cls))
        for cls in classes.values()
    )


def _block_coloring(pi: SetPartition) -> Coloring:
    """The coloring whose classes are the blocks of pi, colored 1..k in the
    order of their lowest elements: pi's restricted growth string, the first
    coloring in product order with these classes."""
    colors = [0] * pi.n
    for color, block in enumerate(pi.blocks, start=1):
        for v in block:
            colors[v - 1] = color
    return tuple(colors)


def rb_by_colorings(dg: Digraph) -> NCSymElement:
    """Monomial-basis expansion from the defining sum over colorings.

    The monomial coefficient at pi is the friendly count of any coloring whose
    classes are the blocks of pi; one such coloring per set partition is
    evaluated (see _block_coloring).
    """
    n = dg.n
    resolve_route("definition", n)
    return NCSymElement(n, "M", {pi: count_friendly(dg, _block_coloring(pi)) for pi in enumerate_partitions(n)})


# -- cycle-structured permutations -------------------------------------------


def _block_weights(dg: Digraph) -> list[int]:
    """The block weight (see _block_weight) of every vertex bitmask B."""
    in_x, in_complement = _cycle_tables(dg.successor_masks(), 1)
    return list(map(_block_weight, in_x, in_complement, map(int.bit_count, range(len(in_x)))))


def _cycle_tables(columns: Sequence[int], k: int) -> tuple[list[int], list[int]]:
    """The packed cycle tables (see digraph._held_karp) of k digraphs, given
    by their packed columns, and of their loopless complements."""
    return _held_karp(columns, k), _held_karp(_complement_columns(columns, k), k)


def _block_weight(in_x: int, in_complement: int, size: int) -> int:
    """The signed count of permutations of a block of size vertices that are
    one directed cycle of a digraph with in_x cycles through the block, or of
    its loopless complement with in_complement: a fixed point weighs 1 (a
    cycle of exactly one side, the complement holding the missing loops), a
    longer cycle (-1)**(size - 1) in the digraph, +1 in the complement."""
    if size == 1:
        return 1
    return in_complement + in_x if size % 2 else in_complement - in_x


def rb_by_permutations(dg: Digraph) -> NCSymElement:
    """Power-sum expansion: signed sum of p over cycle types of permutations
    whose cycles are directed cycles of the digraph or of its complement.

    The sum factors over the blocks of each cycle type, so every nonzero
    coefficient is a product of block weights (see _block_weights).
    """
    resolve_route("permutations", dg.n)
    return _PowerSumTable(dg.n, _block_weights(dg))


def rb_tournament(dg: Digraph) -> NCSymElement:
    """Tournament power-sum expansion: 2**(number of nontrivial cycles) summed
    over permutations whose nontrivial cycles are odd directed cycles of the
    tournament.  It factors over the blocks of each cycle type: the table is
    1 on a singleton and 2 per odd cycle through exactly B, each found once,
    as a path from its lowest vertex through higher ones back onto it."""
    if not dg.is_tournament():
        raise ValueError("tournament expansion requires a tournament")
    resolve_route("permutations", dg.n)
    n = dg.n
    successors, elements = dg.successor_masks(), _mask_elements(n)
    weights = [0] * (1 << n)

    def extend(low, last, path):  # path: a mask from the vertex of bit low, through higher ones, to last
        if successors[last] & low and path.bit_count() & 1:  # no loop closes a path of one vertex
            weights[path] += 2
        for w in elements[successors[last] & -low << 1 & ~path]:  # successors above low, off the path
            extend(low, w - 1, path | 1 << w - 1)

    for v in range(n):
        weights[1 << v] = 1
        extend(1 << v, v, 1 << v)
    return _PowerSumTable(n, weights)


# -- deletion-contraction -----------------------------------------------------


@lru_cache(maxsize=ROUTES["deletion-contraction"][1] + 1)
def _discrete_weights(n: int) -> tuple[int, ...]:
    """The edge-free base case, the block table (|B|-1)! of every bitmask B
    (loops never affect the function); shared by every call."""
    return tuple(math.factorial(max(B.bit_count() - 1, 0)) for B in range(1 << n))


def _split_on_edge(dg: Digraph, u: int, v: int) -> tuple[tuple[int, ...], Digraph, Digraph]:
    """The deletion-contraction step on the non-loop edge (u, v), unchecked
    since valid by construction: delta^-1, the vertices in the order of their
    images under the delta sending u to n-1 and v to n, order-preserving
    elsewhere; the digraph relabeled by delta; and that with (n-1, n) contracted."""
    n = dg.n
    order = (*(w for w in range(1, n + 1) if w != u and w != v), u, v)
    delta = dict(zip(order, range(1, n + 1)))
    moved = Digraph._trusted(n, frozenset([(delta[a], delta[b]) for a, b in dg.edges]))
    return order, moved, moved.contract_last_edge()


def _contracted(d: Sequence[int], c: Sequence[int], to: Sequence[int], ends: int) -> tuple[int, ...]:
    """The deletion-contraction relation on block tables: the table of X from
    d, that of X minus e, and c, that of the contraction of delta X on
    (n-1, n), with to[B] the bitmask delta B.  It is d(B) - c(delta B minus
    n) on the blocks B that hold both ends of e, and d(B) elsewhere; c(delta B)
    = d(B) on the blocks that hold neither, so the P expansions then agree."""
    rest = (1 << len(d).bit_length() - 2) - 1  # the bitmask of 1..n-1
    return tuple([d[B] - c[to[B] & rest] if B & ends == ends else d[B] for B in range(len(d))])


def rb_by_deletion_contraction(dg: Digraph) -> NCSymElement:
    """Monomial-basis expansion by the deletion-contraction recursion.

    W(X) = W(X minus e) - delta^-1 (W(delta X contract (n-1, n))) inducted
    for the smallest non-loop edge e, which the order-preserving relabeling
    delta moves onto (n-1, n), the edge a contraction is defined for.  W
    commutes with relabeling, so only the contraction is relabeled.  Loops
    never affect W, so the recursion runs on the loopless digraph, over P
    block tables (see _deletion_contraction), and only the result becomes
    an element, converted to M.
    """
    n = dg.n
    resolve_route("deletion-contraction", n)  # n only shrinks below, so this refuses at the top only
    table = _deletion_contraction(Digraph(n, dg.non_loop_edges()), {})
    return _PowerSumTable(n, table).to_basis("M")


def _deletion_contraction(dg: Digraph, memo: dict) -> tuple[int, ...]:
    """The block table (see _PowerSumTable) of W of a loopless digraph.  memo,
    made by the top-level call, holds the table of every digraph met, keyed by
    the exact digraph (n, edges), as Haggard, Pearce and Royle cache the
    graphs their Tutte recursion has computed."""
    key = (dg.n, dg.edges)
    if key in memo:
        return memo[key]
    if not dg.edges:
        return _discrete_weights(dg.n)
    u, v = e = min(dg.edges)
    order, _, contracted = _split_on_edge(dg, u, v)
    to = list(map(sum, _selections([1 << order.index(w) for w in range(1, dg.n + 1)])))
    deleted = _deletion_contraction(dg.delete_edges([e]), memo)
    memo[key] = _contracted(deleted, _deletion_contraction(contracted, memo), to, 1 << u - 1 | 1 << v - 1)
    return memo[key]


# -- commutative oracle via descent sets --------------------------------------


def descent_aggregate(dg: Digraph) -> dict[frozenset[int], int]:
    """Counts of edge-descent sets over all n! vertex listings; every key is a
    subset of {1..n-1} and every count positive."""
    if dg.n > MAX_DESCENT_ALGORITHM:
        raise SizeLimitError(f"descent algorithm limited to n <= {MAX_DESCENT_ALGORITHM}")
    counts: dict[frozenset, int] = defaultdict(int)
    for listing in itertools.permutations(range(1, dg.n + 1)):
        descents = frozenset(
            i for i in range(1, dg.n) if (listing[i - 1], listing[i]) in dg.edges
        )
        counts[descents] += 1
    return dict(counts)


def rb_commutative(dg: Digraph) -> CSymElement:
    """The commutative Redei-Berge function, in the monomial basis.

    Since F_D = sum of M_S over S containing D, the quasisymmetric monomial
    coefficient at the composition with cut set S is the descent count summed
    over D inside S.  Asserts that every rearrangement of a partition gets the
    same coefficient (the result is genuinely symmetric) and reads it off.
    """
    n = dg.n
    if n == 0:
        return CSymElement(0, "m", {IntPartition([]): 1})
    aggregate = descent_aggregate(dg)
    values: dict[tuple[int, ...], set[int]] = defaultdict(set)
    for r in range(n):
        for cuts in itertools.combinations(range(1, n), r):
            ends = (0,) + cuts + (n,)
            parts = tuple(sorted((b - a for a, b in zip(ends, ends[1:])), reverse=True))
            values[parts].add(sum(mult for D, mult in aggregate.items() if D.issubset(cuts)))
    terms: dict[IntPartition, int] = {}
    for parts, seen in values.items():
        if len(seen) != 1:
            pattern = parts + (0,) * (n - len(parts))  # as an exponent vector over n variables
            raise SymmetryViolationError(
                f"descent aggregate of {dg.describe()} is not symmetric at pattern {pattern}"
            )
        value = seen.pop()
        if value:
            terms[IntPartition(parts)] = value
    return CSymElement(n, "m", terms)


# -- coefficient formula -------------------------------------------------------


def monomial_coefficient(dg: Digraph, pi: SetPartition) -> int:
    """Number of listings friendly for a coloring whose color classes are the
    blocks of pi: within each block, consecutive vertices must not be joined
    by an edge, so the count is the product over the blocks of Hamiltonian
    path counts of the loopless complement.  Agrees with the monomial
    coefficient after conversion, without expanding the whole function.
    """
    if pi.n != dg.n:
        raise ValueError(f"partition of [{pi.n}] paired with digraph on {dg.n} vertices")
    paths = hamiltonian_path_counts(_complement_columns(dg.successor_masks(), 1))
    return math.prod(paths[B] for B in pi.masks)


# -- dispatcher -----------------------------------------------------------------


def resolve_route(algorithm: str, n: int) -> str:
    """The route that computes an n-vertex instance by the named algorithm, "auto" being the
    permutation route whatever the capacities (it is the fastest); refuses n above its capacity."""
    route = "permutations" if algorithm == "auto" else algorithm
    if route not in ROUTES:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {tuple(ROUTES)} or 'auto'")
    if n > ROUTES[route][1]:
        raise SizeLimitError(f"{route} route refuses n={n} (capacity {ROUTES[route][1]})")
    return route


def redei_berge(dg: Digraph, algorithm: str = "auto") -> NCSymElement:
    """Compute the function by the named algorithm (see ROUTES)."""
    return ROUTES[resolve_route(algorithm, dg.n)][0](dg)
