"""The Redei-Berge function of a labeled digraph in noncommuting variables.

Three independent algorithms compute the same element:

  * rb_by_colorings      -- straight from the defining sum over colorings and
                            friendly listings (monomial basis);
  * rb_by_permutations   -- signed sum over permutations all of whose cycles
                            are directed cycles of the digraph or of its
                            complement (power-sum basis), factored over the
                            blocks of each cycle type and read off per-subset
                            Hamiltonian cycle counts;
  * rb_by_deletion_contraction -- the recursion W(X) = W(X minus e) minus
                            W(X contract e) inducted, after relabeling the
                            chosen edge to (n-1, n).

rb_commutative computes the classical commutative Redei-Berge function from
descent sets of vertex listings, entirely independently of the three routes
above, and serves as the cross-check once variables are allowed to commute.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from functools import lru_cache
from operator import index
from typing import Sequence

from .digraph import Digraph, hamiltonian_cycle_counts, hamiltonian_path_counts
from .errors import SizeLimitError, SymmetryViolationError
from .ncsym import CSymElement, NCSymElement, _PowerSumTable
from .setpart import (
    IntPartition,
    SetPartition,
    _trusted_partition,
    enumerate_partitions,
    factorial_weight,
    inverse_perm,
)

# The one table of routes: name -> (function, largest n it accepts), in bench row order.  Each
# function is read from the module when called, so a wrapper set on the module attribute runs.
ROUTES = {
    "definition": (lambda dg: rb_by_colorings(dg), 6),
    "permutations": (lambda dg: rb_by_permutations(dg), 8),
    "deletion-contraction": (lambda dg: rb_by_deletion_contraction(dg), 7),
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
    """For every vertex bitmask B, the signed count of permutations of B that
    are one directed cycle of the digraph or of its complement: a fixed point
    weighs 1 (it is a cycle of exactly one side, the complement holding the
    missing loops), a longer cycle (-1)**(|B| - 1) in the digraph, +1 in the
    complement."""
    successors = dg.successor_masks()
    in_x = hamiltonian_cycle_counts(successors)
    in_complement = hamiltonian_cycle_counts(_complement_masks(successors))
    weights = [b + a if B.bit_count() % 2 else b - a for B, a, b in zip(range(1 << dg.n), in_x, in_complement)]
    for v in range(dg.n):
        weights[1 << v] = 1
    return weights


def _complement_masks(successors: Sequence[int]) -> list[int]:
    """Successor masks of the loopless complement: every vertex but itself
    that it does not point at."""
    full = (1 << len(successors)) - 1
    return [full & ~(mask | 1 << v) for v, mask in enumerate(successors)]


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
    tournament (fixed points are unrestricted).  Each permutation is listed
    once, depth first over a stack of (unplaced vertices, cycle masks, power
    of 2): the next cycle is the lowest unplaced vertex alone, or an odd
    directed cycle of length >= 3 through it, grown as paths of successors."""
    if not dg.is_tournament():
        raise ValueError("tournament expansion requires a tournament")
    resolve_route("permutations", dg.n)
    n = dg.n
    successors = dg.successor_masks()
    acc: dict[tuple[int, ...], int] = defaultdict(int)
    stack = [((1 << n) - 1, (), 1)]
    while stack:
        rest, blocks, power = stack.pop()
        if not rest:
            acc[blocks] += power
            continue
        low = rest & -rest
        stack.append((rest ^ low, blocks + (low,), power))
        paths = [(low, low, 1)]  # (last vertex's bit, path mask, path length)
        while paths:
            last, path, length = paths.pop()
            ahead = successors[last.bit_length() - 1]
            if length >= 3 and length % 2 and ahead & low:
                stack.append((rest ^ path, blocks + (path,), 2 * power))
            ahead &= rest & ~path
            while ahead:
                bit = ahead & -ahead
                paths.append((bit, path | bit, length + 1))
                ahead ^= bit
    return NCSymElement(n, "P", {_trusted_partition(n, blocks): c for blocks, c in acc.items()})


# -- deletion-contraction -----------------------------------------------------


@lru_cache(maxsize=ROUTES["deletion-contraction"][1] + 1)
def _discrete_expansion(n: int) -> NCSymElement:
    """The edge-free base case: sum of (block factorial product) * m over all
    set partitions; loops never affect the function."""
    return NCSymElement(n, "M", {pi: factorial_weight(pi) for pi in enumerate_partitions(n)})


def _split_on_edge(dg: Digraph, u: int, v: int) -> tuple[tuple[int, ...], Digraph, Digraph, Digraph]:
    """The deletion-contraction step on the edge (u, v): the permutation delta
    sending u to n-1 and v to n, order-preserving elsewhere; the digraph
    relabeled by delta; and that digraph with (n-1, n) deleted and with it
    contracted."""
    n = dg.n
    delta = inverse_perm([w for w in range(1, n + 1) if w != u and w != v] + [u, v])
    moved = dg.relabel(delta)
    return delta, moved, moved.delete_edges([(n - 1, n)]), moved.contract_last_edge()


def rb_by_deletion_contraction(dg: Digraph) -> NCSymElement:
    """Monomial-basis expansion by the deletion-contraction recursion.

    The lexicographically smallest non-loop edge is moved onto (n-1, n) by an
    order-preserving relabeling, the recursion applied there, and the result
    pulled back; the relabeling step keeps every recursive call on the
    distinguished edge the contraction is defined for.
    """
    resolve_route("deletion-contraction", dg.n)  # n only shrinks below, so this refuses at the top only
    non_loop = dg.non_loop_edges()
    if not non_loop:
        return _discrete_expansion(dg.n)
    delta, _, deleted, contracted = _split_on_edge(dg, *non_loop[0])
    recursed = rb_by_deletion_contraction(deleted) - rb_by_deletion_contraction(contracted).induct()
    return recursed.act(inverse_perm(delta))


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
    paths = hamiltonian_path_counts(_complement_masks(dg.successor_masks()))
    return math.prod(paths[sum(1 << (v - 1) for v in block)] for block in pi.blocks)


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
