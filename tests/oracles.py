"""Reference oracles the suite checks the library against.

The first five are literal and exponential: the word expansion of an
NCSym element, the elementary coefficient of the function as a
Mobius-weighted sum over its power-sum terms, the friendliness test of one
vertex listing, the tournament formula summed over every permutation, and
the counting lemma checked coloring by coloring and subset by subset.
The rest are literal forms of what the library computes faster: the text of
a set partition, rendered block by block; a basis change summed pair by
pair into a dict keyed by partition, along the rows coarsenings and
refinements; the commutative image, term by term; the packed columns of
several successor lists, packed vertex by vertex; and the
deletion-contraction recursion on whole M elements, with no memo.
"""

import itertools
import sys
from array import array
from fractions import Fraction
from math import factorial
from typing import Callable, Iterable, Sequence

from redeiberge.digraph import _LANE_CODES, Digraph
from redeiberge.invariant import _block_weights
from redeiberge.ncsym import CSymElement, NCSymElement, _sum
from redeiberge.setpart import (
    SetPartition,
    _nonzero_partitions,
    coarsenings,
    enumerate_partitions,
    factorial_weight,
    inverse_perm,
    lambda_of,
    mobius,
    mobius_from_bottom,
    multiplicity_weight,
    refinements,
    refines,
)

Word = tuple[int, ...]


def expand(element: NCSymElement, k: int) -> dict[Word, int | Fraction]:
    """Exact coefficients of all words over the alphabet {1..k}.

    Ground-truth oracle: a word contributes to m_pi when its equality
    pattern is exactly pi, to p_pi when letters agree on every block, and
    to e_pi when letters are pairwise distinct inside every block.
    Exponential in the degree.
    """
    if k < 1:
        raise ValueError("need at least one variable")
    out: dict[Word, int | Fraction] = {}
    for word in itertools.product(range(1, k + 1), repeat=element.degree):
        total = 0
        for pi, c in element.terms.items():
            if _word_matches(word, pi, element.basis):
                total += c
        if total:
            out[word] = total
    return out


def _word_matches(word: Word, pi: SetPartition, basis: str) -> bool:
    if basis == "M":
        positions: dict[int, list[int]] = {}
        for pos, letter in enumerate(word, start=1):
            positions.setdefault(letter, []).append(pos)
        pattern = tuple(sorted(tuple(v) for v in positions.values()))
        return pattern == pi.blocks
    if basis == "P":
        return all(len({word[x - 1] for x in b}) <= 1 for b in pi.blocks)
    # E: letters pairwise distinct within each block
    return all(len({word[x - 1] for x in b}) == len(b) for b in pi.blocks)


def elementary_coefficient(dg: Digraph, pi: SetPartition) -> Fraction:
    """Coefficient of the elementary basis element at pi, by the Mobius-weighted
    sum over cycle-structured permutations whose type is refined by pi."""
    if pi.n != dg.n:
        raise ValueError(f"partition of [{pi.n}] paired with digraph on {dg.n} vertices")
    total = Fraction(0)
    for blocks, coeff in _nonzero_partitions(_block_weights(dg), (1 << dg.n) - 1):
        cycle_type = SetPartition.from_masks(dg.n, blocks)
        if refines(pi, cycle_type):
            total += Fraction(coeff * mobius(pi, cycle_type), mobius_from_bottom(cycle_type))
    return total


def is_friendly(dg: Digraph, colors: Sequence[int], listing: Sequence[int]) -> bool:
    """Weakly increasing in the coloring, strictly across every edge pair."""
    for a, b in zip(listing, listing[1:]):
        ca, cb = colors[a - 1], colors[b - 1]
        if ca > cb:
            return False
        if ca == cb and (a, b) in dg.edges:
            return False
    return True


def tournament_formula(dg: Digraph) -> NCSymElement:
    """Grinberg-Stanley's tournament formula, permutation by permutation:
    p of the cycle partition, weighted 2**(number of nontrivial cycles),
    summed over every permutation of 1..n whose nontrivial cycles are odd
    directed cycles of dg."""
    n = dg.n
    terms: dict[SetPartition, int] = {}
    for image in itertools.permutations(range(1, n + 1)):
        cycles, seen = [], set()
        for start in range(1, n + 1):
            cycle, v = [], start
            while v not in seen:
                seen.add(v)
                cycle.append(v)
                v = image[v - 1]
            if cycle:
                cycles.append(cycle)
        nontrivial = [c for c in cycles if len(c) > 1]
        if all(len(c) % 2 and all((v, image[v - 1]) in dg.edges for v in c) for c in nontrivial):
            pi = SetPartition(cycles)
            terms[pi] = terms.get(pi, 0) + 2 ** len(nontrivial)
    return NCSymElement(n, "P", terms)


def counting_lemma_witness(dg: Digraph, friendly: Callable[[Digraph, Sequence[int]], int]) -> str | None:
    """The counting-lemma check's loop, literally: for every coloring of
    {1..n}^n in product order and every edge subset F that is not a
    disjoint union of paths, by size and then by its edges, the friendly
    count of dg against the sum of (-1)^(|S|-1) times that of dg minus S over
    the nonempty subsets S of F.  None, or the check's witness of the first
    failure; friendly(digraph, colors) gives each count."""
    n, edges = dg.n, sorted(dg.edges)
    subsets = [list(S) for r in range(len(edges) + 1) for S in itertools.combinations(edges, r)]
    qualifying = [F for F in subsets if F and not Digraph(n, F).is_disjoint_union_of_paths()]
    for colors in itertools.product(range(1, n + 1), repeat=n):
        counts = {tuple(S): friendly(dg.delete_edges(S), colors) for S in subsets}
        for F in qualifying:
            total = sum(
                (-1) ** (r - 1) * counts[S] for r in range(1, len(F) + 1) for S in itertools.combinations(F, r)
            )
            if total != counts[()]:
                return f"coloring {colors}, subset {F}: {total} != {counts[()]}"
    return None


def render_set_partition(pi: SetPartition) -> str:
    """Blocks joined by "/": each block's digits run together for n <= 9,
    "{a,b,...}" for n >= 10."""
    if pi.n <= 9:
        return "/".join(["".join(map(str, b)) for b in pi.blocks])
    return "/".join(["{" + ",".join(map(str, b)) + "}" for b in pi.blocks])


def convert_along_rows(element: NCSymElement, target: str) -> NCSymElement:
    """element in the target basis, through P, by the four formulas of
    redeiberge.ncsym: every (sigma, c * w) of the row of every term (pi, c)
    is collected by ncsym._sum into one coefficient per partition."""
    n = element.degree
    if target == element.basis:
        return element
    if element.basis != "P":
        # m_pi = sum_{sigma >= pi} mu(pi, sigma) p_sigma
        # e_pi = sum_{sigma <= pi} mu(0, sigma) p_sigma
        row_of, column = (coarsenings, 1) if element.basis == "M" else (refinements, 2)
        in_p = NCSymElement(n, "P", _sum(_along_rows(element.terms.items(), row_of, column)))
        return convert_along_rows(in_p, target)
    if target == "M":
        # p_pi = sum_{sigma >= pi} m_sigma
        return NCSymElement(n, "M", _sum((sigma, c) for pi, c in element.terms.items() for sigma in coarsenings(pi)[0]))
    # p_pi = (1 / mu(0, pi)) sum_{sigma <= pi} mu(sigma, pi) e_sigma, over (n-1)!
    d = factorial(max(n - 1, 0))
    numerators = ((pi, c * (d // mobius_from_bottom(pi))) for pi, c in element.terms.items())
    terms = _sum(_along_rows(numerators, refinements, 1))
    return NCSymElement(n, "E", {sigma: Fraction(c, d) for sigma, c in terms.items()})


def _along_rows(terms: Iterable[tuple[SetPartition, object]], row_of: Callable, column: int) -> Iterable:
    """(sigma, c * w) for every term (pi, c) and every entry sigma of the
    lattice row row_of(pi), w its value in the row's tuple at column."""
    for pi, c in terms:
        row = row_of(pi)
        for sigma, w in zip(row[0], row[column]):
            yield sigma, c * w


def commutative_image_by_terms(element: NCSymElement) -> CSymElement:
    """The commutative image summed term by term: pi goes to lambda_of(pi),
    with the factor multiplicity_weight(pi) in M, factorial_weight(pi) in E
    and 1 in P."""
    weight = {"M": multiplicity_weight, "P": lambda pi: 1, "E": factorial_weight}[element.basis]
    terms = _sum((lambda_of(pi), c * weight(pi)) for pi, c in element.terms.items())
    return CSymElement(element.degree, element.basis.lower(), terms)


def pack_lanes(lanes: Sequence[Sequence[int]]) -> list[int]:
    """Per vertex, the successors of k lists over n vertices: lane i's in field
    i of _LANE_CODES[n]'s width, the packed columns digraph._held_karp reads."""
    return [int.from_bytes(array(_LANE_CODES[len(lanes[0])], column), sys.byteorder) for column in zip(*lanes)]


def deletion_contraction(dg: Digraph) -> NCSymElement:
    """W(X) in the M basis by the paper's recursion, through the public
    digraph and element operations only: W(X) = W(X minus e) - delta^-1
    (W(delta X contract (n-1, n)) inducted) for the smallest non-loop edge
    e = (u, v), delta sending u to n-1 and v to n and keeping the order of
    the rest; with no non-loop edge, the coefficient at pi is the product of
    |B|! over its blocks.  No memo: exponential in the number of edges."""
    n, edges = dg.n, dg.non_loop_edges()
    if not edges:
        return NCSymElement(n, "M", {pi: factorial_weight(pi) for pi in enumerate_partitions(n)})
    u, v = edges[0]
    order = tuple(w for w in range(1, n + 1) if w not in (u, v)) + (u, v)  # delta^-1
    contracted = dg.relabel(inverse_perm(order)).contract_last_edge()
    return deletion_contraction(dg.delete_edges([(u, v)])) - deletion_contraction(contracted).induct().act(order)
