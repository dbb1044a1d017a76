"""Reference oracles the suite checks the library against.

All but the last are literal and exponential: the word expansion of an
NCSym element, the elementary coefficient of the function as a
Mobius-weighted sum over its power-sum terms, and the friendliness test of
one vertex listing.  The last is the text of a set partition, rendered
block by block.
"""

import itertools
from fractions import Fraction
from typing import Sequence

from redeiberge.digraph import Digraph
from redeiberge.invariant import _block_weights
from redeiberge.ncsym import NCSymElement
from redeiberge.setpart import SetPartition, _nonzero_partitions, mobius, mobius_from_bottom, refines

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


def render_set_partition(pi: SetPartition) -> str:
    """Blocks joined by "/": each block's digits run together for n <= 9,
    "{a,b,...}" for n >= 10."""
    if pi.n <= 9:
        return "/".join(["".join(map(str, b)) for b in pi.blocks])
    return "/".join(["{" + ",".join(map(str, b)) + "}" for b in pi.blocks])
