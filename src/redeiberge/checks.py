"""Machine verification of the identities the invariant satisfies.

Every check compares exact expansions (normalized to a common basis) or
exact integer counts; a failing report always carries a witness.  Checks
whose hypothesis the instance does not meet are reported as skipped, never
silently dropped.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Iterable, Sequence

from .digraph import Digraph, _complement_columns, _deletion_columns, _held_karp, has_even_directed_cycle
from .digraph import _LANE_CODES, _disjoint_paths, _selection_lanes, _unpack
from .errors import SizeLimitError
from .invariant import (
    ROUTES,
    count_friendly,  # not called here; the benchmark's tracer wraps checks.count_friendly
    rb_by_colorings,
    rb_by_deletion_contraction,
    rb_by_permutations,
    rb_commutative,
    rb_tournament,
    resolve_route,
    _block_coloring,
    _block_weight,
    _contracted,
    _cycle_tables,
    _split_on_edge,
)
from .ncsym import NCSymElement, _ProductTable, multiply
from .setpart import _nonzero_partitions, _selections, enumerate_partitions, singletons

MAX_SUBSET_EDGES = 10
MAX_PRODUCT_SIZE = 8
MAX_COUNTING_LEMMA_VERTICES = 4
MAX_COUNTING_LEMMA_EDGES = 6


@dataclass(frozen=True)
class VerificationReport:
    check: str
    instance: str
    status: str  # "pass", "fail" or "skipped"
    witness: str | None = None

    def __post_init__(self):
        if self.status not in ("pass", "fail", "skipped"):
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == "fail" and not self.witness:
            raise ValueError("a failing report must carry a witness")

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _difference(lhs, rhs) -> str | None:
    """None when two expansions in a common basis agree, else the first
    coefficient where they differ."""
    if lhs == rhs:
        return None
    for key in sorted(set(lhs.terms) | set(rhs.terms)):
        a, b = lhs.coefficient(key), rhs.coefficient(key)
        if a != b:
            return f"coefficient at {key}: {a} != {b}"
    return "elements differ in degree or basis"


class _Skip(Exception):
    """Raised by a check whose hypothesis the instance does not meet."""


def check_identities(
    dg: Digraph,
    checks: Iterable[str] | None = None,
    other: Digraph | None = None,
    instance: str | None = None,
) -> list[VerificationReport]:
    """Run the requested identity checks on one instance.

    The product check pairs the instance with ``other`` when given, and with
    itself otherwise.  Failures come back as reports, never exceptions.
    """
    requested = tuple(checks) if checks is not None else ALL_CHECKS
    unknown = [c for c in requested if c not in ALL_CHECKS]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; available: {list(ALL_CHECKS)}")
    name = instance if instance is not None else dg.describe()
    runner = _CheckRunner(dg, other, name)
    return [runner.run(check) for check in requested]


class _CheckRunner:
    """The checks of one instance.

    Each check_* returns None on a pass or a witness on a failure, and raises
    _Skip when its hypothesis is unmet; run() turns those, and any size
    refusal from a route, into the one report per check.
    """

    # the instance's P expansion and M image, built once on first read (a refusal is not kept)
    p = cached_property(lambda self: rb_by_permutations(self.dg))
    m = cached_property(lambda self: self.p.to_basis("M"))

    def __init__(self, dg: Digraph, other: Digraph | None, instance: str):
        self.dg = dg
        self.other = other
        self.instance = instance

    def run(self, check: str) -> VerificationReport:
        try:
            witness = getattr(self, "check_" + check.replace("-", "_"))()
        except (_Skip, SizeLimitError) as reason:
            return VerificationReport(check, self.instance, "skipped", str(reason))
        return VerificationReport(check, self.instance, "pass" if witness is None else "fail", witness)

    def check_opposite(self) -> str | None:
        return _difference(self.p, rb_by_permutations(self.dg.opposite()))

    def check_tournament_complement(self) -> str | None:
        if not self.dg.is_tournament():
            raise _Skip("hypothesis unmet: not a tournament")
        return _difference(self.p, rb_by_permutations(self.dg.complement()))

    def check_product(self) -> str | None:
        right = self.other if self.other is not None else self.dg
        total = self.dg.n + right.n
        if total > MAX_PRODUCT_SIZE:
            raise _Skip(f"combined size {total} > {MAX_PRODUCT_SIZE}")
        product = multiply(self.p, self.p if right is self.dg else rb_by_permutations(right))
        return _difference(rb_by_permutations(self.dg.product(right)), product)

    def check_deletion_contraction(self) -> str | None:
        n, non_loop = self.dg.n, self.dg.non_loop_edges()
        if not non_loop:
            raise _Skip("hypothesis unmet: no non-loop edge")
        resolve_route("permutations", n)
        splits = [_split_on_edge(self.dg, u, v)[1:] for u, v in non_loop]
        weights = _contraction_weights(splits)
        for i, ((u, v), (moved, contracted)) in enumerate(zip(non_loop, splits)):
            if _contraction_tables_agree(*weights[3 * i : 3 * i + 3]):
                continue
            # the tables disagree, which decides; the full comparison names the witness
            lhs = rb_by_permutations(moved)
            rhs = rb_by_permutations(moved.delete_edges([(n - 1, n)])) - rb_by_permutations(contracted).induct()
            return f"edge ({u},{v}): " + (_difference(lhs, rhs) or "the block tables disagree, the expansions agree")
        return None

    def check_subset_decomposition(self) -> str | None:
        if self.dg.is_disjoint_union_of_paths():
            raise _Skip("hypothesis unmet: disjoint union of paths")
        edges = sorted(self.dg.edges)
        if len(edges) > MAX_SUBSET_EDGES:
            raise _Skip(f"|E| > {MAX_SUBSET_EDGES}")
        return self._deletion_sum_witness(edges)

    def check_cycle_decomposition(self) -> str | None:
        cycle = self.dg.find_directed_cycle()
        if cycle is None:
            raise _Skip("hypothesis unmet: no directed cycle")
        return self._deletion_sum_witness(cycle)

    def check_triangle(self) -> str | None:
        triangle = _find_triangle(self.dg)
        if triangle is None:
            raise _Skip("hypothesis unmet: no directed triangle")
        return self._deletion_sum_witness(triangle)

    def check_counting_lemma(self) -> str | None:
        """For every coloring and every qualifying edge subset F, the friendly
        count of X equals the sum of (-1)^(|S|-1) times that of X minus S over
        the nonempty subsets S of F.

        A friendly count depends only on the partition into color classes, so
        one coloring per set partition is evaluated (see _friendly_counts),
        the first in product order with those classes.  The first failing
        coloring is therefore the one the full loop over {1..n}^n finds.  No
        deletion is built: one packed Held-Karp pass counts for all 2^|E|.
        """
        n = self.dg.n
        edges = sorted(self.dg.edges)
        if n > MAX_COUNTING_LEMMA_VERTICES or len(edges) > MAX_COUNTING_LEMMA_EDGES:
            raise _Skip(
                f"instance too large for the exhaustive check (n <= {MAX_COUNTING_LEMMA_VERTICES}, "
                f"|E| <= {MAX_COUNTING_LEMMA_EDGES})"
            )
        # edge subsets as bitmasks over edges; the qualifying ones by size, then
        # by their edges, so that a witness names the first failing subset
        subsets = list(map(list, _selections(edges)))
        qualifying = [
            F
            for F in sorted(range(1, 1 << len(edges)), key=lambda F: (len(subsets[F]), subsets[F]))
            if not _disjoint_paths(subsets[F])
        ]
        if not qualifying:
            raise _Skip("hypothesis unmet: no qualifying edge subset")
        for colors, counts in _friendly_counts(self.dg, edges).items():
            totals = _alternating_subset_sums(counts)
            for F in qualifying:
                if totals[F] != counts[0]:
                    return f"coloring {colors}, subset {subsets[F]}: {totals[F]} != {counts[0]}"
        return None

    def check_cross_algorithm(self) -> str | None:
        by_delcon = rb_by_deletion_contraction(self.dg)  # refuses before the other expansions
        witness = _difference(self.m, by_delcon)
        if witness is not None or self.dg.n > ROUTES["definition"][1]:
            return witness
        return _difference(self.m, rb_by_colorings(self.dg))

    def check_commutative(self) -> str | None:
        resolve_route("permutations", self.dg.n)  # each refusal comes before any work
        expected = rb_commutative(self.dg)
        return _difference(self.m.commutative_image(), expected)

    def check_integrality(self) -> str | None:
        for element, label in ((self.p, "P"), (self.m, "M")):
            if not element.is_integral():
                bad = next(k for k, c in element.terms.items() if c.denominator != 1)
                return f"{label}-basis coefficient at {bad} is {element.terms[bad]}"
        return None

    def check_p_nonnegativity(self) -> str | None:
        if has_even_directed_cycle(self.dg):
            raise _Skip("hypothesis unmet: has an even directed cycle")
        for key, coeff in self.p.terms.items():
            if coeff < 0:
                return f"negative power-sum coefficient {coeff} at {key}"
        bottom = self.p.coefficient(singletons(self.dg.n))
        if bottom < 1:
            return f"coefficient at the all-singletons partition is {bottom}, expected >= 1"
        return None

    def check_tournament_formula(self) -> str | None:
        if not self.dg.is_tournament():
            raise _Skip("hypothesis unmet: not a tournament")
        return _difference(rb_tournament(self.dg), self.p)

    def check_berge_parity(self) -> str | None:
        count = self.dg.hamiltonian_path_count()
        other = self.dg.complement().hamiltonian_path_count()
        if count % 2 != other % 2:
            return f"Hamiltonian path counts {count} and {other} differ mod 2"
        return None

    def check_redei_parity(self) -> str | None:
        if not self.dg.is_tournament():
            raise _Skip("hypothesis unmet: not a tournament")
        count = self.dg.hamiltonian_path_count()
        return f"Hamiltonian path count {count} is even" if count % 2 == 0 else None

    def _deletion_sum_witness(self, edges: Sequence[tuple[int, int]]) -> str | None:
        """None when W(X) is the alternating sum over the deletions of edges:
        decided on packed count tables, with the full comparison for a
        witness, its terms read from the same tables."""
        n, k = self.dg.n, 1 << len(edges)
        resolve_route("permutations", n)
        tables = _cycle_tables(_deletion_columns(self.dg, edges), k)
        if _deletion_tables_vanish(n, edges, tables):
            return None
        in_x, in_complement = (_unpack(t, n, k) for t in tables)
        sizes = [B.bit_count() for B in range(1 << n)]
        total = NCSymElement(n, "P", {})
        for S in range(1, k):
            term = _ProductTable(n, "P", list(map(_block_weight, in_x[S], in_complement[S], sizes)))
            total = total + term if S.bit_count() % 2 else total - term
        return _difference(self.p, total)


# definition order of the check_* methods is report order
ALL_CHECKS = tuple(m.removeprefix("check_").replace("_", "-") for m in vars(_CheckRunner) if m.startswith("check_"))


def _alternating_subset_sums(values: Sequence[int]) -> list[int]:
    """For every bitmask F, the sum of (-1)^(|S|-1) values[S] over the nonempty
    submasks S of F: a signed sum over subsets, one pass per bit."""
    sums = [v if S.bit_count() % 2 else -v for S, v in enumerate(values)]
    sums[0] = 0
    bit = 1
    while bit < len(sums):
        for S in range(len(sums)):
            if S & bit:
                sums[S] += sums[S ^ bit]
        bit <<= 1
    return sums


def _friendly_counts(dg: Digraph, edges: Sequence[tuple[int, int]]) -> dict[tuple[int, ...], list[int]]:
    """The friendly count of dg minus S for every selection S of edges (lane S
    in _selections order) at every restricted growth string (see
    _block_coloring) in product order: the product over the blocks B of its
    partition of the path count of the deletion's loopless complement on B,
    since no two consecutive vertices of one class may be an edge.  In each
    complement an added vertex n + 1 is an apex, so one Held-Karp pass over
    the packed columns counts those paths as cycles through it and B."""
    n, k, apex = dg.n, 1 << len(edges), 1 << dg.n
    columns = _complement_columns(_deletion_columns(Digraph(n + 1, dg.edges), edges), k)
    paths = _unpack(_held_karp(columns, k)[apex:], n + 1, k)
    colorings = sorted((_block_coloring(pi), pi.masks) for pi in enumerate_partitions(n))
    return {colors: [math.prod([table[B] for B in blocks]) for table in paths] for colors, blocks in colorings}


def _deletion_tables_vanish(n: int, edges: Sequence[tuple[int, int]], tables: tuple[list[int], list[int]]) -> bool:
    """The deletion-sum identity on tables, invariant._cycle_tables of every
    deletion of F = edges from the n-vertex X.  The P coefficients of X minus
    T are products of block weights w_T(B), read from the cycles through B in
    X minus T and in its loopless complement, which read only the edges of T
    inside B: checked for every T within F and every B by one compare of each
    packed count with itself shifted across each edge of F outside B.  Then
    the sum over S of (-1)^|S| p_{X minus S}(pi) is 0 when an edge of F
    crosses pi, and else the product over the blocks of d(B), the sum of
    (-1)^|T| w_T(B) over the fields of the T inside B."""
    m, k = len(edges), 1 << len(edges)
    code = _LANE_CODES[n]
    width = 8 * array(code).itemsize
    upper = [lanes * ((1 << width) - 1) for lanes in _selection_lanes(n, m)]  # full fields: the lanes selecting edge i
    partner = int.__lshift__ if sys.byteorder == "little" else int.__rshift__  # moves lane T - 2^i onto lane T
    ends = [1 << u - 1 | 1 << v - 1 for u, v in edges]
    d = []  # 0 on the blocks that an edge of F crosses
    for B in range(1 << n):
        inside = [i for i, e in enumerate(ends) if B & e == e]
        outside = [i for i, e in enumerate(ends) if B & e != e]
        for table in tables:
            c = table[B]
            if c and any((partner(c, width << i) ^ c) & upper[i] for i in outside):
                return False
        if any(B & ends[i] for i in outside):
            d.append(0)
            continue
        c, x = (memoryview(table[B].to_bytes(k * width // 8, sys.byteorder)).cast(code) for table in tables)
        even, odd = [0], []  # the lanes T inside B with |T| even, odd
        for i in inside:
            even, odd = even + [T | 1 << i for T in odd], odd + [T | 1 << i for T in even]
        size = repeat(B.bit_count())
        even, odd = (sum(map(_block_weight, map(c.__getitem__, T), map(x.__getitem__, T), size)) for T in (even, odd))
        d.append(even - odd)
    return next(_nonzero_partitions(d, (1 << n) - 1), None) is None


def _contraction_weights(splits: Sequence[tuple[Digraph, Digraph]]) -> list[list[int]]:
    """The block weights of three lanes per split (moved, contracted) on n
    vertices, from one packed Held-Karp pass per side: moved, moved minus
    (n-1, n), and contracted with an isolated vertex n, whose weights on the
    B inside 1..n-1 are the contraction's own."""
    n, lanes = splits[0][0].n, []
    for moved, contracted in splits:
        masks = moved.successor_masks()
        lanes += [masks, [*masks[:-2], masks[-2] ^ 1 << n - 1, masks[-1]], contracted.successor_masks() + [0]]
    columns = [int.from_bytes(array(_LANE_CODES[n], column), sys.byteorder) for column in zip(*lanes)]
    in_x, in_complement = (_unpack(t, n, len(lanes)) for t in _cycle_tables(columns, len(lanes)))
    sizes = [B.bit_count() for B in range(1 << n)]
    return [list(map(_block_weight, a, b, sizes)) for a, b in zip(in_x, in_complement)]


def _contraction_tables_agree(x: Sequence[int], d: Sequence[int], c: Sequence[int]) -> bool:
    """The deletion-contraction identity on (n-1, n) in the block weights x of
    the moved digraph, d of it minus (n-1, n) and c of its contraction, which
    holds exactly when the P expansions satisfy it: x is the route's relation
    (see invariant._contracted) with delta the identity, and c(B) = d(B)
    inside 1..n-2."""
    n = len(x).bit_length() - 1
    inside = 1 << n - 2
    return tuple(x) == _contracted(d, c, range(1 << n), 3 << n - 2) and c[:inside] == d[:inside]


def _find_triangle(dg: Digraph) -> tuple | None:
    """Lexicographically first directed 3-cycle, as its three edges."""
    for u, v in sorted(dg.edges):
        if u < v:
            for w in range(u + 1, dg.n + 1):
                if w != v and (v, w) in dg.edges and (w, u) in dg.edges:
                    return ((u, v), (v, w), (w, u))
    return None
