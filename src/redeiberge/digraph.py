"""Labeled digraphs and the constructions the invariant needs.

Vertices are labeled 1..n and equality is exact (same n, same edge set);
there is no isomorphism quotient.  Loops are permitted, and the complement
is taken inside the full square V x V, so it creates a loop wherever the
original digraph lacks one.

The per-subset cycle and path tables come from one Held-Karp loop,
_held_karp, whose one input is packed columns: it counts the cycles of k
digraphs on the same n vertices at once, lane i's successors and counts in
the i-th field, _LANE_CODES[n] wide, of one int per vertex and per vertex
subset, and a step along an edge keeps the lanes that have it by one AND.
One lane's columns are its successor masks.  A path table is the cycle
table of its digraph with an apex joined both ways to every vertex.
_deletion_columns and _complement_columns pack the deletions of a set of
edges and their loopless complements by bit arithmetic, building none.
"""

from __future__ import annotations

import math
import random
import sys
from array import array
from operator import index
from typing import Iterable, Sequence

from .errors import MissingEdgeError, SizeLimitError
from .setpart import MAX_GROUND_SET, _digits, _Frozen, _mask_elements, _require_permutation

Edge = tuple[int, int]


class Digraph(_Frozen):
    """A digraph on vertices 1..n with a set of ordered-pair edges."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        n = index(n)  # an int or a bool; a float or a string raises TypeError
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        edge_set = frozenset((index(u), index(v)) for u, v in edges)
        for u, v in edge_set:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edge_set)

    @staticmethod
    def _trusted(n: int, edges: frozenset) -> "Digraph":
        """The digraph on 1..n with these int-pair edges, unchecked: for results valid by construction."""
        dg = object.__new__(Digraph)
        object.__setattr__(dg, "n", n)
        object.__setattr__(dg, "edges", edges)
        return dg

    def __reduce__(self):
        return type(self), (self.n, self.edges)

    def __eq__(self, other):
        return isinstance(other, Digraph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Digraph(n={self.n}, edges={sorted(self.edges)})"

    def describe(self) -> str:
        return f"n={self.n} edges={sorted(self.edges)}"

    def non_loop_edges(self) -> list[Edge]:
        return sorted((u, v) for u, v in self.edges if u != v)

    # -- constructions -------------------------------------------------

    def complement(self) -> "Digraph":
        """Edge set (V x V) minus E; includes loops at vertices without one."""
        full = {(u, v) for u in range(1, self.n + 1) for v in range(1, self.n + 1)}
        return Digraph(self.n, full - self.edges)

    def opposite(self) -> "Digraph":
        """Every edge reversed."""
        return Digraph(self.n, {(v, u) for u, v in self.edges})

    def delete_edges(self, removed: Iterable[Edge]) -> "Digraph":
        removed = frozenset((index(u), index(v)) for u, v in removed)
        if not removed <= self.edges:
            raise MissingEdgeError(f"edges not in digraph: {sorted(removed - self.edges)}")
        return Digraph._trusted(self.n, self.edges - removed)

    def contract_last_edge(self) -> "Digraph":
        """Contract the edge (n-1, n); the merged vertex takes label n-1.

        Orientation matters: for w <= n-2 the new vertex receives the edge
        (w, n-1) when w pointed at the old n-1, and the edge (n-1, w) when
        the old n pointed at w.  Everything else incident to n-1 or n is
        dropped, so contraction never creates a loop.
        """
        n, edges = self.n, self.edges
        if n < 2 or (n - 1, n) not in edges:
            raise MissingEdgeError(f"digraph has no edge ({n - 1},{n}) to contract")
        kept = {(u, v) for u, v in edges if u <= n - 2 and v <= n - 2}
        kept.update((w, n - 1) for w in range(1, n - 1) if (w, n - 1) in edges)
        kept.update((n - 1, w) for w in range(1, n - 1) if (n, w) in edges)
        return Digraph._trusted(n - 1, frozenset(kept))

    def relabel(self, delta: Sequence[int]) -> "Digraph":
        """Rename vertex i to delta[i-1]; delta must be a permutation of 1..n."""
        _require_permutation(delta, self.n)
        return Digraph(self.n, {(delta[u - 1], delta[v - 1]) for u, v in self.edges})

    def product(self, other: "Digraph") -> "Digraph":
        """Disjoint union plus every edge from a left vertex to a right vertex."""
        shift = self.n
        edges = set(self.edges)
        edges.update((u + shift, v + shift) for u, v in other.edges)
        edges.update((u, v + shift) for u in range(1, self.n + 1) for v in range(1, other.n + 1))
        return Digraph(self.n + other.n, edges)

    def __mul__(self, other):
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.product(other)

    # -- predicates and searches ----------------------------------------

    def is_tournament(self) -> bool:
        """Loopless, with exactly one orientation of every unordered pair."""
        n = self.n
        return len(self.edges) == n * (n - 1) // 2 and all(u != v and (v, u) not in self.edges for u, v in self.edges)

    def is_disjoint_union_of_paths(self) -> bool:
        """No loop, distinct tails, distinct heads, and no directed cycle."""
        return _disjoint_paths(self.edges)

    def find_directed_cycle(self) -> list[Edge] | None:
        """One directed cycle of length >= 2 (loops are not cycles here) as an
        edge list in traversal order, or None: depth first from the roots 1..n
        not yet searched, successors in ascending order, the first edge back
        onto the search path closing the cycle from its head to the path's end."""
        successors = [sorted(v for u, v in self.edges if u == w and v != w) for w in range(self.n + 1)]
        done = [False] * (self.n + 1)
        for root in range(1, self.n + 1):
            if done[root]:
                continue
            path, branches = [root], [iter(successors[root])]
            while path:
                w = next(branches[-1], None)
                if w is None:
                    done[path.pop()] = True
                    branches.pop()
                elif w in path:
                    cycle = path[path.index(w):]
                    return list(zip(cycle, cycle[1:] + cycle[:1]))
                elif not done[w]:
                    path.append(w)
                    branches.append(iter(successors[w]))
        return None

    def hamiltonian_path_count(self) -> int:
        """Number of vertex listings whose every consecutive pair is an edge."""
        return hamiltonian_path_counts(self.successor_masks())[-1]

    def successor_masks(self) -> list[int]:
        """Out-neighbours of each vertex v as bit v-1 of entry v-1, loops dropped."""
        masks = [0] * self.n
        for u, v in self.edges:
            if u != v:
                masks[u - 1] |= 1 << (v - 1)
        return masks


def _disjoint_paths(edges: Sequence[Edge] | frozenset[Edge]) -> bool:
    """No loop, distinct tails and heads, and no directed cycle in the distinct
    edges: with one successor per tail, no walk from a tail comes back onto it."""
    successor = dict(edges)
    if len(successor) != len(edges) or len(set(successor.values())) != len(edges):
        return False
    for start, w in successor.items():
        while w != start and w in successor:
            w = successor[w]
        if w == start:
            return False
    return True


def hamiltonian_cycle_counts(successors: Sequence[int]) -> list[int]:
    """Directed Hamiltonian cycle count of the subgraph induced by every vertex subset.

    successors[i] is the loopless out-neighbour bitmask of vertex i; entry S of
    the result counts the cycles through exactly the vertices of bitmask S, each
    once (a 2-cycle once, a single vertex never).
    """
    _lane_length(successors, "cycle-count")
    return _held_karp(successors, 1)


def hamiltonian_path_counts(successors: Sequence[int]) -> list[int]:
    """Directed Hamiltonian path count of the subgraph induced by every vertex subset.

    With successors as above, entry S counts the listings of bitmask S whose
    consecutive pairs are all edges (1 when S has at most one vertex): the
    cycles through S and an apex joined both ways to every vertex.
    """
    apex = 1 << _lane_length(successors, "Hamiltonian-path")
    return [1] + _held_karp([mask | apex for mask in successors] + [apex - 1], 1)[apex + 1:]


def _lane_length(successors: Sequence[int], table: str) -> int:
    """The length n of successors; refuses n above MAX_GROUND_SET."""
    n = len(successors)
    if n > MAX_GROUND_SET:
        raise SizeLimitError(f"{table} table refuses n={n} (limit {MAX_GROUND_SET})")
    return n


def _unpack(counts: list[int], n: int, k: int) -> list[list[int]]:
    """The k lanes' tables from _held_karp's entries over n vertices, through
    a memoryview cast, each field the narrowest of 8, 16, 32 or 64 bits that
    holds an n-bit mask and (n - 1)!, the most cycles through n vertices: 8
    bits up to n = 6, 16 up to 9, 32 from 10 (and at the 13 vertices of a path
    table with its apex)."""
    code = _LANE_CODES[n]
    size = k * array(code).itemsize
    fields = memoryview(b"".join([entry.to_bytes(size, sys.byteorder) for entry in counts])).cast(code)
    return [fields[i::k].tolist() for i in range(k)]


# _LANE_CODES[n]: the array type code of one lane's field over n vertices (see
# _unpack), n up to a path table's apex, MAX_GROUND_SET + 1
_LANE_CODES = tuple(
    next(code for code in "BHIQ" if max((1 << n) - 1, math.factorial(max(n - 1, 0))) >> 8 * array(code).itemsize == 0)
    for n in range(MAX_GROUND_SET + 2)
)


def _ones(n: int, k: int) -> int:
    """A 1 in each of k fields of _LANE_CODES[n]'s width."""
    return int.from_bytes(array(_LANE_CODES[n], [1]) * k, sys.byteorder)


def _held_karp(columns: Sequence[int], k: int) -> list[int]:
    """The cycle tables of k successor lists over n vertices from their packed
    columns, with no check: entry S holds lane i's count in field i.  Paths
    grow from the lowest vertex of S, so each cycle counts once.  A row is
    made when a path first reaches S and holds only the ends reached, with
    every lane's count of paths over S from its lowest vertex to that end; a
    step v -> w keeps the lanes that have that edge, by one AND."""
    n = len(columns)
    vertices = _mask_elements(n)  # the vertices of every bitmask, ascending
    bit = (0,) + tuple(1 << v for v in range(n))  # bit[v]: vertex v's bit
    if k == 1:  # the one lane has every edge that a step takes
        ones, succ, has = 1, (0, *columns), [(-1,) * (n + 1)] * (n + 1)
    else:
        ones = _ones(n, k)
        field = (1 << 8 * array(_LANE_CODES[n]).itemsize) - 1
        succ = [0]  # succ[v]: the successors of vertex v in any lane
        has = [()]  # has[v][w]: a full field in every lane with the edge v -> w
        for packed in columns:
            lanes_w = [packed >> w & ones for w in range(n)]  # a 1 in every lane with the edge v -> w
            succ.append(sum(1 << w for w, lanes in enumerate(lanes_w) if lanes))
            has.append((0,) + tuple(lanes * field for lanes in lanes_w))
    counts = [0] * (1 << n)
    paths: list[dict[int, int] | None] = [None] * (1 << n)  # paths[S][v]: paths over S from its lowest vertex to v
    for v in range(1, n + 1):
        paths[bit[v]] = {v: ones}
    for S in range(1, 1 << n):
        row = paths[S]
        if row is None:
            continue
        paths[S] = None  # every extension of these paths lies in a larger S
        low = S & -S
        first, ahead = low.bit_length(), ~S & -low  # the start; the vertices unvisited and above it
        for v, ways in row.items():
            out, lanes_v = succ[v], has[v]
            if out & low:
                counts[S] += ways & lanes_v[first]
            for w in vertices[out & ahead]:
                kept, T = ways & lanes_v[w], S | bit[w]
                target = paths[T]
                if target is None:
                    paths[T] = {w: kept}
                else:
                    target[w] = target.get(w, 0) + kept
    return counts


def _selection_lanes(n: int, m: int) -> list[int]:
    """For each of m items, a 1 in the field of _LANE_CODES[n]'s width of the
    lanes S, bitmasks over the items in _selections order, that select it."""
    one = array(_LANE_CODES[n], [1]).tobytes()
    return [int.from_bytes((bytes(len(one) << i) + one * (1 << i)) * (1 << m - i - 1), sys.byteorder) for i in range(m)]


def _deletion_columns(dg: Digraph, removed: Sequence[Edge]) -> list[int]:
    """The packed columns of dg minus S for every selection S of the distinct
    edges removed, lane S in _selections order: each non-loop edge (u, v)
    leaves u's column in the lanes that select it."""
    if len(set(removed)) != len(removed) or not dg.edges.issuperset(removed):
        dg.delete_edges(removed)  # refuses the edges not in dg
        raise ValueError(f"repeated edges in {list(removed)}")
    ones = _ones(dg.n, 1 << len(removed))
    columns = [ones * mask for mask in dg.successor_masks()]
    for (u, v), lanes in zip(removed, _selection_lanes(dg.n, len(removed))):
        if u != v:
            columns[u - 1] -= lanes << v - 1
    return columns


def _complement_columns(columns: Sequence[int], k: int) -> list[int]:
    """The packed columns of the loopless complements of k lanes: every vertex
    but itself that the lane's vertex does not point at (one lane: its masks)."""
    ones, full = _ones(len(columns), k), (1 << len(columns)) - 1
    return [ones * (full ^ 1 << v) - x for v, x in enumerate(columns)]


def has_even_directed_cycle(dg: Digraph) -> bool:
    """True when some simple directed cycle (2-cycles included) has even length."""
    counts = hamiltonian_cycle_counts(dg.successor_masks())
    return any(count and S.bit_count() % 2 == 0 for S, count in enumerate(counts))


# -- generators ----------------------------------------------------------


def complete_digraph(n: int) -> Digraph:
    """All n*n ordered pairs, loops included."""
    return Digraph(n, {(u, v) for u in range(1, n + 1) for v in range(1, n + 1)})


def discrete_digraph(n: int) -> Digraph:
    return Digraph(n, ())


def path_digraph(n: int) -> Digraph:
    return Digraph(n, {(i, i + 1) for i in range(1, n)})


def cycle_digraph(n: int) -> Digraph:
    """Directed cycle 1 -> 2 -> ... -> n -> 1; a single loop when n = 1."""
    if n < 1:
        raise ValueError("cycle needs at least one vertex")
    return Digraph(n, {(i, i % n + 1) for i in range(1, n + 1)})


def random_digraph(n: int, p: float, seed: int, loops: bool = True) -> Digraph:
    """Each ordered pair (loops included unless disabled) kept with probability p."""
    rng = random.Random(seed)
    edges = set()
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            if u == v and not loops:
                continue
            if rng.random() < p:
                edges.add((u, v))
    return Digraph(n, edges)


def random_tournament(n: int, seed: int) -> Digraph:
    """Each unordered pair oriented uniformly at random."""
    rng = random.Random(seed)
    edges = set()
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            edges.add((u, v) if rng.random() < 0.5 else (v, u))
    return Digraph(n, edges)


# -- text format ----------------------------------------------------------


def parse_digraph(text: str) -> Digraph:
    """Parse the text format: "n <count>" then one "u v" edge per line.

    "#" starts a comment; blank lines are ignored; duplicate edges rejected.
    Errors carry the 1-based line number.
    """
    n: int | None = None
    edges: set[Edge] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if n is None:
            n = _digits(fields[1]) if len(fields) == 2 and fields[0] == "n" else None
            if n is None:
                raise ValueError(f"line {lineno}: expected 'n <count>', got {raw!r}")
            continue
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {raw!r}")
        u, v = map(_digits, fields)
        if u is None or v is None:
            raise ValueError(f"line {lineno}: expected integers as runs of ASCII digits, got {raw!r}")
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"line {lineno}: edge ({u},{v}) out of range for n={n}")
        if (u, v) in edges:
            raise ValueError(f"line {lineno}: duplicate edge ({u},{v})")
        edges.add((u, v))
    if n is None:
        raise ValueError("line 1: missing 'n <count>' header")
    return Digraph(n, edges)


def format_digraph(dg: Digraph) -> str:
    lines = [f"n {dg.n}"]
    lines.extend(f"{u} {v}" for u, v in sorted(dg.edges))
    return "\n".join(lines) + "\n"
