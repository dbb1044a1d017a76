"""The lattice of set partitions of {1..n} under refinement.

Partitions are kept in canonical form (elements ascending inside each block,
blocks ordered by their minimum).  A SetPartition is the tuple (n, blocks) and
an IntPartition the tuple of its parts, so equality, hashing, order and
immutability are tuple's, and the canonical form makes them agree with the
partition.  All weights use Python's arbitrary-precision integers.
One generator, _nonzero_partitions, lists the partitions of a bitmask into
nonzero-weight blocks in SetPartition order; enumerate_partitions, the
power-sum terms and the lattice tables come from it, and _trusted_partition
turns its block masks into keys without validating them again.  A block's
text is read by its elements (_block_texts) or by its mask (_mask_texts).
The lattice table of a degree n <= MAX_LATTICE_DEGREE (_lattice) lists every
partition of {1..n} once, in SetPartition order, so that a partition's rank is
its position there; these are the one shared instance of each lattice-row
entry.  The lattice rows hold ranks (_coarser, _finer), parallel to their
Mobius values; coarsenings and refinements read them as partitions.
_selections is the one subset table, and every Mobius value reads the one
table _MU.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from math import factorial
from operator import index, itemgetter, or_
from typing import Iterable, Iterator, Sequence

from .errors import DegreeMismatchError, OrderViolationError, SizeLimitError

MAX_GROUND_SET = 12  # Bell(12) ~ 4.2e6; enumeration beyond this is refused

# _MU[k] = mu(k) for k <= MAX_GROUND_SET: the Mobius function from bottom to top of the partitions of a k-set
_MU = (1,) + tuple((-1) ** (k - 1) * factorial(k - 1) for k in range(1, MAX_GROUND_SET + 1))

# The largest degree with a lattice table: Bell(10) = 115975 partitions, and
# Bell(12) would be 4.2 million, so lattice rows and basis changes refuse a
# larger degree before building anything.
MAX_LATTICE_DEGREE = 10

# Bounds each of the four lattice-row caches to this many rows: the rank rows
# (_coarser, _finer) and the partition rows read from them (coarsenings,
# refinements).  At least the sum of Bell(k) over k <= 8 (5296), so no
# conversion at today's route capacities evicts its own rows.  The entries of
# every row are shared through the per-degree lattice tables, which replace an
# intern cache of row entries.
LATTICE_CACHE_SIZE = 8192


class _Frozen:
    """Refuses to set or delete any attribute; a subclass's constructor
    writes its own through object.__setattr__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class SetPartition(tuple):
    """A partition of {1..n} into disjoint nonempty blocks.

    The instance is the tuple (n, blocks), so equality, hashing and order are
    tuple's; len() is the number of blocks."""

    __slots__ = ()

    n = property(itemgetter(0))
    blocks = property(itemgetter(1))

    def __new__(cls, blocks: Iterable[Iterable[int]]):
        masks = []
        for block in blocks:
            mask = 0
            for x in block:
                if not 0 < x <= MAX_GROUND_SET:  # before the shift: unclear below 1, unbounded memory above
                    raise (ValueError if x < 1 else SizeLimitError)(f"element {x} outside 1..{MAX_GROUND_SET}")
                if mask >> (x - 1) & 1:
                    raise ValueError(f"element {x} appears twice in one block")
                mask |= 1 << (x - 1)
            masks.append(mask)
        masks.sort(key=_low)
        return cls.from_masks(reduce(or_, masks, 0).bit_length(), masks)

    @classmethod
    def from_masks(cls, n: int, masks: Sequence[int]) -> "SetPartition":
        """The partition of {1..n} whose blocks are the bitmasks (bit v-1 for
        element v), already in canonical order: by lowest set bit.

        The one validator of every partition: nonzero, disjoint, in order,
        covering {1..n}, with n at most MAX_GROUND_SET; a few integer
        operations per block.
        """
        if n > MAX_GROUND_SET:
            raise SizeLimitError(f"ground set size {n} exceeds {MAX_GROUND_SET}")
        seen = previous_low = 0
        for mask in masks:
            low = mask & -mask
            if not mask:
                raise ValueError("empty block in set partition")
            if mask & seen:
                raise ValueError(f"block masks {list(masks)} overlap")
            if low < previous_low:
                raise ValueError(f"block masks {list(masks)} are not ordered by lowest element")
            seen |= mask
            previous_low = low
        if seen != (1 << n) - 1:
            raise ValueError(f"block masks {list(masks)} do not partition {{1..{n}}}")
        return _trusted_partition(n, masks)

    def __getnewargs__(self):
        # tuple's own would pass (n, blocks) as the blocks; copy and pickle
        # rebuild through the validating constructor
        return (self.blocks,)

    def __repr__(self):
        return f"SetPartition({self})"

    def __str__(self):
        texts = _block_texts(self.n)
        return "/".join([texts[b] for b in self.blocks])

    def __len__(self):
        return len(self.blocks)


def _low(mask: int) -> int:
    """The lowest set bit of mask: the key that orders blocks canonically."""
    return mask & -mask


def _trusted_partition(n: int, masks: Sequence[int]) -> SetPartition:
    """SetPartition.from_masks(n, masks) without its checks, for masks that are
    disjoint, cover {1..n} and are ordered by lowest bit by construction, as
    _nonzero_partitions yields them or a permutation's image sorted by _low."""
    elements = _mask_elements(n)
    return tuple.__new__(SetPartition, (n, tuple([elements[mask] for mask in masks])))


def _selections(items: Sequence) -> list[tuple]:
    """For every bitmask over the positions of items, the items it selects, in
    order; over disjoint bitmasks, the sum of a selection is its union."""
    table = [()]
    for item in items:
        table += [chosen + (item,) for chosen in table]
    return table


@lru_cache(maxsize=MAX_GROUND_SET + 1)
def _mask_elements(n: int) -> tuple[tuple[int, ...], ...]:
    """For every bitmask over n elements, its elements ascending (bit v-1 is v)."""
    return tuple(_selections(range(1, n + 1)))


@lru_cache(maxsize=MAX_GROUND_SET + 1)
def _block_texts(n: int) -> dict[tuple[int, ...], str]:
    """For every block of _mask_elements(n), its text in str(SetPartition):
    digits run together for n <= 9, "{a,b,...}" beyond."""
    if n <= 9:
        return {b: "".join(map(str, b)) for b in _mask_elements(n)}
    return {b: "{" + ",".join(map(str, b)) + "}" for b in _mask_elements(n)}


@lru_cache(maxsize=MAX_GROUND_SET + 1)
def _mask_texts(n: int) -> tuple[str, ...]:
    """For every bitmask over n elements, its block's text in _block_texts(n)."""
    return tuple(_block_texts(n).values())


class IntPartition(tuple):
    """A weakly decreasing sequence of positive integer parts; the instance is
    the tuple of its parts."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int]):
        parts = tuple(sorted(map(index, parts), reverse=True))
        if any(p <= 0 for p in parts):
            raise ValueError(f"parts must be positive: {parts}")
        return tuple.__new__(cls, parts)

    parts = property(tuple)  # the parts as a plain tuple
    size = property(sum)

    def __repr__(self):
        return f"IntPartition({list(self)})"

    def __str__(self):
        return "(" + ",".join(map(str, self)) + ")"


def _digits(text: str) -> int | None:
    """The integer that a run of ASCII digits spells, or None for any other
    text: a sign, a space, an underscore, a non-ASCII digit or nothing."""
    return int(text) if text.isascii() and text.isdigit() else None


def parse_set_partition(text: str) -> SetPartition:
    """Parse "134/2" or the explicit "{1,3,4}/{2}" form (required once n > 9);
    every element is a run of ASCII digits, one digit in the short form."""
    text = text.strip()
    if text == "":
        return SetPartition([])
    blocks = []
    for chunk in text.split("/"):
        chunk = chunk.strip()
        explicit = chunk.startswith("{") and chunk.endswith("}")
        block = [_digits(x) for x in (chunk[1:-1].split(",") if explicit else chunk)]
        if not block or None in block:
            raise ValueError(f"cannot parse set partition block {chunk!r}")
        blocks.append(block)
    return SetPartition(blocks)


def singletons(n: int) -> SetPartition:
    """The minimal partition of {1..n}: every element alone."""
    return SetPartition([[i] for i in range(1, n + 1)])


def _nonzero_partitions(weights: Sequence[int], ground: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (blocks, product of their weights) for every set partition of the
    bitmask ground into nonzero-weight blocks, in SetPartition order: by the
    first block's elements, then by the rest; blocks are bitmasks, ordered by
    their lowest vertex.

    Depth first over an explicit stack of partial partitions (the rest of the
    ground, the blocks so far, their product); a partial whose rest is empty
    is yielded when popped.  The next block is the lowest vertex of the rest
    with any subset of the others.  Each rest's nonzero-weight candidates are
    listed once per call, sorted by their elements and pushed in reverse, so
    the first candidate pops first.
    """
    elements = _mask_elements(ground.bit_length())
    candidates: dict[int, list[int]] = {}  # rest -> its first blocks, last first
    stack = [(ground, (), 1)]
    while stack:
        rest, blocks, coeff = stack.pop()
        if not rest:
            yield blocks, coeff
            continue
        firsts = candidates.get(rest)
        if firsts is None:
            low = rest & -rest
            others = sub = rest ^ low
            firsts = []
            while True:  # every submask of others, descending
                if weights[low | sub]:
                    firsts.append(low | sub)
                if not sub:
                    break
                sub = (sub - 1) & others
            firsts.sort(key=elements.__getitem__, reverse=True)
            candidates[rest] = firsts
        stack += [(rest ^ block, blocks + (block,), coeff * weights[block]) for block in firsts]


def enumerate_partitions(n: int) -> list[SetPartition]:
    """Every set partition of {1..n}, in canonical-form lexicographic order."""
    if not 0 <= n <= MAX_GROUND_SET:
        raise SizeLimitError(f"ground set size {n} outside 0..{MAX_GROUND_SET}")
    full = (1 << n) - 1
    return [_trusted_partition(n, masks) for masks, _ in _nonzero_partitions([1] * (full + 1), full)]


def refines(sigma: SetPartition, pi: SetPartition) -> bool:
    """True iff every block of sigma lies inside a block of pi."""
    if sigma.n != pi.n:
        raise DegreeMismatchError(f"ground sets differ: {sigma.n} vs {pi.n}")
    index = _block_index(pi)
    return all(len({index[x] for x in b}) == 1 for b in sigma.blocks)


def _block_index(pi: SetPartition) -> dict[int, int]:
    return {x: i for i, b in enumerate(pi.blocks) for x in b}


def mobius(sigma: SetPartition, pi: SetPartition) -> int:
    """Mobius function of the interval [sigma, pi] in the partition lattice.

    The interval factors as a product over the blocks of pi; a block holding
    k blocks of sigma contributes mu(k) (see _MU).
    """
    if not refines(sigma, pi):
        raise OrderViolationError(f"{sigma} does not refine {pi}")
    index = _block_index(pi)
    counts = [0] * len(pi.blocks)
    for b in sigma.blocks:
        counts[index[b[0]]] += 1
    result = 1
    for k in counts:
        result *= _MU[k]
    return result


def mobius_from_bottom(pi: SetPartition) -> int:
    """mu(0-hat, pi): each block of size s contributes mu(s)."""
    result = 1
    for b in pi.blocks:
        result *= _MU[len(b)]
    return result


def lambda_of(pi: SetPartition) -> IntPartition:
    """The integer partition of block sizes."""
    return IntPartition(len(b) for b in pi.blocks)


def multiplicity_weight(pi: SetPartition) -> int:
    """Product of r_i! where r_i is the number of blocks of size i."""
    counts: dict[int, int] = {}
    for b in pi.blocks:
        counts[len(b)] = counts.get(len(b), 0) + 1
    result = 1
    for r in counts.values():
        result *= factorial(r)
    return result


def factorial_weight(pi: SetPartition) -> int:
    """Product of |B|! over the blocks B."""
    result = 1
    for b in pi.blocks:
        result *= factorial(len(b))
    return result


def insert_last(pi: SetPartition) -> SetPartition:
    """Extend the ground set by one, putting n+1 into the block of n."""
    n = pi.n
    if n < 1:
        raise ValueError("cannot insert into the empty partition")
    blocks = [list(b) + [n + 1] if n in b else list(b) for b in pi.blocks]
    return SetPartition(blocks)


def _require_permutation(delta: Sequence[int], n: int) -> None:
    if sorted(delta) != list(range(1, n + 1)):
        raise ValueError(f"{tuple(delta)} is not a permutation of 1..{n}")


def apply_perm(delta: Sequence[int], pi: SetPartition) -> SetPartition:
    """Push the blocks of pi through the permutation i -> delta[i-1]."""
    if len(delta) != pi.n:
        raise DegreeMismatchError(f"permutation of [{len(delta)}] applied to partition of [{pi.n}]")
    _require_permutation(delta, pi.n)
    return SetPartition([[delta[x - 1] for x in b] for b in pi.blocks])


def inverse_perm(delta: Sequence[int]) -> tuple[int, ...]:
    _require_permutation(delta, len(delta))
    inv = [0] * len(delta)
    for i, image in enumerate(delta, start=1):
        inv[image - 1] = i
    return tuple(inv)


@lru_cache(maxsize=MAX_GROUND_SET + 1)
def _groupings(k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Every set partition of k units (bit i for unit i) into groups, in
    SetPartition order, as (the group masks, the product of mu(|G|) over the
    groups G)."""
    full = (1 << k) - 1
    weights = [_MU[B.bit_count()] for B in range(full + 1)]
    return tuple(_nonzero_partitions(weights, full))


@lru_cache(maxsize=MAX_LATTICE_DEGREE + 1)
def _lattice(n: int) -> tuple[tuple[SetPartition, ...], dict[tuple[int, ...], int], dict[tuple[int, ...], int]]:
    """The lattice table of degree n: (partitions, rank, block_mask).

    partitions lists every set partition of {1..n} in SetPartition order, so
    a partition's rank is its index there; rank maps the block masks of each
    (ordered by lowest bit) to its rank, and block_mask maps each block of
    _mask_elements(n) to its bitmask.  Refuses n > MAX_LATTICE_DEGREE.
    """
    if not 0 <= n <= MAX_LATTICE_DEGREE:
        raise SizeLimitError(f"degree {n} has no lattice table (limit {MAX_LATTICE_DEGREE}): Bell({n}) partitions")
    full = (1 << n) - 1
    rank = {masks: r for r, (masks, _) in enumerate(_nonzero_partitions([1] * (full + 1), full))}
    partitions = tuple([_trusted_partition(n, masks) for masks in rank])
    return partitions, rank, {block: mask for mask, block in enumerate(_mask_elements(n))}


def _rank(pi: SetPartition) -> int:
    """The index of pi in the lattice table of its degree."""
    _, rank, block_mask = _lattice(pi.n)
    return rank[tuple([block_mask[b] for b in pi.blocks])]


@lru_cache(maxsize=LATTICE_CACHE_SIZE)
def _coarser(n: int, r: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The rank row (ranks, mobius) of the partition pi of rank r: the rank of
    every sigma >= pi, ascending, made by merging blocks, and mu(pi, sigma),
    to which a group of k merged blocks contributes mu(k)."""
    partitions, rank, block_mask = _lattice(n)
    pi = partitions[r]
    union = list(map(sum, _selections([block_mask[b] for b in pi.blocks])))
    row = [(rank[tuple([union[g] for g in groups])], joined) for groups, joined in _groupings(len(pi))]
    return tuple(zip(*sorted(row)))


@lru_cache(maxsize=LATTICE_CACHE_SIZE)
def _finer(n: int, r: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The rank row (ranks, mobius, bottom) of the partition pi of rank r: the
    rank of every sigma <= pi, ascending, made by splitting blocks, with
    mu(sigma, pi) and mu(0-hat, sigma) in the parallel tuples: a block of pi
    split into k parts contributes mu(k) to the first, a part of s elements
    mu(s) to the second."""
    partitions, rank, block_mask = _lattice(n)
    splits = [((), 1, 1)]  # (part masks, mu(sigma, pi), mu(0-hat, sigma)) over the blocks so far
    for block in partitions[r].blocks:
        union = list(map(sum, _selections([1 << (x - 1) for x in block])))
        ways = [(tuple([union[g] for g in groups]), _MU[len(groups)], b) for groups, b in _groupings(len(block))]
        splits = [(masks + more, a * c, b * d) for masks, a, b in splits for more, c, d in ways]
    row = [(rank[tuple(sorted(masks, key=_low))], a, b) for masks, a, b in splits]
    return tuple(zip(*sorted(row)))


@lru_cache(maxsize=LATTICE_CACHE_SIZE)
def coarsenings(pi: SetPartition) -> tuple[tuple[SetPartition, ...], tuple[int, ...]]:
    """The row (sigmas, mobius): every sigma >= pi, sorted, and mu(pi, sigma);
    the rank row _coarser read as partitions.  Refuses a degree above
    MAX_LATTICE_DEGREE."""
    ranks, mobius_values = _coarser(pi.n, _rank(pi))
    return tuple(map(_lattice(pi.n)[0].__getitem__, ranks)), mobius_values


@lru_cache(maxsize=LATTICE_CACHE_SIZE)
def refinements(pi: SetPartition) -> tuple[tuple[SetPartition, ...], tuple[int, ...], tuple[int, ...]]:
    """The row (sigmas, mobius, bottom): every sigma <= pi, sorted, with
    mu(sigma, pi) and mu(0-hat, sigma); the rank row _finer read as
    partitions.  Refuses a degree above MAX_LATTICE_DEGREE."""
    ranks, *columns = _finer(pi.n, _rank(pi))
    return (tuple(map(_lattice(pi.n)[0].__getitem__, ranks)), *columns)
