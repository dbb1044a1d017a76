"""Exact arithmetic on symmetric functions in noncommuting variables.

One element core serves two algebras: NCSymElement, keyed by set
partitions, and CSymElement, its commutative image in Sym, keyed by integer
partitions.  Their base, _Element, owns validation, immutability, equality
and scalar arithmetic; each class adds what differs.

An NCSymElement is of one of two kinds.  The plain kind holds its terms.
_PowerSumTable, the P expansion that every route but the definition builds,
holds the block table w whose products over the blocks are its
coefficients; its terms are built on first read.  Both kinds print from
the texts that _text_terms yields in output order, and change basis from
the block masks that _mask_terms yields, so a table's outputs, basis changes
and == against another table build no key; every other operation reads
terms, and whatever it returns, a copy or a pickle included, is plain.

NCSym elements are finite rational linear combinations of the monomial (M),
power-sum (P) or elementary (E) basis, indexed by set partitions of one
fixed degree.  A coefficient is stored as an int whenever it is integral and
as a Fraction otherwise.  Only P -> E divides, by mu(0, pi) from the lattice
table: it sums integer numerators over (n-1)! and divides once per output key,
so a Fraction comes only from there or from rational input.  Final digraph
invariants are nevertheless integral, which callers assert rather than assume.

Basis change formulas (each validated against the word-expansion oracle
in the test suite):

    p_pi = sum of m_sigma over sigma >= pi
    m_pi = sum of mu(pi, sigma) p_sigma over sigma >= pi
    p_pi = (1 / mu(0, pi)) * sum of mu(sigma, pi) e_sigma over sigma <= pi
    e_pi = sum of mu(0, sigma) p_sigma over sigma <= pi

All other routes compose through P.  A key is the tuple (n, blocks, masks),
and every basis change, act, induct and multiply reads its block masks; act
relabels them in every basis, since m, p and e are each equivariant.  Each
basis change adds its terms into one list indexed by rank, a partition's place
in SetPartition order among those of its degree (setpart's lattice table,
whose rank dict is keyed by pi.masks, as _mask_terms yields them), along the
rank rows setpart._coarser and setpart._finer, which carry the Mobius values.
So no conversion evaluates mu or hashes a partition per pair, and the nonzero
entries, read back in rank order, come out sorted.  A basis change refuses a
degree above setpart.MAX_LATTICE_DEGREE.  The commutative image sums by block
sizes; sums and products collect their (key, coefficient) pairs through _sum.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial
from operator import attrgetter, index
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from .errors import DegreeMismatchError, SizeLimitError
from .setpart import (
    MAX_GROUND_SET,
    IntPartition,
    _block_labels,
    _coarser,
    _finer,
    _Frozen,
    _lattice,
    _low,
    _mask_texts,
    _nonzero_partitions,
    _require_permutation,
    _selections,
    _trusted_partition,
    apply_perm,  # apply_perm, coarsenings, insert_last, mobius, mobius_from_bottom
    coarsenings,  # and refinements are not called here; perfbench's tracer
    factorial_weight,  # wraps them under this module
    insert_last,
    lambda_of,
    mobius,
    mobius_from_bottom,
    multiplicity_weight,
    parse_set_partition,
    refinements,
)

NC_BASES = ("M", "P", "E")
C_BASES = ("m", "p", "e")

def _sum(pairs: Iterable[tuple[Hashable, object]]) -> dict:
    """One coefficient per key: the sum over the (key, coefficient) pairs, keys
    in the order they first appear."""
    out: dict = {}
    get = out.get  # two key lookups per pair, not three; no coefficient is None
    for key, c in pairs:
        old = get(key)
        out[key] = c if old is None else old + c
    return out


def _exact(c) -> int | Fraction:
    """c as an int when it is integral, else as a Fraction; anything but an int
    or a Fraction is refused, so no float or string becomes a coefficient."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"coefficient {c!r} is not an int or a Fraction")
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class _Element(_Frozen):
    """What both algebras share: a homogeneous element of one degree, stored
    as a mapping basis-key -> coefficient with exact (see _exact), nonzero
    coefficients, printed in one key order by repr, lines() and JSON.  A
    subclass names its bases (_BASES), reads a key's size (_key_size), sets the
    order (_DESCENDING), labels its terms in it for repr and lines() (_labels),
    writes its JSON (to_json_dict), reads a JSON key (_JSON_KEY: field, parse)
    and multiplies two of its elements (_product).  Results, copies and type
    checks use the algebra's class (_ALGEBRA), so that a kind of element
    derived from it mixes with the plain one."""

    _DESCENDING = False

    __slots__ = ("degree", "basis", "terms")

    def __init_subclass__(cls):
        super().__init_subclass__()
        if _Element in cls.__bases__:  # an algebra; a subclass of it is a kind of its elements
            cls._ALGEBRA = cls

    def __init__(self, degree: int, basis: str, terms: Mapping):
        if basis not in self._BASES:
            raise ValueError(f"basis must be one of {self._BASES}, got {basis!r}")
        degree = index(degree)
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        size = self._key_size
        kept: dict = {}
        for key, c in terms.items():
            if size(key) != degree:
                raise DegreeMismatchError(f"key {key} has size {size(key)}, element degree {degree}")
            c = _exact(c)
            if c:
                kept[key] = c
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "terms", kept)

    def __reduce__(self):
        return self._ALGEBRA, (self.degree, self.basis, self.terms)

    def _sorted_terms(self) -> list:  # keys are distinct: no coefficient is compared
        return sorted(self.terms.items(), reverse=self._DESCENDING)

    def __repr__(self):
        labels = self._labels()
        if not labels:
            return f"<0 (degree {self.degree}, {self.basis} basis)>"
        return "<" + " + ".join([f"{c}*{label}" for label, c in labels]) + ">"

    def lines(self) -> list[str]:
        """One "label  coefficient" line per term, in output order; none for zero."""
        return [f"{label}  {c}" for label, c in self._labels()]

    @classmethod
    def from_json_dict(cls, data: Mapping):
        field, parse = cls._JSON_KEY
        # a string coefficient is parsed exactly; any other value goes to the
        # constructor, which refuses a float
        terms = _sum((parse(t[field]), Fraction(c) if isinstance(c := t["coeff"], str) else c) for t in data["terms"])
        return cls(data["degree"], data["basis"], terms)

    def coefficient(self, key) -> int | Fraction:
        return self.terms.get(key, 0)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, self._ALGEBRA)
            and self.degree == other.degree
            and self.basis == other.basis
            and self.terms == other.terms
        )

    def scale(self, c):
        c = _exact(c)
        return self._ALGEBRA(self.degree, self.basis, {k: c * v for k, v in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, self._ALGEBRA):
            return NotImplemented
        return self + other.scale(-1)

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, self._ALGEBRA):
            return NotImplemented
        return self._product(other)


class NCSymElement(_Element):
    """An element of NCSym in the M, P or E basis, keyed by set partitions."""

    __slots__ = ()

    _BASES = NC_BASES
    _key_size = attrgetter("n")
    _JSON_KEY = ("blocks", parse_set_partition)

    # in this class's own namespace, where perfbench's tracer wraps it
    scale = _Element.scale

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.terms.values())

    def _labels(self) -> list[tuple[str, object]]:
        letter = self.basis.lower()
        return [(f"{letter}[{text}]", c) for text, c in self._text_terms()]

    def to_json_dict(self) -> dict:
        """Serialized form, keys degree, basis, terms, in output order."""
        terms = [{"blocks": text, "coeff": str(c)} for text, c in self._text_terms()]
        return {"degree": self.degree, "basis": self.basis, "terms": terms}

    def _text_terms(self) -> list[tuple[str, object]]:
        """(str(pi), coefficient) per term, in output order: what repr, lines() and JSON print."""
        texts = _mask_texts(self.degree)
        return [("/".join([texts[B] for B in pi.masks]), c) for pi, c in self._sorted_terms()]

    def __add__(self, other: "NCSymElement") -> "NCSymElement":
        if not isinstance(other, NCSymElement):
            return NotImplemented
        if self.degree != other.degree:
            raise DegreeMismatchError(f"degrees differ: {self.degree} vs {other.degree}")
        other = other.to_basis(self.basis)
        terms = _sum(itertools.chain(self.terms.items(), other.terms.items()))
        return NCSymElement(self.degree, self.basis, terms)

    def __neg__(self) -> "NCSymElement":
        return self.scale(-1)

    def _product(self, other: "NCSymElement") -> "NCSymElement":
        return multiply(self, other)

    def to_basis(self, target: str) -> "NCSymElement":
        """Rewrite in the target basis; conversions route through P.  A
        conversion to another basis refuses a degree above
        setpart.MAX_LATTICE_DEGREE with SizeLimitError."""
        if target not in NC_BASES:
            raise ValueError(f"basis must be one of {NC_BASES}, got {target!r}")
        if target == self.basis:
            return self
        n = self.degree
        if self.basis != "P":
            # m_pi = sum_{sigma >= pi} mu(pi, sigma) p_sigma
            # e_pi = sum_{sigma <= pi} mu(0, sigma) p_sigma
            row_of, column = (_coarser, 1) if self.basis == "M" else (_finer, 2)
            return NCSymElement(n, "P", _rank_sums(n, self._mask_terms(), row_of, column)).to_basis(target)
        if target == "M":
            # p_pi = sum_{sigma >= pi} m_sigma
            return NCSymElement(n, "M", _rank_sums(n, self._mask_terms(), _coarser, None))
        # p_pi = (1 / mu(0, pi)) sum_{sigma <= pi} mu(sigma, pi) e_sigma, summed
        # as numerators over (n-1)!, which every |mu(0, pi)| = prod (|B|-1)!
        # divides; mu(0, pi) is the lattice table's bottom at the rank of pi
        _, rank, bottom = _lattice(n)
        d = factorial(max(n - 1, 0))
        numerators = ((masks, c * (d // bottom[rank[masks]])) for masks, c in self._mask_terms())
        terms = _rank_sums(n, numerators, _finer, 1)
        return NCSymElement(n, "E", {sigma: Fraction(c, d) for sigma, c in terms.items()})

    def _mask_terms(self) -> Iterator[tuple[tuple[int, ...], object]]:
        """(pi.masks, coefficient) per term (pi, coefficient), in output order."""
        return ((pi.masks, c) for pi, c in self._sorted_terms())

    def induct(self) -> "NCSymElement":
        """Double the last variable: degree rises by one, n+1 joins the block of n."""
        n = self.degree
        if n < 1:
            raise ValueError("induction undefined in degree 0: no last variable")
        x = self.to_basis("P") if self.basis == "E" else self
        if n >= MAX_GROUND_SET:
            raise SizeLimitError(f"element {n + 1} outside 1..{MAX_GROUND_SET}")
        last = 1 << n - 1  # the block of n gains bit n; no lowest element moves, so the keys stay canonical
        terms = {_trusted_partition(n + 1, [B | (B & last) << 1 for B in pi.masks]): c for pi, c in x.terms.items()}
        return NCSymElement(n + 1, x.basis, terms)

    def act(self, delta: Sequence[int]) -> "NCSymElement":
        """Permute variable positions: basis key pi goes to delta(pi), in its basis."""
        n = self.degree
        if len(delta) != n:
            raise DegreeMismatchError(f"permutation of [{len(delta)}] acting in degree {n}")
        _require_permutation(delta, n)
        # each block B goes to to[B], read off the subset table of the images of
        # 1..n, and the images are sorted back into canonical order by _low
        to = list(map(sum, _selections([1 << (v - 1) for v in delta])))
        terms = {_trusted_partition(n, sorted([to[B] for B in pi.masks], key=_low)): c for pi, c in self.terms.items()}
        return NCSymElement(n, self.basis, terms)

    def commutative_image(self) -> "CSymElement":
        """Let the variables commute.

        Keys collapse to their block-size partitions; the coefficient picks up
        the multiplicity factor |pi| in the M basis, pi! in the E basis, and
        nothing in the P basis.  Both factors depend on the block sizes only,
        so the coefficients are summed per shape first, and each shape's
        partition and factor are computed once, from its first key.
        """
        weight = {"M": multiplicity_weight, "P": lambda pi: 1, "E": factorial_weight}[self.basis]
        shapes: dict = {}  # block sizes, ascending -> [its first key, the sum of its coefficients]
        for pi, c in self.terms.items():
            shapes.setdefault(tuple(sorted(map(len, pi.blocks))), [pi, 0])[1] += c
        terms = {lambda_of(pi): total * weight(pi) for pi, total in shapes.values()}
        return CSymElement(self.degree, self.basis.lower(), terms)


class _PowerSumTable(NCSymElement):
    """The P expansion whose coefficient at pi is the product of w(B) over the
    blocks B of pi, held as the table w of every vertex bitmask (w = 1 on
    singletons): what every route but the definition builds.

    terms is built on first read, one key per nonzero product.  The class
    holds only the storage: outputs and basis changes read the enumerator's
    texts and masks, and == against another table compares the tables, so
    none of these builds a key.  A copy or a pickle is a plain NCSymElement.
    """

    __slots__ = ("_weights",)

    def __init__(self, degree: int, weights: Sequence[int]):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "basis", "P")
        object.__setattr__(self, "_weights", tuple(weights))

    def __getattr__(self, name):
        # reached only while a slot is empty, so the first read of terms fills it
        if name != "terms":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        terms = {_trusted_partition(self.degree, masks): c for masks, c in self._mask_terms()}
        object.__setattr__(self, "terms", terms)
        return terms

    def _mask_terms(self) -> Iterator[tuple[tuple[int, ...], int]]:
        return _nonzero_partitions(self._weights, (1 << self.degree) - 1)

    def _text_terms(self) -> list[tuple[str, int]]:
        n = self.degree  # each label is "/" and a block's text, so a key is "/" + str(pi)
        return [(key[1:], c) for key, c in _nonzero_partitions(self._weights, (1 << n) - 1, _block_labels(n)[1])]

    def __eq__(self, other):
        if isinstance(other, _PowerSumTable):
            # the coefficient at {B} with singletons is w(B), so the tables
            # agree exactly when the elements do (w[0] is no block's weight)
            return self.degree == other.degree and self._weights[1:] == other._weights[1:]
        return super().__eq__(other)


def _rank_sums(n: int, terms: Iterable[tuple[tuple[int, ...], object]], row_of: Callable, column: int | None) -> dict:
    """The sum over the terms (the block masks of pi, c) of c * w(pi, sigma)
    sigma, over every sigma of the rank row row_of(n, rank of pi), w the row's
    value at column (1 for None).  The sums add into one list indexed by rank,
    and its nonzero entries come back keyed by partition, in SetPartition
    order.  Refuses a degree above MAX_LATTICE_DEGREE before any work."""
    partitions, rank, _ = _lattice(n)
    totals = [0] * len(partitions)
    for masks, c in terms:
        row = row_of(n, rank[masks])
        for s, w in zip(row[0], row[column] if column else itertools.repeat(1)):
            totals[s] += c * w
    return {partitions[s]: c for s, c in enumerate(totals) if c}


def multiply(x: NCSymElement, y: NCSymElement) -> NCSymElement:
    """Product of power series in noncommuting variables, computed in the P basis.

    p_pi * p_rho = p over the union of pi with rho shifted past deg(x); the
    rule is validated against the word-expansion oracle in the test suite.
    Refuses a degree above MAX_GROUND_SET before any work.
    """
    n, offset = x.degree + y.degree, x.degree
    if n > MAX_GROUND_SET:
        raise SizeLimitError(f"ground set size {n} exceeds {MAX_GROUND_SET}")
    xp, yp = x.to_basis("P"), y.to_basis("P")
    shifted = [(tuple([B << offset for B in rho.masks]), b) for rho, b in yp.terms.items()]
    terms = _sum((_trusted_partition(n, pi.masks + masks), a * b) for pi, a in xp.terms.items() for masks, b in shifted)
    return NCSymElement(n, "P", terms)


class CSymElement(_Element):
    """A commutative symmetric function of one degree in the m, p or e basis,
    keyed by integer partitions."""

    __slots__ = ()

    _BASES = C_BASES
    _key_size = attrgetter("size")
    _DESCENDING = True
    _JSON_KEY = ("parts", IntPartition)

    def _labels(self) -> list[tuple[str, object]]:
        return [(f"{self.basis}{lam}", c) for lam, c in self._sorted_terms()]

    def to_json_dict(self) -> dict:
        """Serialized form, keys degree, basis, commutative, terms, in output order."""
        terms = [{"parts": list(lam), "coeff": str(c)} for lam, c in self._sorted_terms()]
        return {"degree": self.degree, "basis": self.basis, "commutative": True, "terms": terms}

    def __add__(self, other: "CSymElement") -> "CSymElement":
        if not isinstance(other, CSymElement):
            return NotImplemented
        if self.degree != other.degree or self.basis != other.basis:
            raise DegreeMismatchError("can only add commutative elements of equal degree and basis")
        terms = _sum(itertools.chain(self.terms.items(), other.terms.items()))
        return CSymElement(self.degree, self.basis, terms)

    def _product(self, other: "CSymElement") -> "CSymElement":
        if self.basis != "p" or other.basis != "p":
            raise ValueError("commutative products are implemented in the p basis only")
        terms = _sum(
            (IntPartition(lam + mu), a * b)
            for lam, a in self.terms.items()
            for mu, b in other.terms.items()
        )
        return CSymElement(self.degree + other.degree, "p", terms)
