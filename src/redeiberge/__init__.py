"""Exact arithmetic on the Redei-Berge function of labeled digraphs in
noncommuting variables: three independent algorithms, set-partition-indexed
basis conversions, commutative specialization, and identity verification."""

from .checks import ALL_CHECKS, VerificationReport, check_identities
from .digraph import (
    Digraph,
    complete_digraph,
    cycle_digraph,
    discrete_digraph,
    format_digraph,
    has_even_directed_cycle,
    parse_digraph,
    path_digraph,
    random_digraph,
    random_tournament,
)
from .errors import (
    DegreeMismatchError,
    MissingEdgeError,
    OrderViolationError,
    SizeLimitError,
    SymmetryViolationError,
)
from .invariant import (
    count_friendly,
    descent_aggregate,
    monomial_coefficient,
    rb_by_colorings,
    rb_by_deletion_contraction,
    rb_by_permutations,
    rb_commutative,
    rb_tournament,
    redei_berge,
)
from .ncsym import CSymElement, NCSymElement, multiply
from .setpart import (
    IntPartition,
    SetPartition,
    apply_perm,
    enumerate_partitions,
    factorial_weight,
    insert_last,
    lambda_of,
    mobius,
    multiplicity_weight,
    parse_set_partition,
    refines,
)

__version__ = "0.1.0"
