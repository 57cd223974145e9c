"""Exact null decomposition and signed bases for tree adjacency matrices.

The package computes, entirely in exact rational arithmetic: the support and
core of a tree, its null decomposition into support parts and nonsingular
parts, the atoms of the support parts, signed {-1, 0, 1} bases of the null
space and the range, the stellare and coalescence constructions, and seeded
generators for random and exhaustive tree families. Every structural formula
is cross-checked at runtime; violations raise, they never pass silently.
"""

from .errors import (
    BadArity,
    BadCode,
    DomainError,
    DomainMismatch,
    EmptyBasis,
    FormulaMismatch,
    KTooSmall,
    NotATree,
    NotAtom,
    NotCoreVertex,
    NotInternalSupport,
    NotSTree,
    NotSupported,
    ParseError,
    SpanMismatch,
    StreesError,
    TooLarge,
    TooSmall,
    UsageError,
    ValidationFailed,
    VerificationError,
    VertexNotFound,
)
from .tree import (
    Tree,
    VertexVector,
    parse_tree,
    tree_from_json,
    tree_to_edge_text,
    tree_to_json,
)
from .exact import (
    OracleReport,
    brute_force,
    column_space_vectors,
    full_support_vector,
    in_adjacency_kernel,
    in_column_space,
    span_equal,
    tree_kernel,
    tree_rank,
)
from .matching import (
    MatchingInvariants,
    count_maximum_matchings,
    domination_number,
    independence_number,
    matching_invariants,
    matching_number,
    matching_number_and_count,
    matching_number_excluding,
    matching_number_within,
)
from .decomposition import (
    AtomSet,
    Classification,
    InvariantReport,
    NullDecomposition,
    SupportCore,
    atom_set,
    bouquet,
    classify,
    decompose,
    invariant_report,
    support_core,
)
from .ops import (
    CoalescencePlan,
    CoalescenceReport,
    CoalescenceResult,
    StellareLabel,
    StellareReport,
    StellareResult,
    coalescence_invariants,
    internal_support,
    s_coalescence,
    split_at_support,
    split_fully,
    stellare,
    stellare_bases,
    stellare_invariants,
)
from .bases import (
    BasicSubtree,
    ForestBasis,
    RangeBasis,
    atom_range_basis,
    basic_vector,
    forest_basis,
    grow_basic_subtree,
    marker_rows_csv,
    tree_null_basis,
    tree_range_basis,
)
from .generators import (
    PruferCode,
    enumerate_trees,
    prufer_decode,
    random_s_tree,
    random_tree,
)
from .verify import CheckResult, SweepResult, VerifyReport, check_tree, fixture_checks, sweep

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
