"""Doubly regular tournaments from skew difference sets.

Construction (finite fields, Paley sets, Cayley tournaments), exact
verification of regularity and matrix identities, maximum-consistency
rankings by subset DP and heuristics, difference-set equivalence, and
edge-discrepancy checks — all integer-exact, all seeded paths deterministic.
"""

from __future__ import annotations

from .diffset import (
    CandidateSet,
    affine_witness,
    are_equivalent,
    candidate_from_indices,
    classify,
    difference_profile,
    enumerate_automorphisms,
    format_diffset,
    is_shds,
    is_skew,
    paley_set,
    parse_diffset,
)
from .discrepancy import (
    bound_is_vacuous,
    check_mixing,
    check_sigma_gap,
    check_theorem_bound,
    edge_count,
    exhaustive_mixing_check,
    gap_bound,
    sampled_mixing_check,
)
from .groups import (
    AbelianGroup,
    FiniteField,
    format_group_spec,
    make_field,
    make_group,
    nonzero_squares,
    parse_group_spec,
)
from .ranking import (
    BaselineSummary,
    RankingResult,
    check_ranking,
    count_consistent,
    exact_max_consistent,
    heuristic_rank,
    random_baseline,
    reverse_ranking,
)
from .rng import SplitMix64, derive_seed
from .tourney import (
    Tournament,
    adjacency_matrix,
    cayley_tournament,
    common_out_neighbors,
    format_tournament,
    is_doubly_regular,
    mask_vertices,
    parse_tournament,
    random_tournament,
    signed_adjacency,
    vertex_mask,
    verify_gram_identities,
)
from .verdict import Verdict

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "BaselineSummary",
    "CandidateSet",
    "FiniteField",
    "RankingResult",
    "SplitMix64",
    "Tournament",
    "Verdict",
    "__version__",
    "adjacency_matrix",
    "affine_witness",
    "are_equivalent",
    "bound_is_vacuous",
    "candidate_from_indices",
    "cayley_tournament",
    "check_mixing",
    "check_ranking",
    "check_sigma_gap",
    "check_theorem_bound",
    "classify",
    "common_out_neighbors",
    "count_consistent",
    "derive_seed",
    "difference_profile",
    "edge_count",
    "enumerate_automorphisms",
    "exact_max_consistent",
    "exhaustive_mixing_check",
    "format_diffset",
    "format_group_spec",
    "format_tournament",
    "gap_bound",
    "heuristic_rank",
    "is_doubly_regular",
    "is_shds",
    "is_skew",
    "make_field",
    "make_group",
    "mask_vertices",
    "nonzero_squares",
    "paley_set",
    "parse_diffset",
    "parse_group_spec",
    "parse_tournament",
    "random_baseline",
    "random_tournament",
    "reverse_ranking",
    "sampled_mixing_check",
    "signed_adjacency",
    "vertex_mask",
    "verify_gram_identities",
]
