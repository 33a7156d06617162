"""Doubly regular tournaments from skew difference sets.

Construction (finite fields, Paley sets, Cayley tournaments), exact
verification of regularity and matrix identities, maximum-consistency
rankings by subset DP and heuristics, difference-set equivalence, and
edge-discrepancy checks — all integer-exact, all seeded paths deterministic.

`__all__` is `__version__` plus every name this file binds that neither
starts with `_` nor is a submodule, so a public name is written once, in its
import. `PUBLIC_API` in tests/test_api.py is the explicit list: a change to
the public surface is made there on purpose.
"""

from types import ModuleType as _ModuleType

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

__all__ = ["__version__"] + [
    name for name, value in globals().items()
    if not (name.startswith("_") or isinstance(value, _ModuleType))]
