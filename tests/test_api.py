from __future__ import annotations

import drt

# Test-only oracles (brute_force_max, is_isomorphic_small, common_in_neighbors)
# live in conftest.py; adding a name here is a deliberate API change.
PUBLIC_API = [
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
    "verify_gram_identities",
    "vertex_mask",
]


def test_public_api():
    assert sorted(drt.__all__) == PUBLIC_API
    for name in PUBLIC_API:
        assert hasattr(drt, name), name
