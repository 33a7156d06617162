from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from drt.diffset import (
    CandidateSet,
    affine_witness,
    are_equivalent,
    automorphism_count,
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
from drt.groups import make_field, make_group
from drt.verdict import Verdict

Z7 = make_group((7,))
D7 = candidate_from_indices(Z7, [1, 2, 4])

PALEY_INDICES = {
    7: [1, 2, 4],
    11: [1, 3, 4, 5, 9],
    19: [1, 4, 5, 6, 7, 9, 11, 16, 17],
    23: [1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18],
}


@pytest.mark.parametrize("p", sorted(PALEY_INDICES))
def test_paley_prime_fields_frozen(p):
    d = paley_set(make_field(p, 1))
    assert list(d.indices) == PALEY_INDICES[p]
    assert is_shds(d).ok


def test_paley_f27_frozen():
    d = paley_set(make_field(3, 3))
    assert list(d.indices) == [1, 6, 7, 8, 9, 11, 12, 13, 15, 16, 20, 22, 25]
    assert is_shds(d).ok


def test_paley_requires_q_3_mod_4():
    with pytest.raises(ValueError):
        paley_set(make_field(5, 1))  # 5 = 1 mod 4
    with pytest.raises(ValueError):
        paley_set(make_field(3, 2))  # 9 = 1 mod 4


def test_difference_profile_of_paley_7_is_flat():
    prof = difference_profile(D7)
    assert len(prof) == 6
    assert set(prof.values()) == {1}  # (7-3)/4 = 1 for every nonzero element


def test_difference_profile_counts_by_hand():
    d = candidate_from_indices(Z7, [1, 2, 3])
    prof = {k[0]: v for k, v in difference_profile(d).items()}
    # differences of distinct pairs: 1-2, 1-3, 2-1, 2-3, 3-1, 3-2
    assert prof == {1: 2, 2: 1, 3: 0, 4: 0, 5: 1, 6: 2}


def _difference_profile_reference(d: CandidateSet) -> dict:
    """The |D|^2 loop over ordered member pairs."""
    group = d.group
    counts = {g: 0 for g in group.elements() if g != group.zero()}
    for a in d.elements:
        for b in d.elements:
            if a != b:
                counts[group.sub(a, b)] += 1
    return counts


def _skew_reason_reference(d: CandidateSet) -> str:
    """The first obstruction to skewness, found by a sorted scan; empty for
    a skew set."""
    group = d.group
    zero = group.zero()
    if zero in d.elements:
        return "contains the zero element"
    for x in sorted(d.elements, key=group.index):
        if group.neg(x) in d.elements:
            return f"both {x} and -{x} = {group.neg(x)} present"
    covered = {zero} | d.elements | {group.neg(x) for x in d.elements}
    missing = [g for g in group.elements() if g not in covered]
    if missing:
        return f"element {min(missing, key=group.index)} is in neither D nor -D"
    return ""


def _subsets(moduli, rng: random.Random, samples: int):
    """Every subset of a group of order <= 9, else `samples` random ones of
    every size class (empty, small, half, large)."""
    group = make_group(moduli)
    n = group.order
    if n <= 9:
        for bits in range(1 << n):
            yield candidate_from_indices(group, [i for i in range(n) if bits >> i & 1])
        return
    for _ in range(samples):
        size = rng.choice([0, 1, 2, (n - 1) // 2, (n - 1) // 2, rng.randrange(n + 1)])
        yield candidate_from_indices(group, rng.sample(range(n), size))


SUBSET_GROUPS = [(7,), (3, 3), (15,), (3, 5), (5, 3), (9, 3), (3, 3, 3)]


@pytest.mark.parametrize("moduli", SUBSET_GROUPS, ids=str)
def test_difference_profile_matches_pair_loop(moduli):
    for d in _subsets(moduli, random.Random(str(moduli)), 150):
        got = difference_profile(d)
        want = _difference_profile_reference(d)
        assert list(got.items()) == list(want.items()), d.indices


@pytest.mark.parametrize("moduli", SUBSET_GROUPS, ids=str)
def test_is_skew_reason_matches_reference_diagnosis(moduli):
    kinds = set()
    for d in _subsets(moduli, random.Random(f"skew{moduli}"), 150):
        want = _skew_reason_reference(d)
        assert is_skew(d) == Verdict(not want, want), d.indices
        kinds.add(want.split(" ")[0])
    assert {"contains", "both", "element"} <= kinds


def test_is_skew():
    assert is_skew(D7)
    assert is_skew(candidate_from_indices(Z7, [3, 5, 6]))
    assert not is_skew(candidate_from_indices(Z7, [2, 3, 5]))  # 2 and 5 = -2
    assert not is_skew(candidate_from_indices(Z7, [0, 1, 2]))  # contains 0
    assert not is_skew(candidate_from_indices(Z7, [1, 2]))  # misses the 3/4 pair


def test_is_shds_accepts_both_paley_orbits():
    assert is_shds(D7).ok
    assert is_shds(candidate_from_indices(Z7, [3, 5, 6])).ok


def test_is_shds_failure_stages():
    # wrong frequency fires before skewness is even considered
    v = is_shds(candidate_from_indices(Z7, [1, 2, 3]))
    assert not v.ok and "difference" in v.reason
    # a translate of the Paley set keeps the flat profile but loses skewness
    v = is_shds(candidate_from_indices(Z7, [2, 3, 5]))
    assert not v.ok and "skew" in v.reason
    # wrong size
    v = is_shds(candidate_from_indices(Z7, [1, 2]))
    assert not v.ok and "size" in v.reason
    # group order not 3 mod 4
    z5 = make_group((5,))
    v = is_shds(candidate_from_indices(z5, [1, 2]))
    assert not v.ok and "mod 4" in v.reason


def test_exactly_two_shds_among_the_skew_3_subsets():
    winners = []
    for combo in itertools.combinations(range(1, 7), 3):
        d = candidate_from_indices(Z7, combo)
        if is_skew(d) and is_shds(d).ok:
            winners.append(combo)
    assert winners == [(1, 2, 4), (3, 5, 6)]


def test_candidate_from_indices_validates():
    with pytest.raises(ValueError):
        candidate_from_indices(Z7, [1, 2, 9])
    # repeated indices collapse -- it builds a set
    assert candidate_from_indices(Z7, [1, 1, 2]).indices == (1, 2)


# ------------------------------------------------------------- automorphisms


def test_cyclic_automorphisms_are_units_ascending():
    auts = list(enumerate_automorphisms(Z7))
    assert [a.rows for a in auts] == [((u,),) for u in [1, 2, 3, 4, 5, 6]]
    assert auts[2].apply((4,)) == (5,)  # 3*4 = 12 = 5 mod 7


def test_composite_cyclic_automorphisms_are_the_units():
    # gcd(det, 15) = 1 keeps exactly the units; 3, 5, 6, 9, 10, 12 are
    # nonzero mod 15 and must still be dropped
    z15 = make_group((15,))
    auts = list(enumerate_automorphisms(z15))
    assert [a.rows for a in auts] == [((u,),) for u in [1, 2, 4, 7, 8, 11, 13, 14]]
    assert all(a.modulus == 15 for a in auts)
    assert automorphism_count(z15) == 8
    assert auts[1].apply((9,)) == (3,)  # 2*9 = 18 = 3 mod 15


def test_gl_2_3_enumeration():
    g = make_group((3, 3))
    auts = list(enumerate_automorphisms(g))
    assert len(auts) == automorphism_count(g) == 48
    assert auts[0].rows == ((0, 1), (1, 0))  # first invertible matrix row-lex
    # closure spot check: applying any automorphism permutes the group
    for a in auts[:8]:
        images = {a.apply(x) for x in g.elements()}
        assert len(images) == g.order


def test_automorphism_count_z3_cubed():
    assert automorphism_count(make_group((3, 3, 3))) == 11232


def test_budget_refusal_names_the_order():
    g = make_group((7, 7, 7))
    with pytest.raises(ValueError, match="33784128, above AUT_CAP = 10000000"):
        list(enumerate_automorphisms(g))
    assert automorphism_count(g) == 33784128  # counting alone stays cheap


# --------------------------------------------------------------- equivalence


def test_negation_witness_is_multiplication_by_3():
    neg = candidate_from_indices(Z7, [3, 5, 6])
    w = are_equivalent(neg, D7)
    assert w is not None
    tau, g = w
    assert tau.rows == ((3,),) and g == (0,)


def test_translation_witness():
    shifted = candidate_from_indices(Z7, sorted((x + 3) % 7 for x in [1, 2, 4]))
    tau, g = affine_witness(Z7, shifted.elements, D7.elements)
    assert tau.rows == ((1,),) and g == (3,)


def test_inequivalent_pair():
    assert are_equivalent(D7, candidate_from_indices(Z7, [1, 2, 3])) is None
    # the same answer from the full search, without the profile precheck
    assert affine_witness(
        Z7, D7.elements, candidate_from_indices(Z7, [1, 2, 3]).elements
    ) is None


def test_equivalence_rejects_mixed_groups():
    other = candidate_from_indices(make_group((11,)), [1, 3, 4, 5, 9])
    with pytest.raises(ValueError):
        are_equivalent(D7, other)


def test_classify_refuses_mixed_groups_before_any_search(monkeypatch):
    def search(*args):
        raise AssertionError("classify searched before it checked the groups")

    monkeypatch.setattr("drt.diffset.are_equivalent", search)
    other = candidate_from_indices(make_group((11,)), [1, 3, 4, 5, 9])
    with pytest.raises(ValueError, match=r"all sets must share one group, got \['Z11', 'Z7'\]"):
        classify([D7, D7, other])


def test_classify_merges_affine_images():
    images = [
        candidate_from_indices(Z7, sorted((u * x + g) % 7 for x in [1, 2, 4]))
        for u, g in [(1, 0), (2, 3), (3, 5)]
    ]
    assert classify(images) == [[0, 1, 2]]


def test_classify_separates_orbits():
    sets = [
        D7,
        candidate_from_indices(Z7, [3, 5, 6]),
        candidate_from_indices(Z7, [1, 2, 3]),
    ]
    assert classify(sets) == [[0, 1], [2]]


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    unit=st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
    shift=st.integers(min_value=0, max_value=10),
)
def test_affine_images_are_always_equivalent(data, unit, shift):
    z11 = make_group((11,))
    size = data.draw(st.integers(min_value=1, max_value=5))
    base = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=10),
            min_size=size, max_size=size, unique=True,
        )
    )
    d = candidate_from_indices(z11, sorted(base))
    img = candidate_from_indices(z11, sorted((unit * x + shift) % 11 for x in base))
    assert are_equivalent(img, d) is not None


# --------------------------------------------------------------- file format


def test_format_parse_round_trip():
    text = format_diffset(D7)
    assert text == "Z7\n1 2 4\n"
    back = parse_diffset(text)
    assert back.group == Z7 and back.elements == D7.elements


def test_format_parse_round_trip_z3_cubed():
    d = paley_set(make_field(3, 3))
    back = parse_diffset(format_diffset(d))
    assert back.indices == d.indices
    assert back.group.moduli == (3, 3, 3)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("Z7\n1 2 9\n", "out of range"),
        ("Z7\n1 2 2\n", "duplicate"),
        ("Z7\n1 two 3\n", "line 2"),
        ("Z7\n1 2 4\nleftover\n", "line 3"),
        ("Z1\n0\n", "modulus"),
        ("what\n1 2\n", "group spec"),
        ("", "line 1"),
    ],
)
def test_parse_errors_carry_positions(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_diffset(text)
