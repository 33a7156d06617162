from __future__ import annotations

import itertools
import math
import random
import time
import tracemalloc

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
import drt.diffset
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
    # gcd(u, 15) = 1 keeps exactly the units; 3, 5, 6, 9, 10, 12 are
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
    # the enumeration is lazy, so only a scan over all of GL(3,7) is refused
    g = make_group((7, 7, 7))
    first = next(enumerate_automorphisms(g))
    assert first.rows == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert automorphism_count(g) == 33784128  # counting alone stays cheap
    d = candidate_from_indices(g, [1, 2, 3]).elements
    with pytest.raises(
        ValueError, match="tries 11587955904 maps, above the scan cap of 1048576"
    ):
        affine_witness(g, d, d)


def test_first_automorphisms_of_z2_to_the_5_come_at_once():
    # GL(5,2) is 30% of the 2^25 matrices and the first 2^20 are singular;
    # filtering every matrix took 17.5 s for these 10^5
    started = time.perf_counter()
    first = [
        a.rows
        for a in itertools.islice(enumerate_automorphisms(make_group((2,) * 5)), 10**5)
    ]
    assert time.perf_counter() - started < 5
    assert len(first) == 10**5
    assert all(a < b for a, b in zip(first, first[1:]))


@pytest.mark.parametrize("moduli", [(4, 4), (2, 4), (9, 3)], ids=str)
def test_unsupported_shapes_refused_at_the_call(moduli):
    group = make_group(moduli)
    d = candidate_from_indices(group, [1, 2]).elements
    match = "supports only cyclic or elementary abelian groups"
    with pytest.raises(ValueError, match=match):
        enumerate_automorphisms(group)
    with pytest.raises(ValueError, match=match):
        affine_witness(group, d, d)


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


@pytest.mark.parametrize("bad", [(9,), (1, 2)])
def test_witness_refuses_a_source_member_outside_the_group(bad):
    with pytest.raises(ValueError, match="is not a canonical element of Z7"):
        affine_witness(Z7, frozenset({(2,)}), frozenset({bad}))


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


# ------------------------------------------- parity with the table engine


def _det_mod_p_reference(rows, p: int) -> int:
    """Determinant mod p by Gaussian elimination; also exact for a 1 x 1
    matrix over Z_m with m composite, since no row is ever eliminated."""
    k = len(rows)
    m = [list(r) for r in rows]
    det = 1
    for col in range(k):
        pivot = next((r for r in range(col, k) if m[r][col] % p), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        inv = pow(m[col][col], p - 2, p)
        det = det * m[col][col] % p
        for r in range(col + 1, k):
            f = m[r][col] * inv % p
            if f:
                for c in range(col, k):
                    m[r][c] = (m[r][c] - f * m[col][c]) % p
    return det % p


def _automorphisms_reference(group):
    """Row tuples of the k x k matrices over Z_m, row-lexicographic, whose
    eliminated determinant is a unit mod m."""
    m, k = group.moduli[0], len(group.moduli)
    for flat in itertools.product(range(m), repeat=k * k):
        rows = tuple(flat[i * k : (i + 1) * k] for i in range(k))
        if math.gcd(_det_mod_p_reference(rows, m), m) == 1:
            yield rows


def _times(rows, x, m: int):
    return tuple(sum(a * b for a, b in zip(r, x)) % m for r in rows)


def _witness_reference(group, target, source):
    """First (rows, g) with target = M source + g, from an n x n add table
    and sorted index tuples; None if there is none."""
    m, n = group.moduli[0], group.order
    elements = list(group.elements())
    add_table = [[group.index(group.add(x, g)) for g in elements] for x in elements]
    want = tuple(sorted(group.index(x) for x in target))
    for rows in _automorphisms_reference(group):
        img = [group.index(_times(rows, x, m)) for x in source]
        for g_idx in range(n):
            if tuple(sorted(add_table[e][g_idx] for e in img)) == want:
                return rows, elements[g_idx]
    return None


def _witness(group, target, source):
    w = affine_witness(group, target, source)
    return None if w is None else (w[0].rows, w[1])


def _witness_cases(moduli):
    """Seeded (target, source) pairs at sizes 0, 1, |G| // 2 and |G|: one
    unrelated pair and one affine image per size, plus one pair of unequal
    sizes."""
    group = make_group(moduli)
    n = group.order
    rng = random.Random(f"witness{moduli}")
    auts = list(_automorphisms_reference(group))
    for size in (0, 1, n // 2, n):
        source = candidate_from_indices(group, rng.sample(range(n), size)).elements
        yield candidate_from_indices(group, rng.sample(range(n), size)).elements, source
        rows, g = rng.choice(auts), group.element(rng.randrange(n))
        image = {group.add(_times(rows, x, group.moduli[0]), g) for x in source}
        yield frozenset(image), source
    yield (
        candidate_from_indices(group, range(1, 3)).elements,
        candidate_from_indices(group, range(1, 4)).elements,
    )


WITNESS_GROUPS = [(15,), (3, 3), (2, 2, 2), (3, 3, 3)]


def test_witness_matches_table_engine_on_all_3_subsets_of_z7():
    subsets = [
        candidate_from_indices(Z7, c).elements
        for c in itertools.combinations(range(7), 3)
    ]
    found = 0
    for target in subsets:
        for source in subsets:
            want = _witness_reference(Z7, target, source)
            assert _witness(Z7, target, source) == want, (target, source)
            found += want is not None
    assert 0 < found < len(subsets) ** 2


@pytest.mark.parametrize("moduli", WITNESS_GROUPS, ids=str)
def test_witness_matches_table_engine(moduli):
    group = make_group(moduli)
    outcomes = set()
    for target, source in _witness_cases(moduli):
        want = _witness_reference(group, target, source)
        assert _witness(group, target, source) == want, (target, source)
        outcomes.add(want is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize(
    "moduli",
    [(15,), (3, 3), (2, 2, 2), (2, 2, 2, 2), (5, 5), (7, 7), (3, 3, 3)],
    ids=str,
)
def test_automorphisms_match_eliminated_determinant(moduli):
    # against the reference that keeps every matrix whose determinant,
    # found by elimination, is a unit
    group = make_group(moduli)
    got = [a.rows for a in enumerate_automorphisms(group)]
    assert got == list(_automorphisms_reference(group))
    assert len(got) == automorphism_count(group)


@pytest.mark.parametrize("moduli", [(3, 3), (15,)], ids=str)
def test_unequal_sizes_answer_none(moduli):
    group = make_group(moduli)
    small = candidate_from_indices(group, [0, 1]).elements
    large = candidate_from_indices(group, [0, 1, 2]).elements
    assert affine_witness(group, small, large) is None
    assert affine_witness(group, large, small) is None


@pytest.mark.parametrize("sizes", [(3, 3), (3, 4)])
def test_oversized_group_refused_before_anything_is_built(sizes):
    # |GL(3,7)| * 343 maps is above the scan cap; an n x n table would be
    # 343^2 entries
    group = make_group((7, 7, 7))
    target, source = (
        candidate_from_indices(group, range(1, 1 + size)).elements for size in sizes
    )
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="above the scan cap"):
            affine_witness(group, target, source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


@pytest.mark.parametrize("entries", [1, 7])
def test_witness_is_the_same_across_slices(monkeypatch, entries):
    # One translation per slice, or a few, so a match can sit past the
    # first slice and a miss must run through every one.
    cases = [
        (make_group(moduli), target, source)
        for moduli in [(15,), (3, 3), (2, 2, 2)]
        for target, source in _witness_cases(moduli)
    ]
    want = [_witness(*case) for case in cases]
    monkeypatch.setattr(drt.diffset, "_WITNESS_SLICE_ENTRIES", entries)
    assert [_witness(*case) for case in cases] == want
    assert any(w is not None and w[1] != (0,) * len(w[1]) for w in want)


def test_full_scan_on_z503_stays_small():
    d = paley_set(make_field(503, 1))
    members = list(d.indices)
    outside = next(i for i in range(1, 503) if i not in d.indices)
    other = candidate_from_indices(d.group, members[:-1] + [outside])
    tracemalloc.start()
    try:
        assert affine_witness(d.group, d.elements, other.elements) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_scan_past_the_cap_is_refused_at_once():
    # |Aut(Z2003)| = 2002 is small, but a full scan tries
    # 2002 * 2003 maps; it took 44 s before the scan cap existed
    d = paley_set(make_field(2003, 1))
    members = list(d.indices)
    outside = next(i for i in range(1, 2003) if i not in d.indices)
    other = candidate_from_indices(d.group, members[:-1] + [outside])
    started = time.perf_counter()
    with pytest.raises(
        ValueError, match="tries 4010006 maps, above the scan cap of 1048576"
    ):
        affine_witness(d.group, d.elements, other.elements)
    assert time.perf_counter() - started < 0.5


def test_classify_searches_each_set_against_class_representatives(monkeypatch):
    z13 = make_group((13,))
    a, b = [0, 1, 2, 3, 6], [0, 1, 2, 3, 7]

    def image(unit, shift, s):
        return candidate_from_indices(z13, [(unit * x + shift) % 13 for x in s])

    da, db = image(1, 0, a), image(1, 0, b)
    # equal profile multisets, so only the search can tell them apart
    assert sorted(difference_profile(da).values()) == sorted(
        difference_profile(db).values()
    )
    assert affine_witness(z13, da.elements, db.elements) is None
    sets = [da, image(1, 1, a), db, image(1, 2, b), image(2, 3, a), image(2, 4, b)]
    calls = []
    search = drt.diffset.affine_witness

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(drt.diffset, "affine_witness", counted)
    assert classify(sets) == [[0, 1, 4], [2, 3, 5]]
    assert len(calls) <= 7


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
