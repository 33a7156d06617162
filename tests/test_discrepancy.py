from __future__ import annotations

import itertools
import math

import pytest

from drt.discrepancy import (
    bound_is_vacuous,
    check_mixing,
    check_sigma_gap,
    check_theorem_bound,
    edge_count,
    exhaustive_mixing_check,
    gap_bound,
    mask_vertices,
    sampled_mixing_check,
    vertex_mask,
)
from drt.ranking import exact_max_consistent
from drt.tourney import Tournament, random_tournament

from conftest import transitive


def cycle3() -> Tournament:
    return Tournament(3, (0b010, 0b100, 0b001))


def test_mask_round_trip():
    assert vertex_mask([0, 3, 5]) == 0b101001
    assert mask_vertices(0b101001) == [0, 3, 5]
    assert vertex_mask([]) == 0
    assert mask_vertices(0) == []


# ---------------------------------------------------------------- edge_count


def test_edge_count_empty_side(t7):
    assert edge_count(t7, 0, vertex_mask([1, 2])) == 0
    assert edge_count(t7, vertex_mask([1]), 0) == 0


def test_edge_count_frozen_pair(t7):
    a, b = vertex_mask([1, 2, 4]), vertex_mask([3, 5, 6])
    assert edge_count(t7, a, b) == 3
    assert edge_count(t7, b, a) == 6


def test_edge_totality_exhaustive(t7):
    verts = range(7)
    for asize, bsize in [(1, 1), (1, 2), (2, 2), (3, 2)]:
        for a in itertools.combinations(verts, asize):
            rest = [v for v in verts if v not in a]
            for b in itertools.combinations(rest, bsize):
                am, bm = vertex_mask(a), vertex_mask(b)
                assert edge_count(t7, am, bm) + edge_count(t7, bm, am) == asize * bsize


def test_edge_count_rejects_overlap_and_junk(t7):
    with pytest.raises(ValueError, match="overlap"):
        check_mixing(t7, vertex_mask([0, 1]), vertex_mask([1, 2]))
    with pytest.raises(ValueError):
        edge_count(t7, 1 << 9, 1)


# --------------------------------------------------------------- check_mixing


def test_mixing_trivial_cases(t7):
    assert check_mixing(t7, 0, vertex_mask([1])) == (0, True)
    # symmetric pair: d <= 0 direction always holds
    a, b = vertex_mask([1, 2, 4]), vertex_mask([3, 5, 6])
    d, holds = check_mixing(t7, a, b)
    assert d == -3 and holds


def test_mixing_integer_boundary():
    # single edge 0 -> 1 in a 2-path of a 3-cycle: d = 1, 1 <= 3
    t = cycle3()
    d, holds = check_mixing(t, vertex_mask([0]), vertex_mask([1]))
    assert (d, holds) == (1, True)


def test_transitive_8_violates_mixing(transitive8):
    top, bottom = vertex_mask([0, 1, 2, 3]), vertex_mask([4, 5, 6, 7])
    d, holds = check_mixing(transitive8, top, bottom)
    assert d == 16
    assert not holds  # 256 > 8 * 16 = 128


# ----------------------------------------------------------------- exhaustive


def test_sweep_paley_7_frozen(t7):
    r = exhaustive_mixing_check(t7)
    assert r.method == "exhaustive"
    assert r.pairs_checked == 3**7 - 2 * 2**7 + 1 == 1932
    assert r.violations == 0
    assert (r.max_numerator, r.max_denominator) == (9, 21)
    assert mask_vertices(r.worst_pair[0]) == [0]
    assert mask_vertices(r.worst_pair[1]) == [3, 5, 6]
    assert r.max_normalized == pytest.approx(9 / 21)


def test_sweep_paley_11_no_violations(t11):
    r = exhaustive_mixing_check(t11)
    assert r.pairs_checked == 3**11 - 2 * 2**11 + 1
    assert r.violations == 0
    assert r.max_numerator <= r.max_denominator


def test_sweep_agrees_with_direct_enumeration():
    # independent recount on a random 6-tournament
    t = random_tournament(6, 11)
    worst_num, worst_den, violations, pairs = 0, 1, 0, 0
    for assign in itertools.product((0, 1, 2), repeat=6):
        a = vertex_mask([v for v in range(6) if assign[v] == 1])
        b = vertex_mask([v for v in range(6) if assign[v] == 2])
        if a == 0 or b == 0:
            continue
        pairs += 1
        d = edge_count(t, a, b) - edge_count(t, b, a)
        num = d * d if d > 0 else 0
        den = 6 * bin(a).count("1") * bin(b).count("1")
        if num > den:
            violations += 1
        if num * worst_den > worst_num * den:
            worst_num, worst_den = num, den
    r = exhaustive_mixing_check(t)
    assert r.pairs_checked == pairs
    assert r.violations == violations
    assert r.max_numerator * worst_den == worst_num * r.max_denominator


def test_sweep_flags_transitive_violations(transitive8):
    r = exhaustive_mixing_check(transitive8)
    assert r.violations > 0
    assert r.max_numerator > r.max_denominator


def test_sweep_cap():
    with pytest.raises(ValueError):
        exhaustive_mixing_check(transitive(17))
    with pytest.raises(ValueError):
        exhaustive_mixing_check(transitive(6), cap=5)  # cap tightens too
    exhaustive_mixing_check(transitive(6), cap=6)


# -------------------------------------------------------------------- sampled


def test_sampled_deterministic_across_threads(t27):
    reports = [sampled_mixing_check(t27, 2000, 3) for _ in range(3)]
    assert reports[0] == reports[1] == reports[2]
    assert reports[0].pairs_checked == 2000
    assert reports[0].method == "sampled"


def test_sampled_seed_sensitivity(t27):
    a = sampled_mixing_check(t27, 500, 1)
    b = sampled_mixing_check(t27, 500, 2)
    assert a.pairs_checked == b.pairs_checked == 500
    # the worst pair found depends on the seed
    assert a != b or a.worst_pair == b.worst_pair


def test_sampled_finds_transitive_violations(transitive8):
    r = sampled_mixing_check(transitive8, 5000, 0)
    assert r.violations > 0


def test_sampled_worst_pair_is_reproducible(t7):
    r = sampled_mixing_check(t7, 300, 9)
    again = sampled_mixing_check(t7, 300, 9)
    assert r == again
    # the reported worst pair really attains the reported fraction
    a, b = r.worst_pair
    d = edge_count(t7, a, b) - edge_count(t7, b, a)
    num = d * d if d > 0 else 0
    den = 7 * bin(a).count("1") * bin(b).count("1")
    assert (num, den) == (r.max_numerator, r.max_denominator)


def test_sampled_input_validation(t7):
    with pytest.raises(ValueError):
        sampled_mixing_check(t7, 0, 1)
    with pytest.raises(ValueError):
        sampled_mixing_check(Tournament(1, (0,)), 10, 1)


# --------------------------------------------------------------------- bounds


def test_gap_bound_values():
    assert gap_bound(7) == pytest.approx(7**1.5 * math.log2(14))
    assert gap_bound(2) == pytest.approx(2**1.5 * 2)
    # strictly increasing over the relevant range
    values = [gap_bound(n) for n in range(2, 100)]
    assert all(x < y for x, y in zip(values, values[1:]))


def test_sigma_gap_paley_7(t7):
    r = exact_max_consistent(t7)
    g = check_sigma_gap(t7, r.ranking)
    assert g.gap == 2 * 14 - 21 == 7
    assert g.holds
    assert g.bound == pytest.approx(gap_bound(7))


def test_theorem_bound_paley_7(t7):
    b = check_theorem_bound(t7, 14)
    assert b.lhs == 14
    assert b.rhs == pytest.approx(21 / 2 + gap_bound(7))
    assert b.holds and b.vacuous


def test_theorem_bound_validates_c_value(t7):
    with pytest.raises(ValueError):
        check_theorem_bound(t7, 22)
    with pytest.raises(ValueError):
        check_theorem_bound(t7, -1)


def test_bound_crossover_scan():
    # the additive slack n^1.5 log2(2n) stays above binom(n,2)/2 until n=2395
    first = next(n for n in range(3, 3000, 4) if not bound_is_vacuous(n))
    assert first == 2395
    assert bound_is_vacuous(2391)
