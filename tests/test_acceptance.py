"""End-to-end acceptance checks, one test per shipped guarantee.

Each test is self-contained and enforces its own wall-clock budget where the
guarantee includes one.  Run with ``pytest tests/test_acceptance.py -v`` to
get one pass/fail line per criterion.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import random
import time
import tracemalloc
from contextlib import redirect_stdout

import pytest

from drt.cli import main
from drt.diffset import (
    affine_witness,
    are_equivalent,
    candidate_from_indices,
    is_shds,
    is_skew,
    paley_set,
)
from drt.discrepancy import (
    check_mixing,
    check_sigma_gap,
    check_theorem_bound,
    exhaustive_mixing_check,
    gap_bound,
    sampled_mixing_check,
    vertex_mask,
)
from drt.groups import make_field, make_group
from drt.ranking import (
    _dp_cut,
    _dp_layers,
    count_consistent,
    dp_table_nbytes,
    exact_max_consistent,
    heuristic_rank,
    random_baseline,
    reverse_ranking,
)
from drt.rng import derive_seed
from drt.tourney import (
    Tournament,
    cayley_tournament,
    is_doubly_regular,
    random_tournament,
    verify_gram_identities,
)

from conftest import brute_force_max, is_isomorphic_small, transitive

PIPELINE_ARGS = [
    ["pipeline", "paley", "--p", "3"],
    ["pipeline", "paley", "--p", "7"],
    ["pipeline", "paley", "--p", "11"],
    ["pipeline", "paley", "--p", "19"],
    ["pipeline", "paley", "--p", "23"],
    ["pipeline", "paley", "--p", "3", "--k", "3"],
]


def test_criterion_1_construction_pipelines_pass_in_under_5s():
    started = time.perf_counter()
    for argv in PIPELINE_ARGS:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(argv)
        assert code == 0, argv
        results = json.loads(buf.getvalue())["results"]
        assert results["shds"]["ok"], argv
        assert results["doubly_regular"]["ok"], argv
        assert results["gram"]["ok"], argv
        assert results["mixing"]["violations"] == 0, argv
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"pipelines took {elapsed:.2f}s"


def test_criterion_2_skew_3_subsets_of_z7_exhaustive():
    z7 = make_group((7,))
    skew_count = rejected = 0
    for combo in itertools.combinations(range(1, 7), 3):
        d = candidate_from_indices(z7, combo)
        if is_skew(d):
            skew_count += 1
            t = cayley_tournament(d)
            assert is_shds(d).ok == is_doubly_regular(t).ok, combo
        else:
            rejected += 1
            with pytest.raises(ValueError):
                cayley_tournament(d)
    assert skew_count == 8 and rejected == 12  # all 20 three-element subsets


def test_criterion_3_dp_agrees_with_brute_force():
    started = time.perf_counter()
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    for bits in range(1 << 10):
        rows = [0] * 5
        for b, (i, j) in enumerate(pairs):
            if bits >> b & 1:
                rows[i] |= 1 << j
            else:
                rows[j] |= 1 << i
        t = Tournament(5, tuple(rows))
        assert exact_max_consistent(t).value == brute_force_max(t).value
    for n in (6, 7, 8):
        for trial in range(50):
            t = random_tournament(n, derive_seed(2024, n * 1000 + trial))
            assert exact_max_consistent(t).value == brute_force_max(t).value, (n, trial)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"oracle comparison took {elapsed:.2f}s"


def test_criterion_4_forward_reverse_identity_on_1000_random_pairs():
    for n in (5, 10, 15):
        total = n * (n - 1) // 2
        shuffler = random.Random(n)
        for trial in range(1000):
            t = random_tournament(n, derive_seed(7, n * 100_000 + trial))
            perm = list(range(1, n + 1))
            shuffler.shuffle(perm)
            sigma = tuple(perm)
            assert (
                count_consistent(t, sigma) + count_consistent(t, reverse_ranking(sigma))
                == total
            )


def test_criterion_5_mixing_bound_sweeps_and_samples():
    # exhaustive at 7 and 11
    started = time.perf_counter()
    for p in (7, 11):
        t = cayley_tournament(paley_set(make_field(p, 1)))
        report = exhaustive_mixing_check(t)
        assert report.violations == 0, p
        assert report.pairs_checked == 3**p - 2 * 2**p + 1
    sweep_elapsed = time.perf_counter() - started
    assert sweep_elapsed < 10.0, f"sweeps took {sweep_elapsed:.2f}s"

    # sampled at 19, 23, 27
    started = time.perf_counter()
    for p, k in [(19, 1), (23, 1), (3, 3)]:
        t = cayley_tournament(paley_set(make_field(p, k)))
        report = sampled_mixing_check(t, 1_000_000, seed=2024)
        assert report.violations == 0, (p, k)
        assert report.pairs_checked == 1_000_000
    sample_elapsed = time.perf_counter() - started
    assert sample_elapsed < 60.0, f"samples took {sample_elapsed:.2f}s"

    # counter-demonstration: the mixing bound genuinely needs double regularity
    t8 = transitive(8)
    d, holds = check_mixing(t8, vertex_mask([0, 1, 2, 3]), vertex_mask([4, 5, 6, 7]))
    assert d == 16 and not holds  # 256 > 8*4*4 = 128
    assert exhaustive_mixing_check(t8).violations > 0


def test_criterion_6_gap_and_ceiling_bounds_on_all_dp_sized_fixtures():
    for p, k in [(3, 1), (7, 1), (11, 1), (19, 1), (23, 1)]:
        t = cayley_tournament(paley_set(make_field(p, k)))
        n = t.n
        total = n * (n - 1) // 2
        r = exact_max_consistent(t)
        assert 2 * r.value >= total, (p, k)  # hard floor, never violated
        gap = check_sigma_gap(t, r.ranking)
        assert gap.gap == 2 * r.value - total
        assert gap.holds, (p, k)
        bound = check_theorem_bound(t, r.value)
        assert bound.holds, (p, k)
        assert bound.vacuous, (p, k)  # honest at desk scale: rhs > binom(n,2)
        assert bound.rhs == pytest.approx(total / 2 + gap_bound(n))
    # past the DP cap the heuristic still certifies the floor
    t27 = cayley_tournament(paley_set(make_field(3, 3)))
    r27 = heuristic_rank(t27, strategy="local-search")
    assert 2 * r27.value >= 27 * 26 // 2


def test_criterion_7_equivalence_engine():
    z7 = make_group((7,))
    d = candidate_from_indices(z7, [1, 2, 4])

    # every affine image comes back equivalent (6 units x 7 shifts)
    images = 0
    for unit in range(1, 7):
        for g in range(7):
            img = candidate_from_indices(
                z7, sorted((unit * x + g) % 7 for x in (1, 2, 4))
            )
            assert are_equivalent(img, d) is not None, (unit, g)
            images += 1
    assert images == 42

    # the negated set's witness is multiplication by 3
    tau, shift = are_equivalent(candidate_from_indices(z7, [3, 5, 6]), d)
    assert tau.rows == ((3,),) and shift == (0,)

    # full enumeration over GL(3,3) x translations inside the budget
    g27 = make_group((3, 3, 3))
    a = candidate_from_indices(g27, [1, 6, 7, 8, 9, 11, 12, 13, 15, 16, 20, 22, 25])
    b = candidate_from_indices(g27, [2, 6, 7, 8, 9, 11, 12, 13, 15, 16, 20, 22, 25])
    started = time.perf_counter()
    assert affine_witness(g27, a.elements, b.elements) is None  # all 11232*27 maps
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"full affine scan took {elapsed:.2f}s"

    # equivalence and tournament isomorphism agree on the skew fixtures
    fixture_pairs = [
        ([1, 2, 4], [1, 2, 4], True),
        ([1, 2, 4], [3, 5, 6], True),
        ([1, 2, 4], [1, 2, 3], False),
        ([1, 2, 3], [2, 4, 6], True),
        ([1, 2, 4], [4, 5, 6], False),
    ]
    for ia, ib, expected in fixture_pairs:
        da = candidate_from_indices(z7, ia)
        db = candidate_from_indices(z7, ib)
        equivalent = are_equivalent(da, db) is not None
        isomorphic = (
            is_isomorphic_small(cayley_tournament(da), cayley_tournament(db))
            is not None
        )
        assert equivalent == expected and isomorphic == expected, (ia, ib)


def _timed_peak(fn, *args):
    """fn(*args), its wall time, and the tracemalloc peak of what it allocated."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        started = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, elapsed, peak


def test_criterion_8_dp_time_peak_and_rerun_stability():
    assert dp_table_nbytes(20) <= 64 * 2**20  # value table stays within 64 MiB

    t20 = random_tournament(20, 8)
    r20, elapsed, peak = _timed_peak(exact_max_consistent, t20)
    assert elapsed < 60.0, f"n=20 took {elapsed:.2f}s"
    # measured: the whole DP, table included, stays within 1.5x the table
    assert peak <= 1.5 * dp_table_nbytes(20), f"n=20 peaked at {peak} bytes"
    assert count_consistent(t20, r20.ranking) == r20.value

    # Above n = 20 the DP keeps only its upper row layers (measured: 0.48x
    # the table at n = 23, 0.43x at n = 24)
    t23 = cayley_tournament(paley_set(make_field(23, 1)))
    r23, elapsed, peak = _timed_peak(exact_max_consistent, t23)
    assert elapsed < 900.0, f"n=23 took {elapsed:.2f}s"
    assert peak <= 0.53 * dp_table_nbytes(23), f"n=23 peaked at {peak} bytes"
    assert 2 * r23.value >= 253

    t24 = random_tournament(24, 8)
    r24, elapsed, peak = _timed_peak(exact_max_consistent, t24)
    assert elapsed < 900.0, f"n=24 took {elapsed:.2f}s"
    assert peak <= 0.45 * dp_table_nbytes(24), f"n=24 peaked at {peak} bytes"
    assert count_consistent(t24, r24.ranking) == r24.value

    t27 = cayley_tournament(paley_set(make_field(3, 3)))
    reports = [sampled_mixing_check(t27, 20_000, seed=0) for _ in range(2)]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("n", range(16, 25))
def test_criterion_8_dp_scratch_does_not_grow_with_n(n):
    # Past what the DP must hold at once, the whole table while every layer
    # is kept and the two largest adjacent layers above that, only a fixed
    # budget of block rows is added (measured: 0.10, 0.14, 0.20, 0.32, 0.43,
    # 0.55, 0.60, 0.70 and 0.88 MiB at n = 16 to 24).
    t = random_tournament(n, derive_seed(31, n))
    m = n - 8
    pair = max(math.comb(m, k) + math.comb(m, k + 1) for k in range(m)) * 256
    held = pair if _dp_cut(n) else dp_table_nbytes(n)
    _, _, peak = _timed_peak(_dp_layers, t.rows, _dp_cut(n))
    assert peak - held <= 1.5 * 2**20, f"n={n}: {peak - held} bytes past the layers"


def test_criterion_9_random_baseline_floor_and_stability():
    summary = random_baseline(16, 100, seed=0)
    assert summary.min_value >= 60  # half of binom(16,2) = 120
    assert summary.trials == 100
    assert random_baseline(16, 100, seed=0) == summary  # rerun-stable
    assert 0.5 <= summary.mean_ratio <= 1.0
