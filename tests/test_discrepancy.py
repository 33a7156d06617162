from __future__ import annotations

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import drt.discrepancy
from drt.discrepancy import (
    SAMPLE_CAP,
    SWEEP_CAP,
    MixingReport,
    _rows_at_max,
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
from drt.diffset import paley_set
from drt.groups import ORDER_CAP, make_field
from drt.ranking import DP_CAP, _dp_layers, exact_max_consistent, heuristic_rank
from drt.rng import trit_block
from drt.tourney import (
    _F32_EXACT,
    Tournament,
    _signed,
    cayley_tournament,
    random_tournament,
    signed_adjacency,
)

from conftest import rotational, transitive


def _traced(fn, *args):
    """fn(*args) and the tracemalloc peak of what it allocated."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak


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


@pytest.mark.parametrize(
    "a, b, message",
    [
        (1 << 7, 1, "A has bits outside vertices 0..6"),
        (1, -1, "B has bits outside vertices 0..6"),
        (-1, 1 << 9, "A has bits outside vertices 0..6"),  # both bad, overlapping
        (0b111 | 1 << 7, 0b110, "A has bits outside vertices 0..6"),
        (0b111, 0b110 | 1 << 8, "B has bits outside vertices 0..6"),
        (0b111, 0b110, "A and B overlap in vertices [1, 2]"),
    ],
)
def test_check_mixing_refuses_a_then_b_then_overlap(t7, a, b, message):
    with pytest.raises(ValueError) as err:
        check_mixing(t7, a, b)
    assert str(err.value) == message


def test_mixing_trivial_cases(t7, transitive8):
    assert check_mixing(t7, 0, vertex_mask([1])) == (0, True)
    assert check_mixing(t7, vertex_mask([1]), 0) == (0, True)
    assert check_mixing(t7, 0, 0) == (0, True)
    # symmetric pair: d <= 0 direction always holds
    a, b = vertex_mask([1, 2, 4]), vertex_mask([3, 5, 6])
    d, holds = check_mixing(t7, a, b)
    assert d == -3 and holds
    # d^2 = 256 > 8 * 4 * 4 = 128: only d <= 0 makes this hold
    top, bottom = vertex_mask([0, 1, 2, 3]), vertex_mask([4, 5, 6, 7])
    assert check_mixing(transitive8, bottom, top) == (-16, True)


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
    # independent recount on a random 6-tournament, keeping the smallest
    # (A, B) at the exact maximum
    t = random_tournament(6, 11)
    worst = (0, 1, None)
    violations, pairs = 0, 0
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
        cmp = num * worst[1] - worst[0] * den
        if worst[2] is None or cmp > 0 or (cmp == 0 and (a, b) < worst[2]):
            worst = (num, den, (a, b))
    r = exhaustive_mixing_check(t)
    assert r.pairs_checked == pairs
    assert r.violations == violations
    assert (r.max_numerator, r.max_denominator, r.worst_pair) == worst


def test_sweep_single_vertex_has_no_pairs():
    r = exhaustive_mixing_check(Tournament(1, (0,)))
    assert r == MixingReport("exhaustive", 0, 0, 0, 1, None)


def _exhaustive_reference(t: Tournament) -> MixingReport:
    """The Gray-code loop that the batched subset sums replaced: for each A,
    the subsets of its complement in Gray-code order, O(1) per pair."""
    n = t.n
    srows = signed_adjacency(t).tolist()
    pairs = 0
    violations = 0
    best_num, best_den = 0, 1
    best_pair = None
    for a_mask in range(1, 1 << n):
        col = [0] * n  # col[j] = sum over i in A of sign(i -> j)
        rest = a_mask
        na = 0
        while rest:
            i = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            na += 1
            si = srows[i]
            for j in range(n):
                col[j] += si[j]
        comp = [j for j in range(n) if not (a_mask >> j) & 1]
        n_na = n * na
        d = 0
        b_mask = 0
        size = 0
        for g in range(1, 1 << len(comp)):
            j = comp[(g & -g).bit_length() - 1]
            bit = 1 << j
            if b_mask & bit:
                b_mask ^= bit
                size -= 1
                d -= col[j]
            else:
                b_mask |= bit
                size += 1
                d += col[j]
            pairs += 1
            den = n_na * size
            dd = d * d if d > 0 else 0
            if dd > den:
                violations += 1
            if dd:
                if dd * best_den > best_num * den:
                    best_num, best_den, best_pair = dd, den, (a_mask, b_mask)
                elif dd * best_den == best_num * den and (a_mask, b_mask) < best_pair:
                    best_num, best_den, best_pair = dd, den, (a_mask, b_mask)
            elif best_num == 0 and (
                best_pair is None or (a_mask, b_mask) < best_pair
            ):
                best_den, best_pair = den, (a_mask, b_mask)
    return MixingReport("exhaustive", pairs, violations, best_num, best_den, best_pair)


def _sweep_cases():
    for n in range(1, 13):
        yield pytest.param(random_tournament(n, 700 + n), id=f"random{n}")
    for n in range(1, 12):
        yield pytest.param(transitive(n), id=f"transitive{n}")
    for n in (7, 11):
        for signs in itertools.product((0, 1), repeat=n // 2):
            yield pytest.param(
                rotational(n, signs), id=f"rotational{n}-{''.join(map(str, signs))}"
            )
    for q in (3, 7, 11):
        t = cayley_tournament(paley_set(make_field(q, 1)))
        yield pytest.param(t, id=f"paley{q}")


@pytest.mark.parametrize("t", list(_sweep_cases()))
def test_sweep_matches_reference_loop(t):
    assert exhaustive_mixing_check(t) == _exhaustive_reference(t)


@pytest.mark.parametrize("slice_pairs", [1, 40])
def test_sweep_folds_ties_across_slices(monkeypatch, t7, transitive8, slice_pairs):
    # One row per slice (or a few rows, cut mid-batch), so the pairs tied at
    # the maximum sit in different slices and complement-size batches.
    monkeypatch.setattr(drt.discrepancy, "_SWEEP_SLICE_PAIRS", slice_pairs)
    cases = [t7, transitive8, random_tournament(9, 9)]
    cases += [rotational(7, signs) for signs in itertools.product((0, 1), repeat=3)]
    for t in cases:
        assert exhaustive_mixing_check(t) == _exhaustive_reference(t)


def test_sweep_frozen_at_cap():
    # Frozen from the Gray-code loop above, which takes about 20 s at n = 16.
    r, peak = _traced(exhaustive_mixing_check, random_tournament(16, 16))
    assert r == MixingReport(
        "exhaustive", 3**16 - 2**17 + 1, 50, 324, 288, (7714, 8576)
    )
    assert r.pairs_checked == 42_915_650
    # measured: 2.49 MiB
    assert peak <= 2.75 * 2**20, f"n=16 sweep peaked at {peak} bytes"


def test_sweep_peak_is_int8_half_tables():
    # measured 0.64 and 2.49 MiB
    _, peak = _traced(exhaustive_mixing_check, random_tournament(14, 0))
    assert peak <= 0.70 * 2**20, f"n=14 sweep peaked at {peak} bytes"
    _, peak = _traced(exhaustive_mixing_check, random_tournament(16, 16))
    assert peak <= 2.75 * 2**20, f"n=16 sweep peaked at {peak} bytes"  # README


def _transitive_tally(n: int) -> tuple[int, int, int, int]:
    """Pairs, violations and the largest d_+^2 / (n |A| |B|) (as numerator and
    denominator) over every (A, B) of transitive(n), each pair's d exact.

    A DP over the vertices in order counts the assignments of 0..v-1 by
    (|A|, |B|, d): v joining B gains an edge from each earlier A vertex
    (d += |A|), v joining A one into it from each earlier B vertex (d -= |B|).
    """
    m = n * n // 4  # |d| <= |A| |B|
    counts = np.zeros((n + 1, n + 1, 2 * m + 1), dtype=np.int64)
    counts[0, 0, m] = 1
    for v in range(n):
        grown = counts.copy()  # v in neither
        for a in range(v + 1):
            for b in range(v + 1 - a):
                row = counts[a, b]
                grown[a + 1, b, : row.size - b] += row[b:]
                grown[a, b + 1, a:] += row[: row.size - a]
        counts = grown
    d = np.arange(-m, m + 1)
    pairs = violations = 0
    best = (0, 1)
    for a in range(1, n):
        for b in range(1, n + 1 - a):
            den = n * a * b
            present = d[(counts[a, b] > 0) & (d > 0)]
            pairs += int(counts[a, b].sum())
            violations += int(counts[a, b][d * d * (d > 0) > den].sum())
            if present.size:
                num = int(present.max()) ** 2
                if num * best[1] > best[0] * den:
                    best = (num, den)
    return pairs, violations, *best


def test_transitive_tally_matches_check_mixing_pair_by_pair():
    n = 7
    t = transitive(n)
    pairs = violations = 0
    best = (0, 1)
    for assign in itertools.product((0, 1, 2), repeat=n):
        a = vertex_mask([v for v in range(n) if assign[v] == 1])
        b = vertex_mask([v for v in range(n) if assign[v] == 2])
        if a == 0 or b == 0:
            continue
        pairs += 1
        d, holds = check_mixing(t, a, b)
        violations += not holds
        num, den = max(d, 0) ** 2, n * a.bit_count() * b.bit_count()
        if num * best[1] > best[0] * den:
            best = (num, den)
    assert _transitive_tally(n) == (pairs, violations, *best)


def test_sweep_exact_where_d_is_largest():
    # The transitive tournament has the largest |d| of any at each (|A|, |B|),
    # d = |A| |B| up to 64, and col entries up to 15: the int8 sums at their
    # largest.  Its every pair's d is tallied exactly by the DP above.
    t = transitive(SWEEP_CAP)
    r = exhaustive_mixing_check(t)
    assert (r.pairs_checked, r.violations, r.max_numerator, r.max_denominator) == (
        _transitive_tally(SWEEP_CAP))
    assert r.worst_pair == (0x00FF, 0xFF00)  # the one pair at d = 8 * 8
    assert check_mixing(t, *r.worst_pair) == (64, False)
    assert (64**2, SWEEP_CAP * 8 * 8) == (r.max_numerator, r.max_denominator)


def test_sweep_flags_transitive_violations(transitive8):
    r = exhaustive_mixing_check(transitive8)
    assert r.violations > 0
    assert r.max_numerator > r.max_denominator


def test_sweep_cap():
    with pytest.raises(ValueError):
        exhaustive_mixing_check(transitive(17))


# -------------------------------------------------------------------- sampled


def test_sampled_deterministic(t27):
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


def _sampled_reference(t: Tournament, samples: int, seed: int) -> MixingReport:
    """The per-row loop that the per-chunk maximum replaced: full 32768-row
    chunks, every row at or above the running best compared in Python."""
    n = t.n
    signed = signed_adjacency(t).astype(np.float64)
    chunk_rows = 1 << 15
    collected = violations = start = 0
    best_num, best_den, best_pair = 0, 1, None
    while collected < samples:
        trits = trit_block(seed, start * n, chunk_rows * n).reshape(chunk_rows, n)
        start += chunk_rows
        a_ind, b_ind = trits == 1, trits == 2
        na = a_ind.sum(axis=1).astype(np.int64)
        nb = b_ind.sum(axis=1).astype(np.int64)
        valid = np.flatnonzero((na > 0) & (nb > 0))[: samples - collected]
        collected += int(valid.size)
        dv = ((a_ind[valid] @ signed) * b_ind[valid]).sum(axis=1).astype(np.int64)
        den = n * na[valid] * nb[valid]
        dd = np.where(dv > 0, dv * dv, 0)
        violations += int((dd > den).sum())
        for r in np.flatnonzero(dd * best_den >= best_num * den):
            num_r, den_r = int(dd[r]), int(den[r])
            if num_r == 0 and best_num > 0:
                continue
            row = trits[valid[r]]
            pair = (
                vertex_mask(int(i) for i in np.flatnonzero(row == 1)),
                vertex_mask(int(i) for i in np.flatnonzero(row == 2)),
            )
            if (
                best_pair is None
                or num_r * best_den > best_num * den_r
                or (num_r * best_den == best_num * den_r and pair < best_pair)
            ):
                best_num, best_den, best_pair = num_r, den_r, pair
    return MixingReport("sampled", samples, violations, best_num, best_den, best_pair)


@pytest.fixture(scope="module")
def sampled_tournaments(paley, transitive8):
    named = {
        "cycle3": paley(3),
        "transitive8": transitive8,
        "t7": paley(7),
        "t27": paley(3, 3),
    }
    for n in (2, 3, 5, 13, 40):
        named[f"random{n}"] = random_tournament(n, 500 + n)
    return named


# A few samples leave several rows tied at ratio 0 with different |A||B|.
@pytest.mark.parametrize("samples", [1, 2, 3, 5, 300, 32768, 32769, 70000])
@pytest.mark.parametrize(
    "name",
    ["cycle3", "transitive8", "t7", "t27"] + [f"random{n}" for n in (2, 3, 5, 13, 40)],
)
def test_sampled_matches_reference_loop(sampled_tournaments, name, samples):
    t = sampled_tournaments[name]
    for seed in (0, 1, 2):
        want = _sampled_reference(t, samples, seed)
        assert sampled_mixing_check(t, samples, seed) == want


@pytest.mark.parametrize("per_chunk", [(1, 0), (3, 0), (40, 1)])
def test_sampled_folds_ties_across_chunks(monkeypatch, sampled_tournaments, per_chunk):
    # Chunks of 1, 3 and 40 rows, so the rows tied at the maximum sit in
    # different chunks and meet only in the running best.
    rows, extra = per_chunk
    for name in ("cycle3", "t7", "transitive8", "t27", "random3", "random13"):
        t = sampled_tournaments[name]
        monkeypatch.setattr(drt.discrepancy, "_SAMPLE_CHUNK_TRITS", rows * t.n + extra)
        for samples in (1, 2, 3, 5, 300, 2000):
            want = _sampled_reference(t, samples, 0)
            assert sampled_mixing_check(t, samples, 0) == want


def test_sampled_frozen_at_cap():
    # Frozen from the float64 kernel with 32768-row chunks, which peaked at
    # 73 MiB here; the reference loop would draw about 0.5 GiB at n = 900.
    r, peak = _traced(sampled_mixing_check, random_tournament(900, 5), 4096, 0)
    assert (r.pairs_checked, r.violations) == (4096, 0)
    assert (r.max_numerator, r.max_denominator) == (1159929, 83708100)
    digest = hashlib.sha256(repr(r.worst_pair).encode()).hexdigest()
    assert digest == "7ba8c98aa2bba773214a82eb00352eef1b1add36d30d94fdd3b8c8593260a845"
    # measured: about 5.5 MiB, of which the float32 signed matrix is 3.1 MiB
    assert peak <= 6 * 2**20, f"n=900 sample peaked at {peak} bytes"


@pytest.mark.parametrize("p, k", [(23, 1), (43, 1), (3, 5)])
def test_sampled_peak_is_a_few_buffers(p, k):
    # The chunk buffers, the signed matrix and the rng's sub-block buffers:
    # measured 1.0-1.2 MiB at q = 23, 43 and 243.
    t = cayley_tournament(paley_set(make_field(p, k)))
    r, peak = _traced(sampled_mixing_check, t, 20000, 0)
    assert (r.pairs_checked, r.violations) == (20000, 0)
    assert peak <= 2 * 2**20, f"q={p ** k} sample peaked at {peak} bytes"


def test_sample_cap_keeps_float32_exact():
    # Partial sums of d reach |A||B| <= n^2/4.
    assert SAMPLE_CAP**2 // 4 <= _F32_EXACT


def test_sample_cap_keeps_int64_compares_exact():
    # `_rows_at_max` multiplies d_+^2 <= floor(n^2/4)^2 by n |A| |B| <=
    # n floor(n^2/4); the product stays below 2^63 through n = 927.
    def largest(n):
        return (n * n // 4) ** 2 * n * (n * n // 4)

    assert largest(SAMPLE_CAP) < 2**63
    assert next(n for n in itertools.count(1) if largest(n) >= 2**63) == 928


def test_order_cap_keeps_gram_float32_exact():
    # Entries and partial sums of S S^T are at most n <= ORDER_CAP.
    assert ORDER_CAP <= _F32_EXACT
    assert np.float32(_F32_EXACT) - 1 == _F32_EXACT - 1  # exact up to 2^24
    assert np.float32(_F32_EXACT + 1) == _F32_EXACT  # and no further


def test_sweep_cap_keeps_int8_exact():
    # d and every partial sum of the sweep reach |A||B| <= floor(n/2) ceil(n/2)
    # (test_sweep_exact_where_d_is_largest runs that extreme).
    largest = (SWEEP_CAP // 2) * -(-SWEEP_CAP // 2)
    assert largest <= np.iinfo(_signed(transitive(SWEEP_CAP)).dtype).max


def test_dp_cap_keeps_uint8_exact():
    # A DP candidate at |S| = s is at most fas(S \ {v}) <= binom(s-1, 2) // 2
    # plus the s - 1 arcs of v; the layers have one type at every n, and it
    # holds that through s = 31.
    top = np.iinfo(_dp_layers(transitive(1).rows, 0)[0][0].dtype).max

    def largest(s):
        return math.comb(s - 1, 2) // 2 + s - 1

    assert all(largest(s) <= top for s in range(1, DP_CAP + 1))
    assert next(s for s in itertools.count(1) if largest(s) > top) == 32


@pytest.mark.parametrize("n,samples", [(2, 1), (2, 5000), (7, 300), (27, 40000)])
def test_sampled_draws_only_the_rows_it_needs(monkeypatch, n, samples):
    # The candidate rows tile the stream from its start, and no draw reaches
    # past the samples still missing when it is made.
    calls = []
    collected = 0

    def recording(seed, start, count):
        nonlocal collected
        calls.append((start, count, samples - collected))
        trits = trit_block(seed, start, count)
        rows = trits.reshape(-1, n)
        collected += int(((rows == 1).any(axis=1) & (rows == 2).any(axis=1)).sum())
        return trits

    monkeypatch.setattr(drt.discrepancy, "trit_block", recording)
    sampled_mixing_check(random_tournament(n, n), samples, 4)
    assert calls[0][0] == 0
    for (start, count, _), (next_start, _, _) in zip(calls, calls[1:]):
        assert next_start == start + count
    for _, count, missing in calls:
        assert 0 < count <= missing * n
    assert collected >= samples


def test_rows_at_max_separates_ratios_that_share_a_float():
    # 100000001/100000000 > 100000002/100000001, but both round to one float.
    num = np.array([100000002, 100000001, 200000002, 3], dtype=np.int64)
    den = np.array([100000001, 100000000, 200000000, 4], dtype=np.int64)
    assert num[0] / den[0] == num[1] / den[1]
    assert _rows_at_max(num, den).tolist() == [1, 2]
    assert _rows_at_max(num[[0, 3]], den[[0, 3]]).tolist() == [0]
    zeros = np.zeros(3, dtype=np.int64)
    assert _rows_at_max(zeros, np.array([5, 1, 7])).tolist() == [0, 1, 2]


def test_sampled_input_validation(t7, monkeypatch):
    with pytest.raises(ValueError):
        sampled_mixing_check(t7, 0, 1)
    with pytest.raises(ValueError):
        sampled_mixing_check(Tournament(1, (0,)), 10, 1)
    big = random_tournament(SAMPLE_CAP + 1, 0)
    monkeypatch.setattr(drt.discrepancy, "trit_block", None)  # any draw fails
    with pytest.raises(ValueError, match="sampled check supports n <= 900, got 901"):
        sampled_mixing_check(big, 10, 1)


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
    # over the DRT orders n = 3 (mod 4), the additive slack n^1.5 log2(2n)
    # stays above binom(n,2)/2 until n=2395 (over all n, until n=2394)
    first = next(n for n in range(3, 3000, 4) if not bound_is_vacuous(n))
    assert first == 2395
    assert bound_is_vacuous(2391)


@pytest.mark.parametrize("n", [2393, 2394])
def test_theorem_bound_at_the_crossover(n):
    # bound_is_vacuous flips between these two n; the check must flag the same
    t = random_tournament(n, 5)
    b = check_theorem_bound(t, heuristic_rank(t, strategy="out-degree").value)
    assert b.vacuous == bound_is_vacuous(n) == (n == 2393)
    assert b.holds
