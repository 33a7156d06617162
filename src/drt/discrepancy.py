"""Subset mixing checks and the global ranking-gap bounds.

For disjoint vertex sets A, B the discrepancy d = e(A,B) - e(B,A) of a doubly
regular tournament satisfies d <= sqrt(n |A| |B|); every check here verifies
the squared form d <= 0 or d^2 <= n |A| |B| in exact integers.  Normalized
discrepancy is reported as the exact rational d_+^2 / (n |A| |B|), so
"violation" and "normalized value > 1" are the same statement.

The global statements tie a ranking sigma to its mirror: the consistency gap
C(T, sigma) - C(T, sigma') is at most n^1.5 * log2(2n), which bounds the
maximum consistency by binom(n,2)/2 + n^1.5 * log2(2n) — vacuously for small
n, and the checks say when that is the case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .ranking import count_consistent
from .rng import trit_block
from .tourney import Tournament, _signed, mask_vertices, vertex_mask

SWEEP_CAP = 16
_SWEEP_SLICE_PAIRS = 1 << 17  # pairs per sweep slice; bounds its temporaries
SAMPLE_CAP = 900  # keeps the int64 cross-multiplied fraction compares exact
# A sampled chunk holds _SAMPLE_CHUNK_TRITS // min(n, 256) rows (one at least),
# so its buffers hold at most this many trits up to n = 256 and 256 rows above.
_SAMPLE_CHUNK_TRITS = 1 << 16

# A running worst pair: (d_+^2, n |A| |B|, (A, B)), with no pair before the first.
# It starts at (0, 1, None), and no candidate's d_+^2 is negative, so the
# worst-pair prunes, which skip candidates strictly below it, cannot fire
# before the first pair.
_Best = tuple[int, int, Optional[tuple[int, int]]]


def _check_mask(t: Tournament, mask: int, name: str) -> None:
    if not (0 <= mask < (1 << t.n)):
        raise ValueError(f"{name} has bits outside vertices 0..{t.n - 1}")


def edge_count(t: Tournament, a_mask: int, b_mask: int) -> int:
    """e(A,B): edges from A into B (the masks need not be disjoint)."""
    _check_mask(t, a_mask, "A")
    _check_mask(t, b_mask, "B")
    return sum((t.rows[a] & b_mask).bit_count() for a in mask_vertices(a_mask))


class MixingCheck(NamedTuple):
    d: int
    holds: bool


def check_mixing(t: Tournament, a_mask: int, b_mask: int) -> MixingCheck:
    """d = e(A,B) - e(B,A) and whether d <= sqrt(n |A| |B|), in exact integers.

    A and B must be disjoint; an empty side makes the bound degenerate and the
    check reports (0, True).
    """
    d = edge_count(t, a_mask, b_mask)  # refuses a bad A, then a bad B
    overlap = a_mask & b_mask
    if overlap:
        raise ValueError(f"A and B overlap in vertices {mask_vertices(overlap)}")
    d -= edge_count(t, b_mask, a_mask)
    holds = d <= 0 or d * d <= t.n * a_mask.bit_count() * b_mask.bit_count()
    return MixingCheck(d, holds)


@dataclass(frozen=True)
class MixingReport:
    """Aggregate of many mixing checks.

    The worst pair maximizes the exact rational d_+^2 / (n |A| |B|) (stored as
    max_numerator / max_denominator); ties resolve to the smallest (A, B)
    bitmask pair.  `violations` counts pairs whose normalized discrepancy
    exceeds 1, so violations == 0 iff max_numerator <= max_denominator.
    """

    method: str
    pairs_checked: int
    violations: int
    max_numerator: int
    max_denominator: int
    worst_pair: Optional[tuple[int, int]]

    def __post_init__(self):
        if (self.violations == 0) != (self.max_numerator <= self.max_denominator):
            raise AssertionError(
                f"inconsistent report: {self.violations} violations but worst"
                f" fraction {self.max_numerator}/{self.max_denominator}"
            )

    @property
    def max_normalized(self) -> float:
        return self.max_numerator / self.max_denominator


def exhaustive_mixing_check(t: Tournament) -> MixingReport:
    """Check every assignment of vertices to (A, B, neither) with A, B nonempty.

    That is 3^n - 2^(n+1) + 1 ordered pairs; n is capped at SWEEP_CAP because
    of it.

    The pairs are batched subset sums, all in int8.  col[A][j] = sum over i
    in A of sign(i -> j) is filled for every A by doubling (`_subset_sums`).
    The sets A with c vertices outside them form one batch, in ascending
    order, and `_sweep_batch` checks every B inside each A's complement.
    Column g of a batch holds the B made of the complement positions (taken
    ascending) at the set bits of g.
    """
    n = t.n
    if n > SWEEP_CAP:
        raise ValueError(
            f"exhaustive sweep capped at n = {SWEEP_CAP} (3^n assignments),"
            f" got n = {n}; use sampled_mixing_check instead"
        )
    col = _subset_sums(_signed(t))  # |col| <= n - 1 <= 15
    sizes = np.bitwise_count(np.arange(1 << n, dtype=np.uint16))
    violations = 0
    best: _Best = (0, 1, None)
    for c in range(1, n):
        batch_violations, best = _sweep_batch(col, sizes, c, best)
        violations += batch_violations
    return MixingReport("exhaustive", 3**n - 2 ** (n + 1) + 1, violations, *best)


def _subset_sums(x: np.ndarray) -> np.ndarray:
    """Row g holds the sum of the rows of x at the set bits of g, filled by
    doubling: one numpy op per row of x, each over a contiguous block."""
    out = np.empty((1 << len(x),) + x.shape[1:], dtype=x.dtype)
    out[0] = 0
    for i, row in enumerate(x):
        np.add(out[: 1 << i], row, out=out[1 << i : 2 << i])
    return out


def _sweep_batch(
    col: np.ndarray, sizes: np.ndarray, c: int, best: _Best
) -> tuple[int, _Best]:
    """Violations among the pairs (A, B) with c vertices outside A and B
    inside A's complement, and the running best after it meets them.

    `sizes` holds the popcount of every vertex mask, at that mask.  An A's
    col entries at its c complement positions split into the first c // 2
    and the rest, and the subset sums of each part (`_subset_sums`) form a
    half table, so d(A, B) = e(A,B) - e(B,A) at column
    g = g_hi * 2^(c // 2) + g_lo is high[g_hi] + low[g_lo]: their outer sum,
    with column 0 (B empty) dropped.  A col entry is at most |A| in size,
    so every table entry and every d is at most |A| c <= floor(n/2)
    ceil(n/2), which is 64 at SWEEP_CAP: int8 holds them all, and no float
    or matrix product is involved.

    The batch is cut into slices of about _SWEEP_SLICE_PAIRS pairs.  In a
    slice den = n |A| |B| depends on the column alone, and for integer d,
    d_+^2 > den iff d > isqrt(den), which counts the violations.  As n |A|
    is fixed in the batch, d_+^2 / den is largest in the columns where the
    integer d_+^2 * (lcm(1..c) / |B|) is.  In each of those the first row
    attaining the column maximum has the smallest A, and that pair meets the
    running best through `_fold_best` with the column's own d_+^2 and den,
    unless the slice's maximum is already below the running best.
    """
    n = col.shape[1]
    a_masks = np.flatnonzero(sizes == n - c).astype(np.uint16)
    b_sizes = sizes[1 : 1 << c]  # |B| of columns 1 .. 2^c - 1
    # Row i: each A's col entry at its i-th complement position, ascending.
    bits = np.uint16(1) << np.arange(n, dtype=np.uint16)
    outside = (a_masks[:, None] & bits) == 0
    rows = np.take(col, a_masks, axis=0)
    gathered = np.compress(outside.ravel(), rows.ravel()).reshape(-1, c).T.copy()
    del outside, rows
    half = c // 2
    low = _subset_sums(gathered[:half]).T.copy()
    high = _subset_sums(gathered[half:]).T.copy()
    del gathered
    roots = [math.isqrt(n * (n - c) * k) for k in range(c + 1)]
    threshold = np.array(roots, dtype=np.int8)[b_sizes]
    weight = math.lcm(*range(1, c + 1)) // b_sizes.astype(np.int64)
    violations = 0
    step = max(1, _SWEEP_SLICE_PAIRS // b_sizes.size)
    for lo in range(0, a_masks.size, step):
        d = np.repeat(high[lo : lo + step], 1 << half, axis=1)
        d += np.repeat(
            low[lo : lo + step, None], 1 << (c - half), axis=1
        ).reshape(d.shape)
        d = d[:, 1:]
        violations += int(np.count_nonzero(d > threshold))
        top = d.max(axis=0)
        np.maximum(top, 0, out=top)  # at a maximum of 0 every d <= 0 attains it
        key = top.astype(np.int64)
        key *= key
        key *= weight
        cols = np.flatnonzero(key == key.max())
        num, den = int(top[cols[0]]) ** 2, n * (n - c) * int(b_sizes[cols[0]])
        if num * best[1] < best[0] * den:
            continue  # no pair of this slice can become the worst pair
        first = (np.maximum(d[:, cols], 0) == top[cols]).argmax(axis=0)
        for r, g in zip(first.tolist(), (cols + 1).tolist()):
            a = int(a_masks[lo + r])
            comp = [v for v in range(n) if not (a >> v) & 1]
            b = vertex_mask(comp[i] for i in range(c) if (g >> i) & 1)
            num, den = int(top[g - 1]) ** 2, n * (n - c) * int(b_sizes[g - 1])
            best = _fold_best(best, num, den, (a, b))
    return violations, best


def _fold_best(best: _Best, num: int, den: int, pair: tuple[int, int]) -> _Best:
    """The running best (num, den, pair) after it meets one candidate.

    The larger exact fraction wins, by integer cross-multiplication; on a tie
    the smaller (A, B) bitmask pair does.  The sweep settles its ties here,
    one candidate per tied column.  The sampler's lexsort picks the same
    pair among a chunk's tied rows in one vectorised step: a chunk at tiny n
    can hold thousands of tied rows, and folding each of them here took a
    10^6-sample check at n = 3 from 0.1 s to 1.7 s on one core.
    """
    best_num, best_den, best_pair = best
    if best_pair is not None:
        cmp = num * best_den - best_num * den
        if cmp < 0 or (cmp == 0 and pair >= best_pair):
            return best
    return num, den, pair


def _rows_at_max(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Indices of the rows whose num / den is largest, compared exactly.

    The rows with the largest float64 quotient hold every exact maximum (see
    `sampled_mixing_check`); distinct ratios can share that float, so those
    rows are cross-multiplied in int64, exact while num * den < 2^63.
    """
    ratio = num / den
    top = np.flatnonzero(ratio == ratio.max())
    r = top[0]
    while True:
        above = top[num[top] * den[r] > num[r] * den[top]]
        if above.size == 0:
            return top[num[top] * den[r] == num[r] * den[top]]
        r = above[0]


def sampled_mixing_check(t: Tournament, samples: int, seed: int) -> MixingReport:
    """Seeded uniform sampling of (A, B, neither) assignments.

    Each vertex independently draws a trit from the seeded stream (1 -> A,
    2 -> B, 0 -> neither); assignments with an empty side are skipped and do
    not count toward `samples`.  The pairs checked are the first `samples`
    valid rows of the stream; each chunk draws only as many rows as samples
    remain, so no trit is drawn past the last row that can be used.  A chunk
    holds _SAMPLE_CHUNK_TRITS // min(n, 256) rows (one at least), and its
    size cannot change a result.  The indicator and product buffers are
    allocated once per call at the first chunk's size and every chunk writes
    into them, so a chunk allocates only its trits (at most 64 KiB, below
    glibc's mmap threshold), its few per-row vectors and the rng's 128 KiB
    sub-block buffers.  d is exact in float32, as its partial sums stay
    within n^2/4 (`tourney._F32_EXACT`).

    The worst pair is found per chunk without a loop over rows.  The ratio
    d_+^2 / (n |A| |B|) is formed in float64: numerator and denominator are
    integers below 2^53 for n <= 900, and IEEE division rounds correctly, so
    it is monotone in the exact ratio and every row attaining the chunk's
    exact maximum has the chunk's largest float.  Only the rows with that
    float are compared in exact integers.  A chunk whose exact maximum is
    strictly below the running best stops there; otherwise, among its rows
    at the exact maximum the smallest (A, B) bitmask pair is picked by a
    lexsort of their indicator rows, highest vertex first.  Bitmasks are
    built for that one row, which then meets the running best with its own
    d_+^2 and n |A| |B| (rows at one ratio can differ in both) under the same
    exact compare and tie-break.
    """
    n = t.n
    if n < 2:
        raise ValueError("sampling needs at least two vertices")
    if n > SAMPLE_CAP:
        raise ValueError(f"sampled check supports n <= {SAMPLE_CAP}, got {n}")
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    # Every partial sum of d is an integer of size at most |A||B| <= n^2/4,
    # so the float32 matmul and row dot (far faster than int64, which has no
    # BLAS path) are exact (`tourney._F32_EXACT`).  Column n is all ones, so
    # the one matmul also gives |A|.
    signed = np.ones((n, n + 1), dtype=np.float32)
    signed[:, :n] = _signed(t)
    # Above n = 256 a chunk keeps 256 rows: with fewer, the matmul that
    # dominates there runs slower (n = 900: 1.3 s at 72 rows, 1.0 s at 256).
    chunk_rows = max(1, _SAMPLE_CHUNK_TRITS // min(n, 256))
    size = min(chunk_rows, samples)
    ind_buf = np.empty((size, n), dtype=np.float32)
    m_buf = np.empty((size, n + 1), dtype=np.float32)
    collected = 0
    violations = 0
    best: _Best = (0, 1, None)
    max_candidates = 64 * samples + 1024  # unreachable for n >= 2; loop guard
    start = 0
    while collected < samples:
        if start >= max_candidates:
            raise RuntimeError("sampling failed to find enough valid assignments")
        rows = min(chunk_rows, samples - collected)
        # The tracer in perfbench wraps this module's `trit_block` binding.
        trits = None  # free the last chunk's draws before the next
        trits = trit_block(seed, start * n, rows * n).reshape(rows, n)
        start += rows
        ind, m = ind_buf[:rows], m_buf[:rows]
        np.equal(trits, 1, out=ind)
        np.matmul(ind, signed, out=m)
        np.equal(trits, 2, out=ind)  # A's indicator is spent: B's replaces it
        na = m[:, n].astype(np.int64)
        nb = (ind @ signed[:, n]).astype(np.int64)
        valid = np.flatnonzero((na > 0) & (nb > 0))
        if valid.size == 0:
            continue
        collected += int(valid.size)
        # d_i = sum_{j in A_i, k in B_i} signed[j, k] = e(A,B) - e(B,A)
        dv = np.einsum("ij,ij->i", m[:, :n], ind)[valid].astype(np.int64)
        den = n * na[valid] * nb[valid]
        dd = np.where(dv > 0, dv * dv, 0)
        violations += int((dd > den).sum())
        tied = _rows_at_max(dd, den)
        first = tied[0]
        if dd[first] * best[1] < best[0] * den[first]:
            continue  # no row of this chunk can become the worst pair
        sides = trits[valid[tied]]
        # lexsort's last key is its primary: A's highest vertex first.
        k = np.lexsort(np.concatenate((sides == 2, sides == 1), axis=1).T)[0]
        # Tied rows share the ratio, not always (d_+^2, den): report the pick's.
        r, row = tied[k], sides[k]
        pair = (
            vertex_mask(np.flatnonzero(row == 1).tolist()),
            vertex_mask(np.flatnonzero(row == 2).tolist()),
        )
        best = _fold_best(best, int(dd[r]), int(den[r]), pair)
    return MixingReport("sampled", samples, violations, *best)


def gap_bound(n: int) -> float:
    """n^1.5 * log2(2n): the mixing-derived cap on C(T,sigma) - C(T,sigma')."""
    return n**1.5 * math.log2(2 * n)


class GapCheck(NamedTuple):
    gap: int
    bound: float
    holds: bool


def check_sigma_gap(t: Tournament, ranking) -> GapCheck:
    """Gap between a ranking and its mirror against the n^1.5 log2(2n) bound."""
    # Each edge is consistent with exactly one of the two: c_rev = binom(n,2) - c.
    gap = 2 * count_consistent(t, ranking) - t.n * (t.n - 1) // 2
    bound = gap_bound(t.n)
    return GapCheck(gap, bound, gap <= bound)


class BoundCheck(NamedTuple):
    lhs: int
    rhs: float
    holds: bool
    vacuous: bool


def bound_is_vacuous(n: int) -> bool:
    """True when binom(n,2)/2 + gap_bound(n) >= binom(n,2), i.e. the cap says
    nothing beyond the trivial C(T) <= binom(n,2)."""
    total = math.comb(n, 2)
    return total / 2 + gap_bound(n) >= total


def check_theorem_bound(t: Tournament, c_value: int) -> BoundCheck:
    """C(T) <= binom(n,2)/2 + n^1.5 log2(2n), with an honest vacuousness flag.

    `c_value` may be the exact maximum consistency or any lower bound for it.
    """
    total = t.n * (t.n - 1) // 2
    if not (0 <= c_value <= total):
        raise ValueError(f"c_value {c_value} outside 0..{total}")
    rhs = total / 2 + gap_bound(t.n)
    return BoundCheck(c_value, rhs, c_value <= rhs, bound_is_vacuous(t.n))
