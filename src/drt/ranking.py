"""Rankings that maximize consistent edges: exact DP and heuristics.

A ranking assigns each vertex a rank 1..n (rank 1 first); an edge x -> y is
consistent when x is ranked before y.  The exact optimum over all n! rankings
comes from a subset dynamic program over the 2^n prefix sets:

    best(S) = max over v in S of  best(S \\ {v})  +  |{u in S \\ {v} : u -> v}|

where S is the set of earliest-ranked |S| vertices and v the last among them.
The value table is one byte per subset up to n = 23 (1 MiB at n = 20, 8 MiB
at 23) and two at the hard cap 24 (32 MiB).  It is filled in numeric-order
blocks (see `_dp_table`): rows of 2^8 low-vertex subsets, swept by the
popcount of their high vertices, a bounded slice of rows at a time, and the
columns of each row by their own popcount.  Measured in-process on one core
of a 2-vCPU VM (Python 3.11, numpy 2.4), median of 7 runs: 21 ms at n = 20,
59 ms at n = 22, 93 ms at n = 23, 0.34 s at n = 24; the tracemalloc peak of
the whole call is 1.15-1.20x the table at n = 20-24.  Reconstruction
backtracks through the table, breaking ties toward the smallest vertex index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import derive_seed
from .tourney import Tournament, mask_vertices, random_tournament, signed_adjacency

DP_CAP = 24


@dataclass(frozen=True)
class RankingResult:
    """A ranking plus its consistent-edge count.

    `ranking[v]` is the rank of vertex v (1-based).  `work` counts the states
    or candidates the method examined: 2^n subsets for the DP, n for the
    out-degree pass, evaluated moves for local search.
    """

    value: int
    ranking: tuple[int, ...]
    method: str
    work: int


def _result(t: Tournament, ranking: tuple[int, ...], method: str, work: int,
            claimed: int | None = None) -> RankingResult:
    """Every result is re-counted from scratch and range-checked on the way out."""
    value = count_consistent(t, ranking)
    if claimed is not None and claimed != value:
        raise AssertionError(
            f"{method}: claimed value {claimed} != recount {value}"
        )
    total = t.n * (t.n - 1) // 2
    if not (total <= 2 * value and value <= total):
        raise AssertionError(
            f"{method}: value {value} outside [binom/2, binom] = [{total}/2, {total}]"
        )
    return RankingResult(value, ranking, method, work)


def check_ranking(t: Tournament, ranking) -> tuple[int, ...]:
    ranking = tuple(ranking)
    if sorted(ranking) != list(range(1, t.n + 1)):
        raise ValueError(
            f"ranking must be a bijection onto 1..{t.n}, got {ranking}"
        )
    return ranking


def count_consistent(t: Tournament, ranking) -> int:
    """Number of edges x -> y with ranking[x] < ranking[y]."""
    ranking = check_ranking(t, ranking)
    order = [0] * t.n  # order[r-1] = vertex with rank r
    for v, r in enumerate(ranking):
        order[r - 1] = v
    later = 0
    count = 0
    for r in range(t.n - 1, -1, -1):
        v = order[r]
        count += (t.rows[v] & later).bit_count()
        later |= 1 << v
    return count


def reverse_ranking(ranking) -> tuple[int, ...]:
    """Mirror image: rank r becomes n - r + 1."""
    n = len(ranking)
    return tuple(n - r + 1 for r in ranking)


def _dp_dtype(n: int) -> type:
    """Narrowest type holding binom(n, 2): uint8 to n = 23 (253), then uint16."""
    return np.uint8 if n * (n - 1) // 2 <= 0xFF else np.uint16


def dp_table_nbytes(n: int) -> int:
    """Bytes in the DP value table at size n (2^n entries of `_dp_dtype(n)`)."""
    return np.dtype(_dp_dtype(n)).itemsize << n


def _check_dp_cap(n: int) -> None:
    """Refuse n above DP_CAP before anything is allocated."""
    if n > DP_CAP:
        raise ValueError(
            f"exact DP capped at n = {DP_CAP} (table would need"
            f" {dp_table_nbytes(n)} bytes); use heuristic_rank for n = {n}"
        )


_BLOCK_BITS = 8  # low vertices per table row: rows of 256 entries


def _dp_table(t: Tournament) -> np.ndarray:
    """best[S] for every subset S of the vertices, as a flat array.

    Every entry and every candidate, partial sums included, counts consistent
    edges of a sub-tournament on S, so it is at most binom(n, 2); the table is
    `_dp_dtype(n)`, one byte per subset up to n = 23, and no sum can wrap.

    The table is swept as a (2^(n-b), 2^b) array: row h holds the subsets
    whose high vertices b..n-1 are the bits of h, column l their low vertices
    0..b-1.  Taking v last in S gains |S & in(v)| (v is not in in(v)), which
    splits into a row part |h & in(v) >> b| and a column part |l & in(v)|.
    Removing a high vertex leaves a row with one high bit fewer, so rows are
    swept by the popcount of h and that row is already final.  Removing a
    low vertex stays in the row, so inside a row the columns are swept by
    their popcount.  A layer of rows is updated max(2^(n-b) / 32, 2^(14-b))
    rows at a time, which keeps the scratch arrays a small fraction of the
    table.  The low-vertex steps run on the transposed slice, one row per
    column l: gathering columns of the slice would copy one element at a
    time, while rows of its transpose copy whole and reduce over a long axis.
    """
    n = t.n
    b = min(n, _BLOCK_BITS)
    width, nrows = 1 << b, 1 << (n - b)
    dtype = _dp_dtype(n)
    best = np.zeros((nrows, width), dtype=dtype)
    in_rows = np.array(t.in_rows, dtype=np.uint32)
    cols = np.arange(width, dtype=np.uint32)
    col_gain = np.bitwise_count(in_rows[:, None] & cols).astype(dtype)
    in_high = in_rows >> b
    # Per low popcount j: the columns l of that popcount, and for each of them
    # its j low vertices v, the columns l ^ 2^v they leave, and their gains.
    col_pc = np.bitwise_count(cols)
    low_steps = []
    for j in range(1, b + 1):
        tgt = np.flatnonzero(col_pc == j)
        v = np.nonzero((tgt[:, None] >> np.arange(b)) & 1)[1].reshape(tgt.size, j)
        src = tgt[:, None] ^ (1 << v)
        low_steps.append((tgt, src, v, col_gain[v, src][:, :, None]))
    row_pc = np.bitwise_count(np.arange(nrows, dtype=np.uint32))
    height = max(nrows // 32, (1 << 14) >> b)
    high_bits = np.arange(n - b, dtype=np.uint32)
    for k in range(n - b + 1):
        layer = np.flatnonzero(row_pc == k).astype(np.uint32)
        for lo in range(0, layer.size, height):
            hs = layer[lo : lo + height]
            row_gain = np.bitwise_count(hs[:, None] & in_high).astype(dtype)
            block = np.zeros((hs.size, width), dtype=dtype)
            # The k high vertices of each row, lowest first.
            high = np.nonzero((hs[:, None] >> high_bits) & 1)[1].reshape(hs.size, k)
            for i in range(k):
                w = high[:, i] + b
                cand = best[hs ^ (1 << high[:, i])]
                cand += col_gain[w]
                cand += row_gain[np.arange(hs.size), w][:, None]
                np.maximum(block, cand, out=block)
            bt = np.ascontiguousarray(block.T)
            gt = np.ascontiguousarray(row_gain[:, :b].T)
            for tgt, src, v, gain in low_steps:
                cand = bt[src]
                cand += gain
                cand += gt[v]
                bt[tgt] = np.maximum(bt[tgt], cand.max(axis=1))
            best[hs] = bt.T
    return best.reshape(-1)


def exact_max_consistent(t: Tournament) -> RankingResult:
    """Exact maximum consistency by subset DP; see the module docstring.

    Raises for n above DP_CAP — the table doubles per vertex, so use the
    heuristics beyond it.
    """
    n = t.n
    _check_dp_cap(n)
    best = _dp_table(t)
    size = best.size
    value = int(best[size - 1])

    # Backtrack: peel off the last-ranked vertex, smallest index on ties.
    in_rows_py = t.in_rows
    ranks = [0] * n
    s = size - 1
    for r in range(n, 0, -1):
        target = int(best[s])
        for v in mask_vertices(s):
            prev = s & ~(1 << v)
            if int(best[prev]) + (in_rows_py[v] & prev).bit_count() == target:
                ranks[v] = r
                s = prev
                break
        else:  # unreachable: some vertex always attains the max
            raise AssertionError("DP backtrack found no predecessor")
    return _result(t, tuple(ranks), "exact-dp", size, claimed=value)


def _order_to_ranking(order: list[int]) -> tuple[int, ...]:
    ranks = [0] * len(order)
    for pos, v in enumerate(order):
        ranks[v] = pos + 1
    return tuple(ranks)


def _out_degree_order(t: Tournament) -> list[int]:
    """Vertices by descending wins, index ascending on ties — reversed wholesale
    if the mirror ranking scores higher, so the result never drops below half
    the edges."""
    order = sorted(range(t.n), key=lambda v: (-t.out_degree(v), v))
    value = count_consistent(t, _order_to_ranking(order))
    if 2 * value < t.n * (t.n - 1) // 2:
        order.reverse()
    return order


def _local_search_moves(signed: np.ndarray, order: np.ndarray):
    """Apply best reinsertions to `order` in place, yielding (order, table)."""
    n = order.size
    vertices, pos = np.arange(n), np.argsort(order)
    table = np.zeros((n + 1, n), dtype=np.int32)
    np.cumsum(signed[order], axis=0, out=table[1:])
    while True:
        top = table.max(axis=0)
        gain = top - table[pos, vertices]
        v = int(gain.argmax())
        if gain[v] <= 0:
            return
        i, r = int(pos[v]), int((table[:, v] == top[v]).argmax())
        lo, hi, d = (r, i, 1) if r <= i else (i, r - 1, -1)  # left to r, right to r-1
        order[lo : hi + 1] = np.roll(order[lo : hi + 1], d)
        np.add(table[lo + 1 - d : hi + 1 - d], d * signed[v], out=table[lo + 1 : hi + 1])
        pos[order[lo : hi + 1]] = vertices[lo : hi + 1]
        yield order, table


def heuristic_rank(t: Tournament, strategy: str = "local-search") -> RankingResult:
    """Fast rankings without optimality: 'out-degree' or 'local-search'.

    Local search starts from the out-degree order and repeatedly applies the
    best single-vertex reinsertion (ties: smallest moved vertex, then smallest
    target position) until no move improves the count.

    A pass scores all n(n-1) reinsertions from one int32 prefix table, rows by
    position, columns by vertex: table[r, v] sums S[order[k], v] over k < r
    (S = M - M^T).  Moving v from position i to j < i gains table[j, v] -
    table[i, v], to j > i table[j+1, v] - table[i, v] (S[v, v] = 0): v's column
    lists its moves by target, so the first argmax over vertices, then rows,
    is the old tie-break.  A move rotates order[lo..hi] and changes only rows
    lo+1..hi (to old rows lo..hi-1 plus S[v], or lo+2..hi+1 minus S[v]).
    `work` counts n(n-1) moves for every pass, including the last.  The start
    scores at least binom(n,2)/2 and each move gains at least one, so more
    than binom(n,2)//2 moves is a fault and raises.
    """
    n = t.n
    if strategy == "out-degree":
        order = _out_degree_order(t)
        return _result(t, _order_to_ranking(order), "out-degree", n)
    if strategy != "local-search":
        raise ValueError(
            f"unknown strategy {strategy!r}: expected 'out-degree' or 'local-search'"
        )
    order = np.array(_out_degree_order(t), dtype=np.intp)
    signed = signed_adjacency(t).astype(np.int32)
    moves = 0
    for moves, _ in enumerate(_local_search_moves(signed, order), 1):
        if moves > n * (n - 1) // 4:  # unreachable: each gains >= 1 from >= binom/2
            raise AssertionError(f"local search made {moves} moves at n = {n}")
    work = n * (n - 1) * (1 + moves)
    return _result(t, _order_to_ranking(order.tolist()), "local-search", work)


@dataclass(frozen=True)
class BaselineSummary:
    """Exact optima of `trials` seeded random tournaments, as ratios of binom(n,2)."""

    n: int
    trials: int
    seed: int
    values: tuple[int, ...]
    min_value: int
    max_value: int
    min_ratio: float
    mean_ratio: float
    max_ratio: float
    max_epsilon: float  # max_ratio - 1/2: the observed excess over half


def random_baseline(n: int, trials: int, seed: int) -> BaselineSummary:
    """Distribution of C(T) over seeded random tournaments (exact DP per trial)."""
    if n < 2:
        raise ValueError(f"baseline needs at least two vertices, got n = {n}")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    _check_dp_cap(n)  # before any tournament is drawn
    total = n * (n - 1) // 2
    values = []
    for i in range(trials):
        t = random_tournament(n, derive_seed(seed, i))
        values.append(exact_max_consistent(t).value)
    ratios = [v / total for v in values]
    return BaselineSummary(
        n=n,
        trials=trials,
        seed=seed,
        values=tuple(values),
        min_value=min(values),
        max_value=max(values),
        min_ratio=min(ratios),
        mean_ratio=math.fsum(ratios) / trials,
        max_ratio=max(ratios),
        max_epsilon=max(ratios) - 0.5,
    )
