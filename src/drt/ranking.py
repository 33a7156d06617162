"""Rankings that maximize consistent edges: exact DP and heuristics.

A ranking assigns each vertex a rank 1..n (rank 1 first); an edge x -> y is
consistent when x is ranked before y.  The exact optimum C(T) over all n!
rankings is binom(n, 2) minus the fewest arcs a ranking puts backwards, and
those come from a subset dynamic program over the 2^n vertex sets:

    fas(S) = min over v in S of  fas(S \\ {v})  +  |{u in S \\ {v} : v -> u}|

where v is ranked last in S, so its arcs to the rest of S point backwards,
and C(T) = binom(n, 2) - fas(V).  The values take one byte per subset at
every n up to the hard cap 24 (`_dp_layers` bounds them).  They are filled
in row layers: rows of 2^8 low-vertex subsets, one layer per popcount k of
their high vertices, a bounded slice of rows at a time, and the columns of
each row by their own popcount.  Up to n = 20, where the whole table is at
most 1 MiB, every layer is kept.  Above that a layer below the cut
k = (n - 8)//2 + 2 is dropped as soon as the next one is complete, so
beside the layers above the cut only the layer being filled and the one it
reads are held.  Reconstruction backtracks through the kept layers,
breaking ties toward the smallest vertex index.  When the high part of the
set left reaches the cut, the at most cut + 8 vertices left, in ascending
order, are ranked by an exact DP of their own, with the same tie-break and
so the same ranks (Hirschberg's linear-space idea: keep what the backtrack
needs and recompute the rest on a smaller instance).  The blocks are 512
rows at every n, so past what the DP must hold at once (the whole table up
to n = 20, the two largest adjacent layers above) the scratch stays within
about 0.9 MiB at every n up to the cap.  README's "Sizes and budgets"
gives the measured times and peaks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import derive_seed
from .tourney import Tournament, _signed, mask_vertices, random_tournament

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
    later = count = 0
    for v in sorted(range(t.n), key=ranking.__getitem__, reverse=True):
        count += (t.rows[v] & later).bit_count()
        later |= 1 << v
    return count


def reverse_ranking(ranking) -> tuple[int, ...]:
    """Mirror image: rank r becomes n - r + 1."""
    n = len(ranking)
    return tuple(n - r + 1 for r in ranking)


def dp_table_nbytes(n: int) -> int:
    """Bytes in the whole DP value table at size n: 2^n entries of one byte.
    The DP holds all of it at once only up to n = 20."""
    return 1 << n


def _check_dp_cap(n: int) -> None:
    """Refuse n above DP_CAP before anything is allocated."""
    if n > DP_CAP:
        raise ValueError(
            f"exact DP capped at n = {DP_CAP}, its memory doubling per vertex;"
            f" use heuristic_rank for n = {n}"
        )


_BLOCK_BITS = 8  # low vertices per table row: rows of 256 entries
_BLOCK_ROWS = 512  # most rows filled at once at any n: bounds the scratch


def _dp_cut(n: int) -> int:
    """Lowest row layer `_dp_layers` keeps at size n: all of them up to n = 20
    (a table of at most 1 MiB), then those past the middle layer plus two."""
    return 0 if n <= 20 else (n - _BLOCK_BITS) // 2 + 2


def _dp_layers(rows, cut: int) -> tuple[list, np.ndarray]:
    """fas[S], the fewest arcs a ranking of S puts backwards, for the subsets
    S of the tournament with out-neighbour masks `rows`, in row layers: the
    entry of S is layers[k][pos[h], l], where the bits of h are its k high
    vertices b..n-1 and those of l its low vertices 0..b-1.  Layer k holds
    the binom(n-b, k) rows h of popcount k in numeric order; the layers below
    `cut` come back as None.

    A ranking or its reverse puts at most half the arcs of S backwards, so
    fas(S) <= floor(binom(|S|, 2) / 2).  A candidate, fas(S \\ {v}) plus the
    gain |S & out(v)| of ranking v last (v is not in out(v)), is then at most
    floor(binom(|S| - 1, 2) / 2) + |S| - 1, partial sums included: 149 at
    n = 24, and first above 255 at n = 32.  So the layers are uint8 at every
    n, and no sum can wrap.  Blocks start at 0xFF, above every value, and the
    empty set at 0; each candidate is folded in by np.minimum.

    The gain splits into a row part |h & out(v) >> b| and a column part
    |l & out(v)|; for a high vertex both come from one gather of `gain_tab`.
    Removing a high vertex leaves a row of layer k - 1, which is already
    final.  Removing a low vertex stays in the row, so inside a row the
    columns are swept by their popcount.  A layer is filled in blocks of
    _BLOCK_ROWS rows at every n, so a block's scratch does not grow with n,
    while the layers double per vertex; up to n = 19 every layer is a single
    block.  Each block is filled by a call of its own, which frees its
    temporaries before the next block allocates.  The low-vertex steps run on
    the transposed block, one row per column l: gathering columns of the
    block would copy one element at a time, while rows of its transpose copy
    whole and reduce over a long axis.  Layer k - 1 is dropped once layer k
    is complete if k - 1 < cut.
    """
    n = len(rows)
    b = min(n, _BLOCK_BITS)
    width, nrows = 1 << b, 1 << (n - b)
    out_rows = np.array(rows, dtype=np.uint32)
    cols = np.arange(width, dtype=np.uint32)
    col_gain = np.bitwise_count(out_rows[:, None] & cols).astype(np.uint8)
    out_high = out_rows >> b
    # Per low popcount j: the columns l of that popcount, and for each of them
    # its j low vertices v, the columns l ^ 2^v they leave, and their gains.
    col_pc = np.bitwise_count(cols)
    low_steps = []
    for j in range(1, b + 1):
        tgt = np.flatnonzero(col_pc == j)
        v = np.nonzero((tgt[:, None] >> np.arange(b)) & 1)[1].reshape(tgt.size, j)
        src = tgt[:, None] ^ (1 << v)
        low_steps.append((tgt, src, v, col_gain[v, src][:, :, None]))
    # gain_tab[i * (n - b + 1) + r]: the gains of ranking high vertex b + i
    # last, by column, in a row whose part of that gain is r.
    gain_tab = col_gain[b:, None] + np.arange(n - b + 1, dtype=np.uint8)[:, None]
    gain_tab = gain_tab.reshape(-1, width)
    row_pc = np.bitwise_count(np.arange(nrows, dtype=np.uint32))
    pos = np.empty(nrows, dtype=np.int32)  # a layer has <= 12,870 rows at DP_CAP

    def fill(block: np.ndarray, hs: np.ndarray, k: int, prev) -> None:
        """Fill `block`, the rows `hs` of layer k, from layer k - 1 `prev`.
        Every index taken is in range, and mode="clip" spares the bounds
        check and the copy of `out` that np.take makes in its default mode."""
        cand, gains = np.empty_like(block), np.empty_like(block)
        rest = hs.copy()
        for _ in range(k):  # the high vertices of each row, lowest first
            bit = rest & -rest
            rest ^= bit
            w = np.bitwise_count(bit - 1).astype(np.intp)
            r = np.bitwise_count(hs & out_high[b + w])
            np.take(prev, pos[hs ^ bit], axis=0, out=cand, mode="clip")
            np.take(gain_tab, w * (n - b + 1) + r, axis=0, out=gains, mode="clip")
            cand += gains
            np.minimum(block, cand, out=block)
        del cand, gains  # before the low-vertex steps allocate theirs
        bt = np.ascontiguousarray(block.T)
        row_gain = np.bitwise_count(out_high[:b, None] & hs)  # by low vertex
        for tgt, src, v, gain in low_steps:
            cand = np.take(bt, src, axis=0, mode="clip")
            cand += gain
            cand += np.take(row_gain, v, axis=0, mode="clip")
            bt[tgt] = np.minimum(bt[tgt], cand.min(axis=1))
            del cand  # before the next popcount gathers its own
        block[...] = bt.T

    layers: list = []
    for k in range(n - b + 1):
        members = np.flatnonzero(row_pc == k).astype(np.uint32)
        pos[members] = np.arange(members.size, dtype=np.int32)
        layer = np.full((members.size, width), 0xFF, dtype=np.uint8)
        if not k:
            layer[0, 0] = 0  # the empty set
        for lo in range(0, members.size, _BLOCK_ROWS):
            hs = members[lo : lo + _BLOCK_ROWS]
            fill(layer[lo : lo + hs.size], hs, k, layers[k - 1] if k else None)
        layers.append(layer)
        if 0 < k <= cut:
            layers[k - 1] = None
    return layers, pos


def _induced_rows(rows, vertices: list[int]) -> list[int]:
    """Out-neighbour masks of the sub-tournament on `vertices`, renumbered
    0.. in the order given."""
    return [
        sum(1 << j for j, u in enumerate(vertices) if rows[v] >> u & 1)
        for v in vertices
    ]


def _exact_ranks(rows, cut: int) -> tuple[int, list[int]]:
    """C(T) and an optimal ranking, as a rank per vertex, for the tournament
    with out-neighbour masks `rows`, from `_dp_layers(rows, cut)`.

    C(T) = binom(n, 2) - fas(V).  The backtrack peels off the last-ranked
    vertex, smallest index on ties: a v with fas(s \\ {v}) plus its arcs
    into s \\ {v}, now backwards, equal to fas(s).
    Once the high part of the set left reaches the lowest kept layer, its
    predecessors are gone; the at most cut + b vertices left are ranked by an
    exact DP of their own, listed in ascending order, so the tie-break and
    every rank stay what the whole table gives.
    """
    n = len(rows)
    b = min(n, _BLOCK_BITS)
    low = (1 << b) - 1
    layers, pos = _dp_layers(rows, cut)

    def fas(s: int) -> int:
        h = s >> b
        return int(layers[h.bit_count()][pos[h], s & low])

    s = (1 << n) - 1
    value = n * (n - 1) // 2 - fas(s)
    ranks = [0] * n
    for r in range(n, 0, -1):
        k = (s >> b).bit_count()
        if k and layers[k - 1] is None:
            # Through the private helper: a caller that wraps the public name
            # must see one exact_max_consistent call per request.
            left = mask_vertices(s)
            sub_rows = _induced_rows(rows, left)
            for v, rank in zip(left, _exact_ranks(sub_rows, _dp_cut(r))[1]):
                ranks[v] = rank
            break
        target = fas(s)
        for v in mask_vertices(s):
            prev = s & ~(1 << v)
            if fas(prev) + (rows[v] & prev).bit_count() == target:
                ranks[v] = r
                s = prev
                break
        else:  # unreachable: some vertex always attains the min
            raise AssertionError("DP backtrack found no predecessor")
    return value, ranks


def exact_max_consistent(t: Tournament) -> RankingResult:
    """Exact maximum consistency by subset DP; see the module docstring.

    Raises for n above DP_CAP — the table doubles per vertex, so use the
    heuristics beyond it.
    """
    n = t.n
    _check_dp_cap(n)
    value, ranks = _exact_ranks(t.rows, _dp_cut(n))
    return _result(t, tuple(ranks), "exact-dp", 1 << n, claimed=value)


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
    is that tie-break.  A move rotates order[lo..hi] and changes only rows
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
    signed = _signed(t)
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
