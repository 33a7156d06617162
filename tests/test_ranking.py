from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest

from drt import ranking
from drt.diffset import paley_set
from drt.groups import make_field
from drt.ranking import (
    RankingResult,
    _dp_cut,
    _dp_layers,
    _exact_ranks,
    _local_search_moves,
    _order_to_ranking,
    _out_degree_order,
    check_ranking,
    count_consistent,
    dp_table_nbytes,
    exact_max_consistent,
    heuristic_rank,
    random_baseline,
    reverse_ranking,
)
from drt.rng import derive_seed
from drt.tourney import Tournament, cayley_tournament, random_tournament, signed_adjacency

from conftest import brute_force_max, rotational, transitive


def cycle3() -> Tournament:
    return Tournament(3, (0b010, 0b100, 0b001))


def all_tournaments(n: int):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for bits in range(1 << len(pairs)):
        rows = [0] * n
        for b, (i, j) in enumerate(pairs):
            if bits >> b & 1:
                rows[i] |= 1 << j
            else:
                rows[j] |= 1 << i
        yield Tournament(n, tuple(rows))


# ------------------------------------------------------------------ counting


def test_count_consistent_by_hand():
    t = cycle3()
    assert count_consistent(t, (1, 2, 3)) == 2  # only 2->0 points backwards
    assert count_consistent(t, (3, 1, 2)) == 2
    assert count_consistent(t, (2, 1, 3)) == 1  # 1->2 is the only consistent edge
    tr = transitive(4)
    assert count_consistent(tr, (1, 2, 3, 4)) == 6
    assert count_consistent(tr, (4, 3, 2, 1)) == 0


def test_check_ranking_rejects_non_bijections():
    t = cycle3()
    for bad in [(1, 1, 2), (0, 1, 2), (1, 2), (1, 2, 4)]:
        with pytest.raises(ValueError):
            check_ranking(t, bad)


def test_reverse_ranking():
    assert reverse_ranking((1, 2, 3)) == (3, 2, 1)
    assert reverse_ranking((2, 4, 1, 3)) == (3, 1, 4, 2)


def test_forward_plus_reverse_is_all_edges_exhaustive_n4():
    # every tournament on 4 vertices, every ranking
    for t in all_tournaments(4):
        for perm in itertools.permutations(range(1, 5)):
            assert count_consistent(t, perm) + count_consistent(
                t, reverse_ranking(perm)
            ) == 6


@pytest.mark.parametrize("n,seed", [(6, 0), (9, 1), (12, 2), (15, 3)])
def test_forward_plus_reverse_on_random_instances(n, seed):
    import random

    t = random_tournament(n, seed)
    rng = random.Random(seed)
    total = n * (n - 1) // 2
    for _ in range(50):
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        sigma = tuple(perm)
        assert count_consistent(t, sigma) + count_consistent(
            t, reverse_ranking(sigma)
        ) == total


# ------------------------------------------------------------------ exact


def test_exact_equals_brute_exhaustive_small():
    for n in (1, 2, 3):
        for t in all_tournaments(n):
            assert exact_max_consistent(t).value == brute_force_max(t).value
    for t in all_tournaments(4):
        assert exact_max_consistent(t).value == brute_force_max(t).value


def test_paley_7_optimum(t7):
    r = exact_max_consistent(t7)
    assert r.value == 14
    assert r.method == "exact-dp"
    assert r.work == 1 << 7
    assert count_consistent(t7, r.ranking) == 14
    assert brute_force_max(t7).value == 14


def test_paley_7_dp_ranking_frozen(t7):
    # deterministic tie-breaking makes the optimal ranking reproducible
    assert exact_max_consistent(t7).ranking == (7, 6, 5, 4, 3, 2, 1)


def test_paley_11_optimum(t11):
    assert exact_max_consistent(t11).value == 35


def test_transitive_is_fully_consistent():
    r = exact_max_consistent(transitive(9))
    assert r.value == 36
    assert r.ranking == (1, 2, 3, 4, 5, 6, 7, 8, 9)


def test_brute_force_prefers_lexicographically_least():
    assert brute_force_max(cycle3()).ranking == (1, 2, 3)


def test_brute_force_cap():
    with pytest.raises(ValueError):
        brute_force_max(transitive(10))


def _in_masks(t: Tournament) -> list[int]:
    """in[v] has bit u set iff u -> v, read edge by edge."""
    return [sum(1 << u for u in range(t.n) if t.has_edge(u, v)) for v in range(t.n)]


def _exact_reference(t: Tournament) -> tuple[np.ndarray, RankingResult]:
    """The popcount-layer loop that the block sweep replaced, with its
    backtrack: one global argsort of the 2^n popcounts, then per layer and
    vertex a filter of the layer and two gathers.  Returns the whole value
    table and the result."""
    n = t.n
    size = 1 << n
    best = np.zeros(size, dtype=np.uint16)
    pc = np.bitwise_count(np.arange(size, dtype=np.uint32))
    order = np.argsort(pc, kind="stable").astype(np.uint32)
    bounds = np.concatenate(([0], np.cumsum(np.bincount(pc, minlength=n + 1))))
    in_py = _in_masks(t)
    in_rows = [np.uint32(m) for m in in_py]
    for k in range(1, n + 1):
        layer = order[bounds[k] : bounds[k + 1]]
        for v in range(n):
            bit = np.uint32(1 << v)
            masks = layer[(layer & bit) != 0]
            if masks.size == 0:
                continue
            prev = masks ^ bit
            cand = best[prev] + np.bitwise_count(prev & in_rows[v]).astype(np.uint16)
            np.maximum(best[masks], cand, out=cand)
            best[masks] = cand
    ranks = [0] * n
    s = size - 1
    for r in range(n, 0, -1):
        for v in range(n):  # smallest vertex index on ties
            prev = s & ~(1 << v)
            if (s >> v) & 1 and int(best[prev]) + (
                in_py[v] & prev
            ).bit_count() == int(best[s]):
                ranks[v] = r
                s = prev
                break
    value = count_consistent(t, ranks)
    assert value == int(best[-1])
    return best, RankingResult(value, tuple(ranks), "exact-dp", size)


def _dp_cases():
    # With 8 low vertices per row: n <= 8 is one row, n = 9 the first with a
    # high vertex, n = 16 the first whose middle layer of rows is split into
    # slices, and at n = 20 the slice height outgrows its floor.
    for n in [*range(1, 17), 20]:
        yield pytest.param(random_tournament(n, derive_seed(23, n)), id=f"random{n}")
    for n in range(2, 12):
        yield pytest.param(transitive(n), id=f"transitive{n}")
    for n in (7, 11):
        for signs in itertools.product((0, 1), repeat=n // 2):
            yield pytest.param(
                rotational(n, signs), id=f"rotational{n}-{''.join(map(str, signs))}"
            )
    for p in (7, 11, 19, 23):
        t = cayley_tournament(paley_set(make_field(p, 1)))
        yield pytest.param(t, id=f"paley{p}")


def _layers_of(table: np.ndarray, n: int) -> list[np.ndarray]:
    """A flat C(T[S]) table as the backward arcs binom(|S|, 2) - C(T[S]),
    cut into `_dp_layers`' row layers: rows of 2^b low-vertex subsets,
    grouped by the popcount of their high part.  |S| is int64, as
    np.bitwise_count's uint8 would wrap in |S| (|S| - 1) from |S| = 17."""
    size = np.bitwise_count(np.arange(table.size)).astype(np.int64)
    rows = (size * (size - 1) // 2 - table).reshape(-1, 1 << min(n, 8))
    row_pc = np.bitwise_count(np.arange(rows.shape[0]))
    return [rows[row_pc == k] for k in range(rows.shape[0].bit_length())]


@pytest.mark.parametrize("t", list(_dp_cases()))
def test_exact_matches_reference_loop(t):
    table, result = _exact_reference(t)
    expected = _layers_of(table, t.n)
    every, _ = _dp_layers(t.rows, 0)
    assert len(every) == len(expected)
    for layer, want in zip(every, expected):
        assert np.array_equal(layer, want)
    cut = _dp_cut(t.n)
    kept, _ = _dp_layers(t.rows, cut)
    for k, (layer, want) in enumerate(zip(kept, expected)):
        assert layer is None if k < cut else np.array_equal(layer, want)
    assert exact_max_consistent(t) == result


@pytest.mark.parametrize("budget", [1, 3])
@pytest.mark.parametrize("t", [p for p in _dp_cases() if p.values[0].n <= 12])
def test_block_budget_fills_every_layer(monkeypatch, t, budget):
    # The real budget never splits a layer below n = 20: one-row blocks and a
    # partial last block (4 = 3 + 1 rows at n = 12) only run here, also with
    # the layers below the middle one dropped.
    monkeypatch.setattr(ranking, "_BLOCK_ROWS", budget)
    table, result = _exact_reference(t)
    expected = _layers_of(table, t.n)
    for cut in sorted({0, _dp_cut(t.n), max(t.n - 8, 0) // 2}):
        kept, _ = _dp_layers(t.rows, cut)
        assert len(kept) == len(expected)
        for k, (layer, want) in enumerate(zip(kept, expected)):
            assert layer is None if k < cut else np.array_equal(layer, want)
    assert exact_max_consistent(t) == result


def test_dp_cap_and_table_size():
    with pytest.raises(ValueError):
        exact_max_consistent(transitive(25))
    assert dp_table_nbytes(20) == 1 << 20  # 1 MiB: one byte per subset
    assert dp_table_nbytes(20) <= 64 * 2**20
    assert dp_table_nbytes(23) == 1 << 23
    assert dp_table_nbytes(24) == 1 << 24  # one byte at the cap too


def _size_cases():
    for n in (1, 8, 9, 16, 23, 24):
        yield pytest.param(transitive(n), True, id=str(n))
    for p in (7, 11, 19, 23):
        t = cayley_tournament(paley_set(make_field(p, 1)))
        yield pytest.param(t, False, id=f"paley{p}")


@pytest.mark.parametrize("t,is_transitive", list(_size_cases()))
def test_dp_table_size_and_largest_value(t, is_transitive):
    # One byte per subset at every n: no ranking of S puts more than half its
    # arcs backwards, as it or its reverse puts at most half, so every entry
    # is at most floor(binom(|S|, 2) / 2).
    n = t.n
    layers, _ = _dp_layers(t.rows, 0)
    assert all(layer.dtype == np.uint8 for layer in layers)
    assert sum(layer.nbytes for layer in layers) == dp_table_nbytes(n)
    col_pc = np.bitwise_count(np.arange(layers[0].shape[1])).astype(np.int64)
    for k, layer in enumerate(layers):  # |S| = k high vertices + the column's
        size = col_pc + k
        assert (layer <= size * (size - 1) // 4).all()
    if is_transitive:
        assert exact_max_consistent(t).ranking == tuple(range(1, n + 1))


def _cut_cases():
    for n in range(21, 25):
        yield pytest.param(random_tournament(n, derive_seed(31, n)), id=f"random{n}")
    yield pytest.param(cayley_tournament(paley_set(make_field(23, 1))), id="paley23")


@pytest.mark.parametrize("t", list(_cut_cases()))
def test_cut_backtrack_matches_every_layer_kept(t):
    # Above n = 20 the backtrack hands the last vertices to a DP of their own;
    # Paley 23 has many ties, so a changed tie-break would show.
    assert _dp_cut(t.n) > 0
    value, ranks = _exact_ranks(t.rows, 0)
    every = RankingResult(value, tuple(ranks), "exact-dp", 1 << t.n)
    assert exact_max_consistent(t) == every


@pytest.mark.parametrize("t", [random_tournament(15, 3), transitive(14)])
def test_backtrack_hands_off_at_every_cut(t):
    every = _exact_ranks(t.rows, 0)
    for cut in range(1, t.n - 8 + 1):
        assert _exact_ranks(t.rows, cut) == every, cut


# ---------------------------------------------------------------- heuristics


def test_out_degree_heuristic_is_perfect_on_transitive():
    r = heuristic_rank(transitive(8), strategy="out-degree")
    assert r.value == 28
    assert r.ranking == (1, 2, 3, 4, 5, 6, 7, 8)


def test_local_search_reaches_the_paley_7_optimum(t7):
    assert heuristic_rank(t7, strategy="local-search").value == 14


def test_heuristics_never_fall_below_half(t7, t11, t27):
    for t in (t7, t11, t27):
        total = t.n * (t.n - 1) // 2
        for strategy in ("out-degree", "local-search"):
            r = heuristic_rank(t, strategy=strategy)
            assert 2 * r.value >= total
            assert count_consistent(t, r.ranking) == r.value


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
def test_local_search_dominates_out_degree(seed):
    t = random_tournament(13, seed)
    a = heuristic_rank(t, strategy="out-degree").value
    b = heuristic_rank(t, strategy="local-search").value
    assert b >= a
    assert b <= exact_max_consistent(t).value


def _local_search_reference(t: Tournament) -> tuple[int, tuple[int, ...], int]:
    """The one-move-at-a-time loop that the vectorised pass replaced: the same
    start (the out-degree order), the same moves and tie-break, the same work."""
    n = t.n
    order = sorted(range(n), key=heuristic_rank(t, "out-degree").ranking.__getitem__)
    rows, in_rows = t.rows, _in_masks(t)
    work = 0
    while True:
        best_delta = 0
        best_key = None  # (vertex, target position)
        best_move = None  # (from position, to position)
        for i, v in enumerate(order):
            delta = 0
            for j in range(i + 1, n):
                delta += 1 if (in_rows[v] >> order[j]) & 1 else -1
                work += 1
                if delta > best_delta or (
                    delta == best_delta and best_delta > 0 and (v, j) < best_key
                ):
                    best_delta, best_key, best_move = delta, (v, j), (i, j)
            delta = 0
            for j in range(i - 1, -1, -1):
                delta += 1 if (rows[v] >> order[j]) & 1 else -1
                work += 1
                if delta > best_delta or (
                    delta == best_delta and best_delta > 0 and (v, j) < best_key
                ):
                    best_delta, best_key, best_move = delta, (v, j), (i, j)
        if best_move is None:
            break
        i, j = best_move
        order.insert(j, order.pop(i))
    ranking = [0] * n
    for pos, v in enumerate(order):
        ranking[v] = pos + 1
    return count_consistent(t, ranking), tuple(ranking), work


def _local_search_cases():
    for n in (*range(1, 41), 48, 64):
        yield pytest.param(random_tournament(n, derive_seed(41, n)), id=f"random{n}")
    for n in (7, 11):
        for signs in itertools.product((0, 1), repeat=n // 2):
            yield pytest.param(
                rotational(n, signs), id=f"rotational{n}-{''.join(map(str, signs))}"
            )
    for p, k in ((7, 1), (11, 1), (19, 1), (23, 1), (3, 3), (31, 1), (43, 1)):
        t = cayley_tournament(paley_set(make_field(p, k)))
        yield pytest.param(t, id=f"paley{t.n}")


@pytest.mark.parametrize("t", list(_local_search_cases()))
def test_local_search_matches_reference_loop(t):
    r = heuristic_rank(t, strategy="local-search")
    assert (r.value, r.ranking, r.work) == _local_search_reference(t)


def test_local_search_frozen_at_q243(paley):
    # Z3^5: the reference loop takes seconds here, so its output is frozen.
    r = heuristic_rank(paley(3, 5), strategy="local-search")
    assert (r.value, r.work) == (16071, 11_055_528)
    digest = hashlib.sha256(",".join(map(str, r.ranking)).encode()).hexdigest()
    assert digest == "4870f2ef4faa47ffeb20a1ecf769cd548617bd252896fe96d11e8d965bd7c129"


def test_local_search_frozen_at_q251(paley):
    # one pass: the out-degree order of Paley 251 admits no improving move
    r = heuristic_rank(paley(251), strategy="local-search")
    assert (r.value, r.work) == (16566, 62_750)
    digest = hashlib.sha256(",".join(map(str, r.ranking)).encode()).hexdigest()
    assert digest == "0fca10415adcaee4e16d877bdaacd333dc86729a3cb81aae011bb85adabeab81"


@pytest.mark.parametrize(
    "t",
    [
        pytest.param(cayley_tournament(paley_set(make_field(3, 3))), id="paley27"),
        pytest.param(random_tournament(40, derive_seed(41, 40)), id="random40"),
    ],
)
def test_local_search_table_matches_fresh_prefix_sums(t):
    n = t.n
    signed = signed_adjacency(t).astype(np.int32)
    order = np.array(_out_degree_order(t), dtype=np.intp)
    moves = 0
    for moved, table in _local_search_moves(signed, order):
        fresh = np.zeros((n + 1, n), dtype=np.int32)
        np.cumsum(signed[moved], axis=0, out=fresh[1:])
        assert np.array_equal(table, fresh)
        moves += 1
    r = heuristic_rank(t, strategy="local-search")
    assert moves > 0
    assert (_order_to_ranking(order.tolist()), (moves + 1) * n * (n - 1)) == (r.ranking, r.work)


def test_local_search_fails_instead_of_looping(monkeypatch):
    def endless(signed, order):
        while True:
            yield order, None

    monkeypatch.setattr("drt.ranking._local_search_moves", endless)
    # binom(6, 2) // 2 = 7 moves at most, so the eighth is a fault
    with pytest.raises(AssertionError, match="made 8 moves"):
        heuristic_rank(transitive(6), strategy="local-search")


def test_unknown_strategy():
    with pytest.raises(ValueError):
        heuristic_rank(cycle3(), strategy="simulated-annealing")


# ------------------------------------------------------------------ baseline


def test_baseline_deterministic_and_above_half():
    a = random_baseline(10, 20, 5)
    b = random_baseline(10, 20, 5)
    assert a == b
    assert a.n == 10 and a.trials == 20
    assert a.min_value >= 45 / 2
    assert a.min_ratio <= a.mean_ratio <= a.max_ratio
    assert len(a.values) == 20


def test_baseline_refuses_bad_sizes():
    with pytest.raises(ValueError, match="baseline needs at least two vertices, got n = 1"):
        random_baseline(1, 5, 0)
    with pytest.raises(ValueError, match="need at least one trial, got 0"):
        random_baseline(5, 0, 0)


def test_baseline_uses_child_seeds():
    s = random_baseline(8, 3, 7)
    expected = [
        exact_max_consistent(random_tournament(8, derive_seed(7, i))).value
        for i in range(3)
    ]
    assert list(s.values) == expected


def test_baseline_epsilon_definition():
    s = random_baseline(9, 10, 0)
    # value = (1/2 + eps) * binom(n, 2), so eps tracks the excess over half
    total = 36
    eps = max(v / total - 0.5 for v in s.values)
    assert s.max_epsilon == pytest.approx(eps)
