from __future__ import annotations

import hashlib
import itertools
import random
import time
import tracemalloc

import numpy as np
import pytest

from drt.diffset import (
    CandidateSet,
    candidate_from_indices,
    is_shds,
    is_skew,
    paley_set,
)
from drt.groups import make_field, make_group
from drt.rng import SplitMix64
import drt.tourney
from drt.tourney import (
    Tournament,
    adjacency_matrix,
    cayley_tournament,
    common_out_neighbors,
    format_tournament,
    is_doubly_regular,
    mask_vertices,
    parse_tournament,
    random_tournament,
    signed_adjacency,
    verify_gram_identities,
)
from drt.verdict import Verdict

from conftest import common_in_neighbors, is_isomorphic_small, rotational, transitive

Z7 = make_group((7,))


def cycle3() -> Tournament:
    return Tournament(3, (0b010, 0b100, 0b001))


def test_tournament_validation():
    with pytest.raises(ValueError):
        Tournament(0, ())
    with pytest.raises(ValueError, match="self-loop"):
        Tournament(2, (0b01, 0b10))
    with pytest.raises(ValueError, match="both ways"):
        Tournament(2, (0b10, 0b01))
    with pytest.raises(ValueError, match="neither way"):
        Tournament(2, (0b00, 0b00))
    with pytest.raises(ValueError):
        Tournament(2, (0b110, 0b00))  # bit out of range
    with pytest.raises(ValueError, match="expected 2 rows, got 1"):
        Tournament(2, (0b10,))


def test_mask_vertices_unpacks_and_refuses_negative_masks():
    assert mask_vertices(0) == []
    assert mask_vertices(0b101001) == [0, 3, 5]
    assert mask_vertices(1 << 900) == [900]
    # -1 has infinitely many set bits in two's complement
    for mask in (-1, -6):
        with pytest.raises(ValueError, match=f"vertex mask {mask} is negative"):
            mask_vertices(mask)


def test_degrees_and_edges():
    t = cycle3()
    assert [t.out_degree(v) for v in range(3)] == [1, 1, 1]
    assert t.has_edge(0, 1) and t.has_edge(1, 2) and t.has_edge(2, 0)
    assert not t.has_edge(1, 0)


# ------------------------------------------------------------------ cayley


def test_cayley_edge_convention(t7):
    # x beats y exactly when x - y lands in the difference set
    d = {1, 2, 4}
    for x in range(7):
        for y in range(7):
            if x != y:
                assert t7.has_edge(x, y) == ((x - y) % 7 in d)
    # vertex 0's out-neighborhood is the negated set
    assert sorted(v for v in range(7) if t7.has_edge(0, v)) == [3, 5, 6]


def test_cayley_rejects_non_skew_sets():
    with pytest.raises(ValueError, match="zero"):
        cayley_tournament(candidate_from_indices(Z7, [0, 1, 2]))
    with pytest.raises(ValueError):
        cayley_tournament(candidate_from_indices(Z7, [2, 3, 5]))  # 2, -2 both in
    with pytest.raises(ValueError):
        cayley_tournament(candidate_from_indices(Z7, [1, 2]))  # 3, 4 uncovered


@pytest.mark.parametrize(
    "moduli, indices, reason",
    [
        ((7,), [0, 1, 2], "contains the zero element"),
        ((7,), [2, 3, 5], "both (2,) and -(2,) = (5,) present"),
        ((7,), [1, 2], "element (3,) is in neither D nor -D"),
        ((3, 5), [0, 7], "contains the zero element"),
        ((3, 5), [14, 1, 4, 11], "both (0, 1) and -(0, 1) = (0, 4) present"),
        ((3, 5), [1, 2, 5, 6, 7], "element (1, 3) is in neither D nor -D"),
        ((9, 3), [0, 26, 4], "contains the zero element"),
        ((9, 3), [26, 4, 24, 2], "both (1, 1) and -(1, 1) = (8, 2) present"),
        ((9, 3), [1, 3, 4], "element (1, 2) is in neither D nor -D"),
    ],
)
def test_cayley_names_the_skew_failure(moduli, indices, reason):
    d = candidate_from_indices(make_group(moduli), indices)
    assert is_skew(d) == Verdict(False, reason)
    with pytest.raises(ValueError) as exc:
        cayley_tournament(d)
    assert str(exc.value) == f"set is not skew: {reason}"


def test_skew_iff_tournament_well_defined():
    for combo in itertools.combinations(range(1, 7), 3):
        d = candidate_from_indices(Z7, combo)
        if is_skew(d):
            cayley_tournament(d)  # must not raise
        else:
            with pytest.raises(ValueError):
                cayley_tournament(d)


def test_shds_iff_doubly_regular_over_all_skew_3_subsets():
    seen = 0
    for combo in itertools.combinations(range(1, 7), 3):
        d = candidate_from_indices(Z7, combo)
        if not is_skew(d):
            continue
        seen += 1
        t = cayley_tournament(d)
        assert is_shds(d).ok == is_doubly_regular(t).ok
    assert seen == 8  # one choice from each pair {x, -x}


def _cayley_rows_reference(d) -> tuple[int, ...]:
    """The per-pair build that index arithmetic replaced: one validating
    `group.index(group.sub(x, dd))` per (element, member) pair."""
    group = d.group
    return tuple(
        sum(1 << group.index(group.sub(x, dd)) for dd in d.elements)
        for x in group.elements()
    )


def _greedy_skew_set(moduli) -> CandidateSet:
    """The first of each pair {x, -x} in index order: skew in any odd group."""
    group = make_group(moduli)
    chosen: set = set()
    for x in list(group.elements())[1:]:
        if group.neg(x) not in chosen:
            chosen.add(x)
    return CandidateSet(group, frozenset(chosen))


def _cayley_cases():
    for combo in itertools.combinations(range(1, 7), 3):
        d = candidate_from_indices(Z7, combo)
        if is_skew(d):
            yield pytest.param(d, id="z7-" + "".join(map(str, combo)))
    for p, k in ((3, 1), (7, 1), (11, 1), (19, 1), (23, 1), (3, 3), (31, 1),
                 (43, 1), (3, 5), (251, 1)):
        yield pytest.param(paley_set(make_field(p, k)), id=f"paley{p ** k}")
    for moduli in ((3, 5), (5, 3), (3, 3, 5), (9, 3)):
        d = _greedy_skew_set(moduli)
        yield pytest.param(d, id=f"greedy-{d.group}")


@pytest.mark.parametrize("d", list(_cayley_cases()))
def test_cayley_rows_match_per_pair_build(d):
    assert cayley_tournament(d).rows == _cayley_rows_reference(d)


# ------------------------------------------------------------ double regular


def test_paley_fixtures_are_doubly_regular(paley):
    for p, k in [(3, 1), (7, 1), (11, 1), (19, 1), (23, 1), (3, 3)]:
        t = paley(p, k)
        assert is_doubly_regular(t).ok
        assert verify_gram_identities(t).ok


def test_common_neighbor_counts(t7):
    for x in range(7):
        for y in range(x + 1, 7):
            assert len(common_out_neighbors(t7, x, y)) == 1  # (7-3)/4
            assert len(common_in_neighbors(t7, x, y)) == 1
    with pytest.raises(ValueError):
        common_out_neighbors(t7, 2, 2)


def test_transitive_is_not_doubly_regular(transitive8):
    v = is_doubly_regular(transitive8)
    assert not v.ok
    # n = 8 already fails the order congruence
    assert "mod 4" in v.reason


def test_regular_but_not_doubly_regular():
    # the rotational tournament on 7 with symbol {1, 2, 3}: regular, yet the
    # common-out-neighbor counts are uneven
    rows = [0] * 7
    for x in range(7):
        for s in (1, 2, 3):
            rows[x] |= 1 << ((x + s) % 7)
    t = Tournament(7, tuple(rows))
    assert all(t.out_degree(v) == 3 for v in range(7))
    v = is_doubly_regular(t)
    assert not v.ok and "common" in v.reason


def test_is_doubly_regular_needs_n_at_least_3():
    with pytest.raises(ValueError):
        is_doubly_regular(Tournament(1, (0,)))


# ----------------------------------------------------------------- matrices


def test_adjacency_matrix_partition(t7):
    m = adjacency_matrix(t7)
    n = t7.n
    assert m.dtype == np.int64
    assert np.array_equal(m + m.T, np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64))


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 64, 65])
def test_adjacency_matrix_matches_bit_loop(n):
    t = random_tournament(n, 900 + n)
    want = np.zeros((n, n), dtype=np.int64)
    for i, row in enumerate(t.rows):
        for j in range(n):
            if (row >> j) & 1:
                want[i, j] = 1
    got = adjacency_matrix(t)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


def test_signed_adjacency_is_antisymmetric(t7):
    s = signed_adjacency(t7)
    assert np.array_equal(s, -s.T)
    assert np.array_equal(np.abs(s), np.ones_like(s) - np.eye(t7.n, dtype=np.int64))


def test_signed_adjacency_is_int64_so_its_gram_product_cannot_wrap():
    # the diagonal of S S^T is n - 1 = 199, past int8's 127
    s = signed_adjacency(random_tournament(200, 17))
    assert s.dtype == np.int64
    f = s.astype(np.float64)
    assert np.array_equal(s @ s.T, f @ f.T)


def test_gram_identities_exact_values(t11):
    m = adjacency_matrix(t11)
    n = 11
    expected = ((n + 1) // 4) * np.eye(n, dtype=np.int64) + ((n - 3) // 4) * np.ones(
        (n, n), dtype=np.int64
    )
    assert np.array_equal(m @ m.T, expected)
    s = signed_adjacency(t11)
    assert np.array_equal(s @ s.T, n * np.eye(n, dtype=np.int64) - np.ones((n, n), dtype=np.int64))
    # column inner products: -1 everywhere off the diagonal
    sts = s.T @ s
    assert np.array_equal(sts, s @ s.T)  # S is normal here


def test_gram_verdict_names_first_mismatch(transitive8):
    v = verify_gram_identities(transitive8)
    assert not v.ok
    assert "entry" in v.reason


def test_gram_fails_on_even_order():
    t = random_tournament(6, 3)
    v = verify_gram_identities(t)
    assert not v.ok  # random 6-tournament is never a DRT
    assert v.reason.startswith("SS^T entry (")


def test_gram_passes_on_one_vertex():
    assert verify_gram_identities(Tournament(1, (0,))) == Verdict(True, "")


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_gram_agrees_with_double_regularity_on_every_tournament(n):
    # all 2^binom(n,2) orientations: 8 + 64 + 1024 + 32768 = 33,864 in total
    pairs = list(itertools.combinations(range(n), 2))
    passed = 0
    for bits in range(1 << len(pairs)):
        rows = [0] * n
        for k, (i, j) in enumerate(pairs):
            if (bits >> k) & 1:
                rows[i] |= 1 << j
            else:
                rows[j] |= 1 << i
        t = Tournament(n, tuple(rows))
        gram = verify_gram_identities(t)
        assert gram.ok == is_doubly_regular(t).ok, rows
        passed += gram.ok
        _check_verdict_pair(t)
    assert passed == (2 if n == 3 else 0)  # the two 3-cycles


@pytest.mark.parametrize("p, k", [(3, 1), (7, 1), (11, 1), (19, 1), (23, 1), (3, 3)])
def test_gram_and_double_regularity_both_fail_with_one_pair_flipped(paley, p, k):
    t = paley(p, k)
    rows = list(t.rows)
    rows[0] ^= 1 << 1
    rows[1] ^= 1 << 0
    flipped = Tournament(t.n, tuple(rows))
    assert not verify_gram_identities(flipped).ok
    assert not is_doubly_regular(flipped).ok
    _check_verdict_pair(flipped)


def test_one_gram_product_decides_both_verdicts(monkeypatch, paley):
    decoded = []

    def counting(t):
        decoded.append(t.n)
        return signed(t)

    signed = drt.tourney._signed
    monkeypatch.setattr(drt.tourney, "_signed", counting)
    t = Tournament(27, paley(3, 3).rows)
    assert is_doubly_regular(t).ok and verify_gram_identities(t).ok
    assert verify_gram_identities(t).ok and is_doubly_regular(t).ok
    assert decoded == [27, 27]  # the construction check, then one product


# ------------------------------------------------------------------- random


def _random_rows_reference(n: int, seed: int) -> tuple[int, ...]:
    """The per-pair build: one coin per pair (0,1), (0,2), ..., (n-2, n-1)."""
    gen = SplitMix64(seed)
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if gen.coin():
                rows[i] |= 1 << j
            else:
                rows[j] |= 1 << i
    return tuple(rows)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 17, 40, 65])
def test_random_tournament_matches_per_pair_build(n):
    for seed in (0, 1, 2**64 - 1):
        assert random_tournament(n, seed).rows == _random_rows_reference(n, seed)


def test_builders_pass_the_full_check(paley):
    # both builders skip Tournament.__post_init__; rebuilding through the
    # public constructor runs every check on what they made
    built = [paley(p, k) for p, k in ((3, 1), (7, 1), (11, 1), (19, 1), (23, 1),
                                      (3, 3), (3, 5), (251, 1))]
    built += [random_tournament(n, seed) for n in range(1, 65) for seed in (0, 1)]
    for t in built:
        assert type(t) is Tournament
        assert Tournament(t.n, t.rows) == t


def test_random_tournament_refuses_orders_above_the_cap():
    with pytest.raises(ValueError, match="ORDER_CAP"):
        random_tournament(2**16 + 1, 0)
    with pytest.raises(ValueError, match="need at least one vertex, got n = 0"):
        random_tournament(0, 0)


def test_random_tournament_is_deterministic():
    a = random_tournament(9, 42)
    b = random_tournament(9, 42)
    assert a.rows == b.rows
    assert random_tournament(9, 43).rows != a.rows


def test_random_tournament_frozen_digest():
    text = format_tournament(random_tournament(7, 0))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "e742bb8f6ddd441380b17fd0236c0fd213b91d47b96f31a55cec13b7a5ef38a1"
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_random_tournament_is_total(seed):
    t = random_tournament(10, seed)
    assert sum(t.out_degree(v) for v in range(10)) == 45


# -------------------------------------------------------------- isomorphism


def test_isomorphic_to_itself_via_identity(t7):
    assert is_isomorphic_small(t7, t7) == (0, 1, 2, 3, 4, 5, 6)


def test_isomorphism_finds_relabeling(t7):
    perm = [3, 0, 6, 1, 4, 2, 5]
    rows = [0] * 7
    for x in range(7):
        for y in range(7):
            if x != y and t7.has_edge(x, y):
                rows[perm[x]] |= 1 << perm[y]
    relabeled = Tournament(7, tuple(rows))
    w = is_isomorphic_small(t7, relabeled)
    assert w is not None
    for x in range(7):
        for y in range(7):
            if x != y:
                assert t7.has_edge(x, y) == relabeled.has_edge(w[x], w[y])


def test_non_isomorphic_pairs():
    assert is_isomorphic_small(cycle3(), transitive(3)) is None
    assert is_isomorphic_small(cycle3(), transitive(4)) is None  # sizes differ


def test_isomorphism_cap():
    with pytest.raises(ValueError):
        is_isomorphic_small(transitive(13), transitive(13))
    assert is_isomorphic_small(transitive(13), transitive(13), cap=13) is not None


# -------------------------------------------------------------- file format


def test_format_round_trip(t7):
    text = format_tournament(t7)
    assert text.splitlines()[0] == "7"
    assert parse_tournament(text).rows == t7.rows
    assert format_tournament(parse_tournament(text)) == text


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("2\n01\n10\n", "both ways"),
        ("2\n00\n00\n", "neither way"),
        ("2\n11\n00\n", "self-loop"),
        ("3\n010\n001\n", "expected 3"),
        ("2\n010\n10\n", "expected 2"),
        ("x\n0\n", "line 1"),
        ("2\n0a\n10\n", "line 2"),
        ("", "line 1: missing vertex count"),
        ("0\n", "line 1: vertex count must be >= 1, got 0"),
        ("2\n01\n00\n\nx\n", "line 5: unexpected content 'x'"),
    ],
)
def test_parse_tournament_errors(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_tournament(text)


@pytest.mark.parametrize("count", ["+2", "0_2", "\u0662", "\uff12"])
def test_parse_tournament_count_is_ascii_digits(count):
    # int() reads each of these as 2, and the two rows below would then parse.
    with pytest.raises(ValueError) as e:
        parse_tournament(f"{count}\n01\n00\n")
    assert str(e.value) == f"line 1: {count!r} is not an integer"
    assert parse_tournament(" 2 \n01\n00\n").rows == (0b10, 0b00)


# ------------------------------------------------- reference bit-row loops
# Per-pair and per-bit loops that read the bit rows directly and share no
# code with the module.


def _construction_error_reference(n: int, rows: list[int]):
    """The message Tournament(n, rows) raises, or None (n >= 1, n rows)."""
    full = (1 << n) - 1
    for i, row in enumerate(rows):
        if not (0 <= row <= full):
            return f"row {i} has bits outside 0..{n - 1}"
        if (row >> i) & 1:
            return f"vertex {i} has a self-loop"
    for i in range(n):
        for j in range(i + 1, n):
            forward = (rows[i] >> j) & 1
            backward = (rows[j] >> i) & 1
            if forward == backward:
                kind = "both ways" if forward else "neither way"
                return f"pair ({i}, {j}) is oriented {kind}"
    return None


def _gram_reference(t: Tournament) -> Verdict:
    """Every row-major entry of S S^T against n I - J, diagonal included."""
    s = signed_adjacency(t)
    got = s @ s.T
    want = t.n * np.eye(t.n, dtype=np.int64) - 1
    bad = np.argwhere(got != want)
    if bad.size:
        i, j = bad[0]
        return Verdict.failed(
            f"SS^T entry ({i}, {j}) = {got[i, j]}, expected {want[i, j]}"
        )
    return Verdict.passed()


def _check_verdict_pair(t: Tournament) -> None:
    """Both verdicts, asked in either order, equal both references."""
    want = (_doubly_regular_reference(t), _gram_reference(t))
    assert (is_doubly_regular(t), verify_gram_identities(t)) == want
    fresh = Tournament(t.n, t.rows)
    gram = verify_gram_identities(fresh)
    assert (is_doubly_regular(fresh), gram) == want


def _doubly_regular_reference(t: Tournament) -> Verdict:
    n = t.n
    if n % 4 != 3:
        return Verdict.failed(f"order: n = {n} is not 3 (mod 4)")
    half = (n - 1) // 2
    for v in range(n):
        deg = t.rows[v].bit_count()
        if deg != half:
            return Verdict.failed(
                f"degree: vertex {v} has out-degree {deg}, expected {half}"
            )
    quarter = (n - 3) // 4
    for x in range(n):
        for y in range(x + 1, n):
            both_out = (t.rows[x] & t.rows[y]).bit_count()
            if both_out != quarter:
                return Verdict.failed(
                    f"pair ({x}, {y}): common out-neighbors {both_out},"
                    f" expected {quarter}"
                )
    return Verdict.passed()


def _format_reference(t: Tournament) -> str:
    lines = [str(t.n)]
    for row in t.rows:
        lines.append("".join("1" if (row >> j) & 1 else "0" for j in range(t.n)))
    return "\n".join(lines) + "\n"


def _damaged_copies(t: Tournament, rng: random.Random):
    """Copies with one to three pairs set both ways or neither way, each with
    and without an added self-loop, and one with a bit outside 0..n-1."""
    n = t.n
    if n >= 2:
        for count in (1, 2, 3):
            for both in (True, False):
                rows = list(t.rows)
                for _ in range(count):
                    i, j = rng.sample(range(n), 2)
                    if both:
                        rows[i] |= 1 << j
                        rows[j] |= 1 << i
                    else:
                        rows[i] &= ~(1 << j)
                        rows[j] &= ~(1 << i)
                yield rows
                v = rng.randrange(n)
                yield rows[:v] + [rows[v] | 1 << v] + rows[v + 1 :]
    v = rng.randrange(n)
    yield list(t.rows[:v]) + [t.rows[v] | 1 << n] + list(t.rows[v + 1 :])


def _reference_cases():
    for n in range(1, 41):
        yield f"random{n}", random_tournament(n, 300 + n)
    for p, k in ((3, 1), (7, 1), (11, 1), (19, 1), (23, 1), (3, 3)):
        yield f"paley{p ** k}", cayley_tournament(paley_set(make_field(p, k)))
    # regular but not doubly regular: the pair reason is reached
    for n in (7, 11, 15, 19):
        for signs in itertools.islice(itertools.product((0, 1), repeat=n // 2), 1, 5):
            yield f"rotational{n}-{signs}", rotational(n, signs)


def _check_against_reference(t: Tournament) -> None:
    m = adjacency_matrix(t)  # it reads _signed too, so M is pinned to the bits
    assert m.tolist() == [[(row >> j) & 1 for j in range(t.n)] for row in t.rows]
    s = drt.tourney._signed(t)
    assert s.dtype == np.int8 and np.array_equal(s, m - m.T)
    assert format_tournament(t) == _format_reference(t)
    if t.n >= 3:
        _check_verdict_pair(t)


@pytest.mark.parametrize("name, t", list(_reference_cases()))
def test_bit_row_readers_match_reference_loops(name, t):
    _check_against_reference(t)
    rng = random.Random(name)
    for rows in _damaged_copies(t, rng):
        want = _construction_error_reference(t.n, rows)
        if want is None:
            _check_against_reference(Tournament(t.n, tuple(rows)))
            continue
        with pytest.raises(ValueError) as exc:
            Tournament(t.n, tuple(rows))
        assert str(exc.value) == want


def test_paley_2187_scale():
    """Z3^7: the verdicts and the Cayley build stay seconds and tens of MiB."""
    d = paley_set(make_field(3, 7))
    started = time.perf_counter()
    assert is_shds(d).ok
    t = cayley_tournament(d)
    assert is_doubly_regular(t).ok
    assert verify_gram_identities(t).ok
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"Z3^7 checks took {elapsed:.2f}s"
    tracemalloc.start()
    try:
        fresh = cayley_tournament(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20, f"cayley_tournament peaked at {peak / 2**20:.1f} MiB"
    # S and S S^T are the only n x n float64 arrays of the one product that
    # decides both verdicts
    tracemalloc.start()
    try:
        is_doubly_regular(fresh)
        verify_gram_identities(fresh)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    square = 8 * t.n**2
    assert peak <= 2.5 * square, f"verdicts peaked at {peak / square:.2f}x 8n^2 bytes"
