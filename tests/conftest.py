"""Shared fixtures, and the reference oracles that only tests call.

The oracles are slow by design and share no code with what they check:
`brute_force_max` for the exact DP, `is_isomorphic_small` for the
equivalence engine, `common_in_neighbors` for the double-regularity count.
"""

from __future__ import annotations

import itertools
from typing import Optional

import pytest

from drt.diffset import paley_set
from drt.groups import make_field
from drt.ranking import RankingResult, _result
from drt.tourney import Tournament, cayley_tournament, mask_vertices

BRUTE_CAP = 9


@pytest.fixture(scope="session")
def paley():
    """Factory for (cached) Paley tournaments keyed by (p, k)."""
    cache: dict[tuple[int, int], Tournament] = {}

    def build(p: int, k: int = 1) -> Tournament:
        if (p, k) not in cache:
            cache[(p, k)] = cayley_tournament(paley_set(make_field(p, k)))
        return cache[(p, k)]

    return build


@pytest.fixture(scope="session")
def t7(paley) -> Tournament:
    return paley(7)


@pytest.fixture(scope="session")
def t11(paley) -> Tournament:
    return paley(11)


@pytest.fixture(scope="session")
def t27(paley) -> Tournament:
    return paley(3, 3)


def transitive(n: int) -> Tournament:
    """i -> j whenever i < j."""
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            rows[i] |= 1 << j
    return Tournament(n, tuple(rows))


def rotational(n: int, signs: tuple[int, ...]) -> Tournament:
    """i -> i + d (mod n) for d = s or n - s, one of each pair {s, n - s}."""
    steps = [s if keep else n - s for s, keep in zip(range(1, n // 2 + 1), signs)]
    return Tournament(n, tuple(sum(1 << (i + d) % n for d in steps) for i in range(n)))


@pytest.fixture(scope="session")
def transitive8() -> Tournament:
    return transitive(8)


# ------------------------------------------------------------------ oracles


def brute_force_max(t: Tournament, cap: int = BRUTE_CAP) -> RankingResult:
    """Reference optimum by enumerating all n! rank sequences.

    Kept deliberately independent of the DP (it is the oracle for it).  Ties
    resolve to the lexicographically least rank sequence because candidates
    are generated in lex order and only strict improvements replace.
    """
    n = t.n
    if n > cap:
        raise ValueError(f"brute force capped at n = {cap}, got n = {n}")
    rows = t.rows
    best = -1
    best_ranking: tuple[int, ...] | None = None
    work = 0
    order = [0] * n
    for ranking in itertools.permutations(range(1, n + 1)):
        work += 1
        for v, r in enumerate(ranking):
            order[r - 1] = v
        later = 0
        count = 0
        for i in range(n - 1, -1, -1):
            v = order[i]
            count += (rows[v] & later).bit_count()
            later |= 1 << v
        if count > best:
            best = count
            best_ranking = ranking
    assert best_ranking is not None
    return _result(t, best_ranking, "brute-force", work, claimed=best)


def common_in_neighbors(t: Tournament, x: int, y: int) -> set[int]:
    """Vertices beating both x and y."""
    if x == y:
        raise ValueError(f"need two distinct vertices, got {x} twice")
    return set(mask_vertices(t.in_rows[x] & t.in_rows[y]))


def is_isomorphic_small(
    t1: Tournament, t2: Tournament, cap: int = 12
) -> Optional[tuple[int, ...]]:
    """Exhaustive isomorphism search for small n; returns the least witness.

    The witness maps vertex v of `t1` to witness[v] in `t2`; among all
    isomorphisms it is lexicographically least as a tuple, because vertices
    are mapped in order with candidate images tried ascending.  Returns None
    when the tournaments are not isomorphic.
    """
    if t1.n != t2.n:
        return None
    n = t1.n
    if n > cap:
        raise ValueError(f"isomorphism search capped at n = {cap}, got n = {n}")
    deg1 = [t1.out_degree(v) for v in range(n)]
    deg2 = [t2.out_degree(v) for v in range(n)]
    if sorted(deg1) != sorted(deg2):
        return None
    mapping = [-1] * n
    used = [False] * n

    def extend(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if used[w] or deg2[w] != deg1[v]:
                continue
            if all(
                t1.has_edge(u, v) == t2.has_edge(mapping[u], w) for u in range(v)
            ):
                mapping[v] = w
                used[w] = True
                if extend(v + 1):
                    return True
                used[w] = False
                mapping[v] = -1
        return False

    if extend(0):
        return tuple(mapping)
    return None
