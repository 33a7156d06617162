from __future__ import annotations

import pytest

from drt.diffset import paley_set
from drt.groups import make_field
from drt.tourney import Tournament, cayley_tournament


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
