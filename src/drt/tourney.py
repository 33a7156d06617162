"""Tournaments as packed bit rows; Cayley construction and regularity checks.

Adjacency lives in Python integers used as bitsets: bit j of ``rows[i]`` is 1
exactly when the edge i -> j is present.  A `Tournament` passes n and every
row through `operator.index`, so a list or numpy integers give the same record
as a tuple of ints, and floats are refused.  `_pack` (0/1 matrix to rows) and
`_signed` (rows to S = M - M^T, decoded once as int8) are the only converters;
every numeric check and kernel reads that S, and `signed_adjacency` and
`adjacency_matrix` widen it to int64 for callers.  All verification is exact:
the one matrix product, S S^T, runs in float32 on integers of size at most
n <= ORDER_CAP (see `_F32_EXACT`).

The Gram certificate is one identity, S S^T = n I - J (Reid & Brown 1972: it
holds iff T is doubly regular).  It forces S 1 = 0, since |S^T 1|^2 =
1^T S S^T 1 = 0 and S is skew, so every out-degree is (n-1)/2.  Then
S = 2M + I - J, S J = J S = 0, and so 4 M M^T = S S^T + I + (n-2) J: the
identity is equivalent to M M^T = ((n+1)/4) I + ((n-3)/4) J.  It can hold
only at n = 1 or n = 3 (mod 4).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from .diffset import CandidateSet, is_skew
from .groups import ORDER_CAP, _decimal
from .rng import coin_block
from .verdict import Verdict

# float32 has a 24-bit significand, so it holds every integer of size at most
# 2^24 exactly.  A float32 matrix product whose every entry and partial sum is
# such an integer is therefore exact in any summation order, as BLAS may add
# the terms in any order.  `Tournament._gram_defect` (partial sums at most
# n <= ORDER_CAP = 2^16) and `discrepancy.sampled_mixing_check` (at most
# n^2/4 at n <= SAMPLE_CAP) rest on this.
_F32_EXACT = 1 << 24


@dataclass(frozen=True)
class Tournament:
    """Complete oriented graph on vertices 0..n-1.

    Exactly one of (i, j), (j, i) is an edge for every i != j; the invariant
    is checked on construction.
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", operator.index(self.n))
        object.__setattr__(self, "rows", tuple(map(operator.index, self.rows)))
        _check_vertex_count(self.n)  # before _signed decodes an n x n matrix
        if len(self.rows) != self.n:
            raise ValueError(f"expected {self.n} rows, got {len(self.rows)}")
        full = (1 << self.n) - 1
        for i, row in enumerate(self.rows):
            if not (0 <= row <= full):
                raise ValueError(f"row {i} has bits outside 0..{self.n - 1}")
            if (row >> i) & 1:
                raise ValueError(f"vertex {i} has a self-loop")
        bad = _first_off_diagonal(_signed(self) == 0)
        if bad is not None:
            i, j = bad
            kind = "both ways" if self.has_edge(i, j) else "neither way"
            raise ValueError(f"pair ({i}, {j}) is oriented {kind}")

    @cached_property
    def _gram_defect(self) -> Optional[tuple[int, int, int]]:
        """The first row-major entry (i, j) of S S^T off n I - J, with its
        value, or None; `verify_gram_identities` and `is_doubly_regular`
        both read it, so one product decides both.

        Every diagonal entry of S S^T is n - 1, as n I - J asks, so the
        entries off the diagonal are scanned, each against -1.  Once every
        out-degree is (n-1)/2, 4 M M^T = S S^T + I + (n-2) J (module
        docstring), so x < y have (S S^T[x, y] + n - 2) / 4 common
        out-neighbors, and (i, j) is also the first pair whose count is not
        (n-3)/4.  Each entry of S S^T sums n terms of size at most 1, so
        the float32 product is exact (`_F32_EXACT`).  S is dropped before
        the mask is built, so the mask never sits beside both operands.
        """
        s = _signed(self).astype(np.float32)
        got = s @ s.T
        del s
        bad = _first_off_diagonal(got != -1)
        return None if bad is None else (*bad, int(got[bad]))

    def has_edge(self, x: int, y: int) -> bool:
        return bool((self.rows[x] >> y) & 1)

    def out_degree(self, v: int) -> int:
        return self.rows[v].bit_count()


def _check_vertex_count(n: int) -> None:
    """Refuse an order outside 1..ORDER_CAP, before anything is built."""
    if n < 1:
        raise ValueError(f"need at least one vertex, got n = {n}")
    if n > ORDER_CAP:
        raise ValueError(f"n = {n} is above ORDER_CAP = {ORDER_CAP}")


def _signed(t: Tournament) -> np.ndarray:
    """int8 S = M - M^T, M[i, j] being bit j % 8 of byte j // 8 of rows[i]'s
    little-endian bytes; S is 0 on the diagonal and at pairs not oriented once."""
    n = t.n
    width = (n + 7) // 8
    packed = b"".join(row.to_bytes(width, "little") for row in t.rows)
    bits = np.frombuffer(packed, dtype=np.uint8).reshape(n, width)
    m = np.unpackbits(bits, axis=1, count=n, bitorder="little").view(np.int8)
    return m - m.T


def _first_off_diagonal(mask: np.ndarray) -> Optional[tuple[int, int]]:
    """The first row-major True (i, j) off the diagonal of a symmetric
    n x n mask, or None; the diagonal is cleared in place.

    S == 0 and S S^T are both symmetric.  In a symmetric mask (j, i) is True
    with (i, j), and row min(i, j) comes first, so the entry found has
    i < j: it is the first True of the strict upper triangle in row-major
    order, found by one argmax without listing every True entry.
    """
    mask.flat[:: len(mask) + 1] = False
    k = int(mask.argmax())
    return divmod(k, len(mask)) if mask.flat[k] else None


def _pack(bits: np.ndarray) -> tuple[int, ...]:
    """Bit rows of a 0/1 (or boolean) matrix: bit j of row i is entry (i, j)."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def _from_valid(bits: np.ndarray) -> Tournament:
    """The Tournament of a 0/1 matrix valid by construction, left unchecked."""
    t = object.__new__(Tournament)
    t.__dict__.update(n=len(bits), rows=_pack(bits))
    return t


def cayley_tournament(d: CandidateSet) -> Tournament:
    """Cayley tournament of a skew set: x -> y iff x - y in D.

    Skewness is exactly what makes the orientation total and loop-free, so a
    non-skew set is rejected with the offending elements named.
    """
    skew = is_skew(d)
    if not skew:
        raise ValueError(f"set is not skew: {skew.reason}")
    group = d.group
    n = group.order
    vertices = np.arange(n)
    coords = group.coords(vertices)  # once per build, not once per member
    adjacency = np.zeros((n, n), dtype=np.uint8)
    for dd in group.coords(d.indices).T[:, :, None]:  # x -> y iff y = x - dd
        adjacency[vertices, group.indices(coords - dd)] = 1
    return _from_valid(adjacency)


def common_out_neighbors(t: Tournament, x: int, y: int) -> set[int]:
    """Vertices beaten by both x and y."""
    if x == y:
        raise ValueError(f"need two distinct vertices, got {x} twice")
    return set(mask_vertices(t.rows[x] & t.rows[y]))


def vertex_mask(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex indices into a bitmask."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def mask_vertices(mask: int) -> list[int]:
    """Unpack a bitmask into a sorted vertex list."""
    if mask < 0:
        raise ValueError(f"vertex mask {mask} is negative")
    out = []
    while mask:
        v = (mask & -mask).bit_length() - 1
        out.append(v)
        mask &= mask - 1
    return out


def is_doubly_regular(t: Tournament) -> Verdict:
    """Degree (n-1)/2 everywhere and every pair dominating (n-3)/4 in common.

    Only common out-neighbors are counted: once every out-degree is (n-1)/2,
    an edge x -> y gives out(x) = 1 + a + c and in(y) = 1 + b + c with a, b
    the common out- and in-neighbors, so b = a.  The counts are read off
    the S S^T that `verify_gram_identities` checks, formed once per
    tournament (see `Tournament._gram_defect`).  The verdict reports the
    first offending vertex or pair.
    """
    n = t.n
    if n < 3:
        raise ValueError(f"double regularity needs n >= 3, got n = {n}")
    if n % 4 != 3:
        return Verdict.failed(f"order: n = {n} is not 3 (mod 4)")
    half = (n - 1) // 2
    for v in range(n):
        deg = t.out_degree(v)
        if deg != half:
            return Verdict.failed(
                f"degree: vertex {v} has out-degree {deg}, expected {half}"
            )
    defect = t._gram_defect
    if defect is not None:
        x, y, g = defect
        return Verdict.failed(
            f"pair ({x}, {y}): common out-neighbors {(g + n - 2) // 4},"
            f" expected {(n - 3) // 4}"
        )
    return Verdict.passed()


def adjacency_matrix(t: Tournament) -> np.ndarray:
    """0/1 adjacency as an int64 array (row i, column j: edge i -> j)."""
    return (_signed(t) > 0).astype(np.int64)


def signed_adjacency(t: Tournament) -> np.ndarray:
    """M - M^T as int64: +1 for i -> j, -1 for j -> i, 0 on the diagonal."""
    return _signed(t).astype(np.int64)


def verify_gram_identities(t: Tournament) -> Verdict:
    """Exact check of S S^T = n I - J (see the module docstring).

    S is skew, so S^T S = S S^T and column inner products need no check of
    their own.  The verdict names the first mismatching entry.
    """
    defect = t._gram_defect
    if defect is not None:
        i, j, g = defect
        return Verdict.failed(f"SS^T entry ({i}, {j}) = {g}, expected -1")
    return Verdict.passed()


def random_tournament(n: int, seed: int) -> Tournament:
    """Uniformly random orientation of each pair, from the seeded bit stream.

    Pairs are visited in fixed order (0,1), (0,2), ..., (n-2, n-1); each takes
    one draw, so the construction is reproducible bit for bit.  Orders above
    ORDER_CAP are refused before anything is drawn.
    """
    _check_vertex_count(n)
    coins = coin_block(seed, 0, n * (n - 1) // 2)
    # a boolean mask selects the upper triangle in row-major pair order
    upper = np.arange(n)[:, None] < np.arange(n)
    bits = np.zeros((n, n), dtype=np.uint8)
    bits[upper] = coins
    bits.T[upper] = 1 - coins
    return _from_valid(bits)


# --------------------------------------------------------------------------
# File format: first line n, then n rows of '0'/'1' characters.


def parse_tournament(text: str) -> Tournament:
    lines = text.splitlines()
    if not lines:
        raise ValueError("line 1: missing vertex count")
    try:
        n = _decimal(lines[0].strip())
    except ValueError:
        raise ValueError(f"line 1: {lines[0]!r} is not an integer") from None
    if n < 1:
        raise ValueError(f"line 1: vertex count must be >= 1, got {n}")
    if len(lines) < n + 1:
        raise ValueError(f"expected {n} adjacency rows, found {len(lines) - 1}")
    rows = []
    for i in range(n):
        line = lines[i + 1]
        if len(line) != n:
            raise ValueError(
                f"line {i + 2}: row has {len(line)} characters, expected {n}"
            )
        if not line.isascii() or line.encode().translate(None, b"01"):
            bad = min(set(line) - {"0", "1"})
            raise ValueError(f"line {i + 2}: invalid character {bad!r}")
        rows.append(int(line[::-1], 2))
    for extra, line in enumerate(lines[n + 1 :], start=n + 2):
        if line.strip():
            raise ValueError(f"line {extra}: unexpected content {line.strip()!r}")
    return Tournament(n, rows)  # rejects self-loops and bad orientations


def format_tournament(t: Tournament) -> str:
    # character j of a line is bit j of the row: its binary string reversed
    lines = [str(t.n)] + [format(row, f"0{t.n}b")[::-1] for row in t.rows]
    return "\n".join(lines) + "\n"
