"""Tournaments as packed bit rows; Cayley construction and regularity checks.

Adjacency lives in Python integers used as bitsets: bit j of ``rows[i]`` is 1
exactly when the edge i -> j is present.  Popcounts via ``int.bit_count`` make
the pair statistics cheap, and all verification is exact integer arithmetic —
no floating point anywhere in this module.

The Gram certificate is one identity, S S^T = n I - J, where S = M - M^T is
the signed adjacency (Reid & Brown 1972: it holds iff T is doubly regular).
It forces S 1 = 0, since |S^T 1|^2 = 1^T S S^T 1 = 0 and S is skew, so every
out-degree is (n-1)/2.  Then S = 2M + I - J, S J = J S = 0, and so
4 M M^T = S S^T + I + (n-2) J: the identity is equivalent to
M M^T = ((n+1)/4) I + ((n-3)/4) J.  It can hold only at n = 1 or
n = 3 (mod 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .diffset import CandidateSet, is_skew
from .rng import SplitMix64
from .verdict import Verdict


@dataclass(frozen=True)
class Tournament:
    """Complete oriented graph on vertices 0..n-1.

    Exactly one of (i, j), (j, i) is an edge for every i != j; the invariant
    is checked on construction.
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one vertex, got n = {self.n}")
        if len(self.rows) != self.n:
            raise ValueError(f"expected {self.n} rows, got {len(self.rows)}")
        full = (1 << self.n) - 1
        for i, row in enumerate(self.rows):
            if not (0 <= row <= full):
                raise ValueError(f"row {i} has bits outside 0..{self.n - 1}")
            if (row >> i) & 1:
                raise ValueError(f"vertex {i} has a self-loop")
        for i in range(self.n):
            for j in range(i + 1, self.n):
                forward = (self.rows[i] >> j) & 1
                backward = (self.rows[j] >> i) & 1
                if forward == backward:
                    kind = "both ways" if forward else "neither way"
                    raise ValueError(f"pair ({i}, {j}) is oriented {kind}")

    @cached_property
    def in_rows(self) -> tuple[int, ...]:
        """in_rows[j] has bit i set iff i -> j (column masks of the adjacency)."""
        cols = [0] * self.n
        for i, row in enumerate(self.rows):
            for j in mask_vertices(row):
                cols[j] |= 1 << i
        return tuple(cols)

    def has_edge(self, x: int, y: int) -> bool:
        return bool((self.rows[x] >> y) & 1)

    def out_degree(self, v: int) -> int:
        return self.rows[v].bit_count()


def cayley_tournament(d: CandidateSet) -> Tournament:
    """Cayley tournament of a skew set: x -> y iff x - y in D.

    Skewness is exactly what makes the orientation total and loop-free, so a
    non-skew set is rejected with the offending elements named.
    """
    group = d.group
    if not is_skew(d):
        zero = group.zero()
        if zero in d.elements:
            raise ValueError("set is not skew: contains the zero element")
        for x in sorted(d.elements, key=group.index):
            if group.neg(x) in d.elements:
                raise ValueError(
                    f"set is not skew: both {x} and -{x} = {group.neg(x)} present"
                )
        covered = {zero} | d.elements | {group.neg(x) for x in d.elements}
        missing = min(
            (g for g in group.elements() if g not in covered), key=group.index
        )
        raise ValueError(f"set is not skew: element {missing} is in neither D nor -D")
    # x -> y iff y = x - dd for a member dd: subtract on the mixed-radix
    # coordinates of every (element, member) pair at once.
    n = group.order
    coords = np.stack(np.unravel_index(np.arange(n), group.moduli), axis=-1)
    members = np.array(list(d.elements), dtype=np.intp)
    members = members.reshape(len(d), len(group.moduli))
    diffs = (coords[:, None, :] - members) % np.array(group.moduli)
    targets = np.ravel_multi_index(tuple(np.moveaxis(diffs, -1, 0)), group.moduli)
    adjacency = np.zeros((n, n), dtype=bool)
    adjacency[np.arange(n)[:, None], targets] = True
    packed = np.packbits(adjacency, axis=1, bitorder="little")
    rows = tuple(int.from_bytes(row.tobytes(), "little") for row in packed)
    return Tournament(n, rows)


def common_out_neighbors(t: Tournament, x: int, y: int) -> set[int]:
    """Vertices beaten by both x and y."""
    if x == y:
        raise ValueError(f"need two distinct vertices, got {x} twice")
    return set(mask_vertices(t.rows[x] & t.rows[y]))


def mask_vertices(mask: int) -> list[int]:
    """Unpack a bitmask into a sorted vertex list."""
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
    the common out- and in-neighbors, so b = a.  The verdict reports the first
    offending vertex or pair.
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


def adjacency_matrix(t: Tournament) -> np.ndarray:
    """0/1 adjacency as an int64 array (row i, column j: edge i -> j).

    Each packed row becomes little-endian bytes, so bit j of a row is bit
    j % 8 of its byte j // 8, which `unpackbits(bitorder="little")` expands.
    """
    n = t.n
    width = (n + 7) // 8
    packed = b"".join(row.to_bytes(width, "little") for row in t.rows)
    bits = np.frombuffer(packed, dtype=np.uint8).reshape(n, width)
    return np.unpackbits(bits, axis=1, bitorder="little")[:, :n].astype(np.int64)


def signed_adjacency(t: Tournament) -> np.ndarray:
    """M - M^T: +1 for i -> j, -1 for j -> i, 0 on the diagonal."""
    m = adjacency_matrix(t)
    return m - m.T


def verify_gram_identities(t: Tournament) -> Verdict:
    """Exact integer check of S S^T = n I - J (see the module docstring).

    S is skew, so S^T S = S S^T and column inner products need no check of
    their own.  The verdict names the first mismatching entry.
    """
    n = t.n
    s = signed_adjacency(t)
    got = s @ s.T
    want = n * np.eye(n, dtype=np.int64) - 1
    bad = np.argwhere(got != want)
    if bad.size:
        i, j = bad[0]
        return Verdict.failed(
            f"SS^T entry ({i}, {j}) = {got[i, j]}, expected {want[i, j]}"
        )
    return Verdict.passed()


def random_tournament(n: int, seed: int) -> Tournament:
    """Uniformly random orientation of each pair, from the seeded bit stream.

    Pairs are visited in fixed order (0,1), (0,2), ..., (n-2, n-1); each takes
    one draw, so the construction is reproducible bit for bit.
    """
    if n < 1:
        raise ValueError(f"need at least one vertex, got n = {n}")
    gen = SplitMix64(seed)
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if gen.coin():
                rows[i] |= 1 << j
            else:
                rows[j] |= 1 << i
    return Tournament(n, tuple(rows))


# --------------------------------------------------------------------------
# File format: first line n, then n rows of '0'/'1' characters.


def parse_tournament(text: str) -> Tournament:
    lines = text.splitlines()
    if not lines:
        raise ValueError("line 1: missing vertex count")
    try:
        n = int(lines[0].strip())
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
        bad = set(line) - {"0", "1"}
        if bad:
            raise ValueError(
                f"line {i + 2}: invalid character {sorted(bad)[0]!r}"
            )
        rows.append(int(line[::-1], 2) if "1" in line else 0)
    for extra, line in enumerate(lines[n + 1 :], start=n + 2):
        if line.strip():
            raise ValueError(f"line {extra}: unexpected content {line.strip()!r}")
    return Tournament(n, tuple(rows))  # rejects self-loops and bad orientations


def format_tournament(t: Tournament) -> str:
    lines = [str(t.n)]
    for i in range(t.n):
        row = t.rows[i]
        lines.append("".join("1" if (row >> j) & 1 else "0" for j in range(t.n)))
    return "\n".join(lines) + "\n"
