"""Skew difference sets: construction, verification, and affine equivalence.

A candidate set D in a finite abelian group G is checked against three
conditions: size (n-1)/2, every nonzero element appearing (n-3)/4 times as an
ordered difference, and skewness (G is the disjoint union of {0}, D, and -D).
Two candidates are equivalent when one is an automorphism image of the other
up to translation.  The automorphisms are the k x k matrices over Z_m with
a unit determinant: the units for a cyclic group, the invertible matrices
over F_p for an elementary abelian one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .groups import (
    AbelianGroup,
    Element,
    FiniteField,
    format_group_spec,
    is_prime,
    nonzero_squares,
    parse_group_spec,
)
from .verdict import Verdict

# Largest automorphism group enumerated: at about 146 us per automorphism
# a full affine scan of Z3^4 (24,261,120 of them) would take an hour a pair.
AUT_CAP = 10_000_000


@dataclass(frozen=True)
class CandidateSet:
    """A subset of a group's nonidentity elements, proposed as a difference set.

    Construction only enforces canonical membership.  Degenerate sets (for
    example ones containing 0, which arise as translates during equivalence
    search) are representable; they simply fail `is_skew` / `is_shds`.
    """

    group: AbelianGroup
    elements: frozenset[Element]

    def __post_init__(self):
        if not isinstance(self.elements, frozenset):
            object.__setattr__(self, "elements", frozenset(self.elements))
        for x in self.elements:
            self.group.check_element(x)

    @cached_property
    def indices(self) -> tuple[int, ...]:
        """Sorted vertex indices of the members."""
        return tuple(sorted(self.group.index(x) for x in self.elements))


def candidate_from_indices(group: AbelianGroup, indices: Iterable[int]) -> CandidateSet:
    return CandidateSet(group, frozenset(group.element(i) for i in indices))


def paley_set(field: FiniteField) -> CandidateSet:
    """Nonzero squares of F_q as a candidate set over the additive group.

    Requires q = 3 (mod 4), which is exactly when the squares are skew.
    """
    q = field.order
    if q % 4 != 3:
        raise ValueError(f"need field order q = 3 (mod 4), got q = {q}")
    return CandidateSet(field.additive_group, nonzero_squares(field))


def difference_profile(d: CandidateSet) -> dict[Element, int]:
    """Count, for every nonzero g, the ordered pairs (a, b) in D x D with a - b = g."""
    group = d.group
    members = np.array(d.indices, dtype=np.int64)
    counts = np.zeros(group.order, dtype=np.int64)
    digits = group._digits(members)
    for a in d.indices:
        diffs = group._sub_digits(group._digits(a), digits)
        counts += np.bincount(diffs, minlength=group.order)
    # index 0 is the zero element, where the pairs a = b land
    nonzero = itertools.islice(group.elements(), 1, None)
    return {g: int(c) for g, c in zip(nonzero, counts[1:])}


def is_skew(d: CandidateSet) -> Verdict:
    """Whether the group is the disjoint union of {0}, D, and -D.

    A failed verdict names the first obstruction: the zero element, else the
    smallest-index x with -x also in D, else the smallest-index element in
    neither D nor -D.
    """
    group = d.group
    if group.zero() in d.elements:
        return Verdict.failed("contains the zero element")
    both = [x for x in d.elements if group.neg(x) in d.elements]
    if both:
        x = min(both, key=group.index)
        return Verdict.failed(f"both {x} and -{x} = {group.neg(x)} present")
    if 1 + 2 * len(d.elements) != group.order:
        covered = {group.zero()} | d.elements | {group.neg(x) for x in d.elements}
        missing = next(g for g in group.elements() if g not in covered)
        return Verdict.failed(f"element {missing} is in neither D nor -D")
    return Verdict.passed()


def is_shds(d: CandidateSet) -> Verdict:
    """Full skew-difference-set check; the verdict names the first failure.

    Check order: order congruence (n = 3 mod 4), size, difference frequency,
    skewness.
    """
    group = d.group
    n = group.order
    if n % 4 != 3:
        return Verdict.failed(f"congruence: group order {n} is not 3 (mod 4)")
    want_size = (n - 1) // 2
    if len(d.elements) != want_size:
        return Verdict.failed(
            f"size: |D| = {len(d.elements)}, expected (n-1)/2 = {want_size}"
        )
    want_freq = (n - 3) // 4
    profile = difference_profile(d)
    for g, count in profile.items():
        if count != want_freq:
            return Verdict.failed(
                f"frequency: difference {g} occurs {count} times,"
                f" expected (n-3)/4 = {want_freq}"
            )
    if not is_skew(d):
        return Verdict.failed("skewness: {0}, D, -D do not partition the group")
    return Verdict.passed()


# --------------------------------------------------------------------------
# Automorphisms and affine equivalence


@dataclass(frozen=True)
class Automorphism:
    """x -> M x on Z_m^k, for a k x k matrix M over Z_m (row tuples) whose
    determinant is a unit mod m.  On a cyclic group M is the 1 x 1 unit."""

    modulus: int
    rows: tuple[tuple[int, ...], ...]

    def apply(self, x: Element) -> Element:
        m = self.modulus
        return tuple(sum(r[j] * x[j] for j in range(len(x))) % m for r in self.rows)


def _det_mod_p(rows: Sequence[Sequence[int]], p: int) -> int:
    """Determinant mod p by Gaussian elimination.

    Also exact for a 1 x 1 matrix over Z_m with m composite: no row is ever
    eliminated, so the Fermat inverse is never used.
    """
    k = len(rows)
    m = [list(r) for r in rows]
    det = 1
    for col in range(k):
        pivot = next((r for r in range(col, k) if m[r][col] % p), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        inv = pow(m[col][col], p - 2, p)
        det = det * m[col][col] % p
        for r in range(col + 1, k):
            f = m[r][col] * inv % p
            if f:
                for c in range(col, k):
                    m[r][c] = (m[r][c] - f * m[col][c]) % p
    return det % p


def automorphism_count(group: AbelianGroup) -> int:
    """|Aut(G)| for the supported shapes (cyclic, elementary abelian)."""
    moduli = group.moduli
    if len(moduli) == 1:
        m = moduli[0]
        return sum(1 for u in range(1, m) if math.gcd(u, m) == 1)
    p = moduli[0]
    if len(set(moduli)) != 1 or not is_prime(p):
        raise ValueError(
            f"automorphism enumeration supports only cyclic or elementary abelian"
            f" groups, not {format_group_spec(moduli)}"
        )
    k = len(moduli)
    q = p**k
    out = 1
    for i in range(k):
        out *= q - p**i
    return out


def enumerate_automorphisms(group: AbelianGroup) -> Iterator[Automorphism]:
    """Yield all group automorphisms in a fixed order.

    The k x k matrices over Z_m in row-lexicographic order, keeping those
    whose determinant is a unit mod m; on a cyclic group these are the units
    ascending.  Refuses groups whose automorphism count exceeds AUT_CAP.
    """
    count = automorphism_count(group)
    if count > AUT_CAP:
        raise ValueError(
            f"automorphism group of {group} has order {count},"
            f" above AUT_CAP = {AUT_CAP}"
        )
    m, k = group.moduli[0], len(group.moduli)
    for flat in itertools.product(range(m), repeat=k * k):
        rows = tuple(flat[i * k : (i + 1) * k] for i in range(k))
        if math.gcd(_det_mod_p(rows, m), m) == 1:
            yield Automorphism(m, rows)


def affine_witness(
    group: AbelianGroup,
    target: frozenset[Element],
    source: frozenset[Element],
) -> Optional[tuple[Automorphism, Element]]:
    """First (tau, g) with target = tau(source) + g, or None.

    Search order: automorphisms in enumeration order, then translations g in
    index order; set images are compared as sorted index tuples.
    """
    n = group.order
    elements = list(group.elements())
    add_table = [
        [group.index(group.add(x, g)) for g in elements] for x in elements
    ]
    want = tuple(sorted(group.index(x) for x in target))
    src = list(source)
    for tau in enumerate_automorphisms(group):
        img = [group.index(tau.apply(x)) for x in src]
        for g_idx in range(n):
            if tuple(sorted(add_table[e][g_idx] for e in img)) == want:
                return tau, elements[g_idx]
    return None


def are_equivalent(
    d1: CandidateSet, d2: CandidateSet
) -> Optional[tuple[Automorphism, Element]]:
    """Witness (tau, g) with D1 = tau(D2) + g, or None if inequivalent.

    Pairs whose sizes or difference-profile multisets differ (both affine
    invariants) are answered None without the search; `affine_witness`
    always runs the full enumeration.
    """
    if d1.group != d2.group:
        raise ValueError(
            f"sets live in different groups: {d1.group} vs {d2.group}"
        )
    if len(d1.elements) != len(d2.elements):
        return None
    if sorted(difference_profile(d1).values()) != sorted(
        difference_profile(d2).values()
    ):
        return None
    return affine_witness(d1.group, d1.elements, d2.elements)


def classify(sets: Sequence[CandidateSet]) -> list[list[int]]:
    """Partition input indices into equivalence classes (union-find).

    Classes are ordered by their smallest member; pairs already unified are
    not re-checked, so the result is reached with the minimum number of
    pairwise searches.  Sets from more than one group are refused up front.
    """
    specs = {format_group_spec(d.group.moduli) for d in sets}
    if len(specs) > 1:
        raise ValueError(f"all sets must share one group, got {sorted(specs)}")
    parent = list(range(len(sets)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if find(i) != find(j) and are_equivalent(sets[i], sets[j]):
                parent[find(j)] = find(i)
    groups: dict[int, list[int]] = {}
    for i in range(len(sets)):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())


# --------------------------------------------------------------------------
# File format: line 1 is the group spec, line 2 the space-separated element
# indices.


def parse_diffset(text: str) -> CandidateSet:
    lines = text.splitlines()
    if not lines:
        raise ValueError("line 1: missing group spec")
    try:
        moduli = parse_group_spec(lines[0])
    except ValueError as e:
        raise ValueError(f"line 1: {e}") from None
    group = AbelianGroup(moduli)
    indices: set[int] = set()
    if len(lines) > 1 and lines[1].strip():
        for pos, token in enumerate(lines[1].split(), start=1):
            try:
                idx = int(token)
            except ValueError:
                raise ValueError(
                    f"line 2, entry {pos}: {token!r} is not an integer"
                ) from None
            if not (0 <= idx < group.order):
                raise ValueError(
                    f"line 2, entry {pos}: index {idx} out of range for group"
                    f" of order {group.order}"
                )
            if idx in indices:
                raise ValueError(f"line 2, entry {pos}: duplicate index {idx}")
            indices.add(idx)
    for extra, line in enumerate(lines[2:], start=3):
        if line.strip():
            raise ValueError(f"line {extra}: unexpected content {line.strip()!r}")
    return candidate_from_indices(group, indices)


def format_diffset(d: CandidateSet) -> str:
    spec = format_group_spec(d.group.moduli)
    return f"{spec}\n{' '.join(str(i) for i in d.indices)}\n"
