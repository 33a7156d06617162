"""Skew difference sets: construction, verification, and affine equivalence.

A candidate set D in a finite abelian group G is checked against three
conditions: size (n-1)/2, every nonzero element appearing (n-3)/4 times as an
ordered difference, and skewness (G is the disjoint union of {0}, D, and -D).
Two candidates are equivalent when one is an automorphism image of the other
up to translation; an automorphism is a unit of Z_m on a cyclic group and an
invertible k x k matrix over F_p on an elementary abelian one.
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
    _decimal,
)
from .verdict import Verdict

# Most maps (automorphisms x translations) one equivalence scan may span, and
# the only cap on automorphisms: it bounds the (p - 1) * p maps on Z_p too.
# A full scan of an inequivalent pair, trying only the translations that the
# member sums allow, took 0.19 s over GL(3,3) x Z3^3 (303,264 maps), 8 ms on
# Z503 (252,506) and 19 ms on Z1019 (1,037,342), on one core.
_SCAN_CAP = 1 << 20


@dataclass(frozen=True)
class CandidateSet:
    """A subset of a group's nonidentity elements, proposed as a difference set.

    Construction only enforces canonical membership.  Degenerate sets (for
    example ones containing 0) are representable; they simply fail `is_skew`
    / `is_shds`.
    """

    group: AbelianGroup
    elements: frozenset[Element]

    def __post_init__(self):
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
    members = group.coords(d.indices)
    counts = np.zeros(group.order, dtype=np.int64)
    for a in members.T[:, :, None]:
        counts += np.bincount(group.indices(a - members), minlength=group.order)
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
    """x -> M x on Z_m^k, for an invertible k x k matrix M over F_p (row
    tuples).  On a cyclic group M is the 1 x 1 unit of Z_m."""

    modulus: int
    rows: tuple[tuple[int, ...], ...]

    def apply(self, x: Element) -> Element:
        if len(x) != len(self.rows):
            raise ValueError(f"{x!r} does not have k = {len(self.rows)} coordinates")
        m = self.modulus
        return tuple(sum(r[j] * x[j] for j in range(len(x))) % m for r in self.rows)


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
    return math.prod(p**k - p**i for i in range(k))


def enumerate_automorphisms(group: AbelianGroup) -> Iterator[Automorphism]:
    """All automorphisms, lazily, in row-lexicographic order: the units of
    Z_m ascending, or the k x k matrices over F_p whose every row lies outside
    the span of the rows before it.  Over a field those are exactly the
    invertible ones, so no singular matrix is ever tried."""
    automorphism_count(group)  # refuses any other shape at the call
    m, k = group.moduli[0], len(group.moduli)
    if k == 1:
        return (Automorphism(m, ((u,),)) for u in range(m) if math.gcd(u, m) == 1)

    def extend(rows, span):
        for v in group.elements():
            if v in span:
                continue
            if len(rows) + 1 == k:  # a last row needs no span of its own
                yield Automorphism(m, rows + (v,))
            else:
                line = [tuple(c * x % m for x in v) for c in range(m)]
                wider = {group.add(s, w) for s in span for w in line}
                yield from extend(rows + (v,), wider)

    return extend((), {group.zero()})


def affine_witness(
    group: AbelianGroup,
    target: frozenset[Element],
    source: frozenset[Element],
) -> Optional[tuple[Automorphism, Element]]:
    """First (tau, g) with target = tau(source) + g, or None.

    Search order: automorphisms in enumeration order, then translations g in
    index order.  Summing the members gives sum(target) - |D| g = tau(sum(source)),
    so each image is moved only by the translations that solve this, all at
    once; a translate equals the target when all its members lie in it, since
    tau and g are bijections and the two sets have the same size.  A scan of
    over _SCAN_CAP maps, or a member not in G, is refused before building.
    """
    maps = automorphism_count(group) * group.order
    if maps > _SCAN_CAP:
        raise ValueError(
            f"an equivalence scan in {group} tries {maps} maps,"
            f" above the scan cap of {_SCAN_CAP}"
        )
    want = [group.index(x) for x in target]
    coords = group.coords([group.index(x) for x in source])
    if len(source) != len(target):
        return None
    in_target = np.isin(np.arange(group.order), want)
    # a last column of sum(source) makes each image end with tau(sum(source))
    coords = np.c_[coords, coords.sum(axis=1)]
    # translations sorted by u = sum(target) - |D| g, ascending within each u:
    # the g for one u are by_u[lo:hi] with [lo, hi] = runs[u]
    every = group.coords(np.arange(group.order))
    u = group.indices(group.coords(want).sum(axis=1)[:, None] - len(source) * every)
    by_u = np.argsort(u, kind="stable")
    runs = np.searchsorted(u, np.arange(group.order)[:, None] + (0, 1), sorter=by_u)
    shifts = every[:, None, by_u]
    for tau in enumerate_automorphisms(group):
        image = np.array(tau.rows) @ coords
        lo, hi = runs[group.indices(image[:, -1])]
        moved = group.indices(image[:, :-1, None] + shifts[:, :, lo:hi])
        hit = by_u[lo:hi][in_target[moved].all(axis=0)]
        if hit.size:
            return tau, group.element(int(hit[0]))
    return None


def are_equivalent(
    d1: CandidateSet, d2: CandidateSet
) -> Optional[tuple[Automorphism, Element]]:
    """Witness (tau, g) with D1 = tau(D2) + g, or None if inequivalent.

    Pairs whose difference-profile multisets differ (an affine invariant)
    are answered None without the search.  Unequal sizes need no check of
    their own: the profile sums s(s - 1) then differ unless the sizes are 0
    and 1, and `affine_witness` answers None for any unequal sizes.
    """
    if d1.group != d2.group:
        raise ValueError(
            f"sets live in different groups: {d1.group} vs {d2.group}"
        )
    if sorted(difference_profile(d1).values()) != sorted(
        difference_profile(d2).values()
    ):
        return None
    return affine_witness(d1.group, d1.elements, d2.elements)


def classify(sets: Sequence[CandidateSet]) -> list[list[int]]:
    """Partition input indices into equivalence classes.

    Classes are ordered by their smallest member.  Each set is searched
    against the first member of each class found so far, which suffices
    because equivalence is transitive, so no two classes already known to
    differ are ever compared again.  Sets from more than one group are
    refused up front.
    """
    specs = {format_group_spec(d.group.moduli) for d in sets}
    if len(specs) > 1:
        raise ValueError(f"all sets must share one group, got {sorted(specs)}")
    classes: list[list[int]] = []
    for i, d in enumerate(sets):
        home = next((c for c in classes if are_equivalent(sets[c[0]], d)), None)
        if home is None:
            classes.append([i])
        else:
            home.append(i)
    return classes


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
    if len(lines) > 1:
        for pos, token in enumerate(lines[1].split(), start=1):
            try:
                idx = _decimal(token)
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
