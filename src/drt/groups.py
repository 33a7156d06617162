"""Finite abelian groups and finite fields used as tournament vertex sets.

Groups are direct products of cyclic factors; elements are coordinate tuples
and map to dense vertex indices through a mixed-radix bijection (first
coordinate most significant).  `AbelianGroup.coords` and `indices` are that
bijection over arrays, and the only vectorised encoding in the package: group
arithmetic on index arrays is `indices` of sums or differences of `coords`.
Fields F_{p^k} are polynomial quotients with a canonical modulus: the
lexicographically smallest monic irreducible, compared on the coefficient
sequence constant term first.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

Element = tuple[int, ...]

# Largest group or field order the constructors accept: at that q the n x n
# boolean matrix behind `tourney cayley` is already 4 GiB.
ORDER_CAP = 2**16


@dataclass(frozen=True)
class AbelianGroup:
    """Z_{m1} x ... x Z_{mk}; elements are tuples (x1, ..., xk), 0 <= xi < mi.

    `moduli` may be any iterable of integers, numpy integers included, and is
    stored as a tuple of ints; a float or a string is refused with TypeError.
    """

    moduli: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "moduli", tuple(map(operator.index, self.moduli)))
        if not self.moduli:
            raise ValueError("group needs at least one cyclic factor")
        if any(m < 2 for m in self.moduli):
            raise ValueError(f"every modulus must be >= 2, got {self.moduli}")
        if self.order > ORDER_CAP:
            raise ValueError(f"group {self} has order above ORDER_CAP = {ORDER_CAP}")

    @cached_property
    def order(self) -> int:
        return math.prod(self.moduli)

    def zero(self) -> Element:
        return (0,) * len(self.moduli)

    def check_element(self, x: Element) -> None:
        if len(x) != len(self.moduli) or any(
            not (0 <= xi < m) for xi, m in zip(x, self.moduli)
        ):
            raise ValueError(f"{x!r} is not a canonical element of {self}")

    def add(self, x: Element, y: Element) -> Element:
        return tuple((a + b) % m for a, b, m in zip(x, y, self.moduli))

    def neg(self, x: Element) -> Element:
        return tuple((-a) % m for a, m in zip(x, self.moduli))

    def sub(self, x: Element, y: Element) -> Element:
        return tuple((a - b) % m for a, b, m in zip(x, y, self.moduli))

    def index(self, x: Element) -> int:
        """Mixed-radix vertex index; coordinate 0 is the most significant digit."""
        self.check_element(x)
        i = 0
        for xi, m in zip(x, self.moduli):
            i = i * m + xi
        return i

    def element(self, i: int) -> Element:
        if not (0 <= i < self.order):
            raise ValueError(f"index {i} out of range for group of order {self.order}")
        coords = []
        for m in reversed(self.moduli):
            coords.append(i % m)
            i //= m
        return tuple(reversed(coords))

    def elements(self) -> Iterator[Element]:
        """All elements in index order."""
        return itertools.product(*(range(m) for m in self.moduli))

    def coords(self, x) -> np.ndarray:
        """`element` over an index array: coordinate c of x[...] at [c, ...]."""
        return np.array(np.unravel_index(np.asarray(x, dtype=np.intp), self.moduli))

    def indices(self, c) -> np.ndarray:
        """`index` over coordinates stacked on the first axis, as `coords`
        gives them.  Each is reduced mod its modulus first ("wrap"), so sums
        and differences of coordinates may be passed as they are."""
        return np.ravel_multi_index(c, self.moduli, mode="wrap")

    def __str__(self) -> str:
        return format_group_spec(self.moduli)


def _check_order(modulus: int, power: int, what: str, order: int = 1) -> int:
    """order * modulus**power, refused above ORDER_CAP.

    The product is formed one factor at a time and, with modulus >= 2, stops
    within 17 steps, so a huge power is refused without building anything.
    """
    for _ in range(power if modulus >= 2 else 0):
        order *= modulus
        if order > ORDER_CAP:
            raise ValueError(f"{what} has order above ORDER_CAP = {ORDER_CAP}")
    return order


# [0-9], not \d: \d also matches non-ASCII digits such as '٧', which int() reads.
_SPEC_FACTOR = re.compile(r"\AZ([0-9]+)(?:\^([0-9]+))?\Z", re.IGNORECASE)


def _decimal(text: str) -> int:
    """The integer spelled by an optional '-' and ASCII digits.

    Anything else raises ValueError, including what int() would take: a '+',
    '_' separators, surrounding whitespace and non-ASCII digits.
    """
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text!r} is not an integer")
    return int(text)


def parse_group_spec(spec: str) -> tuple[int, ...]:
    """Parse 'Z7', 'Z3^3', or 'Z2xZ3x...' (case-insensitive, no whitespace)."""
    if any(c.isspace() for c in spec):
        raise ValueError(f"group spec may not contain whitespace: {spec!r}")
    moduli: list[int] = []
    order = 1
    for token in re.split(r"x", spec, flags=re.IGNORECASE):
        m = _SPEC_FACTOR.match(token)
        if not m:
            raise ValueError(f"bad group spec token {token!r} in {spec!r}")
        modulus = int(m.group(1))
        power = int(m.group(2)) if m.group(2) else 1
        if modulus < 2:
            raise ValueError(f"modulus must be >= 2 in group spec {spec!r}")
        if power < 1:
            raise ValueError(f"exponent must be >= 1 in group spec {spec!r}")
        order = _check_order(modulus, power, f"group {spec!r}", order)
        moduli.extend([modulus] * power)
    return tuple(moduli)


def format_group_spec(moduli: tuple[int, ...]) -> str:
    """Canonical spelling: Z7 / Z3^3 / Z2xZ4."""
    if len(moduli) == 1:
        return f"Z{moduli[0]}"
    if len(set(moduli)) == 1:
        return f"Z{moduli[0]}^{len(moduli)}"
    return "x".join(f"Z{m}" for m in moduli)


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


# --------------------------------------------------------------------------
# Polynomial arithmetic over F_p.  Polynomials are coefficient tuples with the
# constant term first; the field modulus stores only the k low-order
# coefficients of the monic degree-k polynomial.


def _poly_is_irreducible(low_coeffs: tuple[int, ...], p: int) -> bool:
    """Trial division of x^k + ... by every monic polynomial of degree <= k/2."""
    k = len(low_coeffs)
    poly = list(low_coeffs) + [1]
    for d in range(1, k // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            divisor = list(tail) + [1]
            if not any(_poly_mod(poly, divisor, p)):
                return False
    return True


def _poly_mod(a: list[int], m: list[int], p: int) -> list[int]:
    """Remainder of a by monic m, both constant-term-first, as exactly deg(m)
    coefficients; a must have at least that many."""
    a = [c % p for c in a]
    dm = len(m) - 1
    while len(a) > dm:
        c = a.pop()
        if c:
            for i, mi in enumerate(m[:-1], start=len(a) - dm):
                a[i] = (a[i] - c * mi) % p
    return a


@dataclass(frozen=True)
class FiniteField:
    """F_{p^k} = F_p[x] / (modulus); elements are k-tuples, constant term first.

    `modulus` holds the low-order coefficients (c0, ..., c_{k-1}) of the monic
    modulus x^k + c_{k-1} x^{k-1} + ... + c0.  For k = 1 the modulus is x
    itself and arithmetic degenerates to plain mod-p residues.
    """

    p: int
    k: int
    modulus: tuple[int, ...]

    @cached_property
    def order(self) -> int:
        return self.p**self.k

    @cached_property
    def additive_group(self) -> AbelianGroup:
        return AbelianGroup((self.p,) * self.k)

    def zero(self) -> Element:
        return (0,) * self.k

    def one(self) -> Element:
        return (1,) + (0,) * (self.k - 1)

    def mul(self, a: Element, b: Element) -> Element:
        p, k = self.p, self.k
        raw = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    raw[i + j] += ai * bj
        return tuple(_poly_mod(raw, [*self.modulus, 1], p))

    def pow(self, a: Element, e: int) -> Element:
        if e < 0:
            raise ValueError("negative exponents not supported")
        out = self.one()
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def elements(self) -> Iterator[Element]:
        """All q elements, in additive-group index order."""
        return self.additive_group.elements()

    def __str__(self) -> str:
        return f"F_{self.order}"


def make_field(p: int, k: int) -> FiniteField:
    """F_{p^k} with the lexicographically smallest monic irreducible modulus.

    Moduli are compared on (c0, ..., c_{k-1}), constant term first;
    irreducibility is decided by trial division.  A constructor spot check
    confirms the multiplicative group has order q - 1.  Orders above
    ORDER_CAP are refused before anything is built.
    """
    _check_order(p, k, f"field F_{{{p}^{k}}}")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    # irreducibles exist for every (p, k), so the search always ends
    modulus = next(
        low for low in itertools.product(range(p), repeat=k)
        if _poly_is_irreducible(low, p)
    )
    field = FiniteField(p, k, modulus)
    probe = field.additive_group.element(field.order - 1)  # all coords p-1
    if field.pow(probe, field.order - 1) != field.one():
        raise RuntimeError(f"modulus {modulus} failed the unit-order spot check")
    return field


def nonzero_squares(field: FiniteField) -> frozenset[Element]:
    """The set { a*a : a in F* } — exactly (q-1)/2 elements for odd q."""
    zero = field.zero()
    return frozenset(
        field.mul(a, a) for a in field.elements() if a != zero
    )
