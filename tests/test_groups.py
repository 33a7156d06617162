from __future__ import annotations

import itertools
import json
import re

import numpy as np
import pytest

from drt.groups import (
    ORDER_CAP,
    AbelianGroup,
    FiniteField,
    format_group_spec,
    is_prime,
    make_field,
    make_group,
    nonzero_squares,
    parse_group_spec,
)


def test_make_group_rejects_bad_moduli():
    with pytest.raises(ValueError):
        make_group(())
    with pytest.raises(ValueError):
        make_group((7, 1))
    with pytest.raises(ValueError):
        make_group((0,))


def test_abelian_group_is_where_moduli_are_checked():
    for bad in [(), (7, 1), (1,), (0,)]:
        with pytest.raises(ValueError):
            AbelianGroup(bad)
    for bad in ([7.9], [7.0], ["3"]):  # make_group coerces nothing
        with pytest.raises(TypeError):
            make_group(bad)
    assert make_group([np.int64(7)]) == AbelianGroup((7,))


def test_abelian_group_stores_its_moduli_as_a_tuple():
    for moduli in ([7], (np.int64(7),), np.array([7])):
        g = AbelianGroup(moduli)
        assert g.moduli == (7,)
        assert [type(m) for m in g.moduli] == [int]
        assert g == AbelianGroup((7,))
        assert hash(g) == hash(AbelianGroup((7,)))
        assert type(g.order) is int
        assert json.dumps({"order": g.order, "group": str(g)}) == (
            '{"order": 7, "group": "Z7"}')


def test_abelian_group_refuses_float_moduli():
    with pytest.raises(TypeError):
        AbelianGroup((7.0,))


def test_order_is_product_of_moduli():
    assert make_group((7,)).order == 7
    assert make_group((3, 3, 3)).order == 27
    assert make_group((2, 4)).order == 8


@pytest.mark.parametrize("moduli", [(5,), (2, 4), (3, 3)])
def test_group_axioms_exhaustive(moduli):
    g = make_group(moduli)
    els = list(g.elements())
    assert len(els) == g.order
    zero = g.zero()
    for x in els:
        assert g.add(x, zero) == x
        assert g.add(x, g.neg(x)) == zero
        assert g.sub(x, x) == zero
    for x, y in itertools.product(els, repeat=2):
        assert g.add(x, y) == g.add(y, x)
        assert g.sub(x, y) == g.add(x, g.neg(y))


@pytest.mark.parametrize("moduli", [(7,), (2, 4), (3, 3, 3)])
def test_index_element_round_trip(moduli):
    g = make_group(moduli)
    for i, x in enumerate(g.elements()):
        assert g.index(x) == i
        assert g.element(i) == x
    with pytest.raises(ValueError):
        g.element(g.order)
    with pytest.raises(ValueError):
        g.index((99,) * len(moduli))


@pytest.mark.parametrize("moduli", [(7,), (15,), (3, 5), (5, 3), (9, 3), (2, 4), (3, 3, 3)])
def test_sub_indices_matches_scalar_arithmetic(moduli):
    g = make_group(moduli)
    n = g.order
    every = np.arange(n)
    assert g.coords(every).T.tolist() == [list(x) for x in g.elements()]
    assert g.indices(g.coords(every)).tolist() == every.tolist()
    assert g.coords(()).shape == (len(moduli), 0)  # an empty set's members
    x, y = np.divmod(np.arange(n * n), n)
    want = [g.index(g.sub(g.element(a), g.element(b))) for a, b in zip(x, y)]
    assert g.indices(g.coords(x) - g.coords(y)).tolist() == want
    sums = [g.index(g.add(g.element(a), g.element(b))) for a, b in zip(x, y)]
    assert g.indices(g.coords(x) + g.coords(y)).tolist() == sums
    # broadcast scalar
    assert g.indices(g.coords(n - 1)[:, None] - g.coords(y[:n])).tolist() == want[-n:]


def test_parse_group_spec():
    assert parse_group_spec("Z7") == (7,)
    assert parse_group_spec("z3^3") == (3, 3, 3)
    assert parse_group_spec("Z2xZ4") == (2, 4)
    assert parse_group_spec("Z2XZ2XZ2") == (2, 2, 2)


_SPEC_REFUSALS = {
    "": "bad group spec token '' in ''",
    "Z1": "modulus must be >= 2 in group spec 'Z1'",
    "Z0": "modulus must be >= 2 in group spec 'Z0'",
    "Q8": "bad group spec token 'Q8' in 'Q8'",
    "Z7 x Z3": "group spec may not contain whitespace: 'Z7 x Z3'",
    "Z7 ": "group spec may not contain whitespace: 'Z7 '",
    " Z7": "group spec may not contain whitespace: ' Z7'",
    "Z7\t": "group spec may not contain whitespace: 'Z7\\t'",
    "Z": "bad group spec token 'Z' in 'Z'",
    "7": "bad group spec token '7' in '7'",
    "Z7^": "bad group spec token 'Z7^' in 'Z7^'",
    "Z3^0": "exponent must be >= 1 in group spec 'Z3^0'",
}


@pytest.mark.parametrize("bad", list(_SPEC_REFUSALS))
def test_parse_group_spec_rejects(bad):
    with pytest.raises(ValueError, match=f"^{re.escape(_SPEC_REFUSALS[bad])}$"):
        parse_group_spec(bad)


@pytest.mark.parametrize("spec", ["Z\u0667", "Z\uff17", "Z3^\u0663", "Z2xZ\u0663"])
def test_parse_group_spec_takes_ascii_digits_only(spec):
    # \d and int() both read these non-ASCII digits as 7 or 3.
    with pytest.raises(ValueError, match="^bad group spec token "):
        parse_group_spec(spec)


def test_orders_above_the_cap_are_refused_before_building():
    assert ORDER_CAP == 2**16
    assert parse_group_spec("Z2^16") == (2,) * 16
    for spec in ["Z2^17", "Z65537", "Z256xZ257", "Z3^1000000000", "Z2^8xZ3^999999999"]:
        with pytest.raises(ValueError, match="ORDER_CAP"):
            parse_group_spec(spec)
    for p, k in [(2, 17), (3, 10**9), (65537, 1)]:
        with pytest.raises(ValueError, match="ORDER_CAP"):
            make_field(p, k)
    # the groups themselves, so no Cayley build reaches an n x n matrix
    assert make_group((2,) * 16).order == ORDER_CAP
    with pytest.raises(ValueError, match="ORDER_CAP"):
        AbelianGroup((65537,))
    with pytest.raises(ValueError, match="ORDER_CAP"):
        make_group((2,) * 17)


def test_format_group_spec_round_trips():
    for moduli in [(7,), (3, 3, 3), (2, 4), (11,)]:
        assert parse_group_spec(format_group_spec(moduli)) == moduli
    assert format_group_spec((3, 3, 3)) == "Z3^3"
    assert format_group_spec((2, 4)) == "Z2xZ4"


def test_field_str_is_its_order():
    assert str(make_field(3, 3)) == "F_27"
    assert str(make_field(7, 1)) == "F_7"


def test_is_prime_small_domain():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_prime_field_is_modular_arithmetic():
    f = make_field(11, 1)
    assert f.order == 11
    for a in range(11):
        for b in range(11):
            assert f.mul((a,), (b,)) == ((a * b) % 11,)
            assert f.additive_group.add((a,), (b,)) == ((a + b) % 11,)


def test_f27_modulus_is_lexicographically_least():
    # independent re-derivation: a cubic over F_3 is irreducible iff it has
    # no root; walk monic cubics x^3 + c2 x^2 + c1 x + c0 in (c0, c1, c2)
    # order and take the first root-free one
    irreducible = []
    for c0, c1, c2 in itertools.product(range(3), repeat=3):
        if all((x**3 + c2 * x**2 + c1 * x + c0) % 3 != 0 for x in range(3)):
            irreducible.append((c0, c1, c2))
    assert len(irreducible) == 8
    f = make_field(3, 3)
    assert f.modulus == irreducible[0] == (1, 0, 2)


@pytest.mark.parametrize("p,k", [(3, 2), (3, 3), (7, 1)])
def test_field_axioms(p, k):
    f = make_field(p, k)
    els = list(f.elements())
    assert len(els) == p**k
    one, zero = f.one(), f.zero()
    for x in els:
        assert f.mul(x, one) == x
        assert f.mul(x, zero) == zero
        if x != zero:
            assert f.mul(x, f.pow(x, f.order - 2)) == one  # inverse
    # distributivity and commutativity on the full F_9 triple product is
    # cheap; sample the larger fields
    sample = els if f.order <= 9 else els[::3]
    for x, y in itertools.product(sample, repeat=2):
        assert f.mul(x, y) == f.mul(y, x)
    add = f.additive_group.add
    for x, y, z in itertools.product(sample[:6], repeat=3):
        assert f.mul(x, add(y, z)) == add(f.mul(x, y), f.mul(x, z))
        assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))


def test_fermat_in_f27():
    f = make_field(3, 3)
    for x in f.elements():
        if x != f.zero():
            assert f.pow(x, f.order - 1) == f.one()
    with pytest.raises(ValueError, match="negative exponents not supported"):
        f.pow(f.one(), -1)


def test_make_field_rejects():
    with pytest.raises(ValueError):
        make_field(4, 1)  # not prime
    with pytest.raises(ValueError):
        make_field(7, 0)


def test_nonzero_squares_f7():
    f = make_field(7, 1)
    sq = nonzero_squares(f)
    assert {f.additive_group.index(x) for x in sq} == {1, 2, 4}


def test_nonzero_squares_f27_frozen():
    f = make_field(3, 3)
    idx = sorted(f.additive_group.index(x) for x in nonzero_squares(f))
    assert idx == [1, 6, 7, 8, 9, 11, 12, 13, 15, 16, 20, 22, 25]
    assert len(idx) == 13  # exactly (q-1)/2 squares


def test_square_set_closed_under_multiplication():
    f = make_field(3, 3)
    sq = nonzero_squares(f)
    for x in sq:
        for y in sq:
            assert f.mul(x, y) in sq
