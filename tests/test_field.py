import json
import random
from pathlib import Path

import numpy as np
import pytest

from toricreg.errors import NotPrimePowerError
from toricreg.field import Field, ZERO

PRIME_POWERS_64 = [
    2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32,
    37, 41, 43, 47, 49, 53, 59, 61, 64,
]


def test_gf3_tables():
    f = Field(3)
    assert f.p == 3 and f.k == 1
    assert f.primitive_poly == (1, 1)  # x + 1, generator 2
    assert f.exp_table == (1, 2)
    assert f.zech_table == (1, ZERO)  # 1+1=2=g^1, 1+2=0


def test_gf4_tables():
    f = Field(4)
    assert f.primitive_poly == (1, 1, 1)  # x^2 + x + 1
    assert f.exp_table == (1, 2, 3)
    # 1 + g = g^2 in GF(4)
    assert f.zech_table[1] == 2
    assert f.add(0, 1) == 2


def test_gf8_gf9_primitive_polys():
    assert Field(8).primitive_poly == (1, 1, 0, 1)  # x^3 + x + 1
    assert Field(9).primitive_poly == (2, 1, 1)  # x^2 + x + 2


# primitive_poly of every prime below 1000 and every extension field up to
# 4096, saved from a search that derived them independently: trial division
# by lower-degree irreducibles, then a walk over the powers of x
SAVED_POLYS = {
    int(q): tuple(poly)
    for q, poly in json.loads(Path(__file__).with_name("primitive_polys.json").read_text()).items()
}


def test_primitive_polys_match_the_saved_table():
    assert {q: Field(q).primitive_poly for q in SAVED_POLYS} == SAVED_POLYS


def test_tables_are_consistent_on_the_saved_fields():
    """exp is a permutation of 1..q-1, log inverts it, and each element's
    digits, constant term first, pack to its exp value."""
    for q in SAVED_POLYS:
        f = Field(q)
        exp, log = np.array(f.exp_table), np.array(f.log_table)
        assert sorted(f.exp_table) == list(range(1, q)), q
        assert log[0] == ZERO and np.array_equal(log[exp], np.arange(q - 1)), q
        place = f.p ** np.arange(f.k)
        assert np.array_equal(f.digits[:-1].astype(np.int64) @ place, exp), q


def test_tables_are_shared_and_read_only():
    a, b = Field(9), Field(9)
    for name in ("primitive_poly", "exp_table", "log_table", "zech_table", "digits"):
        assert getattr(a, name) is getattr(b, name), name
    assert not a.digits.flags.writeable
    with pytest.raises(ValueError):
        a.digits[0, 0] = 1


def test_not_prime_power():
    for q in (6, 10, 12, 15, 100):
        with pytest.raises(NotPrimePowerError):
            Field(q)
    with pytest.raises(NotPrimePowerError):
        Field(1)


def test_table_cap():
    with pytest.raises(OverflowError):
        Field(1 << 17)
    with pytest.raises(OverflowError):
        Field(65537)  # the first prime above the cap


def test_inverse_of_zero():
    f = Field(5)
    with pytest.raises(ZeroDivisionError):
        f.inv(ZERO)
    with pytest.raises(ZeroDivisionError):
        f.pow(ZERO, -1)


@pytest.mark.parametrize("q", PRIME_POWERS_64)
def test_zech_addition_matches_polynomial_addition(q):
    f = Field(q)
    for a in f.elements():
        for b in f.elements():
            via_zech = f.add(a, b)
            via_poly = f.from_int(f.add_ints(f.to_int(a), f.to_int(b)))
            assert via_zech == via_poly


@pytest.mark.parametrize("q", PRIME_POWERS_64)
def test_multiplicative_order_divides_q_minus_1(q):
    f = Field(q)
    for a in range(q - 1):
        assert f.pow(a, q - 1) == f.one
        assert f.mul(a, f.inv(a)) == f.one
    # the generator has full order: powers are pairwise distinct
    assert len(set(f.exp_table)) == q - 1


@pytest.mark.parametrize("q", PRIME_POWERS_64)
def test_identity_laws(q):
    f = Field(q)
    for a in f.elements():
        assert f.add(a, f.zero) == a
        assert f.mul(a, f.one) == a
        assert f.add(a, f.neg(a)) == ZERO
        assert f.sub(a, a) == ZERO


@pytest.mark.parametrize("q", [3, 4, 5, 8, 9, 16, 25, 27, 64])
def test_ring_axioms_on_random_triples(q):
    f = Field(q)
    rng = random.Random(q)
    elems = list(f.elements())
    for _ in range(200):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_pow_conventions():
    f = Field(7)
    assert f.pow(ZERO, 0) == f.one
    assert f.pow(ZERO, 3) == ZERO
    x = 2  # g^2
    assert f.pow(x, 3) == f.mul(f.mul(x, x), x)
    assert f.mul(f.pow(x, -1), x) == f.one


def test_q2_degenerate_field():
    f = Field(2)
    assert f.exp_table == (1,)
    assert f.add(0, 0) == ZERO  # 1 + 1 = 0 in GF(2)
    assert f.mul(0, 0) == 0
