import itertools

import numpy as np
import pytest

from zprs.errors import ModulusMismatch, NotAUnit, WrongRing
from zprs.rings import ChainElement, all_elements, eta0, eta1, eta2, unit_order


def R(coeffs, p=2):
    return ChainElement.make(coeffs, p, 2)


def S(coeffs, p=2):
    return ChainElement.make(coeffs, p, 3)


def test_multiplication_examples():
    u = R((0, 1))
    assert (u * u).is_zero                       # u^2 = 0 in R
    one_u = R((1, 1))
    assert one_u * one_u == R((1, 0))            # (1+u)^2 = 1 over Z_2
    assert S((1, 1, 0)) * S((1, 0, 1)) == S((1, 1, 1))  # (1+u)(1+u^2) = 1+u+u^2


def test_ring_mismatch():
    with pytest.raises(ModulusMismatch):
        R((1, 0), p=2) + R((1, 0), p=3)
    with pytest.raises(ModulusMismatch):
        R((1, 0)) * S((1, 0, 0))


def test_eta_maps():
    assert eta0(R((1, 1))) == ChainElement.make(1, 2, 1)
    assert eta1(S((0, 1, 1))).is_zero            # constant term of u + u^2
    assert eta2(S((3, 2, 4), p=5)) == R((3, 2), p=5)
    with pytest.raises(WrongRing):
        eta0(S((1, 0, 0)))
    with pytest.raises(WrongRing):
        eta1(R((1, 0)))


def test_is_unit():
    assert not R((0, 1)).is_unit                 # u is nilpotent
    assert S((1, 1, 0)).is_unit
    assert not S((0, 0, 0)).is_unit


def test_unit_characterization_matches_inverse_search():
    # x is a unit iff some y has x*y = 1; exhaustive for p <= 5
    for p in (2, 3, 5):
        for k in (1, 2, 3):
            one = ChainElement.one(p, k)
            for x in all_elements(p, k):
                has_inverse = any(x * y == one for y in all_elements(p, k))
                assert has_inverse == x.is_unit


def test_inverse_formula():
    for p in (2, 3, 5):
        for k in (1, 2, 3):
            one = ChainElement.one(p, k)
            for x in all_elements(p, k):
                if x.is_unit:
                    assert x * x.inverse() == one
                else:
                    with pytest.raises(NotAUnit):
                        x.inverse()


def test_unit_order_examples():
    assert unit_order(ChainElement.one(5, 3)) == 1
    assert unit_order(R((1, 1), p=2)) == 2       # (1+u)^2 = 1 + 2u = 1
    for p in (3, 5, 7):
        assert unit_order(S((p - 1, 0, 0), p=p)) == 2
    with pytest.raises(NotAUnit):
        unit_order(R((0, 1)))


def test_unit_order_is_minimal():
    for p in (2, 3):
        for k in (2, 3):
            one = ChainElement.one(p, k)
            for x in all_elements(p, k):
                if not x.is_unit:
                    continue
                t = unit_order(x)
                assert x ** t == one
                assert all(x ** i != one for i in range(1, t))


def walk_orders(p, k):
    """Orders of all units of Z_p[u]/(u^k), in ``all_elements`` order, by
    stepping through the powers of all of them at once."""
    units = np.array([x.coeffs for x in all_elements(p, k) if x.is_unit], dtype=np.int64)
    one = np.eye(1, k, dtype=np.int64)[0]
    acc, orders = units.copy(), np.zeros(len(units), dtype=np.int64)
    for t in range(1, (p - 1) * p ** (k - 1) + 1):
        orders[(acc == one).all(axis=1) & (orders == 0)] = t
        # truncated convolution: u^k = 0
        acc = np.stack([sum(acc[:, i] * units[:, j - i] for i in range(j + 1))
                        for j in range(k)], axis=1) % p
    return orders.tolist()


def test_unit_order_equals_the_walk():
    for p in (2, 3, 5, 7, 11, 13):
        for k in (2, 3):
            orders = [unit_order(x) for x in all_elements(p, k) if x.is_unit]
            assert orders == walk_orders(p, k), (p, k)


def test_unit_order_large_prime_fast():
    p = 998244353
    x = ChainElement(p, 3, (3, 1, 0))
    t = unit_order(x)
    # 3 is a primitive root, and 1 + u Z_p[u] has exponent p for odd p
    assert t == (p - 1) * p
    assert x ** t == ChainElement.one(p, 3)


def test_mul_commutative_and_associative_exhaustive():
    for p in (2, 3):
        for k in (2, 3):
            elems = list(all_elements(p, k))
            for a, b in itertools.product(elems, repeat=2):
                assert a * b == b * a
            # associativity on a full triple product for p=2, sampled for p=3
            triples = itertools.product(elems, repeat=3) if p == 2 else \
                itertools.islice(itertools.product(elems, repeat=3), 0, None, 7)
            for a, b, c in triples:
                assert (a * b) * c == a * (b * c)


def test_projections_are_ring_homomorphisms():
    for p in (2, 3):
        elems = list(all_elements(p, 3))
        for a, b in itertools.product(elems, repeat=2):
            assert eta1(a * b) == eta1(a) * eta1(b)
            assert eta2(a * b) == eta2(a) * eta2(b)
            assert eta1(a + b) == eta1(a) + eta1(b)
            assert eta2(a + b) == eta2(a) + eta2(b)


def test_text_rendering():
    assert str(S((1, 1, 1))) == "1+u+u²"
    assert str(S((0, 2, 0), p=5)) == "2u"
    assert str(R((0, 0))) == "0"
    assert str(S((3, 0, 4), p=5)) == "3+4u²"


def test_lift_and_make():
    x = R((1, 1), p=3)
    assert x.lift(3) == S((1, 1, 0), p=3)
    assert ChainElement.make(7, 5, 2) == R((2, 0), p=5)
    with pytest.raises(WrongRing):
        S((1, 0, 0)).lift(2)
