import math
import time

import numpy as np
import pytest

from zprs.errors import (MalformedInput, ModulusMismatch, NoSquareRootOfMinusOne, NotAUnit,
                         NotPrime, TooLarge)
from zprs.field import ensure_prime, factorize, find_kappa, is_prime
from zprs.polynomials import Poly
from zprs.quantum import code_from_table_generators, cyclic_code_from_generators
from zprs.rings import ChainElement, unit_order


def Z(a, p):
    """a in Z_p: the k = 1 chain ring."""
    return ChainElement(p, 1, (a,))


def test_primality_checked_at_construction():
    with pytest.raises(NotPrime):
        Z(1, 4)
    with pytest.raises(NotPrime):
        Z(0, 1)
    assert Z(3, 2).coeffs == (1,)  # reduced mod 2, fine


def test_a_prime_must_be_an_integer():
    # 5.0 passed is_prime as 5, even from its cache, and 5.5 raised a bare TypeError there
    assert is_prime(5) and ensure_prime(np.int64(5)) == 5
    for p in (5.0, 5.5):
        for call in (lambda: is_prime(p), lambda: ensure_prime(p), lambda: Poly.make([1, 1], p),
                     lambda: cyclic_code_from_generators(p, 6, [1], [1]),
                     lambda: code_from_table_generators(p, 6, [1], [1])):
            with pytest.raises(MalformedInput, match="p is not an integer"):
                call()


def test_arithmetic_examples():
    assert Z(3, 5) + Z(4, 5) == Z(2, 5)
    assert Z(1, 7) * Z(1, 7).inverse() == Z(1, 7)
    # 2/3 mod 5: brute force 3*4 = 12 = 2 mod 5
    assert Z(2, 5) * Z(3, 5).inverse() == Z(4, 5)
    assert Z(2, 5) - Z(4, 5) == Z(3, 5)
    assert -Z(2, 5) == Z(3, 5)
    assert Z(2, 5) ** 4 == Z(1, 5)
    assert Z(2, 5) ** -1 == Z(3, 5)


def test_arithmetic_errors():
    with pytest.raises(ModulusMismatch):
        Z(1, 5) + Z(1, 7)
    with pytest.raises(ModulusMismatch):
        Z(1, 5) * Z(1, 7)
    with pytest.raises(NotAUnit):
        Z(1, 5) * Z(0, 5).inverse()
    with pytest.raises(NotAUnit):
        Z(0, 5).inverse()


def test_division_matches_brute_force():
    for p in (2, 3, 5, 7, 11):
        for a in range(p):
            for b in range(1, p):
                (got,) = (Z(a, p) * Z(b, p).inverse()).coeffs
                assert got * b % p == a


def test_find_kappa_examples():
    assert find_kappa(2) == 1
    assert find_kappa(5) == 2
    assert find_kappa(13) == 5
    assert find_kappa(17) == 4


def test_find_kappa_square_is_minus_one():
    for p in (2, 5, 13, 17, 29, 37, 41, 97, 101):
        k = find_kappa(p)
        assert (k * k + 1) % p == 0


def test_find_kappa_rejects_p_equals_3_mod_4():
    for p in (3, 7, 11, 19, 23):
        with pytest.raises(NoSquareRootOfMinusOne):
            find_kappa(p)


def test_find_kappa_matches_exhaustive_search_below_10_4():
    for p in (n for n in range(2, 10 ** 4) if is_prime(n)):
        ks = np.arange(1, p)
        roots = ks[ks * ks % p == p - 1]
        if roots.size:
            assert find_kappa(p) == roots[0]
        else:
            with pytest.raises(NoSquareRootOfMinusOne):
                find_kappa(p)


def test_find_kappa_large_primes_fast():
    start = time.perf_counter()
    k = find_kappa(998244353)
    assert time.perf_counter() - start < 0.1
    assert k * k % 998244353 == 998244352 and k <= 998244353 // 2
    start = time.perf_counter()
    with pytest.raises(NoSquareRootOfMinusOne):
        find_kappa(2 ** 61 - 1)
    assert time.perf_counter() - start < 0.1


def test_unit_order_examples():
    assert unit_order(Z(1, 7)) == 1
    assert unit_order(Z(4, 5)) == 2
    assert unit_order(Z(2, 5)) == 4
    with pytest.raises(NotAUnit):
        unit_order(Z(0, 5))


def test_unit_order_minimal_and_divides_group_order():
    # exhaustive over all units for a spread of primes up to 257
    for p in (2, 3, 5, 17, 101, 257):
        for a in range(1, p):
            t = unit_order(Z(a, p))
            assert pow(a, t, p) == 1
            assert all(pow(a, i, p) != 1 for i in range(1, t))
            assert (p - 1) % t == 0  # Lagrange


def walk_orders(p):
    """Orders of 1, ..., p - 1 by stepping through the powers of all of them at once."""
    units = np.arange(1, p, dtype=np.int64)
    acc, orders = units.copy(), np.zeros(p - 1, dtype=np.int64)
    for t in range(1, p):
        orders[(acc == 1) & (orders == 0)] = t
        acc = acc * units % p
    return orders.tolist()


def test_unit_order_equals_the_walk_below_200():
    for p in filter(is_prime, range(200)):
        assert [unit_order(Z(a, p)) for a in range(1, p)] == walk_orders(p), p


def test_unit_order_large_primes_fast():
    start = time.perf_counter()
    assert unit_order(Z(3, 998244353)) == 998244352     # 3 is a primitive root
    big = 2 ** 61 - 1
    t = unit_order(Z(3, big))
    assert pow(3, t, big) == 1
    assert all(pow(3, t // q, big) != 1 for q, _ in factorize(t))
    assert time.perf_counter() - start < 0.1


def test_factorize():
    for n in range(1, 2000):
        f = factorize(n)
        assert math.prod(q ** e for q, e in f) == n
        assert all(is_prime(q) and e > 0 for q, e in f)
        assert [q for q, _ in f] == sorted(q for q, _ in f)
    assert factorize(2 ** 61 - 2) == ((2, 1), (3, 2), (5, 2), (7, 1), (11, 1), (13, 1), (31, 1),
                                       (41, 1), (61, 1), (151, 1), (331, 1), (1321, 1))
    assert factorize(2 * 4294967311) == ((2, 1), (4294967311, 1))   # prime cofactor


def test_unit_order_refuses_a_composite_cofactor():
    # p - 1 = 2 * 7 * 65537 * 65539: trial division stops at 2^16 with the
    # composite 65537 * 65539 left over
    p = 14 * 65537 * 65539 + 1
    assert is_prime(p)
    with pytest.raises(TooLarge):
        unit_order(Z(3, p))


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13}
    for n in range(15):
        assert is_prime(n) == (n in primes)


def test_is_prime_matches_trial_division():
    for n in range(10 ** 5):
        assert is_prime(n) == (n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1)))


def test_is_prime_carmichael_and_large():
    carmichael = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
                  5394826801, 232250619601, 9746347772161)
    assert not any(is_prime(n) for n in carmichael)
    assert is_prime(2 ** 61 - 1) and is_prime(4294967311)
    # strong pseudoprimes to the first 9 and the first 12 prime bases
    assert not is_prime(3825123056546413051)
    assert not is_prime(318665857834031151167461)
    assert not is_prime(2 ** 89 + 1)


def test_is_prime_refuses_beyond_proven_range():
    # the smallest strong pseudoprime to the first 13 prime bases, and a
    # Mersenne prime above it: neither can be decided exactly by the bases
    for n in (3317044064679887385961981, 2 ** 89 - 1):
        with pytest.raises(TooLarge):
            is_prime(n)
