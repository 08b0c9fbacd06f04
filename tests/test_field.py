import math
import time

import numpy as np
import pytest

from zprs.errors import (DivisionByZero, ModulusMismatch, NoSquareRootOfMinusOne, NotAUnit,
                         NotPrime, TooLarge)
from zprs.field import FieldElement, find_kappa, is_prime, unit_order


def test_primality_checked_at_construction():
    with pytest.raises(NotPrime):
        FieldElement(1, 4)
    with pytest.raises(NotPrime):
        FieldElement(0, 1)
    FieldElement(3, 2)  # reduced mod 2, fine


def test_arithmetic_examples():
    assert (FieldElement(3, 5) + FieldElement(4, 5)).value == 2
    assert (FieldElement(1, 7) / FieldElement(1, 7)).value == 1
    # 2/3 mod 5: brute force 3*4 = 12 = 2 mod 5
    assert (FieldElement(2, 5) / FieldElement(3, 5)).value == 4
    assert (FieldElement(2, 5) - FieldElement(4, 5)).value == 3
    assert (-FieldElement(2, 5)).value == 3
    assert (FieldElement(2, 5) ** 4).value == 1


def test_arithmetic_errors():
    with pytest.raises(ModulusMismatch):
        FieldElement(1, 5) + FieldElement(1, 7)
    with pytest.raises(DivisionByZero):
        FieldElement(1, 5) / FieldElement(0, 5)
    with pytest.raises(DivisionByZero):
        FieldElement(0, 5).inverse()


def test_division_matches_brute_force():
    for p in (2, 3, 5, 7, 11):
        for a in range(p):
            for b in range(1, p):
                got = (FieldElement(a, p) / FieldElement(b, p)).value
                assert got * b % p == a


def test_find_kappa_examples():
    assert find_kappa(2).value == 1
    assert find_kappa(5).value == 2
    assert find_kappa(13).value == 5
    assert find_kappa(17).value == 4


def test_find_kappa_square_is_minus_one():
    for p in (2, 5, 13, 17, 29, 37, 41, 97, 101):
        k = find_kappa(p)
        assert (k.value * k.value + 1) % p == 0


def test_find_kappa_rejects_p_equals_3_mod_4():
    for p in (3, 7, 11, 19, 23):
        with pytest.raises(NoSquareRootOfMinusOne):
            find_kappa(p)


def test_find_kappa_matches_exhaustive_search_below_10_4():
    for p in (n for n in range(2, 10 ** 4) if is_prime(n)):
        ks = np.arange(1, p)
        roots = ks[ks * ks % p == p - 1]
        if roots.size:
            assert find_kappa(p).value == roots[0]
        else:
            with pytest.raises(NoSquareRootOfMinusOne):
                find_kappa(p)


def test_find_kappa_large_primes_fast():
    start = time.perf_counter()
    k = find_kappa(998244353).value
    assert time.perf_counter() - start < 0.1
    assert k * k % 998244353 == 998244352 and k <= 998244353 // 2
    start = time.perf_counter()
    with pytest.raises(NoSquareRootOfMinusOne):
        find_kappa(2 ** 61 - 1)
    assert time.perf_counter() - start < 0.1


def test_unit_order_examples():
    assert unit_order(FieldElement(1, 7)) == 1
    assert unit_order(FieldElement(4, 5)) == 2
    assert unit_order(FieldElement(2, 5)) == 4
    with pytest.raises(NotAUnit):
        unit_order(FieldElement(0, 5))


def test_unit_order_minimal_and_divides_group_order():
    # exhaustive over all units for a spread of primes up to 257
    for p in (2, 3, 5, 17, 101, 257):
        for a in range(1, p):
            t = unit_order(FieldElement(a, p))
            assert pow(a, t, p) == 1
            assert all(pow(a, i, p) != 1 for i in range(1, t))
            assert (p - 1) % t == 0  # Lagrange


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
