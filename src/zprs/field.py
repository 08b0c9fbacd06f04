"""Number theory for the prime field Z_p.

Deterministic Miller-Rabin primality, the square root kappa of -1 that the
Gray maps need, trial-division factorization, and the order of a group
element read off the factorization of the group order.  Elements of Z_p
are ``rings.ChainElement(p, 1, (a,))``, the k = 1 member of the chain.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import NoSquareRootOfMinusOne, NotPrime, TooLarge
from .linalg import as_int

# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 2017); the first 12 only below 3.2e23.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


@lru_cache(maxsize=None, typed=True)
def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; ``MalformedInput`` unless p is an integer (the cache is
    typed, so 5.0 never reads the entry of 5), ``TooLarge`` for a probable prime it cannot
    prove."""
    n = as_int(p, "p")
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1        # 2^s exactly divides n - 1
    for a in _MR_BASES:
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << j, n) != n - 1 for j in range(s)):
            return False
    if n >= _MR_EXACT_BELOW:
        raise TooLarge(f"{n} is a strong probable prime beyond the proven Miller-Rabin range")
    return True


def ensure_prime(p: int) -> int:
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return p


@lru_cache(maxsize=None)
def find_kappa(p: int) -> int:
    """Smallest kappa in [1, p-1] with kappa^2 = -1 (mod p).

    Exists exactly when p = 2 or p = 1 (mod 4); otherwise raises
    ``NoSquareRootOfMinusOne``.  The first c >= 2 with c^((p-1)/2) = -1 is
    a non-residue, so k = c^((p-1)/4) squares to -1 and the two roots are k
    and p - k (p = 2 stops at c = 2 with k = 1).
    """
    ensure_prime(p)
    if p % 4 == 3:
        raise NoSquareRootOfMinusOne(f"-1 is not a square mod {p} (p = 3 mod 4)")
    c = 2
    while pow(c, (p - 1) // 2, p) != p - 1:
        c += 1
    k = pow(c, (p - 1) // 4, p)
    return min(k, p - k)


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization ((q, e), ...) of n >= 1, primes ascending: trial
    division by d <= 2^16, then ``TooLarge`` unless the cofactor is prime."""
    out, d = [], 2
    while d <= 1 << 16 and d * d <= n:
        e = 0
        while n % d == 0:
            n, e = n // d, e + 1
        if e:
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1 and not is_prime(n):
        raise TooLarge(f"{n} has no prime factor up to 2^16 and is not prime")
    return tuple(out) + (((n, 1),) if n > 1 else ())


def element_order(power_is_one, group_order: tuple[tuple[int, int], ...]) -> int:
    """Smallest t >= 1 with x^t = 1, for x in a group whose order has the
    prime factorization ``group_order``; ``power_is_one(t)`` tests x^t = 1.
    The order divides |G|: each prime is divided out while the power stays 1."""
    t = math.prod(q ** e for q, e in group_order)
    if not power_is_one(t):
        raise AssertionError("x^|G| != 1: the group order or the arithmetic is wrong")
    for q, _ in group_order:
        while t % q == 0 and power_is_one(t // q):
            t //= q
    return t

