"""Exact arithmetic in the prime field Z_p.

Elements are immutable values carrying their modulus.  Primality is checked
eagerly by deterministic Miller-Rabin, so downstream modules may assume p is
prime.  Division uses Fermat exponentiation a / b = a * b^(p-2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import (DivisionByZero, ModulusMismatch, NoSquareRootOfMinusOne, NotAUnit, NotPrime,
                     TooLarge)

# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 2017); the first 12 only below 3.2e23.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ``TooLarge`` for a probable prime it cannot prove."""
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


@dataclass(frozen=True)
class FieldElement:
    """An element of Z_p, stored as the canonical representative in [0, p-1]."""

    value: int
    p: int

    def __post_init__(self):
        ensure_prime(self.p)
        object.__setattr__(self, "value", self.value % self.p)

    def _check(self, other: "FieldElement") -> None:
        if self.p != other.p:
            raise ModulusMismatch(f"moduli differ: {self.p} vs {other.p}")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement((self.value + other.value) % self.p, self.p)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement((self.value - other.value) % self.p, self.p)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.value * other.value % self.p, self.p)

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        if other.value == 0:
            raise DivisionByZero(f"division by zero in Z_{self.p}")
        return self * other.inverse()

    def __neg__(self) -> "FieldElement":
        return FieldElement(-self.value % self.p, self.p)

    def __pow__(self, e: int) -> "FieldElement":
        if e < 0:
            return self.inverse() ** (-e)
        return FieldElement(pow(self.value, e, self.p), self.p)

    def inverse(self) -> "FieldElement":
        if self.value == 0:
            raise DivisionByZero(f"zero has no inverse in Z_{self.p}")
        return FieldElement(pow(self.value, self.p - 2, self.p), self.p)

    def __bool__(self) -> bool:
        return self.value != 0

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"{self.value} (mod {self.p})"


@lru_cache(maxsize=None)
def find_kappa(p: int) -> FieldElement:
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
    return FieldElement(min(k, p - k), p)


def unit_order(a: FieldElement) -> int:
    """Multiplicative order of a nonzero element: smallest t >= 1 with a^t = 1."""
    if a.value == 0:
        raise NotAUnit(f"0 is not a unit in Z_{a.p}")
    t, x = 1, a.value
    while x != 1:
        x = x * a.value % a.p
        t += 1
    return t
