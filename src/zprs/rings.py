"""Exact arithmetic in the chain rings Z_p[u]/(u^k) for k in {1, 2, 3}.

A single generic element type covers all three rings: k = 1 embeds Z_p,
k = 2 is R = Z_p[u]/(u^2), k = 3 is S = Z_p[u]/(u^3).  The projections

    eta0 : R -> Z_p,   a + bu          |-> a
    eta1 : S -> Z_p,   a + bu + du^2   |-> a
    eta2 : S -> R,     a + bu + du^2   |-> a + bu

are ring epimorphisms.  An element is a unit iff its constant coefficient
is nonzero in Z_p.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .errors import ModulusMismatch, NotAUnit, WrongRing
from .field import element_order, ensure_prime, factorize
from .linalg import as_int

CoeffsLike = Union[int, Sequence[int], "ChainElement"]


@dataclass(frozen=True)
class ChainElement:
    """a + b*u + d*u^2 in Z_p[u]/(u^k), stored as k coefficients in [0, p-1]."""

    p: int
    k: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        ensure_prime(self.p)
        if self.k not in (1, 2, 3):
            raise WrongRing(f"nilpotency index must be 1, 2 or 3, got {self.k}")
        if len(self.coeffs) != self.k:
            raise WrongRing(f"expected {self.k} coefficients, got {len(self.coeffs)}")
        coeffs = tuple(as_int(c, "a coefficient", WrongRing) % self.p for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def make(cls, value: CoeffsLike, p: int, k: int) -> "ChainElement":
        """Coerce an integer, a coefficient sequence, or a smaller-ring element.
        Text, mappings and sets are not coefficient sequences: ``WrongRing``."""
        if isinstance(value, ChainElement):
            if value.p != p:
                raise ModulusMismatch(f"moduli differ: {value.p} vs {p}")
            if value.k > k:
                raise WrongRing(f"cannot shrink ring: k={value.k} into k={k}")
            return cls(p, k, value.coeffs + (0,) * (k - value.k))
        if not hasattr(value, "__iter__"):
            coeffs = (value,)
        elif isinstance(value, (str, bytes, dict, set, frozenset)):
            raise WrongRing(f"coefficients must be integers or a sequence of them, got {value!r}")
        else:
            coeffs = tuple(value)
        if len(coeffs) > k:
            raise WrongRing(f"{len(coeffs)} coefficients do not fit in k={k}")
        return cls(p, k, coeffs + (0,) * (k - len(coeffs)))

    @classmethod
    def zero(cls, p: int, k: int) -> "ChainElement":
        return cls(p, k, (0,) * k)

    @classmethod
    def one(cls, p: int, k: int) -> "ChainElement":
        return cls(p, k, (1,) + (0,) * (k - 1))

    def _check(self, other: "ChainElement") -> None:
        if (self.p, self.k) != (other.p, other.k):
            raise ModulusMismatch(
                f"ring mismatch: (p={self.p}, k={self.k}) vs (p={other.p}, k={other.k})")

    def __add__(self, other: "ChainElement") -> "ChainElement":
        self._check(other)
        return ChainElement(self.p, self.k,
                            tuple((a + b) % self.p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "ChainElement") -> "ChainElement":
        self._check(other)
        return ChainElement(self.p, self.k,
                            tuple((a - b) % self.p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "ChainElement":
        return ChainElement(self.p, self.k, tuple(-a % self.p for a in self.coeffs))

    def __mul__(self, other: "ChainElement") -> "ChainElement":
        # convolution truncated at degree k-1 (u^k = 0)
        self._check(other)
        out = [0] * self.k
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(self.k - i):
                out[i + j] = (out[i + j] + a * other.coeffs[j]) % self.p
        return ChainElement(self.p, self.k, tuple(out))

    def scale(self, c: int) -> "ChainElement":
        return ChainElement(self.p, self.k, tuple(c * a % self.p for a in self.coeffs))

    def __pow__(self, e: int) -> "ChainElement":
        if e < 0:
            return self.inverse() ** (-e)
        return power(self, e, ChainElement.one(self.p, self.k))

    @property
    def is_unit(self) -> bool:
        return self.coeffs[0] % self.p != 0

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero

    def inverse(self) -> "ChainElement":
        """Multiplicative inverse of a unit.

        With a the constant coefficient: (a + bu + du^2)^-1
        = a^-1 - (b/a^2) u + ((b^2 - ad)/a^3) u^2, truncated to k terms.
        """
        if not self.is_unit:
            raise NotAUnit(f"{self} is not a unit")
        p = self.p
        a = self.coeffs[0]
        ainv = pow(a, p - 2, p)
        out = [ainv]
        if self.k >= 2:
            b = self.coeffs[1]
            out.append(-b * ainv * ainv % p)
        if self.k >= 3:
            b, d = self.coeffs[1], self.coeffs[2]
            out.append((b * b - a * d) * pow(ainv, 3, p) % p)
        return ChainElement(p, self.k, tuple(out))

    def lift(self, k: int) -> "ChainElement":
        """Embed into Z_p[u]/(u^k) for k >= self.k by padding zero coefficients."""
        if k < self.k:
            raise WrongRing(f"cannot lift k={self.k} down to k={k}")
        return ChainElement(self.p, k, self.coeffs + (0,) * (k - self.k))

    def __str__(self) -> str:
        names = ("", "u", "u²")
        terms = []
        for c, name in zip(self.coeffs, names):
            if c == 0:
                continue
            if not name:
                terms.append(str(c))
            elif c == 1:
                terms.append(name)
            else:
                terms.append(f"{c}{name}")
        return "+".join(terms) if terms else "0"

    def __repr__(self) -> str:
        return f"ChainElement({self}, p={self.p}, k={self.k})"


def power(x, e: int, one):
    """x^e for e >= 0 by square-and-multiply, in any ring with ``*`` and identity ``one``."""
    result = one
    while e:
        if e & 1:
            result = result * x
        x = x * x
        e >>= 1
    return result


def eta0(x: ChainElement) -> ChainElement:
    """R -> Z_p, drop the u part."""
    if x.k != 2:
        raise WrongRing(f"eta0 expects k=2, got k={x.k}")
    return ChainElement(x.p, 1, (x.coeffs[0],))


def eta1(x: ChainElement) -> ChainElement:
    """S -> Z_p, keep the constant term."""
    if x.k != 3:
        raise WrongRing(f"eta1 expects k=3, got k={x.k}")
    return ChainElement(x.p, 1, (x.coeffs[0],))


def eta2(x: ChainElement) -> ChainElement:
    """S -> R, truncate at u^2."""
    if x.k != 3:
        raise WrongRing(f"eta2 expects k=3, got k={x.k}")
    return ChainElement(x.p, 2, x.coeffs[:2])


def unit_order(x: ChainElement) -> int:
    """Smallest t >= 1 with x^t = 1, in the unit group of order (p - 1) p^(k-1)."""
    if not x.is_unit:
        raise NotAUnit(f"{x} is not a unit")
    one = ChainElement.one(x.p, x.k)
    group = factorize(x.p - 1) + (((x.p, x.k - 1),) if x.k > 1 else ())
    return element_order(lambda t: x ** t == one, group)


def all_elements(p: int, k: int) -> Iterable[ChainElement]:
    """All p^k elements, in coefficient-lexicographic order (constant term first)."""
    ensure_prime(p)
    return (ChainElement(p, k, c) for c in itertools.product(range(p), repeat=k))
