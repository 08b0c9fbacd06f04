"""Univariate polynomials over Z_p and the chain rings, plus the handful of
polynomial constructions the code machinery needs:

* division / divisibility (unit leading coefficient required over R and S),
* factorization of x^n - lambda over Z_p by Berlekamp on Z_p arrays, the kernel
  read off the cycles of i -> p i mod n, no split tried where v mod g is constant,
* reciprocal polynomials x^m f(1/x),
* exact cofactors (x^n - lambda) / f,
* the substitution f(x) -> f(mu^-1 x) carrying cyclic codes mod x^n - 1 to
  mu-constacyclic codes mod x^n - mu.

Coefficients are stored lowest degree first with trailing zeros stripped;
the zero polynomial has an empty coefficient tuple and degree -1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from .errors import (GcdViolation, MalformedInput, ModulusMismatch, NonUnitLeadingCoefficient,
                     NotADivisor, ZeroConstantTerm)
from .field import ensure_prime
from .linalg import as_int, check_modulus, rref
from .rings import ChainElement

CoeffLike = Union[int, Sequence[int], ChainElement]


@dataclass(frozen=True)
class Poly:
    """Polynomial over Z_p[u]/(u^k), lowest degree first, normalized."""

    p: int
    k: int
    coeffs: tuple[ChainElement, ...]

    def __post_init__(self):
        ensure_prime(self.p)
        cs = list(self.coeffs)
        while cs and cs[-1].is_zero:
            cs.pop()
        for c in cs:
            if (c.p, c.k) != (self.p, self.k):
                raise ModulusMismatch("coefficient from a different ring")
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def make(cls, coeffs: Sequence[CoeffLike], p: int, k: int = 1) -> "Poly":
        return cls(p, k, tuple(ChainElement.make(c, p, k) for c in coeffs))

    @classmethod
    def zero(cls, p: int, k: int = 1) -> "Poly":
        return cls(p, k, ())

    @classmethod
    def one(cls, p: int, k: int = 1) -> "Poly":
        return cls.make([1], p, k)

    @property
    def degree(self) -> int:
        """-1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coefficient(self, j: int) -> ChainElement:
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return ChainElement.zero(self.p, self.k)

    def int_coeffs(self) -> list[int]:
        """Z_p coefficients as plain ints (k = 1 only)."""
        if self.k != 1:
            raise ModulusMismatch("int_coeffs is for Z_p polynomials")
        return [c.coeffs[0] for c in self.coeffs]

    @cached_property
    def int_key(self) -> tuple[int, ...]:
        """``int_coeffs()`` as a tuple, computed once per polynomial."""
        return tuple(self.int_coeffs())

    def _check(self, other: "Poly") -> None:
        if (self.p, self.k) != (other.p, other.k):
            raise ModulusMismatch("polynomials over different rings")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.p, self.k,
                    tuple(self.coefficient(j) + other.coefficient(j) for j in range(n)))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + -other

    def __neg__(self) -> "Poly":
        return Poly(self.p, self.k, tuple(-c for c in self.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        if self.is_zero or other.is_zero:
            return Poly.zero(self.p, self.k)
        out = [ChainElement.zero(self.p, self.k)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(self.p, self.k, tuple(out))

    def scale(self, c: CoeffLike) -> "Poly":
        ce = ChainElement.make(c, self.p, self.k)
        return Poly(self.p, self.k, tuple(ce * a for a in self.coeffs))

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        lead = self.coeffs[-1]
        if not lead.is_unit:
            raise NonUnitLeadingCoefficient("cannot normalize: leading coefficient not a unit")
        return self.scale(lead.inverse())

    def evaluate(self, x: CoeffLike) -> ChainElement:
        xe = ChainElement.make(x, self.p, self.k)
        acc = ChainElement.zero(self.p, self.k)
        for c in reversed(self.coeffs):
            acc = acc * xe + c
        return acc

    def lift(self, k: int) -> "Poly":
        return Poly(self.p, k, tuple(c.lift(k) for c in self.coeffs))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for j in range(self.degree, -1, -1):
            c = self.coefficient(j)
            if c.is_zero:
                continue
            cs = str(c)
            if "+" in cs or (self.k > 1 and len([v for v in c.coeffs if v]) > 1):
                cs = f"({cs})"
            if j == 0:
                terms.append(cs)
            else:
                xs = "x" if j == 1 else f"x^{j}"
                terms.append(xs if cs == "1" else f"{cs}{xs}")
        return " + ".join(terms)

    def __repr__(self) -> str:
        return f"Poly({self}, p={self.p}, k={self.k})"


_TERM_RE = re.compile(r"^(\d*)(x(?:\^(\d+))?)?$")


def parse_poly(text: str, p: int) -> Poly:
    """Parse Z_p polynomial text like 'x^3 + 3x^2 + 5x + 4'."""
    cleaned = text.replace(" ", "").replace("-", "+-")
    if not cleaned:
        return Poly.zero(p)
    coeffs: dict[int, int] = {}
    for term in cleaned.split("+"):
        if not term:
            continue
        sign = 1
        if term.startswith("-"):
            sign, term = -1, term[1:]
        m = _TERM_RE.match(term)
        if not m or not term:
            raise MalformedInput(f"cannot parse polynomial term {term!r}")
        digits, xpart, expo = m.groups()
        coef = int(digits) if digits else 1
        deg = 0 if xpart is None else (int(expo) if expo else 1)
        coeffs[deg] = coeffs.get(deg, 0) + sign * coef
    top = max(coeffs) if coeffs else 0
    return Poly.make([coeffs.get(j, 0) for j in range(top + 1)], p)


def poly_divmod(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """f = q*g + r with deg r < deg g; g must have a unit leading coefficient.
    Over Z_p (k = 1) the division runs on integer arrays."""
    f._check(g)
    if g.is_zero:
        raise NonUnitLeadingCoefficient("division by the zero polynomial")
    lead = g.coeffs[-1]
    if not lead.is_unit:
        raise NonUnitLeadingCoefficient(f"leading coefficient {lead} is not a unit")
    if f.k == 1:
        q, r = _zp_divide(f, g)
        return Poly.make(q.tolist(), f.p), Poly.make(r.tolist(), f.p)
    inv = lead.inverse()
    rem = list(f.coeffs)
    dq = len(f.coeffs) - len(g.coeffs)
    if dq < 0:
        return Poly.zero(f.p, f.k), f
    quo = [ChainElement.zero(f.p, f.k)] * (dq + 1)
    for d in range(dq, -1, -1):
        c = rem[d + g.degree] * inv
        if c.is_zero:
            continue
        quo[d] = c
        for j, b in enumerate(g.coeffs):
            rem[d + j] = rem[d + j] - c * b
    return Poly(f.p, f.k, tuple(quo)), Poly(f.p, f.k, tuple(rem))


def divides(f: Poly, g: Poly) -> bool:
    """True iff f | g (f needs a unit leading coefficient)."""
    if f.is_zero:
        return g.is_zero
    if f.k == g.k == 1 and f.p == g.p:
        return not _zp_divide(g, f)[1].any()
    return poly_divmod(g, f)[1].is_zero


def x_pow_n_minus(lam: CoeffLike, n: int, p: int, k: int = 1) -> Poly:
    """The block modulus x^n - lam over Z_p[u]/(u^k), n >= 1."""
    if n < 1:
        raise GcdViolation("n must be positive")
    return Poly(p, k, (-ChainElement.make(lam, p, k),) + (ChainElement.zero(p, k),) * (n - 1)
                + (ChainElement.one(p, k),))


def _zp_divmod(a: np.ndarray, g: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(quotient, remainder of deg g coefficients) of a by the monic g over Z_p, arrays
    lowest degree first; each quotient coefficient stays where it cleared a term."""
    d = len(g) - 1
    r, low = a % p, g[:d]
    for i in range(len(a) - 1, d - 1, -1):
        if r[i]:
            r[i - d:i] = (r[i - d:i] - r[i] * low) % p
    return r[d:], r[:d]


def _zp_divide(f: Poly, g: Poly) -> tuple[np.ndarray, np.ndarray]:
    """(quotient, remainder) arrays of the Z_p polynomials f by the nonzero g."""
    p, divisor = f.p, np.array(g.int_coeffs(), dtype=np.int64)
    c = pow(int(divisor[-1]), p - 2, p)
    q, r = _zp_divmod(np.array(f.int_coeffs(), dtype=np.int64), divisor * c % p, p)
    return q * c % p, r


def _zp_gcd(g: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Monic gcd of the monic g and b over Z_p, remainders cut by a ``nonzero`` slice."""
    while (nz := b.nonzero()[0]).size:
        b = b[:nz[-1] + 1]
        g, b = b * pow(int(b[-1]), p - 2, p) % p, g
        b = _zp_divmod(b, g, p)[1]
    return g


def _berlekamp_split(g: np.ndarray, v: np.ndarray, p: int) -> list[np.ndarray]:
    """gcd(g, w - c), w = v mod g, over the roots c in Z_p of the minimal polynomial
    of w: a product of distinct y - c as v^p = v mod g, so the gcds are pairwise
    coprime with product g; a constant w returns [g] at once.  That polynomial has a
    degree d <= K = min(deg g, p), so the RREF of the columns w^0, ..., w^K has the
    pivots 0..d-1, and its column d gives w^d = sum m[i, d] w^i."""
    w = _zp_divmod(v, g, p)[1]
    if not w[1:].any():
        return [g]
    powers = [np.eye(1, len(w), dtype=np.int64)[0]]
    for _ in range(min(len(w), p)):
        powers.append(_zp_divmod(np.convolve(powers[-1], w) % p, g, p)[1])
    m, pivots = rref(np.array(powers).T, p)
    mu = [1, *(-m[::-1, len(pivots)] % p)]      # highest degree first
    parts = []
    for start in range(0, p, 1 << 16):
        cs = np.arange(start, min(start + (1 << 16), p))
        val = np.zeros_like(cs)
        for coef in mu:
            val = (val * cs + coef) % p
        parts += [_zp_gcd(g, np.concatenate(([(w[0] - c) % p], w[1:])), p) for c in cs[val == 0]]
    return parts


def factor_xn_minus_lambda(p: int, n: int, lam: int) -> list[Poly]:
    """Monic irreducible factors of x^n - lambda over Z_p, sorted canonically.

    Deterministic Berlekamp (1967) on f = x^n - lambda, squarefree as gcd(p, n) = 1.
    Row i of Q is x^(p i) mod f = lambda^(p i div n) x^(p i mod n), so (Q - I)^T v = 0
    iff v[p i mod n] = lambda^(p i div n) v[i]: on a cycle of i -> p i mod n, v is fixed
    by its value at the cycle minimum, and the cycle gives a kernel vector, 1 there,
    iff its scalings multiply to 1.  Of disjoint supports, these are the RREF kernel
    basis, of size r, the factor count.  Each v splits the factors g found so far by
    gcd(g, v - c) until there are r, except where w = v mod g is constant: v = 1, or g
    irreducible of degree d, as w^p = w puts w in Z_p, the fixed field of Frobenius on
    GF(p^d).  Finding the c evaluates a polynomial on all of Z_p, so that step grows
    linearly in p; the factorization is unique, so the canonical sort keeps outputs stable.
    """
    p, n, lam = as_int(p, "p"), as_int(n, "n"), as_int(lam, "lambda")
    ensure_prime(p)
    lam %= p
    if lam == 0:
        raise GcdViolation("lambda must be a unit of Z_p")
    if n <= 0:
        raise GcdViolation("n must be positive")
    if n % p == 0:
        raise GcdViolation(f"gcd(p, n) must be 1, got p={p}, n={n}")
    check_modulus(p, n)
    basis, seen = [], [False] * n
    for m in range(n):
        v, i, c = np.zeros(n, dtype=np.int64), m, 1
        while not seen[i]:
            seen[i], v[i], c, i = True, c, c * pow(lam, p * i // n, p) % p, p * i % n
        if c == 1 and v[m]:
            basis.append(v)
    factors = [np.array([-lam % p] + [0] * (n - 1) + [1], dtype=np.int64)]
    for v in basis:
        if len(factors) == len(basis):
            break
        factors = [h for g in factors
                   for h in (_berlekamp_split(g, v, p) if len(g) > 2 else [g])]
    keyed = sorted((len(g) - 1, tuple(int(c) for c in g)) for g in factors)
    return [Poly.make(list(coeffs), p) for _, coeffs in keyed]


def reciprocal(g: Poly) -> Poly:
    """x^deg(g) * g(1/x): the coefficient sequence reversed, no normalization."""
    if g.is_zero or g.coeffs[0].is_zero:
        raise ZeroConstantTerm("reciprocal needs a nonzero constant term")
    return Poly(g.p, g.k, tuple(reversed(g.coeffs)))


def hat(f: Poly, p: int, n: int, lam: int) -> Poly:
    """The exact cofactor (x^n - lambda) / f."""
    q, r = poly_divmod(x_pow_n_minus(lam, n, p, f.k), f)
    if not r.is_zero:
        raise NotADivisor(f"{f} does not divide x^{n} - {lam % p}")
    return q

