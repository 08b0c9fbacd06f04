"""Independent implementations that only the tests call.

The library computes these results another way; each function here is the
slower or more direct route that a fast path is compared against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from zprs.additive import AdditiveCode
from zprs.enumerators import _product_exponent, _symbol_index_rows, symbol_table
from zprs.errors import InexactDivision, ModulusMismatch, NotAUnit, ZprsError
from zprs.field import ensure_prime
from zprs.polynomials import Poly, reciprocal
from zprs.quantum import FactorAssignment, cyclic_code_from_assignment
from zprs.rings import ChainElement, power
from zprs.words import BlockProfile, block_columns


def reference_rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over Z_p by full elimination on every pivot column."""
    m = mat.astype(np.int64) % p
    pivots: list[int] = []
    for col in range(m.shape[1]):
        rank = len(pivots)
        if rank == m.shape[0]:
            break
        nz = np.flatnonzero(m[rank:, col])
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            m[[rank, piv]] = m[[piv, rank]]
        row = m[rank] * pow(int(m[rank, col]), p - 2, p) % p
        m -= np.outer(m[:, col], row)
        m %= p
        m[rank] = row
        pivots.append(col)
    return m[:len(pivots)], pivots


@dataclass(frozen=True)
class DualComputation:
    """Oracle-validated dual of a cyclic R-code."""

    code: AdditiveCode
    formula_matched: bool
    discrepancy: str | None


def reciprocal_assignment(fa: FactorAssignment) -> FactorAssignment:
    """Slots of the CRT dual: F0 and F2 swap, every factor reciprocated."""
    def star(fs):
        return tuple(reciprocal(f).monic() for f in fs)
    return FactorAssignment.from_slots(fa.p, fa.s, star(fa.f2), star(fa.f1), star(fa.f0))


def reciprocal_dual(fa: FactorAssignment) -> DualComputation:
    """Dual of the cyclic code, cross-validated against the kernel dual.

    The reciprocal-slot construction is only a candidate; the kernel dual of
    the primal is authoritative.  On mismatch the oracle result is returned
    together with a report.
    """
    oracle = cyclic_code_from_assignment(fa).dual()
    candidate = cyclic_code_from_assignment(reciprocal_assignment(fa))
    if candidate == oracle:
        return DualComputation(oracle, True, None)
    report = ("reciprocal-slot formula disagrees with the kernel dual: "
              f"formula rank {candidate.rank}, kernel rank {oracle.rank}")
    return DualComputation(oracle, False, report)


def additive_dual_containing(code: AdditiveCode) -> bool:
    """Dual-containing with respect to the u-weighted additive inner product."""
    return code.dual().is_subcode_of(code)


def separable_rs_dual_containing(code_r: AdditiveCode, code_s: AdditiveCode) -> bool:
    """Dual-containing verdict for the product code C_r x C_s over RS.

    Also computes the componentwise verdicts and asserts the biconditional:
    the product is dual-containing iff both components are.
    """
    if code_r.profile.p != code_s.profile.p:
        raise ZprsError("components over different primes")
    if code_r.profile.q or code_r.profile.s or code_s.profile.q or code_s.profile.r:
        raise ZprsError("expected an R-only and an S-only component")
    profile = BlockProfile(code_r.profile.p, 0, code_r.profile.r, code_s.profile.s)
    _, r_cols, s_cols = block_columns(profile)
    rows = np.zeros((code_r.rank + code_s.rank, profile.n), dtype=np.int64)
    rows[:code_r.rank, r_cols.ravel()] = code_r.basis
    rows[code_r.rank:, s_cols.ravel()] = code_s.basis
    product = AdditiveCode(profile, rows)
    verdict = additive_dual_containing(product)
    componentwise = additive_dual_containing(code_r) and additive_dual_containing(code_s)
    if verdict != componentwise:
        raise AssertionError("separable dual-containing biconditional failed")
    return verdict


def symbol_rows_by_digits(code: AdditiveCode) -> list[list[int]]:
    """The symbol indices of every codeword in walk order, read off its flattened
    digits in plain Python: coordinate j is the base-p number with the digits
    (x_j; y_j0, y_j1; z_j0, z_j1, z_j2), most significant first."""
    pr = code.profile
    p, n = pr.p, pr.q
    rows = []
    for chunk in code.iter_codeword_vectors():
        for w in chunk.tolist():
            row = []
            for j in range(n):
                index = 0
                for d in (w[j], w[n + 2 * j], w[n + 2 * j + 1],
                          w[3 * n + 3 * j], w[3 * n + 3 * j + 1], w[3 * n + 3 * j + 2]):
                    index = index * p + d
                row.append(index)
            rows.append(row)
    return rows


def codeword_sums_by_words(rows: list[list[int]], tables: np.ndarray) -> list[list[int]]:
    """For each m, the sum over the index rows of the product of tables[m, i] over
    the row's indices i in Z[y]/(y^k - 1), one Python int at a time."""
    k = tables.shape[-1]
    out = []
    for table in tables.tolist():
        total = [0] * k
        for row in rows:
            prod = [1] + [0] * (k - 1)
            for i in row:
                f = table[i]
                prod = [sum(prod[a] * f[(t - a) % k] for a in range(k)) for t in range(k)]
            total = [x + y for x, y in zip(total, prod)]
        out.append(total)
    return out


def regroup(code: AdditiveCode):
    """All codewords as tuples of (x, y, z) coordinate triples."""
    t = symbol_table(code.profile.p)
    return [tuple(t.triple(int(i)) for i in row)
            for chunk in _symbol_index_rows(code) for row in chunk]


def char_matrix_entry(i: int, j: int, p: int) -> CyclotomicInt:
    """P_ij = chi(f_i f_j) for one pair of symbol indices, at any p."""
    t = symbol_table(p)
    digits = np.array([t.digits(int(i)), t.digits(int(j))], dtype=object)
    return CyclotomicInt.root_power(int(_product_exponent(digits[0], digits[1], p)), p)


class CyclotomicInt:
    """Element of Z[zeta_p] on the basis 1, zeta, ..., zeta^(p-2).

    For p = 2 this degenerates to a plain integer with zeta = -1.
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Sequence[int]):
        ensure_prime(p)
        if len(coeffs) != p - 1:
            raise ModulusMismatch(f"need {p - 1} basis coefficients, got {len(coeffs)}")
        self.p = p
        self.coeffs = tuple(int(c) for c in coeffs)

    @classmethod
    def zero(cls, p: int) -> "CyclotomicInt":
        return cls(p, (0,) * (p - 1))

    @classmethod
    def from_int(cls, n: int, p: int) -> "CyclotomicInt":
        return cls(p, (n,) + (0,) * (p - 2))

    @classmethod
    def root_power(cls, e: int, p: int, scale: int = 1) -> "CyclotomicInt":
        """scale * zeta^e, reduced by 1 + zeta + ... + zeta^(p-1) = 0."""
        e %= p
        if e < p - 1:
            v = [0] * (p - 1)
            v[e] = scale
        else:
            v = [-scale] * (p - 1)
        return cls(p, v)

    def _check(self, other: "CyclotomicInt") -> None:
        if self.p != other.p:
            raise ModulusMismatch("cyclotomic integers over different primes")

    def __add__(self, other):
        if isinstance(other, int):
            other = CyclotomicInt.from_int(other, self.p)
        self._check(other)
        return CyclotomicInt(self.p, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return CyclotomicInt(self.p, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return CyclotomicInt(self.p, tuple(a * other for a in self.coeffs))
        self._check(other)
        p = self.p
        buckets = [0] * p
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        buckets[(i + j) % p] += a * b
        top = buckets[p - 1]
        return CyclotomicInt(p, tuple(buckets[i] - top for i in range(p - 1)))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "CyclotomicInt":
        if e < 0:
            raise ValueError("negative powers not supported")
        return power(self, e, CyclotomicInt.from_int(1, self.p))

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.is_rational_integer and self.coeffs[0] == other
        return (isinstance(other, CyclotomicInt) and self.p == other.p
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.p, self.coeffs))

    def __bool__(self) -> bool:
        return any(self.coeffs)

    @property
    def is_rational_integer(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def exact_div(self, m: int) -> "CyclotomicInt":
        if any(c % m for c in self.coeffs):
            raise InexactDivision(f"{self} is not divisible by {m}")
        return CyclotomicInt(self.p, tuple(c // m for c in self.coeffs))

    def __repr__(self) -> str:
        if self.p == 2:
            return str(self.coeffs[0])
        terms = [str(self.coeffs[0])] + [f"{c}*z^{i}" for i, c in
                 enumerate(self.coeffs[1:], start=1) if c]
        return " + ".join(terms)




def character(symbol, p: int) -> CyclotomicInt:
    """chi of a symbol (given as a triple or an index): zeta^(its digit sum)."""
    t = symbol_table(p)
    idx = int(symbol) if isinstance(symbol, (int, np.integer)) else t.index_of(symbol)
    return CyclotomicInt.root_power(sum(t.digits(idx)), p)


def rho_substitute(f: Poly, mu, n: int) -> Poly:
    """f(mu^-1 x) reduced mod x^n - mu.

    This is the ring isomorphism carrying ideals of R[x]/(x^n - 1) to ideals
    of R[x]/(x^n - mu): cyclic codes become mu-constacyclic codes.
    """
    mu_e = ChainElement.make(mu, f.p, f.k)
    if not mu_e.is_unit:
        raise NotAUnit(f"{mu_e} is not a unit")
    # x^j -> mu^-j x^j, and x^j = mu^(j div n) x^(j mod n) mod x^n - mu
    out = [ChainElement.zero(f.p, f.k)] * min(n, len(f.coeffs))
    for j, c in enumerate(f.coeffs):
        out[j % n] = out[j % n] + c * mu_e ** (j // n - j)
    return Poly(f.p, f.k, tuple(out))
