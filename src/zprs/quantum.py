"""CSS quantum codes from cyclic codes over R = Z_p[u]/(u^2).

A cyclic code of length s over R (gcd(p, s) = 1) is determined by a
partition of the monic irreducible factors of x^s - 1 into three slots
(F0, F1, F2): by CRT the code  C = < hat(F0), u hat(F1) >  restricts to the
full component on factors in F0, to the ideal (u) on factors in F1 and to
zero on factors in F2, where hat(F) = (x^s - 1) / F is the product of the
other two slots.  Hence C = A + uB over Z_p, with A = < hat(F0) > and
B = < prod F2 > = < hat(F0), hat(F1) >, and C has the explicit basis

    x^i hat(F0)   (i < deg F0),     u x^i prod F2   (i < s - deg F2),

of size 2 deg F0 + deg F1; no basis row wraps around x^s - 1.

Duality swaps the F0 and F2 slots and replaces every factor by its monic
reciprocal; that formula is a fast path only -- the kernel dual computed by
``AdditiveCode.dual`` is always the authority, and any disagreement is
reported, not trusted.

Dual-containing Gray images feed the CSS construction: a dual-containing
[n, k, d] code over Z_p yields a quantum [[n, 2k - n, d]] code.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .additive import AdditiveCode
from .errors import (DistanceNotDetermined, GcdViolation, NotDualContaining, TooManyFactors,
                     ZprsError)
from .gray import GrayMap
from .linear import LinearCode
from .polynomials import Poly, divides, factor_xn_minus_lambda, hat, reciprocal
from .words import BlockProfile, block_columns


def _product(fs, p: int) -> np.ndarray:
    """Z_p coefficients, lowest degree first, of the product of the Z_p polynomials fs."""
    out = np.ones(1, dtype=np.int64)
    for f in fs:
        out = np.convolve(out, f.int_coeffs() or [0]) % p
    return out


@dataclass(frozen=True)
class FactorAssignment:
    """Partition of the irreducible factors of x^s - 1 over Z_p into
    (full, u-multiples, zero) slots."""

    p: int
    s: int
    f0: tuple[Poly, ...]
    f1: tuple[Poly, ...]
    f2: tuple[Poly, ...]

    def __post_init__(self):
        if self.s % self.p == 0:
            raise GcdViolation(f"gcd(p, s) must be 1, got p={self.p}, s={self.s}")
        modulus = [self.p - 1] + [0] * (self.s - 1) + [1]
        if _product(self.f0 + self.f1 + self.f2, self.p).tolist() != modulus:
            raise ZprsError("slot product must equal x^s - 1 exactly")

    @classmethod
    def from_slots(cls, p: int, s: int, f0, f1, f2) -> "FactorAssignment":
        def norm(fs):
            return tuple(sorted((f if isinstance(f, Poly) else Poly.make(f, p) for f in fs),
                                key=lambda f: (f.degree, tuple(f.int_coeffs()))))
        return cls(p, s, norm(f0), norm(f1), norm(f2))

    def slot_product(self, slot: int) -> Poly:
        return Poly.make(_product((self.f0, self.f1, self.f2)[slot], self.p).tolist(), self.p)

    def hat(self, slot: int) -> Poly:
        """(x^s - 1) / (slot product): the product of the other two slots."""
        others = [f for i, fs in enumerate((self.f0, self.f1, self.f2)) if i != slot for f in fs]
        return Poly.make(_product(others, self.p).tolist(), self.p)

    def slot_degrees(self) -> tuple[int, int, int]:
        return tuple(sum(f.degree for f in fs) for fs in (self.f0, self.f1, self.f2))

    def reciprocal_assignment(self) -> "FactorAssignment":
        """Slots of the CRT dual: F0 and F2 swap, every factor reciprocated."""
        def star(fs):
            return tuple(reciprocal(f).monic() for f in fs)
        return FactorAssignment.from_slots(self.p, self.s,
                                           star(self.f2), star(self.f1), star(self.f0))

    def key(self) -> tuple:
        return tuple(tuple(f.int_coeffs()) for fs in (self.f0, self.f1, self.f2) for f in fs)


@dataclass(frozen=True)
class QuantumParams:
    n: int
    k: int
    d: int
    p: int

    def __post_init__(self):
        if not (0 <= self.k <= self.n) or self.d < 1:
            raise ZprsError(f"invalid quantum parameters [[{self.n},{self.k},{self.d}]]")

    def __str__(self) -> str:
        return f"[[{self.n},{self.k},{self.d}]]_{self.p}"

    def saturates_singleton_remark(self) -> bool:
        """n + 2 - (k + 2d) == 2, the near-MDS pattern most table rows satisfy."""
        return self.n + 2 - (self.k + 2 * self.d) == 2


def cyclic_code_from_assignment(fa: FactorAssignment) -> AdditiveCode:
    """The cyclic R-code < hat(F0), u hat(F1) > as an additive code (q=0, r=s, s=0),
    built on its CRT basis (module docstring): x^i hat(F0) in the a-columns and
    u x^i prod F2 in the b-columns.  The rank must equal 2 deg F0 + deg F1."""
    p, s = fa.p, fa.s
    profile = BlockProfile(p, 0, s, 0)
    d0, d1, d2 = fa.slot_degrees()
    r_cols = block_columns(profile)[1]      # (s, 2): the a and b column of each position
    rows = []
    for gen, part, count in ((_product(fa.f1 + fa.f2, p), 0, d0),   # x^i hat(F0)
                             (_product(fa.f2, p), 1, s - d2)):      # u x^i prod F2
        i = np.arange(count)[:, None]
        block = np.zeros((count, profile.n), dtype=np.int64)
        block[i, r_cols[i + np.arange(gen.size), part]] = gen
        rows.append(block)
    code = AdditiveCode(profile, np.concatenate(rows), _closed=True)
    expected = 2 * d0 + d1
    if code.rank != expected:
        raise AssertionError(
            f"cyclic code rank {code.rank} differs from CRT count {expected}")
    return code


@dataclass(frozen=True)
class DualComputation:
    """Oracle-validated dual of a cyclic R-code."""

    code: AdditiveCode
    formula_matched: bool
    discrepancy: str | None


def reciprocal_dual(fa: FactorAssignment) -> DualComputation:
    """Dual of the cyclic code, cross-validated against the kernel dual.

    The reciprocal-slot construction is only a candidate; the kernel dual of
    the primal is authoritative.  On mismatch the oracle result is returned
    together with a report.
    """
    oracle = cyclic_code_from_assignment(fa).dual()
    candidate = cyclic_code_from_assignment(fa.reciprocal_assignment())
    if candidate == oracle:
        return DualComputation(oracle, True, None)
    report = ("reciprocal-slot formula disagrees with the kernel dual: "
              f"formula rank {candidate.rank}, kernel rank {oracle.rank}")
    return DualComputation(oracle, False, report)


def is_dual_containing(code: LinearCode) -> bool:
    """True iff the code contains its Euclidean dual.

    C contains C^perp iff C^perp lies in C^perp^perp = C, that is iff C^perp is
    self-orthogonal: H H^T = 0 mod p for the parity check H.
    """
    h = code.parity_check
    return not (h @ h.T % code.p).any()


def additive_dual_containing(code: AdditiveCode) -> bool:
    """Dual-containing with respect to the u-weighted additive inner product."""
    return code.dual().is_subcode_of(code)


def css(code: LinearCode, *, search_cap: int = 6, jobs: int = 1) -> QuantumParams:
    """CSS parameters [[n, 2k - n, d]]_p of a dual-containing code."""
    if not is_dual_containing(code):
        raise NotDualContaining(f"{code!r} does not contain its dual")
    d = code.min_distance(search_cap, jobs=jobs)
    return QuantumParams(code.n, 2 * code.k - code.n, d, code.p)


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


# ---------------------------------------------------------------------------
# the search driver


@dataclass(frozen=True)
class SearchHit:
    assignment: FactorAssignment
    generator: Poly       # hat(F0)
    u_generator: Poly     # hat(F1); the codeword is u * this
    gray_n: int
    gray_k: int
    params: QuantumParams
    distance_exact: bool


def _split_slots(factors, slots) -> list[list[Poly]]:
    """The factors of slot 0, 1 and 2."""
    return [[f for f, slot in zip(factors, slots) if slot == j] for j in range(3)]


def _evaluate_assignment(args) -> tuple | None:
    p, s, factors, slots, distance_cap = args
    if sum((2, 1, 0)[slot] * f.degree for slot, f in zip(slots, factors)) < s:
        return None  # a Gray image [2s, k] with k < s cannot contain its dual
    code = cyclic_code_from_assignment(FactorAssignment.from_slots(
        p, s, *_split_slots(factors, slots)))
    image = GrayMap(p).image(code)
    if not is_dual_containing(image):
        return None
    # the R-code is cyclic, so its image is fixed by shifting both Gray blocks at once
    shift = [*range(1, s), 0, *range(s + 1, 2 * s), s]
    try:
        d = image.min_distance(distance_cap, automorphism=shift)
        exact = True
    except DistanceNotDetermined as exc:
        d, exact = exc.lower_bound, False
    return (slots, image.n, image.k, d, exact)


MAX_FACTORS = 20  # search_dual_containing refuses x^s - 1 with more irreducible factors


def search_dual_containing(p: int, s: int, *, distance_cap: int = 6,
                           jobs: int = 1) -> list[SearchHit]:
    """All CSS codes from dual-containing cyclic R-codes of length s.

    Enumerates every assignment of the irreducible factors of x^s - 1 to the
    slots (F0, F1, F2), keeps the assignments whose Gray image contains its
    dual, and deduplicates by (n, k, d), keeping an exact distance over a
    lower bound and then the smallest slot tuple.  Output order is
    deterministic: sorted by (n, k, d, assignment key).  Distances above
    ``distance_cap`` are reported as lower bounds rather than dropped.
    """
    factors = factor_xn_minus_lambda(p, s, 1)
    t = len(factors)
    if t > MAX_FACTORS:
        raise TooManyFactors(f"{t} irreducible factors; bound is {MAX_FACTORS}")
    assignments = ((p, s, factors, slots, distance_cap)
                   for slots in itertools.product(range(3), repeat=t))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            raw = []
            while batch := list(itertools.islice(assignments, 1024 * jobs)):
                raw += filter(None, pool.map(_evaluate_assignment, batch, chunksize=64))
    else:
        raw = list(filter(None, map(_evaluate_assignment, assignments)))
    best: dict[tuple[int, int, int], tuple] = {}
    for slots, n, k, d, exact in sorted(raw, key=lambda r: (not r[4], r[0])):
        best.setdefault((n, 2 * k - n, d), (slots, n, k, d, exact))
    hits = []
    for (n, kq, d), (slots, _, k, _, exact) in sorted(best.items(),
                                                      key=lambda kv: (kv[0], kv[1][0])):
        fa = FactorAssignment.from_slots(p, s, *_split_slots(factors, slots))
        hits.append(SearchHit(fa, fa.hat(0), fa.hat(1), n, k,
                              QuantumParams(n, kq, d, p), exact))
    return hits


def code_from_table_generators(p: int, s: int, f0_hat, f1_hat) -> tuple[FactorAssignment,
                                                                        AdditiveCode]:
    """Reconstruct the factor assignment from displayed generators hat(F0), u hat(F1).

    Both displayed polynomials must divide x^s - 1; F0 and F1 are recovered as
    exact cofactors and F2 collects the remaining factors.
    """
    f0h = f0_hat if isinstance(f0_hat, Poly) else Poly.make(f0_hat, p)
    f1h = f1_hat if isinstance(f1_hat, Poly) else Poly.make(f1_hat, p)
    f0 = hat(f0h.monic(), p, s, 1)   # F0 = (x^s - 1) / hat(F0)
    f1 = hat(f1h.monic(), p, s, 1)
    factors = factor_xn_minus_lambda(p, s, 1)   # distinct, as x^s - 1 is squarefree
    slots = [0 if divides(f, f0) else 1 if divides(f, f1) else 2 for f in factors]
    fa = FactorAssignment.from_slots(p, s, *_split_slots(factors, slots))
    return fa, cyclic_code_from_assignment(fa)
