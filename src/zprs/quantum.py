"""CSS quantum codes from cyclic codes over R = Z_p[u]/(u^2).

A cyclic code of length s over R (gcd(p, s) = 1) is determined by a
partition of the monic irreducible factors of x^s - 1 into three slots
(F0, F1, F2): by CRT the code  C = < hat(F0), u hat(F1) >  restricts to the
full component on factors in F0, to the ideal (u) on factors in F1 and to
zero on factors in F2, where hat(F) = (x^s - 1) / F.  Its size is
p^(2 deg F0 + deg F1).

Duality swaps the F0 and F2 slots and replaces every factor by its monic
reciprocal; that formula is a fast path only -- the kernel dual computed by
``AdditiveCode.dual`` is always the authority, and any disagreement is
reported, not trusted.

Dual-containing Gray images feed the CSS construction: a dual-containing
[n, k, d] code over Z_p yields a quantum [[n, 2k - n, d]] code.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import reduce

from .additive import AdditiveCode, shift_module_span, word_from_polynomials
from .errors import (DistanceNotDetermined, GcdViolation, NotDualContaining, TooManyFactors,
                     ZprsError)
from .gray import GrayMap
from .linear import LinearCode
from .polynomials import (Poly, factor_xn_minus_lambda, hat, poly_divmod, reciprocal,
                          x_pow_n_minus)
from .words import BlockProfile, flatten


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
        product = reduce(lambda a, b: a * b,
                         self.f0 + self.f1 + self.f2, Poly.one(self.p))
        if product != x_pow_n_minus(1, self.s, self.p):
            raise ZprsError("slot product must equal x^s - 1 exactly")

    @classmethod
    def from_slots(cls, p: int, s: int, f0, f1, f2) -> "FactorAssignment":
        def norm(fs):
            return tuple(sorted((f if isinstance(f, Poly) else Poly.make(f, p) for f in fs),
                                key=lambda f: (f.degree, tuple(f.int_coeffs()))))
        return cls(p, s, norm(f0), norm(f1), norm(f2))

    def slot_product(self, slot: int) -> Poly:
        fs = (self.f0, self.f1, self.f2)[slot]
        return reduce(lambda a, b: a * b, fs, Poly.one(self.p))

    def hat(self, slot: int) -> Poly:
        """(x^s - 1) / (slot product)."""
        return hat(self.slot_product(slot), self.p, self.s, 1)

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


def r_profile(p: int, s: int) -> BlockProfile:
    return BlockProfile(p, 0, s, 0)


def cyclic_code_from_assignment(fa: FactorAssignment) -> AdditiveCode:
    """The cyclic R-code < hat(F0), u hat(F1) > as an additive code (q=0, r=s, s=0)."""
    profile = r_profile(fa.p, fa.s)
    words = []
    f0_hat = fa.hat(0)
    if f0_hat.degree < fa.s:  # an empty F0 slot gives hat(F0) = x^s - 1 = 0
        words.append(word_from_polynomials(profile, r_poly=f0_hat))
    f1_hat = fa.hat(1)
    if f1_hat.degree < fa.s:
        u_f1 = Poly.make([(0, c) for c in f1_hat.int_coeffs()], fa.p, 2)
        words.append(word_from_polynomials(profile, r_poly=u_f1))
    code = shift_module_span(words, profile=profile) if words else AdditiveCode.zero(profile)
    expected = 2 * fa.slot_degrees()[0] + fa.slot_degrees()[1]
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
    """True iff every generator of the Euclidean dual lies in the code."""
    return code.euclidean_dual().is_subcode_of(code)


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
    p, r, s = code_r.profile.p, code_r.profile.r, code_s.profile.s
    profile = BlockProfile(p, 0, r, s)
    rows = []
    for w in code_r.basis_words():
        rows.append(word_from_polynomials(profile, r_poly=Poly(p, 2, w.rpart)))
    for w in code_s.basis_words():
        rows.append(word_from_polynomials(profile, s_poly=Poly(p, 3, w.spart)))
    product = AdditiveCode(profile, [flatten(w) for w in rows])
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


def _evaluate_assignment(args) -> tuple | None:
    p, s, factor_coeffs, slots, distance_cap = args
    degrees = [len(c) - 1 for c in factor_coeffs]
    rank = sum((2, 1, 0)[slot] * deg for slot, deg in zip(slots, degrees))
    if 2 * rank < 2 * s or rank == 0:
        return None  # dual-containing Gray images need k >= n/2
    factors = [Poly.make(c, p) for c in factor_coeffs]
    fa = FactorAssignment.from_slots(
        p, s,
        [f for f, slot in zip(factors, slots) if slot == 0],
        [f for f, slot in zip(factors, slots) if slot == 1],
        [f for f, slot in zip(factors, slots) if slot == 2])
    code = cyclic_code_from_assignment(fa)
    if code.rank == 0:
        return None
    image = GrayMap(p).image(code)
    if 2 * image.k < image.n:
        return None
    h = image.parity_check
    if h.shape[0] and ((h @ h.T) % p).any():
        return None  # dual not self-orthogonal, so not dual-containing
    if not is_dual_containing(image):
        return None
    try:
        d = image.min_distance(distance_cap)
        exact = True
    except DistanceNotDetermined as exc:
        d, exact = exc.lower_bound, False
    return (slots, image.n, image.k, d, exact)


def search_dual_containing(p: int, s: int, *, distance_cap: int = 6,
                           max_factors: int = 20, jobs: int = 1) -> list[SearchHit]:
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
    if t > max_factors:
        raise TooManyFactors(f"{t} irreducible factors; bound is {max_factors}")
    factor_coeffs = [tuple(f.int_coeffs()) for f in factors]
    assignments = []
    for code_index in range(3 ** t):
        slots = tuple(code_index // 3 ** i % 3 for i in range(t))
        assignments.append((p, s, factor_coeffs, slots, distance_cap))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            raw = list(pool.map(_evaluate_assignment, assignments, chunksize=64))
    else:
        raw = [_evaluate_assignment(a) for a in assignments]
    best: dict[tuple[int, int, int], tuple] = {}
    for slots, n, k, d, exact in sorted(filter(None, raw), key=lambda r: (not r[4], r[0])):
        best.setdefault((n, 2 * k - n, d), (slots, n, k, d, exact))
    hits = []
    for (n, kq, d), (slots, _, k, _, exact) in sorted(best.items(),
                                                      key=lambda kv: (kv[0], kv[1][0])):
        fa = FactorAssignment.from_slots(
            p, s,
            [f for f, slot in zip(factors, slots) if slot == 0],
            [f for f, slot in zip(factors, slots) if slot == 1],
            [f for f, slot in zip(factors, slots) if slot == 2])
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
    factors = factor_xn_minus_lambda(p, s, 1)
    slot0, slot1, slot2 = [], [], []
    for f in factors:
        if poly_divmod(f0, f)[1].is_zero:
            f0 = poly_divmod(f0, f)[0]
            slot0.append(f)
        elif poly_divmod(f1, f)[1].is_zero:
            f1 = poly_divmod(f1, f)[0]
            slot1.append(f)
        else:
            slot2.append(f)
    fa = FactorAssignment.from_slots(p, s, slot0, slot1, slot2)
    return fa, cyclic_code_from_assignment(fa)
