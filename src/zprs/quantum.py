"""CSS quantum codes from cyclic codes over R = Z_p[u]/(u^2).

A cyclic code of length s over R (gcd(p, s) = 1) is determined by a
partition of the monic irreducible factors of x^s - 1 into three slots
(F0, F1, F2): by CRT the code  C = < hat(F0), u hat(F1) >  restricts to the
full component on factors in F0, to the ideal (u) on factors in F1 and to
zero on factors in F2, where hat(F) = (x^s - 1) / F is the product of the
other two slots.  Hence C = A + uB over Z_p, with A = < hat(F0) > and
B = < prod F2 > = < hat(F0), hat(F1) >, and C is spanned by

    x^i hat(F0)   (i < deg F0),     u x^i prod F2   (i < s - deg F2),

2 deg F0 + deg F1 rows, none of which wraps around x^s - 1.  The code is
built on the systematic form of these rows, which is already its RREF: for a
generator g | x^s - 1 with c = s - deg g, row i < c is 1 at x^i and 0 at
every other x^j with j < c (MacWilliams-Sloane, ch. 7).  Z_p[x]/(x^s - 1) is a
principal ideal ring, so < g0, u g1 > = < g0 > + u < gcd(g0, g1) > needs no factors.

The search builds thousands of codes from the subset products of one
factorization.  It walks the assignments as bitmasks of factors and resolves each
subset's half once per search, handing every assignment its two halves.  Three LRU
caches hold 2^MAX_FACTORS entries each: ``_product`` (the read-only product, at most
s + 1 coefficients) and ``_poly`` (the same as a ``Poly``, shared by the hats of all
hits) by the sorted ``Poly.int_key`` tuples of a subset, repeats kept, and p, and
``_half`` by the coefficient tuple of a monic generator g, p and s, shared by searches
and table rows.  ``_half`` keeps < g >, a half of the Gray image, as a ``LinearCode``
on the systematic rows (at most s x s, pivots 0..c-1) with its parity check, [G; H],
its cyclic verdict and distances once read.  A search has at most 2^t subsets of its
t <= MAX_FACTORS factors, so it never evicts.  An R-code keeps its two halves and
interleaves them on first read.

Dual-containing Gray images feed the CSS construction: a dual-containing
[n, k] code C over Z_p yields a quantum [[n, 2k - n, d_Q]] code with
d_Q = min wt(C minus C^perp) >= d(C), and d(C) is what this module reports.  The search
and the reproduced table evaluate each cyclic R-code with ``cyclic_css``.  Its
image P(B, A, kappa) contains its dual iff A^perp, of zeros F0* = {monic f* : f in F0},
lies in B, of zeros F2 (``linear`` docstring): as x^s - 1 is squarefree, iff F2 in F0*
(MacWilliams-Sloane, ch. 7).  The search reads that, and A in B, off its factor masks.
The halves A and B are cyclic, so each distance search starts from column 0 alone:
some shift of a minimum-weight word of a cyclic code has column 0 in its support.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .additive import AdditiveCode
from .errors import (DistanceNotDetermined, GcdViolation, NonUnitLeadingCoefficient,
                     NotADivisor, NotDualContaining, ProfileMismatch, TooManyFactors, ZprsError)
from .gray import GrayMap
from .linalg import as_int
from .linear import LinearCode
from .polynomials import (Poly, _zp_divmod, _zp_gcd, divides, factor_xn_minus_lambda,
                          reciprocal, x_pow_n_minus)
from .words import _frozen, cached_profile

MAX_FACTORS = 12  # search_dual_containing refuses more factors: 3^12 assignments take ~10 s


def _key(fs) -> tuple[tuple[int, ...], ...]:
    """The sorted coefficient tuples of the Z_p polynomials fs, repeats kept."""
    return tuple(sorted(f.int_key for f in fs))


@functools.lru_cache(maxsize=1 << MAX_FACTORS)
def _product(key: tuple[tuple[int, ...], ...], p: int) -> np.ndarray:
    """Z_p coefficients, lowest degree first, of the product of the polynomials
    with the coefficient tuples in key (read-only)."""
    out = np.ones(1, dtype=np.int64)
    for c in key:
        out = np.convolve(out, c or [0]) % p
    return _frozen(out)


@functools.lru_cache(maxsize=1 << MAX_FACTORS)
def _half(generator: tuple[int, ...], p: int, s: int) -> LinearCode:
    """The cyclic code < g > of length s, g | x^s - 1 with the coefficients ``generator``
    (lowest first), on its RREF basis (c x s, c = s - deg g).  With v = g^-1 mod x^c, row i is
    ((x^i v) mod x^c) g: 1 at x^i, 0 at every other x^j with j < c, and of degree below s, so
    it does not wrap.  g is checked (``NotADivisor``): g_B | g_A must put <g_A> in <g_B>."""
    g, modulus = np.array(generator, dtype=np.int64), np.array([p - 1] + [0] * (s - 1) + [1])
    if not g[-1] % p or _zp_divmod(modulus, g * pow(int(g[-1]), p - 2, p) % p, p)[1].any():
        raise NotADivisor(f"{generator} does not divide x^{s} - 1 over Z_{p}")
    c = s - g.size + 1
    padded = np.zeros(s + 1, dtype=np.int64)
    padded[:g.size] = g
    inv, v = pow(int(g[0]), p - 2, p), np.zeros(c, dtype=np.int64)
    v[:1] = inv
    for k in range(1, c):           # power-series inverse: (g v)_k = 0 for 0 < k < c
        v[k] = -inv * (padded[1:k + 1] @ v[k - 1::-1]) % p
    i = np.arange(c)[:, None]
    shifted = np.zeros((c, s), dtype=np.int64)
    shifted[i, i + np.arange(g.size)] = g                   # x^i g
    rows = np.triu(v[np.arange(c) - i]) @ shifted % p       # v[j - i] for j >= i
    if (rows[:, :c] != np.eye(c, dtype=np.int64)).any():
        raise AssertionError(f"the rows of < {generator} > are not the identity on their pivots")
    return LinearCode(p, s, rows, _pivots=list(range(c)))


@functools.lru_cache(maxsize=1 << MAX_FACTORS)
def _poly(key: tuple[tuple[int, ...], ...], p: int) -> Poly:
    """``_product(key, p)`` as a ``Poly``, one immutable object per key."""
    return Poly.make(_product(key, p).tolist(), p)


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
        for name in ("p", "s"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        if self.s % self.p == 0:
            raise GcdViolation(f"gcd(p, s) must be 1, got p={self.p}, s={self.s}")
        modulus = [self.p - 1] + [0] * (self.s - 1) + [1]
        if _product(_key(self.f0 + self.f1 + self.f2), self.p).tolist() != modulus:
            raise ZprsError("slot product must equal x^s - 1 exactly")

    @classmethod
    def from_slots(cls, p: int, s: int, f0, f1, f2) -> "FactorAssignment":
        def norm(fs):
            return tuple(sorted((f if isinstance(f, Poly) else Poly.make(f, p) for f in fs),
                                key=lambda f: (f.degree, f.int_key)))
        return cls(p, s, norm(f0), norm(f1), norm(f2))

    def slot_product(self, slot: int) -> Poly:
        return _poly(_key((self.f0, self.f1, self.f2)[slot]), self.p)

    def hat(self, slot: int) -> Poly:
        """(x^s - 1) / (slot product): the product of the other two slots."""
        others = [f for i, fs in enumerate((self.f0, self.f1, self.f2)) if i != slot for f in fs]
        return _poly(_key(others), self.p)

    def slot_degrees(self) -> tuple[int, int, int]:
        return tuple(sum(f.degree for f in fs) for fs in (self.f0, self.f1, self.f2))

    def key(self) -> tuple:
        return tuple(f.int_key for fs in (self.f0, self.f1, self.f2) for f in fs)


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


def cyclic_code_from_assignment(fa: FactorAssignment | None = None, *,
                                _halves: tuple | None = None) -> AdditiveCode:
    """The cyclic R-code < hat(F0), u hat(F1) > as an additive code (q=0, r=s, s=0),
    built on its CRT basis (module docstring), trusted as RREF: the systematic rows
    of A = < hat(F0) > in the a-columns 0::2 and of B = < prod F2 > in the b-columns
    1::2, each 1 at its pivot and 0 on every other pivot column, interleaved so that
    the pivots increase.  It keeps (A, B, its image's dual verdict); its rank must be
    2 deg F0 + deg F1.  Other callers pass no fa but ``_halves`` = (A, B, that rank,
    that verdict or None for the image's product), A and B from ``_half``."""
    if _halves is None:
        d0, d1, _ = fa.slot_degrees()
        _halves = (*(_half(g.int_key, fa.p, fa.s) for g in (fa.hat(0), fa.slot_product(2))),
                   2 * d0 + d1, None)
    a, b, crt, dual = _halves
    ka, kb = a.k, b.k
    if ka + kb != crt:
        raise AssertionError(f"cyclic code rank {ka + kb} differs from CRT count {crt}")
    code = AdditiveCode(cached_profile(a.p, 0, a.n, 0), functools.partial(_interleave, a, b),
                        _closed=True, _pivots=[*range(2 * ka), *range(2 * ka + 1, 2 * kb, 2)])
    code._split = (a, b, dual)
    return code


def cyclic_code_from_generators(p: int, s: int, g0, g1) -> AdditiveCode:
    """The cyclic R-code < g0, u g1 > = < g0 > + u < gcd(g0, g1) > for Z_p polynomials
    g0, g1 dividing x^s - 1, built without factors; x^s - 1 gives a zero half."""
    gens = [g if isinstance(g, Poly) else Poly.make(g, p) for g in (g0, g1)]
    if s % p == 0:
        raise GcdViolation(f"gcd(p, s) must be 1, got p={p}, s={s}")
    for g in gens:
        if not g or not divides(g, x_pow_n_minus(1, s, p)):
            raise (NotADivisor if g else NonUnitLeadingCoefficient)(f"{g} must divide x^{s} - 1")
    a, b = (np.array(g.monic().int_coeffs(), dtype=np.int64) for g in gens)
    a, b = tuple(a.tolist()), tuple(_zp_gcd(a, b, p).tolist())
    return cyclic_code_from_assignment(
        _halves=(_half(a, p, s), _half(b, p, s), 2 * s + 2 - len(a) - len(b), None))


def _interleave(a: LinearCode, b: LinearCode) -> np.ndarray:
    """The rows of A x uB: A's rows in the a-columns interleaved with B's first k(A)
    rows in the b-columns, then B's other rows."""
    rows = np.zeros((a.k + b.k, 2 * a.n), dtype=np.int64)
    rows[:2 * a.k:2, 0::2] = a.basis
    rows[1:2 * a.k:2, 1::2] = b.basis[:a.k]
    rows[2 * a.k:, 1::2] = b.basis[a.k:]
    return rows


def is_dual_containing(code: LinearCode) -> bool:
    """True iff the code contains its Euclidean dual; ``ProfileMismatch`` unless linear.

    C contains C^perp iff C^perp lies in C^perp^perp = C, that is iff C^perp is
    self-orthogonal: H H^T = 0 mod p for the parity check H.  A Plotkin sum with
    lam^2 = -1 reads the verdict H_V H_U^T = 0 that ``_from_halves`` kept (module docstring).
    """
    if not isinstance(code, LinearCode):
        raise ProfileMismatch(f"{code!r} is no linear code over Z_p: Gray-map it first")
    if (verdict := code._memo.get("dual")) is None:
        verdict = not np.count_nonzero(code.parity_check @ code.parity_check.T % code.p)
    return verdict


def css(code: LinearCode, *, search_cap: int = 6) -> QuantumParams:
    """CSS parameters [[n, 2k - n, d]]_p of a dual-containing code C, with d = d(C):
    a lower bound on the CSS distance d_Q = min wt(C minus C^perp)."""
    if not is_dual_containing(code):
        raise NotDualContaining(f"{code!r} does not contain its dual")
    d = code.min_distance(search_cap)
    return QuantumParams(code.n, 2 * code.k - code.n, d, code.p)


def cyclic_css(code: AdditiveCode, *, distance_cap: int = 6
               ) -> tuple[LinearCode, QuantumParams, bool] | None:
    """(Gray image, its CSS parameters, whether d is exact) of an R-code of profile
    (p, 0, s, 0), or None if the image does not contain its dual.  The image of a
    cyclic code is P(B, A, kappa) with cyclic halves, each searched from column 0
    alone, as some shift of a minimum-weight word has column 0 in its support; any
    other image is searched as one code.  d is d(C) of the image C, a lower bound on
    d_Q = min wt(C minus C^perp): the (13, 6) hit [[12,2,3]]_13 has d_Q = 4.  "Exact"
    is about d(C); beyond ``distance_cap``, d is the certified lower bound on d(C)."""
    p, s = code.profile.p, code.profile.r
    if code.profile.lengths != (0, s, 0):
        raise ProfileMismatch(f"a cyclic R-code has profile (p, 0, s, 0), got {code.profile}")
    image = GrayMap(p).image(code)
    if not is_dual_containing(image):
        return None
    try:
        d, exact = image.min_distance(distance_cap), True
    except DistanceNotDetermined as exc:
        d, exact = exc.lower_bound, False
    return image, QuantumParams(image.n, 2 * image.k - image.n, d, p), exact


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
    """The factors of slot 0, 1 and 2, in the order given."""
    out = [[], [], []]
    for f, slot in zip(factors, slots):
        out[slot].append(f)
    return out


def _assignments(p: int, s: int, factors):
    """For each pair of disjoint masks (F1, F2) of factors with 2 deg F0 + deg F1 >= s
    (a Gray image [2s, k] with k < s cannot contain its dual), the masks and the
    ``_halves`` of its cyclic code, with the dual verdict F2 in F0* (module docstring).
    Each subset's half is resolved once per search; every subset is the A half of the
    assignment with F1 = that subset and F2 empty, so no other half is built."""
    star = [1 << factors.index(reciprocal(f).monic()) for f in factors]   # the bit of f*
    @functools.cache
    def subset(mask: int) -> tuple:     # the _half, degree and mask of F*, once
        fs = [f for i, f in enumerate(factors) if mask >> i & 1]
        return (_half(tuple(_product(_key(fs), p).tolist()), p, s), sum(f.degree for f in fs),
                sum(bit for i, bit in enumerate(star) if mask >> i & 1))
    full = (1 << len(factors)) - 1
    for m2 in range(full + 1):
        rest = m1 = full ^ m2
        while True:                     # every submask m1 of rest, rest first
            if (crt := 2 * subset(m0 := rest ^ m1)[1] + subset(m1)[1]) >= s:
                yield (m1, m2), (subset(m1 | m2)[0], subset(m2)[0], crt,
                                 not m2 & ~subset(m0)[2])
            if not m1:
                break
            m1 = (m1 - 1) & rest


def search_dual_containing(p: int, s: int, *, distance_cap: int = 6,
                           jobs: int = 1) -> list[SearchHit]:
    """All CSS codes from dual-containing cyclic R-codes of length s.

    Enumerates every assignment of the irreducible factors of x^s - 1 to the
    slots (F0, F1, F2), keeps the assignments whose Gray image contains its
    dual, and deduplicates by (n, k, d), keeping an exact distance over a
    lower bound and then the smallest slot tuple.  d is d(C) of the Gray image C,
    a lower bound on the CSS distance d_Q = min wt(C minus C^perp) (``cyclic_css``);
    ``distance_exact`` says whether d(C) is exact.  Output order is deterministic:
    sorted by (n, k, d).  Distances above ``distance_cap`` are reported as lower
    bounds on d(C) rather than dropped.  More than ``MAX_FACTORS`` factors raise
    ``TooManyFactors`` before any assignment is built.  ``jobs`` is ignored: the
    search runs in this process.
    """
    p, s = as_int(p, "p"), as_int(s, "s")
    distance_cap = as_int(distance_cap, "distance_cap")
    factors = factor_xn_minus_lambda(p, s, 1)
    t = len(factors)
    if t > MAX_FACTORS:
        raise TooManyFactors(f"{t} irreducible factors; bound is {MAX_FACTORS}")
    FactorAssignment(p, s, tuple(factors), (), ())     # checks their product, once
    best: dict[tuple[int, int, int], tuple[bool, tuple[int, ...]]] = {}
    for (m1, m2), halves in _assignments(p, s, factors):
        if found := cyclic_css(cyclic_code_from_assignment(_halves=halves),
                               distance_cap=distance_cap):
            _, q, exact = found
            key = q.n, q.k, q.d
            pick = not exact, tuple(1 if m1 >> i & 1 else 2 if m2 >> i & 1 else 0
                                    for i in range(t))
            if key not in best or pick < best[key]:
                best[key] = pick
    hits = []
    for (n, kq, d), (inexact, slots) in sorted(best.items()):
        fa = FactorAssignment.from_slots(p, s, *_split_slots(factors, slots))
        hits.append(SearchHit(fa, fa.hat(0), fa.hat(1), n, (n + kq) // 2,
                              QuantumParams(n, kq, d, p), not inexact))
    return hits


def code_from_table_generators(p: int, s: int, f0_hat, f1_hat) -> tuple[FactorAssignment,
                                                                        AdditiveCode]:
    """Reconstruct the factor assignment from displayed generators hat(F0), u hat(F1).

    Both displayed polynomials must divide x^s - 1.  F0 (F1) holds the factors that do
    not divide hat(F0) (hat(F1)), which share none (else ``ZprsError``); F2 the rest.
    """
    code = cyclic_code_from_generators(p, s, f0_hat, f1_hat)
    h0, h1 = (g if isinstance(g, Poly) else Poly.make(g, p) for g in (f0_hat, f1_hat))
    factors = factor_xn_minus_lambda(p, s, 1)   # distinct, as x^s - 1 is squarefree
    if shared := [f for f in factors if not divides(f, h0) and not divides(f, h1)]:
        raise ZprsError(f"F0 and F1 share the factor {shared[0]}: no assignment has these hats")
    slots = [0 if not divides(f, h0) else 1 if not divides(f, h1) else 2 for f in factors]
    return FactorAssignment.from_slots(p, s, *_split_slots(factors, slots)), code
