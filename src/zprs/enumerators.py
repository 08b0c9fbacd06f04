"""Weight enumerators of additive codes whose coordinates are triples in
Z_p x R x S, and the MacWilliams machinery relating a code to its dual.

The p^6 alphabet symbols are ordered lexicographically by coefficient tuple
(a; a', b'; a'', b'', d''), with index 0 the zero symbol.  All enumerator
semantics key off symbol values, never positions, so results do not depend
on any particular listing.

The generating character is chi(f) = zeta_p^(a + a' + b' + a'' + b'' + d'')
with zeta_p a primitive p-th root of unity; for p = 2 this is the familiar
(-1)^sum.  Character sums are computed exactly in Z[zeta_p], represented on
the integral basis 1, zeta, ..., zeta^(p-2).

Four enumerators are provided: complete (p^6 variables), Hamming (x, y),
symmetrized (W_0..W_M grouped by symbol Lee weight) and Lee (x, y; the
Hamming enumerator of the Gray image).  Each has an exact dual transform;
the complete identity is verified by evaluation at fixed pseudo-random
integer points instead of materializing the p^6-variate transform.
Hamming, Lee and (p <= 3) symmetrized walk the smaller of C and C^perp and
transform back; the ``_*_walk`` routines always walk C, so the MacWilliams
verifiers compare two independent walks.

The three transforms are one routine, ``substitute_linear``.  At degree n
the substitution of Q X for X is the integer matrix T = Sym^n(Q) on the
monomial basis (for the bivariate Hamming and Lee forms, the Krawtchouk
matrix), so a transform is T times the coefficient vector, in exact
integers, divided by the code size, evaluated by Horner's rule on the
input's monomials without forming T.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

import numpy as np

from .additive import AdditiveCode
from .errors import (BlocksUnequal, InexactDivision, ModulusMismatch, RowCollapseFailure,
                     TooLarge, ZprsError)
from .field import ensure_prime
from .rings import ChainElement
from .words import block_columns

MonomialKey = tuple[tuple[int, int], ...]


# ---------------------------------------------------------------------------
# exact cyclotomic integers


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
        result = CyclotomicInt.from_int(1, self.p)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

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


# ---------------------------------------------------------------------------
# the symbol alphabet Z_p x R x S


class SymbolTable:
    """The p^6 symbols in coefficient-lexicographic order, with weight tables.

    Index <-> digit conversions work arithmetically; the per-symbol arrays
    (digit matrix, weight tables) materialize lazily since they have p^6 rows.
    """

    def __init__(self, p: int):
        ensure_prime(p)
        self.p = p
        self.count = p ** 6
        # min(x, p-x) reaches p//2 on the Z_p part; the R and S parts reach 2 and 3
        self.max_lee_weight = p // 2 + 5

    @cached_property
    def coeffs(self) -> np.ndarray:
        # column j cycles through 0..p-1 with period p^(5-j)
        p = self.p
        cols = [np.tile(np.repeat(np.arange(p, dtype=np.int64), p ** (5 - j)), p ** j)
                for j in range(6)]
        out = np.stack(cols, axis=1)  # columns: a, a', b', a'', b'', d''
        out.setflags(write=False)
        return out

    @cached_property
    def _chain_weights(self) -> np.ndarray:
        p, grids = self.p, self.coeffs
        a1, b1 = grids[:, 1], grids[:, 2]
        a2, b2, d2 = grids[:, 3], grids[:, 4], grids[:, 5]
        return ((((a1 + b1) % p) != 0).astype(np.int64) + (b1 != 0)
                + (((a2 + b2 + d2) % p) != 0) + (((b2 + d2) % p) != 0) + (b2 != 0))

    @cached_property
    def lee_weights(self) -> np.ndarray:
        """Symbol Lee weight: min(x, p-x) plus the Gray weights of the R, S parts."""
        a = self.coeffs[:, 0]
        out = np.minimum(a, self.p - a) * (a != 0) + self._chain_weights
        out.setflags(write=False)
        assert int(out.max()) == self.max_lee_weight
        return out

    @cached_property
    def gray_weights(self) -> np.ndarray:
        """Hamming weight of the Gray image (identity on the Z_p part)."""
        out = (self.coeffs[:, 0] != 0).astype(np.int64) + self._chain_weights
        out.setflags(write=False)
        return out

    def digits(self, idx: int) -> tuple[int, ...]:
        out = []
        for _ in range(6):
            idx, d = divmod(idx, self.p)
            out.append(d)
        return tuple(reversed(out))

    def index_of(self, triple) -> int:
        x, y, z = triple
        p = self.p
        xv = int(x) % p
        ye = ChainElement.make(y, p, 2).coeffs
        ze = ChainElement.make(z, p, 3).coeffs
        idx = 0
        for d in (xv, ye[0], ye[1], ze[0], ze[1], ze[2]):
            idx = idx * p + d
        return idx

    def triple(self, idx: int) -> tuple[int, ChainElement, ChainElement]:
        row = self.digits(int(idx))
        return (row[0],
                ChainElement(self.p, 2, (row[1], row[2])),
                ChainElement(self.p, 3, (row[3], row[4], row[5])))


@lru_cache(maxsize=None)
def symbol_table(p: int) -> SymbolTable:
    return SymbolTable(p)


def _product_exponent(f, g, p: int):
    """Coefficient sum mod p (the character exponent) of the product of the
    symbols with digits f and g (last axis a; a', b'; a'', b'', d''); broadcasts."""
    f, g = np.moveaxis(f, -1, 0), np.moveaxis(g, -1, 0)
    return (f[0] * g[0] + f[1] * (g[1] + g[2]) + f[2] * g[1]
            + f[3] * (g[3] + g[4] + g[5]) + f[4] * (g[3] + g[4]) + f[5] * g[3]) % p


@lru_cache(maxsize=None)
def char_exponent_matrix(p: int) -> np.ndarray:
    """E[i, j] with chi(f_i f_j) = zeta^E[i, j]; materialized for p <= 3 only."""
    if p > 3:
        raise TooLarge("the full character matrix is materialized for p <= 3 only")
    c = symbol_table(p).coeffs
    e = _product_exponent(c[:, None], c[None, :], p)
    e.setflags(write=False)
    return e


def character(symbol, p: int) -> CyclotomicInt:
    """chi of a symbol (given as a triple or an index)."""
    t = symbol_table(p)
    if isinstance(symbol, (int, np.integer)):
        row = t.coeffs[int(symbol)]
    else:
        row = t.coeffs[t.index_of(symbol)]
    return CyclotomicInt.root_power(int(row.sum()) % p, p)


def char_matrix_entry(i: int, j: int, p: int) -> CyclotomicInt:
    """P_ij = chi(f_i f_j), served entry-on-demand for arbitrary p."""
    t = symbol_table(p)
    digits = np.array([t.digits(int(i)), t.digits(int(j))], dtype=object)
    return CyclotomicInt.root_power(int(_product_exponent(digits[0], digits[1], p)), p)


# ---------------------------------------------------------------------------
# sparse exact enumerators


@dataclass(frozen=True)
class Enumerator:
    """Homogeneous multivariate polynomial with exact integer coefficients.

    Monomials are sparse keys ((var, exp), ...) sorted by variable, exp > 0.
    """

    nvars: int
    degree: int
    terms: Mapping[MonomialKey, int]

    def __post_init__(self):
        object.__setattr__(self, "terms", dict(self.terms))
        for key, coeff in self.terms.items():
            if sum(e for _, e in key) != self.degree:
                raise ZprsError(f"monomial {key} is not homogeneous of degree {self.degree}")
            if coeff == 0:
                raise ZprsError("zero coefficients must be dropped")

    def coefficient_sum(self) -> int:
        """Evaluation at all-ones; equals |C| for a code enumerator."""
        return sum(self.terms.values())

    def coefficient(self, key: MonomialKey) -> int:
        return self.terms.get(tuple(sorted(key)), 0)

    def sorted_terms(self) -> list[tuple[MonomialKey, int]]:
        return sorted(self.terms.items())

    def text(self, names: Sequence[str] | None = None) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key, coeff in self.sorted_terms():
            factors = []
            for var, exp in key:
                name = names[var] if names is not None else f"x_{var}"
                factors.append(name if exp == 1 else f"{name}^{exp}")
            mono = " ".join(factors) if factors else "1"
            parts.append(mono if coeff == 1 and factors else f"{coeff} {mono}".strip())
        return " + ".join(parts)

    def to_json(self) -> list[dict]:
        dense = self.nvars <= 8
        return [{"exponents": [dict(key).get(v, 0) for v in range(self.nvars)] if dense
                 else [[var, exp] for var, exp in key], "coeff": coeff}
                for key, coeff in self.sorted_terms()]


def _key(exponents: Sequence[int]) -> MonomialKey:
    """The monomial key of a dense exponent vector."""
    return tuple((var, exp) for var, exp in enumerate(exponents) if exp)


def bivariate(coeffs_by_y_exponent: Mapping[int, int], degree: int) -> Enumerator:
    """Helper: enumerator sum c_w x^(degree-w) y^w from {w: c_w}."""
    return Enumerator(2, degree, {_key((degree - w, w)): c
                                  for w, c in coeffs_by_y_exponent.items() if c})


# ---------------------------------------------------------------------------
# building enumerators from codes


def _symbol_index_rows(code: AdditiveCode, limit: int = 2 ** 24):
    """Yield chunks of codewords as (rows, n) symbol-index matrices."""
    pr = code.profile
    if not (pr.q == pr.r == pr.s):
        raise BlocksUnequal(f"per-coordinate symbols need q = r = s, got "
                            f"({pr.q}, {pr.r}, {pr.s})")
    if code.size > limit:
        raise TooLarge(f"code has {code.size} words, above the bound {limit}")
    p = pr.p
    weights = p ** np.arange(5, -1, -1, dtype=np.int64)
    cols = np.column_stack(block_columns(pr))  # row j: the six coefficients of position j
    for block in code.iter_codeword_vectors(limit=limit):
        # idx[w, j] = mixed-radix index of coordinate j of codeword w
        yield np.einsum("wjc,c->wj", block[:, cols], weights)


def regroup(code: AdditiveCode, limit: int = 2 ** 24):
    """All codewords as tuples of (x, y, z) coordinate triples."""
    t = symbol_table(code.profile.p)
    return [tuple(t.triple(int(i)) for i in row)
            for chunk in _symbol_index_rows(code, limit) for row in chunk]


def _distinct_rows(rows: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows in lexicographic order, each with the sum of its counts."""
    order = np.lexsort(rows.T[::-1])
    rows, counts = rows[order], counts[order]
    first = np.flatnonzero(np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)])
    return rows[first], np.add.reduceat(counts, first)


def _histogram(code: AdditiveCode, key) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``key(chunk)`` over all codewords, in lexicographic
    order, and how many codewords give each; ``key`` maps a symbol-index
    chunk to one integer row per codeword."""
    parts = [_distinct_rows(rows, np.ones(len(rows), dtype=np.int64))
             for rows in map(key, _symbol_index_rows(code))]
    return _distinct_rows(*map(np.concatenate, zip(*parts)))


def _smaller_side(code: AdditiveCode, walk, transform) -> Enumerator:
    """``walk(code)``, or the transform of ``walk(dual)`` if 2 rank > N (|C^perp| < |C|)."""
    if 2 * code.rank <= code.profile.n:
        return walk(code)
    dual = code.dual()
    return transform(walk(dual), dual.size, code.profile.p)


def complete_enumerator(code: AdditiveCode) -> Enumerator:
    """W_C(x_0, ..., x_(p^6 - 1)): codeword c contributes prod_j x_(c_j)."""
    pr = code.profile
    rows, counts = _histogram(code, lambda chunk: np.sort(chunk, axis=1))
    # a sorted row is a sequence of runs; a run of e copies of symbol i is x_i^e
    starts = np.c_[np.ones(len(rows), dtype=bool), rows[:, 1:] != rows[:, :-1]]
    first = np.flatnonzero(starts)          # row-major, and column 0 starts a run
    pairs = list(zip(rows.ravel()[first].tolist(), np.diff(first, append=rows.size).tolist()))
    ends = np.cumsum(starts.sum(axis=1)).tolist()
    keys = [tuple(pairs[a:b]) for a, b in zip([0] + ends[:-1], ends)]
    return Enumerator(pr.p ** 6, pr.q, dict(zip(keys, counts.tolist())))


def _hamming_walk(code: AdditiveCode) -> Enumerator:
    rows, counts = _histogram(code, lambda chunk: (chunk != 0).sum(axis=1, keepdims=True))
    return bivariate(dict(zip(rows[:, 0].tolist(), counts.tolist())), code.profile.q)


def hamming_enumerator(code: AdditiveCode) -> Enumerator:
    """W_H(x, y) over coordinate triples: weight = number of nonzero triples."""
    return _smaller_side(code, _hamming_walk, hamming_transform)


def _symmetrized_walk(code: AdditiveCode) -> Enumerator:
    t = symbol_table(code.profile.p)
    nvars = t.max_lee_weight + 1
    # row w, column i: coordinates of codeword w with symbol Lee weight i
    rows, counts = _histogram(code, lambda chunk: (t.lee_weights[chunk][..., None]
                                                   == np.arange(nvars)).sum(axis=1))
    return Enumerator(nvars, code.profile.q,
                      {_key(row): c for row, c in zip(rows.tolist(), counts.tolist())})


def symmetrized_enumerator(code: AdditiveCode) -> Enumerator:
    """W_S(W_0, ..., W_M): variable W_i counts coordinates of symbol Lee weight i.

    M = 6 for p in {2, 3}; floor(p/2) + 5 otherwise (the Z_p block can then
    contribute up to floor(p/2) by itself).  The dual side is used only
    where the transform exists, p <= 3.
    """
    if code.profile.p > 3:
        return _symmetrized_walk(code)
    return _smaller_side(code, _symmetrized_walk, symmetrized_transform)


def _lee_walk(code: AdditiveCode) -> Enumerator:
    t = symbol_table(code.profile.p)
    rows, counts = _histogram(code, lambda chunk: t.gray_weights[chunk].sum(1, keepdims=True))
    return bivariate(dict(zip(rows[:, 0].tolist(), counts.tolist())), 6 * code.profile.q)


def lee_enumerator(code: AdditiveCode) -> Enumerator:
    """W_L(x, y): the Hamming enumerator of the Gray image, total degree 6n.

    Computed from per-symbol Gray weights, which do not depend on kappa, so
    this works even for p = 3 (mod 4) where the Gray map itself is undefined.
    """
    return _smaller_side(code, _lee_walk, lee_transform)


# ---------------------------------------------------------------------------
# MacWilliams identities


def _character_sums(points: np.ndarray, p: int) -> np.ndarray:
    """S[m, i, t] = sum of points[m, j] over the symbols j with chi(f_i f_j) = zeta^t,
    so that (P x)_i = sum_t S[m, i, t] zeta^t for x = points[m] (p <= 3)."""
    e = char_exponent_matrix(p)
    return np.stack([points @ (e == t).T.astype(np.int64) for t in range(p)], axis=-1)


_INT64_MAX = int(np.iinfo(np.int64).max)


def _codeword_sums(code: AdditiveCode, tables: np.ndarray) -> list[list[int]]:
    """For each m, the sum over codewords c of prod_j tables[m, c_j] in
    Z[y]/(y^k - 1); ``tables`` is (m, p^6, k), the result m rows of k ints.

    The l1 norm is submultiplicative, so a chunk's products and sums stay
    within rows * B^n, B the largest l1 norm of a table row: int64 when that
    is below 2^63, exact Python ints (object arrays) otherwise."""
    k = tables.shape[-1]
    row_bound = int(np.abs(tables).sum(axis=-1).max()) ** code.profile.q
    totals = np.zeros((len(tables), k), dtype=object)
    for chunk in _symbol_index_rows(code):
        dtype = np.int64 if len(chunk) * row_bound <= _INT64_MAX else object
        factors = tables.astype(dtype)[:, chunk]           # (m, rows, n, k)
        prod = factors[:, :, 0]
        for j in range(1, chunk.shape[1]):
            f = factors[:, :, j]
            prod = np.stack([sum(prod[..., i] * f[..., (t - i) % k] for i in range(k))
                             for t in range(k)], axis=-1)
        totals += prod.sum(axis=1).astype(object)      # Python ints from here on
    return totals.tolist()


def _complete_check_points(q: int) -> int:
    """The smallest k >= 8 with (q/98)^k <= 2^-28; refuses q >= 98, where no k works."""
    if q >= 98:
        raise TooLarge(f"degree {q} is beyond the complete check's points in [0, 97]")
    return next(k for k in itertools.count(8) if q ** k << 28 <= 98 ** k)


def macwilliams_complete_check(code: AdditiveCode,
                               candidate_dual: AdditiveCode | None = None,
                               *, seed: int = 20230817) -> bool:
    """Verify the complete-enumerator MacWilliams identity by point evaluation.

    Checks W_D(x) == (1/|C|) W_C(P x) at k fixed pseudo-random integer
    points in [0, 97]^(p^6), exactly over Z[zeta_p].  D defaults to the
    computed dual; pass a candidate to test a conjectured dual pair.  Both
    sides are summed from codeword chunks, no enumerator is built.

    A Schwartz-Zippel test, not a proof: a failing identity leaves a nonzero
    difference of total degree q, which vanishes at a uniform point of
    [0, 97]^(p^6) with probability <= q/98, so k points all miss it with
    probability <= (q/98)^k.  k = ``_complete_check_points(q)`` is the
    smallest k >= 8 that makes this at most 2^-28, and q >= 98 is refused.
    The points are fixed by ``seed``: the bound is over the choice of seed.
    For D the dual, |C| |D| = p^(6q) and both sides walk under the 2^24
    limit, so q <= 8 at p = 2 and q <= 5 at p = 3, and k = 8.
    """
    p = code.profile.p
    if p > 3:
        raise TooLarge("complete MacWilliams check materializes P; p <= 3 only")
    count = _complete_check_points(code.profile.q)
    dual = candidate_dual if candidate_dual is not None else code.dual()
    if dual.profile != code.profile:
        raise BlocksUnequal("dual candidate over a different profile")
    rng = np.random.default_rng(seed)
    points = rng.integers(0, 98, size=(count, p ** 6))
    lhs = _codeword_sums(dual, points[..., None])
    rhs = _codeword_sums(code, _character_sums(points, p))
    for (left,), right in zip(lhs, rhs):
        # sum_t right[t] zeta^t is rational iff right[1] = ... = right[p-1]
        if len(set(right[1:])) > 1 or right[0] - right[-1] != code.size * left:
            return False
    return True


# substitute_linear refuses a transform whose index tables or Horner levels
# could hold more than this many entries
TRANSFORM_BUDGET = 2 ** 24


@lru_cache(maxsize=8)
def _monomial_tables(m: int, n: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """The degree-n monomials in m variables in lexicographic order, and for
    d < n the table shift[d]: row i, column w is the index of (degree-d
    monomial i) + e_w among the degree-(d + 1) monomials."""
    exps, shift = np.zeros((1, m), dtype=np.int64), []
    for _ in range(n):
        exps, inverse = np.unique((exps[:, None] + np.eye(m, dtype=np.int64)).reshape(-1, m),
                                  axis=0, return_inverse=True)
        shift.append(inverse.reshape(-1, m))
    return exps, shift


def substitute_linear(enum: Enumerator, rows: Sequence[Sequence[int]],
                      code_size: int) -> Enumerator:
    """(1/code_size) * enum with each variable v replaced by L_v = sum_w rows[v][w] X_w.

    T = Sym^n(Q) times the coefficient vector (module docstring), by Horner's
    rule over the input monomials as ascending variable sequences: the
    polynomial of a length-(k - 1) prefix is the sum, over its extensions by
    v, of L_v times the extension's polynomial.  Level k holds a vector of
    degree-(n - k) monomials per distinct length-k prefix; T is never formed.
    Raises ``TooLarge`` when the index tables or a level could exceed
    ``TRANSFORM_BUDGET`` = 2^24 entries (for rows without zeros, expanding
    term by term takes about as many multiply-adds), and
    ``InexactDivision`` when the result is not an exact code_size-multiple:
    the input was not the enumerator of a code of that size.
    """
    q = np.array([[int(c) for c in row] for row in rows], dtype=object)
    m, n = q.shape[1], enum.degree
    size = [math.comb(d + m - 1, d) for d in range(n + 1)]     # monomials of degree d
    entries = m * max([sum(size)] + [min(len(enum.terms), size[k]) * size[n - k]
                                     for k in range(n + 1)])
    if entries > TRANSFORM_BUDGET:
        raise TooLarge(f"the degree-{n} transform in {m} variables may hold {entries} "
                       f"entries, above the budget of {TRANSFORM_BUDGET}")
    if not enum.terms:
        return Enumerator(m, n, {})
    # tables of at most 2^16 entries are kept across calls, larger ones rebuilt
    tables = _monomial_tables if m * sum(size) <= 1 << 16 else _monomial_tables.__wrapped__
    exps, shift = tables(m, n)
    # the input monomials as ascending variable sequences, in lexicographic order
    seqs, coeffs = zip(*sorted(([v for v, e in key for _ in range(e)], c)
                               for key, c in enum.terms.items()))
    seqs = np.array(seqs, dtype=np.int64).reshape(len(coeffs), n)
    polys = np.array(coeffs, dtype=object)[:, None]
    for k in range(n, 0, -1):
        # seqs: the distinct length-k prefixes, sorted; polys: theirs, of degree n - k
        last = q[seqs[:, k - 1]]
        first = np.r_[True, (seqs[1:, :k - 1] != seqs[:-1, :k - 1]).any(axis=1)]
        seqs, parent = seqs[first], np.cumsum(first) - 1
        up = np.zeros((len(seqs), size[n - k + 1]), dtype=object)
        np.add.at(up, (parent.reshape(-1, 1, 1), shift[n - k]), polys[:, :, None] * last[:, None])
        polys = up
    total = polys[0]
    bad = np.flatnonzero(total % code_size)
    if bad.size:
        raise InexactDivision(f"coefficient {total[bad[0]]} of {_key(exps[bad[0]])} "
                              f"is not divisible by {code_size}")
    nonzero = np.flatnonzero(total)
    return Enumerator(m, n, {_key(e): c // code_size for e, c in
                             zip(exps[nonzero].tolist(), total[nonzero].tolist())})


def hamming_transform(enum: Enumerator, code_size: int, p: int) -> Enumerator:
    """Dual Hamming enumerator: substitute (x + (p^6 - 1) y, x - y) and divide."""
    if enum.nvars != 2:
        raise ZprsError("Hamming transform expects a bivariate enumerator")
    return substitute_linear(enum, [[1, p ** 6 - 1], [1, -1]], code_size)


def lee_transform(enum: Enumerator, code_size: int, p: int) -> Enumerator:
    """Dual Lee enumerator: substitute (x + (p - 1) y, x - y) and divide.

    The Gray image lives over Z_p, whose MacWilliams substitution is
    (x + (p-1)y, x - y); at p = 2 this is the classical (x + y, x - y).
    """
    if enum.nvars != 2:
        raise ZprsError("Lee transform expects a bivariate enumerator")
    return substitute_linear(enum, [[1, p - 1], [1, -1]], code_size)


@lru_cache(maxsize=None)
def symmetrized_q_matrix(p: int) -> tuple[tuple[int, ...], ...]:
    """The (M+1) x (M+1) coefficient matrix Q of the symmetrized transform.

    Row w is the common value of sum_j chi(f_i f_j) X_(wt(f_j)) over all
    symbols f_i of Lee weight w.  Raises ``RowCollapseFailure`` if symbols
    of equal weight disagree (they never do for p in {2, 3}) or if an entry
    fails to be a rational integer.
    """
    if p > 3:
        raise TooLarge("the symmetrized transform is defined for p in {2, 3}")
    t = symbol_table(p)
    e = char_exponent_matrix(p)
    nw = t.max_lee_weight + 1
    onehot = (t.lee_weights[:, None] == np.arange(nw)).astype(np.int64)
    # sums[i, w, tau] = #{j : wt(f_j) = w, E[i, j] = tau}
    sums = np.stack([np.where(e == tau, 1, 0) @ onehot for tau in range(p)], axis=2)
    coeffs = sums[:, :, : p - 1] - sums[:, :, p - 1:]
    if p > 2 and coeffs[:, :, 1:].any():
        raise RowCollapseFailure("a symmetrized transform entry is not a rational integer")
    values = coeffs[:, :, 0]
    first = [int(np.argmax(t.lee_weights == w)) for w in range(nw)]
    if (values != values[first][t.lee_weights]).any():
        raise RowCollapseFailure("symbols of equal Lee weight produce different transform rows")
    return tuple(tuple(int(v) for v in values[i]) for i in first)


def symmetrized_transform(enum: Enumerator, code_size: int, p: int) -> Enumerator:
    """Dual symmetrized enumerator via the Q-matrix substitution."""
    q = symmetrized_q_matrix(p)
    if enum.nvars != len(q):
        raise ZprsError(f"expected {len(q)} weight-class variables, got {enum.nvars}")
    return substitute_linear(enum, q, code_size)
