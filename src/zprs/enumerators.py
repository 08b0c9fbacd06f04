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
"""

from __future__ import annotations

from collections import Counter
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
        if isinstance(other, int):
            other = CyclotomicInt.from_int(other, self.p)
        self._check(other)
        return CyclotomicInt(self.p, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

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

    def as_int(self) -> int:
        if not self.is_rational_integer:
            raise ZprsError(f"{self} is not a rational integer")
        return self.coeffs[0]

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

    def product_exponent(self, i: int, j: int) -> int:
        """Coefficient sum (the character exponent) of the product f_i * f_j."""
        p = self.p
        fi, fj = self.digits(int(i)), self.digits(int(j))
        x = fi[0] * fj[0]
        y0 = fi[1] * fj[1]
        y1 = fi[1] * fj[2] + fi[2] * fj[1]
        z0 = fi[3] * fj[3]
        z1 = fi[3] * fj[4] + fi[4] * fj[3]
        z2 = fi[3] * fj[5] + fi[4] * fj[4] + fi[5] * fj[3]
        return (x + y0 + y1 + z0 + z1 + z2) % p


@lru_cache(maxsize=None)
def symbol_table(p: int) -> SymbolTable:
    return SymbolTable(p)


@lru_cache(maxsize=None)
def char_exponent_matrix(p: int) -> np.ndarray:
    """E[i, j] with chi(f_i f_j) = zeta^E[i, j]; materialized for p <= 3 only."""
    if p > 3:
        raise TooLarge("the full character matrix is materialized for p <= 3 only")
    t = symbol_table(p)
    c = t.coeffs
    x = np.multiply.outer(c[:, 0], c[:, 0])
    y0 = np.multiply.outer(c[:, 1], c[:, 1])
    y1 = np.multiply.outer(c[:, 1], c[:, 2]) + np.multiply.outer(c[:, 2], c[:, 1])
    z0 = np.multiply.outer(c[:, 3], c[:, 3])
    z1 = np.multiply.outer(c[:, 3], c[:, 4]) + np.multiply.outer(c[:, 4], c[:, 3])
    z2 = (np.multiply.outer(c[:, 3], c[:, 5]) + np.multiply.outer(c[:, 4], c[:, 4])
          + np.multiply.outer(c[:, 5], c[:, 3]))
    e = (x % p + y0 % p + y1 % p + z0 % p + z1 % p + z2 % p) % p
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
    return CyclotomicInt.root_power(symbol_table(p).product_exponent(i, j), p)


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

    def evaluate(self, values: Sequence):
        """Exact evaluation; works for int and CyclotomicInt coordinates."""
        total = None
        for key, coeff in self.terms.items():
            term = None
            for var, exp in key:
                factor = values[var] ** exp
                term = factor if term is None else term * factor
            term = coeff if term is None else term * coeff
            total = term if total is None else total + term
        return 0 if total is None else total

    def __eq__(self, other) -> bool:
        return (isinstance(other, Enumerator) and self.nvars == other.nvars
                and self.degree == other.degree and self.terms == other.terms)

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
        out = []
        for key, coeff in self.sorted_terms():
            if dense:
                exps = [0] * self.nvars
                for var, exp in key:
                    exps[var] = exp
                out.append({"exponents": exps, "coeff": coeff})
            else:
                out.append({"exponents": [[var, exp] for var, exp in key], "coeff": coeff})
        return out


def _monomial(pairs) -> MonomialKey:
    merged: dict[int, int] = {}
    for var, exp in pairs:
        if exp:
            merged[var] = merged.get(var, 0) + exp
    return tuple(sorted(merged.items()))


def bivariate(coeffs_by_y_exponent: Mapping[int, int], degree: int) -> Enumerator:
    """Helper: enumerator sum c_w x^(degree-w) y^w from {w: c_w}."""
    terms = {}
    for w, c in coeffs_by_y_exponent.items():
        if c:
            terms[_monomial(((0, degree - w), (1, w)))] = c
    return Enumerator(2, degree, terms)


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
    out = []
    for chunk in _symbol_index_rows(code, limit):
        for row in chunk:
            out.append(tuple(t.triple(int(i)) for i in row))
    return out


def complete_enumerator(code: AdditiveCode) -> Enumerator:
    pr = code.profile
    counter: Counter[MonomialKey] = Counter()
    for chunk in _symbol_index_rows(code):
        for row in chunk:
            counter[_monomial(Counter(int(i) for i in row).items())] += 1
    return Enumerator(pr.p ** 6, pr.q, dict(counter))


def _weight_histogram(code: AdditiveCode, weight) -> Counter:
    """Codeword count per weight; ``weight`` maps a symbol-index chunk to row weights."""
    hist: Counter[int] = Counter()
    for chunk in _symbol_index_rows(code):
        vals, counts = np.unique(weight(chunk), return_counts=True)
        hist.update(dict(zip(vals.tolist(), counts.tolist())))
    return hist


def hamming_enumerator(code: AdditiveCode) -> Enumerator:
    """W_H(x, y) over coordinate triples: weight = number of nonzero triples."""
    hist = _weight_histogram(code, lambda chunk: (chunk != 0).sum(axis=1))
    return bivariate(hist, code.profile.q)


def symmetrized_enumerator(code: AdditiveCode) -> Enumerator:
    """W_S(W_0, ..., W_M): variable W_i counts coordinates of symbol Lee weight i.

    M = 6 for p in {2, 3}; floor(p/2) + 5 otherwise (the Z_p block can then
    contribute up to floor(p/2) by itself).
    """
    t = symbol_table(code.profile.p)
    nvars = t.max_lee_weight + 1
    counter: Counter[MonomialKey] = Counter()
    for chunk in _symbol_index_rows(code):
        w = t.lee_weights[chunk]
        for row in w:
            counts = np.bincount(row, minlength=nvars)
            counter[_monomial(((i, int(c)) for i, c in enumerate(counts)))] += 1
    return Enumerator(nvars, code.profile.q, dict(counter))


def lee_enumerator(code: AdditiveCode) -> Enumerator:
    """W_L(x, y): the Hamming enumerator of the Gray image, total degree 6n.

    Computed from per-symbol Gray weights, which do not depend on kappa, so
    this works even for p = 3 (mod 4) where the Gray map itself is undefined.
    """
    t = symbol_table(code.profile.p)
    hist = _weight_histogram(code, lambda chunk: t.gray_weights[chunk].sum(axis=1))
    return bivariate(hist, 6 * code.profile.q)


# ---------------------------------------------------------------------------
# MacWilliams identities


def transform_point(point: Sequence[int], p: int) -> list[CyclotomicInt]:
    """P . point for an integer point, as exact cyclotomic integers (p <= 3)."""
    e = char_exponent_matrix(p)
    pt = np.asarray(point, dtype=np.int64)
    if pt.shape != (p ** 6,):
        raise ModulusMismatch(f"point must have {p ** 6} coordinates")
    sums = np.stack([(np.where(e == t, 1, 0) * pt[None, :]).sum(axis=1)
                     for t in range(p)], axis=1)
    coeffs = sums[:, : p - 1] - sums[:, p - 1:]
    return [CyclotomicInt(p, row) for row in coeffs]


def macwilliams_complete_check(code: AdditiveCode,
                               candidate_dual: AdditiveCode | None = None,
                               *, num_points: int = 8, seed: int = 20230817) -> bool:
    """Verify the complete-enumerator MacWilliams identity by point evaluation.

    Checks W_C^(D)(x) == (1/|C|) W_C^(C)(P x) at ``num_points`` fixed
    pseudo-random integer points with coordinates in [0, 97], exactly over
    Z[zeta_p].  D defaults to the computed dual; pass a candidate to test a
    conjectured dual pair.
    """
    p = code.profile.p
    if p > 3:
        raise TooLarge("complete MacWilliams check materializes P; p <= 3 only")
    dual = candidate_dual if candidate_dual is not None else code.dual()
    if dual.profile != code.profile:
        raise BlocksUnequal("dual candidate over a different profile")
    w_primal = complete_enumerator(code)
    w_dual = complete_enumerator(dual)
    rng = np.random.default_rng(seed)
    points = rng.integers(0, 98, size=(num_points, p ** 6))
    for point in points:
        lhs = w_dual.evaluate([int(v) for v in point])
        rhs = w_primal.evaluate(transform_point(point, p))
        if isinstance(rhs, int):
            rhs = CyclotomicInt.from_int(rhs, p)
        if not rhs.is_rational_integer:
            return False
        value = rhs.as_int()
        if value % code.size or value // code.size != int(lhs):
            return False
    return True


def _multiply_by_linear(poly: dict[MonomialKey, int], lin: Sequence[int]) -> dict:
    out: dict[MonomialKey, int] = {}
    for key, coeff in poly.items():
        for var, c in enumerate(lin):
            if not c:
                continue
            new_key = _monomial(key + ((var, 1),))
            out[new_key] = out.get(new_key, 0) + coeff * c
    return out


def substitute_linear(enum: Enumerator, rows: Sequence[Sequence[int]],
                      code_size: int) -> Enumerator:
    """(1/code_size) * enum with each variable v replaced by sum_w rows[v][w] X_w.

    Raises ``InexactDivision`` when the substituted polynomial is not an
    exact code_size-multiple, which signals the input was not the enumerator
    of a code of that size.
    """
    out_nvars = len(rows[0]) if rows else enum.nvars
    total: dict[MonomialKey, int] = {}
    for key, coeff in enum.terms.items():
        poly: dict[MonomialKey, int] = {(): coeff}
        for var, exp in key:
            lin = rows[var]
            for _ in range(exp):
                poly = _multiply_by_linear(poly, lin)
        for k2, c2 in poly.items():
            total[k2] = total.get(k2, 0) + c2
    result: dict[MonomialKey, int] = {}
    for k2, c2 in total.items():
        if c2 % code_size:
            raise InexactDivision(f"coefficient {c2} of {k2} is not divisible by {code_size}")
        if c2 // code_size:
            result[k2] = c2 // code_size
    return Enumerator(out_nvars, enum.degree, result)


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
    onehot = np.zeros((t.count, nw), dtype=np.int64)
    onehot[np.arange(t.count), t.lee_weights] = 1
    # sums[i, w, tau] = #{j : wt(f_j) = w, E[i, j] = tau}
    sums = np.stack([np.where(e == tau, 1, 0) @ onehot for tau in range(p)], axis=2)
    coeffs = sums[:, :, : p - 1] - sums[:, :, p - 1:]
    if p > 2 and coeffs[:, :, 1:].any():
        raise RowCollapseFailure("a symmetrized transform entry is not a rational integer")
    values = coeffs[:, :, 0]
    rows: dict[int, np.ndarray] = {}
    for i in range(t.count):
        w = int(t.lee_weights[i])
        if w in rows:
            if not (rows[w] == values[i]).all():
                raise RowCollapseFailure(
                    f"symbols of Lee weight {w} produce different transform rows")
        else:
            rows[w] = values[i]
    return tuple(tuple(int(v) for v in rows[w]) for w in range(nw))


def symmetrized_transform(enum: Enumerator, code_size: int, p: int) -> Enumerator:
    """Dual symmetrized enumerator via the Q-matrix substitution."""
    q = symmetrized_q_matrix(p)
    if enum.nvars != len(q):
        raise ZprsError(f"expected {len(q)} weight-class variables, got {enum.nvars}")
    return substitute_linear(enum, q, code_size)
