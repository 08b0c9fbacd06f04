"""Weight enumerators of additive codes whose coordinates are triples in
Z_p x R x S, and the MacWilliams machinery relating a code to its dual.

The p^6 alphabet symbols are ordered lexicographically by coefficient tuple
(a; a', b'; a'', b'', d''), with index 0 the zero symbol.  All enumerator
semantics key off symbol values, never positions, so results do not depend
on any particular listing.  Symbol indices are used only where the index is
the key: the complete enumerator and its MacWilliams check, which map the low
span's indices through each high word of ``linalg.row_space_split``.  The
Hamming, Lee and symmetrized walks weigh each chunk of codeword digits with
``gray.position_weights``.  Neither builds a p^6 table, so both run at any p.

The generating character is chi(f) = zeta_p^(a + a' + b' + a'' + b'' + d'')
with zeta_p a primitive p-th root of unity; for p = 2 this is the familiar
(-1)^sum.  So chi(f g) = zeta^(coefficient sum of <f, g>), the u-weighted
inner product of one triple (``words.form_matrices``), and all character sums
come from one Fourier transform over Z_p^6, exact in Z[y]/(y^p - 1).

Four enumerators are provided: complete (p^6 variables), Hamming (x, y),
symmetrized (W_0..W_6, W_i counting coordinates whose symbol has Gray weight
i) and Lee (x, y; the Hamming enumerator of the Gray image).  Each has an
exact dual transform; the complete identity is verified by evaluation at
fixed pseudo-random integer points instead of materializing the p^6-variate
transform.  Hamming, Lee and symmetrized walk the smaller of C and C^perp
and transform back; ``walk(code, kind)`` always walks C, so
``macwilliams_holds`` compares two independent walks.  ``ENUMERATORS``,
``TRANSFORMS``, ``VARIABLES`` and ``MACWILLIAMS_METHODS`` are the one table of
the kinds.

Naming: here "Lee" and the symmetrized classes count the Hamming weight of
the kappa-free Gray image, [x != 0] on a Z_p digit.  ``gray.lee_weight``
keeps min(x, p-x) on the Z_p block.  The two agree only at p <= 3.

The three transforms are one routine, ``substitute_linear``, with a
Krawtchouk matrix as Q: K_1 over an alphabet of p^6 (Hamming) or p (Lee),
and K_6 over p (symmetrized).  At degree n the substitution of Q X for X
is the integer matrix T = Sym^n(Q) on the monomial basis, so a transform is
T times the coefficient vector, in exact integers, divided by the code
size, evaluated by Horner's rule on the input's monomials without forming T.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

import numpy as np

from . import linalg
from .additive import AdditiveCode
from .errors import BlocksUnequal, InexactDivision, TooLarge, ZprsError
from .rings import ChainElement
from .gray import position_weights
from .words import BlockProfile, _frozen, block_columns, form_matrices

MonomialKey = tuple[tuple[int, int], ...]


# ---------------------------------------------------------------------------
# the symbol alphabet Z_p x R x S


class SymbolTable:
    """The p^6 symbols in coefficient-lexicographic order, with weight tables.

    Index <-> digit conversions work arithmetically, at any p.  The per-symbol
    arrays (digit matrix, weight tables) have p^6 rows and materialize lazily;
    the digit matrix serves the complete check's character sums (p <= 7), the
    weight tables only callers that ask for them.  The enumerator walks and
    the transforms never read them.
    """

    def __init__(self, p: int):
        self.profile = BlockProfile(p, 1, 1, 1)     # a symbol is one coordinate triple
        self.p = p
        self.count = p ** 6

    @cached_property
    def coeffs(self) -> np.ndarray:
        # column j cycles through 0..p-1 with period p^(5-j)
        p = self.p
        cols = [np.tile(np.repeat(np.arange(p, dtype=np.int64), p ** (5 - j)), p ** j)
                for j in range(6)]
        return _frozen(np.stack(cols, axis=1))  # columns: a, a', b', a'', b'', d''

    @cached_property
    def lee_weights(self) -> np.ndarray:
        """Symbol Lee weight: min(x, p-x) plus the Gray weights of the R, S parts."""
        return _frozen(position_weights(self.coeffs, self.profile, lee=True).sum(axis=1))

    @cached_property
    def gray_weights(self) -> np.ndarray:
        """Hamming weight of the Gray image (identity on the Z_p part): the symmetrized class."""
        return _frozen(position_weights(self.coeffs, self.profile, lee=False).sum(axis=1))

    def digits(self, idx: int) -> tuple[int, ...]:
        if not 0 <= idx < self.count:
            raise IndexError(f"symbol index {idx} is outside 0..{self.count - 1}")
        return tuple(idx // self.p ** (5 - j) % self.p for j in range(6))

    def index_of(self, triple) -> int:
        x, y, z = triple
        p = self.p
        digits = (int(x) % p, *ChainElement.make(y, p, 2).coeffs,
                  *ChainElement.make(z, p, 3).coeffs)
        return sum(d * p ** (5 - j) for j, d in enumerate(digits))

    def triple(self, idx: int) -> tuple[int, ChainElement, ChainElement]:
        row = self.digits(int(idx))
        return (row[0],
                ChainElement(self.p, 2, (row[1], row[2])),
                ChainElement(self.p, 3, (row[3], row[4], row[5])))


@lru_cache(maxsize=None)
def symbol_table(p: int) -> SymbolTable:
    return SymbolTable(p)


def _product_exponent(f, g, p: int):
    """The character exponent f B g mod p of the product of the symbols with digits
    f and g (last axis a; a', b'; a'', b'', d''), B the coefficient sum of the
    u-weighted inner product of one triple (symmetric, invertible); broadcasts."""
    form = form_matrices(BlockProfile(p, 1, 1, 1)).sum(axis=0)
    return ((f @ form)[..., None, :] @ g[..., None])[..., 0, 0] % p


@lru_cache(maxsize=None)
def char_exponent_matrix(p: int) -> np.ndarray:
    """E[i, j] with chi(f_i f_j) = zeta^E[i, j], p^12 entries: the reference table
    of the tests for p <= 3.  The library never reads it; the benchmark setup warms it."""
    if p > 3:
        raise TooLarge("the full character matrix is materialized for p <= 3 only")
    c = symbol_table(p).coeffs
    return _frozen(_product_exponent(c[:, None], c[None, :], p))


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


# ---------------------------------------------------------------------------
# building enumerators from codes


def _check_triples(pr: BlockProfile) -> None:
    if not (pr.q == pr.r == pr.s):
        raise BlocksUnequal(f"per-coordinate symbols need q = r = s, got ({pr.q}, {pr.r}, {pr.s})")


def _symbol_index_rows(code: AdditiveCode):
    """Yield chunks of codewords as (rows, n) symbol-index matrices, in walk order:
    high word h maps each distinct low symbol s of coordinate j to idx(h_j + s),
    and each low word reads its index there, so no codeword is flattened and
    nothing of size p^6 is formed.  Indices must fit int64: p >= 1451 is refused."""
    pr, p = code.profile, code.profile.p
    _check_triples(pr)
    if p ** 6 > _INT64_MAX:
        raise TooLarge(f"symbol indices below {p}^6 do not fit int64")
    low, highs = linalg.row_space_split(code.basis, p)
    cols = np.column_stack(block_columns(pr))  # row j: the six coefficients of position j
    radix = p ** np.arange(5, -1, -1, dtype=np.int64)
    # per coordinate: its distinct low symbols as digits, and which one each low word has
    symbols = [(s[:, None] // radix % p, where) for s, where in
               (np.unique(low[:, c] @ radix, return_inverse=True) for c in cols)]
    for high in highs:
        yield np.array([((high[:, None, c] + s) % p @ radix).take(where, axis=1).ravel()
                        for c, (s, where) in zip(cols, symbols)]).T


def _coordinate_weights(code: AdditiveCode):
    """Chunks of codewords as (rows, n) Gray weights of their coordinate triples."""
    _check_triples(code.profile)
    return (position_weights(c, code.profile, lee=False).reshape(len(c), 3, -1).sum(axis=1)
            for c in code.iter_codeword_vectors())


def _distinct_rows(rows: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows in lexicographic order, each with the sum of its counts."""
    order = np.lexsort(rows.T[::-1])
    rows, counts = rows[order], counts[order]
    first = np.flatnonzero(np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)])
    return rows[first], np.add.reduceat(counts, first)


def _histogram(chunks, key) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``key(chunk)`` over all codeword chunks, in
    lexicographic order, and how many codewords give each; ``key`` maps a
    chunk to one integer row per codeword."""
    parts = [_distinct_rows(rows, np.ones(len(rows), dtype=np.int64))
             for rows in map(key, chunks)]
    return _distinct_rows(*map(np.concatenate, zip(*parts)))


# per kind: one histogram row per codeword, from its triples' Gray weights w, and
# the degree of the enumerator per coordinate triple
_WALK_KEYS = {"hamming": (lambda w: (w != 0).sum(axis=1, keepdims=True), 1),
              "lee": (lambda w: w.sum(axis=1, keepdims=True), 6),
              "symmetrized": (lambda w: (w[..., None] == np.arange(7)).sum(axis=1), 1)}


def walk(code: AdditiveCode, kind: str) -> Enumerator:
    """The ``kind`` enumerator ("hamming", "lee" or "symmetrized") of C's own codewords.
    A one-column key y (Hamming, Lee) becomes x^(degree - y) y^y on the distinct rows."""
    key, per_triple = _WALK_KEYS[kind]
    rows, counts = _histogram(_coordinate_weights(code), key)
    degree = per_triple * code.profile.q
    if rows.shape[1] == 1:
        rows = np.c_[degree - rows, rows]
    return Enumerator(rows.shape[1], degree,
                      {_key(row): c for row, c in zip(rows.tolist(), counts.tolist())})


def _smaller_side(code: AdditiveCode, kind: str) -> Enumerator:
    """``walk(code, kind)``, or the transform of the dual's walk if |C^perp| < |C|."""
    if 2 * code.rank <= code.profile.n:
        return walk(code, kind)
    dual = code.dual()
    return TRANSFORMS[kind](walk(dual, kind), dual.size, code.profile.p)


def complete_enumerator(code: AdditiveCode) -> Enumerator:
    """W_C(x_0, ..., x_(p^6 - 1)): codeword c contributes prod_j x_(c_j)."""
    pr = code.profile
    rows, counts = _histogram(_symbol_index_rows(code), lambda chunk: np.sort(chunk, axis=1))
    # a sorted row is a sequence of runs; a run of e copies of symbol i is x_i^e
    starts = np.c_[np.ones(len(rows), dtype=bool), rows[:, 1:] != rows[:, :-1]]
    first = np.flatnonzero(starts)          # row-major, and column 0 starts a run
    pairs = list(zip(rows.ravel()[first].tolist(), np.diff(first, append=rows.size).tolist()))
    ends = np.cumsum(starts.sum(axis=1)).tolist()
    keys = [tuple(pairs[a:b]) for a, b in zip([0] + ends[:-1], ends)]
    return Enumerator(pr.p ** 6, pr.q, dict(zip(keys, counts.tolist())))


def hamming_enumerator(code: AdditiveCode) -> Enumerator:
    """W_H(x, y) over coordinate triples: weight = number of nonzero triples."""
    return _smaller_side(code, "hamming")


def symmetrized_enumerator(code: AdditiveCode) -> Enumerator:
    """W_S(W_0, ..., W_6): W_i counts coordinates whose symbol has Gray weight i, the
    Hamming weight of its kappa-free Gray image.  These classes are Fourier-invariant
    at every p (``symmetrized_q_matrix``), so the smaller side is walked at every p."""
    return _smaller_side(code, "symmetrized")


def lee_enumerator(code: AdditiveCode) -> Enumerator:
    """W_L(x, y): the Hamming enumerator of the Gray image, total degree 6n.

    Computed from the codewords' Gray weights, which do not depend on kappa, so
    this works even for p = 3 (mod 4) where the Gray map itself is undefined.
    """
    return _smaller_side(code, "lee")


# ---------------------------------------------------------------------------
# MacWilliams identities


# the most entries that the index tables or Horner levels of substitute_linear,
# or the m p^7 character sums of m points, may hold
TRANSFORM_BUDGET = 2 ** 24


def _character_sums(points: np.ndarray, p: int) -> np.ndarray:
    """S[..., i, t] = sum of points[..., j] over the symbols j with chi(f_i f_j) = zeta^t:
    the Fourier transform over Z_p^6, in Z[y]/(y^p - 1), of the points moved from
    f_j to f_j B, read at f_i.  One digit at a time, out[k, t] = sum_j in[j, t - k j],
    in int64 over m p^7 entries for m points."""
    lead = points.shape[:-1]
    out = np.zeros((*lead, p ** 6, p), dtype=np.int64)
    # row j: the digits of f_j B, its exponents against the six unit symbols
    moved = _product_exponent(symbol_table(p).coeffs[:, None], np.eye(6, dtype=np.int64), p)
    out[..., moved @ p ** np.arange(5, -1, -1), 0] = points
    shift = (np.arange(p) - np.arange(p)[:, None, None] * np.arange(p)[:, None]) % p
    for _ in range(6):      # the leading digit j goes, the trailing digit k comes
        digit = out.reshape(*lead, p, p ** 5, p)
        out = sum(digit[..., j, :, :][..., shift[j]] for j in range(p)).reshape(out.shape)
    return out


_INT64_MAX = int(np.iinfo(np.int64).max)
COMPLETE_CHECK_SEED = 20230817  # fixes the complete check's evaluation points


def _codeword_sums(code: AdditiveCode, tables: np.ndarray) -> list[list[int]]:
    """For each m, the sum over codewords c of prod_j tables[m, c_j] in
    Z[y]/(y^k - 1); ``tables`` is (m, p^6, k), the result m rows of k ints.

    Each coordinate of a chunk gathers one (m, rows, k) block of the tables;
    the blocks multiply elementwise at k = 1, as cyclic convolutions otherwise.
    The l1 norm is submultiplicative, so a chunk's products and sums stay within
    rows * B^n, B the largest l1 norm of a table row: the tables are cast once
    to int64 when that is below 2^63, to exact Python ints otherwise."""
    k, rows = tables.shape[-1], min(code.size, linalg.CHUNK)    # the most rows of a chunk
    bound = rows * int(np.abs(tables).sum(axis=-1).max()) ** code.profile.q
    tables = tables.astype(np.int64 if bound <= _INT64_MAX else object)
    totals = np.zeros((len(tables), k), dtype=object)
    for chunk in _symbol_index_rows(code):
        prod = tables.take(chunk[:, 0], axis=1)
        for j in range(1, chunk.shape[1]):
            f = tables.take(chunk[:, j], axis=1)
            prod = prod * f if k == 1 else sum(prod[..., i, None] * np.roll(f, i, axis=-1)
                                               for i in range(k))
        totals += prod.sum(axis=1).astype(object)          # Python ints from here on
    return totals.tolist()


def _complete_check_points(q: int) -> int:
    """The smallest k >= 8 with (q/98)^k <= 2^-28; refuses q >= 98, where no k works."""
    if q >= 98:
        raise TooLarge(f"degree {q} is beyond the complete check's points in [0, 97]")
    return next(k for k in itertools.count(8) if q ** k << 28 <= 98 ** k)


def macwilliams_complete_check(code: AdditiveCode,
                               candidate_dual: AdditiveCode | None = None) -> bool:
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
    ``COMPLETE_CHECK_SEED`` fixes the points: the bound is over the choice of seed.
    For D the dual, |C| |D| = p^(6q) and both sides walk under the 2^24
    limit, so q <= 8 at p = 2, 5 at p = 3, 3 at p = 5 and 2 at p = 7, and
    k = 8.  The character sums of the k points, k p^7 entries, must fit
    ``TRANSFORM_BUDGET``, so p >= 11 is refused up front with ``TooLarge``.
    At p = 5, q = 3 the right side's sums leave int64 and the check takes
    about 98 s in Python integers; q <= 2 takes well under a second.
    """
    p = code.profile.p
    count = _complete_check_points(code.profile.q)
    if count * p ** 7 > TRANSFORM_BUDGET:
        raise TooLarge(f"the character sums of {count} points over Z_{p}^6 exceed the budget")
    dual = candidate_dual if candidate_dual is not None else code.dual()
    if dual.profile != code.profile:
        raise BlocksUnequal("dual candidate over a different profile")
    rng = np.random.default_rng(COMPLETE_CHECK_SEED)
    points = rng.integers(0, 98, size=(count, p ** 6))
    lhs = _codeword_sums(dual, points[..., None])
    rhs = _codeword_sums(code, _character_sums(points, p))
    for (left,), right in zip(lhs, rhs):
        # sum_t right[t] zeta^t is rational iff right[1] = ... = right[p-1]
        if len(set(right[1:])) > 1 or right[0] - right[-1] != code.size * left:
            return False
    return True


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
    Raises ``ZprsError`` unless ``rows`` has one row per variable of ``enum``,
    ``TooLarge`` when the index tables or a level could exceed
    ``TRANSFORM_BUDGET`` = 2^24 entries (for rows without zeros, expanding
    term by term takes about as many multiply-adds), and
    ``InexactDivision`` when the result is not an exact code_size-multiple:
    the input was not the enumerator of a code of that size.
    """
    if enum.nvars != len(rows):
        raise ZprsError(f"expected {len(rows)} variables, got {enum.nvars}")
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
        raise InexactDivision(f"coefficient {total[bad[0]]} of {_key(exps[bad[0]].tolist())} "
                              f"is not divisible by {code_size}")
    nonzero = np.flatnonzero(total)
    return Enumerator(m, n, {_key(e): c // code_size for e, c in
                             zip(exps[nonzero].tolist(), total[nonzero].tolist())})


@lru_cache(maxsize=None)
def _krawtchouk(alphabet: int, length: int) -> tuple[tuple[int, ...], ...]:
    """K[w][i] = sum_j (-1)^j (alphabet - 1)^(i - j) C(w, j) C(length - w, i - j), the sum
    of prod_k psi_k(f_k g_k) over the g of weight i in alphabet^length for any f of
    weight w, psi_k nontrivial additive characters (MacWilliams-Sloane, ch. 5)."""
    return tuple(tuple(sum((-1) ** j * (alphabet - 1) ** (i - j) * math.comb(w, j)
                           * math.comb(length - w, i - j) for j in range(i + 1))
                       for i in range(length + 1)) for w in range(length + 1))


def hamming_transform(enum: Enumerator, code_size: int, p: int) -> Enumerator:
    """Dual Hamming enumerator: substitute (x + (p^6 - 1) y, x - y), K_1 over p^6, and divide."""
    return substitute_linear(enum, _krawtchouk(p ** 6, 1), code_size)


def lee_transform(enum: Enumerator, code_size: int, p: int) -> Enumerator:
    """Dual Lee enumerator: substitute (x + (p - 1) y, x - y), K_1 over Z_p, and divide.

    The Gray image lives over Z_p; at p = 2 this is the classical (x + y, x - y).
    """
    return substitute_linear(enum, _krawtchouk(p, 1), code_size)


def symmetrized_q_matrix(p: int) -> tuple[tuple[int, ...], ...]:
    """The 7 x 7 matrix Q of the symmetrized transform: K_6 over an alphabet of size p.

    Row w is the common value of sum_j chi(f_i f_j) X_(wt(f_j)) over the
    symbols f_i of Gray weight w.  Why it is K_6 at every p: write the
    kappa-free Gray map on digits f = (x; a, b; a'', b'', d'') as f M, with
    M the unimodular integer matrix taking f to (x; a+b, b; a+b+d, b+d, b),
    and B the character form (``form_matrices`` of one triple, summed over
    the powers of u).  Then M^-1 B M^-T = diag(1, 1, -1, 1, -1, 1) over Z,
    so chi(f g) = prod_k zeta^(e_k f'_k g'_k) with f' = f M, g' = g M and
    e_k = +-1: a product of six nontrivial additive characters of Z_p, one
    per Gray digit.  As g runs over the symbols, g' runs over Z_p^6, so the
    sum over the g of Gray weight i is the Krawtchouk value K_6[wt(f')][i].
    At p <= 3, min(x, p-x) = [x != 0], so these are also the Lee classes.
    """
    return _krawtchouk(p, 6)


def symmetrized_transform(enum: Enumerator, code_size: int, p: int) -> Enumerator:
    """Dual symmetrized enumerator via the Q-matrix substitution."""
    return substitute_linear(enum, symmetrized_q_matrix(p), code_size)


# the kind table: every public enumerator, the transform of each kind that has
# one, the variable names of each kind (complete prints x_<symbol index>), and how
# ``macwilliams_holds`` checks each kind
ENUMERATORS = {"complete": complete_enumerator, "hamming": hamming_enumerator,
               "lee": lee_enumerator, "symmetrized": symmetrized_enumerator}
TRANSFORMS = {"hamming": hamming_transform, "lee": lee_transform,
              "symmetrized": symmetrized_transform}
VARIABLES = {"hamming": ("x", "y"), "lee": ("x", "y"),
             "symmetrized": tuple(f"W_{i}" for i in range(7))}
MACWILLIAMS_METHODS = {"complete": "point evaluation over Z[zeta_p]",
                       **dict.fromkeys(TRANSFORMS, "exact transform comparison")}


def macwilliams_holds(code: AdditiveCode, kind: str) -> bool:
    """Whether the ``kind`` MacWilliams identity holds for C and its dual: "complete" is
    ``macwilliams_complete_check``, any other kind compares the transform of C's walk
    with the walk of C^perp.  Never a public enumerator with its own transform: it may
    be the transform of the dual's walk, so that would only test an involution."""
    if kind == "complete":
        return macwilliams_complete_check(code)
    return TRANSFORMS[kind](walk(code, kind), code.size, code.profile.p) == walk(code.dual(), kind)
