"""Linear codes over Z_p: duals, exact minimum distance, and the cyclic /
quasi-cyclic / quasi-twisted closure predicates.

A linear code of length n is the additive code of the profile (p, n, 0, 0):
u acts as 0 there, so every subspace is a module, and the u-weighted form is
u^2 times the dot product, so the inherited ``dual()`` is the Euclidean dual.
Invariance under v -> v M is the inherited one-product test; the predicates
build M block-diagonal from the twisted shifts of ``words.shift_matrix``,
and ``is_cyclic`` rolls the basis by one column instead, memoized per code.

The parity check H is read off the RREF generator without elimination:
the identity on the free columns, minus the free part of G on the pivots.

Minimum distance uses the parity-check characterization: d(C) is the
smallest w such that some w columns of H are linearly dependent.  The
search walks independent column subsets in lexicographic order (DFS with
one vectorized elimination per node), deepening w until a dependency
appears, so the first hit certifies exactness.  The last two levels are
one step: scaled by the inverse of its leading entry, a column equals a
later one exactly when that one is a multiple of it, and the candidates
are compared in blocks of at most PAIR_BLOCK booleans.  A cyclic code
starts from column 0 alone: some shift of a minimum-weight word has column 0
in its support (MacWilliams-Sloane, ch. 7).  A full codeword enumeration is
kept as an independent oracle for small codes and as the fallback when the
subset cap is exhausted.

A Plotkin sum P(U, V, lam) = {(x + y | lam x) : x in U, y in V} (V in U, lam a
unit), such as the Gray image of a cyclic R-code, has d = min(2 d(U), d(V)):
the (u | u + v) construction of MacWilliams-Sloane, ch. 2 Sec. 9, Thm. 33.
Any code reads d as the least w d(H) over its weighted halves (w, H), codes that
memoize whether they are cyclic and their distance per cap: (2, U) up to half the
cap and (1, V) up to it for a sum, else (1, the code).  The Gray map hands its
cached half codes and checked kappa to ``_from_halves``; ``plotkin_sum`` checks lam
and reduces fresh halves first.  P's trusted RREF, built on first read, is
[[U, lam (U - U[:, piv_V] V)], [0, V]]: its top right vanishes on m + piv_V.
P^perp = {(c | lam^-1 (e - c)) : c in V^perp, e in U^perp}, for lam^2 = -1 the
words (x + y | lam x), x = c - e, y = e: P holds it iff V^perp in U, H_V H_U^T = 0.
``_from_halves`` takes one product [G_V; H_V] H_U^T (``_checks``): V in U iff its top
k(V) rows vanish, else ``ZprsError``; for lam^2 = -1 P's memo keeps whether the rest do.
The CSS search hands over the verdict from its factor masks and vouches for V in U.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache, partial
from typing import Sequence

import numpy as np

from . import linalg
from .additive import AdditiveCode
from .errors import DistanceNotDetermined, LengthMismatch, ProfileMismatch, ZprsError
from .words import BlockProfile, _frozen, as_unit, cached_profile, shift_matrix

# entries of one boolean block of the pair check; primes with a cached inverse table
PAIR_BLOCK, INVERSE_TABLE_LIMIT = 1 << 22, 1 << 16


class LinearCode(AdditiveCode):
    """[n, k] code over Z_p: the additive code of (p, n, 0, 0), ``generator`` its RREF basis."""

    _plotkin: "tuple[LinearCode, LinearCode, int] | None" = None  # (U, V, lam) of a Plotkin sum

    def __init__(self, p: int, n: int, generator: np.ndarray | Sequence, *, _pivots=None):
        super().__init__(cached_profile(p, n, 0, 0), generator, _closed=True, _pivots=_pivots)
        self._memo: dict = {}   # distances by cap (None: enumerated); P's "dual"

    p = property(lambda self: self.profile.p)
    n = property(lambda self: self.profile.q)
    k = property(lambda self: len(self.pivots))
    generator = property(lambda self: self.basis)
    _checks = cached_property(lambda self: _frozen(np.vstack([self.basis, self.parity_check])))

    @classmethod
    def zero(cls, p: int, n: int) -> "LinearCode":
        return cls(p, n, [])

    @classmethod
    def full_space(cls, p: int, n: int) -> "LinearCode":
        return cls(p, n, np.eye(n, dtype=np.int64))

    @classmethod
    def plotkin_sum(cls, p: int, u, v, lam: int) -> "LinearCode":
        """{(x + y | lam x) : x in U, y in V} for bases U, V of length m, V in U
        (``ZprsError`` otherwise), and a unit lam: its RREF written on the halves,
        each row-reduced here; ``min_distance`` reads them too (module docstring)."""
        lam = as_unit(linalg.as_int(lam, "lambda"), p, 1).coeffs[0]
        if (m := np.shape(u)[-1]) < 1:
            raise ProfileMismatch("the halves of a Plotkin sum need a length m >= 1")
        return cls._from_halves(cls(p, m, u), cls(p, m, v), lam)

    @classmethod
    def _from_halves(cls, hu: "LinearCode", hv: "LinearCode", lam: int, dual=None):
        """P(U, V, lam), lam a checked unit; ``ZprsError`` unless V in U, trusted with dual."""
        if dual is None:
            both = hv._checks @ hu.parity_check.T % hu.p
            if np.count_nonzero(both[:hv.k]):
                raise ZprsError("V is not in U: the rows do not form a Plotkin sum")
            dual = None if (lam * lam + 1) % hu.p else not np.count_nonzero(both[hv.k:])
        code = cls(hu.p, 2 * hu.n, partial(_plotkin_rows, hu, hv, lam),
                   _pivots=hu.pivots + [hu.n + j for j in hv.pivots])
        code._plotkin = (hu, hv, lam)
        code._memo["dual"] = dual       # None: is_dual_containing takes the whole-code test
        return code

    @cached_property
    def parity_check(self) -> np.ndarray:
        """(n-k) x n matrix H with G H^T = 0, in standard form (not RREF)."""
        return _frozen(linalg.standard_kernel(self.generator, self.pivots, self.p))

    def euclidean_dual(self) -> "LinearCode":
        return LinearCode(self.p, self.n, self.parity_check)

    def __repr__(self) -> str:
        return f"LinearCode([{self.n}, {self.k}] over Z_{self.p})"

    # -- minimum distance --------------------------------------------------

    def min_distance(self, search_cap: int = 6, jobs: int = 1) -> int:
        """Exact minimum Hamming weight of a nonzero codeword.

        With cap = min(search_cap, n - k + 1), at least 1, d is the least
        w d(half) over weighted halves, each searched for its smallest dependent
        parity-check column subset up to its own cap: (2, U, cap // 2) and
        (1, V, cap) for a ``plotkin_sum``, d = min(2 d(U), d(V)), else
        (1, self, cap).  Above the cap the halves are enumerated when
        p^k <= 2^20, else ``DistanceNotDetermined`` carries the bound cap + 1.
        Each half memoizes its distances.  A cyclic half starts the search
        from column 0 alone, any other from every column: some shift of a
        minimum-weight word of a cyclic code has column 0 in its support.
        ``jobs`` is ignored: the search runs in this process.
        """
        if self.k == 0:
            raise ZprsError("minimum distance needs a nonzero code")
        # the Singleton bound; a weight-1 word is always found, so a cap below 1 acts as 1
        cap = max(1, min(linalg.as_int(search_cap, "search_cap"), self.n - self.k + 1))
        # 2 (cap // 2 + 1) > cap, so a Plotkin minimum at most cap is min(2 d(U), d(V))
        halves = (((1, self, cap),) if self._plotkin is None
                  else ((2, self._plotkin[0], cap // 2), (1, self._plotkin[1], cap)))
        d = min(w * half._distance(c) for w, half, c in halves)
        if d > cap:
            if self.size > 2 ** 20:
                raise DistanceNotDetermined(cap + 1)
            d = min(w * half._distance(None) for w, half, _ in halves)
        assert d <= self.n - self.k + 1, "Singleton bound violated; elimination bug"
        return d

    def _distance(self, cap: int | None) -> float:
        """min(d, cap + 1) up to the Singleton bound, from column 0 alone if the code
        is cyclic (cap None: d by enumeration; inf for the zero code), memoized."""
        if cap not in self._memo:
            d = (math.inf if self.k == 0 else min_distance_by_enumeration(self) if cap is None
                 else _smallest_dependent_subset(self.parity_check, self.p,
                                                 min(cap, self.n - self.k + 1),
                                                 1 if self.is_cyclic() else self.n))
            self._memo[cap] = cap + 1 if d is None else d
        return self._memo[cap]

    # -- shift-invariance predicates ----------------------------------------

    def is_cyclic(self) -> bool:
        """Invariance under the shift by one column: one row-space product, memoized."""
        return self._cyclic

    _cyclic = cached_property(lambda self: linalg.in_row_space(
        self.basis, self.pivots, np.roll(self.basis, 1, axis=1), self.p))

    def is_quasi_cyclic(self, l: int) -> bool:
        return self.is_quasi_twisted(1, l)

    def is_quasi_twisted(self, lam: int, l: int) -> bool:
        """Invariance under sigma_lam applied to each of the l length-m blocks."""
        if l <= 0 or self.n % l:
            raise LengthMismatch(f"l = {l} does not divide n = {self.n}")
        return self.is_generalized_quasi_twisted([lam] * l, [self.n // l] * l)

    def is_generalized_quasi_twisted(self, lams: Sequence[int],
                                     block_lens: Sequence[int]) -> bool:
        """Invariance under the block-diagonal X whose block i is the lams[i]-twisted
        shift sigma(v) = (lam v[m-1], v[0], ..., v[m-2]) of its block_lens[i] columns,
        the ``shift_matrix`` of the profile (p, block_lens[i], 0, 0)."""
        if len(lams) != len(block_lens):
            raise LengthMismatch("one unit per block required")
        if any(m < 0 for m in block_lens):
            raise LengthMismatch(f"block lengths must be nonnegative, got {list(block_lens)}")
        if sum(block_lens) != self.n:
            raise LengthMismatch(f"block lengths sum to {sum(block_lens)}, not {self.n}")
        x, pos = np.zeros((self.n, self.n), dtype=np.int64), 0
        for lam, m in zip(lams, block_lens):
            unit = as_unit(linalg.as_int(lam, "lambda"), self.p, 1)  # checked on empty blocks too
            if m:
                x[pos:pos + m, pos:pos + m] = shift_matrix(BlockProfile(self.p, m, 0, 0), unit)
            pos += m
        return self._closed_under(x)


def _choose_column(mat: np.ndarray, p: int, j: int) -> np.ndarray:
    """Reduce the columns after j against column j and zero the rest.  Column j is
    nonzero: a zero one is a dependency below w, ruled out by earlier rounds."""
    col = mat[:, j]
    if not (nz := col.nonzero()[0]).size:
        raise AssertionError(f"column {j} reduced to zero below the round's subset size")
    piv = int(nz[0])
    scaled = col * pow(int(col[piv]), p - 2, p) % p
    rest = mat[:, j + 1:]
    reduced = (rest - scaled[:, None] * rest[piv]) % p
    return np.concatenate([np.zeros((mat.shape[0], j + 1), dtype=np.int64), reduced], axis=1)


def _dependent_pair(mat: np.ndarray, p: int, start: int, stop: int) -> bool:
    """The last two levels at once: True iff some column j in [start, stop) has a
    later column that reduces to zero against it, a multiple of it.  Scaled by the
    inverse of its leading entry, a column then equals another one, and conversely
    one equal to an earlier column c makes c such a j.  No column is zero here (that
    is a dependency below w), so each candidate block, of at most PAIR_BLOCK
    booleans, holds such a pair iff it has more equalities than its self-matches."""
    m = mat[:, start:]
    lead = m[(m != 0).argmax(axis=0), np.arange(m.shape[1])]
    inverse = (_inverse_table(p)[lead] if p <= INVERSE_TABLE_LIMIT
               else np.array([pow(int(a), p - 2, p) for a in lead]))
    norm = m * inverse % p
    step = max(1, PAIR_BLOCK // m.size)
    for i in range(0, stop - start, step):
        equal = (norm[:, i:min(i + step, stop - start), None] == norm[:, None, :]).all(axis=0)
        if np.count_nonzero(equal) > len(equal):
            return True
    return False


@lru_cache(maxsize=16)
def _inverse_table(p: int) -> np.ndarray:
    """a^(p-2) mod p for a in [0, p) (read-only): the inverse of each unit, 0 for 0."""
    return _frozen(np.array([pow(a, p - 2, p) for a in range(p)], dtype=np.int64))


def _dependent_subtree(mat: np.ndarray, p: int, start: int, stop: int, chosen: int,
                       w: int) -> bool:
    """DFS over independent column prefixes whose next column lies in [start, stop).

    ``mat`` holds every column reduced against the chosen prefix; choosing a
    column is one vectorized elimination.  Earlier deepening rounds rule out
    dependencies smaller than w, so reductions vanish only at the last level.
    """
    stop = min(stop, mat.shape[1] - (w - chosen) + 1)
    if chosen == w - 2:
        return _dependent_pair(mat, p, start, stop)
    return any(_dependent_subtree(_choose_column(mat, p, j), p, j + 1, mat.shape[1],
                                  chosen + 1, w) for j in range(start, stop))


def _smallest_dependent_subset(h: np.ndarray, p: int, cap: int, starts: int) -> int | None:
    """Smallest w <= cap such that w columns of h are linearly dependent.

    Iterative deepening over w; the first chosen column of a subset is its
    smallest, and only the first ``starts`` columns may be it.
    """
    if h.shape[0] == 0:
        return 1  # no constraints: every single column is dependent
    base = h.astype(np.int64) % p
    if bool((~base.any(axis=0)).any()):
        return 1
    for w in range(2, cap + 1):
        if _dependent_subtree(base, p, 0, starts, 0, w):
            return w
    return None


def _plotkin_rows(hu: LinearCode, hv: LinearCode, lam: int) -> np.ndarray:
    """The RREF [[U, lam (U - U[:, piv_V] V)], [0, V]] of P(U, V, lam) (module docstring)."""
    u, v = hu.basis, hv.basis
    return np.block([[u, (u - u[:, hv.pivots] @ v) % hu.p * lam % hu.p], [0 * v, v]])


def min_distance_by_enumeration(code: LinearCode) -> int:
    """Independent oracle: scan all p^k - 1 nonzero codewords; ``TooLarge`` above 2^24."""
    if code.k == 0:
        raise ZprsError("minimum distance needs a nonzero code")
    best = code.n + 1
    for words in linalg.iter_row_space(code.generator, code.p):
        weights = (words != 0).sum(axis=1)
        best = int(weights.min(initial=best, where=weights > 0))
    return best
