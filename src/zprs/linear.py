"""Linear codes over Z_p: duals, exact minimum distance, and the cyclic /
quasi-cyclic / quasi-twisted closure predicates.

Minimum distance uses the parity-check characterization: d(C) is the
smallest w such that some w columns of H are linearly dependent.  The
search walks independent column subsets in lexicographic order (DFS with
one vectorized elimination per node), deepening w until a dependency
appears, so the first hit certifies exactness.  A full codeword
enumeration is kept as an independent oracle for small codes and as the
fallback when the subset cap is exhausted.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from . import linalg
from .errors import DistanceNotDetermined, LengthMismatch, ProfileMismatch, ZprsError
from .field import ensure_prime


class LinearCode:
    """[n, k] code over Z_p held as a row-reduced generator matrix."""

    def __init__(self, p: int, n: int, generator: np.ndarray | Sequence, *,
                 _reduced: bool = False):
        ensure_prime(p)
        linalg.check_modulus(p, n)
        self.p = p
        self.n = n
        mat = linalg.as_matrix(np.asarray(generator, dtype=np.int64)
                               if len(generator) else [], n)
        if _reduced:
            self.generator, self.pivots = mat, _pivot_columns(mat)
        else:
            self.generator, self.pivots = linalg.rref(mat, p)
        self.generator.setflags(write=False)

    @classmethod
    def from_rows(cls, p: int, n: int, rows) -> "LinearCode":
        return cls(p, n, rows)

    @classmethod
    def zero(cls, p: int, n: int) -> "LinearCode":
        return cls(p, n, [])

    @classmethod
    def full_space(cls, p: int, n: int) -> "LinearCode":
        return cls(p, n, np.eye(n, dtype=np.int64))

    @property
    def k(self) -> int:
        return self.generator.shape[0]

    @property
    def size(self) -> int:
        return self.p ** self.k

    @cached_property
    def parity_check(self) -> np.ndarray:
        """(n-k) x n matrix H with G H^T = 0."""
        h = linalg.kernel_basis(self.generator, self.p)
        h.setflags(write=False)
        return h

    def euclidean_dual(self) -> "LinearCode":
        return LinearCode(self.p, self.n, self.parity_check)

    def contains(self, vec) -> bool:
        v = np.asarray(vec, dtype=np.int64)
        if v.shape != (self.n,):
            raise LengthMismatch(f"expected a length-{self.n} vector")
        return linalg.in_row_space(self.generator, self.pivots, v, self.p)

    def is_subcode_of(self, other: "LinearCode") -> bool:
        if (self.p, self.n) != (other.p, other.n):
            raise ProfileMismatch("codes over different spaces")
        return linalg.in_row_space(other.generator, other.pivots, self.generator, self.p)

    def __eq__(self, other) -> bool:
        return (isinstance(other, LinearCode) and (self.p, self.n) == (other.p, other.n)
                and self.generator.shape == other.generator.shape
                and bool((self.generator == other.generator).all()))

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.generator.tobytes()))

    def __repr__(self) -> str:
        return f"LinearCode([{self.n}, {self.k}] over Z_{self.p})"

    # -- minimum distance --------------------------------------------------

    def min_distance(self, search_cap: int = 6, jobs: int = 1) -> int:
        """Exact minimum Hamming weight of a nonzero codeword.

        Searches for the smallest dependent column subset of the parity
        check, sizes 1..search_cap.  If the cap is exhausted, falls back to
        full enumeration when p^k <= 2^20, else raises
        ``DistanceNotDetermined`` carrying the certified lower bound.
        ``jobs`` bounds parallel workers; the result does not depend on it.
        """
        if self.k == 0:
            raise ZprsError("minimum distance needs a nonzero code")
        if self.k == self.n:
            return 1
        cap = min(search_cap, self.n - self.k + 1)  # Singleton bound
        d = _smallest_dependent_subset(self.parity_check, self.p, cap, jobs)
        if d is None and self.size <= 2 ** 20:
            d = min_distance_by_enumeration(self)
        if d is None:
            raise DistanceNotDetermined(search_cap + 1)
        assert d <= self.n - self.k + 1, "Singleton bound violated; elimination bug"
        return d

    # -- shift-invariance predicates ----------------------------------------

    def _closed_under(self, op) -> bool:
        return all(self.contains(op(row)) for row in self.generator)

    def is_cyclic(self) -> bool:
        return self._closed_under(lambda v: np.roll(v, 1))

    def is_constacyclic(self, lam: int) -> bool:
        return self._closed_under(lambda v: _sigma(v, lam, self.p))

    def is_quasi_cyclic(self, l: int) -> bool:
        return self.is_quasi_twisted(1, l)

    def is_quasi_twisted(self, lam: int, l: int) -> bool:
        """Invariance under sigma_lam applied to each of the l length-m blocks."""
        if self.n % l:
            raise LengthMismatch(f"l = {l} does not divide n = {self.n}")
        m = self.n // l
        return self.is_generalized_quasi_twisted([lam] * l, [m] * l)

    def is_generalized_quasi_twisted(self, lams: Sequence[int],
                                     block_lens: Sequence[int]) -> bool:
        if len(lams) != len(block_lens):
            raise LengthMismatch("one unit per block required")
        if sum(block_lens) != self.n:
            raise LengthMismatch(f"block lengths sum to {sum(block_lens)}, not {self.n}")

        def op(v: np.ndarray) -> np.ndarray:
            out = []
            pos = 0
            for lam, m in zip(lams, block_lens):
                out.append(_sigma(v[pos:pos + m], lam, self.p))
                pos += m
            return np.concatenate(out) if out else v

        return self._closed_under(op)


def _pivot_columns(mat: np.ndarray) -> list[int]:
    pivots = []
    for row in mat:
        nz = np.flatnonzero(row)
        if nz.size:
            pivots.append(int(nz[0]))
    return pivots


def _sigma(block: np.ndarray, lam: int, p: int) -> np.ndarray:
    if block.size == 0:
        return block
    out = np.roll(block, 1)
    out[0] = out[0] * lam % p
    return out


def _choose_column(mat: np.ndarray, p: int, j: int) -> np.ndarray | None:
    """Reduce the columns after j against column j and zero the rest; None
    when column j is already zero (reduced to nothing by earlier choices)."""
    col = mat[:, j]
    nz = np.flatnonzero(col)
    if nz.size == 0:
        return None
    piv = int(nz[0])
    scaled = col * pow(int(col[piv]), p - 2, p) % p
    rest = mat[:, j + 1:]
    reduced = (rest - np.outer(scaled, rest[piv])) % p
    return np.concatenate([np.zeros((mat.shape[0], j + 1), dtype=np.int64), reduced], axis=1)


def _dependent_subtree(mat: np.ndarray, p: int, start: int, chosen: int, w: int) -> bool:
    """DFS over independent column prefixes starting at column >= start.

    ``mat`` holds every column reduced against the chosen prefix; choosing a
    column is one vectorized elimination.  Earlier deepening rounds rule out
    dependencies smaller than w, so reductions vanish only at the last level.
    """
    ncols = mat.shape[1]
    if chosen == w - 1:
        # any remaining zero column completes a dependent w-subset
        return bool((~mat[:, start:].any(axis=0)).any()) if start < ncols else False
    for j in range(start, ncols - (w - chosen) + 1):
        # a zero column means a dependency of size <= chosen+1 < w, ruled out earlier
        nxt = _choose_column(mat, p, j)
        if nxt is not None and _dependent_subtree(nxt, p, j + 1, chosen + 1, w):
            return True
    return False


def _dependent_branch(args) -> bool:
    """Pool task: the depth-w search below the first chosen column j."""
    h_list, p, j, w = args
    nxt = _choose_column(np.array(h_list, dtype=np.int64), p, j)
    return nxt is not None and _dependent_subtree(nxt, p, j + 1, 1, w)


def _smallest_dependent_subset(h: np.ndarray, p: int, cap: int,
                               jobs: int = 1) -> int | None:
    """Smallest w <= cap such that w columns of h are linearly dependent.

    Iterative deepening over w.  With jobs > 1 the top-level column choice
    is partitioned across a process pool; the answer is the minimum w with
    any dependent subset, so it does not depend on the partition.
    """
    if h.shape[0] == 0:
        return 1  # no constraints: every single column is dependent
    ncols = h.shape[1]
    base = h.astype(np.int64) % p
    if bool((~base.any(axis=0)).any()):
        return 1
    if cap < 2:
        return None
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        h_list = base.tolist()
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for w in range(2, cap + 1):
                tasks = [(h_list, p, j, w) for j in range(0, ncols - w + 1)]
                if any(pool.map(_dependent_branch, tasks)):
                    return w
        return None
    for w in range(2, cap + 1):
        if _dependent_subtree(base, p, 0, 0, w):
            return w
    return None


def min_distance_by_enumeration(code: LinearCode) -> int:
    """Independent oracle: scan all p^k - 1 nonzero codewords."""
    if code.k == 0:
        raise ZprsError("minimum distance needs a nonzero code")
    best = code.n + 1
    for words in linalg.iter_row_space(code.generator, code.p):
        weights = (words != 0).sum(axis=1)
        best = int(weights.min(initial=best, where=weights > 0))
    return best
