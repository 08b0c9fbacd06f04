"""Dense linear algebra over Z_p (numpy int64 matrices).

Small sizes only (tens of columns); all routines are exact modular
Gaussian elimination on whole matrices.  Row-space membership tests a
stack of vectors against an RREF basis in one product, and ``iter_row_space``
is the one walk over all p^k vectors of a row space.

Entries stay in [0, p-1], so a product of an n-column row with a matrix sums
n terms below (p-1)^2; ``check_modulus`` rejects the primes for which that
can leave int64.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .errors import ModulusTooLarge


def check_modulus(p: int, n: int) -> None:
    """Reject p when n products of two residues can overflow int64."""
    if n * (p - 1) ** 2 >= 2 ** 63:
        raise ModulusTooLarge(f"p = {p} is too large for exact int64 arithmetic "
                              f"on {n} coordinates: n (p-1)^2 >= 2^63")


def as_matrix(rows, ncols: int) -> np.ndarray:
    if len(rows) == 0:
        return np.zeros((0, ncols), dtype=np.int64)
    m = np.array(rows, dtype=np.int64)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.shape[1] != ncols:
        raise ValueError(f"expected {ncols} columns, got {m.shape[1]}")
    return m


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over Z_p; returns (nonzero rows, pivot columns)."""
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


def rank(mat: np.ndarray, p: int) -> int:
    return rref(mat, p)[0].shape[0]


def in_row_space(basis: np.ndarray, pivots: list[int], vecs: np.ndarray, p: int) -> bool:
    """True iff the vector (or every row of the matrix) lies in the row space.

    The pivot columns of an RREF basis form an identity, so subtracting
    v[pivots] @ basis eliminates every pivot at once and leaves the residue.
    """
    v = np.asarray(vecs, dtype=np.int64) % p
    return not ((v - v[..., pivots] @ basis) % p).any()


def iter_row_space(basis: np.ndarray, p: int, chunk: int = 1 << 14) -> Iterator[np.ndarray]:
    """Yield all p^k vectors of the row space of a k-row basis, in chunks.

    Vector i is the combination whose coefficients are the base-p digits of
    i, least significant first; k = 0 yields the zero vector alone.
    """
    k = basis.shape[0]
    count = p ** k
    radix = p ** np.arange(k, dtype=np.int64)
    for start in range(0, count, chunk):
        idx = np.arange(start, min(start + chunk, count), dtype=np.int64)
        yield (idx[:, None] // radix[None, :]) % p @ basis % p


def kernel_basis(mat: np.ndarray, p: int) -> np.ndarray:
    """RREF basis of {v : mat @ v = 0 (mod p)}."""
    ncols = mat.shape[1]
    m, pivots = rref(mat, p)
    free = [c for c in range(ncols) if c not in pivots]
    out = np.zeros((len(free), ncols), dtype=np.int64)
    out[:, free] = np.eye(len(free), dtype=np.int64)
    out[:, pivots] = -m[:, free].T % p
    return rref(out, p)[0]
