"""Dense linear algebra over Z_p (numpy int64 matrices).

Small sizes only (tens of columns); all routines are exact modular
Gaussian elimination on whole matrices.  Row-space membership tests a
stack of vectors against an RREF basis in one product.  ``row_space_split``
is the one walk over a row space, a low span and chunks of high words: their
sums are ``iter_row_space``, and the complete enumerator reads them apart.

Entries stay in [0, p-1], so a product of an n-column row with a matrix sums
n terms below (p-1)^2; ``check_modulus`` rejects the primes for which that
can leave int64, and lengths above 2048.
"""

from __future__ import annotations

import operator
from typing import Iterator

import numpy as np

from .errors import LengthMismatch, MalformedInput, ModulusTooLarge, TooLarge, WrongRing

CHUNK, WALK_LIMIT, LENGTH_LIMIT = 1 << 14, 1 << 24, 1 << 11


def check_modulus(p: int, n: int) -> None:
    """Reject a length n above ``LENGTH_LIMIT`` = 2048 with ``TooLarge`` before
    anything of size n^2 is built, so each dense n x n map of a block profile
    (``words.map_matrix``, ``form_matrices``) stays within 32 MiB of int64.
    Reject p when n products of two residues can overflow int64."""
    if n > LENGTH_LIMIT:
        raise TooLarge(f"length {n} is above the bound {LENGTH_LIMIT}")
    if n * (p - 1) ** 2 >= 2 ** 63:
        raise ModulusTooLarge(f"p = {p} is too large for exact int64 arithmetic "
                              f"on {n} coordinates: n (p-1)^2 >= 2^63")


def as_int(x, name: str, error: type = MalformedInput) -> int:
    """x as a Python int by ``operator.index`` (numpy integers pass), or ``error``."""
    try:
        return operator.index(x)
    except TypeError:
        raise error(f"{name} is not an integer: {x!r}") from None


def as_integers(values) -> np.ndarray:
    """``values`` as an int64 array, never truncated or wrapped: Python ints and
    numpy integer and bool arrays pass, object and uint64 arrays are read entry by
    entry with ``operator.index``, and anything else, or an entry beyond int64,
    raises ``WrongRing``.  Ragged nesting raises ``LengthMismatch``."""
    try:
        a = np.asarray(values)
    except ValueError:
        raise LengthMismatch("entries do not form a rectangular array") from None
    if a.dtype in (object, np.uint64):
        ints = [as_int(x, "an entry", WrongRing) for x in a.ravel()]
        try:
            a = np.array(ints, np.int64).reshape(a.shape)
        except OverflowError:
            raise WrongRing("entries must fit int64; reduce them mod p first") from None
    if a.dtype.kind not in "iub" and a.size:
        raise WrongRing(f"entries must be integers, got {a.dtype} entries")
    return a.astype(np.int64)


def as_matrix(rows, ncols: int) -> np.ndarray:
    """``rows`` as an int64 matrix of ``ncols`` columns (one vector is one row)."""
    if len(rows) == 0:
        return np.zeros((0, ncols), dtype=np.int64)
    m = as_integers(rows)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2 or m.shape[1] != ncols:
        raise LengthMismatch(f"expected rows of {ncols} entries, got shape {m.shape}")
    return m


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over Z_p; returns (nonzero rows, pivot columns).

    A pivot column that is already the unit vector e_rank skips its elimination.
    Bases known to be in RREF skip this altogether (``AdditiveCode``'s trusted
    constructor path).
    """
    m = mat.astype(np.int64) % p
    pivots: list[int] = []
    for col in range(m.shape[1]):
        rank = len(pivots)
        if rank == m.shape[0]:
            break
        nz = m[rank:, col].nonzero()[0]
        if nz.size == 0:
            continue
        if nz.size > 1 or nz[0] or m[rank, col] != 1 or np.count_nonzero(m[:rank, col]):
            piv = rank + int(nz[0])
            if piv != rank:
                m[[rank, piv]] = m[[piv, rank]]
            row = m[rank] * pow(int(m[rank, col]), p - 2, p) % p
            m -= m[:, col, None] * row
            m %= p
            m[rank] = row
        pivots.append(col)
    return m[:len(pivots)], pivots


def in_row_space(basis: np.ndarray, pivots: list[int], vecs: np.ndarray, p: int) -> bool:
    """True iff the vector (or every row of the matrix) lies in the row space.

    The pivot columns of an RREF basis form an identity, so subtracting
    v[pivots] @ basis eliminates every pivot at once and leaves the residue.
    """
    v = np.asarray(vecs, dtype=np.int64) % p
    return not ((v - v[..., pivots] @ basis) % p).any()


def row_space_split(basis: np.ndarray, p: int) -> tuple[np.ndarray, Iterator[np.ndarray]]:
    """All p^k vectors of the row space of a k-row basis as a low span and chunks of
    high words; ``TooLarge`` above 2^24.  Vector i = lo + p^a hi has the base-p digits
    of i as coefficients, least significant first, with p^a the largest power <= 2^14
    and a <= k: the low span is the vectors lo, a chunk 2^14 / p^a vectors p^a hi."""
    k = basis.shape[0]
    if p ** k > WALK_LIMIT:
        raise TooLarge(f"row space has {p ** k} vectors, above the bound {WALK_LIMIT}")
    a = next(a for a in range(k, -1, -1) if p ** a <= CHUNK)
    radix = p ** np.arange(k, dtype=np.int64)
    low = (np.arange(p ** a, dtype=np.int64)[:, None] // radix[:a]) % p @ basis[:a] % p
    highs, step = p ** (k - a), CHUNK // p ** a
    return low, ((np.arange(start, min(start + step, highs), dtype=np.int64)[:, None]
                  // radix[:k - a]) % p @ basis[a:] % p for start in range(0, highs, step))


def iter_row_space(basis: np.ndarray, p: int) -> Iterator[np.ndarray]:
    """Yield all p^k vectors of the row space in chunks of at most 2^14, each high
    word of ``row_space_split`` plus the low span (k = 0: the zero vector alone)."""
    low, chunks = row_space_split(basis, p)
    for high in chunks:
        words = high[:, None] + low
        words %= p
        yield words.reshape(-1, basis.shape[1])


def standard_kernel(m: np.ndarray, pivots: list[int], p: int) -> np.ndarray:
    """Kernel basis of an RREF matrix, read off without elimination: one row
    per free column c, with 1 at c and minus column c of m at the pivots."""
    ncols = m.shape[1]
    free = [c for c in range(ncols) if c not in pivots]
    out = np.zeros((len(free), ncols), dtype=np.int64)
    out[:, free] = np.eye(len(free), dtype=np.int64)
    out[:, pivots] = -m[:, free].T % p
    return out


def kernel_basis(mat: np.ndarray, p: int) -> np.ndarray:
    """RREF basis of {v : mat @ v = 0 (mod p)}."""
    return rref(standard_kernel(*rref(mat, p), p), p)[0]
