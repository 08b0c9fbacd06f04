import time

import numpy as np
import pytest

from zprs.additive import AdditiveCode
from fractions import Fraction

from zprs.errors import LengthMismatch, TooLarge, WrongRing
from zprs.linalg import as_integers, as_matrix, iter_row_space, row_space_split, rref
from zprs.linear import LinearCode, min_distance_by_enumeration
from zprs.words import BlockProfile

from oracles import reference_rref


def digit_walk(basis, p):
    """The reference walk: vector i is the base-p digits of i times the basis,
    one (rows x k) @ (k x N) product per chunk of 2^14 indices."""
    k = basis.shape[0]
    count = p ** k
    radix, chunk = p ** np.arange(k, dtype=np.int64), 1 << 14
    for start in range(0, count, chunk):
        idx = np.arange(start, min(start + chunk, count), dtype=np.int64)
        yield (idx[:, None] // radix[None, :]) % p @ basis % p


def check_against_digit_walk(basis, p):
    chunks = list(iter_row_space(basis, p))
    assert all(len(c) <= 1 << 14 for c in chunks)
    got, want = np.concatenate(chunks), np.concatenate(list(digit_walk(basis, p)))
    assert got.shape == want.shape == (p ** basis.shape[0], basis.shape[1])
    assert (got == want).all()


# k runs past the first p^k above 2^14 and stops below 2^19 vectors, so the
# oracle's output stays a few MB (p = 7 at k = 8 would need about 1 GB)
@pytest.mark.parametrize("p, k_max", [(2, 17), (3, 10), (5, 7), (13, 5)])
def test_row_space_walk_matches_digit_walk(p, k_max):
    rng = np.random.default_rng(p)
    for k in range(k_max + 1):
        check_against_digit_walk(rng.integers(0, p, size=(k, 6)), p)


@pytest.mark.parametrize("p, k", [(2, 0), (2, 9), (2, 17), (3, 10), (5, 7), (29, 3)])
def test_split_is_the_first_words_and_every_p_to_the_a_th(p, k):
    # vector lo + p^a hi: the low span is vectors 0 .. p^a - 1, high word hi is vector p^a hi
    basis = np.random.default_rng(k).integers(0, p, size=(k, 6))
    low, chunks = row_space_split(basis, p)
    highs = np.concatenate(list(chunks))
    want = np.concatenate(list(digit_walk(basis, p)))
    assert len(low) * len(highs) == p ** k and len(low) <= 1 << 14
    assert (low == want[:len(low)]).all() and (highs == want[::len(low)]).all()


def test_row_space_walk_above_chunk_prime():
    # p > 2^14: no low rows fit in a chunk, and p^2 is above the 2^24 bound
    p = 65537
    rng = np.random.default_rng(1)
    for k in (0, 1):
        check_against_digit_walk(rng.integers(0, p, size=(k, 4)), p)
    with pytest.raises(TooLarge):
        next(iter_row_space(rng.integers(0, p, size=(2, 4)), p))


def test_rank_zero_walk_is_one_zero_row():
    (chunk,) = iter_row_space(np.zeros((0, 5), dtype=np.int64), 3)
    assert chunk.shape == (1, 5) and not chunk.any()


def test_enumeration_oracle_refuses_large_codes_at_once():
    start = time.perf_counter()
    with pytest.raises(TooLarge):
        min_distance_by_enumeration(LinearCode.full_space(2, 40))
    assert time.perf_counter() - start < 1.0


def test_codewords_keeps_its_lower_bound():
    code = AdditiveCode.full_space(BlockProfile(2, 21, 0, 0))
    assert code.size == 2 ** 21
    with pytest.raises(TooLarge):
        next(code.codewords())
    assert sum(len(c) for c in code.iter_codeword_vectors()) == 2 ** 21


def check_rref(m, p):
    rows, pivots = rref(m, p)
    want_rows, want_pivots = reference_rref(m, p)
    assert pivots == want_pivots
    assert rows.shape == want_rows.shape and (rows == want_rows).all()
    again, again_pivots = rref(rows, p)
    assert again_pivots == pivots and again.shape == rows.shape and (again == rows).all()


@pytest.mark.parametrize("p", [2, 3, 5, 13, 17])
def test_rref_matches_reference_elimination(p):
    rng = np.random.default_rng(100 + p)
    for shape in ((0, 5), (4, 0), (0, 0)):
        check_rref(np.zeros(shape, dtype=np.int64), p)
    for _ in range(200):
        r, n = rng.integers(1, 9), rng.integers(1, 13)
        # sparse entries, so that pivot columns that are unit vectors occur often
        m = rng.integers(0, p, size=(r, n)) * (rng.random((r, n)) < rng.random())
        m[rng.random(r) < 0.2] = 0                                  # zero rows
        m = np.concatenate([m, m[rng.integers(0, r, size=rng.integers(0, 3))]])  # duplicates
        check_rref(m, p)
        check_rref(reference_rref(m, p)[0], p)                      # already reduced
        check_rref(m + p * rng.integers(-2, 3, size=m.shape), p)    # unreduced residues
        check_near_rref(reference_rref(m, p)[0], p, rng)


def check_near_rref(reduced, p, rng):
    """One change away from RREF: each must still be reduced like the reference does."""
    r, n = reduced.shape
    if r == 0:
        return
    lead = (reduced != 0).argmax(axis=1)
    i = int(rng.integers(0, r))
    variants = [reduced + p * rng.integers(0, 3, size=reduced.shape),   # entries >= p
                np.vstack([reduced, np.zeros((1, n), dtype=np.int64)])]  # a trailing zero row
    if p > 2:
        pivot2 = reduced.copy()
        pivot2[i, lead[i]] = 2                                          # a pivot of 2
        variants.append(pivot2)
    if r > 1:
        variants.append(reduced[::-1])                                  # swapped rows
        above = reduced.copy()
        above[0, lead[-1]] = 1                                          # nonzero above a pivot
        variants.append(above)
    for m in variants:
        check_rref(m, p)


def test_rref_eliminates_above_a_unit_pivot():
    # column 1 is 1 at the pivot row and nothing below, but 1 above: not e_rank
    rows, pivots = rref(np.array([[1, 1, 2], [0, 1, 1]]), 3)
    assert pivots == [0, 1] and rows.tolist() == [[1, 0, 1], [0, 1, 1]]


def test_as_integers_refuses_what_it_would_truncate():
    assert as_integers([1, np.int64(2), True]).tolist() == [1, 2, 1]
    assert as_integers(np.array([[3, 4]], dtype=np.uint8)).dtype == np.int64
    assert as_integers(np.array([5, 2 ** 40], dtype=object)).tolist() == [5, 2 ** 40]
    assert as_integers([]).shape == (0,)
    for bad in ([1.5, 0], np.array([1.0, 2.0]), np.array([1, 0.5], dtype=object),
                ["1"], [None, 1], [Fraction(1), 2], [1 + 0j],
                [10 ** 20, 0], [2 ** 64 - 1], np.array([2 ** 63], dtype=np.uint64)):
        with pytest.raises(WrongRing):
            as_integers(bad)
    # beyond int64 an entry was an OverflowError, or (uint64) wrapped to a negative
    assert as_integers(np.array([2 ** 63 - 1], dtype=np.uint64)).tolist() == [2 ** 63 - 1]
    for ragged in ([[1, 0], [1]], [[1, 0], 1]):
        with pytest.raises(LengthMismatch):
            as_integers(ragged)
    with pytest.raises(LengthMismatch):
        as_matrix([[[1], [0], [1]]], 3)


def test_linear_codes_refuse_non_integer_generators():
    # [[1.5, 0, 1]] was the code of (1, 0, 1)
    with pytest.raises(WrongRing):
        as_matrix([[1.5, 0, 1]], 3)
    with pytest.raises(WrongRing):
        LinearCode(2, 3, [[1.5, 0, 1]])
    assert LinearCode(2, 3, np.array([[1, 0, 1]], dtype=np.int8)).k == 1

