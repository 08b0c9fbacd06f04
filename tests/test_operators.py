"""The operator matrices of words.py against the word-level maps they encode,
and the overflow guard on the modulus."""

import numpy as np
import pytest

from zprs.additive import AdditiveCode, shift_module_span
from zprs.errors import ModulusTooLarge
from zprs.field import is_prime
from zprs.gray import GrayMap, _gray_matrix
from zprs.linear import LinearCode
from zprs.words import (BlockProfile, constacyclic_shift, flatten, form_matrices, inner_product,
                        mixed_scalar_mul, scalar_matrix, shift_matrix, unflatten)

# (p, q, r, s) with empty blocks, and units (mu0, mu1, mu2) that are not all 1
CASES = [
    ((2, 2, 1, 1), (1, (1, 1), (1, 0, 1))),
    ((2, 0, 3, 0), (1, (1, 1), 1)),
    ((3, 2, 0, 2), (2, 1, (2, 1, 1))),
    ((3, 1, 2, 1), (2, (1, 2), (1, 0, 2))),
    ((5, 3, 2, 0), (3, (2, 4), 1)),
    ((5, 0, 1, 2), (1, (4, 1), (3, 2, 4))),
]


def random_words(rng, profile, count):
    return [unflatten(rng.integers(0, profile.p, size=profile.n), profile)
            for _ in range(count)]


@pytest.mark.parametrize("dims, units", CASES)
def test_matrices_match_word_maps(dims, units):
    rng = np.random.default_rng(11)
    pr = BlockProfile(*dims)
    p = pr.p
    x = shift_matrix(pr, *units)
    maps = [(lambda w: constacyclic_shift(w, *units), x)]
    for d in ((0, 1, 0), (0, 0, 1), (2, 1, 1)):
        maps.append((lambda w, d=d: mixed_scalar_mul(d, w), scalar_matrix(pr, d)))
    for w in random_words(rng, pr, 20):
        v = flatten(w)
        for f, m in maps:
            assert (flatten(f(w)) == v @ m % p).all()
        if p in (2, 5):
            assert (GrayMap(p).word(w) == v @ _gray_matrix(pr) % p).all()


@pytest.mark.parametrize("dims, units", CASES)
def test_form_matrices_give_inner_product(dims, units):
    rng = np.random.default_rng(12)
    pr = BlockProfile(*dims)
    j = form_matrices(pr)
    for v, w in zip(random_words(rng, pr, 20), random_words(rng, pr, 20)):
        coeffs = inner_product(v, w).coeffs
        for t in range(3):
            assert flatten(v) @ j[t] @ flatten(w) % pr.p == coeffs[t]


def object_fixpoint(gens, units, profile):
    """Repeat the S-span of the words and their shifts until the rank stops growing."""
    words, rank = list(gens), -1
    while True:
        rows = [flatten(mixed_scalar_mul(d, w))
                for w in words for d in (1, (0, 1, 0), (0, 0, 1))]
        code = AdditiveCode(profile, rows)
        if code.rank == rank:
            return code
        rank = code.rank
        words = code.basis_words() + [constacyclic_shift(w, *units) for w in code.basis_words()]


@pytest.mark.parametrize("dims, units", CASES)
def test_shift_module_span_matches_object_fixpoint(dims, units):
    rng = np.random.default_rng(13)
    pr = BlockProfile(*dims)
    for count in (1, 1, 2, 3):
        gens = random_words(rng, pr, count)
        code = shift_module_span(gens, *units, profile=pr)
        assert code == object_fixpoint(gens, units, pr)
        assert code.is_constacyclic(*units)


def test_gray_image_matches_word_images():
    rng = np.random.default_rng(14)
    for dims, units in CASES:
        pr = BlockProfile(*dims)
        if pr.p == 3:
            continue
        code = shift_module_span(random_words(rng, pr, 2), *units, profile=pr)
        gray = GrayMap(pr.p)
        rows = [gray.word(w) for w in code.basis_words()]
        assert gray.image(code) == LinearCode(pr.p, pr.n, rows)


def test_modulus_overflow_boundary():
    # at n = 4, n (p-1)^2 < 2^63 holds exactly for p - 1 <= 1518500249
    n = 4
    accepted, rejected = 1518500213, 1518500279
    assert is_prime(accepted) and is_prime(rejected)
    assert not any(is_prime(m) for m in range(accepted + 1, rejected))
    assert n * (accepted - 1) ** 2 < 2 ** 63 <= n * (rejected - 1) ** 2

    code = LinearCode(accepted, n, [[1, 2, 3, accepted - 1], [0, 1, accepted - 2, 5]])
    assert not (code.generator @ code.parity_check.T % accepted).any()
    BlockProfile(accepted, 2, 1, 0)
    for p in (rejected, 4294967311):
        with pytest.raises(ModulusTooLarge):
            LinearCode(p, n, [[1, 2, 3, p - 1], [0, 1, p - 2, 5]])
        with pytest.raises(ModulusTooLarge):
            BlockProfile(p, 2, 1, 0)
