import itertools

import numpy as np
import pytest

from oracles import reference_rref
from zprs.additive import AdditiveCode, span_closure
from zprs.errors import MalformedInput, NoSquareRootOfMinusOne, ZprsError
from zprs.enumerators import symbol_table
from zprs.gray import (GrayMap, LeeWeightMismatchWarning, _gray_matrix, gray_hamming_weight,
                       lee_weight, position_weights)
from zprs.polynomials import factor_xn_minus_lambda
from zprs.quantum import FactorAssignment, _half, cyclic_code_from_assignment
from zprs.rings import ChainElement
from zprs.words import (BlockProfile, MixedWord, block_columns, constacyclic_shift,
                        inner_product, unflatten)


def test_gray_map_coerces_numpy_integers_and_refuses_others():
    g = GrayMap(np.int64(5))
    assert type(g.p) is int and (g.p, g.kappa) == (5, GrayMap(5).kappa)
    pr = BlockProfile(5, 1, 1, 1)
    code = span_closure([unflatten(np.array([1, 2, 0, 1, 3, 0]), pr)])
    assert repr(g.image(code)) == repr(GrayMap(5).image(code))
    for p in (5.0, 1.5):
        with pytest.raises(MalformedInput):
            GrayMap(p)


def test_phi1_examples():
    g2 = GrayMap(2)
    assert g2.phi1(ChainElement.make(1, 2, 2)) == (1, 0)
    assert g2.phi1(ChainElement.make(0, 2, 2)) == (0, 0)
    g5 = GrayMap(5)
    assert g5.kappa == 2
    assert g5.phi1(ChainElement.make((0, 1), 5, 2)) == (1, 2)     # phi1(u) = (1, kappa)


def test_phi2_examples():
    g2 = GrayMap(2)
    assert g2.phi2(ChainElement.make((0, 1, 0), 2, 3)) == (1, 1, 1)
    assert g2.phi2(ChainElement.make((0, 0, 1), 2, 3)) == (1, 1, 0)
    assert g2.phi2(ChainElement.make((1, 1, 1), 2, 3)) == (1, 0, 1)
    g5 = GrayMap(5)
    assert g5.phi2(ChainElement.make((0, 1, 0), 5, 3)) == (1, 2, 1)


def test_gray_map_requires_square_root_of_minus_one():
    with pytest.raises(NoSquareRootOfMinusOne):
        GrayMap(3)
    with pytest.raises(NoSquareRootOfMinusOne):
        GrayMap(7)


def test_phi_word_layout():
    pr = BlockProfile(2, 1, 1, 1)
    g = GrayMap(2)
    w = MixedWord.make(pr, (1,), ((0, 1),), ((0, 1, 0),))
    assert list(g.word(w)) == [1, 1, 1, 1, 1, 1]
    assert list(g.word(MixedWord.zero(pr))) == [0] * 6
    pr2 = BlockProfile(5, 1, 2, 1)
    w2 = unflatten(np.arange(1, 9) % 5, pr2)
    assert g.word.__name__ == "word"
    assert GrayMap(5).word(w2).shape == (pr2.gray_length,)


def test_phi_is_linear_and_bijective():
    rng = np.random.default_rng(5)
    for p in (2, 5):
        pr = BlockProfile(p, 1, 1, 1)
        g = GrayMap(p)
        words = [unflatten(v, pr) for v in itertools.product(range(p), repeat=pr.n)]
        images = {tuple(int(x) for x in g.word(w)) for w in words}
        assert len(images) == p ** pr.n    # injective, hence bijective onto Z_p^6
        pairs = rng.integers(0, len(words), size=(500, 2))
        for i, j in pairs:
            w1, w2 = words[i], words[j]
            assert (g.word(w1 + w2) == (g.word(w1) + g.word(w2)) % p).all()


def test_lee_weight_examples():
    pr = BlockProfile(2, 2, 2, 2)
    w = MixedWord.make(pr, (0, 0), ((0, 0), (0, 0)), ((0, 1, 0), (0, 0, 0)))
    assert lee_weight(w) == 3                       # wt_L((0,0,u)) = 3
    assert lee_weight(MixedWord.zero(pr)) == 0
    pr1 = BlockProfile(2, 1, 1, 1)
    w1 = MixedWord.make(pr1, (1,), ((0, 1),), ((1, 1, 0),))
    assert lee_weight(w1) == 1 + 2 + 2


def test_lee_weight_matches_gray_hamming_for_small_p():
    for p in (2, 3):
        pr = BlockProfile(p, 1, 1, 1)
        for v in itertools.product(range(p), repeat=pr.n):
            w = unflatten(v, pr)
            assert lee_weight(w) == gray_hamming_weight(w)


def test_lee_weight_mismatch_warning_for_large_p():
    pr = BlockProfile(13, 1, 0, 0)
    w = MixedWord.make(pr, (6,), (), ())
    with pytest.warns(LeeWeightMismatchWarning):
        assert lee_weight(w) == 6                  # min(6, 7)
    assert gray_hamming_weight(w) == 1


def test_gray_weight_equals_hamming_weight_of_image():
    # the kappa-free weight formulas really compute wt_H of the Gray image
    rng = np.random.default_rng(8)
    for p in (2, 5, 13):
        pr = BlockProfile(p, 2, 2, 2)
        g = GrayMap(p)
        for _ in range(200):
            w = unflatten(rng.integers(0, p, size=pr.n), pr)
            assert gray_hamming_weight(w) == int((g.word(w) != 0).sum())


def _gray_image_weights(symbols, p):
    """Nonzero count of the Gray image of each digit row (a; a', b'; a'', b'', d''),
    through the matrix of GrayMap(p).word."""
    return (symbols @ _gray_matrix(BlockProfile(p, 1, 1, 1)) % p != 0).sum(axis=1)


@pytest.mark.parametrize("p", [2, 5])
def test_symbol_gray_weights_count_the_gray_image(p):
    # every one of the p^6 symbols
    t = symbol_table(p)
    image = _gray_image_weights(t.coeffs, p)
    assert (t.gray_weights == image).all()
    x = t.coeffs[:, 0]
    assert (t.lee_weights - t.gray_weights == np.minimum(x, p - x) - (x != 0)).all()


def test_symbol_gray_weights_count_the_gray_image_sampled():
    p = 13
    symbols = np.random.default_rng(13).integers(0, p, size=(10 ** 4, 6))
    weights = position_weights(symbols, BlockProfile(p, 1, 1, 1), lee=False)
    assert (weights.sum(axis=1) == _gray_image_weights(symbols, p)).all()


def test_distance_preservation_small_p():
    # wt_L(v - w) = d_H(gray(v), gray(w)) for p in {2, 3}... computed via
    # the kappa-free image weights at p = 3
    for p in (2,):
        pr = BlockProfile(p, 1, 1, 1)
        g = GrayMap(p)
        words = [unflatten(v, pr) for v in itertools.product(range(p), repeat=pr.n)]
        for v, w in itertools.product(words, repeat=2):
            dh = int((g.word(v) != g.word(w)).sum())
            assert lee_weight(v - w) == dh
    for v_bits in itertools.product(range(3), repeat=6):
        pr = BlockProfile(3, 1, 1, 1)
        v = unflatten(v_bits, pr)
        assert lee_weight(v) == gray_hamming_weight(v)


def _gray_dot_matches_form(g, v, w, p):
    # gray(v) . gray(w) equals the sum of the three u-coefficients of <v, w>;
    # in particular <v, w> = 0 in S forces the Gray images to be orthogonal
    dot = int((g.word(v) * g.word(w)).sum()) % p
    return dot == sum(inner_product(v, w).coeffs) % p


def test_orthogonality_transport():
    # exhaustive over all word pairs at p = 2
    pr = BlockProfile(2, 1, 1, 1)
    g = GrayMap(2)
    words = [unflatten(v, pr) for v in itertools.product(range(2), repeat=6)]
    for v, w in itertools.product(words, repeat=2):
        assert _gray_dot_matches_form(g, v, w, 2)


def test_orthogonality_transport_p5():
    # blockwise exhaustive at p = 5 (the form is bilinear and blockwise),
    # plus random mixed pairs
    g = GrayMap(5)
    for q, r, s, width in ((1, 0, 0, 1), (0, 1, 0, 2), (0, 0, 1, 3)):
        pr = BlockProfile(5, q, r, s)
        words = [unflatten(v, pr) for v in itertools.product(range(5), repeat=width)]
        for v, w in itertools.product(words, repeat=2):
            assert _gray_dot_matches_form(g, v, w, 5)
    rng = np.random.default_rng(2)
    pr = BlockProfile(5, 1, 1, 1)
    for _ in range(1000):
        v = unflatten(rng.integers(0, 5, size=pr.n), pr)
        w = unflatten(rng.integers(0, 5, size=pr.n), pr)
        assert _gray_dot_matches_form(g, v, w, 5)


def test_gray_dual_commutes_on_small_codes():
    rng = np.random.default_rng(12)
    g = GrayMap(2)
    for q, r, s in ((1, 1, 1), (2, 1, 1), (0, 2, 1), (2, 0, 2), (1, 2, 1)):
        pr = BlockProfile(2, q, r, s)
        for _ in range(30):
            code = span_closure([unflatten(rng.integers(0, 2, size=pr.n), pr)
                                 for _ in range(2)], profile=pr)
            assert g.image(code.dual()) == g.image(code).euclidean_dual()


def test_shift_intertwining():
    # gray(shift(w)) equals the (generalized) quasi-twisted shift of gray(w)
    rng = np.random.default_rng(44)
    for p in (2, 5, 13):
        g = GrayMap(p)
        for _ in range(120):
            q, r, s = (int(rng.integers(1, 4)) for _ in range(3))
            pr = BlockProfile(p, q, r, s)
            mu0, mu1, mu2 = (int(rng.integers(1, p)) for _ in range(3))
            w = unflatten(rng.integers(0, p, size=pr.n), pr)
            image = g.word(constacyclic_shift(w, mu0, mu1, mu2))
            v = g.word(w)
            out = []
            pos = 0
            for lam, m in ((mu0, q), (mu1, r), (mu1, r), (mu2, s), (mu2, s), (mu2, s)):
                block = np.roll(v[pos:pos + m], 1)
                block[0] = block[0] * lam % p
                out.append(block)
                pos += m
            assert (image == np.concatenate(out)).all()


def test_gray_image_dimensions():
    pr = BlockProfile(2, 2, 2, 2)
    g = GrayMap(2)
    zero = span_closure([], profile=pr)
    assert g.image(zero).k == 0
    code = span_closure([MixedWord.make(pr, (1, 0), ((0, 0), (0, 1)), ((1, 0, 1), (0, 0, 0))),
                         MixedWord.make(pr, (0, 1), ((1, 1), (0, 0)), ((0, 0, 0), (1, 1, 0)))])
    img = g.image(code)
    assert (img.n, img.k) == (12, 6)


def _image_by_words(g, code):
    """Oracle: the Gray word of each basis word, row-reduced by full elimination."""
    words = np.array([g.word(w) for w in code.basis_words()], dtype=np.int64)
    return reference_rref(words.reshape(-1, code.profile.gray_length), g.p)[0]


@pytest.mark.parametrize("p, s", [(2, 7), (5, 8), (13, 6), (5, 6), (13, 4)])
def test_cyclic_r_codes_are_imaged_in_closed_form(p, s):
    g = GrayMap(p)
    factors = factor_xn_minus_lambda(p, s, 1)
    for slots in itertools.product(range(3), repeat=len(factors)):
        fa = FactorAssignment.from_slots(
            p, s, *([f for f, j in zip(factors, slots) if j == i] for i in range(3)))
        code = cyclic_code_from_assignment(fa)
        image = g._split_image(code)
        # the Plotkin sum of B = < prod F2 > and A = < hat(F0) >, kept in RREF
        assert [half is _half(gen.int_key, p, s) for half, gen
                in zip(image._plotkin, (fa.slot_product(2), fa.hat(0)))] == [True, True]
        # both closed forms are built on first read, and are their own RREF with the
        # pivots, and so the rank, that they reported before
        for closed in (code, image):
            assert "basis" not in vars(closed)
            pivots, rank = list(closed.pivots), closed.rank
            reduced, reference_pivots = reference_rref(closed.basis, p)
            assert np.array_equal(closed.basis, reduced)
            assert pivots == closed.pivots == reference_pivots and rank == len(reduced)
        assert image.k == code.rank == code.basis.shape[0]
        assert np.array_equal(image.generator, _image_by_words(g, code))
        assert g.image(code) == image


def test_other_codes_take_the_generic_image():
    rng = np.random.default_rng(23)
    generic_r_codes = 0
    for p in (2, 5, 13):
        g = GrayMap(p)
        for trial in range(40):
            q, r, s = (0, int(rng.integers(1, 5)), 0) if trial % 2 else \
                (int(rng.integers(0, 3)), int(rng.integers(0, 3)), int(rng.integers(1, 3)))
            pr = BlockProfile(p, q, r, s)
            code = span_closure([unflatten(rng.integers(0, p, size=pr.n), pr)
                                 for _ in range(int(rng.integers(1, 3)))], profile=pr)
            a_cols, b_cols = block_columns(pr)[1].T
            split = pr.lengths == (0, r, 0) and not (
                code.basis[:, a_cols].any(axis=1) & code.basis[:, b_cols].any(axis=1)).any()
            assert (g._split_image(code) is not None) == split
            generic_r_codes += pr.lengths == (0, r, 0) and not split
            assert np.array_equal(g.image(code).generator, _image_by_words(g, code))
    assert generic_r_codes >= 20


def test_a_split_basis_with_a_outside_b_is_refused():
    # C = A x uB needs A in B (closure under u); these bases skip that check
    pr, g = BlockProfile(5, 0, 2, 0), GrayMap(5)
    for rows in ([[1, 0, 0, 0]], [[1, 0, 0, 0], [0, 0, 0, 1]], [[0, 0, 1, 0], [0, 1, 0, 0]]):
        code = AdditiveCode(pr, rows, _closed=True)
        with pytest.raises(ZprsError, match="V is not in U"):
            g.image(code)
