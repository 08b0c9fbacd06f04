import re
import warnings

import numpy as np
import pytest

from zprs.additive import (AdditiveCode, GeneratorHypothesisWarning, from_generator_polynomials,
                           shift_module_span, span_closure, word_from_polynomials)
from zprs.errors import (DivisibilityViolation, GcdViolation, LengthMismatch, MalformedInput,
                         ProfileMismatch, WrongRing)
from zprs.linear import LinearCode
from zprs.polynomials import Poly, factor_xn_minus_lambda, poly_divmod, x_pow_n_minus
from zprs.rings import ChainElement
from zprs.words import BlockProfile, MixedWord, inner_product, unflatten

P2 = BlockProfile(2, 2, 2, 2)
GEN1 = MixedWord.make(P2, (1, 0), ((0, 0), (0, 1)), ((1, 0, 1), (0, 0, 0)))
GEN2 = MixedWord.make(P2, (0, 1), ((1, 1), (0, 0)), ((0, 0, 0), (1, 1, 0)))


def example_code():
    return span_closure([GEN1, GEN2])


def random_code(rng, profile, n_gens=2):
    words = [unflatten(rng.integers(0, profile.p, size=profile.n), profile)
             for _ in range(n_gens)]
    return span_closure(words, profile=profile)


def test_span_closure_example_1():
    code = example_code()
    assert code.rank == 6
    listed = [
        MixedWord.make(P2, (0, 0), ((0, 0), (0, 0)), ((0, 1, 0), (0, 0, 0))),
        MixedWord.make(P2, (0, 0), ((0, 0), (0, 0)), ((0, 0, 1), (0, 0, 0))),
        MixedWord.make(P2, (0, 0), ((0, 1), (0, 0)), ((0, 0, 0), (0, 1, 1))),
        MixedWord.make(P2, (0, 0), ((0, 0), (0, 0)), ((0, 0, 0), (0, 0, 1))),
    ]
    for w in [GEN1, GEN2] + listed:
        assert code.contains(w)


def test_span_closure_degenerate():
    assert span_closure([], profile=P2).rank == 0
    pr = BlockProfile(2, 1, 1, 1)
    w = MixedWord.make(pr, (0,), (0,), ((0, 0, 1),))
    assert span_closure([w]).rank == 1           # u * u^2 = 0 adds nothing


def test_codewords_are_the_unflattened_codeword_vectors():
    # the same words in the same order, the zero code's zero word included
    rng = np.random.default_rng(8)
    codes = [example_code(), AdditiveCode.zero(P2)]
    codes += [random_code(rng, BlockProfile(p, q, r, s), 3)
              for p, q, r, s in ((2, 1, 1, 1), (3, 2, 1, 0), (5, 0, 1, 1), (3, 0, 2, 1))]
    for code in codes:
        words = list(code.codewords())
        assert words == [unflatten(row, code.profile)
                         for chunk in code.iter_codeword_vectors() for row in chunk]
        assert len(set(words)) == len(words) == code.size


def test_contains_and_mismatch():
    code = example_code()
    assert code.contains(MixedWord.zero(P2))
    for w in code.basis_words():
        assert code.contains(w)
    with pytest.raises(ProfileMismatch):
        code.contains(MixedWord.zero(BlockProfile(2, 1, 1, 1)))
    # a vector must have shape (N,), or numpy broadcasting answers for [1] and [0]
    z2 = BlockProfile(2, 6, 0, 0)
    repetition = span_closure([MixedWord.make(z2, (1,) * 6)])
    cases = [(repetition, [1]), (AdditiveCode.zero(z2), [0]),
             (AdditiveCode.full_space(BlockProfile(2, 1, 1, 1)), [0] * 5),
             (LinearCode(2, 6, [[1] * 6]), [1]), (code, [[0] * 12]), (code, [0] * 13)]
    for c, vec in cases:
        with pytest.raises(LengthMismatch):
            c.contains(vec)
    assert repetition.contains([1] * 6) and not repetition.contains([1] + [0] * 5)


def test_contains_refuses_non_integer_coordinates():
    # 0.7 was truncated to 0, so the zero code contained it
    zero = AdditiveCode.zero(BlockProfile(2, 1, 1, 1))
    for vec in ([0.7, 0, 0, 0, 0, 0], np.zeros(6), np.array([0, 0, 0, 0, 0, 0.5], dtype=object)):
        with pytest.raises(WrongRing):
            zero.contains(vec)
    assert zero.contains(np.zeros(6, dtype=np.uint8)) and zero.contains([False] * 6)


def test_closure_verification_rejects_raw_subspaces():
    # the span of a single word without u-closure is not an S-submodule
    vec = [1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0]
    with pytest.raises(Exception):
        AdditiveCode(P2, [vec])


def test_dual_trivial_cases():
    full = AdditiveCode.full_space(P2)
    zero = AdditiveCode.zero(P2)
    assert full.dual() == zero
    assert zero.dual() == full


def test_dual_example_2():
    dual = example_code().dual()
    assert dual.rank == 6
    basis2 = [
        MixedWord.make(P2, (0, 0), ((0, 0), (0, 1)), ((0, 0, 0), (0, 0, 0))),
        MixedWord.make(P2, (1, 0), ((0, 0), (1, 0)), ((0, 0, 0), (0, 0, 0))),
        MixedWord.make(P2, (0, 0), ((0, 1), (0, 0)), ((0, 0, 0), (0, 0, 1))),
        MixedWord.make(P2, (0, 1), ((0, 1), (0, 0)), ((0, 0, 0), (0, 0, 0))),
        MixedWord.make(P2, (0, 0), ((1, 1), (0, 0)), ((0, 0, 0), (0, 1, 1))),
        MixedWord.make(P2, (1, 0), ((0, 0), (0, 0)), ((0, 0, 1), (0, 0, 0))),
    ]
    for w in basis2:
        assert dual.contains(w)
    # duality is orthogonality: every dual word annihilates every codeword
    for w in basis2:
        for c in example_code().basis_words():
            assert inner_product(w, c).is_zero


def test_dual_involution_and_cardinality():
    rng = np.random.default_rng(42)
    profiles = [BlockProfile(2, 1, 1, 1), BlockProfile(2, 2, 2, 2), BlockProfile(3, 1, 1, 1),
                BlockProfile(2, 0, 2, 1), BlockProfile(3, 2, 0, 1), BlockProfile(2, 3, 1, 0),
                BlockProfile(5, 1, 1, 1)]
    for i in range(120):
        pr = profiles[i % len(profiles)]
        code = random_code(rng, pr, n_gens=1 + i % 3)
        dual = code.dual()
        assert code.rank + dual.rank == pr.n
        assert dual.dual() == code


def test_constacyclic_closure_trivia():
    assert AdditiveCode.full_space(P2).is_constacyclic(1, 1, 1)
    assert AdditiveCode.zero(P2).is_constacyclic(1, 1, 1)


def test_from_generator_polynomials_degenerate_zero():
    pr = BlockProfile(2, 1, 1, 1)
    xm1 = [1, 1]
    code = from_generator_polynomials(pr, (1, 1, 1), f0=xm1, g=(xm1, None), h=(xm1, None, None))
    assert code.rank == 0


def test_from_generator_polynomials_full_space():
    pr = BlockProfile(2, 0, 0, 3)
    code = from_generator_polynomials(pr, (1, 1, 1), h=([1], [1], [1]))
    assert code.rank == pr.n


def test_from_generator_polynomials_r_only_section6():
    # generator F0hat + u F1hat of the worked example: Gray image is [16, 12]
    f0hat = [4, 5, 3, 1]
    f1hat = [9, 14, 14, 8, 10, 12, 1]
    pr = BlockProfile(17, 0, 8, 0)
    with pytest.warns(GeneratorHypothesisWarning):
        code = from_generator_polynomials(pr, (1, 1, 1), g=(f0hat, f1hat))
    assert code.rank == 12
    assert code.is_constacyclic(1, 1, 1)


def test_from_generator_polynomials_verifies_modulus_divisibility():
    pr = BlockProfile(17, 0, 8, 0)
    with pytest.raises(DivisibilityViolation):
        from_generator_polynomials(pr, (1, 1, 1), g=([3, 1], None))
    with pytest.raises(GcdViolation):
        from_generator_polynomials(BlockProfile(2, 0, 4, 0), (1, 1, 1), g=([1], None))


def test_from_generator_polynomials_reject_policy():
    pr = BlockProfile(5, 3, 1, 1)
    # q = 3 but ord(mu0) = ord(2) = 4, so q != 1 (mod ord(mu0))
    with pytest.raises(DivisibilityViolation):
        from_generator_polynomials(pr, (2, 1, 1), f0=[1], hypotheses="reject")
    with pytest.warns(GeneratorHypothesisWarning):
        from_generator_polynomials(pr, (2, 1, 1), f0=[1], hypotheses="warn")


def test_from_generator_polynomials_is_always_shift_closed():
    rng = np.random.default_rng(9)
    for p, q, r, s, mu in ((2, 3, 3, 3, (1, 1, 1)),
                           (5, 4, 4, 4, (1, 1, 1)),
                           (5, 1, 1, 1, (2, 3, 4)),
                           (3, 2, 2, 2, (2, 2, 2))):
        pr = BlockProfile(p, q, r, s)
        from zprs.polynomials import factor_xn_minus_lambda
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GeneratorHypothesisWarning)
            fq = factor_xn_minus_lambda(p, q, int(ChainElement.make(mu[0], p, 1).coeffs[0]))
            f0 = fq[int(rng.integers(0, len(fq)))]
            code = from_generator_polynomials(pr, mu, f0=f0, g=([1], None), h=([1], [1], None))
        assert code.is_constacyclic(*mu)


def test_dual_of_constacyclic_is_inverse_constacyclic():
    # dual constacyclicity with the inverse units, on random shift-closed codes
    rng = np.random.default_rng(23)
    cases = 0
    while cases < 100:
        p = (2, 3, 5)[cases % 3]
        q, r, s = (int(rng.integers(1, 4)) for _ in range(3))
        if q % p == 0 or r % p == 0 or s % p == 0:
            q, r, s = 1, 1, 1
        pr = BlockProfile(p, q, r, s)
        mu0 = int(rng.integers(1, p))
        mu1 = (int(rng.integers(1, p)), int(rng.integers(0, p)))
        mu2 = (int(rng.integers(1, p)), int(rng.integers(0, p)), int(rng.integers(0, p)))
        words = [unflatten(rng.integers(0, p, size=pr.n), pr)]
        code = shift_module_span(words, mu0, mu1, mu2, profile=pr)
        assert code.is_constacyclic(mu0, mu1, mu2)
        m0 = ChainElement.make(mu0, p, 1).inverse()
        m1 = ChainElement.make(mu1, p, 2).inverse()
        m2 = ChainElement.make(mu2, p, 3).inverse()
        assert code.dual().is_constacyclic(m0, m1, m2)
        cases += 1


def test_separability():
    assert AdditiveCode.full_space(P2).is_separable()
    assert not example_code().is_separable()
    # an explicit direct product is separable
    pr = BlockProfile(2, 1, 1, 1)
    w_q = MixedWord.make(pr, (1,), (0,), (0,))
    w_r = MixedWord.make(pr, (0,), ((1, 0),), (0,))
    prod = span_closure([w_q, w_r], profile=pr)
    assert prod.is_separable()
    cq, cr, cs = prod.components()
    assert (cq.rank, cr.rank, cs.rank) == (1, 2, 0)


def test_punctured_refuses_a_block_that_is_not_q_r_or_s():
    code = example_code()
    assert code.punctured("r").profile == BlockProfile(2, 0, 2, 0)
    for block in ("x", ["q"], "qr", "", None):
        with pytest.raises(MalformedInput, match="block must be"):
            code.punctured(block)
    with pytest.raises(ProfileMismatch, match="empty"):
        span_closure([], profile=BlockProfile(2, 1, 0, 1)).punctured("r")


def test_separable_constacyclic_iff_components_are():
    # componentwise shift-invariance for separable codes
    rng = np.random.default_rng(31)
    for trial in range(40):
        p = (2, 3)[trial % 2]
        q, r, s = 2, 2, 2
        if p == 2 and trial % 4 == 2:
            q, r, s = 1, 2, 1
        pr = BlockProfile(p, q, r, s)
        mu0 = int(rng.integers(1, p))
        mu1 = int(rng.integers(1, p))
        mu2 = int(rng.integers(1, p))
        # build a separable code from per-block generators
        wq = MixedWord.make(pr, tuple(rng.integers(0, p, size=q)), (0,) * r, (0,) * s)
        wr = MixedWord.make(pr, (0,) * q,
                            tuple(tuple(rng.integers(0, p, size=2)) for _ in range(r)),
                            (0,) * s)
        ws = MixedWord.make(pr, (0,) * q, (0,) * r,
                            tuple(tuple(rng.integers(0, p, size=3)) for _ in range(s)))
        code = span_closure([wq, wr, ws], profile=pr)
        if not code.is_separable():
            continue
        cq, cr, cs = code.components()
        componentwise = (cq.is_constacyclic(mu0, 1, 1) and cr.is_constacyclic(1, mu1, 1)
                         and cs.is_constacyclic(1, 1, mu2))
        assert code.is_constacyclic(mu0, mu1, mu2) == componentwise


def test_from_generator_polynomials_rs_with_mixing_polynomial():
    # two-row RS structure: (g0 + u g1, 0) and (l3, h0 + u h1 + u^2 h2)
    pr = BlockProfile(2, 0, 3, 3)
    code = from_generator_polynomials(
        pr, (1, 1, 1),
        g=([1, 1], [1, 1]),             # g0 = g1 = x + 1
        h=([1, 1], [1, 1], [1, 1]),     # h0 = h1 = h2 = x + 1
        l=(None, None, [1]),            # l3 = 1 in the R slot of the S row
    )
    assert code.is_constacyclic(1, 1, 1)
    row_s = word_from_polynomials(pr, r_poly=[1],
                                  s_poly=Poly.make([(1, 1, 1), (1, 1, 1)], 2, 3))
    assert code.contains(row_s)
    # without the mixing polynomial the S-row generator is different
    plain = from_generator_polynomials(pr, (1, 1, 1), g=([1, 1], [1, 1]),
                                       h=([1, 1], [1, 1], [1, 1]))
    assert plain.contains(word_from_polynomials(
        pr, s_poly=Poly.make([(1, 1, 1), (1, 1, 1)], 2, 3)))
    assert code != plain or code.contains(word_from_polynomials(pr, r_poly=[1]))


def test_from_generator_polynomials_full_mixed_rows():
    # three-row structure over Z_p R S with all mixing polynomials set
    pr = BlockProfile(3, 2, 2, 2)
    code = from_generator_polynomials(
        pr, (1, 1, 1),
        f0=[2, 1],                       # x + 2 = x - 1 divides x^2 - 1
        g=([2, 1], [2, 1]),
        h=([2, 1], [2, 1], [2, 1]),
        l=([1], [2], ([1],)),            # l1 = 1, l2 = 2, l3 = 1 (constant in R)
    )
    assert code.is_constacyclic(1, 1, 1)
    # the three displayed generator rows are codewords
    assert code.contains(word_from_polynomials(pr, zp_poly=[2, 1]))
    assert code.contains(word_from_polynomials(
        pr, zp_poly=[1], r_poly=Poly.make([(2, 2), (1, 1)], 3, 2)))
    assert code.contains(word_from_polynomials(
        pr, zp_poly=[2], r_poly=[1], s_poly=Poly.make([(2, 2, 2), (1, 1, 1)], 3, 3)))


def test_word_from_polynomials_rejects_overflow():
    pr = BlockProfile(2, 1, 1, 1)
    with pytest.raises(DivisibilityViolation):
        word_from_polynomials(pr, zp_poly=[1, 1])
    w = word_from_polynomials(pr, zp_poly=[1], r_poly=Poly.make([(0, 1)], 2, 2))
    assert w == MixedWord.make(pr, (1,), ((0, 1),), (0,))


def test_units_and_coefficients_may_be_numpy_integers():
    pr = BlockProfile(5, 1, 1, 1)
    assert AdditiveCode.full_space(pr).is_constacyclic(np.int64(2))
    w = MixedWord.make(pr, (np.int64(1),), ((np.int64(2), 0),), ((0, np.int64(1), 0),))
    plain = MixedWord.make(pr, (1,), ((2, 0),), ((0, 1, 0),))
    assert shift_module_span([w], np.int64(2), profile=pr) == shift_module_span([plain], 2,
                                                                                profile=pr)


def test_from_generator_polynomials_refuses_what_it_cannot_place():
    # a polynomial for a row or a block the profile lacks
    for profile, kwargs in ((BlockProfile(2, 3, 0, 0), dict(g=([1, 1], [1]))),
                            (BlockProfile(2, 0, 3, 3), dict(f0=[1, 1])),
                            (BlockProfile(2, 0, 3, 3), dict(l=([1],))),            # l1 in Z_p
                            (BlockProfile(2, 3, 0, 3), dict(l=(None, None, [1]))),  # l3 in R
                            (BlockProfile(2, 3, 3, 0), dict(l=(None, [1])))):       # l2's row
        with pytest.raises(ProfileMismatch):
            from_generator_polynomials(profile, (1, 1, 1), **kwargs)
    # more polynomials than the rows have
    pr = BlockProfile(2, 1, 1, 1)
    for kwargs in (dict(g=([1], [1], [1])), dict(h=([1],) * 4), dict(l=([1],) * 4)):
        with pytest.raises(LengthMismatch):
            from_generator_polynomials(pr, (1, 1, 1), **kwargs)
    # one unit per block
    for mu in ((1,), (1, 1), (1, 1, 1, 1), 2):
        with pytest.raises(LengthMismatch):
            from_generator_polynomials(pr, mu, h=([1],))
    # None still marks an omitted polynomial, for an absent block too
    code = from_generator_polynomials(BlockProfile(2, 3, 0, 0), (1, 1, 1), f0=[1], g=(None,))
    assert code.rank == 3


def test_from_generator_polynomials_reads_text_and_refuses_other_forms():
    pr = BlockProfile(5, 1, 1, 1)
    assert (from_generator_polynomials(pr, f0="x + 4", g=(None, "x + 4"))
            == from_generator_polynomials(pr, f0=[4, 1], g=(None, [4, 1])))
    # a scalar or a mapping as a polynomial, a flat or text tuple, malformed text
    for kwargs in (dict(f0=7), dict(g=([1], 1)), dict(h=({},)), dict(g=[1, 1]),
                   dict(l="x"), dict(g=5), dict(f0="x^^2")):
        with pytest.raises(MalformedInput):
            from_generator_polynomials(pr, (1, 1, 1), hypotheses="ignore", **kwargs)


def test_from_generator_polynomials_spans_the_displayed_rows():
    # oracle: (f0, 0, 0), (l1, g0 + u g1, 0) and (l2, l3, h0 + u h1 + u^2 h2), each block
    # reduced by poly_divmod mod x^n - mu and the rows spanned by shift_module_span
    rng = np.random.default_rng(15)
    ranks = set()
    for trial in range(36):
        p = (2, 3, 5)[trial % 3]
        choices = [n for n in range(6) if n % p or n == 0]
        lengths = [int(rng.choice(choices)) for _ in range(3)]
        lengths[trial % 3] = lengths[trial % 3] or 1
        q, r, s = lengths
        pr = BlockProfile(p, q, r, s)
        mus = [int(rng.integers(1, p)) for _ in range(3)]

        def divisor(block):
            d = Poly.one(p)
            for f in factor_xn_minus_lambda(p, lengths[block - 1], mus[block - 1]):
                if rng.random() < 0.5:
                    d = d * f
            return d.lift(block) if block > 1 else d

        def mixing(block):
            return Poly.make([rng.integers(0, p, block) for _ in range(int(rng.integers(1, 8)))],
                             p, block)

        f0 = divisor(1) if q else None
        g = (divisor(2), divisor(2)) if r else None
        h = (divisor(3), divisor(3), divisor(3)) if s else None
        l = (mixing(1) if q and r else None, mixing(1) if q and s else None,
             mixing(2) if r and s else None)
        code = from_generator_polynomials(pr, mus, f0=f0, g=g, h=h, l=l, hypotheses="ignore")

        def entries(poly, block):
            n = lengths[block - 1]
            if poly is None or not n:
                return [0] * n
            rem = poly_divmod(poly, x_pow_n_minus(mus[block - 1], n, p, block))[1]
            return [rem.coefficient(j) for j in range(n)]

        u2, u3 = Poly.make([(0, 1)], p, 2), Poly.make([(0, 1, 0)], p, 3)
        rows = []
        if q:
            rows.append(MixedWord.make(pr, entries(f0, 1), [0] * r, [0] * s))
        if r:
            rows.append(MixedWord.make(pr, entries(l[0], 1), entries(g[0] + u2 * g[1], 2),
                                       [0] * s))
        if s:
            rows.append(MixedWord.make(pr, entries(l[1], 1), entries(l[2], 2),
                                       entries(h[0] + u3 * h[1] + u3 * u3 * h[2], 3)))
        assert code == shift_module_span(rows, *mus, profile=pr), (trial, pr, mus)
        ranks.add(code.rank)
    assert len(ranks) > 5


def test_chain_warnings_come_in_row_order():
    pr = BlockProfile(2, 0, 3, 3)
    a, b = [1, 1], [1, 1, 1]          # x + 1 and x^2 + x + 1: coprime divisors of x^3 - 1
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        from_generator_polynomials(pr, (1, 1, 1), g=(a, b), h=(a, b, a))
    assert [str(w.message).split(" fails")[0] for w in caught] == [
        "chain g1 | g0", "chain h2 | h1", "chain h1 | h0"]
    assert all(w.category is GeneratorHypothesisWarning and w.filename == __file__
               for w in caught)
    with pytest.raises(DivisibilityViolation, match=re.escape("chain g1 | g0")):
        from_generator_polynomials(pr, (1, 1, 1), g=(a, b), h=(a, b, a), hypotheses="reject")

