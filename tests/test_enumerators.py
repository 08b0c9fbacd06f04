import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zprs import enumerators
from zprs.additive import AdditiveCode, span_closure
from zprs.enumerators import (CyclotomicInt, Enumerator, _character_sums, _codeword_sums,
                              _complete_check_points, _hamming_walk, _lee_walk,
                              _symmetrized_walk, char_exponent_matrix,
                              char_matrix_entry, character, complete_enumerator,
                              hamming_enumerator, hamming_transform, lee_enumerator,
                              lee_transform, macwilliams_complete_check, regroup, symbol_table,
                              symmetrized_enumerator, symmetrized_q_matrix,
                              substitute_linear, symmetrized_transform)
from zprs.errors import BlocksUnequal, InexactDivision, TooLarge
from zprs.words import BlockProfile, MixedWord, unflatten

P2 = BlockProfile(2, 2, 2, 2)


def c2_code():
    g1 = MixedWord.make(P2, (1, 0), ((0, 0), (0, 1)), ((1, 0, 1), (0, 0, 0)))
    g2 = MixedWord.make(P2, (0, 1), ((1, 1), (0, 0)), ((0, 0, 0), (1, 1, 0)))
    return span_closure([g1, g2])


def bivariate_coeffs(enum):
    return {dict(key).get(1, 0): coeff for key, coeff in enum.terms.items()}


def evaluate(enum, values):
    """Term-by-term exact evaluation; values may be ints or CyclotomicInts."""
    total = 0
    for key, coeff in enum.terms.items():
        term = coeff
        for var, exp in key:
            term = values[var] ** exp * term
        total = term + total
    return total


def monomial(pairs):
    """The key of the product of (var, exp) factors: equal variables merged."""
    merged = {}
    for var, exp in pairs:
        if exp:
            merged[var] = merged.get(var, 0) + exp
    return tuple(sorted(merged.items()))


def dict_substitute_linear(enum, rows, code_size):
    """The substitution term by term: each monomial expanded one linear factor
    at a time into a dict of keys, then summed and divided."""
    total = {}
    for key, coeff in enum.terms.items():
        poly = {(): coeff}
        for var, exp in key:
            for _ in range(exp):
                out = {}
                for k, c in poly.items():
                    for w, lin in enumerate(rows[var]):
                        if lin:
                            k2 = monomial(k + ((w, 1),))
                            out[k2] = out.get(k2, 0) + c * lin
                poly = out
        for k, c in poly.items():
            total[k] = total.get(k, 0) + c
    if any(c % code_size for c in total.values()):
        raise InexactDivision("not divisible")
    return Enumerator(len(rows[0]), enum.degree,
                      {k: c // code_size for k, c in total.items() if c // code_size})


def dict_complete_enumerator(code):
    """The complete enumerator with one ``monomial`` key per codeword."""
    terms = {}
    for chunk in enumerators._symbol_index_rows(code):
        for row in chunk.tolist():
            key = monomial((i, 1) for i in row)
            terms[key] = terms.get(key, 0) + 1
    pr = code.profile
    return Enumerator(pr.p ** 6, pr.q, terms)


def transform_point(point, p):
    """P . point as exact cyclotomic integers (p <= 3)."""
    sums = _character_sums(np.asarray(point, dtype=np.int64), p)
    return [CyclotomicInt(p, row) for row in sums[:, : p - 1] - sums[:, p - 1:]]


def dict_complete_check(code, dual, num_points=8, seed=20230817):
    """The complete check through both complete enumerators and term-by-term
    evaluation, at the same points as ``macwilliams_complete_check``."""
    p = code.profile.p
    w_primal, w_dual = complete_enumerator(code), complete_enumerator(dual)
    points = np.random.default_rng(seed).integers(0, 98, size=(num_points, p ** 6))
    return all(evaluate(w_primal, transform_point(pt, p))
               == code.size * evaluate(w_dual, [int(v) for v in pt]) for pt in points)


def random_word(pr, rng, killed_by_u):
    """A random word; one killed by u (a Z_p part and a u^2 S part only) adds
    at most one dimension to a span."""
    zp = rng.integers(0, pr.p, pr.q).tolist()
    if killed_by_u:
        return MixedWord.make(pr, zp, [(0, 0)] * pr.r,
                              [(0, 0, c) for c in rng.integers(0, pr.p, pr.s).tolist()])
    return MixedWord.make(pr, zp, [tuple(v) for v in rng.integers(0, pr.p, (pr.r, 2)).tolist()],
                          [tuple(v) for v in rng.integers(0, pr.p, (pr.s, 3)).tolist()])


def random_code(pr, rank, seed):
    """Span closure of random words, grown to exactly ``rank``."""
    rng = np.random.default_rng(seed)
    words, code = [], span_closure([], profile=pr)
    while code.rank < rank:
        word = random_word(pr, rng, bool(rng.integers(2)))
        cand = span_closure(words + [word], profile=pr)
        if code.rank < cand.rank <= rank:
            words, code = words + [word], cand
    return code


# -- cyclotomic integers -------------------------------------------------------


def test_cyclotomic_basics():
    for p in (2, 3, 5):
        one = CyclotomicInt.from_int(1, p)
        z = CyclotomicInt.root_power(1, p)
        assert z ** p == one
        total = CyclotomicInt.zero(p)
        for e in range(p):
            total = total + CyclotomicInt.root_power(e, p)
        assert not total              # 1 + z + ... + z^(p-1) = 0
        assert (z * z) == CyclotomicInt.root_power(2, p)


def test_cyclotomic_mul_associative_random():
    rng = np.random.default_rng(1)
    for p in (3, 5):
        for _ in range(100):
            a, b, c = (CyclotomicInt(p, rng.integers(-9, 10, size=p - 1)) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_cyclotomic_exact_div():
    a = CyclotomicInt(3, (6, -9))
    assert a.exact_div(3) == CyclotomicInt(3, (2, -3))
    with pytest.raises(InexactDivision):
        a.exact_div(4)


# -- symbols and characters ----------------------------------------------------


def test_symbol_table_order():
    t = symbol_table(2)
    assert t.count == 64
    x, y, z = t.triple(0)
    assert x == 0 and y.is_zero and z.is_zero
    # index 1 is (0, 0, 1): lex order over (a; a', b'; a'', b'', d'')
    x, y, z = t.triple(1)
    assert (x, y.is_zero, z.coeffs) == (0, True, (0, 0, 1))
    for idx in (0, 5, 17, 38, 63):
        assert t.index_of(t.triple(idx)) == idx


def test_symbol_lee_weights():
    t = symbol_table(2)
    # (0, 0, u) has Lee weight 3; (0, 1, 0) weight 1; (1, u, u) weight 6
    assert t.lee_weights[t.index_of((0, 0, (0, 1, 0)))] == 3
    assert t.lee_weights[t.index_of((0, (1, 0), 0))] == 1
    assert t.lee_weights[t.index_of((1, (0, 1), (0, 1, 0)))] == 6
    assert t.max_lee_weight == 6
    t13 = symbol_table(13)
    assert t13.max_lee_weight == 6 + 5  # floor(13/2) + 5 - 6... min(x,p-x) max 6 on Z_p


def test_character_examples():
    assert character((0, 0, 0), 2) == 1
    assert character((1, 0, 0), 2) == -1
    assert character((0, (0, 1), 0), 2) == -1
    assert character((0, 0, 0), 5) == 1


def test_character_orthogonality():
    # sum_f chi(f * g) = p^6 [g = 0], exhaustively for p in {2, 3}
    for p in (2, 3):
        e = char_exponent_matrix(p)
        counts = np.stack([(e == t).sum(axis=0) for t in range(p)], axis=1)
        coeffs = counts[:, : p - 1] - counts[:, p - 1:]
        assert (coeffs[0] == np.array([p ** 6] + [0] * (p - 2))).all()
        assert not coeffs[1:].any()


def test_char_matrix_p2_orthogonal():
    e = char_exponent_matrix(2)
    pm = np.where(e == 0, 1, -1)
    assert (pm == pm.T).all()
    assert ((pm @ pm.T) == 64 * np.eye(64, dtype=np.int64)).all()
    assert char_matrix_entry(32, 32, 2) == -1      # f = (1,0,0): chi(f*f) = chi(1,0,0)


def test_char_matrix_entry_on_demand_large_p():
    # entry-on-demand works for p > 3 without materializing P
    val = char_matrix_entry(1, 1, 5)
    assert isinstance(val, CyclotomicInt)
    with pytest.raises(TooLarge):
        char_exponent_matrix(5)


# -- enumerators ---------------------------------------------------------------


def test_regroup():
    code = c2_code()
    words = regroup(code)
    assert len(words) == 64
    assert all(len(w) == 2 for w in words)
    zero_words = regroup(span_closure([], profile=P2))
    assert len(zero_words) == 1
    assert all(x == 0 and y.is_zero and z.is_zero for x, y, z in zero_words[0])
    full1 = AdditiveCode.full_space(BlockProfile(2, 1, 1, 1))
    assert len(regroup(full1)) == 64
    with pytest.raises(BlocksUnequal):
        regroup(AdditiveCode.full_space(BlockProfile(2, 1, 2, 1)))


def test_complete_enumerator_basics():
    zero = span_closure([], profile=P2)
    enum = complete_enumerator(zero)
    assert enum.terms == {((0, 2),): 1}           # x_0^2
    full1 = AdditiveCode.full_space(BlockProfile(2, 1, 1, 1))
    enum1 = complete_enumerator(full1)
    assert len(enum1.terms) == 64 and enum1.degree == 1
    assert complete_enumerator(c2_code()).coefficient_sum() == 64


def test_hamming_enumerator_example():
    code = c2_code()
    assert bivariate_coeffs(hamming_enumerator(code)) == {0: 1, 1: 4, 2: 59}
    assert bivariate_coeffs(hamming_enumerator(code.dual())) == {0: 1, 1: 4, 2: 59}
    zero = span_closure([], profile=P2)
    assert bivariate_coeffs(hamming_enumerator(zero)) == {0: 1}


def test_hamming_consistency_with_complete():
    # W_H(x, y) = W_C(x, y, y, ..., y)
    code = c2_code()
    wc = complete_enumerator(code)
    x, y = 7, 3
    values = [x] + [y] * 63
    assert evaluate(wc, values) == evaluate(hamming_enumerator(code), [x, y])


def test_symmetrized_enumerator_example():
    code = c2_code()
    ws = symmetrized_enumerator(code)
    assert len(ws.terms) == 17
    assert ws.coefficient(((3, 1), (4, 1))) == 11        # 11 W_4 W_3
    assert ws.coefficient(((0, 2),)) == 1
    wsd = symmetrized_enumerator(code.dual())
    assert len(wsd.terms) == 20
    assert wsd.coefficient(((1, 1), (6, 1))) == 1        # W_1 W_6
    assert ws.coefficient_sum() == wsd.coefficient_sum() == 64


def test_lee_enumerator_example():
    code = c2_code()
    assert bivariate_coeffs(lee_enumerator(code)) == {
        0: 1, 1: 1, 2: 2, 3: 5, 4: 8, 5: 9, 6: 8, 7: 11, 8: 11, 9: 6, 10: 2}
    assert bivariate_coeffs(lee_enumerator(code.dual())) == {
        0: 1, 2: 4, 3: 6, 4: 5, 5: 14, 6: 15, 7: 10, 8: 6, 9: 2, 10: 1}
    zero = span_closure([], profile=P2)
    assert lee_enumerator(zero).terms == {((0, 12),): 1}


def test_lee_consistency_with_symmetrized_p2():
    # W_L(x, y) = W_S(x^6, x^5 y, ..., y^6) at p = 2
    code = c2_code()
    ws = symmetrized_enumerator(code)
    x, y = 5, 2
    values = [x ** (6 - i) * y ** i for i in range(7)]
    assert evaluate(ws, values) == evaluate(lee_enumerator(code), [x, y])


def test_enumerators_sum_to_code_size():
    rng = np.random.default_rng(3)
    for _ in range(25):
        pr = BlockProfile(2, 2, 2, 2)
        code = span_closure([unflatten(rng.integers(0, 2, size=pr.n), pr) for _ in range(2)],
                            profile=pr)
        for builder in (complete_enumerator, hamming_enumerator, symmetrized_enumerator,
                        lee_enumerator):
            assert builder(code).coefficient_sum() == code.size


def test_transform_point_is_p_times_point_at_p2():
    # P^2 = 64 I at p = 2, so transforming twice rescales by 64
    rng = np.random.default_rng(9)
    pt = [int(v) for v in rng.integers(0, 98, size=64)]
    once = transform_point(pt, 2)
    twice = transform_point([c.coeffs[0] for c in once], 2)
    assert [c.coeffs[0] for c in twice] == [64 * v for v in pt]


def test_macwilliams_complete_check_examples():
    code = c2_code()
    assert macwilliams_complete_check(code)
    assert macwilliams_complete_check(code, code.dual())
    # a pair that is not a dual pair must fail
    not_dual = span_closure([MixedWord.make(P2, (1, 1), ((0, 0), (0, 0)),
                                            ((0, 0, 0), (0, 0, 0)))]
                            + code.dual().basis_words())
    assert not_dual.rank > code.dual().rank
    assert not macwilliams_complete_check(code, not_dual)


def test_macwilliams_trivial_pair():
    pr = BlockProfile(2, 1, 1, 1)
    full = AdditiveCode.full_space(pr)
    zero = span_closure([], profile=pr)
    assert macwilliams_complete_check(full, zero)
    assert macwilliams_complete_check(zero, full)


def test_macwilliams_p3():
    pr = BlockProfile(3, 1, 1, 1)
    gen = MixedWord.make(pr, (1,), ((2, 1),), ((0, 1, 2),))
    code = span_closure([gen])
    assert macwilliams_complete_check(code)


def test_hamming_transform_example():
    code = c2_code()
    wh = hamming_enumerator(code)
    assert hamming_transform(wh, 64, 2) == hamming_enumerator(code.dual())
    # zero code maps to the full space: (x + 63 y)^n
    zero = span_closure([], profile=P2)
    full = AdditiveCode.full_space(P2)
    assert hamming_transform(hamming_enumerator(zero), 1, 2) == hamming_enumerator(full)


def test_transform_inexact_division():
    enum = Enumerator(2, 2, {((0, 2),): 1})
    with pytest.raises(InexactDivision):
        hamming_transform(enum, 7, 2)


def test_lee_transform_example():
    code = c2_code()
    wl = lee_enumerator(code)
    wld = lee_enumerator(code.dual())
    assert lee_transform(wl, 64, 2) == wld
    assert lee_transform(wld, 64, 2) == wl     # |C| = |C_dual| = 64 here


def test_symmetrized_transform_example():
    code = c2_code()
    ws = symmetrized_enumerator(code)
    assert symmetrized_transform(ws, 64, 2) == symmetrized_enumerator(code.dual())


def test_symmetrized_q_matrix_values():
    q2 = symmetrized_q_matrix(2)
    assert q2[0] == (1, 6, 15, 20, 15, 6, 1)    # row 0 lists the class sizes
    assert q2[6] == (1, -6, 15, -20, 15, -6, 1)
    q3 = symmetrized_q_matrix(3)
    assert q3[0] == (1, 12, 60, 160, 240, 192, 64)
    sizes = np.bincount(symbol_table(3).lee_weights, minlength=7)
    assert tuple(sizes) == q3[0]


def test_transform_soundness_exhaustive_small_codes():
    # every transform matches the dual's independent walk for
    # all single-generator codes with q = r = s in {1, 2} at p = 2; distinct
    # generators often span the same code, so deduplicate by basis
    for n in (1, 2):
        pr = BlockProfile(2, n, n, n)
        seen = set()
        for bits in itertools.product(range(2), repeat=pr.n):
            code = span_closure([unflatten(bits, pr)], profile=pr)
            key = code.basis.tobytes()
            if key in seen:
                continue
            seen.add(key)
            dual = code.dual()
            assert hamming_transform(_hamming_walk(code), code.size, 2) == _hamming_walk(dual)
            assert lee_transform(_lee_walk(code), code.size, 2) == _lee_walk(dual)
            assert symmetrized_transform(_symmetrized_walk(code), code.size, 2) \
                == _symmetrized_walk(dual)


def test_enumerator_text_and_json():
    code = c2_code()
    wh = hamming_enumerator(code)
    assert wh.text(["x", "y"]) == "4 x y + x^2 + 59 y^2"
    assert {"exponents": [1, 1], "coeff": 4} in wh.to_json()
    wc = complete_enumerator(code)
    sparse = wc.to_json()
    assert all(isinstance(t["exponents"][0], list) for t in sparse)


# -- smaller side and the chunked complete check --------------------------------


WALKS = ((hamming_enumerator, _hamming_walk), (lee_enumerator, _lee_walk),
         (symmetrized_enumerator, _symmetrized_walk))


@pytest.mark.parametrize("p, n, rank", [(2, 1, 5), (2, 2, 9), (3, 1, 4), (3, 2, 8),
                                        (5, 1, 4), (5, 2, 7)])
def test_public_enumerators_equal_walks_on_lopsided_codes(p, n, rank):
    # C is larger than its dual, so the public enumerators of C transform the
    # dual's walk and those of the dual walk it directly
    for seed in range(2):
        code = random_code(BlockProfile(p, n, n, n), rank, seed)
        dual = code.dual()
        assert dual.rank == code.profile.n - rank < rank
        for public, walk in WALKS[: 3 if p <= 3 else 2]:
            assert public(code) == walk(code)
            assert public(dual) == walk(dual)


def test_enumerators_above_walk_limit_through_small_dual():
    pr = BlockProfile(2, 5, 5, 5)
    code = random_code(pr, 4, seed=11).dual()
    assert code.rank == 26 and code.size > 2 ** 24
    with pytest.raises(TooLarge):
        _hamming_walk(code)
    for public, _ in WALKS:
        assert public(code).coefficient_sum() == code.size


def test_complete_check_matches_dict_route():
    c2 = c2_code()
    not_dual = span_closure([MixedWord.make(P2, (1, 1), ((0, 0), (0, 0)),
                                            ((0, 0, 0), (0, 0, 0)))]
                            + c2.dual().basis_words())
    pr1 = BlockProfile(2, 1, 1, 1)
    full, zero = AdditiveCode.full_space(pr1), span_closure([], profile=pr1)
    p3 = span_closure([MixedWord.make(BlockProfile(3, 1, 1, 1), (1,), ((2, 1),), ((0, 1, 2),))])
    cases = [(c2, c2.dual(), True), (c2, not_dual, False), (full, zero, True),
             (zero, full, True), (p3, p3.dual(), True),
             (p3, random_code(p3.profile, 4, seed=3), False)]
    for code, dual, holds in cases:
        assert macwilliams_complete_check(code, dual) is holds
        assert dict_complete_check(code, dual) is holds


def test_complete_check_rejects_non_dual_candidate_p3():
    pr = BlockProfile(3, 2, 2, 2)
    code = random_code(pr, 5, seed=1)
    # a candidate of the dual's size, so only the point evaluation can tell
    cand = random_code(pr, pr.n - 5, seed=2)
    assert cand != code.dual()
    assert macwilliams_complete_check(code)
    assert not macwilliams_complete_check(code, cand)


def test_codeword_sums_agree_with_python_ints_across_int64_bound():
    code = random_code(BlockProfile(2, 5, 5, 5), 12, seed=6)
    points = np.random.default_rng(7).integers(0, 98, size=(2, 64))
    tables = _character_sums(points, 2)
    # one chunk of 4096 rows: the right side needs Python ints, the left fits int64
    assert code.size * int(np.abs(tables).sum(axis=-1).max()) ** 5 > 2 ** 63
    assert code.size * int(points.max()) ** 5 < 2 ** 63
    w = complete_enumerator(code)
    lhs = _codeword_sums(code, points[..., None])
    rhs = _codeword_sums(code, tables)
    for m, point in enumerate(points):
        assert lhs[m] == [evaluate(w, [int(v) for v in point])]
        assert rhs[m][0] - rhs[m][1] == evaluate(w, transform_point(point, 2)).coeffs[0]
        assert max(rhs[m]) > 2 ** 63            # int64 would have wrapped
    assert macwilliams_complete_check(code)


def test_complete_check_needs_a_rational_right_side(monkeypatch):
    # r_0 + r_1 zeta + r_2 zeta^2 is rational iff r_1 = r_2; both candidates
    # below have rational part r_0 - r_2 = |C| * W_D(x)
    code = random_code(BlockProfile(3, 1, 1, 1), 2, seed=0)
    for right, holds in (([code.size + 5, 5, 5], True), ([code.size + 5, 7, 5], False)):
        sums = iter([[[1]] * 8, [right] * 8])
        monkeypatch.setattr(enumerators, "_codeword_sums", lambda c, t, sums=sums: next(sums))
        assert macwilliams_complete_check(code) is holds


def test_complete_check_point_count():
    counts = [_complete_check_points(q) for q in range(1, 98)]
    assert counts[:8] == [8] * 8 and counts[8] == 9
    assert counts == sorted(counts) and counts[-1] > 1000
    for q, k in enumerate(counts, start=1):
        assert q ** k * 2 ** 28 <= 98 ** k                              # (q/98)^k <= 2^-28
        assert k == 8 or q ** (k - 1) * 2 ** 28 > 98 ** (k - 1)        # and k is the least
    with pytest.raises(TooLarge):
        _complete_check_points(98)
    with pytest.raises(TooLarge):
        macwilliams_complete_check(AdditiveCode.zero(BlockProfile(2, 98, 98, 98)))


def test_complete_check_evaluates_at_the_derived_point_count(monkeypatch):
    seen = []

    def sums(code, tables):
        seen.append(len(tables))
        return [[0] * tables.shape[-1]] * len(tables)

    monkeypatch.setattr(enumerators, "_codeword_sums", sums)
    for q, k in ((2, 8), (9, 9), (12, 10)):
        seen.clear()
        pr = BlockProfile(2, q, q, q)
        assert macwilliams_complete_check(AdditiveCode.zero(pr), AdditiveCode.full_space(pr))
        assert seen == [k, k]


# -- the complete enumerator and the transform matrix ------------------------------


def test_complete_enumerator_equals_the_monomial_route():
    c2 = c2_code()
    p3 = span_closure([MixedWord.make(BlockProfile(3, 1, 1, 1), (1,), ((2, 1),), ((0, 1, 2),))])
    # the last code has 3^10 words, so its histogram merges four chunks
    for code in (c2, c2.dual(), span_closure([], profile=P2),
                 AdditiveCode.full_space(BlockProfile(2, 1, 1, 1)), p3, p3.dual(),
                 random_code(BlockProfile(3, 2, 2, 2), 10, seed=4)):
        assert complete_enumerator(code) == dict_complete_enumerator(code)


# (Q, c) with Q^2 = c I: the Hamming and Lee substitutions for p in {2, 3, 5}
# and the symmetrized ones for p in {2, 3}
SQUARE_ROOTS = ([([[1, p ** 6 - 1], [1, -1]], p ** 6) for p in (2, 3, 5)]
                + [([[1, p - 1], [1, -1]], p) for p in (2, 3, 5)]
                + [(symmetrized_q_matrix(p), p ** 6) for p in (2, 3)])


@st.composite
def sparse_enumerators(draw, nvars):
    """Up to eight random monomials of a random degree <= 6 with nonzero coefficients."""
    degree = draw(st.integers(0, 6))
    keys = draw(st.lists(st.lists(st.integers(0, nvars - 1), min_size=degree, max_size=degree),
                         min_size=1, max_size=8))
    coeffs = draw(st.lists(st.integers(-40, 40).filter(bool), min_size=len(keys),
                           max_size=len(keys)))
    return Enumerator(nvars, degree, {monomial((v, 1) for v in key): c
                                      for key, c in zip(keys, coeffs)})


@st.composite
def substitutions(draw):
    """A named substitution or a random integer matrix, with an input for it."""
    if draw(st.booleans()):
        rows = draw(st.sampled_from(SQUARE_ROOTS))[0]
    else:
        width = draw(st.integers(1, 3))
        rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=width, max_size=width),
                             min_size=1, max_size=3))
    return rows, draw(sparse_enumerators(len(rows)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(substitutions(), st.integers(1, 6))
def test_substitute_linear_equals_the_dict_route(case, code_size):
    rows, enum = case
    try:
        expected = dict_substitute_linear(enum, rows, code_size)
    except InexactDivision:
        with pytest.raises(InexactDivision):
            substitute_linear(enum, rows, code_size)
        return
    assert substitute_linear(enum, rows, code_size) == expected


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_substituting_twice_scales_by_c_to_the_degree(data):
    rows, c = data.draw(st.sampled_from(SQUARE_ROOTS))
    enum = data.draw(sparse_enumerators(len(rows)))
    twice = substitute_linear(substitute_linear(enum, rows, 1), rows, 1)
    assert twice == Enumerator(enum.nvars, enum.degree,
                               {k: v * c ** enum.degree for k, v in enum.terms.items()})


def test_transform_of_a_high_power():
    # (x + 4y)^500, the Lee substitution at p = 5 of x^500, within the budget
    out = lee_transform(Enumerator(2, 500, {((0, 500),): 1}), 1, 5)
    assert bivariate_coeffs(out) == {w: math.comb(500, w) * 4 ** w for w in range(501)}


def test_transform_of_a_dense_input_in_seven_variables():
    # all C(13, 6) = 1716 monomials of degree 7 in the symmetrized variables;
    # Q^2 = 64 I at p = 2, so substituting twice multiplies W by 64^7
    keys = [monomial((v, 1) for v in seq)
            for seq in itertools.combinations_with_replacement(range(7), 7)]
    enum = Enumerator(7, 7, {key: 1 + i % 5 for i, key in enumerate(keys)})
    once = symmetrized_transform(enum, 1, 2)
    assert len(once.terms) == 1716
    assert symmetrized_transform(once, 64 ** 7, 2) == enum


def test_transform_refuses_above_the_budget(monkeypatch):
    # (x + y)^10: index tables of 2 x C(12, 2) = 132 entries, levels of at most 2 x 11
    enum, rows = Enumerator(2, 10, {((0, 10),): 1}), [[1, 1], [1, -1]]
    with monkeypatch.context() as patch:
        patch.setattr(enumerators, "TRANSFORM_BUDGET", 132)
        assert substitute_linear(enum, rows, 1) == dict_substitute_linear(enum, rows, 1)
        patch.setattr(enumerators, "TRANSFORM_BUDGET", 131)
        with pytest.raises(TooLarge):
            substitute_linear(enum, rows, 1)
    with pytest.raises(TooLarge):       # C(66, 6) output monomials alone
        symmetrized_transform(Enumerator(7, 60, {((0, 60),): 1}), 1, 2)
