import itertools

import numpy as np
import pytest

from zprs import enumerators
from zprs.additive import AdditiveCode, span_closure
from zprs.enumerators import (CyclotomicInt, Enumerator, _character_sums, _codeword_sums,
                              _hamming_walk, _lee_walk, _symmetrized_walk, char_exponent_matrix,
                              char_matrix_entry, character, complete_enumerator,
                              hamming_enumerator, hamming_transform, lee_enumerator,
                              lee_transform, macwilliams_complete_check, regroup, symbol_table,
                              symmetrized_enumerator, symmetrized_q_matrix,
                              symmetrized_transform)
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
