import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zprs import enumerators
from zprs.additive import AdditiveCode, span_closure
from zprs.enumerators import (ENUMERATORS, TRANSFORMS, VARIABLES, Enumerator, _character_sums,
                              _codeword_sums, _complete_check_points, _krawtchouk,
                              _product_exponent, char_exponent_matrix, complete_enumerator,
                              hamming_enumerator, hamming_transform,
                              lee_enumerator, lee_transform, macwilliams_complete_check,
                              macwilliams_holds,
                              symbol_table, symmetrized_enumerator, symmetrized_q_matrix,
                              substitute_linear, symmetrized_transform, walk)
from zprs.errors import BlocksUnequal, InexactDivision, TooLarge, ZprsError
from zprs.field import find_kappa, is_prime
from zprs.gray import _gray_matrix
from zprs.linalg import row_space_split
from zprs.words import BlockProfile, MixedWord, form_matrices, unflatten

from oracles import (CyclotomicInt, char_matrix_entry, character, codeword_sums_by_words, regroup,
                     symbol_rows_by_digits)

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
    for row in symbol_rows_by_digits(code):
        key = monomial((i, 1) for i in row)
        terms[key] = terms.get(key, 0) + 1
    pr = code.profile
    return Enumerator(pr.p ** 6, pr.q, terms)


def transform_point(point, p):
    """P . point as exact cyclotomic integers.  It reads ``_character_sums``, so it
    is no independent oracle for those sums; their own tests compare them with
    ``char_exponent_matrix`` and ``_product_exponent``."""
    sums = _character_sums(np.asarray(point, dtype=np.int64), p)
    return [CyclotomicInt(p, row) for row in sums[:, : p - 1] - sums[:, p - 1:]]


def dict_complete_check(code, dual, num_points=8):
    """The complete check through both complete enumerators and term-by-term
    evaluation, at the same points as ``macwilliams_complete_check``.  Its
    character side is ``transform_point``, so it checks the walks and the
    evaluation, not ``_character_sums``."""
    p = code.profile.p
    w_primal, w_dual = complete_enumerator(code), complete_enumerator(dual)
    rng = np.random.default_rng(enumerators.COMPLETE_CHECK_SEED)
    points = rng.integers(0, 98, size=(num_points, p ** 6))
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


def test_character_examples():
    assert character((0, 0, 0), 2) == 1
    assert character((1, 0, 0), 2) == -1
    assert character((0, (0, 1), 0), 2) == -1
    assert character((0, 0, 0), 5) == 1


def test_character_reads_digits_at_large_p():
    # no p^6 table: at p = 29 that table alone is about 28 GB
    t = symbol_table(29)
    symbol = (1, (0, 1), (0, 0, 3))         # digit sum 5
    tracemalloc.start()
    try:
        values = [character((0, 0, 0), 29), character(symbol, 29),
                  character(t.index_of(symbol), 29)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20
    assert values == [1] + [CyclotomicInt.root_power(5, 29)] * 2
    with pytest.raises(IndexError):
        character(t.count, 29)


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


def test_product_exponent_is_the_digit_sum_of_the_product():
    # chi(f g) reads the coefficients of the componentwise ChainElement product
    rng = np.random.default_rng(13)
    for p, pairs in ((2, itertools.product(range(64), repeat=2)),
                     (3, rng.integers(0, 3 ** 6, size=(300, 2)).tolist()),
                     (5, rng.integers(0, 5 ** 6, size=(300, 2)).tolist())):
        t = symbol_table(p)
        for i, j in pairs:
            (x, y, z), (x2, y2, z2) = t.triple(i), t.triple(j)
            digit_sum = (x * x2 + sum((y * y2).coeffs) + sum((z * z2).coeffs)) % p
            f, g = np.array(t.digits(i)), np.array(t.digits(j))
            assert _product_exponent(f, g, p) == digit_sum


@pytest.mark.parametrize("p", [2, 3])
def test_character_sums_equal_the_exponent_matrix(p):
    e = char_exponent_matrix(p)
    points = np.random.default_rng(p).integers(0, 98, size=(3, p ** 6))
    expected = np.stack([points @ (e == t).T for t in range(p)], axis=-1)
    assert (_character_sums(points, p) == expected).all()
    assert (_character_sums(points[1], p) == expected[1]).all()


@pytest.mark.parametrize("p, m", [(5, 2), (7, 1)])
def test_character_sums_equal_the_definition_on_sampled_rows(p, m):
    rng = np.random.default_rng(p)
    points = rng.integers(0, 98, size=(m, p ** 6))
    sums = _character_sums(points, p)
    digits = symbol_table(p).coeffs
    for i in rng.integers(0, p ** 6, size=20):
        e = _product_exponent(digits[i], digits, p)
        assert (sums[:, i] == np.stack([points[:, e == t].sum(axis=1)
                                        for t in range(p)], axis=-1)).all()


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


def test_an_inexact_division_names_its_monomial_in_plain_ints():
    with pytest.raises(InexactDivision) as info:
        lee_transform(lee_enumerator(c2_code()), 3, 2)
    assert str(info.value) == "coefficient 64 of ((0, 2), (1, 10)) is not divisible by 3"


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


def triple_code(p):
    """The rank-3 code spanned by (1 | 1 | 1) over Z_p R S with (q, r, s) = (1, 1, 1)."""
    pr = BlockProfile(p, 1, 1, 1)
    code = span_closure([MixedWord.make(pr, (1,), ((1, 0),), ((1, 0, 0),))], profile=pr)
    assert code.rank == 3
    return code


@pytest.mark.parametrize("p", [13, 29])
def test_weight_enumerators_at_large_p_stay_small(p):
    # the walks weigh codeword digits; p^6-row symbol tables would take
    # hundreds of MB at p = 13 and about 28 GB at p = 29
    code = triple_code(p)
    tracemalloc.start()
    try:
        enums = [f(code) for f in (hamming_enumerator, lee_enumerator, symmetrized_enumerator)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20
    assert [e.coefficient_sum() for e in enums] == [code.size] * 3


# per p: (q = r = s, rank) of random codes with at most 29^3 words on either side
LARGE_P_RANDOM = {5: [(1, 2), (2, 6)], 13: [(1, 2), (1, 4)], 29: [(1, 3)]}


@pytest.mark.parametrize("p", [5, 13, 29])
def test_large_p_walks_satisfy_macwilliams(p):
    codes = [triple_code(p)] + [random_code(BlockProfile(p, q, q, q), rank, seed)
                                for q, rank in LARGE_P_RANDOM[p] for seed in range(2)]
    for code in codes:
        dual = code.dual()
        for kind, transform in TRANSFORMS.items():
            assert transform(walk(code, kind), code.size, p) == walk(dual, kind)


def test_lee_classes_are_not_fourier_invariant_at_p5():
    # why the symmetrized classes are Gray weights: 12,500 of the 15,625 symbols
    # see an irrational Q entry when they are classed by Lee weight min(x, p-x)
    t = symbol_table(5)
    nw = 5 // 2 + 6
    sums = _character_sums((t.lee_weights == np.arange(nw)[:, None]).astype(np.int64), 5)
    assert int((sums[..., 1:4] != sums[..., 4:]).any(axis=(0, 2)).sum()) == 12500


# the kappa-free Gray map on one triple's digits (x; a, b; a'', b'', d''):
# g = f GRAY = (x; a + b, b; a'' + b'' + d'', b'' + d'', b'')
GRAY = np.array([[1, 0, 0, 0, 0, 0],
                 [0, 1, 0, 0, 0, 0],
                 [0, 1, 1, 0, 0, 0],
                 [0, 0, 0, 1, 0, 0],
                 [0, 0, 0, 1, 1, 1],
                 [0, 0, 0, 1, 1, 0]], dtype=np.int64)


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_gray_map_diagonalizes_the_character_form(p):
    # GRAY is unimodular and GRAY^-1 B GRAY^-T = diag(1, 1, -1, 1, -1, 1) over Z
    inverse = np.rint(np.linalg.inv(GRAY)).astype(np.int64)
    assert (GRAY @ inverse == np.eye(6, dtype=np.int64)).all()
    form = form_matrices(BlockProfile(p, 1, 1, 1)).sum(axis=0)
    assert (inverse @ form @ inverse.T == np.diag([1, 1, -1, 1, -1, 1])).all()
    if p % 4 != 3:      # the library's Gray map is GRAY with kappa on two digits
        kappa = np.diag([1, 1, find_kappa(p), 1, find_kappa(p), 1])
        assert (_gray_matrix(BlockProfile(p, 1, 1, 1)) == GRAY @ kappa % p).all()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_gray_classes_have_the_krawtchouk_q_matrix(p):
    # the character sums of the seven Gray-weight classes are rational, constant on
    # each class, and K_6 over Z_p
    t = symbol_table(p)
    sums = _character_sums((t.gray_weights == np.arange(7)[:, None]).astype(np.int64), p)
    coeffs = sums[..., : p - 1] - sums[..., p - 1:]
    assert not coeffs[..., 1:].any()
    assert (coeffs[..., 0].T == np.array(_krawtchouk(p, 6))[t.gray_weights]).all()


def brute_krawtchouk(p, length):
    """K[w][i] from the counts, over all words g of Z_p^length, of weight i and of
    f.g = t for f = (1^w 0^(length - w)): the sum of zeta^t, which must be rational."""
    rows = []
    for w in range(length + 1):
        counts = np.zeros((length + 1, p), dtype=object)
        counts[0, 0] = 1
        for k in range(length):
            new = np.zeros_like(counts)
            for g in range(p):
                new[int(g != 0):length + 1] += np.roll(counts, g * (k < w), axis=1)[
                    : length + 1 - int(g != 0)]
            counts = new
        assert (counts[:, 1:] == counts[:, 1:2]).all()
        rows.append(tuple(int(c) for c in counts[:, 0] - counts[:, -1]))
    return tuple(rows)


def test_symmetrized_q_matrix_is_the_brute_krawtchouk_sum():
    for p in filter(is_prime, range(2, 32)):
        assert symmetrized_q_matrix(p) == brute_krawtchouk(p, 6)
    assert _krawtchouk(7, 1) == ((1, 6), (1, -1)) == brute_krawtchouk(7, 1)


def test_transforms_refuse_the_wrong_number_of_variables():
    enum = Enumerator(3, 1, {((0, 1),): 1})
    for transform in (hamming_transform, lee_transform, symmetrized_transform):
        with pytest.raises(ZprsError, match="variables"):
            transform(enum, 1, 5)


@pytest.mark.parametrize("refused", [lambda: macwilliams_complete_check(triple_code(13))],
                         ids=["complete-check-p13"])
def test_character_sums_above_the_budget_are_refused_up_front(refused):
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            refused()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_symmetrized_q_matrix_values():
    q2 = symmetrized_q_matrix(2)
    assert q2[0] == (1, 6, 15, 20, 15, 6, 1)    # row 0 lists the class sizes
    assert q2[6] == (1, -6, 15, -20, 15, -6, 1)
    q3 = symmetrized_q_matrix(3)
    assert q3[0] == (1, 12, 60, 160, 240, 192, 64)
    sizes = np.bincount(symbol_table(3).lee_weights, minlength=7)
    assert tuple(sizes) == q3[0]
    for p in (2, 3, 5):     # row 0 lists the sizes of the Gray-weight classes
        assert tuple(np.bincount(symbol_table(p).gray_weights)) == symmetrized_q_matrix(p)[0]


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
            for kind, transform in TRANSFORMS.items():
                assert transform(walk(code, kind), code.size, 2) == walk(dual, kind)


def test_enumerator_text_and_json():
    code = c2_code()
    wh = hamming_enumerator(code)
    assert wh.text(["x", "y"]) == "4 x y + x^2 + 59 y^2"
    assert {"exponents": [1, 1], "coeff": 4} in wh.to_json()
    wc = complete_enumerator(code)
    sparse = wc.to_json()
    assert all(isinstance(t["exponents"][0], list) for t in sparse)


# -- smaller side and the chunked complete check --------------------------------


# the kinds whose public enumerator may walk the dual and transform back
WALKS = tuple(TRANSFORMS)


@pytest.mark.parametrize("p, n, rank", [(2, 1, 5), (2, 2, 9), (3, 1, 4), (3, 2, 8),
                                        (5, 1, 4), (5, 2, 7)])
def test_public_enumerators_equal_walks_on_lopsided_codes(p, n, rank):
    # C is larger than its dual, so the public enumerators of C transform the
    # dual's walk and those of the dual walk it directly
    for seed in range(2):
        code = random_code(BlockProfile(p, n, n, n), rank, seed)
        dual = code.dual()
        assert dual.rank == code.profile.n - rank < rank
        for kind in WALKS:
            assert ENUMERATORS[kind](code) == walk(code, kind)
            assert ENUMERATORS[kind](dual) == walk(dual, kind)


def test_enumerators_above_walk_limit_through_small_dual():
    pr = BlockProfile(2, 5, 5, 5)
    code = random_code(pr, 4, seed=11).dual()
    assert code.rank == 26 and code.size > 2 ** 24
    with pytest.raises(TooLarge):
        walk(code, "hamming")
    for kind in WALKS:
        assert ENUMERATORS[kind](code).coefficient_sum() == code.size


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


@pytest.mark.parametrize("q, rank", [(1, 3), (2, 6), (2, 5)])
def test_complete_check_at_p5(q, rank):
    pr = BlockProfile(5, q, q, q)
    code = random_code(pr, rank, seed=0)
    dual = code.dual()
    words = dual.basis_words()
    # the closure of the dual's basis without one row, the first that loses rank
    dropped = next(c for c in (span_closure(words[:i] + words[i + 1:], profile=pr)
                               for i in range(len(words))) if c.rank < dual.rank)
    cand = random_code(pr, dual.rank, seed=5)
    assert cand != dual
    cases = [(dual, True), (dropped, False), (cand, False)]
    for candidate, holds in cases:
        assert macwilliams_complete_check(code, candidate) is holds
    if q == 1:
        for candidate, holds in cases:
            assert dict_complete_check(code, candidate) is holds


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
                 random_code(BlockProfile(3, 2, 2, 2), 10, seed=4), z29_code()):
        assert complete_enumerator(code) == dict_complete_enumerator(code)


def z29_code():
    """The rank-3 Z_29 code spanned by (1 | 1 | 1): 24,389 words in two chunks."""
    return span_closure([MixedWord.make(BlockProfile(29, 1, 1, 1), (1,), ((1, 0),),
                                        ((1, 0, 0),))])


# (p, (q, r, s), rank, seed, chunks of the walk, (points, k) of the tables, table bound):
# rank 0, one high word (p^rank <= 2^14) and several high chunks at p = 2, 3, 5; the
# seeds of the last are chosen so that high and low words overlap, and digits carry
SPLIT_CASES = [
    (2, (3, 3, 3), 0, 0, 1, (2, 3), 50),
    (2, (2, 2, 2), 6, 1, 1, (2, 2), 50),
    (2, (5, 5, 5), 16, 2, 4, (1, 1), 2 ** 40),     # object arrays: 2^14 (2^40)^5 > 2^63
    (3, (2, 2, 2), 4, 3, 1, (2, 3), 50),
    (3, (3, 3, 3), 10, 2, 5, (1, 2), 50),
    (5, (2, 2, 2), 3, 5, 1, (2, 3), 50),
    (5, (3, 3, 3), 7, 0, 5, (2, 1), 50),
]
SPLIT_IDS = [f"p{case[0]}-rank{case[2]}" for case in SPLIT_CASES]


@pytest.mark.parametrize("p, qrs, rank, seed, chunks, shape, bound", SPLIT_CASES,
                         ids=SPLIT_IDS)
def test_symbol_index_rows_match_the_digit_oracle(p, qrs, rank, seed, chunks, shape, bound):
    code = random_code(BlockProfile(p, *qrs), rank, seed)
    low, highs = row_space_split(code.basis, p)
    assert any(((low[:, None] + high) >= p).any() for high in highs) == (chunks > 1)
    got = list(enumerators._symbol_index_rows(code))
    assert len(got) == chunks and all(len(c) <= 1 << 14 for c in got)
    assert np.concatenate(got).tolist() == symbol_rows_by_digits(code)


def test_symbol_index_rows_at_p29_match_the_digit_oracle():
    code = z29_code()
    got = list(enumerators._symbol_index_rows(code))
    assert len(got) == 2
    assert np.concatenate(got).tolist() == symbol_rows_by_digits(code)


@pytest.mark.parametrize("p, qrs, rank, seed, chunks, shape, bound", SPLIT_CASES,
                         ids=SPLIT_IDS)
def test_codeword_sums_match_a_python_int_evaluation(p, qrs, rank, seed, chunks, shape, bound):
    code = random_code(BlockProfile(p, *qrs), rank, seed)
    m, k = shape
    tables = np.random.default_rng(seed).integers(-bound, bound + 1, size=(m, p ** 6, k))
    assert _codeword_sums(code, tables) == codeword_sums_by_words(symbol_rows_by_digits(code),
                                                                  tables)


def test_symbol_indices_refuse_primes_beyond_int64():
    # 1451^6 > 2^63: indices near x_j = p - 1 would wrap
    code = span_closure([MixedWord.make(BlockProfile(1451, 1, 1, 1), (1,), ((0, 0),),
                                        ((0, 0, 0),))])
    assert code.rank == 1
    with pytest.raises(TooLarge):
        complete_enumerator(code)
    assert complete_enumerator(span_closure([], profile=BlockProfile(1447, 1, 1, 1))).terms == {
        ((0, 1),): 1}


# (Q, c) with Q^2 = c I: the Hamming, Lee and symmetrized substitutions for p in {2, 3, 5}
SQUARE_ROOTS = ([([[1, p ** 6 - 1], [1, -1]], p ** 6) for p in (2, 3, 5)]
                + [([[1, p - 1], [1, -1]], p) for p in (2, 3, 5)]
                + [(symmetrized_q_matrix(p), p ** 6) for p in (2, 3, 5)])


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


def test_kind_table_and_macwilliams_verdict():
    # one table names every kind: the transform kinds plus the complete enumerator
    assert set(ENUMERATORS) == set(TRANSFORMS) | {"complete"} and set(VARIABLES) == set(TRANSFORMS)
    code = c2_code()
    for kind, names in VARIABLES.items():
        assert walk(code, kind).nvars == len(names)
    for kind in ENUMERATORS:
        assert macwilliams_holds(code, kind) is True
    with pytest.raises(BlocksUnequal):
        macwilliams_holds(AdditiveCode.full_space(BlockProfile(2, 1, 2, 1)), "hamming")
