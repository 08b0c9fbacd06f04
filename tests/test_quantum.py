import itertools
from functools import reduce

import numpy as np
import pytest

from zprs.additive import AdditiveCode, shift_module_span, word_from_polynomials
from zprs.errors import GcdViolation, NotDualContaining, TooManyFactors, ZprsError
from zprs.gray import GrayMap
from zprs.linear import LinearCode
from zprs.polynomials import Poly, factor_xn_minus_lambda, hat
from zprs.quantum import (FactorAssignment, QuantumParams, code_from_table_generators, css,
                          cyclic_code_from_assignment, is_dual_containing,
                          reciprocal_dual, search_dual_containing,
                          separable_rs_dual_containing)
from zprs.words import BlockProfile


def assignment(p, s, slots):
    factors = factor_xn_minus_lambda(p, s, 1)
    return FactorAssignment.from_slots(
        p, s,
        [f for f, k in zip(factors, slots) if k == 0],
        [f for f, k in zip(factors, slots) if k == 1],
        [f for f, k in zip(factors, slots) if k == 2])


def test_assignment_validation():
    with pytest.raises(GcdViolation):
        FactorAssignment.from_slots(2, 4, [], [], [])
    with pytest.raises(ZprsError):
        FactorAssignment.from_slots(2, 3, [[1, 1]], [], [])   # product != x^3 - 1


def test_extreme_assignments():
    factors = factor_xn_minus_lambda(2, 3, 1)
    full = FactorAssignment.from_slots(2, 3, factors, [], [])
    assert cyclic_code_from_assignment(full).rank == 6        # all of R^3
    zero = FactorAssignment.from_slots(2, 3, [], [], factors)
    assert cyclic_code_from_assignment(zero).rank == 0
    umult = FactorAssignment.from_slots(2, 3, [], factors, [])
    assert cyclic_code_from_assignment(umult).rank == 3       # u R^3


def test_cardinality_matches_crt_count_exhaustive():
    # rank = 2 deg F0 + deg F1 over every assignment, p in {2, 3}, s <= 7
    for p, s_values in ((2, (1, 3, 5, 7)), (3, (1, 2, 4, 5, 7))):
        for s in s_values:
            factors = factor_xn_minus_lambda(p, s, 1)
            for slots in itertools.product(range(3), repeat=len(factors)):
                fa = assignment(p, s, slots)
                code = cyclic_code_from_assignment(fa)
                d0, d1, _ = fa.slot_degrees()
                assert code.rank == 2 * d0 + d1
                assert code.is_constacyclic(1, 1, 1)


# the (p, s) grid of the exhaustive cardinality test, plus (5, 6) and (13, 4)
ORACLE_GRID = ((2, 1), (2, 3), (2, 5), (2, 7), (3, 1), (3, 2), (3, 4), (3, 5), (3, 7),
               (5, 6), (13, 4))


def every_assignment(grid=ORACLE_GRID):
    for p, s in grid:
        for slots in itertools.product(range(3), repeat=len(factor_xn_minus_lambda(p, s, 1))):
            yield assignment(p, s, slots)


def span_oracle(fa):
    """< hat(F0), u hat(F1) > as the shift-and-scalar span closure of its two generators."""
    p, s = fa.p, fa.s
    profile = BlockProfile(p, 0, s, 0)
    f0_hat, f1_hat = (hat(fa.slot_product(j), p, s, 1) for j in (0, 1))
    words = []
    if f0_hat.degree < s:                    # an empty F0 slot gives hat(F0) = x^s - 1 = 0
        words.append(word_from_polynomials(profile, r_poly=f0_hat))
    if f1_hat.degree < s:
        u_f1 = Poly.make([(0, c) for c in f1_hat.int_coeffs()], p, 2)
        words.append(word_from_polynomials(profile, r_poly=u_f1))
    return shift_module_span(words, profile=profile) if words else AdditiveCode.zero(profile)


def test_crt_basis_equals_span_closure_exhaustive():
    for fa in every_assignment():
        assert cyclic_code_from_assignment(fa) == span_oracle(fa), (fa.p, fa.s, fa.key())


def test_hat_equals_division_exhaustive():
    for fa in every_assignment():
        for slot, fs in enumerate((fa.f0, fa.f1, fa.f2)):
            product = reduce(lambda a, b: a * b, fs, Poly.one(fa.p))
            assert fa.slot_product(slot) == product
            assert fa.hat(slot) == hat(product, fa.p, fa.s, 1), (fa.p, fa.s, slot)


def test_is_dual_containing_matches_subcode_oracle_on_gray_images():
    # the Gray map needs p = 2 or p = 1 (mod 4), so p = 3 drops out
    verdicts = set()
    for fa in every_assignment([(p, s) for p, s in ORACLE_GRID if p != 3]):
        image = GrayMap(fa.p).image(cyclic_code_from_assignment(fa))
        expected = image.euclidean_dual().is_subcode_of(image)
        assert is_dual_containing(image) == expected, (fa.p, fa.s, fa.key())
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_gray_image_of_the_reciprocal_code_is_the_euclidean_dual():
    # phi(C*) = phi(C)^perp, against the kernel dual, on every assignment of
    # three p = 1 (mod 4) grids
    for fa in every_assignment(((5, 6), (13, 4), (17, 4))):
        gray = GrayMap(fa.p)
        image = gray.image(cyclic_code_from_assignment(fa))
        reciprocal = gray.image(cyclic_code_from_assignment(fa.reciprocal_assignment()))
        assert reciprocal == image.euclidean_dual(), (fa.p, fa.s, fa.key())


def test_is_dual_containing_matches_subcode_oracle_on_random_codes():
    rng = np.random.default_rng(5)
    verdicts = set()
    for _ in range(300):
        p = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(1, 7))
        k = int(rng.integers(0, n + 1))
        code = LinearCode(p, n, rng.integers(0, p, size=(k, n)))
        expected = code.euclidean_dual().is_subcode_of(code)
        assert is_dual_containing(code) == expected, (p, n, code.generator.tolist())
        verdicts.add(expected)
    assert verdicts == {True, False}
    for p, n in ((2, 1), (3, 4), (5, 6)):
        assert not is_dual_containing(LinearCode.zero(p, n))      # k = 0
        assert is_dual_containing(LinearCode.full_space(p, n))    # k = n


def test_search_runs_without_division_or_span_closure(monkeypatch):
    import zprs.additive
    import zprs.polynomials

    def forbidden(*args, **kwargs):
        raise AssertionError("the search must not divide polynomials or close spans")

    expected = [(str(h.params), h.assignment.key()) for h in search_dual_containing(5, 6)]
    # hat and divides reach poly_divmod through the polynomials module
    monkeypatch.setattr(zprs.polynomials, "poly_divmod", forbidden)
    monkeypatch.setattr(zprs.additive, "shift_module_span", forbidden)
    assert [(str(h.params), h.assignment.key())
            for h in search_dual_containing(5, 6)] == expected


def test_section6_example():
    fa = assignment(17, 8, (0, 0, 0, 0, 1, 1, 2, 0))
    # slots by sorted roots -x: factors are x+1,x+2,x+4,x+8,x+9,x+13,x+15,x+16
    assert fa.hat(0) == Poly.make([4, 5, 3, 1], 17)
    assert fa.hat(1) == Poly.make([9, 14, 14, 8, 10, 12, 1], 17)
    code = cyclic_code_from_assignment(fa)
    assert code.rank == 12
    image = GrayMap(17).image(code)
    assert (image.n, image.k) == (16, 12)
    assert is_dual_containing(image)
    params = css(image)
    assert (params.n, params.k, params.d, params.p) == (16, 8, 4, 17)
    assert str(params) == "[[16,8,4]]_17"


def test_reciprocal_dual_oracle_agreement():
    for p, s, slots in ((17, 8, (0, 0, 0, 0, 1, 1, 2, 0)),
                        (2, 7, (0, 1, 2)),
                        (5, 8, (0, 0, 1, 2, 0, 1)),
                        (13, 6, (0, 1, 0, 2, 1, 0))):
        fa = assignment(p, s, slots)
        result = reciprocal_dual(fa)
        assert result.formula_matched, result.discrepancy
        assert result.discrepancy is None
        primal = cyclic_code_from_assignment(fa)
        assert result.code == primal.dual()
        assert result.code.is_constacyclic(1, 1, 1)     # dual of cyclic is cyclic
        d0, d1, d2 = fa.slot_degrees()
        assert result.code.rank == 2 * d2 + d1          # |C| |C_dual| = p^(2s)


def test_full_and_zero_duals():
    factors = factor_xn_minus_lambda(2, 3, 1)
    full = FactorAssignment.from_slots(2, 3, factors, [], [])
    assert reciprocal_dual(full).code.rank == 0


def test_reciprocal_dual_formula_matches_oracle_exhaustively():
    # the reciprocal-slot construction must agree with the kernel dual on
    # every assignment for a spread of (p, s); the oracle is authoritative
    # either way, this pins the fast path down empirically
    for p, s in ((2, 7), (3, 8), (5, 4), (5, 6)):
        factors = factor_xn_minus_lambda(p, s, 1)
        for slots in itertools.product(range(3), repeat=len(factors)):
            fa = assignment(p, s, slots)
            result = reciprocal_dual(fa)
            assert result.formula_matched, (p, s, slots, result.discrepancy)


def test_is_dual_containing_examples():
    assert is_dual_containing(LinearCode.full_space(5, 4))
    assert not is_dual_containing(LinearCode(2, 3, [[1, 1, 1]]))  # dual is bigger
    rep2 = LinearCode(2, 2, [[1, 1]])
    assert is_dual_containing(rep2)                                # self-dual


def test_css_examples():
    full = LinearCode.full_space(7, 5)
    params = css(full)
    assert (params.n, params.k, params.d) == (5, 5, 1)
    with pytest.raises(NotDualContaining):
        css(LinearCode(2, 4, [[1, 1, 1, 1]]))
    with pytest.raises(ZprsError):
        QuantumParams(4, 5, 1, 2)


def test_search_p5_s8_matches_table_rows():
    hits = {str(h.params) for h in search_dual_containing(5, 8)}
    assert "[[16,8,3]]_5" in hits
    assert "[[16,12,2]]_5" in hits


def test_search_p13_s6_matches_table_row():
    hits = search_dual_containing(13, 6)
    assert "[[12,4,4]]_13" in {str(h.params) for h in hits}
    for h in hits:
        assert h.params.n == 12
        assert h.params.k >= 0 and h.distance_exact


def test_search_small_necessary_condition():
    # every dual-containing candidate satisfies 2 dim >= n
    for h in search_dual_containing(2, 3):
        assert 2 * h.gray_k >= h.gray_n


def test_search_too_many_factors():
    with pytest.raises(TooManyFactors):
        search_dual_containing(2, 7, max_factors=2)


def test_search_p17_s8_reproduces_worked_example():
    hits = search_dual_containing(17, 8)
    assert "[[16,8,4]]_17" in {str(h.params) for h in hits}


def test_search_results_satisfy_quantum_singleton():
    for p, s in ((5, 8), (13, 6), (2, 3)):
        for h in search_dual_containing(p, s):
            if h.distance_exact:
                assert h.params.k <= h.params.n - 2 * (h.params.d - 1)


def test_search_dedup_keeps_exact_distance(monkeypatch):
    # x^3 - 1 = (x + 1)(x^2 + x + 1) over Z_2; slots (1, 0) give an exact
    # [[6,2,2]] and the smaller slots (0, 1), evaluated later, only d >= 2
    import zprs.quantum as quantum
    crafted = {(1, 0): ((1, 0), 6, 4, 2, True), (0, 1): ((0, 1), 6, 4, 2, False)}
    monkeypatch.setattr(quantum, "_evaluate_assignment", lambda args: crafted.get(args[3]))
    [hit] = search_dual_containing(2, 3)
    assert hit.distance_exact and str(hit.params) == "[[6,2,2]]_2"
    assert hit.assignment.f0 == (Poly.make([1, 1, 1], 2),)
    crafted[(0, 1)] = ((0, 1), 6, 4, 2, True)     # both exact: smaller slots win
    [hit] = search_dual_containing(2, 3)
    assert hit.distance_exact and hit.assignment.f0 == (Poly.make([1, 1], 2),)


def test_search_results_are_deterministic_and_sorted():
    hits1 = search_dual_containing(5, 8)
    hits2 = search_dual_containing(5, 8)
    key = lambda h: (h.params.n, h.params.k, h.params.d)
    assert [key(h) for h in hits1] == sorted(key(h) for h in hits1)
    assert [(key(h), h.assignment.key()) for h in hits1] \
        == [(key(h), h.assignment.key()) for h in hits2]


def test_code_from_table_generators_round_trip():
    fa, code = code_from_table_generators(5, 8, [1, 3, 2, 1], [3, 0, 4, 0, 2, 0, 1])
    assert fa.hat(0) == Poly.make([1, 3, 2, 1], 5)
    assert fa.hat(1) == Poly.make([3, 0, 4, 0, 2, 0, 1], 5)
    image = GrayMap(5).image(code)
    assert (image.n, image.k, image.min_distance()) == (16, 12, 3)
    assert (css(image).n, css(image).k, css(image).d) == (16, 8, 3)


def test_separable_rs_dual_containing():
    p = 2
    r_full = AdditiveCode.full_space(BlockProfile(p, 0, 2, 0))
    s_full = AdditiveCode.full_space(BlockProfile(p, 0, 0, 2))
    assert separable_rs_dual_containing(r_full, s_full)
    s_zero = AdditiveCode.zero(BlockProfile(p, 0, 0, 2))
    assert not separable_rs_dual_containing(r_full, s_zero)


def test_separable_rs_dual_containing_random():
    # the verdict always matches the componentwise conjunction
    rng = np.random.default_rng(6)
    from zprs.additive import span_closure
    from zprs.words import unflatten
    for _ in range(25):
        p = 2
        pr_r = BlockProfile(p, 0, 2, 0)
        pr_s = BlockProfile(p, 0, 0, 2)
        cr = span_closure([unflatten(rng.integers(0, p, size=pr_r.n), pr_r)], profile=pr_r)
        cs = span_closure([unflatten(rng.integers(0, p, size=pr_s.n), pr_s)], profile=pr_s)
        from zprs.quantum import additive_dual_containing
        expected = additive_dual_containing(cr) and additive_dual_containing(cs)
        assert separable_rs_dual_containing(cr, cs) == expected


def test_quantum_params_remark():
    assert QuantumParams(16, 8, 4, 17).saturates_singleton_remark()
    assert not QuantumParams(16, 8, 3, 5).saturates_singleton_remark()
