import copy
import itertools
import os
import pickle
import subprocess
import sys
import time
from functools import lru_cache, reduce
from pathlib import Path

import numpy as np
import pytest

import zprs.quantum as quantum
from zprs import linalg
from zprs.additive import AdditiveCode, shift_module_span, span_closure, word_from_polynomials
from zprs.errors import (GcdViolation, MalformedInput, ModulusMismatch, NonUnitLeadingCoefficient,
                         NotADivisor, NotDualContaining, NotPrime, ProfileMismatch,
                         TooManyFactors, WrongRing, ZprsError)
from zprs.gray import GrayMap
from zprs.linear import (LinearCode, _smallest_dependent_subset,
                         min_distance_by_enumeration)
from zprs.polynomials import Poly, factor_xn_minus_lambda, hat
from zprs.quantum import (FactorAssignment, QuantumParams, code_from_table_generators, css,
                          cyclic_code_from_assignment, cyclic_code_from_generators, cyclic_css,
                          is_dual_containing, search_dual_containing)
from zprs.words import BlockProfile, unflatten

from oracles import (additive_dual_containing, reciprocal_assignment, reciprocal_dual,
                     reference_rref, separable_rs_dual_containing)
from test_linear import outcome, recorded_starts, reference_distance


@lru_cache(maxsize=None)
def factors_of(p, s):
    """The factors of x^s - 1, factored once per grid point."""
    return tuple(factor_xn_minus_lambda(p, s, 1))


def assignment(p, s, slots):
    factors = factors_of(p, s)
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
    return generator_span(p, s, *(hat(fa.slot_product(j), p, s, 1) for j in (0, 1)))


def generator_span(p, s, f0_hat, f1_hat):
    """< f0_hat, u f1_hat > of length s as the span closure of the two words."""
    profile = BlockProfile(p, 0, s, 0)
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


def test_generator_builder_equals_span_closure_exhaustive():
    # the hats of every assignment, empty slots included (hat = x^s - 1), and then every
    # pair of divisors of x^s - 1 at (5, 6) and (13, 4), whose cofactors may overlap
    for fa in every_assignment():
        code = cyclic_code_from_generators(fa.p, fa.s, fa.hat(0), fa.hat(1))
        assert code == span_oracle(fa), (fa.p, fa.s, fa.key())
    overlapping = 0
    for p, s in ((5, 6), (13, 4)):
        divisors = {bits: reduce(lambda a, b: a * b, itertools.compress(factors_of(p, s), bits),
                                 Poly.one(p))
                    for bits in itertools.product((0, 1), repeat=len(factors_of(p, s)))}
        for (bits0, g0), (bits1, g1) in itertools.product(divisors.items(), repeat=2):
            code = cyclic_code_from_generators(p, s, g0, g1)
            assert code == generator_span(p, s, g0, g1), (p, s, g0, g1)
            overlapping += not all(map(max, bits0, bits1))   # a factor of neither generator
    assert overlapping == 2 * (4 ** 4 - 3 ** 4)


def test_generator_builder_refuses_what_the_table_route_refused():
    # each refusal has the exception type that code_from_table_generators raised when
    # it factored x^s - 1 and matched the factors against the cofactors
    cases = [((4, 6, [1, 1], [1]), NotPrime), ((5, 6, [1.5], [1]), WrongRing),
             ((5, 6, [1], "x"), WrongRing), ((5, 6, [0], [1]), NonUnitLeadingCoefficient),
             ((5, 6, [1], []), NonUnitLeadingCoefficient),
             ((5, 8, [1, 1, 1], [1]), NotADivisor), ((5, 8, [1], [1, 0, 0, 1]), NotADivisor),
             ((5, 10, [4, 1], [4, 1]), GcdViolation), ((5, 0, [1], [1]), GcdViolation),
             ((5, 6, [1], Poly.make([1, 1], 7)), ModulusMismatch)]
    for args, error in cases:
        for build in (cyclic_code_from_generators, code_from_table_generators):
            with pytest.raises(error):
                build(*args)


def test_table_generators_refuse_cofactors_that_share_a_factor():
    # hat(F0) = hat(F1) = hat(x - 1) puts x - 1 in both F0 and F1: no assignment has
    # these hats, while the code < g, u g > = < g > + u < g > is well defined
    g = hat(Poly.make([4, 1], 5), 5, 6, 1)
    assert g.int_coeffs() == [1, 1, 1, 1, 1, 1]
    with pytest.raises(ZprsError, match=r"share the factor x \+ 4"):
        code_from_table_generators(5, 6, g, g)
    code = cyclic_code_from_generators(5, 6, g, g)
    assert code == generator_span(5, 6, g, g) and code.rank == 2
    a, b, _ = code._split
    assert a == b and a.k == 1


# the grids of the systematic-form tests: factors of degree 1 to 3, up to
# t = 8 of them, including the (17, 8) grid of the search benchmark
SYSTEMATIC_GRID = ((2, 7), (3, 8), (5, 6), (13, 4), (17, 8))


def test_systematic_rows_are_the_rref_of_the_shifted_generator():
    # every subset product g of the factors of x^s - 1: the closed form against
    # row reduction of the rows x^i g, i < s - deg g
    for p, s in SYSTEMATIC_GRID:
        factors = factor_xn_minus_lambda(p, s, 1)
        for mask in itertools.product((False, True), repeat=len(factors)):
            subset = [f for f, keep in zip(factors, mask) if keep]
            g = reduce(lambda a, b: a * b, subset, Poly.one(p)).int_coeffs()
            c = s - len(g) + 1
            shifted = np.zeros((c, s), dtype=np.int64)
            for i in range(c):
                shifted[i, i:i + len(g)] = g
            half = quantum._half(tuple(g), p, s)
            rows, pivots = linalg.rref(shifted, p)
            assert not half.basis.flags.writeable
            assert half.basis.shape == (c, s) and half.pivots == pivots == list(range(c))
            assert (half.basis == rows).all(), (p, s, mask)


def test_a_half_is_built_only_on_a_divisor():
    # the certificate that the halves' nesting rests on: g | x^s - 1 over Z_5, else
    # NotADivisor; every divisor, monic or not, builds the RREF of its shifted rows x^i g
    for generator in ((2, 1), (1, 0, 1), (0, 1), (1, 5), (1, 1, 1, 1, 1, 1, 1, 1)):
        with pytest.raises(NotADivisor):
            quantum._half(generator, 5, 6)
    assert quantum._half((2, 2), 5, 6) == quantum._half((1, 1), 5, 6)
    for mask in itertools.product((False, True), repeat=len(factors_of(5, 6))):
        g = reduce(lambda a, b: a * b, itertools.compress(factors_of(5, 6), mask), Poly.one(5))
        shifted = [[0] * i + g.int_coeffs() + [0] * (6 - g.degree - 1 - i)
                   for i in range(6 - g.degree)]
        half = quantum._half(g.int_key, 5, 6)
        assert half == LinearCode(5, 6, shifted) and half.pivots == list(range(6 - g.degree))


def test_constructed_basis_is_already_reduced():
    # the basis that cyclic_code_from_assignment builds, and the constructor trusts, is
    # its own RREF by full elimination, with the pivots it carries
    for p, s in SYSTEMATIC_GRID:
        factors = factor_xn_minus_lambda(p, s, 1)
        for slots in itertools.product(range(3), repeat=len(factors)):
            code = cyclic_code_from_assignment(FactorAssignment.from_slots(
                p, s, *quantum._split_slots(factors, slots)))
            basis, pivots = reference_rref(code.basis, p)
            assert basis.shape == code.basis.shape and (basis == code.basis).all(), slots
            assert pivots == code.pivots


def test_the_search_builds_no_basis_that_it_does_not_read(monkeypatch):
    # cyclic_css reads ranks, halves and the (pi, pi) hint verdict on the halves, so
    # neither the R-code's interleaved rows nor its image's closed form is ever built
    images = []

    class Recording(GrayMap):
        def image(self, code):
            images.append(super().image(code))
            return images[-1]

    monkeypatch.setattr(quantum, "GrayMap", Recording)
    outcomes = set()
    for p, s in ((5, 8), (13, 6)):
        factors = factors_of(p, s)
        for slots in itertools.product(range(3), repeat=len(factors)):
            code = cyclic_code_from_assignment(assignment(p, s, slots))
            if code.rank < s:
                continue   # its image cannot contain its dual
            outcomes.add(cyclic_css(code) is None)
            assert "basis" not in vars(code) and "basis" not in vars(images[-1]), (p, s, slots)
    assert outcomes == {True, False}


def test_search_built_codes_pickle_and_deep_copy():
    for p, s in ((5, 8), (13, 6), (2, 7)):
        for slots in itertools.islice(itertools.product(range(3), repeat=len(factors_of(p, s))),
                                      0, None, 7):
            code = cyclic_code_from_assignment(assignment(p, s, slots))
            image = GrayMap(p).image(code)
            for built in (False, True):    # before and after the basis is first read
                for c in (code, image):
                    for twin in (pickle.loads(pickle.dumps(c)), copy.deepcopy(c)):
                        assert type(twin) is type(c) and twin.pivots == c.pivots
                        assert twin == c and twin.rank == c.rank, (p, s, slots, built)
                        if isinstance(c, LinearCode):
                            assert is_dual_containing(twin) == is_dual_containing(c)
                            if c.k:
                                assert twin.min_distance() == c.min_distance()


def test_the_pair_product_reads_each_block_on_its_own():
    # plotkin_sum on every pair (U, V) of cyclic halves of three grids, against the
    # product [G_V; H_V] H_U^T: V not in U (nonzero top rows) is refused even where
    # V^perp lies in U, and V in U gives a dual-containing image exactly where V^perp
    # lies in U (zero bottom rows), as the kernel dual confirms
    counts = [0, 0, 0]
    for p, s in ((5, 8), (13, 4), (17, 4)):
        kappa, factors = GrayMap(p).kappa, factors_of(p, s)
        products = [reduce(lambda a, b: a * b, itertools.compress(factors, bits), Poly.one(p))
                    for bits in itertools.product((0, 1), repeat=len(factors))]
        halves = [quantum._half(g.int_key, p, s) for g in products]
        for hu, hv in itertools.product(halves, repeat=2):
            both = np.vstack([hv.basis, hv.parity_check]) @ hu.parity_check.T % p
            v_in_u, dual_in_u = not both[:hv.k].any(), not both[hv.k:].any()
            if not v_in_u:
                with pytest.raises(ZprsError, match="V is not in U"):
                    LinearCode.plotkin_sum(p, hu.basis, hv.basis, kappa)
                counts[0] += dual_in_u
                continue
            image = LinearCode.plotkin_sum(p, hu.basis, hv.basis, kappa)
            assert is_dual_containing(image) is dual_in_u, (p, s, hu, hv)
            assert image.euclidean_dual().is_subcode_of(image) is dual_in_u, (p, s, hu, hv)
            counts[1 + dual_in_u] += 1
    assert counts == [699, 699, 192], counts


def test_dual_tests_refuse_codes_that_are_not_linear():
    # an R-code, or an additive code of a Z_p block alone, is Gray-mapped first
    code = cyclic_code_from_assignment(assignment(17, 8, (0, 0, 0, 0, 1, 1, 2, 0)))
    for c in (code, AdditiveCode.full_space(BlockProfile(5, 3, 0, 0))):
        for check in (is_dual_containing, css):
            with pytest.raises(ProfileMismatch, match="Gray-map it first"):
                check(c)
    assert is_dual_containing(GrayMap(17).image(code))


def test_a_warm_search_runs_no_row_space_test(monkeypatch):
    # the factor masks decide V in U and the dual verdict, and the cached halves keep
    # their cyclic verdicts, so a repeated search asks in_row_space nothing
    expected = search_dual_containing(17, 8)
    calls, in_row_space = [], linalg.in_row_space
    monkeypatch.setattr(linalg, "in_row_space",
                        lambda *args: calls.append(args) or in_row_space(*args))
    assert search_dual_containing(17, 8) == expected
    assert len(calls) == 0


def test_caches_cannot_change_an_answer():
    def serialized(p, s):
        return repr(search_dual_containing(p, s))

    quantum._product.cache_clear()
    quantum._half.cache_clear()
    first = serialized(5, 8)
    serialized(13, 6)
    assert serialized(5, 8) == first
    factors = factor_xn_minus_lambda(5, 8, 1)
    assert not quantum._product(quantum._key(factors), 5).flags.writeable
    # a factor repeated and another left out: the same count and degree, a wrong product
    wrong = [factors[0], factors[0], *factors[2:]]
    assert [f.degree for f in wrong] == [f.degree for f in factors]
    quantum._product(quantum._key(wrong), 5)       # its product cached
    for _ in range(2):
        with pytest.raises(ZprsError):
            FactorAssignment.from_slots(5, 8, wrong, [], [])
        with pytest.raises(ZprsError):
            FactorAssignment.from_slots(5, 8, wrong[:3], wrong[3:], [])


def clear_caches():
    for cache in (quantum._product, quantum._half, quantum._poly):
        cache.cache_clear()


def walked_css(halves, cap):
    """(n, k, d, exact) of the Gray image of the cyclic code on these halves, as the
    search evaluates it, or None if the image does not contain its dual."""
    found = cyclic_css(cyclic_code_from_assignment(_halves=halves), distance_cap=cap)
    return found and (found[0].n, found[0].k, found[1].d, found[2])


def test_the_search_walk_gives_what_fresh_assignments_give_exhaustively():
    # every assignment of seven grids, at caps 6 and 2, each path from cleared caches: the
    # search's walk yields each assignment with 2 deg F0 + deg F1 >= s once, with halves
    # equal to the _half codes of a from_slots assignment's generators, its rank and, as
    # the last entry, a mask verdict equal to the fa path's, and evaluates it to that
    # assignment's (n, k, d, exact); every assignment it skips has no dual-containing
    # image and a False verdict on the fa path
    grid = ((5, 6), (13, 4), (17, 4), (5, 8), (13, 6), (2, 7), (5, 12))
    fresh, walked = {}, {}
    clear_caches()
    for p, s in grid:
        for slots in itertools.product(range(3), repeat=len(factors_of(p, s))):
            fa = assignment(p, s, slots)
            d0, d1, _ = fa.slot_degrees()
            halves = (quantum._half(fa.hat(0).int_key, p, s),
                      quantum._half(fa.slot_product(2).int_key, p, s), 2 * d0 + d1)
            for cap in (6, 2):
                code = cyclic_code_from_assignment(fa)
                assert code._split[:2] == halves[:2]
                found = cyclic_css(code, distance_cap=cap)
                assert code._split[2] is (found is not None)
                fresh[p, s, slots, cap] = (*halves, code._split[2]), found and (
                    found[0].n, found[0].k, found[1].d, found[2])
    clear_caches()
    for p, s in grid:
        t = len(factors_of(p, s))
        for cap in (6, 2):
            for (m1, m2), halves in quantum._assignments(p, s, factors_of(p, s)):
                slots = tuple(1 if m1 >> i & 1 else 2 if m2 >> i & 1 else 0 for i in range(t))
                assert (p, s, slots, cap) not in walked and not m1 & m2
                walked[p, s, slots, cap] = halves, walked_css(halves, cap)
    assert len(fresh) == 2 * 8289
    for case, (halves, found) in fresh.items():
        if halves[2] >= case[1]:
            assert walked[case] == (halves, found), case
        else:
            assert case not in walked and found is None and halves[3] is False, case
    outcomes = [found[3] for _, found in fresh.values() if found]
    assert outcomes.count(True) > 1000 and False in outcomes


def test_the_walked_dual_verdict_is_the_pair_product_exhaustively():
    # F2 in F0*, read off the masks, against [G_A; H_A] H_B^T on the halves of every
    # assignment the search walks: the top rows vanish (A in B, as g_B | g_A), and the
    # bottom rows vanish exactly when the verdict says that the image holds its dual
    verdicts = []
    for p, s in ((2, 7), (5, 6), (13, 4), (17, 4), (5, 8), (13, 6), (17, 8), (2, 15), (5, 12)):
        for masks, (a, b, _, dual) in quantum._assignments(p, s, factors_of(p, s)):
            both = np.vstack([a.basis, a.parity_check]) @ b.parity_check.T % p
            assert not both[:a.k].any(), (p, s, masks)
            assert dual is (not both[a.k:].any()), (p, s, masks)
            verdicts.append(dual)
    assert (len(verdicts), verdicts.count(True)) == (8601, 1852)


def test_the_generator_verdict_is_the_whole_code_test_exhaustively():
    # every pair (g0, g1) of divisors of x^s - 1 on three grids, cofactors that overlap
    # included, which no assignment gives: the verdict that cyclic_code_from_generators
    # keeps, through cyclic_css, against H H^T = 0 on the image re-read as a plain code
    verdicts = []
    for p, s in ((5, 8), (13, 4), (17, 4)):
        factors = factors_of(p, s)
        divisors = [reduce(lambda a, b: a * b, itertools.compress(factors, bits), Poly.one(p))
                    for bits in itertools.product((0, 1), repeat=len(factors))]
        for g0, g1 in itertools.product(divisors, repeat=2):
            code = cyclic_code_from_generators(p, s, g0, g1)
            image = GrayMap(p).image(code)
            whole = is_dual_containing(LinearCode(p, 2 * s, image.generator))
            assert (cyclic_css(code) is not None) is whole, (p, s, g0, g1)
            verdicts.append(whole)
    assert (len(verdicts), verdicts.count(True)) == (4608, 1755)


def test_a_search_forms_no_pair_product(monkeypatch):
    # the walk hands each image its mask verdict, so a cold search asks in_row_space
    # only whether each nonzero half is cyclic; the fa path decides its verdict with one
    # row-space test on its halves, and plotkin_sum refuses V outside U with another
    clear_caches()
    calls, in_row_space = [], linalg.in_row_space
    monkeypatch.setattr(linalg, "in_row_space",
                        lambda *args: calls.append(args) or in_row_space(*args))
    assert search_dual_containing(17, 8)
    assert len(calls) <= 256
    assert all(np.array_equal(vecs, np.roll(basis, 1, axis=1)) for basis, _, vecs, _ in calls)
    calls.clear()
    cyclic_css(cyclic_code_from_assignment(assignment(17, 8, (0, 0, 0, 0, 1, 1, 2, 0))))
    assert len(calls) == 1
    with pytest.raises(ZprsError, match="V is not in U"):
        LinearCode.plotkin_sum(5, [[1, 0, 1]], [[0, 1, 0]], 2)
    assert len(calls) == 2


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


def test_dual_rule_of_the_halves_matches_the_whole_code_on_gray_images():
    # the verdict that the fa path keeps, A^perp in B for P(B, A, kappa), against
    # H H^T = 0 of the plain code, on every assignment of six grids
    counts = {True: 0, False: 0}
    for fa in every_assignment(((5, 8), (13, 6), (2, 7), (5, 6), (13, 4), (5, 12))):
        image = GrayMap(fa.p).image(cyclic_code_from_assignment(fa))
        expected = is_dual_containing(LinearCode(fa.p, image.n, image.generator))
        assert image._plotkin is not None
        assert is_dual_containing(image) == expected, (fa.p, fa.s, fa.key())
        counts[expected] += 1
    assert counts[True] > 100 and counts[False] > 1000


def test_plotkin_sums_with_other_units_take_the_whole_code_dual_test():
    # random P(U, V, lam): plotkin_sum hands no verdict, so every lam takes the product
    # H H^T, against the plain code; the rule of the halves, V^perp in U, is wrong on
    # some of the codes with lam^2 != -1
    rng = np.random.default_rng(46)
    wrong_rule = 0
    for p in (3, 5, 7, 13):
        for trial in range(40):
            m = int(rng.integers(2, 7))
            u = (np.eye(m, dtype=np.int64) if trial % 2 else
                 reference_rref(rng.integers(0, p, size=(int(rng.integers(1, m + 1)), m)), p)[0])
            v = reference_rref(rng.integers(0, p, size=(int(rng.integers(0, len(u) + 1)),
                                                        len(u))) @ u % p, p)[0]
            lam = int(rng.integers(1, p))
            code = LinearCode.plotkin_sum(p, u, v, lam)
            expected = is_dual_containing(LinearCode(p, 2 * m, code.generator))
            assert is_dual_containing(code) == expected, (p, u, v, lam)
            hu, hv = (half.parity_check for half in code._plotkin[:2])
            if (lam * lam + 1) % p:
                wrong_rule += (not (hv @ hu.T % p).any()) != expected
    assert wrong_rule > 10


def test_gray_image_of_the_reciprocal_code_is_the_euclidean_dual():
    # phi(C*) = phi(C)^perp, against the kernel dual, on every assignment of
    # three p = 1 (mod 4) grids
    for fa in every_assignment(((5, 6), (13, 4), (17, 4))):
        gray = GrayMap(fa.p)
        image = gray.image(cyclic_code_from_assignment(fa))
        reciprocal = gray.image(cyclic_code_from_assignment(reciprocal_assignment(fa)))
        assert reciprocal == image.euclidean_dual(), (fa.p, fa.s, fa.key())


def test_min_distance_of_dual_containing_gray_images_matches_the_references():
    # cyclic_css, whose cyclic halves start from column 0, against the unbatched DFS,
    # the plain code's search and, where p^k <= 2^16, codeword enumeration
    grid = ((5, 6), (13, 4), (17, 4), (5, 8), (13, 6), (2, 7))
    checked = enumerated = 0
    for fa in every_assignment(grid):
        code = cyclic_code_from_assignment(fa)
        image = GrayMap(fa.p).image(code)
        found = cyclic_css(code, distance_cap=image.n)
        assert (found is not None) == is_dual_containing(image), (fa.p, fa.s, fa.key())
        if found is None:
            continue
        s, n = fa.s, image.n
        d = reference_distance(image)
        assert LinearCode(fa.p, n, image.generator).min_distance(search_cap=n) == d
        assert image.min_distance(search_cap=n) == d, (fa.p, s, fa.key())
        assert found[0] == image and found[2], (fa.p, s, fa.key())
        assert found[1] == QuantumParams(n, 2 * image.k - n, d, fa.p), (fa.p, s, fa.key())
        if image.size <= 2 ** 16:
            assert min_distance_by_enumeration(image) == d
            enumerated += 1
        checked += 1
    assert (checked, enumerated) == (364, 16)


def test_gray_images_take_their_distance_from_the_plotkin_halves():
    # every nonzero cyclic R-code of six grids: at caps 1, 2 and 3 the Gray image's
    # value or lower bound against the plain code's search (a hit there is d; without
    # one, d by enumeration up to 2^20 words, else the bound cap + 1), at cap n against
    # d from codeword enumeration where p^k <= 2^16, else from the plain code's DFS
    grid = ((5, 6), (13, 4), (17, 4), (5, 8), (13, 6), (2, 7))
    checked = enumerated = 0
    for fa in every_assignment(grid):
        code = cyclic_code_from_assignment(fa)
        if code.rank == 0:
            continue
        image = GrayMap(fa.p).image(code)
        n, plain = image.n, LinearCode(fa.p, image.n, image.generator)
        assert image._plotkin is not None and plain._plotkin is None
        if image.size <= 2 ** 16:
            d = min_distance_by_enumeration(plain)
            enumerated += 1
        else:
            d = plain.min_distance(search_cap=n)
        for cap in (1, 2, 3):
            hit = _smallest_dependent_subset(plain.parity_check, fa.p, cap, n)
            assert hit in (None, d), (fa.p, fa.s, fa.key(), cap)
            expected = (d, True) if hit or image.size <= 2 ** 20 else (cap + 1, False)
            assert outcome(image, cap) == expected, (fa.p, fa.s, fa.key(), cap)
        assert outcome(image, n) == (d, True), (fa.p, fa.s, fa.key())
        checked += 1
    assert (checked, enumerated) == (1722, 540)


def test_every_cyclic_half_starts_its_search_from_column_0(monkeypatch):
    # every nonzero half < g > of six grids is found cyclic; at every cap 1..s its
    # distance, searched from column 0 alone, is that of a search from all s columns,
    # and where p^k <= 2^16 the enumerated d
    clear_caches()
    starts = recorded_starts(monkeypatch)
    grid = ((5, 6), (13, 4), (17, 4), (5, 8), (13, 6), (2, 7))
    halves = {id(half): half for fa in every_assignment(grid)
              for half in cyclic_code_from_assignment(fa)._split[:2] if half.k}
    enumerated = 0
    for half in halves.values():
        p, s, k = half.p, half.n, half.k
        assert half.is_cyclic(), (p, s, half.generator)
        for cap in range(1, s + 1):
            every = _smallest_dependent_subset(half.parity_check, p, min(cap, s - k + 1), s)
            starts.clear()
            assert half._distance(cap) == (every or cap + 1), (p, s, half.generator, cap)
            assert starts == [1]
        if half.size <= 2 ** 16:
            assert half._distance(s) == min_distance_by_enumeration(half)
            enumerated += 1
    assert (len(halves), enumerated) == (178, 165)


def test_a_cold_search_starts_every_distance_search_from_column_0(monkeypatch):
    # every half of a (17, 8) search is cyclic, so no search starts from another column
    clear_caches()
    starts = recorded_starts(monkeypatch)
    assert len(search_dual_containing(17, 8)) == 22
    assert starts and set(starts) == {1}


def test_cyclic_css_refuses_only_codes_that_are_not_r_codes():
    fa, code = code_from_table_generators(17, 8, [4, 5, 3, 1], [9, 14, 14, 8, 10, 12, 1])
    # a word outside the cyclic code: the span is no cyclic code but still contains
    # the image's dual, which is then searched from every column for its parameters
    extra = np.zeros(code.profile.n, dtype=np.int64)
    extra[[0, 2]] = 1
    wider = span_closure([unflatten(row, code.profile) for row in [*code.basis, extra]])
    assert wider.rank > code.rank and not wider.is_constacyclic()
    image, params, exact = cyclic_css(wider, distance_cap=16)
    assert image == GrayMap(17).image(wider) and not image.is_cyclic() and exact
    assert params == QuantumParams(16, 2 * image.k - 16, reference_distance(image), 17)
    # a Z_p or S block is no R-code
    for profile in (BlockProfile(5, 1, 2, 0), BlockProfile(5, 0, 2, 1), BlockProfile(5, 2, 0, 0)):
        with pytest.raises(ProfileMismatch):
            cyclic_css(AdditiveCode.full_space(profile))


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


def test_search_coerces_numpy_integers_and_refuses_others():
    want = search_dual_containing(5, 4)
    got = search_dual_containing(np.int64(5), np.int64(4))
    assert repr(got) == repr(want) and len(got) == 7
    assert all(type(h.gray_n) is int and type(h.generator.p) is int for h in got)
    for args in ((5.0, 4), (5, 4.0), (5, 1.5)):
        with pytest.raises(MalformedInput):
            search_dual_containing(*args)


def test_a_factor_assignment_reads_p_and_s_as_integers():
    factors = factors_of(5, 4)
    fa = FactorAssignment(np.int64(5), np.int64(4), factors, (), ())
    assert (type(fa.p), type(fa.s)) == (int, int)
    assert fa == FactorAssignment(5, 4, factors, (), ())
    gens = [1, 3, 2, 1], [3, 0, 4, 0, 2, 0, 1]          # a (5, 8) table row
    assert code_from_table_generators(np.int64(5), np.int64(8), *gens)[1] \
        == cyclic_code_from_generators(5, 8, *gens)
    for make, args in ((FactorAssignment, (5.0, 4, factors, (), ())),
                       (FactorAssignment, (5, 4.0, factors, (), ())),
                       (FactorAssignment.from_slots, ("5", 4, [], [], [])),
                       *((build, (5, s, *gens)) for s in (8.0, "8")
                         for build in (cyclic_code_from_generators, code_from_table_generators))):
        with pytest.raises(MalformedInput, match="not an integer"):
            make(*args)


def test_distance_caps_below_one_act_as_one_and_caps_are_integers():
    # a cap below 1 searches weight 1 only, so a bound is 2, never cap + 1 <= 1
    at_one = repr(search_dual_containing(5, 6, distance_cap=1))
    assert "distance_exact=False" in at_one
    for cap in (0, -3, np.int64(0)):
        assert repr(search_dual_containing(5, 6, distance_cap=cap)) == at_one
    for cap in (2.5, "3", None):
        with pytest.raises(MalformedInput, match="distance_cap"):
            search_dual_containing(5, 6, distance_cap=cap)
    fa, code = code_from_table_generators(17, 8, [4, 5, 3, 1], [9, 14, 14, 8, 10, 12, 1])
    for cap in (2.5, "3"):
        with pytest.raises(MalformedInput, match="search_cap"):
            cyclic_css(code, distance_cap=cap)
        with pytest.raises(MalformedInput, match="search_cap"):
            css(GrayMap(17).image(code), search_cap=cap)


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
    # x^40 - 1 splits into 40 linear factors over Z_41, and x^20 - 1 into 20: 3^20
    # assignments, which the search refuses before walking any of them
    with pytest.raises(TooManyFactors):
        search_dual_containing(41, 40)
    start = time.perf_counter()
    with pytest.raises(TooManyFactors, match="20 irreducible factors; bound is 12"):
        search_dual_containing(41, 20)
    assert time.perf_counter() - start < 1


def test_a_warm_search_looks_up_each_half_once():
    # the walk resolves each factor subset's half once per search: 2^t _half lookups,
    # all of them hits once the halves are built
    for p, s in ((5, 8), (17, 8)):
        search_dual_containing(p, s)
        before = quantum._half.cache_info()
        search_dual_containing(p, s)
        after = quantum._half.cache_info()
        assert after.misses == before.misses
        assert after.hits - before.hits <= 1 << len(factors_of(p, s)), (p, s)


def test_subset_caches_hold_every_subset_of_the_largest_search():
    # a search keys at most 2^t factor subsets, t <= MAX_FACTORS: none of its
    # products, hat polynomials or halves is evicted within the search
    for cache in (quantum._product, quantum._poly, quantum._half):
        assert cache.cache_info().maxsize >= 1 << quantum.MAX_FACTORS, cache


def test_import_loads_no_process_pool():
    # every search runs in one process, whatever jobs it is given: neither importing
    # zprs nor a search nor a distance loads a process pool
    import zprs
    paths = [str(Path(zprs.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    probe = ("import sys, zprs; zprs.search_dual_containing(5, 8, jobs=2); "
             "zprs.LinearCode(2, 7, [[1, 1, 0, 1, 0, 0, 0]]).min_distance(jobs=2); "
             "print(sorted(m for m in sys.modules "
             "if m.startswith(('multiprocessing', 'concurrent.futures'))))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"


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
    # the evaluator reads the halves < F1 + F2 > and < F2 > of each code: F1 = (x + 1)
    # are slots (1, 0), F1 = (x^2 + x + 1) slots (0, 1), and F2 is empty in both
    whole = quantum._half((1,), 2, 3)
    first, second = quantum._half((1, 1), 2, 3), quantum._half((1, 1, 1), 2, 3)
    crafted = {first: True, second: False}
    def evaluate(code, distance_cap):
        a, b, _ = code._split
        if b == whole and a in crafted:
            return None, QuantumParams(6, 2, 2, 2), crafted[a]
        return None
    monkeypatch.setattr(quantum, "cyclic_css", evaluate)
    [hit] = search_dual_containing(2, 3)
    assert hit.distance_exact and str(hit.params) == "[[6,2,2]]_2"
    assert (hit.gray_n, hit.gray_k) == (6, 4)       # k = (n + k_Q) / 2
    assert hit.assignment.f0 == (Poly.make([1, 1, 1], 2),)
    crafted[second] = True     # both exact: smaller slots win
    [hit] = search_dual_containing(2, 3)
    assert hit.distance_exact and hit.assignment.f0 == (Poly.make([1, 1], 2),)


def test_search_results_are_deterministic_and_sorted():
    hits1 = search_dual_containing(5, 8)
    hits2 = search_dual_containing(5, 8)
    key = lambda h: (h.params.n, h.params.k, h.params.d)
    assert [key(h) for h in hits1] == sorted(key(h) for h in hits1)
    assert [(key(h), h.assignment.key()) for h in hits1] \
        == [(key(h), h.assignment.key()) for h in hits2]
    # the hats of both searches' hits are the same objects
    assert all(h1.generator is h2.generator and h1.u_generator is h2.u_generator
               for h1, h2 in zip(hits1, hits2))


def test_table_rows_build_no_factorization(monkeypatch):
    # every row of the reproduced table is built from its two generators alone
    import zprs.polynomials as polynomials
    import zprs.reproduce as reproduce
    calls = []
    for module in (polynomials, quantum):
        monkeypatch.setattr(module, "factor_xn_minus_lambda",
                            lambda *args: calls.append(args) or [])
    items = reproduce.run_table1()
    assert len(items) == 7 and all(item.ok for item in items), items
    assert calls == []


def test_table_rows_and_searches_share_their_halves():
    # a half is keyed by its generator, so the (17, 8) row reads the halves that the
    # search built, memoized distances included, and builds none of its own
    quantum._half.cache_clear()
    search_dual_containing(17, 8)
    misses = quantum._half.cache_info().misses
    code = cyclic_code_from_generators(17, 8, [4, 5, 3, 1], [9, 14, 14, 8, 10, 12, 1])
    assert quantum._half.cache_info().misses == misses
    a, b, _ = code._split
    fa, _ = code_from_table_generators(17, 8, [4, 5, 3, 1], [9, 14, 14, 8, 10, 12, 1])
    assert a is quantum._half((4, 5, 3, 1), 17, 8)
    assert b is quantum._half(fa.slot_product(2).int_key, 17, 8)
    assert quantum._half.cache_info().misses == misses
    assert all(x is y for x, y in zip(cyclic_code_from_assignment(fa)._split, (a, b)))


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
        expected = additive_dual_containing(cr) and additive_dual_containing(cs)
        assert separable_rs_dual_containing(cr, cs) == expected


def test_quantum_params_remark():
    assert QuantumParams(16, 8, 4, 17).saturates_singleton_remark()
    assert not QuantumParams(16, 8, 3, 5).saturates_singleton_remark()
