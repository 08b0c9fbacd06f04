"""Acceptance suite: each test covers one exit criterion and prints one
PASS line when it holds.  Expected values are frozen from independent
enumeration (Examples) and from the published parameter table; nothing
here is derived from the code under test.
"""

import itertools
import time

import numpy as np

from zprs.additive import shift_module_span, span_closure
from zprs.enumerators import (char_exponent_matrix, hamming_enumerator,
                              hamming_transform, lee_enumerator, lee_transform,
                              macwilliams_complete_check, symmetrized_enumerator,
                              symmetrized_transform)
from zprs.gray import GrayMap
from zprs.linear import LinearCode, min_distance_by_enumeration
from zprs.polynomials import Poly, hat
from zprs.quantum import code_from_table_generators, css, cyclic_css, is_dual_containing
from zprs.rings import ChainElement
from zprs.words import BlockProfile, MixedWord, unflatten

P2 = BlockProfile(2, 2, 2, 2)

GENERATORS = [
    ((1, 0), ((0, 0), (0, 1)), ((1, 0, 1), (0, 0, 0))),
    ((0, 1), ((1, 1), (0, 0)), ((0, 0, 0), (1, 1, 0))),
]

EXPANDED_GENERATORS = GENERATORS + [
    ((0, 0), ((0, 0), (0, 0)), ((0, 1, 0), (0, 0, 0))),
    ((0, 0), ((0, 0), (0, 0)), ((0, 0, 1), (0, 0, 0))),
    ((0, 0), ((0, 1), (0, 0)), ((0, 0, 0), (0, 1, 1))),
    ((0, 0), ((0, 0), (0, 0)), ((0, 0, 0), (0, 0, 1))),
]

DUAL_BASIS = [
    ((0, 0), ((0, 0), (0, 1)), ((0, 0, 0), (0, 0, 0))),
    ((1, 0), ((0, 0), (1, 0)), ((0, 0, 0), (0, 0, 0))),
    ((0, 0), ((0, 1), (0, 0)), ((0, 0, 0), (0, 0, 1))),
    ((0, 1), ((0, 1), (0, 0)), ((0, 0, 0), (0, 0, 0))),
    ((0, 0), ((1, 1), (0, 0)), ((0, 0, 0), (0, 1, 1))),
    ((1, 0), ((0, 0), (0, 0)), ((0, 0, 1), (0, 0, 0))),
]

HAMMING = {0: 1, 1: 4, 2: 59}

SYMMETRIZED_PRIMAL = {(0, 0): 1, (2, 2): 5, (0, 3): 1, (2, 3): 8, (0, 2): 2, (0, 1): 1,
                      (1, 3): 3, (3, 5): 7, (3, 4): 11, (4, 5): 6, (3, 3): 3, (1, 2): 4,
                      (1, 5): 1, (1, 4): 1, (2, 4): 4, (4, 4): 4, (5, 5): 2}
SYMMETRIZED_DUAL = {(0, 0): 1, (0, 3): 2, (1, 1): 3, (1, 4): 5, (1, 2): 4, (1, 5): 2,
                    (2, 4): 8, (2, 2): 3, (2, 5): 3, (1, 3): 2, (3, 4): 6, (3, 3): 5,
                    (4, 4): 2, (2, 3): 8, (0, 2): 1, (3, 5): 4, (4, 5): 2, (0, 5): 1,
                    (1, 6): 1, (4, 6): 1}

LEE_PRIMAL = {0: 1, 1: 1, 2: 2, 3: 5, 4: 8, 5: 9, 6: 8, 7: 11, 8: 11, 9: 6, 10: 2}
LEE_DUAL = {0: 1, 2: 4, 3: 6, 4: 5, 5: 14, 6: 15, 7: 10, 8: 6, 9: 2, 10: 1}

TABLE1 = [
    (5, 8, [1, 3, 2, 1], [3, 0, 4, 0, 2, 0, 1], (16, 12, 3), (16, 8, 3)),
    (5, 8, [2, 0, 1], [2, 0, 4, 0, 3, 0, 1], (16, 14, 2), (16, 12, 2)),
    (13, 6, [12, 6, 8, 1], [4, 12, 0, 9, 1], (12, 8, 4), (12, 4, 4)),
    (13, 8, [12, 5, 5, 1], [5, 0, 12, 0, 8, 0, 1], (16, 12, 3), (16, 8, 3)),
    (13, 8, [5, 6, 1], [5, 7, 1, 0, 5, 7, 1], (16, 14, 2), (16, 12, 2)),
    (13, 18, [3, 0, 12, 5, 0, 7, 10, 0, 1], ("cofactor", [12, 3, 0, 4, 1]),
     (36, 24, 5), (36, 12, 5)),
    (17, 8, [4, 5, 3, 1], [9, 14, 14, 8, 10, 12, 1], (16, 12, 4), (16, 8, 4)),
]


def words(raw):
    return [MixedWord.make(P2, *blocks) for blocks in raw]


def c2():
    return span_closure(words(GENERATORS))


def bivariate(enum):
    return {dict(key).get(1, 0): coeff for key, coeff in enum.terms.items()}


def sym_terms(enum):
    out = {}
    for key, coeff in enum.terms.items():
        exps = []
        for var, exp in key:
            exps.extend([var] * exp)
        out[tuple(sorted(exps))] = coeff
    return out


def random_additive(rng, profile, n_gens):
    return span_closure([unflatten(rng.integers(0, profile.p, size=profile.n), profile)
                         for _ in range(n_gens)], profile=profile)


def test_criterion_1_example_1_span_closure():
    start = time.time()
    code = c2()
    assert code.rank == 6
    for w in words(EXPANDED_GENERATORS):
        assert code.contains(w)
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: span closure has rank 6 and contains all six "
          f"listed generators ({elapsed * 1000:.0f} ms)")


def test_criterion_2_example_2_duality():
    start = time.time()
    dual = c2().dual()
    assert dual.rank == 6
    for w in words(DUAL_BASIS):
        assert dual.contains(w)
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(f"\nPASS criterion 2: dual has rank 6 and contains the six published "
          f"basis words ({elapsed * 1000:.0f} ms)")


def test_criterion_3_hamming_enumerators_and_transform():
    code = c2()
    primal = hamming_enumerator(code)
    dual = hamming_enumerator(code.dual())
    assert bivariate(primal) == HAMMING
    assert bivariate(dual) == HAMMING
    assert hamming_transform(primal, 64, 2) == dual
    print("\nPASS criterion 3: Hamming enumerators are x^2 + 4xy + 59y^2 and the "
          "transform maps primal to dual exactly")


def test_criterion_4_symmetrized_enumerators_and_transform():
    code = c2()
    primal = symmetrized_enumerator(code)
    dual = symmetrized_enumerator(code.dual())
    assert sym_terms(primal) == SYMMETRIZED_PRIMAL
    assert sym_terms(dual) == SYMMETRIZED_DUAL
    assert primal.coefficient(((3, 1), (4, 1))) == 11
    assert dual.coefficient(((1, 1), (6, 1))) == 1
    assert symmetrized_transform(primal, 64, 2) == dual
    print("\nPASS criterion 4: symmetrized enumerators match term-for-term "
          "(17 and 20 terms) and the Q transform maps primal to dual")


def test_criterion_5_lee_enumerators_and_transform():
    code = c2()
    primal = lee_enumerator(code)
    dual = lee_enumerator(code.dual())
    assert bivariate(primal) == LEE_PRIMAL
    assert bivariate(dual) == LEE_DUAL
    assert lee_transform(primal, 64, 2) == dual   # (x + y, x - y) at p = 2
    print("\nPASS criterion 5: Lee enumerators match exactly and "
          "(x+y, x-y)/64 maps primal to dual")


def test_criterion_6_complete_macwilliams_p2():
    code = c2()
    assert macwilliams_complete_check(code)
    assert macwilliams_complete_check(code, code.dual())

    rng = np.random.default_rng(20230614)
    passed = failed = 0
    while passed < 50 or failed < 50:
        n = 1 + (passed + failed) % 2
        profile = BlockProfile(2, n, n, n)
        code = random_additive(rng, profile, n_gens=int(rng.integers(1, 3)))
        if passed < 50:
            assert macwilliams_complete_check(code)
            passed += 1
        if failed < 50:
            dual = code.dual()
            if failed % 2 == 0 or dual.rank == 0:
                # grow the dual by a word outside it
                while True:
                    extra = unflatten(rng.integers(0, 2, size=profile.n), profile)
                    if not dual.contains(extra):
                        break
                perturbed = span_closure(dual.basis_words() + [extra], profile=profile)
            else:
                # shrink the dual by dropping one basis word
                perturbed = span_closure(dual.basis_words()[1:], profile=profile)
            if perturbed == dual:
                continue
            assert not macwilliams_complete_check(code, perturbed)
            failed += 1
    print(f"\nPASS criterion 6: complete MacWilliams identity holds on the worked "
          f"pair and {passed} random codes, and fails on {failed} perturbed pairs")


def test_criterion_7_quantum_code_table():
    start = time.time()
    reports = []
    for p, s, f0_hat, f1_hat, gray_expected, css_expected in TABLE1:
        if isinstance(f1_hat, tuple):
            f1_hat = hat(Poly.make(f1_hat[1], p), p, s, 1).int_coeffs()
        fa, code = code_from_table_generators(p, s, f0_hat, f1_hat)
        image, params, exact = cyclic_css(code)
        # the plain code's unhinted search is the reference for the hinted Plotkin path
        d = LinearCode(image.p, image.n, image.generator).min_distance()
        got = ((image.n, image.k, d), (params.n, params.k, params.d), exact)
        expected = (gray_expected, css_expected, True)
        if got != expected:
            reports.append(f"p={p} s={s}: got {got}, expected {expected}")
    elapsed = time.time() - start
    assert not reports, "discrepancy report:\n" + "\n".join(reports)
    assert elapsed < 180
    print(f"\nPASS criterion 7: all 7 table rows reproduce their Gray and quantum "
          f"parameters exactly ({elapsed:.1f} s)")


def test_criterion_8_section6_end_to_end():
    fa, code = code_from_table_generators(17, 8, [4, 5, 3, 1],
                                          [9, 14, 14, 8, 10, 12, 1])
    assert fa.hat(0) == Poly.make([4, 5, 3, 1], 17)      # x^3 + 3x^2 + 5x + 4
    image = GrayMap(17).image(code)
    assert (image.n, image.k, image.min_distance()) == (16, 12, 4)
    assert is_dual_containing(image)
    params = css(image)
    assert (params.n, params.k, params.d, params.p) == (16, 8, 4, 17)
    print("\nPASS criterion 8: p=17, s=8 worked example gives generator "
          "x^3+3x^2+5x+4, a dual-containing [16,12,4] image and [[16,8,4]]_17")


def test_criterion_9a_dual_involution_and_cardinality():
    rng = np.random.default_rng(99)
    profiles = [BlockProfile(p, q, r, s)
                for p in (2, 3) for q in (0, 1, 2) for r in (0, 1, 2) for s in (0, 1, 2)
                if q + r + s >= 1]
    count = 0
    while count < 500:
        pr = profiles[count % len(profiles)]
        code = random_additive(rng, pr, n_gens=1 + count % 3)
        dual = code.dual()
        assert code.rank + dual.rank == pr.n
        assert dual.dual() == code
        count += 1
    print(f"\nPASS criterion 9a: dual involution and |C| |C_dual| = p^N on "
          f"{count} random codes over p in {{2, 3}}")


def test_criterion_9b_dual_constacyclicity():
    rng = np.random.default_rng(7)
    count = 0
    while count < 100:
        p = (2, 3, 5)[count % 3]
        q, r, s = (int(rng.integers(1, 4)) for _ in range(3))
        if q % p == 0 or r % p == 0 or s % p == 0:
            continue
        pr = BlockProfile(p, q, r, s)
        mu0 = int(rng.integers(1, p))
        mu1 = (int(rng.integers(1, p)), int(rng.integers(0, p)))
        mu2 = (int(rng.integers(1, p)), int(rng.integers(0, p)), int(rng.integers(0, p)))
        code = shift_module_span(
            [unflatten(rng.integers(0, p, size=pr.n), pr) for _ in range(2)],
            mu0, mu1, mu2, profile=pr)
        assert code.is_constacyclic(mu0, mu1, mu2)
        inv = (ChainElement.make(mu0, p, 1).inverse(),
               ChainElement.make(mu1, p, 2).inverse(),
               ChainElement.make(mu2, p, 3).inverse())
        assert code.dual().is_constacyclic(*inv)
        count += 1
    print(f"\nPASS criterion 9b: duals of {count} random constacyclic codes are "
          f"constacyclic for the inverse units")


def test_criterion_9c_gray_dual_commutation_exhaustive():
    gray = GrayMap(2)
    checked = 0
    for q, r, s in itertools.product(range(3), repeat=3):
        if q + r + s == 0:
            continue
        pr = BlockProfile(2, q, r, s)
        seen = set()
        for bits in itertools.product(range(2), repeat=pr.n):
            code = span_closure([unflatten(bits, pr)], profile=pr)
            key = code.basis.tobytes()
            if key in seen:
                continue
            seen.add(key)
            assert gray.image(code.dual()) == gray.image(code).euclidean_dual()
            checked += 1
    print(f"\nPASS criterion 9c: Gray image of the dual equals the Euclidean dual "
          f"of the Gray image for all {checked} principal codes with N <= 12")


def test_criterion_9d_shift_intertwining():
    rng = np.random.default_rng(3)
    from zprs.words import constacyclic_shift
    checked = 0
    for p in (2, 5, 13):
        gray = GrayMap(p)
        for _ in range(334):
            q, r, s = (int(rng.integers(1, 4)) for _ in range(3))
            pr = BlockProfile(p, q, r, s)
            mu0, mu1, mu2 = (int(rng.integers(1, p)) for _ in range(3))
            w = unflatten(rng.integers(0, p, size=pr.n), pr)
            image = gray.word(constacyclic_shift(w, mu0, mu1, mu2))
            v = gray.word(w)
            out, pos = [], 0
            for lam, m in ((mu0, q), (mu1, r), (mu1, r), (mu2, s), (mu2, s), (mu2, s)):
                block = np.roll(v[pos:pos + m], 1)
                if m:
                    block[0] = block[0] * lam % p
                out.append(block)
                pos += m
            assert (image == np.concatenate(out)).all()
            checked += 1
    assert checked >= 1000
    print(f"\nPASS criterion 9d: Gray commutes with the constacyclic shift through "
          f"the blockwise quasi-twisted shift on {checked} random words")


def test_criterion_9e_quasi_twisted_image_classification():
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 50:
        p = (2, 5, 13)[checked % 3]
        kind = checked % 3
        mu0, mu1, mu2 = (int(rng.integers(1, p)) for _ in range(3))
        if kind == 0:       # constacyclic code over R
            r = int(rng.integers(2, 5))
            pr = BlockProfile(p, 0, r, 0)
            code = shift_module_span([unflatten(rng.integers(0, p, size=pr.n), pr)],
                                     1, mu1, 1, profile=pr)
            assert GrayMap(p).image(code).is_quasi_twisted(mu1, 2)
        elif kind == 1:     # constacyclic code over S
            s = int(rng.integers(2, 5))
            pr = BlockProfile(p, 0, 0, s)
            code = shift_module_span([unflatten(rng.integers(0, p, size=pr.n), pr)],
                                     1, 1, mu2, profile=pr)
            assert GrayMap(p).image(code).is_quasi_twisted(mu2, 3)
        else:               # mixed constacyclic code
            q, r, s = (int(rng.integers(1, 4)) for _ in range(3))
            pr = BlockProfile(p, q, r, s)
            code = shift_module_span([unflatten(rng.integers(0, p, size=pr.n), pr)],
                                     mu0, mu1, mu2, profile=pr)
            assert GrayMap(p).image(code).is_generalized_quasi_twisted(
                [mu0, mu1, mu1, mu2, mu2, mu2], [q, r, r, s, s, s])
        checked += 1
    print(f"\nPASS criterion 9e: Gray images of {checked} constructed constacyclic "
          f"codes pass their quasi-twisted classification")


def test_criterion_9f_distance_oracle_equivalence():
    rng = np.random.default_rng(55)
    checked = 0
    while checked < 100:
        p = (2, 3, 5, 7, 13)[checked % 5]
        n = int(rng.integers(3, 14))
        k = int(rng.integers(1, n + 1))
        if p ** k > 2 ** 14:
            continue
        code = LinearCode(p, n, rng.integers(0, p, size=(k, n)))
        if code.k == 0:
            continue
        assert code.min_distance(search_cap=n) == min_distance_by_enumeration(code)
        checked += 1
    print(f"\nPASS criterion 9f: subset-rank search distance equals brute-force "
          f"enumeration on {checked} codes with p^k <= 2^14")


def test_criterion_10_character_orthogonality():
    for p in (2, 3):
        e = char_exponent_matrix(p)
        counts = np.stack([(e == t).sum(axis=0) for t in range(p)], axis=1)
        coeffs = counts[:, : p - 1] - counts[:, p - 1:]
        assert (coeffs[0, 0], ) == (p ** 6, )
        assert not coeffs[0, 1:].any()
        assert not coeffs[1:].any()
    print("\nPASS criterion 10: sum_f chi(f g) = p^6 [g = 0] exhaustively "
          "for p in {2, 3}")
