import functools
import itertools
import random

import numpy as np
import pytest

import zprs.polynomials as polynomials
from zprs.errors import (GcdViolation, MalformedInput, ModulusTooLarge, NonUnitLeadingCoefficient,
                         NotADivisor, NotAUnit, ZeroConstantTerm)
from zprs.linalg import kernel_basis
from zprs.polynomials import (Poly, _zp_gcd, divides, factor_xn_minus_lambda, hat, parse_poly,
                              poly_divmod, reciprocal, x_pow_n_minus)
from zprs.rings import ChainElement

from oracles import rho_substitute


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd over Z_p by the Euclidean algorithm on Poly."""
    while g:
        f, g = g, poly_divmod(f, g)[1]
    return f.monic() if f else f


def is_irreducible(f: Poly) -> bool:
    """Oracle: trial division by every monic polynomial of degree <= deg f / 2."""
    d = f.degree
    if d <= 0:
        return False
    p = f.p
    for e in range(1, d // 2 + 1):
        for tail in itertools.product(range(p), repeat=e):
            if poly_divmod(f, Poly.make(list(tail) + [1], p))[1].is_zero:
                return False
    return True


@functools.lru_cache(maxsize=None)
def _divides_xn_minus(p: int, n: int, d: int) -> np.ndarray:
    """Entry i is c when the monic g_i of degree d divides x^n - c, else 0.

    g_i has the base-p digits of i as its low coefficients.  Computes x^n mod
    every g_i at once, in chunks, by repeated multiplication by x; int16
    holds the intermediate values, which stay below p^2, for p <= 181.
    """
    out = []
    for start in range(0, p ** d, 1 << 16):
        idx = np.arange(start, min(start + (1 << 16), p ** d))
        low = (idx[:, None] // p ** np.arange(d) % p).astype(np.int16)
        rem = -low % p                            # x^d mod g_i
        for _ in range(n - d):
            top = rem[:, -1:].copy()
            rem[:, 1:] = rem[:, :-1]
            rem[:, :1] = 0
            rem -= top * low
            rem %= p
        out.append(np.where((rem[:, 1:] == 0).all(axis=1), rem[:, 0], 0))
    return np.concatenate(out)


def trial_division_factors(p: int, n: int, lam: int) -> list[Poly]:
    """Oracle: x^n - lambda factored by trial division, in canonical order.

    Tries every monic polynomial of degree 1, 2, ... (vectorized over each
    degree) while the unfactored degree is at least twice it; a divisor not
    divisible by a factor found before is irreducible, and what is left at
    the end is irreducible.
    """
    lam %= p
    factors, left, d = [], n, 1
    while left >= 2 * d:
        for i in np.flatnonzero(_divides_xn_minus(p, n, d) == lam):
            g = Poly.make([int(i) // p ** j % p for j in range(d)] + [1], p)
            if not any(divides(h, g) for h in factors):
                factors.append(g)
                left -= d
        d += 1
    if left:
        rest = x_pow_n_minus(lam, n, p)
        for h in factors:
            rest = poly_divmod(rest, h)[0]
        factors.append(rest)
    return sorted(factors, key=lambda f: (f.degree, tuple(f.int_coeffs())))


def cyclotomic_coset_sizes(p: int, n: int) -> list[int]:
    """Sizes of the orbits of j -> p j on Z_n: the factor degrees of x^n - 1."""
    seen, sizes = set(), []
    for j in range(n):
        orbit, k = set(), j
        while k not in orbit and k not in seen:
            orbit.add(k)
            k = k * p % n
        if orbit:
            seen |= orbit
            sizes.append(len(orbit))
    return sorted(sizes)


def test_multiplication_examples():
    x1 = Poly.make([1, 1], 2)
    assert x1 * x1 == Poly.make([1, 0, 1], 2)        # (x+1)^2 = x^2+1 over F_2
    prod = Poly.make([9, 1], 17) * Poly.make([13, 1], 17) * Poly.make([15, 1], 17)
    assert prod == Poly.make([4, 5, 3, 1], 17)       # x^3 + 3x^2 + 5x + 4
    f = Poly.make([2, 0, 3], 5)
    assert f + Poly.zero(5) == f


def test_divmod_examples():
    q, r = poly_divmod(Poly.make([4, 0, 1], 5), Poly.make([4, 1], 5))   # (x^2-1)/(x-1)
    assert q == Poly.make([1, 1], 5) and r.is_zero
    q, r = poly_divmod(x_pow_n_minus(1, 8, 17), Poly.make([16, 1], 17))
    assert q == Poly.make([1] * 8, 17) and r.is_zero
    # division by u*x over R is undefined
    with pytest.raises(NonUnitLeadingCoefficient):
        poly_divmod(Poly.make([(0, 1), (0, 0), (1, 0)], 2, 2),
                    Poly.make([(0, 0), (0, 1)], 2, 2))


def test_divmod_property_random():
    rng = random.Random(11)
    for p, k in ((5, 1), (2, 2), (3, 3)):
        for _ in range(60):
            f = Poly.make([tuple(rng.randrange(p) for _ in range(k))
                           for _ in range(rng.randrange(1, 7))], p, k)
            g_coeffs = [tuple(rng.randrange(p) for _ in range(k))
                        for _ in range(rng.randrange(1, 4))]
            g_coeffs[-1] = (1,) + (0,) * (k - 1)     # monic divisor
            g = Poly.make(g_coeffs, p, k)
            q, r = poly_divmod(f, g)
            assert q * g + r == f
            assert r.degree < g.degree


def test_evaluate_is_the_remainder_mod_x_minus_a():
    # f(a) against the remainder of f divided by x - a, over Z_p, R and S
    rng = random.Random(12)
    for p, k in ((5, 1), (2, 2), (3, 2), (3, 3)):
        for _ in range(40):
            f = Poly.make([tuple(rng.randrange(p) for _ in range(k))
                           for _ in range(rng.randrange(0, 7))], p, k)
            a = tuple(rng.randrange(p) for _ in range(k))
            _, r = poly_divmod(f, Poly.make([tuple(-c % p for c in a), 1], p, k))
            assert f.evaluate(a) == (r.coeffs[0] if r.coeffs else ChainElement.zero(p, k)), \
                (p, k, f, a)


def test_divides_examples():
    assert divides(Poly.make([1, 1], 5), Poly.make([4, 0, 1], 5))
    assert divides(Poly.make([2, 1], 5), Poly.make([1, 0, 1], 5))   # x^2+1 = (x+2)(x+3)
    assert not divides(Poly.make([1, 1], 2), Poly.make([1, 1, 1], 2))


def test_zp_division_recovers_quotient_and_remainder():
    # Z_p polynomials are divided as integer arrays; f = h g + r0 with deg r0 < deg g
    # is built by Poly arithmetic, divisors with a leading coefficient other than 1
    rng = random.Random(17)
    for p in (2, 5, 13):
        for _ in range(40):
            g = Poly.make([rng.randrange(p) for _ in range(rng.randrange(4))]
                          + [rng.randrange(1, p)], p)
            h = Poly.make([rng.randrange(p) for _ in range(rng.randrange(5))], p)
            r0 = Poly.make([rng.randrange(p) for _ in range(rng.randrange(g.degree + 1))], p)
            f = h * g + r0
            assert poly_divmod(f, g) == (h, r0)
            assert divides(g, f) == r0.is_zero
        for n in (4, 6, 7):
            if n % p:
                for f in factor_xn_minus_lambda(p, n, 1):
                    c = rng.randrange(1, p)
                    assert hat(f.scale(c), p, n, 1) * f.scale(c) == x_pow_n_minus(1, n, p)
    with pytest.raises(NotADivisor):
        hat(Poly.make([6, 2], 17), 17, 8, 1)     # 2(x + 3), and -3 is not an 8th root of unity


def test_factor_examples():
    f17 = factor_xn_minus_lambda(17, 8, 1)
    roots = sorted((-f.int_coeffs()[0]) % 17 for f in f17)
    assert roots == [1, 2, 4, 8, 9, 13, 15, 16]
    assert factor_xn_minus_lambda(3, 2, 1) == [Poly.make([1, 1], 3), Poly.make([2, 1], 3)]
    assert factor_xn_minus_lambda(2, 3, 1) == [Poly.make([1, 1], 2), Poly.make([1, 1, 1], 2)]
    # primes above the 2^16 chunk of the root evaluation; 256^2 = -1 mod 65537
    assert [f.int_coeffs() for f in factor_xn_minus_lambda(65537, 4, 1)] \
        == [[1, 1], [256, 1], [65281, 1], [65536, 1]]
    assert [f.int_coeffs() for f in factor_xn_minus_lambda(100003, 4, 1)] \
        == [[1, 1], [100002, 1], [1, 0, 1]]


def test_factor_errors():
    with pytest.raises(GcdViolation):
        factor_xn_minus_lambda(2, 4, 1)
    with pytest.raises(GcdViolation):
        factor_xn_minus_lambda(5, 3, 0)


def test_factor_invariants():
    for p, n, lam in ((2, 7, 1), (3, 8, 1), (5, 8, 1), (5, 4, 2), (13, 6, 1), (13, 18, 1),
                      (7, 6, 3)):
        factors = factor_xn_minus_lambda(p, n, lam)
        product = Poly.one(p)
        for f in factors:
            product = product * f
            assert is_irreducible(f)
        assert product == x_pow_n_minus(lam, n, p)
        for f, g in itertools.combinations(factors, 2):
            assert poly_gcd(f, g) == Poly.one(p)


def test_factor_matches_trial_division_exhaustive():
    # every unit lambda, p in {2, 3, 5, 13, 17}, 1 <= n <= 12, gcd(n, p) = 1
    for p in (2, 3, 5, 13, 17):
        for n in range(1, 13):
            if n % p == 0:
                continue
            for lam in range(1, p):
                assert factor_xn_minus_lambda(p, n, lam) == trial_division_factors(p, n, lam)


# every (p, n, lambda) with p in GRID_PRIMES, n <= 30, p not dividing n, lambda a unit
GRID_PRIMES = (2, 3, 5, 7, 13, 17)
GRID = [(p, n, lam) for p in GRID_PRIMES for n in range(1, 31) if n % p
        for lam in range(1, p)]


def eliminated_kernel(p: int, n: int, lam: int) -> np.ndarray:
    """Oracle: the Berlekamp kernel by elimination, the RREF basis of the null space of
    (Q - I)^T, row i of Q being x^(p i) mod x^n - lambda = lambda^(p i div n) x^(p i mod n)."""
    q_minus_i = -np.eye(n, dtype=np.int64)
    for i in range(n):
        q_minus_i[i, p * i % n] += pow(lam, p * i // n, p)
    return kernel_basis(q_minus_i.T, p)


def cycle_kernel(p: int, n: int, lam: int, monkeypatch) -> list[np.ndarray]:
    """The basis factor_xn_minus_lambda reads off the cycles of i -> p i mod n.

    A stand-in split that never splits keeps one factor, so the loop hands every
    basis vector to it in order; a basis of one vector stops the loop at once."""
    seen = []

    def no_split(g, v, p):
        seen.append(v.copy())
        return [g]

    with monkeypatch.context() as m:
        m.setattr(polynomials, "_berlekamp_split", no_split)
        assert len(factor_xn_minus_lambda(p, n, lam)) == 1
    return seen


def test_cycle_kernel_is_the_eliminated_kernel_on_the_grid(monkeypatch):
    assert len(GRID) == 1107
    dropped = 0
    for p, n, lam in GRID:
        want = eliminated_kernel(p, n, lam)
        got = cycle_kernel(p, n, lam, monkeypatch)
        if len(want) == 1:                   # v = 1 alone: the loop stops before a split
            assert got == [] and want.tolist() == [[1] + [0] * (n - 1)]
        else:
            assert np.array_equal(np.array(got), want), (p, n, lam)
        cycles = len({min(i * pow(p, e, n) % n for e in range(n)) for i in range(n)})
        dropped += cycles - len(want)
    assert dropped > 0                       # lambda != 1 cases where cycles are dropped


def test_cycle_kernel_examples(monkeypatch):
    # x^4 - 3 over Z_7: i -> 7 i mod 4 has the cycles {0}, {1, 3}, {2}.  On {1, 3} the
    # scalings are 3^1 (at 1) and 3^5 = 5 (at 3), product 1: v is 1 at 1 and 3 at 3.
    # {2} scales by 3^3 = 6 and is dropped
    assert [v.tolist() for v in cycle_kernel(7, 4, 3, monkeypatch)] \
        == [[1, 0, 0, 0], [0, 1, 0, 3]] == eliminated_kernel(7, 4, 3).tolist()
    # x^2 - 2 over Z_5 is irreducible: the cycle {1} scales by 2 and is dropped
    assert eliminated_kernel(5, 2, 2).tolist() == [[1, 0]]
    assert factor_xn_minus_lambda(5, 2, 2) == [Poly.make([3, 0, 1], 5)]


def exhaustive_split(g: np.ndarray, v: np.ndarray, p: int) -> list[Poly]:
    """Oracle: gcd(g, w - c) for every c in Z_p with a nonconstant gcd, c ascending."""
    gp = Poly.make(g.tolist(), p)
    w = poly_divmod(Poly.make(v.tolist(), p), gp)[1]
    parts = [poly_gcd(gp, w - Poly.make([c], p)) for c in range(p)]
    return [h for h in parts if h.degree > 0]


def test_constant_split_returns_at_once(monkeypatch):
    # a spy on the real split: every call matches the exhaustive oracle, and a constant
    # w = v mod g returns [g] itself before the RREF of its minimal polynomial is computed
    split, reduce = polynomials._berlekamp_split, polynomials.rref
    reductions, early = [], {"v = 1": 0, "irreducible": 0}

    def counting_rref(*args):
        reductions.append(args)
        return reduce(*args)

    def spy(g, v, p):
        before = len(reductions)
        out = split(g, v, p)
        assert [Poly.make(h.tolist(), p) for h in out] == exhaustive_split(g, v, p)
        w = poly_divmod(Poly.make(v.tolist(), p), Poly.make(g.tolist(), p))[1]
        if w.degree <= 0:
            assert len(out) == 1 and out[0] is g and len(reductions) == before
            early["v = 1" if v[0] == 1 and not v[1:].any() else "irreducible"] += 1
        else:
            assert len(reductions) == before + 1
        calls.append((g, w, p))
        return out

    monkeypatch.setattr(polynomials, "_berlekamp_split", spy)
    monkeypatch.setattr(polynomials, "rref", counting_rref)
    for p, n, lam in [(2, 23, 1), (2, 27, 1), (3, 14, 1), (5, 13, 1), (13, 18, 1),
                      (17, 8, 1), (5, 12, 2), (7, 30, 3), (3, 20, 2)]:
        calls = []
        factors = factor_xn_minus_lambda(p, n, lam)
        product = Poly.one(p)
        for f in factors:
            product = product * f
        assert product == x_pow_n_minus(lam, n, p)
        for g, w, p in calls:
            # Frobenius: v mod g lies in Z_p for every irreducible factor g
            if Poly.make(g.tolist(), p) in factors:
                assert w.degree <= 0
    assert early["v = 1"] > 0 and early["irreducible"] > 0


def test_zp_gcd_trims_remainders():
    x4_1 = np.array([4, 0, 0, 0, 1])                  # x^4 - 1 over Z_5
    cases = [np.zeros(3, dtype=np.int64),             # all zero: gcd(g, 0) = g
             np.array([3, 0, 0]),                     # one entry after the trim: gcd 1
             np.array([1, 0, 1, 0, 0]),               # interior zero: x^2 + 1 divides
             np.array([0, 2, 0, 0]),                  # 2x: coprime to x^4 - 1
             np.array([4, 1]),                        # x - 1: the next remainder is zero
             np.array([0, 0, 1, 1, 0])]               # x^2 (x + 1)
    for b in cases:
        want = poly_gcd(Poly.make(x4_1.tolist(), 5), Poly.make(b.tolist(), 5))
        got = _zp_gcd(x4_1, b, 5)
        assert Poly.make(got.tolist(), 5) == (want or Poly.make(x4_1.tolist(), 5))
        assert got.size == 0 or got[-1] == 1         # monic, no trailing zeros
    assert _zp_gcd(x4_1, np.zeros(3, dtype=np.int64), 5) is x4_1


def test_factor_coerces_integers_and_refuses_others():
    for p, n, lam in ((13, 18, 1), (5, 12, 2), (3, 8, 2)):
        want = factor_xn_minus_lambda(p, n, lam)
        got = factor_xn_minus_lambda(np.int64(p), np.int64(n), np.int64(lam))
        assert repr([f.int_coeffs() for f in got]) == repr([f.int_coeffs() for f in want])
        assert all(type(f.p) is int for f in got)
    for args in ((5.0, 4, 1), (5, 4.0, 1), (5, 4, 1.5), (1.5, 4, 1), ("5", 4, 1)):
        with pytest.raises(MalformedInput):
            factor_xn_minus_lambda(*args)


@pytest.mark.parametrize("p, n", [(2, 47), (3, 23), (2, 25)])
def test_factor_lengths_beyond_trial_division(p, n):
    factors = factor_xn_minus_lambda(p, n, 1)
    product = Poly.one(p)
    for f in factors:
        product = product * f
    assert product == x_pow_n_minus(1, n, p)
    assert all(f.int_coeffs()[-1] == 1 for f in factors)
    keys = [(f.degree, tuple(f.int_coeffs())) for f in factors]
    assert keys == sorted(keys)
    assert [f.degree for f in factors] == cyclotomic_coset_sizes(p, n)


def test_reciprocal_examples():
    assert reciprocal(Poly.make([1, 1, 1], 2)) == Poly.make([1, 1, 1], 2)
    assert reciprocal(Poly.make([2, 1], 5)) == Poly.make([1, 2], 5)
    assert reciprocal(Poly.make([4, 5, 3, 1], 17)) == Poly.make([1, 3, 5, 4], 17)
    with pytest.raises(ZeroConstantTerm):
        reciprocal(Poly.make([0, 1], 5))


def test_reciprocal_properties():
    rng = random.Random(5)
    for _ in range(100):
        p = rng.choice([2, 3, 5, 13])
        coeffs = [rng.randrange(p) for _ in range(rng.randrange(1, 6))]
        coeffs[0] = rng.randrange(1, p)
        if not any(coeffs[1:]):
            coeffs.append(1)
        g = Poly.make(coeffs, p)
        if g.coeffs[-1].is_zero:
            continue
        assert reciprocal(reciprocal(g)) == g
        h = Poly.make([rng.randrange(1, p)] + [rng.randrange(p)], p)
        if (g * h).coeffs[0].is_zero:
            continue
        assert reciprocal(g * h) == reciprocal(g) * reciprocal(h)


def test_hat_examples():
    assert hat(Poly.make([16, 1], 17), 17, 8, 1) == Poly.make([1] * 8, 17)
    f0 = Poly.make([1, 1], 17) * Poly.make([2, 1], 17) * Poly.make([4, 1], 17) \
        * Poly.make([8, 1], 17) * Poly.make([16, 1], 17)
    assert hat(f0, 17, 8, 1) == Poly.make([4, 5, 3, 1], 17)
    assert hat(x_pow_n_minus(1, 8, 17), 17, 8, 1) == Poly.one(17)
    with pytest.raises(NotADivisor):
        hat(Poly.make([3, 1], 17), 17, 8, 1)     # -3 is not an 8th root of unity


def test_hat_times_f_is_modulus():
    for p, n, lam in ((5, 8, 1), (13, 6, 1), (2, 7, 1)):
        for f in factor_xn_minus_lambda(p, n, lam):
            assert hat(f, p, n, lam) * f == x_pow_n_minus(lam, n, p)


def test_rho_substitute_examples():
    f = Poly.make([1, 1], 5)
    assert rho_substitute(f, 1, 2) == f
    assert rho_substitute(f, 4, 2) == Poly.make([1, 4], 5)    # mu^-1 = 4
    assert rho_substitute(Poly.make([1, 0, 1], 5), 2, 4) == Poly.make([1, 0, 4], 5)
    with pytest.raises(NotAUnit):
        rho_substitute(Poly.make([(1, 0), (0, 1)], 2, 2), (0, 1), 3)


def test_rho_substitute_is_ring_isomorphism():
    # rho(f * g mod x^n - 1) = rho(f) rho(g) mod x^n - mu, >= 1000 trials per
    # configuration; needs n = 1 (mod ord(mu)), which is what makes rho
    # well-defined on the quotients in the first place
    rng = random.Random(17)
    for p, n, mu in ((5, 9, 2), (2, 3, (1, 1)), (13, 4, 3)):
        k = 2 if isinstance(mu, tuple) else 1
        mod1 = x_pow_n_minus(1, n, p, k)
        modmu = x_pow_n_minus(mu, n, p, k)
        for _ in range(1000):
            f = Poly.make([tuple(rng.randrange(p) for _ in range(k)) for _ in range(n)], p, k)
            g = Poly.make([tuple(rng.randrange(p) for _ in range(k)) for _ in range(n)], p, k)
            lhs = rho_substitute(poly_divmod(f * g, mod1)[1], mu, n)
            rhs = poly_divmod(rho_substitute(f, mu, n) * rho_substitute(g, mu, n), modmu)[1]
            assert lhs == rhs


def test_x_pow_n_minus_equals_x_power_minus_constant():
    # the coefficient-list build against x^n - lam as a Poly subtraction
    from zprs.rings import ChainElement
    for p, n, k, lam in ((2, 1, 1, 1), (17, 8, 1, 1), (5, 6, 1, 3), (3, 4, 2, (2, 1)),
                         (5, 3, 3, (1, 4, 2)), (7, 5, 3, ChainElement.make((6, 1), 7, 2))):
        x_n = Poly.make([0] * n + [1], p, k)
        assert x_pow_n_minus(lam, n, p, k) == x_n - Poly(p, k, (ChainElement.make(lam, p, k),))
    with pytest.raises(GcdViolation):
        x_pow_n_minus(1, 0, 5)


def test_a_length_must_be_an_integer():
    # 4.0 and "4" raised a bare TypeError from the tuple product and from <
    x1 = Poly.make([1, 1], 5)
    assert hat(x1, 5, np.int64(4), 1) == hat(x1, 5, 4, 1) == Poly.make([4, 1, 4, 1], 5)
    assert x_pow_n_minus(1, np.int64(3), 5) == Poly.make([4, 0, 0, 1], 5)
    for n in (4.0, "4"):
        for call in (lambda: hat(x1, 5, n, 1), lambda: x_pow_n_minus(1, n, 5)):
            with pytest.raises(MalformedInput, match="n is not an integer"):
                call()


def long_division(f, g, p):
    """(quotient, remainder) of the Z_p coefficient lists f by g in Python integers."""
    f, inv = list(f), pow(g[-1], -1, p)
    q = [0] * max(len(f) - len(g) + 1, 0)
    for i in range(len(q) - 1, -1, -1):
        q[i] = f[i + len(g) - 1] * inv % p
        for j, c in enumerate(g):
            f[i + j] = (f[i + j] - q[i] * c) % p
    return q, f[:len(g) - 1]


def test_zp_division_is_exact_up_to_the_int64_bound():
    # (p - 1)^2 < 2^63 holds for p = 3037000493, the largest prime below the bound, and
    # fails for 3037000507, the next prime; there int64 division gave wrong answers silently
    accepted, rejected = 3037000493, 3037000507
    assert (accepted - 1) ** 2 < 2 ** 63 <= (rejected - 1) ** 2
    rng = random.Random(11)
    for _ in range(200):
        f = [rng.randrange(accepted) for _ in range(rng.randrange(1, 9))]
        g = [rng.randrange(accepted) for _ in range(rng.randrange(4))]
        g.append(rng.randrange(1, accepted))
        q, r = poly_divmod(Poly.make(f, accepted), Poly.make(g, accepted))
        want_q, want_r = long_division(f, g, accepted)
        assert (q, r) == (Poly.make(want_q, accepted), Poly.make(want_r, accepted)), (f, g)
    m = accepted - 1
    assert divides(Poly.make([m, 1], accepted), Poly.make([1, 0, m], accepted))
    assert poly_divmod(Poly.make([0, 0, m], accepted), Poly.make([m, 1], accepted))[0] \
        == Poly.make([m, m], accepted)
    for p in (rejected, 2 ** 61 - 1):
        x1, f = Poly.make([p - 1, 1], p), Poly.make([1, 0, p - 1], p)
        for call in (lambda: divides(x1, f), lambda: poly_divmod(f, x1), lambda: hat(x1, p, 2, 1)):
            with pytest.raises(ModulusTooLarge):
                call()


def test_parse_and_render():
    assert parse_poly("x^3 + 3x^2 + 5x + 4", 17) == Poly.make([4, 5, 3, 1], 17)
    assert parse_poly("x^8 - 1", 17) == x_pow_n_minus(1, 8, 17)
    assert str(Poly.make([4, 5, 3, 1], 17)) == "x^3 + 3x^2 + 5x + 4"
    assert str(Poly.make([(1, 1), (0, 1)], 2, 2)) == "ux + (1+u)"
    assert str(Poly.zero(5)) == "0"
