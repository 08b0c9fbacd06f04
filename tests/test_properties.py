"""Property tests: the chain-ring laws, and over random additive codes duality, the
Gray map and the enumerators.

Hypothesis runs derandomized with a fixed example budget, so the suite stays
deterministic and fast; the exhaustive and seeded tests live next to the
modules they cover.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from zprs.additive import span_closure
from zprs.enumerators import ENUMERATORS, TRANSFORMS, walk
from zprs.gray import GrayMap
from zprs.rings import ChainElement, eta0, eta1, eta2
from zprs.words import BlockProfile, unflatten

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)
# walking both sides of every example stays fast below this many codewords
WALK_LIMIT = 3 ** 9


RING_PRIMES = (2, 3, 13, 10007)


@st.composite
def ring_triples(draw):
    """Three elements of R (k = 2) or S (k = 3) over a prime of RING_PRIMES."""
    p = draw(st.sampled_from(RING_PRIMES))
    k = draw(st.sampled_from((2, 3)))
    coeffs = st.lists(st.integers(0, p - 1), min_size=k, max_size=k)
    return tuple(ChainElement(p, k, tuple(draw(coeffs))) for _ in range(3))


def projections(k):
    """The ring epimorphisms out of R (k = 2) or S (k = 3)."""
    return (eta0,) if k == 2 else (eta1, eta2)


@PROPERTY_SETTINGS
@given(ring_triples())
def test_ring_distributivity_and_additive_inverses(xyz):
    x, y, z = xyz
    zero = ChainElement.zero(x.p, x.k)
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z
    assert x + (-x) == zero and x - y == x + (-y)
    assert x * y == y * x


@PROPERTY_SETTINGS
@given(ring_triples())
def test_u_is_nilpotent_of_index_k(xyz):
    x = xyz[0]
    u = ChainElement.make((0, 1), x.p, x.k)
    zero = ChainElement.zero(x.p, x.k)
    assert u ** x.k == zero and u ** (x.k - 1) != zero
    # u x shifts the coefficients of x up one power of u
    assert (u * x).coeffs == (0,) + x.coeffs[:-1]


@PROPERTY_SETTINGS
@given(ring_triples())
def test_units_times_their_inverses_are_one(xyz):
    one = ChainElement.one(xyz[0].p, xyz[0].k)
    for x in xyz:
        if x.is_unit:
            assert x * x.inverse() == one and x.inverse() * x == one
            assert x ** -1 == x.inverse()


@PROPERTY_SETTINGS
@given(ring_triples())
def test_projections_respect_addition_and_multiplication(xyz):
    x, y, _ = xyz
    for eta in projections(x.k):
        assert eta(x + y) == eta(x) + eta(y)
        assert eta(x * y) == eta(x) * eta(y)
        assert eta(ChainElement.one(x.p, x.k)) == ChainElement.one(x.p, eta(x).k)


@st.composite
def codes(draw, primes=(2, 3, 5)):
    """The S-module span of up to three random words, p in ``primes``, q = r = s <= 2."""
    p = draw(st.sampled_from(primes))
    n = draw(st.integers(1, 2))
    pr = BlockProfile(p, n, n, n)
    words = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=pr.n, max_size=pr.n),
                          max_size=3))
    return span_closure([unflatten(w, pr) for w in words], profile=pr)


@PROPERTY_SETTINGS
@given(codes())
def test_dual_is_an_involution_with_complementary_size(code):
    dual = code.dual()
    assert dual.dual() == code
    assert code.size * dual.size == code.profile.p ** code.profile.n


@PROPERTY_SETTINGS
@given(codes())
def test_public_enumerators_equal_their_walks(code):
    dual = code.dual()
    if max(code.size, dual.size) > WALK_LIMIT:
        return
    for kind in TRANSFORMS:
        for c in (code, dual):
            assert ENUMERATORS[kind](c) == walk(c, kind)


@PROPERTY_SETTINGS
@given(codes(primes=(5, 13)))
def test_gray_image_of_the_dual_is_the_euclidean_dual(code):
    gray = GrayMap(code.profile.p)
    assert gray.image(code.dual()) == gray.image(code).euclidean_dual()
