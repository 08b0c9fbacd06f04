"""Property tests over random additive codes: duality, the Gray map and the enumerators.

Hypothesis runs derandomized with a fixed example budget, so the suite stays
deterministic and fast; the exhaustive and seeded tests live next to the
modules they cover.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from zprs.additive import span_closure
from zprs.enumerators import (_hamming_walk, _lee_walk, _symmetrized_walk, hamming_enumerator,
                              lee_enumerator, symmetrized_enumerator)
from zprs.gray import GrayMap
from zprs.words import BlockProfile, unflatten

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)
# walking both sides of every example stays fast below this many codewords
WALK_LIMIT = 3 ** 9


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
    pairs = [(hamming_enumerator, _hamming_walk), (lee_enumerator, _lee_walk)]
    if code.profile.p <= 3:
        pairs.append((symmetrized_enumerator, _symmetrized_walk))
    for public, walk in pairs:
        for c in (code, dual):
            assert public(c) == walk(c)


@PROPERTY_SETTINGS
@given(codes(primes=(5, 13)))
def test_gray_image_of_the_dual_is_the_euclidean_dual(code):
    gray = GrayMap(code.profile.p)
    assert gray.image(code.dual()) == gray.image(code).euclidean_dual()
