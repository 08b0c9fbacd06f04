import itertools

import numpy as np
import pytest

from zprs.errors import (LengthMismatch, MalformedInput, ModulusMismatch, NotAUnit, ProfileMismatch,
                         WrongRing)
from zprs.rings import ChainElement
from zprs.words import (BlockProfile, MixedWord, block_columns, constacyclic_shift, flatten,
                        inner_product, mixed_scalar_mul, unflatten)


def all_words(profile):
    p = profile.p
    for bits in itertools.product(range(p), repeat=profile.n):
        yield unflatten(bits, profile)


def test_profile_validation():
    with pytest.raises(ProfileMismatch):
        BlockProfile(2, 0, 0, 0)
    with pytest.raises(ProfileMismatch):
        BlockProfile(2, -1, 1, 0)
    assert BlockProfile(3, 1, 2, 1).n == 1 + 4 + 3


def test_block_columns_are_cached_and_read_only():
    cols = block_columns(BlockProfile(3, 2, 1, 2))
    assert cols is block_columns(BlockProfile(3, 2, 1, 2))
    assert [c.tolist() for c in cols] == [[0, 1], [[2, 3]], [[4, 5, 6], [7, 8, 9]]]
    for c in cols:
        with pytest.raises(ValueError):
            c[...] = 0
    empty_blocks = block_columns(BlockProfile(2, 0, 0, 1))
    assert [c.shape for c in empty_blocks] == [(0,), (0, 2), (1, 3)]


def test_flatten_examples():
    pr = BlockProfile(2, 1, 1, 1)
    w = MixedWord.make(pr, (1,), ((1, 1),), ((0, 0, 1),))
    assert list(flatten(w)) == [1, 1, 1, 0, 0, 1]
    assert list(flatten(MixedWord.zero(pr))) == [0] * 6


def test_is_zero_is_a_word_without_a_nonzero_coordinate():
    for pr in (BlockProfile(2, 1, 1, 1), BlockProfile(3, 1, 1, 0), BlockProfile(3, 0, 0, 1)):
        words = list(all_words(pr))
        assert [w.is_zero for w in words] == [not flatten(w).any() for w in words]
        assert sum(w.is_zero for w in words) == 1


def test_unflatten_round_trip():
    rng = np.random.default_rng(3)
    for p, q, r, s in ((2, 1, 1, 1), (3, 2, 0, 1), (5, 0, 3, 2)):
        pr = BlockProfile(p, q, r, s)
        for _ in range(25):
            vec = rng.integers(0, p, size=pr.n)
            w = unflatten(vec, pr)
            assert (flatten(w) == vec).all()
    with pytest.raises(LengthMismatch):
        unflatten([0, 1], BlockProfile(2, 1, 1, 1))


def test_unflatten_refuses_non_integer_coordinates():
    # 1.5 was read as 1
    pr = BlockProfile(2, 1, 1, 1)
    for vec in ([1.5, 0, 0, 0, 0, 0], np.ones(6), ["1", 0, 0, 0, 0, 0]):
        with pytest.raises(WrongRing):
            unflatten(vec, pr)
    assert unflatten(np.array([3, 0, 0, 0, 0, 1], dtype=object), pr) == unflatten(
        [1, 0, 0, 0, 0, 1], pr)


def test_profile_entries_are_integers():
    for entries in ((5, 1.5, 1, 1), (5.0, 1, 1, 1), ("5", 1, 1, 1), (5, 1, 1, None)):
        with pytest.raises(ProfileMismatch):
            BlockProfile(*entries)
    pr = BlockProfile(np.int64(5), np.int32(1), True, 1)
    assert pr == BlockProfile(5, 1, 1, 1) and type(pr.p) is int and type(pr.r) is int


def test_make_reads_at_most_three_sequences():
    pr = BlockProfile(5, 1, 1, 0)
    assert MixedWord.make(pr, [1], [[2, 1]]) == MixedWord.make(pr, (1,), ((2, 1),), ())
    for blocks in (([1], [[2, 1]], [], [1]), (1,), ("1",), ([1], {})):
        with pytest.raises(MalformedInput):
            MixedWord.make(pr, *blocks)


def test_mixed_scalar_mul_examples():
    pr = BlockProfile(2, 1, 1, 1)
    w = MixedWord.make(pr, (1,), (1,), (1,))
    assert mixed_scalar_mul(1, w) == w
    # d = u: the Z_p block dies (eta1(u) = 0), R and S blocks pick up u
    assert mixed_scalar_mul((0, 1, 0), w) == MixedWord.make(pr, (0,), ((0, 1),), ((0, 1, 0),))
    # d = u^2: eta1 = eta2 = 0
    assert mixed_scalar_mul((0, 0, 1), w) == MixedWord.make(pr, (0,), (0,), ((0, 0, 1),))


def test_scalar_action_is_a_module_action():
    pr = BlockProfile(2, 1, 1, 1)
    scalars = [ChainElement.make(c, 2, 3) for c in itertools.product(range(2), repeat=3)]
    words = list(all_words(pr))
    for d1, d2 in itertools.product(scalars, repeat=2):
        for w in words[::5]:
            assert (mixed_scalar_mul(d1 * d2, w)
                    == mixed_scalar_mul(d1, mixed_scalar_mul(d2, w)))
    # additivity in the word argument
    for w1, w2 in zip(words[::7], words[1::7]):
        for d in scalars:
            assert mixed_scalar_mul(d, w1 + w2) == mixed_scalar_mul(d, w1) + mixed_scalar_mul(d, w2)


def test_constacyclic_shift_examples():
    pr = BlockProfile(2, 2, 1, 1)
    w = MixedWord.make(pr, (1, 0), ((1, 1),), ((1, 0, 1),))
    assert constacyclic_shift(w, 1, 1, 1) == MixedWord.make(pr, (0, 1), ((1, 1),), ((1, 0, 1),))
    pr5 = BlockProfile(5, 1, 0, 0)
    w5 = MixedWord.make(pr5, (3,), (), ())
    assert constacyclic_shift(w5, 2).zp == (1,)     # 2*3 = 6 = 1 mod 5
    with pytest.raises(NotAUnit):
        constacyclic_shift(w, 1, (0, 1), 1)


def test_shift_order():
    # shifting q times multiplies the Z_p block by mu0
    pr = BlockProfile(5, 3, 0, 0)
    w = MixedWord.make(pr, (1, 2, 3), (), ())
    out = w
    for _ in range(3):
        out = constacyclic_shift(out, 2)
    assert out.zp == (2, 4, 6 % 5)


def test_inner_product_examples():
    pr = BlockProfile(2, 1, 1, 1)
    e_zp = MixedWord.make(pr, (1,), (0,), (0,))
    e_r = MixedWord.make(pr, (0,), (1,), (0,))
    e_s = MixedWord.make(pr, (0,), (0,), ((0, 1, 0),))
    u2 = ChainElement.make((0, 0, 1), 2, 3)
    u1 = ChainElement.make((0, 1, 0), 2, 3)
    assert inner_product(e_zp, e_zp) == u2
    assert inner_product(e_r, e_r) == u1
    s_u2 = MixedWord.make(pr, (0,), (0,), ((0, 0, 1),))
    assert inner_product(e_s, s_u2).is_zero     # u * u^2 = 0


def test_inner_product_is_symmetric_and_s_bilinear():
    pr = BlockProfile(2, 1, 1, 1)
    words = list(all_words(pr))
    scalars = [ChainElement.make(c, 2, 3) for c in itertools.product(range(2), repeat=3)]
    for v, w in itertools.product(words[::3], words[::4]):
        assert inner_product(v, w) == inner_product(w, v)
        for d in scalars:
            assert inner_product(v, mixed_scalar_mul(d, w)) == d * inner_product(v, w)


def test_blocks_hold_each_entry_in_its_chain_ring():
    pr = BlockProfile(5, 2, 1, 1)
    w = MixedWord.make(pr, (7, np.int64(3)), ((1, 2),), (4,))
    assert w.zp == (2, 3) and all(type(c) is int for c in w.zp)
    assert [[(x.k, x.coeffs) for x in block] for block in w.blocks] == [
        [(1, (2,)), (1, (3,))], [(2, (1, 2))], [(3, (4, 0, 0))]]
    assert MixedWord.of(pr, w.blocks) == w
    # an entry from another ring of the chain is refused, not truncated
    with pytest.raises(WrongRing):
        MixedWord.of(pr, (w.rpart * 2, w.rpart, w.spart))
    with pytest.raises(ModulusMismatch):
        MixedWord.of(pr, (w.blocks[0], w.spart, w.spart))
    # so is a non-integer coefficient, and a Z_p entry with two coefficients
    with pytest.raises(WrongRing):
        MixedWord.make(BlockProfile(5, 1, 1, 1), (1.5,), ((2.5, 0),), ((0, 0, 0),))
    with pytest.raises(WrongRing):
        MixedWord.make(pr, ([1, 5], 0), (0,), (0,))
    # an empty entry reads as 0 in every block
    assert MixedWord.make(pr, ([], [3]), ([],), ([],)) == MixedWord.make(pr, (0, 3), (0,), (0,))

