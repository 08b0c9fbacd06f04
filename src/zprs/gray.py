"""Gray maps from the chain-ring alphabet onto powers of Z_p, and Lee weights.

With kappa a square root of -1 mod p (p = 2 or p = 1 mod 4):

    phi1(a + ub)        = (a + b, kappa*b)                     R -> Z_p^2
    phi2(a + ub + du^2) = (a + b + d, kappa*(b + d), b)        S -> Z_p^3

The coordinatewise extensions are block-transposed: all first Gray
coordinates of a block, then all second, and so on.  The quasi-twisted
image theorems depend on exactly that layout.

An R-code whose RREF rows each lie wholly in the a- or the b-columns is
C = A x uB with A in B (closure under u), as every cyclic R-code is.  Its image
{(b + a | kappa b)} is the Plotkin sum P(B, A, kappa) (``LinearCode.plotkin_sum``),
trusted as RREF as its top right vanishes on A's pivot columns, with d = min(2 d(B),
d(A)) (MacWilliams-Sloane, ch. 2 Sec. 9, Thm. 33) and, as kappa^2 = -1, dual containment
by the ``linear`` rule or the search's verdict (``quantum``).  Others: basis @ Gray matrix.

Lee weights: a Z_p coordinate x weighs min(x, p-x); an R or S coordinate
weighs the Hamming weight of its Gray image.  Those Hamming weights do not
depend on kappa (kappa is a unit), so ``position_weights``, the one
definition of these weights, works for every p, including p = 3 mod 4 where
the Gray map itself does not exist.  It weighs whole arrays of flattened
words at once; the word weights below, the symbol tables and the enumerator
walks all call it.
For p >= 5 the Z_p-block convention min(x, p-x) disagrees with the Hamming
weight of the (identity) Gray image on that block; ``lee_weight`` records
the discrepancy with a warning instead of silently picking a side.
"""

from __future__ import annotations

import warnings
from functools import lru_cache

import numpy as np

from .errors import WrongRing
from .field import find_kappa
from .linalg import as_int
from .linear import LinearCode
from .rings import ChainElement
from .words import BlockProfile, MixedWord, block_columns, flatten, map_matrix

__all__ = ["GrayMap", "lee_weight", "gray_hamming_weight", "position_weights",
           "LeeWeightMismatchWarning"]


class LeeWeightMismatchWarning(UserWarning):
    """min(x, p-x) and the Gray-image Hamming weight disagree on a Z_p block."""


def position_weights(words, profile: BlockProfile, *, lee: bool) -> np.ndarray:
    """Per-position weights (..., q + r + s) of flattened words (..., N) over [0, p): a Z_p
    position x weighs min(x, p-x) if ``lee``, else [x != 0]; an R or S position weighs
    the Hamming weight of its Gray image."""
    p = profile.p
    zcols, rcols, scols = block_columns(profile)
    x = words[..., zcols]
    a, b = (words[..., cols] for cols in rcols.T)
    a2, b2, d2 = (words[..., cols] for cols in scols.T)
    # nonzero Gray coordinates with kappa dropped: a unit leaves a coordinate's zeroness alone
    r = ((a + b) % p != 0).astype(np.int64) + (b != 0)
    s = ((a2 + b2 + d2) % p != 0).astype(np.int64) + ((b2 + d2) % p != 0) + (b2 != 0)
    return np.concatenate([np.minimum(x, p - x) if lee else x != 0, r, s],
                          axis=-1, dtype=np.int64)


def lee_weight(w: MixedWord) -> int:
    """Lee weight of a mixed word: min(x, p-x) per Z_p coordinate plus the
    Gray-image Hamming weights of the R and S coordinates."""
    lee = int(position_weights(flatten(w), w.profile, lee=True).sum())
    # for p <= 3, min(x, p-x) = [x != 0] and the two weights agree
    if w.profile.p >= 5 and (hamming := gray_hamming_weight(w)) != lee:
        warnings.warn(f"Lee weight {lee} uses min(x, p-x) on the Z_p block; the "
                      f"Gray-image Hamming weight there is {hamming}",
                      LeeWeightMismatchWarning, stacklevel=2)
    return lee


def gray_hamming_weight(w: MixedWord) -> int:
    """Hamming weight of the Gray image (kappa-free; identity on the Z_p block)."""
    return int(position_weights(flatten(w), w.profile, lee=False).sum())


class GrayMap:
    """The maps phi1, phi2 and their extension to mixed words, for one prime p."""

    def __init__(self, p: int):
        self.p = as_int(p, "p")
        self.kappa = find_kappa(self.p)

    def phi1(self, x: ChainElement) -> tuple[int, int]:
        if (x.p, x.k) != (self.p, 2):
            raise WrongRing("phi1 expects an element of Z_p[u]/(u^2)")
        a, b = x.coeffs
        return ((a + b) % self.p, self.kappa * b % self.p)

    def phi2(self, x: ChainElement) -> tuple[int, int, int]:
        if (x.p, x.k) != (self.p, 3):
            raise WrongRing("phi2 expects an element of Z_p[u]/(u^3)")
        a, b, d = x.coeffs
        return ((a + b + d) % self.p, self.kappa * (b + d) % self.p, b % self.p)

    def word(self, w: MixedWord) -> np.ndarray:
        """Extended image, block-transposed:
        (x | a+b | kappa*b | a+b+d | kappa*(b+d) | b)."""
        if w.profile.p != self.p:
            raise WrongRing("word over a different prime")
        r = [self.phi1(y) for y in w.rpart]
        s = [self.phi2(z) for z in w.spart]
        return np.array(list(w.zp) + [g[i] for i in range(2) for g in r]
                        + [g[i] for i in range(3) for g in s], dtype=np.int64)

    def image(self, code) -> LinearCode:
        """Gray image of an additive code as a Z_p linear code.

        The map is Z_p-linear and injective, so the image is the span of the
        basis times the Gray matrix and keeps the Z_p-dimension; a split
        R-code's image is a Plotkin sum (module docstring).
        """
        if code.profile.p != self.p:
            raise WrongRing("code over a different prime")
        image = self._split_image(code)
        if image is None:
            image = LinearCode(self.p, code.profile.gray_length,
                               code.basis @ _gray_matrix(code.profile) % self.p)
        if image.k != code.rank:
            raise AssertionError("Gray image lost rank; the map must be injective")
        return image

    def _split_image(self, code) -> LinearCode | None:
        """The image of an R-code C = A x uB, the Plotkin sum of B and A, or None for
        any other code; ``ZprsError`` if A does not lie in B, which no u-closed code
        allows.  A and B are ``code._split`` if its builder set it, else read off the rows."""
        r = code.profile.r
        if code.profile.lengths != (0, r, 0):
            return None
        if code._split is not None:
            a, b, dual = code._split
            return LinearCode._from_halves(b, a, self.kappa, dual)
        ab = code.basis[:, block_columns(code.profile)[1].T.ravel()]   # (a-part | b-part)
        a_zero, b_zero = ~ab.reshape(len(ab), 2, r).any(axis=2).T
        if not (a_zero | b_zero).all():
            return None
        return LinearCode.plotkin_sum(self.p, ab[~b_zero, r:], ab[b_zero, :r], self.kappa)


@lru_cache(maxsize=None)
def _gray_matrix(profile: BlockProfile) -> np.ndarray:
    """G with GrayMap.word(w) = flatten(w) @ G mod p."""
    return map_matrix(profile, GrayMap(profile.p).word)
