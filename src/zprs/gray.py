"""Gray maps from the chain-ring alphabet onto powers of Z_p, and Lee weights.

With kappa a square root of -1 mod p (p = 2 or p = 1 mod 4):

    phi1(a + ub)        = (a + b, kappa*b)                     R -> Z_p^2
    phi2(a + ub + du^2) = (a + b + d, kappa*(b + d), b)        S -> Z_p^3

The coordinatewise extensions are block-transposed: all first Gray
coordinates of a block, then all second, and so on.  The quasi-twisted
image theorems depend on exactly that layout.

Lee weights: a Z_p coordinate x weighs min(x, p-x); an R or S coordinate
weighs the Hamming weight of its Gray image.  Those Hamming weights do not
depend on kappa (kappa is a unit), so the weight functions below work for
every p, including p = 3 mod 4 where the Gray map itself does not exist.
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
from .linear import LinearCode
from .rings import ChainElement
from .words import BlockProfile, MixedWord, map_matrix

__all__ = ["GrayMap", "lee_weight", "gray_hamming_weight", "chain_lee_weight",
           "zp_lee_weight", "LeeWeightMismatchWarning"]


class LeeWeightMismatchWarning(UserWarning):
    """min(x, p-x) and the Gray-image Hamming weight disagree on a Z_p block."""


def zp_lee_weight(x: int, p: int) -> int:
    x %= p
    return min(x, p - x) if x else 0


def chain_lee_weight(x: ChainElement) -> int:
    """Hamming weight of the Gray image of an R or S element (kappa-free)."""
    p = x.p
    if x.k == 1:
        return zp_lee_weight(x.coeffs[0], p)
    if x.k == 2:
        a, b = x.coeffs
        return int((a + b) % p != 0) + int(b % p != 0)
    a, b, d = x.coeffs
    return (int((a + b + d) % p != 0) + int((b + d) % p != 0) + int(b % p != 0))


def lee_weight(w: MixedWord, *, warn: bool = True) -> int:
    """Lee weight of a mixed word: min(x, p-x) per Z_p coordinate plus the
    Gray-image Hamming weights of the R and S coordinates."""
    p = w.profile.p
    zp_part = sum(zp_lee_weight(x, p) for x in w.zp)
    rest = sum(map(chain_lee_weight, w.rpart + w.spart))
    if warn and p >= 5:
        hamming_zp = sum(1 for x in w.zp if x % p)
        if hamming_zp != zp_part:
            warnings.warn(
                f"Lee weight {zp_part + rest} uses min(x, p-x) on the Z_p block; the "
                f"Gray-image Hamming weight there is {hamming_zp + rest}",
                LeeWeightMismatchWarning, stacklevel=2)
    return zp_part + rest


def gray_hamming_weight(w: MixedWord) -> int:
    """Hamming weight of the Gray image (kappa-free; identity on the Z_p block)."""
    p = w.profile.p
    return sum(1 for x in w.zp if x % p) + sum(map(chain_lee_weight, w.rpart + w.spart))


class GrayMap:
    """The maps phi1, phi2 and their extension to mixed words, for one prime p."""

    def __init__(self, p: int):
        self.p = p
        self.kappa = find_kappa(p).value

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
        p, kap = self.p, self.kappa
        r_ab = [(y.coeffs[0] + y.coeffs[1]) % p for y in w.rpart]
        r_kb = [kap * y.coeffs[1] % p for y in w.rpart]
        s_abd = [(z.coeffs[0] + z.coeffs[1] + z.coeffs[2]) % p for z in w.spart]
        s_kbd = [kap * (z.coeffs[1] + z.coeffs[2]) % p for z in w.spart]
        s_b = [z.coeffs[1] % p for z in w.spart]
        return np.array(list(w.zp) + r_ab + r_kb + s_abd + s_kbd + s_b, dtype=np.int64)

    def image(self, code) -> LinearCode:
        """Gray image of an additive code as a Z_p linear code.

        The map is Z_p-linear and injective, so the image is the span of the
        basis times the Gray matrix and keeps the Z_p-dimension.
        """
        if code.profile.p != self.p:
            raise WrongRing("code over a different prime")
        rows = code.basis @ _gray_matrix(code.profile) % self.p
        image = LinearCode.from_rows(self.p, code.profile.gray_length, rows)
        if image.k != code.rank:
            raise AssertionError("Gray image lost rank; the map must be injective")
        return image


@lru_cache(maxsize=None)
def _gray_matrix(profile: BlockProfile) -> np.ndarray:
    """G with GrayMap.word(w) = flatten(w) @ G mod p."""
    return map_matrix(profile, GrayMap(profile.p).word)
