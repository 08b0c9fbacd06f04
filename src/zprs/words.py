"""Words of the mixed alphabet Z_p^q x R^r x S^s and their module structure.

A word carries a block profile (p, q, r, s).  Any block length may be zero,
so codes over R, S, RS, Z_pR, ... are the same machinery with empty blocks.
The three rings are one chain: block k = 1, 2, 3 lives in Z_p[u]/(u^k), and
each word operation below is one loop over k.  The flattened coordinate
space over Z_p has dimension N = q + 2r + 3s and lists the q singles, then
r coefficient pairs (a, b), then s triples (a, b, d).

Scalars from S act blockwise through the projections: d scales block k by
d mod u^k, that is the Z_p block by eta1(d), the R block by eta2(d) and the
S block by d itself.  The S-valued inner product weights block k by
u^(3-k), that is by u^2, u and 1:

    <v, w> = u^2 * sum x_i x_i' + u * sum y_i y_i' + sum z_i z_i'.

The shift, the scalar action and the inner product are Z_p-linear (or
bilinear) on the flattened space, so each is one fixed N x N matrix there.
``map_matrix`` derives such a matrix from the word-level definition above by
applying it to the N unit words; ``shift_matrix`` and ``scalar_matrix`` cache
the ones the code paths use.  ``form_matrices`` writes the three matrices of
the form straight from the block weights, and ``block_columns`` gives the
flattened columns of each position.  No other module knows the flattened
layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence, Union

import numpy as np

from . import linalg
from .errors import LengthMismatch, MalformedInput, ModulusMismatch, NotAUnit, ProfileMismatch
from .field import ensure_prime
from .rings import ChainElement

UnitLike = Union[int, Sequence[int], ChainElement]


@dataclass(frozen=True)
class BlockProfile:
    p: int
    q: int
    r: int
    s: int

    def __post_init__(self):
        for f in ("p", "q", "r", "s"):
            object.__setattr__(self, f, linalg.as_int(getattr(self, f), f, ProfileMismatch))
        ensure_prime(self.p)
        if min(self.q, self.r, self.s) < 0 or self.q + self.r + self.s < 1:
            raise ProfileMismatch(f"invalid block profile (q={self.q}, r={self.r}, s={self.s})")
        linalg.check_modulus(self.p, self.n)

    @property
    def lengths(self) -> tuple[int, int, int]:
        """Block lengths (q, r, s); block k = 1, 2, 3 lives in Z_p[u]/(u^k)."""
        return self.q, self.r, self.s

    @property
    def n(self) -> int:
        """Flattened Z_p dimension."""
        return self.q + 2 * self.r + 3 * self.s

    gray_length = n


# BlockProfile(p, q, r, s), built and checked once per typed argument tuple
cached_profile = lru_cache(maxsize=256, typed=True)(BlockProfile)


def as_unit(mu: UnitLike, p: int, k: int) -> ChainElement:
    """Coerce a unit argument for a block with nilpotency k; reject non-units."""
    x = ChainElement.make(mu, p, k)
    if not x.is_unit:
        raise NotAUnit(f"{x} is not a unit in Z_{p}[u]/(u^{k})")
    return x


@dataclass(frozen=True)
class MixedWord:
    profile: BlockProfile
    zp: tuple[int, ...]
    rpart: tuple[ChainElement, ...]
    spart: tuple[ChainElement, ...]

    def __post_init__(self):
        pr = self.profile
        zp = tuple(ChainElement.make(c, pr.p, 1) for c in self.zp)
        object.__setattr__(self, "zp", tuple(x.coeffs[0] for x in zp))
        for k, (block, length) in enumerate(zip((zp, self.rpart, self.spart), pr.lengths), start=1):
            if len(block) != length:
                raise LengthMismatch("block lengths do not match the profile")
            if any((x.p, x.k) != (pr.p, k) for x in block):
                raise ModulusMismatch(f"block {k} entries must live in Z_p[u]/(u^{k})")

    @classmethod
    def of(cls, profile: BlockProfile, blocks) -> "MixedWord":
        """The word with the given three blocks, block k over Z_p[u]/(u^k)."""
        return cls(profile, *(tuple(block) for block in blocks))

    @classmethod
    def make(cls, profile: BlockProfile, *blocks) -> "MixedWord":
        """Coerce every entry of block k into Z_p[u]/(u^k) (see ``ChainElement.make``).
        At most three blocks, each a sequence; a missing block is empty."""
        if len(blocks) > 3 or not all(isinstance(block, (Sequence, np.ndarray))
                                      and not isinstance(block, str) for block in blocks):
            raise MalformedInput(f"a word is at most three sequences of entries, got {blocks!r}")
        return cls.of(profile, ([ChainElement.make(x, profile.p, k) for x in block]
                                for k, block in enumerate(blocks + ((),) * (3 - len(blocks)),
                                                          start=1)))

    @classmethod
    def zero(cls, profile: BlockProfile) -> "MixedWord":
        return cls.make(profile, *((0,) * length for length in profile.lengths))

    @property
    def blocks(self) -> tuple[tuple[ChainElement, ...], ...]:
        """Block k as elements of Z_p[u]/(u^k); ``zp`` keeps the Z_p entries as ints."""
        p = self.profile.p
        return (tuple(ChainElement(p, 1, (a,)) for a in self.zp), self.rpart, self.spart)

    def _check(self, other: "MixedWord") -> None:
        if self.profile != other.profile:
            raise ProfileMismatch("block profiles differ")

    def __add__(self, other: "MixedWord") -> "MixedWord":
        self._check(other)
        return MixedWord.of(self.profile, ([x + y for x, y in zip(a, b)]
                                           for a, b in zip(self.blocks, other.blocks)))

    def __sub__(self, other: "MixedWord") -> "MixedWord":
        return self + mixed_scalar_mul(-1, other)

    @property
    def is_zero(self) -> bool:
        return all(x.is_zero for block in self.blocks for x in block)

    def __str__(self) -> str:
        return "(" + " | ".join(",".join(map(str, block)) for block in self.blocks) + ")"


def mixed_scalar_mul(d: UnitLike, w: MixedWord) -> MixedWord:
    """Scale by d in S: block k by d mod u^k."""
    p = w.profile.p
    ds = ChainElement.make(d, p, 3)
    return MixedWord.of(w.profile, ([ChainElement(p, k, ds.coeffs[:k]) * x for x in block]
                                    for k, block in enumerate(w.blocks, start=1)))


def flatten(w: MixedWord) -> np.ndarray:
    """Coefficient expansion into Z_p^N: q singles, r pairs, s triples."""
    return np.array(list(w.zp) + [c for x in w.rpart + w.spart for c in x.coeffs],
                    dtype=np.int64)


def unflatten(vec, profile: BlockProfile) -> MixedWord:
    v = linalg.as_integers(vec) % profile.p
    if v.shape != (profile.n,):
        raise LengthMismatch(f"expected {profile.n} coordinates, got shape {v.shape}")
    v = v.tolist()
    return MixedWord.of(profile, ([ChainElement(profile.p, k, tuple(v[i] for i in cols))
                                   for cols in block.reshape(-1, k).tolist()]
                                  for k, block in enumerate(block_columns(profile), start=1)))


def constacyclic_shift(w: MixedWord, mu0: UnitLike = 1, mu1: UnitLike = 1,
                       mu2: UnitLike = 1) -> MixedWord:
    """Rotate each block right by one; the wrapped entry picks up the block unit."""
    p, units = w.profile.p, (mu0, mu1, mu2)
    return MixedWord.of(w.profile, ((as_unit(units[k - 1], p, k) * block[-1],) + block[:-1]
                                    if block else block
                                    for k, block in enumerate(w.blocks, start=1)))


def inner_product(v: MixedWord, w: MixedWord) -> ChainElement:
    """The S-valued form u^2 sum x x' + u sum y y' + sum z z': block k weighs u^(3-k)."""
    v._check(w)
    p = v.profile.p
    acc = ChainElement.zero(p, 3)
    for k, (xs, ys) in enumerate(zip(v.blocks, w.blocks), start=1):
        weight = ChainElement.make((0,) * (3 - k) + (1,), p, 3)
        for x, y in zip(xs, ys):
            acc = acc + weight * x.lift(3) * y.lift(3)
    return acc


def _frozen(m: np.ndarray) -> np.ndarray:
    m.setflags(write=False)
    return m


@lru_cache(maxsize=None)
def block_columns(profile: BlockProfile) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flattened column indices per position: shapes (q,), (r, 2) and (s, 3), read-only."""
    q, r, s = profile.q, profile.r, profile.s
    return (_frozen(np.arange(q)), _frozen(q + np.arange(2 * r).reshape(r, 2)),
            _frozen(q + 2 * r + np.arange(3 * s).reshape(s, 3)))


def map_matrix(profile: BlockProfile, f: Callable[[MixedWord], Sequence[int]]) -> np.ndarray:
    """Matrix M of a Z_p-linear map f from words to vectors: f(w) = flatten(w) @ M mod p.

    Row i is the image of the i-th unit word.
    """
    rows = [f(unflatten(e, profile)) for e in np.eye(profile.n, dtype=np.int64)]
    return _frozen(np.array(rows, dtype=np.int64).reshape(profile.n, -1) % profile.p)


def shift_matrix(profile: BlockProfile, mu0: UnitLike = 1, mu1: UnitLike = 1,
                 mu2: UnitLike = 1) -> np.ndarray:
    """X with flatten(constacyclic_shift(w, mu0, mu1, mu2)) = flatten(w) @ X mod p."""
    p = profile.p
    units = tuple(as_unit(mu, p, k) if length else None
                  for k, (mu, length) in enumerate(zip((mu0, mu1, mu2), profile.lengths), start=1))
    return _shift_matrix(profile, units)


@lru_cache(maxsize=None)
def _shift_matrix(profile: BlockProfile, units: tuple) -> np.ndarray:
    return map_matrix(profile, lambda w: flatten(constacyclic_shift(w, *units)))


@lru_cache(maxsize=None)
def scalar_matrix(profile: BlockProfile, d: tuple[int, ...]) -> np.ndarray:
    """M with flatten(mixed_scalar_mul(d, w)) = flatten(w) @ M mod p.

    d = (0, 1, 0) gives U, d = (0, 0, 1) gives U^2.
    """
    return map_matrix(profile, lambda w: flatten(mixed_scalar_mul(d, w)))


@lru_cache(maxsize=None)
def form_matrices(profile: BlockProfile) -> np.ndarray:
    """J of shape (3, N, N): flatten(v) @ J[t] @ flatten(w) = inner_product(v, w).coeffs[t].

    The Z_p, R and S blocks (k = 1, 2, 3 coefficients per entry) carry the
    weight u^(3-k), so coefficient a of one entry times coefficient b of the
    other lands at u^(3-k+a+b), and vanishes from u^3 on.
    """
    j = np.zeros((3, profile.n, profile.n), dtype=np.int64)
    for k, cols in enumerate(block_columns(profile), start=1):
        cols = cols.reshape(-1, k)
        for a in range(k):
            for b in range(k - a):
                j[3 - k + a + b, cols[:, a], cols[:, b]] = 1
    return _frozen(j)
