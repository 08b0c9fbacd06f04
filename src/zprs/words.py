"""Words of the mixed alphabet Z_p^q x R^r x S^s and their module structure.

A word carries a block profile (p, q, r, s).  Any block length may be zero,
so codes over R, S, RS, Z_pR, ... are the same machinery with empty blocks.
The flattened coordinate space over Z_p has dimension N = q + 2r + 3s and
lists the q singles, then r coefficient pairs (a, b), then s triples
(a, b, d).

Scalars from S act blockwise through the projections: d scales the Z_p
block by eta1(d), the R block by eta2(d) and the S block by d itself.
The S-valued inner product weights the blocks by u^2, u and 1:

    <v, w> = u^2 * sum x_i x_i' + u * sum y_i y_i' + sum z_i z_i'.

The shift, the scalar action and the inner product are Z_p-linear (or
bilinear) on the flattened space, so each is one fixed N x N matrix there.
``map_matrix`` derives such a matrix from the word-level definition above by
applying it to the N unit words; ``shift_matrix``, ``scalar_matrix`` and
``form_matrices`` cache the ones the code paths use, and ``block_columns``
gives the flattened columns of each position.  No other module knows the
flattened layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence, Union

import numpy as np

from . import linalg
from .errors import LengthMismatch, ModulusMismatch, NotAUnit, ProfileMismatch
from .field import ensure_prime
from .rings import ChainElement, eta1, eta2

UnitLike = Union[int, Sequence[int], ChainElement]


@dataclass(frozen=True)
class BlockProfile:
    p: int
    q: int
    r: int
    s: int

    def __post_init__(self):
        ensure_prime(self.p)
        if min(self.q, self.r, self.s) < 0 or self.q + self.r + self.s < 1:
            raise ProfileMismatch(f"invalid block profile (q={self.q}, r={self.r}, s={self.s})")
        linalg.check_modulus(self.p, self.n)

    @property
    def n(self) -> int:
        """Flattened Z_p dimension."""
        return self.q + 2 * self.r + 3 * self.s

    @property
    def gray_length(self) -> int:
        return self.q + 2 * self.r + 3 * self.s


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
        if len(self.zp) != pr.q or len(self.rpart) != pr.r or len(self.spart) != pr.s:
            raise LengthMismatch("block lengths do not match the profile")
        object.__setattr__(self, "zp", tuple(c % pr.p for c in self.zp))
        for x in self.rpart:
            if (x.p, x.k) != (pr.p, 2):
                raise ModulusMismatch("R-block entries must live in Z_p[u]/(u^2)")
        for x in self.spart:
            if (x.p, x.k) != (pr.p, 3):
                raise ModulusMismatch("S-block entries must live in Z_p[u]/(u^3)")

    @classmethod
    def make(cls, profile: BlockProfile, zp=(), rpart=(), spart=()) -> "MixedWord":
        p = profile.p
        return cls(profile,
                   tuple(int(c) % p for c in zp),
                   tuple(ChainElement.make(x, p, 2) for x in rpart),
                   tuple(ChainElement.make(x, p, 3) for x in spart))

    @classmethod
    def zero(cls, profile: BlockProfile) -> "MixedWord":
        return cls.make(profile,
                        (0,) * profile.q, (0,) * profile.r, (0,) * profile.s)

    def _check(self, other: "MixedWord") -> None:
        if self.profile != other.profile:
            raise ProfileMismatch("block profiles differ")

    def __add__(self, other: "MixedWord") -> "MixedWord":
        self._check(other)
        p = self.profile.p
        return MixedWord(self.profile,
                         tuple((a + b) % p for a, b in zip(self.zp, other.zp)),
                         tuple(a + b for a, b in zip(self.rpart, other.rpart)),
                         tuple(a + b for a, b in zip(self.spart, other.spart)))

    def __sub__(self, other: "MixedWord") -> "MixedWord":
        self._check(other)
        p = self.profile.p
        return MixedWord(self.profile,
                         tuple((a - b) % p for a, b in zip(self.zp, other.zp)),
                         tuple(a - b for a, b in zip(self.rpart, other.rpart)),
                         tuple(a - b for a, b in zip(self.spart, other.spart)))

    @property
    def is_zero(self) -> bool:
        return (not any(self.zp) and all(x.is_zero for x in self.rpart)
                and all(x.is_zero for x in self.spart))

    def coordinates(self) -> list[tuple[int, ChainElement, ChainElement]]:
        """Per-position triples (x_j, y_j, z_j); requires q = r = s."""
        pr = self.profile
        if not (pr.q == pr.r == pr.s):
            raise LengthMismatch("coordinate triples need q = r = s")
        return [(self.zp[j], self.rpart[j], self.spart[j]) for j in range(pr.q)]

    def __str__(self) -> str:
        blocks = [",".join(str(c) for c in self.zp),
                  ",".join(str(x) for x in self.rpart),
                  ",".join(str(x) for x in self.spart)]
        return "(" + " | ".join(blocks) + ")"


def mixed_scalar_mul(d: UnitLike, w: MixedWord) -> MixedWord:
    """Scale by d in S: the Z_p block by eta1(d), the R block by eta2(d)."""
    p = w.profile.p
    ds = ChainElement.make(d, p, 3)
    d1 = eta1(ds).coeffs[0]
    d2 = eta2(ds)
    return MixedWord(w.profile,
                     tuple(d1 * c % p for c in w.zp),
                     tuple(d2 * y for y in w.rpart),
                     tuple(ds * z for z in w.spart))


def flatten(w: MixedWord) -> np.ndarray:
    """Coefficient expansion into Z_p^N: q singles, r pairs, s triples."""
    out = list(w.zp)
    for y in w.rpart:
        out.extend(y.coeffs)
    for z in w.spart:
        out.extend(z.coeffs)
    return np.array(out, dtype=np.int64)


def unflatten(vec, profile: BlockProfile) -> MixedWord:
    v = [int(c) % profile.p for c in vec]
    if len(v) != profile.n:
        raise LengthMismatch(f"expected {profile.n} coordinates, got {len(v)}")
    q, r = profile.q, profile.r
    zp = tuple(v[:q])
    rpart = tuple(ChainElement(profile.p, 2, (v[q + 2 * j], v[q + 2 * j + 1]))
                  for j in range(r))
    base = q + 2 * r
    spart = tuple(ChainElement(profile.p, 3,
                               (v[base + 3 * j], v[base + 3 * j + 1], v[base + 3 * j + 2]))
                  for j in range(profile.s))
    return MixedWord(profile, zp, rpart, spart)


def constacyclic_shift(w: MixedWord,
                       mu0: UnitLike = 1,
                       mu1: UnitLike = 1,
                       mu2: UnitLike = 1) -> MixedWord:
    """Rotate each block right by one; the wrapped entry picks up the block unit."""
    pr = w.profile
    p = pr.p
    zp = w.zp
    if pr.q:
        u0 = as_unit(mu0, p, 1).coeffs[0]
        zp = (u0 * w.zp[-1] % p,) + w.zp[:-1]
    rpart = w.rpart
    if pr.r:
        u1 = as_unit(mu1, p, 2)
        rpart = (u1 * w.rpart[-1],) + w.rpart[:-1]
    spart = w.spart
    if pr.s:
        u2 = as_unit(mu2, p, 3)
        spart = (u2 * w.spart[-1],) + w.spart[:-1]
    return MixedWord(pr, zp, rpart, spart)


def inner_product(v: MixedWord, w: MixedWord) -> ChainElement:
    """The S-valued form u^2 sum x x' + u sum y y' + sum z z'."""
    v._check(w)
    p = v.profile.p
    acc = ChainElement.zero(p, 3)
    u1 = ChainElement(p, 3, (0, 1, 0))
    u2 = ChainElement(p, 3, (0, 0, 1))
    for a, b in zip(v.zp, w.zp):
        acc = acc + u2.scale(a * b % p)
    for y, y2 in zip(v.rpart, w.rpart):
        acc = acc + u1 * (y.lift(3) * y2.lift(3))
    for z, z2 in zip(v.spart, w.spart):
        acc = acc + z * z2
    return acc


def block_columns(profile: BlockProfile) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flattened column indices per position: shapes (q,), (r, 2) and (s, 3)."""
    q, r, s = profile.q, profile.r, profile.s
    return (np.arange(q), q + np.arange(2 * r).reshape(r, 2),
            q + 2 * r + np.arange(3 * s).reshape(s, 3))


def _unit_words(profile: BlockProfile) -> list[MixedWord]:
    return [unflatten(e, profile) for e in np.eye(profile.n, dtype=np.int64)]


def _frozen(m: np.ndarray) -> np.ndarray:
    m.setflags(write=False)
    return m


def map_matrix(profile: BlockProfile, f: Callable[[MixedWord], Sequence[int]]) -> np.ndarray:
    """Matrix M of a Z_p-linear map f from words to vectors: f(w) = flatten(w) @ M mod p.

    Row i is the image of the i-th unit word.
    """
    rows = [f(w) for w in _unit_words(profile)]
    return _frozen(np.array(rows, dtype=np.int64).reshape(profile.n, -1) % profile.p)


def shift_matrix(profile: BlockProfile, mu0: UnitLike = 1, mu1: UnitLike = 1,
                 mu2: UnitLike = 1) -> np.ndarray:
    """X with flatten(constacyclic_shift(w, mu0, mu1, mu2)) = flatten(w) @ X mod p."""
    p = profile.p
    units = tuple(as_unit(mu, p, k) if length else None
                  for mu, k, length in ((mu0, 1, profile.q), (mu1, 2, profile.r),
                                        (mu2, 3, profile.s)))
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
    """J of shape (3, N, N): flatten(v) @ J[t] @ flatten(w) = inner_product(v, w).coeffs[t]."""
    units = _unit_words(profile)
    coeffs = [[inner_product(v, w).coeffs for w in units] for v in units]
    return _frozen(np.array(coeffs, dtype=np.int64).transpose(2, 0, 1))
