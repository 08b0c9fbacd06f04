"""Additive codes over the mixed alphabet Z_p^q x R^r x S^s.

An additive code is an S-submodule of the ambient word module.  Because the
scalar action restricted to Z_p c S is the coordinatewise Z_p action, every
such submodule is in particular a Z_p-subspace of the flattened coordinate
space Z_p^N, N = q + 2r + 3s.  A code is therefore stored as a row-reduced
Z_p basis B of its flattened coordinates; S-module closure is equivalent to
closure of that row space under multiplication by u, which the constructor
verifies.

Every map on codes is a product with one of the operator matrices of
``words``: U and U^2 for the scalar action, X for the constacyclic shift,
and J_0, J_1, J_2 for the 1, u and u^2 coefficients of the u-weighted
S-valued inner product (u^2 on the Z_p block, u on the R block, 1 on the S
block).  The dual is the kernel of [B J_0; B J_1; B J_2], never a codeword
enumeration.

``linear.LinearCode`` is the Z_p-only case, the profile (p, n, 0, 0).
"""

from __future__ import annotations

import warnings
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import linalg
from .errors import (DivisibilityViolation, GcdViolation, LengthMismatch, ProfileMismatch,
                     TooLarge, ZprsError)
from .polynomials import Poly, divides, poly_divmod, x_pow_n_minus
from .rings import ChainElement, unit_order
from .words import (BlockProfile, MixedWord, UnitLike, as_unit, block_columns, flatten,
                    form_matrices, scalar_matrix, shift_matrix, unflatten)

_U, _U2 = (0, 1, 0), (0, 0, 1)  # the scalars u and u^2 of S


class GeneratorHypothesisWarning(UserWarning):
    """A structure-theorem hypothesis (ord-congruence or divisor chain) is violated.

    The construction itself closes the span directly, so the resulting code
    is a genuine constacyclic code either way; only the canonical-form
    guarantees of the structure theorems are void.
    """


class AdditiveCode:
    """Immutable additive code, held as a row-reduced flattened Z_p basis."""

    def __init__(self, profile: BlockProfile, rows: Sequence | np.ndarray, *,
                 _closed: bool = False):
        self.profile = profile
        self.basis, self.pivots = linalg.rref(linalg.as_matrix(rows, profile.n), profile.p)
        self.basis.setflags(write=False)
        if not _closed:
            self._verify_module_closure()

    def _verify_module_closure(self) -> None:
        # closure under u gives closure under u^2 = u * u
        if not self._closed_under(scalar_matrix(self.profile, _U)):
            raise ZprsError("row space is not closed under the S-module action; "
                            "build codes with span_closure")

    def _closed_under(self, op: np.ndarray) -> bool:
        p = self.profile.p
        return linalg.in_row_space(self.basis, self.pivots, self.basis @ op % p, p)

    # -- basic queries ----------------------------------------------------

    @property
    def rank(self) -> int:
        return self.basis.shape[0]

    @property
    def size(self) -> int:
        return self.profile.p ** self.rank

    def basis_words(self) -> list[MixedWord]:
        return [unflatten(row, self.profile) for row in self.basis]

    def __eq__(self, other) -> bool:
        return (isinstance(other, AdditiveCode) and self.profile == other.profile
                and self.basis.shape == other.basis.shape
                and bool((self.basis == other.basis).all()))

    def __hash__(self) -> int:
        return hash((self.profile, self.basis.tobytes()))

    def __repr__(self) -> str:
        pr = self.profile
        return (f"AdditiveCode(p={pr.p}, (q,r,s)=({pr.q},{pr.r},{pr.s}), "
                f"rank={self.rank})")

    def contains(self, w: MixedWord | Sequence[int]) -> bool:
        if isinstance(w, MixedWord):
            if w.profile != self.profile:
                raise ProfileMismatch("word profile differs from the code profile")
            vec = flatten(w)
        else:
            vec = np.asarray(w, dtype=np.int64)
            if vec.shape != (self.profile.n,):
                raise LengthMismatch(f"expected a length-{self.profile.n} vector")
        return linalg.in_row_space(self.basis, self.pivots, vec, self.profile.p)

    def is_subcode_of(self, other: "AdditiveCode") -> bool:
        if self.profile != other.profile:
            raise ProfileMismatch("codes over different profiles")
        return linalg.in_row_space(other.basis, other.pivots, self.basis, self.profile.p)

    def iter_codeword_vectors(self) -> Iterator[np.ndarray]:
        """Yield chunks of flattened codewords (all p^rank of them; rank 0 gives
        the zero word alone; ``TooLarge`` above 2^24 words)."""
        yield from linalg.iter_row_space(self.basis, self.profile.p)

    def codewords(self) -> Iterator[MixedWord]:
        if self.size > 2 ** 20:
            raise TooLarge(f"code has {self.size} words, above the bound {2 ** 20}")
        for block in self.iter_codeword_vectors():
            for row in block:
                yield unflatten(row, self.profile)

    # -- constructions ----------------------------------------------------

    @classmethod
    def zero(cls, profile: BlockProfile) -> "AdditiveCode":
        return cls(profile, [], _closed=True)

    @classmethod
    def full_space(cls, profile: BlockProfile) -> "AdditiveCode":
        return cls(profile, np.eye(profile.n, dtype=np.int64), _closed=True)

    def dual(self) -> "AdditiveCode":
        """Kernel of [B J_0; B J_1; B J_2]: every u-coefficient of <v, b> vanishes."""
        pr = self.profile
        constraints = (self.basis @ form_matrices(pr) % pr.p).reshape(-1, pr.n)
        return AdditiveCode(pr, linalg.kernel_basis(constraints, pr.p), _closed=True)

    def is_constacyclic(self, mu0: UnitLike = 1, mu1: UnitLike = 1,
                        mu2: UnitLike = 1) -> bool:
        return self._closed_under(shift_matrix(self.profile, mu0, mu1, mu2))

    def punctured(self, block: str) -> "AdditiveCode":
        """Projection onto one block ('q', 'r' or 's'), as a code over that block."""
        pr = self.profile
        cols = dict(zip("qrs", block_columns(pr)))[block].ravel()
        if cols.size == 0:
            raise ProfileMismatch(f"block {block!r} is empty")
        sub_profile = BlockProfile(pr.p, *(getattr(pr, b) if b == block else 0 for b in "qrs"))
        return AdditiveCode(sub_profile, self.basis[:, cols], _closed=True)

    def components(self) -> tuple["AdditiveCode | None", ...]:
        """Punctured codes (C_q, C_r, C_s); None for empty blocks."""
        return tuple(self.punctured(b) if getattr(self.profile, b) else None for b in "qrs")

    def is_separable(self) -> bool:
        """True iff the code is the direct product of its block punctures."""
        return self.rank == sum(c.rank for c in self.components() if c is not None)


def span_closure(generators: Iterable[MixedWord],
                 profile: BlockProfile | None = None) -> AdditiveCode:
    """Smallest S-submodule containing the generators.

    The Z_p-span of the generator matrix G together with G U and G U^2;
    by linearity of the scalar action that span is S-closed.
    """
    profile, g = _generator_matrix(generators, profile)
    return AdditiveCode(profile, _scalar_span_rows(profile, g), _closed=True)


def _generator_matrix(generators: Iterable[MixedWord],
                      profile: BlockProfile | None) -> tuple[BlockProfile, np.ndarray]:
    gens = list(generators)
    if profile is None:
        if not gens:
            raise ProfileMismatch("empty generator list needs an explicit profile")
        profile = gens[0].profile
    if any(g.profile != profile for g in gens):
        raise ProfileMismatch("generators with mixed profiles")
    return profile, linalg.as_matrix([flatten(g) for g in gens], profile.n)


def _scalar_span_rows(profile: BlockProfile, g: np.ndarray) -> np.ndarray:
    """[G; G U; G U^2]."""
    p = profile.p
    return np.concatenate([g, g @ scalar_matrix(profile, _U) % p,
                           g @ scalar_matrix(profile, _U2) % p])


def shift_module_span(generators: Iterable[MixedWord],
                      mu0: UnitLike = 1, mu1: UnitLike = 1, mu2: UnitLike = 1,
                      profile: BlockProfile | None = None) -> AdditiveCode:
    """The S[x]-module span: closure under scalars *and* the constacyclic shift.

    The shift matrix X realizes multiplication by x on the polynomial side,
    so the code is the row space of the Krylov stack G U^j X^i (j < 3,
    i < N) of the generator matrix G.  X commutes with U and U^3 = 0, and by
    Cayley-Hamilton X^N is a combination of lower powers, so the stack is
    closed under both; it is row-reduced once.
    """
    profile, g = _generator_matrix(generators, profile)
    x = shift_matrix(profile, mu0, mu1, mu2)
    krylov = [_scalar_span_rows(profile, g)]
    for _ in range(profile.n - 1):
        krylov.append(krylov[-1] @ x % profile.p)
    return AdditiveCode(profile, np.concatenate(krylov), _closed=True)


def _as_block_poly(poly, p: int, k: int, default: Poly) -> Poly:
    if poly is None:
        return default
    if isinstance(poly, Poly):
        if poly.p != p:
            raise ProfileMismatch("polynomial modulus differs from the profile")
        return poly.lift(k) if poly.k < k else poly
    return Poly.make(list(poly), p, k)


def _block_word(profile: BlockProfile, zp_poly: Poly | None,
                r_poly: Poly | None, s_poly: Poly | None) -> MixedWord:
    """Generator word whose blocks carry the given (already reduced) polynomials."""
    def entries(poly: Poly | None, length: int, k: int) -> tuple[ChainElement, ...]:
        coeffs = poly.coeffs[:length] if poly is not None else ()
        return coeffs + (ChainElement.zero(profile.p, k),) * (length - len(coeffs))

    zp = tuple(c.coeffs[0] for c in entries(zp_poly, profile.q, 1))
    return MixedWord(profile, zp, entries(r_poly, profile.r, 2), entries(s_poly, profile.s, 3))


def _divisors(given, names: tuple[str, ...], p: int, k: int, modulus: Poly, mu) -> list[Poly]:
    """The block polynomials named in ``names`` (the modulus where omitted),
    each required to divide the block modulus x^n - mu."""
    given = tuple(given or ())
    out = []
    for i, name in enumerate(names):
        poly = _as_block_poly(given[i] if i < len(given) else None, p, k, modulus)
        if not divides(poly, modulus):
            raise DivisibilityViolation(
                f"{name} = {poly} does not divide x^{modulus.degree} - {mu}")
        out.append(poly)
    return out


def _soft_check(ok: bool, message: str, policy: str) -> None:
    if ok:
        return
    if policy == "reject":
        raise DivisibilityViolation(message)
    if policy == "warn":
        warnings.warn(message, GeneratorHypothesisWarning, stacklevel=3)


def from_generator_polynomials(profile: BlockProfile,
                               mu: tuple[UnitLike, UnitLike, UnitLike] = (1, 1, 1),
                               *,
                               f0=None,
                               g: tuple | None = None,
                               h: tuple | None = None,
                               l: tuple | None = None,
                               hypotheses: str = "warn") -> AdditiveCode:
    """Build a constacyclic code from generator-polynomial data.

    The generator rows are, per block profile (absent blocks drop out):

        (f0, 0, 0),  (l1, g0 + u g1, 0),  (l2, l3, h0 + u h1 + u^2 h2)

    ``g`` is (g0, g1), ``h`` is (h0, h1, h2), ``l`` is (l1, l2, l3) with
    l1, l2 over Z_p and l3 over R.  Polynomials may be given as coefficient
    sequences (ints for Z_p, pairs/triples for R/S) or Poly values; an
    omitted polynomial defaults to the block modulus, which is zero in the
    quotient and contributes nothing.

    Hard preconditions (always enforced): gcd(p, block length) = 1 for each
    nonzero block, and every supplied polynomial divides its block modulus.
    The structure-theorem hypotheses -- the ord-congruences on the block
    lengths and the divisor chains g1 | g0 and h2 | h1 | h0 -- are *not*
    needed by the construction, which row-reduces the shift-and-scalar span
    directly; they are checked under ``hypotheses`` in {"warn", "reject",
    "ignore"} (default "warn").
    """
    pr = profile
    p = pr.p
    if hypotheses not in ("warn", "reject", "ignore"):
        raise ValueError("hypotheses must be 'warn', 'reject' or 'ignore'")
    for n_block, name in ((pr.q, "q"), (pr.r, "r"), (pr.s, "s")):
        if n_block and n_block % p == 0:
            raise GcdViolation(f"gcd(p, {name}) must be 1 (p={p}, {name}={n_block})")
    mu0 = as_unit(mu[0], p, 1) if pr.q else None
    mu1 = as_unit(mu[1], p, 2) if pr.r else None
    mu2 = as_unit(mu[2], p, 3) if pr.s else None

    if hypotheses != "ignore":
        for n_block, unit, name in ((pr.q, mu0, "q"), (pr.r, mu1, "r"), (pr.s, mu2, "s")):
            if n_block and unit is not None:
                t = unit_order(unit)
                _soft_check(n_block % t == 1 % t,
                            f"{name} = {n_block} violates {name} = 1 (mod ord(mu)) "
                            f"with ord(mu) = {t}", hypotheses)

    l = l or (None, None, None)
    l1, l2, l3 = (tuple(l) + (None,) * 3)[:3]
    words = []

    mod_q = x_pow_n_minus(mu0, pr.q, p, 1) if pr.q else None
    mod_r = x_pow_n_minus(mu1, pr.r, p, 2) if pr.r else None
    mod_s = x_pow_n_minus(mu2, pr.s, p, 3) if pr.s else None

    if pr.q:
        (f0p,) = _divisors((f0,), ("f0",), p, 1, mod_q, mu0)
        words.append(_block_word(pr, poly_divmod(f0p, mod_q)[1], None, None))

    if pr.r:
        g0, g1 = _divisors(g, ("g0", "g1"), p, 2, mod_r, mu1)
        if hypotheses != "ignore":
            _soft_check(divides(g1, g0), f"chain g1 | g0 fails for g1 = {g1}, g0 = {g0}",
                        hypotheses)
        l1p = poly_divmod(_as_block_poly(l1, p, 1, Poly.zero(p)), mod_q)[1] if pr.q else None
        u_r = Poly(p, 2, (ChainElement(p, 2, (0, 1)),))
        row_r = poly_divmod(g0 + u_r * g1, mod_r)[1]
        words.append(_block_word(pr, l1p, row_r, None))

    if pr.s:
        h0, h1, h2 = _divisors(h, ("h0", "h1", "h2"), p, 3, mod_s, mu2)
        if hypotheses != "ignore":
            _soft_check(divides(h2, h1), f"chain h2 | h1 fails for h2 = {h2}, h1 = {h1}",
                        hypotheses)
            _soft_check(divides(h1, h0), f"chain h1 | h0 fails for h1 = {h1}, h0 = {h0}",
                        hypotheses)
        l2p = poly_divmod(_as_block_poly(l2, p, 1, Poly.zero(p)), mod_q)[1] if pr.q else None
        l3p = poly_divmod(_as_block_poly(l3, p, 2, Poly.zero(p, 2)), mod_r)[1] if pr.r else None
        u_s = Poly(p, 3, (ChainElement(p, 3, (0, 1, 0)),))
        row_s = poly_divmod(h0 + u_s * h1 + u_s * u_s * h2, mod_s)[1]
        words.append(_block_word(pr, l2p, l3p, row_s))

    return shift_module_span(words, *(1 if m is None else m for m in (mu0, mu1, mu2)),
                             profile=pr)


def word_from_polynomials(profile: BlockProfile,
                          zp_poly=None, r_poly=None, s_poly=None) -> MixedWord:
    """Word whose blocks list the coefficients of the given polynomials.

    Degrees must fit inside their blocks; callers reduce mod the block
    modulus beforehand when starting from larger-degree data.
    """
    p = profile.p
    zp = _as_block_poly(zp_poly, p, 1, Poly.zero(p)) if zp_poly is not None else None
    rp = _as_block_poly(r_poly, p, 2, Poly.zero(p, 2)) if r_poly is not None else None
    sp = _as_block_poly(s_poly, p, 3, Poly.zero(p, 3)) if s_poly is not None else None
    for poly, n_block, name in ((zp, profile.q, "q"), (rp, profile.r, "r"),
                                (sp, profile.s, "s")):
        if poly is not None and poly.degree >= n_block:
            raise DivisibilityViolation(f"polynomial degree exceeds block length {name}")
    return _block_word(profile, zp, rp, sp)
