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

A builder that knows an int64 RREF basis passes its pivots as ``_pivots=``, trusted;
the rows may then be a zero-argument ``functools.partial`` of a module-level function
(codes still pickle), run on the first read of ``basis``.  ``rank`` is len(pivots).
"""

from __future__ import annotations

import itertools
import warnings
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import linalg
from .errors import (DivisibilityViolation, GcdViolation, LengthMismatch, MalformedInput,
                     ProfileMismatch, TooLarge, ZprsError)
from .polynomials import Poly, divides, parse_poly, poly_divmod, x_pow_n_minus
from .rings import unit_order
from .words import (BlockProfile, MixedWord, UnitLike, _frozen, as_unit, block_columns,
                    flatten, form_matrices, scalar_matrix, shift_matrix, unflatten)

_U, _U2 = (0, 1, 0), (0, 0, 1)  # the scalars u and u^2 of S


class GeneratorHypothesisWarning(UserWarning):
    """A structure-theorem hypothesis (ord-congruence or divisor chain) is violated.

    The construction itself closes the span directly, so the resulting code
    is a genuine constacyclic code either way; only the canonical-form
    guarantees of the structure theorems are void.
    """


class AdditiveCode:
    """Immutable additive code, held as a row-reduced flattened Z_p basis."""

    _split = None  # (A, B, its image's dual verdict) of an R-code A x uB, set by its builder

    def __init__(self, profile: BlockProfile, rows: Sequence | np.ndarray, *,
                 _closed: bool = False, _pivots: list[int] | None = None):
        self.profile = profile
        if _pivots is None:
            rows, _pivots = linalg.rref(linalg.as_matrix(rows, profile.n), profile.p)
        self.pivots, self._rows = _pivots, rows   # rows: trusted, maybe a builder (module doc)
        if not _closed:
            self._verify_module_closure()

    @cached_property
    def basis(self) -> np.ndarray:
        return _frozen(self._rows() if callable(self._rows) else self._rows)

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
        return len(self.pivots)

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
            vec = linalg.as_integers(w)
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
        if not isinstance(block, str) or block not in ("q", "r", "s"):
            raise MalformedInput(f"block must be 'q', 'r' or 's', got {block!r}")
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


def _as_block_poly(poly, p: int, k: int) -> Poly:
    """A Poly, a coefficient sequence or Z_p polynomial text as a polynomial over
    block k; anything else raises ``MalformedInput``."""
    if isinstance(poly, str):
        poly = parse_poly(poly, p)
    if isinstance(poly, Poly):
        if poly.p != p:
            raise ProfileMismatch("polynomial modulus differs from the profile")
        return poly.lift(k) if poly.k < k else poly
    if not isinstance(poly, (Sequence, np.ndarray)):
        raise MalformedInput(f"a polynomial is a coefficient array or text, got {poly!r}")
    return Poly.make(list(poly), p, k)


def _soft_check(ok: bool, message: str, policy: str) -> None:
    if ok:
        return
    if policy == "reject":
        raise DivisibilityViolation(message)
    if policy == "warn":
        warnings.warn(message, GeneratorHypothesisWarning, stacklevel=3)


def block_units(mu) -> tuple:
    """``mu`` as (mu0, mu1, mu2), one unit per block; else ``LengthMismatch``."""
    if not isinstance(mu, Sequence) or isinstance(mu, str) or len(mu) != 3:
        raise LengthMismatch(f"mu needs one unit per block, got {mu!r}")
    return tuple(mu)


# Row k: the divisors d_i of the block-k modulus, whose sum of u^i d_i fills
# block k, and the mixing polynomials that fill blocks 1, ..., k-1.
_ROWS = ((("f0",), ()), (("g0", "g1"), ("l1",)), (("h0", "h1", "h2"), ("l2", "l3")))


def from_generator_polynomials(profile: BlockProfile,
                               mu: tuple[UnitLike, UnitLike, UnitLike] = (1, 1, 1), *,
                               f0=None, g: tuple | None = None, h: tuple | None = None,
                               l: tuple | None = None, hypotheses: str = "warn") -> AdditiveCode:
    """Build a constacyclic code from generator-polynomial data.

    The generator rows are, per block profile (absent blocks drop out):

        (f0, 0, 0),  (l1, g0 + u g1, 0),  (l2, l3, h0 + u h1 + u^2 h2)

    ``g`` is (g0, g1), ``h`` is (h0, h1, h2), ``l`` is (l1, l2, l3) with
    l1, l2 over Z_p and l3 over R.  Polynomials may be given as coefficient
    sequences (ints for Z_p, pairs/triples for R/S), Z_p polynomial text such
    as "x^3 + 3x^2 + 5x + 4", or Poly values; an omitted (or None) divisor
    defaults to the block modulus, which is zero in the quotient and
    contributes nothing, and an omitted (or None) mixing polynomial is 0.
    A polynomial or tuple of any other form raises ``MalformedInput``.

    Hard preconditions (always enforced): ``mu`` has three entries, ``g``,
    ``h`` and ``l`` at most 2, 3 and 3; no polynomial is given for a row or
    a block the profile lacks; gcd(p, block length) = 1 for each nonzero
    block; and every supplied divisor divides its block modulus.  The
    structure-theorem hypotheses -- the ord-congruences on the block
    lengths and the divisor chains g1 | g0 and h2 | h1 | h0 -- are *not*
    needed by the construction, which row-reduces the shift-and-scalar span
    directly; they are checked under ``hypotheses`` in {"warn", "reject",
    "ignore"} (default "warn").
    """
    p, lengths = profile.p, profile.lengths
    if hypotheses not in ("warn", "reject", "ignore"):
        raise MalformedInput(f"hypotheses must be 'warn', 'reject' or 'ignore', "
                             f"got {hypotheses!r}")
    mu = block_units(mu)
    given = {}
    for polys, names in zip(((f0,), g, h, l), [d for d, _ in _ROWS] + [("l1", "l2", "l3")]):
        if polys is not None and (isinstance(polys, str) or not isinstance(polys, Sequence)):
            raise MalformedInput(f"{', '.join(names)} must be a sequence of polynomials, "
                                 f"got {polys!r}")
        polys = tuple(polys or ())
        if len(polys) > len(names):
            raise LengthMismatch(f"{len(polys)} polynomials given for {', '.join(names)}")
        given.update(itertools.zip_longest(names, polys))
    for k, (names, mixing_names) in enumerate(_ROWS, 1):
        # a divisor lives in block k, the j-th mixing polynomial in block j
        for name, j in zip(names + mixing_names, (k,) * k + tuple(range(1, k))):
            empty = [b for b in (k, j) if not lengths[b - 1]]
            if given[name] is not None and empty:
                raise ProfileMismatch(f"{name} is given, but {'qrs'[empty[0] - 1]} = 0")
    for n_block, name in zip(lengths, "qrs"):
        if n_block and n_block % p == 0:
            raise GcdViolation(f"gcd(p, {name}) must be 1 (p={p}, {name}={n_block})")
    units = [as_unit(m, p, k) if n_block else None
             for k, (m, n_block) in enumerate(zip(mu, lengths), 1)]

    if hypotheses != "ignore":
        for n_block, unit, name in zip(lengths, units, "qrs"):
            if n_block:
                t = unit_order(unit)
                _soft_check(n_block % t == 1 % t,
                            f"{name} = {n_block} violates {name} = 1 (mod ord(mu)) "
                            f"with ord(mu) = {t}", hypotheses)

    moduli = [x_pow_n_minus(unit, n_block, p, k) if n_block else None
              for k, (unit, n_block) in enumerate(zip(units, lengths), 1)]
    words = []
    for k, (names, mixing_names) in enumerate(_ROWS, 1):
        modulus = moduli[k - 1]
        if modulus is None:
            continue
        ds = []
        for name in names:
            d = modulus if given[name] is None else _as_block_poly(given[name], p, k)
            if not divides(d, modulus):
                raise DivisibilityViolation(
                    f"{name} = {d} does not divide x^{modulus.degree} - {units[k - 1]}")
            ds.append(d)
        if hypotheses != "ignore":
            for i in range(k - 1, 0, -1):
                _soft_check(divides(ds[i], ds[i - 1]),
                            f"chain {names[i]} | {names[i - 1]} fails for "
                            f"{names[i]} = {ds[i]}, {names[i - 1]} = {ds[i - 1]}", hypotheses)
        mixed = [None if given[name] is None
                 else poly_divmod(_as_block_poly(given[name], p, j), moduli[j - 1])[1]
                 for j, name in enumerate(mixing_names, 1)]
        chain = sum((d.scale((0,) * i + (1,)) for i, d in enumerate(ds)), Poly.zero(p, k))
        words.append(word_from_polynomials(profile, *mixed, poly_divmod(chain, modulus)[1]))

    return shift_module_span(words, *(1 if m is None else m for m in units), profile=profile)


def word_from_polynomials(profile: BlockProfile,
                          zp_poly=None, r_poly=None, s_poly=None) -> MixedWord:
    """Word whose blocks list the coefficients of the given polynomials.

    Degrees must fit inside their blocks; callers reduce mod the block
    modulus beforehand when starting from larger-degree data.
    """
    p, lengths = profile.p, profile.lengths
    polys = [Poly.zero(p, k) if poly is None else _as_block_poly(poly, p, k)
             for k, poly in enumerate((zp_poly, r_poly, s_poly), 1)]
    for poly, n_block, name in zip(polys, lengths, "qrs"):
        if poly.degree >= n_block:
            raise DivisibilityViolation(f"polynomial degree exceeds block length {name}")
    return MixedWord.of(profile, ([poly.coefficient(j) for j in range(n_block)]
                                  for poly, n_block in zip(polys, lengths)))
