"""The four benchmark workloads: inputs, one pass over the task list, and
output checks.

Every workload calls zprs through module attributes (``zprs.x``), never
through names bound at import time, so the tracer's wrappers are seen.
A pass returns one output per task, or the exception it raised; checks run
afterwards, outside the timed region, and report one failure string per
task that raised, was refused or gave a wrong answer.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import time
from pathlib import Path

import numpy as np

import zprs
import zprs.cli
import zprs.enumerators

GOLDEN = Path(__file__).resolve().parent / "golden"


class Failure:
    """A task that raised instead of returning; kept in the output list."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __repr__(self) -> str:
        return f"Failure({self.text})"


def run_tasks(tasks) -> tuple[list, list[float]]:
    """Call each (name, fn) task; a raised exception becomes a Failure.

    Returns the outputs and the wall seconds of each task.
    """
    out, seconds = [], []
    for _, fn in tasks:
        t0 = time.perf_counter()
        try:
            out.append(fn())
        except Exception as exc:  # every refusal or error is counted, never dropped
            out.append(Failure(exc))
        seconds.append(time.perf_counter() - t0)
    return out, seconds


def _failed(name: str, value: Failure) -> str:
    return f"{name}: {value.text}"


# ---------------------------------------------------------------------------
# css_search: the fixed research search


CSS_P, CSS_S = 17, 8


class CssSearch:
    """search_dual_containing(17, 8): 3^8 assignments, 22 parameter sets."""

    name = "css_search"

    def __init__(self, seed: int):
        self.golden = (GOLDEN / "css_search_17_8.txt").read_text()
        # warm-up on the 9 assignments of x^2 - 1: every stage of the search
        # (construct, Gray image, dual test, distance) runs once before timing
        zprs.search_dual_containing(CSS_P, 2)

    def tasks(self):
        return [("search(17,8)", lambda: zprs.search_dual_containing(CSS_P, CSS_S))]

    @staticmethod
    def rank_pruned() -> int:
        return rank_pruned(CSS_P, CSS_S)

    @staticmethod
    def serialize(outputs) -> str:
        (hits,) = outputs
        if isinstance(hits, Failure):
            return repr(hits)
        return "".join(serialize_hit(h) + "\n" for h in hits)

    def check(self, outputs) -> list[str]:
        (hits,) = outputs
        if isinstance(hits, Failure):
            return [_failed("search(17,8)", hits)]
        text = self.serialize(outputs)
        if text != self.golden:
            return ["search(17,8): hit list differs from golden"]
        if not any(str(h.params) == "[[16,8,4]]_17" and h.distance_exact for h in hits):
            return ["search(17,8): [[16,8,4]]_17 missing"]
        return []


def rank_pruned(p: int, s: int) -> int:
    """Assignments of x^s - 1 whose cyclic code has rank below s.

    Slots F0, F1, F2 contribute 2, 1, 0 times a factor's degree to the rank,
    and a Gray image [2s, rank] with rank < s cannot contain its dual.
    """
    degrees = [f.degree for f in zprs.factor_xn_minus_lambda(p, s, 1)]
    return sum(1 for slots in itertools.product((2, 1, 0), repeat=len(degrees))
               if sum(w * d for w, d in zip(slots, degrees)) < s)


def serialize_hit(h) -> str:
    return json.dumps({"quantum": str(h.params), "gray": [h.gray_n, h.gray_k],
                       "distance_exact": h.distance_exact,
                       "generator": h.generator.int_coeffs(),
                       "u_generator": h.u_generator.int_coeffs(),
                       "slots": [[f.int_coeffs() for f in fs] for fs in
                                 (h.assignment.f0, h.assignment.f1, h.assignment.f2)]},
                      separators=(",", ":"))


# ---------------------------------------------------------------------------
# enumerate: seeded random additive codes through the enumerators


# (label, p, (q, r, s), rank, what the code goes through)
ENUM_CODES = [
    ("lopsided_a", 2, (4, 4, 4), 18, "transforms"),
    ("lopsided_b", 2, (4, 4, 4), 18, "transforms"),
    ("balanced_z2", 2, (4, 4, 4), 12, "complete"),
    ("balanced_z3", 3, (3, 3, 3), 6, "complete"),
]

ENUMERATORS = (
    ("hamming", "hamming_enumerator", "hamming_transform"),
    ("lee", "lee_enumerator", "lee_transform"),
    ("symmetrized", "symmetrized_enumerator", "symmetrized_transform"),
)


def _random_word(rng, profile, kind: int):
    """A random word whose S-module span adds at most 3 - kind dimensions.

    kind 0 is generic; kind 1 lies in u*(ambient) on the R and S blocks, so
    u^2 kills it; kind 2 lies in u^2*(ambient) on the S block and has no R
    part, so u kills it.  The Z_p block is killed by u in every case.
    """
    p, q, r, s = profile.p, profile.q, profile.r, profile.s
    zp = rng.integers(0, p, q).tolist()
    ra, rb = rng.integers(0, p, (2, r)).tolist()
    sa, sb, sc = rng.integers(0, p, (3, s)).tolist()
    if kind == 0:
        rpart = list(zip(ra, rb))
        spart = list(zip(sa, sb, sc))
    elif kind == 1:
        rpart = [(0, b) for b in rb]
        spart = [(0, b, c) for b, c in zip(sb, sc)]
    else:
        rpart = [(0, 0)] * r
        spart = [(0, 0, c) for c in sc]
    return zprs.MixedWord.make(profile, zp, rpart, spart)


def random_code(rng, p: int, qrs: tuple[int, int, int], rank: int):
    """Span closure of random words, grown one word at a time to exactly ``rank``.

    A word that would overshoot the rank is redrawn; kind-2 words add at most
    one dimension, so the loop always reaches the target.
    """
    profile = zprs.BlockProfile(p, *qrs)
    words, code = [], zprs.AdditiveCode.zero(profile)
    while code.rank < rank:
        word = _random_word(rng, profile, int(rng.integers(0, 3)))
        cand = zprs.span_closure(words + [word], profile)
        if code.rank < cand.rank <= rank:
            words.append(word)
            code = cand
    return code


class Enumerate:
    """Hamming, Lee and symmetrized enumerators plus transforms on two rank-18
    Z_2 codes (dual rank 6), and the complete MacWilliams check on a balanced
    rank-12 Z_2 code and a rank-6 Z_3 code."""

    name = "enumerate"

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.codes = [(label, random_code(rng, p, qrs, rank), what)
                      for label, p, qrs, rank, what in ENUM_CODES]
        # one-time caches: symbol weight tables and the character matrices
        for p in (2, 3):
            table = zprs.symbol_table(p)
            table.lee_weights, table.gray_weights
            zprs.enumerators.char_exponent_matrix(p)
        zprs.symmetrized_q_matrix(2)

    def profile(self) -> list[tuple]:
        """(label, p, q, r, s, rank, dual rank) of every input code."""
        out = []
        for label, code, _ in self.codes:
            pr = code.profile
            out.append((label, pr.p, pr.q, pr.r, pr.s, code.rank, code.dual().rank))
        return out

    def tasks(self):
        tasks = []
        for label, code, what in self.codes:
            if what == "complete":
                tasks.append((f"{label}.complete",
                              lambda c=code: zprs.macwilliams_complete_check(c)))
                continue
            for kind, enum_name, transform_name in ENUMERATORS:
                def task(c=code, e=enum_name, t=transform_name):
                    primal = getattr(zprs, e)(c)
                    return primal, getattr(zprs, t)(primal, c.size, c.profile.p)
                tasks.append((f"{label}.{kind}", task))
        return tasks

    def serialize(self, outputs) -> str:
        lines = []
        for (name, _), out in zip(self.tasks(), outputs):
            if isinstance(out, (Failure, bool)):
                lines.append(f"{name} {out!r}")
            else:
                lines.append(f"{name} {sorted(out[0].terms.items())} "
                             f"{sorted(out[1].terms.items())}")
        return "\n".join(lines) + "\n"

    def check(self, outputs) -> list[str]:
        """Each transform must equal the enumerator computed directly on the
        dual; each enumerator must sum to the code size; complete checks pass."""
        bad = []
        by_label = {label: code for label, code, _ in self.codes}
        for (name, _), out in zip(self.tasks(), outputs):
            if isinstance(out, Failure):
                bad.append(_failed(name, out))
                continue
            label, kind = name.split(".")
            if kind == "complete":
                if out is not True:
                    bad.append(f"{name}: complete MacWilliams check returned {out!r}")
                continue
            code = by_label[label]
            enum_name = dict((k, e) for k, e, _ in ENUMERATORS)[kind]
            primal, transformed = out
            direct = getattr(zprs, enum_name)(code.dual())
            if primal.coefficient_sum() != code.size:
                bad.append(f"{name}: coefficient sum {primal.coefficient_sum()} != |C|")
            elif direct.coefficient_sum() != code.dual().size:
                bad.append(f"{name}: dual coefficient sum != |C^perp|")
            elif transformed != direct:
                bad.append(f"{name}: transform differs from the direct dual enumerator")
        return bad


# ---------------------------------------------------------------------------
# factor: x^n - lambda over Z_p


# trial-division lengths first, then the split lengths the search and the
# table use, then two constacyclic moduli (lambda != 1)
FACTOR_TASKS = [
    (2, 23, 1), (2, 25, 1), (2, 27, 1), (2, 17, 1), (3, 14, 1), (5, 13, 1),
    (13, 18, 1), (17, 8, 1), (5, 12, 1),
    (3, 8, 2), (5, 12, 2),
]


def cyclotomic_coset_sizes(p: int, n: int) -> list[int]:
    """Sizes of the orbits of j -> p*j on Z_n: the factor degrees of x^n - 1."""
    seen, sizes = set(), []
    for j in range(n):
        if j in seen:
            continue
        orbit, k = set(), j
        while k not in orbit:
            orbit.add(k)
            k = k * p % n
        seen |= orbit
        sizes.append(len(orbit))
    return sorted(sizes)


class Factor:
    """factor_xn_minus_lambda on the fixed FACTOR_TASKS list."""

    name = "factor"

    def __init__(self, seed: int):
        pass

    def tasks(self):
        return [(f"x^{n}-{lam} over Z_{p}",
                 lambda p=p, n=n, lam=lam: zprs.factor_xn_minus_lambda(p, n, lam))
                for p, n, lam in FACTOR_TASKS]

    @staticmethod
    def serialize(outputs) -> str:
        return "".join((repr(out) if isinstance(out, Failure)
                        else repr([f.int_coeffs() for f in out])) + "\n" for out in outputs)

    def check(self, outputs) -> list[str]:
        """Product is x^n - lambda, factors are monic and canonically sorted,
        and for lambda = 1 the degrees are the p-cyclotomic coset sizes."""
        bad = []
        for (name, _), (p, n, lam), out in zip(self.tasks(), FACTOR_TASKS, outputs):
            if isinstance(out, Failure):
                bad.append(_failed(name, out))
                continue
            modulus = zprs.Poly.make([-lam] + [0] * (n - 1) + [1], p)
            product = zprs.Poly.one(p)
            for f in out:
                product = product * f
            keys = [(f.degree, tuple(f.int_coeffs())) for f in out]
            if product != modulus:
                bad.append(f"{name}: product of factors is {product}")
            elif any(f.degree < 1 or f.int_coeffs()[-1] != 1 for f in out):
                bad.append(f"{name}: a factor is not monic of positive degree")
            elif keys != sorted(keys):
                bad.append(f"{name}: factors not in canonical order")
            elif lam == 1 and sorted(k[0] for k in keys) != cyclotomic_coset_sizes(p, n):
                bad.append(f"{name}: degrees differ from the cyclotomic coset sizes")
        return bad


# ---------------------------------------------------------------------------
# reproduce: the golden paper check through the CLI


class Reproduce:
    """zprs.cli.main(["reproduce", "--target", "all"]) in-process."""

    name = "reproduce"
    ARGV = ["reproduce", "--target", "all"]

    def __init__(self, seed: int):
        self.golden = (GOLDEN / "reproduce_all.txt").read_text()
        # one-time caches the worked examples use
        table = zprs.symbol_table(2)
        table.lee_weights, table.gray_weights
        zprs.enumerators.char_exponent_matrix(2)
        zprs.symmetrized_q_matrix(2)

    def tasks(self):
        return [("reproduce --target all", self._run)]

    def _run(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = zprs.cli.main(list(self.ARGV))
        return code, buf.getvalue()

    @staticmethod
    def serialize(outputs) -> str:
        (out,) = outputs
        return repr(out) if isinstance(out, Failure) else f"exit {out[0]}\n{out[1]}"

    def check(self, outputs) -> list[str]:
        (out,) = outputs
        if isinstance(out, Failure):
            return [_failed("reproduce", out)]
        code, stdout = out
        if code != 0:
            return [f"reproduce: exit code {code}"]
        if stdout != self.golden:
            return ["reproduce: stdout differs from golden"]
        return []


WORKLOADS = {w.name: w for w in (CssSearch, Enumerate, Factor, Reproduce)}
