"""Golden-value reproduction harness.

Each target rebuilds one of the worked p = 2 examples or the table of
quantum codes from scratch and compares against the expected values
embedded here.  The CLI exposes this as `zprs reproduce --target ...`;
the test suite calls it directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .additive import span_closure
from .enumerators import (_hamming_walk, _lee_walk, _symmetrized_walk, hamming_enumerator,
                          hamming_transform, lee_enumerator, lee_transform,
                          macwilliams_complete_check, symmetrized_enumerator,
                          symmetrized_transform)
from .errors import ZprsError
from .gray import GrayMap
from .polynomials import Poly, hat
from .quantum import code_from_table_generators, css
from .words import BlockProfile, MixedWord


@dataclass
class ReproItem:
    name: str
    ok: bool
    detail: str


P2_PROFILE = BlockProfile(2, 2, 2, 2)

# the two generators shared by the worked examples (block notation)
P2_GENERATORS = [
    ((1, 0), ((0, 0), (0, 1)), ((1, 0, 1), (0, 0, 0))),   # (1,0 | 0,u | 1+u^2,0)
    ((0, 1), ((1, 1), (0, 0)), ((0, 0, 0), (1, 1, 0))),   # (0,1 | 1+u,0 | 0,1+u)
]

# the expanded generating set listed for the span of the two generators
EXAMPLE1_EXPANDED = P2_GENERATORS + [
    ((0, 0), ((0, 0), (0, 0)), ((0, 1, 0), (0, 0, 0))),   # (0,0 | 0,0 | u,0)
    ((0, 0), ((0, 0), (0, 0)), ((0, 0, 1), (0, 0, 0))),   # (0,0 | 0,0 | u^2,0)
    ((0, 0), ((0, 1), (0, 0)), ((0, 0, 0), (0, 1, 1))),   # (0,0 | u,0 | 0,u+u^2)
    ((0, 0), ((0, 0), (0, 0)), ((0, 0, 0), (0, 0, 1))),   # (0,0 | 0,0 | 0,u^2)
]

# basis of the dual code (block notation)
EXAMPLE2_DUAL_BASIS = [
    ((0, 0), ((0, 0), (0, 1)), ((0, 0, 0), (0, 0, 0))),   # (0,0 | 0,u | 0,0)
    ((1, 0), ((0, 0), (1, 0)), ((0, 0, 0), (0, 0, 0))),   # (1,0 | 0,1 | 0,0)
    ((0, 0), ((0, 1), (0, 0)), ((0, 0, 0), (0, 0, 1))),   # (0,0 | u,0 | 0,u^2)
    ((0, 1), ((0, 1), (0, 0)), ((0, 0, 0), (0, 0, 0))),   # (0,1 | u,0 | 0,0)
    ((0, 0), ((1, 1), (0, 0)), ((0, 0, 0), (0, 1, 1))),   # (0,0 | 1+u,0 | 0,u+u^2)
    ((1, 0), ((0, 0), (0, 0)), ((0, 0, 1), (0, 0, 0))),   # (1,0 | 0,0 | u^2,0)
]

# Hamming enumerator x^2 + 4xy + 59y^2 (same for the code and its dual)
EXAMPLE3_HAMMING = {0: 1, 1: 4, 2: 59}

# symmetrized enumerators as {(i, j): coefficient of W_i W_j} with i <= j
EXAMPLE4_PRIMAL = {(0, 0): 1, (2, 2): 5, (0, 3): 1, (2, 3): 8, (0, 2): 2, (0, 1): 1,
                   (1, 3): 3, (3, 5): 7, (3, 4): 11, (4, 5): 6, (3, 3): 3, (1, 2): 4,
                   (1, 5): 1, (1, 4): 1, (2, 4): 4, (4, 4): 4, (5, 5): 2}
EXAMPLE4_DUAL = {(0, 0): 1, (0, 3): 2, (1, 1): 3, (1, 4): 5, (1, 2): 4, (1, 5): 2,
                 (2, 4): 8, (2, 2): 3, (2, 5): 3, (1, 3): 2, (3, 4): 6, (3, 3): 5,
                 (4, 4): 2, (2, 3): 8, (0, 2): 1, (3, 5): 4, (4, 5): 2, (0, 5): 1,
                 (1, 6): 1, (4, 6): 1}

# Lee enumerators as {Lee weight: coefficient}, total degree 12
EXAMPLE5_PRIMAL = {0: 1, 1: 1, 2: 2, 3: 5, 4: 8, 5: 9, 6: 8, 7: 11, 8: 11, 9: 6, 10: 2}
EXAMPLE5_DUAL = {0: 1, 2: 4, 3: 6, 4: 5, 5: 14, 6: 15, 7: 10, 8: 6, 9: 2, 10: 1}

# (p, s, hat(F0), hat(F1) or ("cofactor", F1), Gray [n,k,d], quantum [[n,k,d]])
TABLE1_ROWS = [
    (5, 8, [1, 3, 2, 1], [3, 0, 4, 0, 2, 0, 1], (16, 12, 3), (16, 8, 3)),
    (5, 8, [2, 0, 1], [2, 0, 4, 0, 3, 0, 1], (16, 14, 2), (16, 12, 2)),
    (13, 6, [12, 6, 8, 1], [4, 12, 0, 9, 1], (12, 8, 4), (12, 4, 4)),
    (13, 8, [12, 5, 5, 1], [5, 0, 12, 0, 8, 0, 1], (16, 12, 3), (16, 8, 3)),
    (13, 8, [5, 6, 1], [5, 7, 1, 0, 5, 7, 1], (16, 14, 2), (16, 12, 2)),
    (13, 18, [3, 0, 12, 5, 0, 7, 10, 0, 1], ("cofactor", [12, 3, 0, 4, 1]),
     (36, 24, 5), (36, 12, 5)),
    (17, 8, [4, 5, 3, 1], [9, 14, 14, 8, 10, 12, 1], (16, 12, 4), (16, 8, 4)),
]


def _p2_words(raw):
    return [MixedWord.make(P2_PROFILE, *blocks) for blocks in raw]


def _p2_code():
    return span_closure(_p2_words(P2_GENERATORS))


def _sym_terms(enum):
    """{sorted variable sequence: coefficient} of a symmetrized enumerator."""
    return {tuple(v for v, e in key for _ in range(e)): c for key, c in enum.terms.items()}


def _bivariate_terms(enum):
    return {dict(key).get(1, 0): c for key, c in enum.terms.items()}


def _walks(walk, transform):
    """The worked code's walk, its dual's walk, and the transform of the first."""
    code = _p2_code()
    primal = walk(code)
    return code, primal, walk(code.dual()), transform(primal, code.size, 2)


def run_example1() -> list[ReproItem]:
    code = _p2_code()
    return [ReproItem("example1.rank", code.rank == 6, f"rank {code.rank}, expected 6")] + [
        ReproItem(f"example1.generator{i + 1}", code.contains(w), f"{w} in the span")
        for i, w in enumerate(_p2_words(EXAMPLE1_EXPANDED))]


def run_example2() -> list[ReproItem]:
    dual = _p2_code().dual()
    items = [ReproItem("example2.dual_rank", dual.rank == 6,
                       f"dual rank {dual.rank}, expected 6")]
    for i, w in enumerate(_p2_words(EXAMPLE2_DUAL_BASIS)):
        items.append(ReproItem(f"example2.basis{i + 1}", dual.contains(w),
                               f"{w} in the dual"))
    items.append(ReproItem("example2.macwilliams_complete",
                           macwilliams_complete_check(_p2_code()),
                           "complete-enumerator identity at 8 points"))
    return items


def run_example3() -> list[ReproItem]:
    # .transform compares two walks; .primal also checks the public enumerator
    code, primal, dual, transformed = _walks(_hamming_walk, hamming_transform)
    return [
        ReproItem("example3.primal", hamming_enumerator(code) == primal
                  and _bivariate_terms(primal) == EXAMPLE3_HAMMING,
                  f"W_H = {primal.text(['x', 'y'])}"),
        ReproItem("example3.dual", _bivariate_terms(dual) == EXAMPLE3_HAMMING,
                  f"W_H of the dual = {dual.text(['x', 'y'])}"),
        ReproItem("example3.transform", transformed == dual,
                  "transform with substitution (x + 63y, x - y) / 64"),
    ]


def run_example4() -> list[ReproItem]:
    code, primal, dual, transformed = _walks(_symmetrized_walk, symmetrized_transform)
    want_primal = {tuple(sorted(k)): v for k, v in EXAMPLE4_PRIMAL.items()}
    want_dual = {tuple(sorted(k)): v for k, v in EXAMPLE4_DUAL.items()}
    return [
        ReproItem("example4.primal", symmetrized_enumerator(code) == primal
                  and _sym_terms(primal) == want_primal,
                  f"{len(primal.terms)} terms, coefficient {primal.coefficient(((3, 1), (4, 1)))} "
                  "on W_4 W_3"),
        ReproItem("example4.dual", _sym_terms(dual) == want_dual,
                  f"{len(dual.terms)} terms, coefficient {dual.coefficient(((1, 1), (6, 1)))} "
                  "on W_1 W_6"),
        ReproItem("example4.transform", transformed == dual, "Q-matrix substitution / 64"),
    ]


def run_example5() -> list[ReproItem]:
    code, primal, dual, transformed = _walks(_lee_walk, lee_transform)
    return [
        ReproItem("example5.primal", lee_enumerator(code) == primal
                  and _bivariate_terms(primal) == EXAMPLE5_PRIMAL,
                  f"W_L = {primal.text(['x', 'y'])}"),
        ReproItem("example5.dual", _bivariate_terms(dual) == EXAMPLE5_DUAL,
                  f"W_L of the dual = {dual.text(['x', 'y'])}"),
        ReproItem("example5.transform", transformed == dual,
                  "transform with substitution (x + y, x - y) / 64"),
    ]


def run_table1() -> list[ReproItem]:
    items = []
    for row, (p, s, f0_hat, f1_hat, gray_expected, css_expected) in enumerate(TABLE1_ROWS,
                                                                              start=1):
        name = f"table1.row{row}[p={p},s={s}]"
        if isinstance(f1_hat, tuple):
            f1_hat = hat(Poly.make(f1_hat[1], p), p, s, 1).int_coeffs()
        try:
            fa, code = code_from_table_generators(p, s, f0_hat, f1_hat)
            image = GrayMap(p).image(code)
            params = css(image)   # raises NotDualContaining; d is the image's distance
            got_gray = (image.n, image.k, params.d)
            got_css = (params.n, params.k, params.d)
            ok = got_gray == gray_expected and got_css == css_expected
            detail = (f"Gray [{image.n},{image.k},{params.d}], {params}"
                      + ("" if ok else f"; expected Gray {gray_expected}, "
                                       f"[[{css_expected[0]},{css_expected[1]},"
                                       f"{css_expected[2]}]]_{p}"))
            items.append(ReproItem(name, ok, detail))
        except ZprsError as exc:
            items.append(ReproItem(name, False, f"discrepancy: {type(exc).__name__}: {exc}"))
    return items


TARGETS = {"example1": run_example1, "example2": run_example2, "example3": run_example3,
           "example4": run_example4, "example5": run_example5, "table1": run_table1}


def run_target(target: str) -> list[ReproItem]:
    if target == "all":
        return [item for run in TARGETS.values() for item in run()]
    return TARGETS[target]()
