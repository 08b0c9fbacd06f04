"""Command-line front end.

Subcommands cover the full pipeline: polynomial factorization, code
construction from JSON specs, duals, membership, Gray images, minimum
distance, the four weight enumerators, MacWilliams verification, CSS
parameters, the assignment search, and `reproduce`, which checks the
built-in worked examples and the quantum-code table against computed
values.

Input specs are JSON, from --input FILE or stdin.  Polynomials are
coefficient arrays, lowest degree first; R and S coefficients are nested
arrays [a, b] and [a, b, d].  Every subcommand is deterministic: the same
inputs produce byte-identical output.

Exit codes: 0 success; 1 a verification reported FAIL; 2 precondition
violation (structured error on stderr); 64 unknown subcommand; 65
malformed JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import reproduce as _reproduce
from .additive import AdditiveCode, from_generator_polynomials, span_closure
from .enumerators import (_hamming_walk, _lee_walk, _symmetrized_walk, complete_enumerator,
                          hamming_enumerator, hamming_transform, lee_enumerator, lee_transform,
                          macwilliams_complete_check, symbol_table, symmetrized_enumerator,
                          symmetrized_transform)
from .errors import ZprsError
from .gray import GrayMap
from .linear import LinearCode
from .polynomials import factor_xn_minus_lambda, parse_poly
from .quantum import css, search_dual_containing
from .words import BlockProfile, MixedWord

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PRECONDITION = 2
EXIT_USAGE = 64
EXIT_BAD_JSON = 65

COMMANDS = ("factor", "build", "dual", "contains", "gray", "distance", "wenum",
            "macwilliams", "css", "css-search", "reproduce")


def _read_json(path: str | None):
    text = sys.stdin.read() if path in (None, "-") else Path(path).read_text()
    return json.loads(text)


def _word_from_json(profile: BlockProfile, blocks) -> MixedWord:
    zp, rpart, spart = blocks
    zp = [b[0] if isinstance(b, (list, tuple)) else b for b in zp]
    return MixedWord.make(profile, zp, rpart, spart)


def load_code(spec: dict) -> AdditiveCode:
    """Build an additive code from its JSON spec.

    Two equivalent forms: {"generators": [...]} listing words (each word is
    three arrays of coefficient arrays), or the polynomial form with keys
    "f0", "g", "h", "l".  Both carry p, q, r, s and optionally "mu".  The
    generators form spans the plain S-module closure; set
    "constacyclic_closure": true to also close under the (mu0, mu1, mu2)
    shift.  The polynomial form accepts Z_p polynomials as text.
    """
    profile = BlockProfile(int(spec["p"]), int(spec.get("q", 0)),
                           int(spec.get("r", 0)), int(spec.get("s", 0)))
    mu = spec.get("mu", [1, 1, 1])
    mu = [m if not isinstance(m, list) else tuple(m) for m in mu]
    if "generators" in spec:
        words = [_word_from_json(profile, blocks) for blocks in spec["generators"]]
        if spec.get("constacyclic_closure"):
            from .additive import shift_module_span
            return shift_module_span(words, *mu, profile=profile)
        return span_closure(words, profile=profile)
    def coerce(poly):
        # accept coefficient arrays or Z_p polynomial text like "x^3 + 3x^2 + 5x + 4"
        return parse_poly(poly, profile.p) if isinstance(poly, str) else poly

    polys = {key: tuple(map(coerce, spec[key])) for key in ("g", "h", "l") if key in spec}
    if "f0" in spec:
        polys["f0"] = coerce(spec["f0"])
    return from_generator_polynomials(profile, tuple(mu), **polys,
                                      hypotheses=spec.get("hypotheses", "warn"))


def load_linear(spec: dict) -> LinearCode:
    """Linear code from {"p", "n", "generator": rows} or an additive spec + Gray."""
    if "generator" in spec:
        rows = spec["generator"]
        n = int(spec.get("n", len(rows[0]) if rows else 0))
        return LinearCode(int(spec["p"]), n, rows)
    code = load_code(spec)
    return GrayMap(code.profile.p).image(code)


def _code_summary(code: AdditiveCode) -> dict:
    pr = code.profile
    return {"p": pr.p, "q": pr.q, "r": pr.r, "s": pr.s, "rank": code.rank,
            "cardinality": f"{pr.p}^{code.rank}",
            "basis": [[int(x) for x in row] for row in code.basis]}


def _print(payload, as_json: bool, text_lines) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


# -- subcommand handlers ------------------------------------------------------


def cmd_factor(args) -> int:
    factors = factor_xn_minus_lambda(args.p, args.n, getattr(args, "lambda"))
    payload = {"p": args.p, "n": args.n, "lambda": getattr(args, "lambda"),
               "factors": [f.int_coeffs() for f in factors]}
    _print(payload, args.json,
           [f"x^{args.n} - {getattr(args, 'lambda') % args.p} over Z_{args.p}:"]
           + [f"  {f}" for f in factors])
    return EXIT_OK


def cmd_build(args) -> int:
    code = load_code(_read_json(args.input))
    summary = _code_summary(code)
    _print(summary, args.json,
           [f"additive code over Z_{summary['p']} with (q,r,s)=({summary['q']},"
            f"{summary['r']},{summary['s']})",
            f"rank {summary['rank']}  (|C| = {summary['cardinality']})",
            "basis (flattened coordinates):"]
           + [f"  {row}" for row in summary["basis"]])
    return EXIT_OK


def cmd_dual(args) -> int:
    code = load_code(_read_json(args.input)).dual()
    summary = _code_summary(code)
    _print(summary, args.json,
           [f"dual rank {summary['rank']}  (|C^perp| = {summary['cardinality']})",
            "basis (flattened coordinates):"]
           + [f"  {row}" for row in summary["basis"]])
    return EXIT_OK


def cmd_contains(args) -> int:
    spec = _read_json(args.input)
    code = load_code(spec)
    word = _word_from_json(code.profile, json.loads(args.word))
    verdict = code.contains(word)
    _print({"contains": verdict}, args.json, [str(verdict).lower()])
    return EXIT_OK


def cmd_gray(args) -> int:
    code = load_code(_read_json(args.input))
    image = GrayMap(code.profile.p).image(code)
    payload = {"p": image.p, "n": image.n, "k": image.k,
               "generator": [[int(x) for x in row] for row in image.generator]}
    _print(payload, args.json,
           [f"Gray image: [{image.n}, {image.k}] over Z_{image.p}", "generator matrix:"]
           + [f"  {row}" for row in payload["generator"]])
    return EXIT_OK


def cmd_distance(args) -> int:
    code = load_linear(_read_json(args.input))
    d = code.min_distance(args.cap, jobs=args.jobs)
    payload = {"n": code.n, "k": code.k, "d": d}
    _print(payload, args.json, [f"[{code.n}, {code.k}, {d}] over Z_{code.p}"])
    return EXIT_OK


_WENUM = {"complete": complete_enumerator, "hamming": hamming_enumerator,
          "symmetrized": symmetrized_enumerator, "lee": lee_enumerator}


def _enum_names(kind: str, code: AdditiveCode):
    if kind in ("hamming", "lee"):
        return ["x", "y"]
    if kind == "symmetrized":
        t = symbol_table(code.profile.p)
        return [f"W_{i}" for i in range(t.max_lee_weight + 1)]
    return None  # complete: x_<index>


def cmd_wenum(args) -> int:
    code = load_code(_read_json(args.input))
    enum = _WENUM[args.kind](code)
    names = _enum_names(args.kind, code)
    lines = [enum.text(names)]
    if args.kind == "complete":
        t = symbol_table(code.profile.p)
        used = sorted({var for key in enum.terms for var, _ in key})
        lines.append("symbols:")
        for idx in used:
            x, y, z = t.triple(idx)
            lines.append(f"  x_{idx} = ({x}, {y}, {z})")
    _print({"kind": args.kind, "terms": enum.to_json()}, args.json, lines)
    return EXIT_OK


def cmd_macwilliams(args) -> int:
    code = load_code(_read_json(args.input))
    dual = code.dual()
    if args.kind == "complete":
        holds = macwilliams_complete_check(code)
        detail = "point evaluation over Z[zeta_p]"
    else:
        # two walks: a public enumerator of C may be the transform of the dual's walk
        walk, transform = {"hamming": (_hamming_walk, hamming_transform),
                           "symmetrized": (_symmetrized_walk, symmetrized_transform),
                           "lee": (_lee_walk, lee_transform)}[args.kind]
        holds = transform(walk(code), code.size, code.profile.p) == walk(dual)
        detail = "exact transform comparison"
    _print({"kind": args.kind, "holds": holds}, args.json,
           [f"{'PASS' if holds else 'FAIL'} MacWilliams ({args.kind}; {detail})"])
    return EXIT_OK if holds else EXIT_FAIL


def cmd_css(args) -> int:
    code = load_linear(_read_json(args.input))
    params = css(code, search_cap=args.cap, jobs=args.jobs)
    payload = {"n": params.n, "k": params.k, "d": params.d, "p": params.p}
    _print(payload, args.json, [str(params)])
    return EXIT_OK


def cmd_css_search(args) -> int:
    hits = search_dual_containing(args.p, args.s, distance_cap=args.cap, jobs=args.jobs)
    rows = []
    for h in hits:
        rows.append({"p": args.p, "s": args.s,
                     "generator": h.generator.int_coeffs(),
                     "u_generator": h.u_generator.int_coeffs(),
                     "gray": [h.gray_n, h.gray_k, h.params.d],
                     "quantum": [h.params.n, h.params.k, h.params.d],
                     "distance_exact": h.distance_exact,
                     "near_mds": h.params.saturates_singleton_remark()})
    if args.json:
        print(json.dumps({"results": rows}, indent=2))
    else:
        print(f"p={args.p} s={args.s}: {len(rows)} dual-containing parameter sets")
        for h in hits:
            marker = "" if h.distance_exact else " (distance is a lower bound)"
            near = "  [n+2-(k+2d) = 2]" if h.params.saturates_singleton_remark() else ""
            print(f"  <{h.generator}, u({h.u_generator})>  "
                  f"Gray [{h.gray_n},{h.gray_k},{h.params.d}]  {h.params}{marker}{near}")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    results = _reproduce.run_target(args.target)
    ok_all = True
    for item in results:
        ok_all &= item.ok
        if not args.json:
            print(f"{'PASS' if item.ok else 'FAIL'} {item.name}: {item.detail}")
    if args.json:
        print(json.dumps({"target": args.target,
                          "results": [item.__dict__ for item in results],
                          "ok": ok_all}, indent=2))
    return EXIT_OK if ok_all else EXIT_FAIL


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="zprs",
                                     description="additive codes over Z_p x R x S")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(handler=handler)
        sp.add_argument("--json", action="store_true", help="emit JSON")
        return sp

    sp = add("factor", cmd_factor, help="factor x^n - lambda over Z_p")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--lambda", type=int, default=1)

    for name, handler, blurb in (
            ("build", cmd_build, "build an additive code from a JSON spec"),
            ("dual", cmd_dual, "dual code under the u-weighted inner product"),
            ("gray", cmd_gray, "Gray image generator matrix"),
    ):
        sp = add(name, handler, help=blurb)
        sp.add_argument("--input", default=None, help="JSON spec file (default stdin)")

    sp = add("contains", cmd_contains, help="test membership of a word")
    sp.add_argument("--input", default=None)
    sp.add_argument("--word", required=True, help="word as JSON [[zp], [R pairs], [S triples]]")

    sp = add("distance", cmd_distance, help="exact minimum distance")
    sp.add_argument("--input", default=None)
    sp.add_argument("--cap", type=int, default=6, help="subset-search size cap")
    sp.add_argument("--jobs", type=int, default=1, help="parallel workers")

    sp = add("wenum", cmd_wenum, help="weight enumerator")
    sp.add_argument("--input", default=None)
    sp.add_argument("--kind", choices=sorted(_WENUM), required=True)

    sp = add("macwilliams", cmd_macwilliams, help="verify a MacWilliams identity")
    sp.add_argument("--input", default=None)
    sp.add_argument("--kind", choices=["complete", "hamming", "symmetrized", "lee"],
                    required=True)

    sp = add("css", cmd_css, help="CSS parameters of a dual-containing code")
    sp.add_argument("--input", default=None)
    sp.add_argument("--cap", type=int, default=6)
    sp.add_argument("--jobs", type=int, default=1, help="parallel workers")

    sp = add("css-search", cmd_css_search, help="search factor assignments for CSS codes")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--cap", type=int, default=6)
    sp.add_argument("--jobs", type=int, default=1, help="parallel workers")

    sp = add("reproduce", cmd_reproduce, help="check the built-in golden expectations")
    sp.add_argument("--target", required=True,
                    choices=["example1", "example2", "example3", "example4", "example5",
                             "table1", "all"])
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and not argv[0].startswith("-") and argv[0] not in COMMANDS:
        print(json.dumps({"error": {"code": "UnknownSubcommand",
                                    "message": f"unknown subcommand {argv[0]!r}"}}),
              file=sys.stderr)
        return EXIT_USAGE
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except json.JSONDecodeError as exc:
        print(json.dumps({"error": {"code": "MalformedJson", "message": str(exc)}}),
              file=sys.stderr)
        return EXIT_BAD_JSON
    except ZprsError as exc:
        print(json.dumps({"error": {"code": type(exc).__name__, "message": str(exc)}}),
              file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
