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

A spec or word of the wrong shape raises ``MalformedInput``: this module
checks JSON objects and arrays, ``MixedWord.make`` the blocks of a word and
``from_generator_polynomials`` its polynomials.  ``wenum`` and
``macwilliams`` read their kinds from ``enumerators.ENUMERATORS``, and
``macwilliams`` prints the verdict of ``enumerators.macwilliams_holds`` and
its ``MACWILLIAMS_METHODS`` entry.

Exit codes: 0 success; 1 a verification reported FAIL; 2 a precondition
violation or a malformed spec or word (structured error on stderr, nothing
on stdout); 64 unknown subcommand; 65 malformed JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import reproduce as _reproduce
from .additive import (AdditiveCode, block_units, from_generator_polynomials,
                       shift_module_span, span_closure)
from .enumerators import (ENUMERATORS, MACWILLIAMS_METHODS, VARIABLES, macwilliams_holds,
                          symbol_table)
from .errors import MalformedInput, ZprsError
from .gray import GrayMap
from .linear import LinearCode
from .polynomials import factor_xn_minus_lambda
from .quantum import css, search_dual_containing
from .words import BlockProfile, MixedWord

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PRECONDITION = 2
EXIT_USAGE = 64
EXIT_BAD_JSON = 65

COMMANDS = ("factor", "build", "dual", "contains", "gray", "distance", "wenum",
            "macwilliams", "css", "css-search", "reproduce")


def _read_spec(path: str | None) -> dict:
    text = sys.stdin.read() if path in (None, "-") else Path(path).read_text()
    spec = json.loads(text)
    if not isinstance(spec, dict):
        raise MalformedInput(f"a spec is a JSON object, got {spec!r}")
    return spec


def _entry(spec: dict, key: str):
    """``spec[key]``, which must be present."""
    if key not in spec:
        raise MalformedInput(f"the spec has no {key!r}")
    return spec[key]


def _array(value, what: str) -> list:
    """``value``, which must be a JSON array."""
    if not isinstance(value, list):
        raise MalformedInput(f"{what} must be an array, got {value!r}")
    return value


def load_code(spec: dict) -> AdditiveCode:
    """Build an additive code from its JSON spec.

    Two equivalent forms: {"generators": [...]} listing words (each word is
    three arrays of coefficient arrays), or the polynomial form with keys
    "f0", "g", "h", "l".  Both carry p, q, r, s and optionally "mu".  The
    generators form spans the plain S-module closure; set
    "constacyclic_closure": true to also close under the (mu0, mu1, mu2)
    shift.  The polynomial form accepts Z_p polynomials as text, and a null
    polynomial is an omitted one.  A spec of any other shape raises
    ``MalformedInput``.
    """
    profile = BlockProfile(_entry(spec, "p"), spec.get("q", 0), spec.get("r", 0),
                           spec.get("s", 0))
    mu = block_units(spec.get("mu", [1, 1, 1]))
    if "generators" in spec:
        words = [MixedWord.make(profile, *_array(blocks, "a word"))
                 for blocks in _array(spec["generators"], "'generators'")]
        if spec.get("constacyclic_closure"):
            return shift_module_span(words, *mu, profile=profile)
        return span_closure(words, profile=profile)
    polys = {key: spec[key] for key in ("f0", "g", "h", "l") if key in spec}
    return from_generator_polynomials(profile, mu, **polys,
                                      hypotheses=spec.get("hypotheses", "warn"))


def load_linear(spec: dict) -> LinearCode:
    """Linear code from {"p", "n", "generator": rows} or an additive spec + Gray."""
    if "generator" in spec:
        rows = [_array(row, "a generator row")
                for row in _array(spec["generator"], "'generator'")]
        return LinearCode(_entry(spec, "p"), spec.get("n", len(rows[0]) if rows else 0), rows)
    code = load_code(spec)
    return GrayMap(code.profile.p).image(code)


def _print(payload, as_json: bool, text_lines) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _print_code(code: AdditiveCode, as_json: bool, header: list[str]) -> int:
    pr = code.profile
    basis = [[int(x) for x in row] for row in code.basis]
    _print({"p": pr.p, "q": pr.q, "r": pr.r, "s": pr.s, "rank": code.rank,
            "cardinality": f"{pr.p}^{code.rank}", "basis": basis}, as_json,
           header + ["basis (flattened coordinates):"] + [f"  {row}" for row in basis])
    return EXIT_OK


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
    code = load_code(_read_spec(args.input))
    pr = code.profile
    return _print_code(code, args.json,
                       [f"additive code over Z_{pr.p} with (q,r,s)=({pr.q},{pr.r},{pr.s})",
                        f"rank {code.rank}  (|C| = {pr.p}^{code.rank})"])


def cmd_dual(args) -> int:
    code = load_code(_read_spec(args.input)).dual()
    return _print_code(code, args.json,
                       [f"dual rank {code.rank}  (|C^perp| = {code.profile.p}^{code.rank})"])


def cmd_contains(args) -> int:
    code = load_code(_read_spec(args.input))
    word = MixedWord.make(code.profile, *_array(json.loads(args.word), "a word"))
    verdict = code.contains(word)
    _print({"contains": verdict}, args.json, [str(verdict).lower()])
    return EXIT_OK


def cmd_gray(args) -> int:
    code = load_code(_read_spec(args.input))
    image = GrayMap(code.profile.p).image(code)
    payload = {"p": image.p, "n": image.n, "k": image.k,
               "generator": [[int(x) for x in row] for row in image.generator]}
    _print(payload, args.json,
           [f"Gray image: [{image.n}, {image.k}] over Z_{image.p}", "generator matrix:"]
           + [f"  {row}" for row in payload["generator"]])
    return EXIT_OK


def cmd_distance(args) -> int:
    code = load_linear(_read_spec(args.input))
    d = code.min_distance(args.cap)
    payload = {"n": code.n, "k": code.k, "d": d}
    _print(payload, args.json, [f"[{code.n}, {code.k}, {d}] over Z_{code.p}"])
    return EXIT_OK


def cmd_wenum(args) -> int:
    code = load_code(_read_spec(args.input))
    enum = ENUMERATORS[args.kind](code)
    lines = [enum.text(VARIABLES.get(args.kind))]
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
    holds = macwilliams_holds(load_code(_read_spec(args.input)), args.kind)
    _print({"kind": args.kind, "holds": holds}, args.json,
           [f"{'PASS' if holds else 'FAIL'} MacWilliams "
            f"({args.kind}; {MACWILLIAMS_METHODS[args.kind]})"])
    return EXIT_OK if holds else EXIT_FAIL


def cmd_css(args) -> int:
    code = load_linear(_read_spec(args.input))
    params = css(code, search_cap=args.cap)
    payload = {"n": params.n, "k": params.k, "d": params.d, "p": params.p}
    _print(payload, args.json, [str(params)])
    return EXIT_OK


def cmd_css_search(args) -> int:
    hits = search_dual_containing(args.p, args.s, distance_cap=args.cap)
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

    def add(name, handler, blurb, *, spec=True, search=False):
        sp = sub.add_parser(name, help=blurb)
        sp.set_defaults(handler=handler)
        sp.add_argument("--json", action="store_true", help="emit JSON")
        if spec:
            sp.add_argument("--input", default=None, help="JSON spec file (default stdin)")
        if search:
            sp.add_argument("--cap", type=int, default=6, help="subset-search size cap")
        return sp

    sp = add("factor", cmd_factor, "factor x^n - lambda over Z_p", spec=False)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--lambda", type=int, default=1)

    add("build", cmd_build, "build an additive code from a JSON spec")
    add("dual", cmd_dual, "dual code under the u-weighted inner product")
    add("gray", cmd_gray, "Gray image generator matrix")

    sp = add("contains", cmd_contains, "test membership of a word")
    sp.add_argument("--word", required=True, help="word as JSON [[zp], [R pairs], [S triples]]")

    add("distance", cmd_distance, "exact minimum distance", search=True)

    sp = add("wenum", cmd_wenum, "weight enumerator")
    sp.add_argument("--kind", choices=sorted(ENUMERATORS), required=True)

    sp = add("macwilliams", cmd_macwilliams, "verify a MacWilliams identity")
    sp.add_argument("--kind", choices=sorted(ENUMERATORS), required=True)

    add("css", cmd_css, "CSS parameters of a dual-containing code", search=True)

    sp = add("css-search", cmd_css_search, "search factor assignments for CSS codes",
             spec=False, search=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)

    sp = add("reproduce", cmd_reproduce, "check the built-in golden expectations", spec=False)
    sp.add_argument("--target", required=True, choices=[*_reproduce.TARGETS, "all"])
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
