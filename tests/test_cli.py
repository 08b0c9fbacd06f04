import contextlib
import copy
import io
import json
import tracemalloc
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zprs
from zprs.additive import GeneratorHypothesisWarning, from_generator_polynomials
from zprs.cli import main
from zprs.enumerators import ENUMERATORS
from zprs.reproduce import TARGETS
from zprs.words import BlockProfile

C2_SPEC = {
    "p": 2, "q": 2, "r": 2, "s": 2,
    "generators": [
        [[1, 0], [[0, 0], [0, 1]], [[1, 0, 1], [0, 0, 0]]],
        [[0, 1], [[1, 1], [0, 0]], [[0, 0, 0], [1, 1, 0]]],
    ],
}

R_ONLY_SPEC = {
    "p": 17, "q": 0, "r": 8, "s": 0, "mu": [1, 1, 1],
    "g": [[4, 5, 3, 1], [9, 14, 14, 8, 10, 12, 1]],
    "hypotheses": "ignore",
}


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    status = main(argv)
    out = capsys.readouterr()
    return status, out.out, out.err


def spec_file(tmp_path, spec, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


def test_factor_text_and_json(capsys):
    status, out, _ = run(capsys, ["factor", "--p", "17", "--n", "8", "--lambda", "1"])
    assert status == 0
    assert out.count("x +") + out.count("x with") >= 0
    assert len([l for l in out.splitlines() if l.startswith("  ")]) == 8
    status, out, _ = run(capsys, ["factor", "--p", "17", "--n", "8", "--json"])
    payload = json.loads(out)
    assert len(payload["factors"]) == 8
    assert [16, 1] in payload["factors"]
    # x^47 - 1 over Z_2 has two factors of degree 23
    status, out, _ = run(capsys, ["factor", "--p", "2", "--n", "47", "--lambda", "1"])
    assert status == 0
    assert [l.split()[0] for l in out.splitlines()[1:]] == ["x", "x^23", "x^23"]


def test_build_and_dual(capsys, tmp_path):
    path = spec_file(tmp_path, C2_SPEC)
    status, out, _ = run(capsys, ["build", "--input", path, "--json"])
    assert status == 0
    assert json.loads(out)["rank"] == 6
    status, out, _ = run(capsys, ["dual", "--input", path, "--json"])
    assert json.loads(out)["rank"] == 6


def test_contains(capsys, tmp_path):
    path = spec_file(tmp_path, C2_SPEC)
    word = json.dumps([[0, 0], [[0, 0], [0, 0]], [[0, 1, 0], [0, 0, 0]]])
    status, out, _ = run(capsys, ["contains", "--input", path, "--word", word])
    assert status == 0 and out.strip() == "true"
    word = json.dumps([[1, 1], [[0, 0], [0, 0]], [[0, 0, 0], [0, 0, 0]]])
    status, out, _ = run(capsys, ["contains", "--input", path, "--word", word])
    assert out.strip() == "false"


def test_gray_and_distance(capsys, tmp_path):
    path = spec_file(tmp_path, R_ONLY_SPEC)
    status, out, _ = run(capsys, ["gray", "--input", path, "--json"])
    payload = json.loads(out)
    assert (payload["n"], payload["k"]) == (16, 12)
    status, out, _ = run(capsys, ["distance", "--input", path, "--json"])
    assert json.loads(out) == {"n": 16, "k": 12, "d": 4}
    linear = {"p": 2, "n": 3, "generator": [[1, 1, 1]]}
    status, out, _ = run(capsys, ["distance", "--input", spec_file(tmp_path, linear, "g.json"),
                                  "--json"])
    assert json.loads(out) == {"n": 3, "k": 1, "d": 3}


def test_wenum_kinds(capsys, tmp_path):
    path = spec_file(tmp_path, C2_SPEC)
    status, out, _ = run(capsys, ["wenum", "--input", path, "--kind", "hamming"])
    assert status == 0 and out.strip().startswith("4 x y + x^2 + 59 y^2")
    status, out, _ = run(capsys, ["wenum", "--input", path, "--kind", "symmetrized", "--json"])
    terms = json.loads(out)["terms"]
    assert {"exponents": [0, 0, 0, 1, 1, 0, 0], "coeff": 11} in terms
    status, out, _ = run(capsys, ["wenum", "--input", path, "--kind", "complete"])
    assert "symbols:" in out
    status, out, _ = run(capsys, ["wenum", "--input", path, "--kind", "lee", "--json"])
    assert {"exponents": [5, 7], "coeff": 11} in json.loads(out)["terms"]


def test_constacyclic_closure_key(capsys, tmp_path):
    spec = {"p": 5, "q": 0, "r": 4, "s": 0, "mu": [1, 1, 1],
            "constacyclic_closure": True,
            "generators": [[[], [[1, 0], [1, 0], [0, 0], [0, 0]], []]]}
    status, out, _ = run(capsys, ["build", "--input", spec_file(tmp_path, spec), "--json"])
    # cyclic closure of <1 + x> over R^4: the free module on a degree-1 divisor
    assert status == 0 and json.loads(out)["rank"] == 6


def test_polynomial_text_form_accepted(capsys, tmp_path):
    spec = {"p": 17, "q": 0, "r": 8, "s": 0,
            "g": ["x^3 + 3x^2 + 5x + 4", "x^6 + 12x^5 + 10x^4 + 8x^3 + 14x^2 + 14x + 9"],
            "hypotheses": "ignore"}
    status, out, _ = run(capsys, ["build", "--input", spec_file(tmp_path, spec), "--json"])
    assert status == 0 and json.loads(out)["rank"] == 12


def test_wenum_reads_stdin(capsys, monkeypatch):
    status, out, _ = run(capsys, ["wenum", "--kind", "hamming"],
                         stdin=json.dumps(C2_SPEC), monkeypatch=monkeypatch)
    assert status == 0 and "59 y^2" in out


def test_macwilliams_command(capsys, tmp_path):
    path = spec_file(tmp_path, C2_SPEC)
    for kind in ("complete", "hamming", "symmetrized", "lee"):
        status, out, _ = run(capsys, ["macwilliams", "--input", path, "--kind", kind])
        assert status == 0
        assert out.startswith("PASS")


Z5_SPEC = {"p": 5, "q": 1, "r": 1, "s": 1,
           "generators": [[[1], [[2, 1]], [[0, 1, 3]]]]}


def test_macwilliams_at_p5(capsys, tmp_path):
    # the complete identity is checked at p = 5, and the symmetrized one holds
    # there with the Gray-weight classes and K_6
    path = spec_file(tmp_path, Z5_SPEC)
    for kind in ("complete", "symmetrized"):
        status, out, _ = run(capsys, ["macwilliams", "--input", path, "--kind", kind])
        assert status == 0 and out.startswith("PASS")


def test_css_command(capsys, tmp_path):
    path = spec_file(tmp_path, R_ONLY_SPEC)
    status, out, _ = run(capsys, ["css", "--input", path, "--json"])
    assert json.loads(out) == {"n": 16, "k": 8, "d": 4, "p": 17}
    # not dual containing: precondition violation, structured error, exit 2
    bad = {"p": 2, "n": 4, "generator": [[1, 1, 1, 1]]}
    status, out, err = run(capsys, ["css", "--input", spec_file(tmp_path, bad, "bad.json")])
    assert status == 2
    assert json.loads(err)["error"]["code"] == "NotDualContaining"


def test_css_search_command(capsys):
    status, out, _ = run(capsys, ["css-search", "--p", "5", "--s", "8", "--json"])
    assert status == 0
    rows = json.loads(out)["results"]
    found = [r for r in rows if r["quantum"] == [16, 8, 3]]
    assert found and found[0]["gray"] == [16, 12, 3] and found[0]["distance_exact"]
    assert any(r["quantum"] == [16, 12, 2] for r in rows)


def test_css_search_caps_below_one_search_as_cap_one(capsys):
    # cap -3 once exited 2 on [[12,8,-2]], and cap 0 reported bounds of 1
    status, at_one, _ = run(capsys, ["css-search", "--p", "5", "--s", "6", "--cap", "1"])
    assert status == 0 and "[[12,8,2]]_5 (distance is a lower bound)" in at_one
    for cap in ("0", "-3"):
        assert run(capsys, ["css-search", "--p", "5", "--s", "6", "--cap", cap])[:2] \
            == (0, at_one)


def test_css_search_refuses_too_many_factors(capsys):
    # x^20 - 1 has 20 linear factors over Z_41: 3^20 assignments, refused before any is walked
    status, out, err = run(capsys, ["css-search", "--p", "41", "--s", "20"])
    assert (status, out) == (2, "")
    assert json.loads(err)["error"]["code"] == "TooManyFactors"


def test_reproduce_targets(capsys):
    for target in ("example1", "example3", "example5"):
        status, out, _ = run(capsys, ["reproduce", "--target", target])
        assert status == 0
        assert "FAIL" not in out


def test_reproduce_offers_every_target_and_all(capsys):
    with pytest.raises(SystemExit):
        main(["reproduce", "--target", "table2"])
    assert "{%s}" % ",".join([*TARGETS, "all"]) in capsys.readouterr().err


def test_exit_codes(capsys, monkeypatch):
    status, _, err = run(capsys, ["frobnicate"])
    assert status == 64
    assert json.loads(err)["error"]["code"] == "UnknownSubcommand"
    status, _, err = run(capsys, ["build"], stdin="{not json", monkeypatch=monkeypatch)
    assert status == 65
    status, _, err = run(capsys, ["factor", "--p", "2", "--n", "4"])
    assert status == 2
    assert json.loads(err)["error"]["code"] == "GcdViolation"
    # a length-0 linear code is no code: refused when it is built
    empty = json.dumps({"p": 2, "n": 0, "generator": []})
    status, _, err = run(capsys, ["distance"], stdin=empty, monkeypatch=monkeypatch)
    assert status == 2
    assert json.loads(err)["error"]["code"] == "ProfileMismatch"
    # a Z_p entry of a word is one coefficient: [1, 5] is refused, [] reads as 0
    spec = json.dumps(C2_SPEC)
    word = json.dumps([[[1, 5], 0], [[0, 0], [0, 0]], [[0, 0, 0], [0, 0, 0]]])
    status, _, err = run(capsys, ["contains", "--word", word], stdin=spec, monkeypatch=monkeypatch)
    assert status == 2
    assert json.loads(err)["error"]["code"] == "WrongRing"
    word = json.dumps([[[], []], [[], [0, 0]], [[0, 1, 0], []]])
    status, out, _ = run(capsys, ["contains", "--word", word], stdin=spec, monkeypatch=monkeypatch)
    assert status == 0 and out.strip() == "true"
    # malformed polynomial specs: two units for three blocks, g without an R block, and a
    # coefficient that is not an integer
    for bad, code in (({"p": 2, "q": 1, "r": 1, "s": 1, "mu": [1], "f0": [1]}, "LengthMismatch"),
                      ({"p": 2, "q": 3, "g": [[1, 1], [1]]}, "ProfileMismatch"),
                      ({"p": 5, "q": 1, "r": 1, "s": 1, "f0": [1.5, 1]}, "WrongRing")):
        status, _, err = run(capsys, ["build"], stdin=json.dumps(bad), monkeypatch=monkeypatch)
        assert status == 2
        assert json.loads(err)["error"]["code"] == code


def test_malformed_specs_exit_2(capsys, monkeypatch):
    # each of these was read by truncation, or died with a traceback and exit 1
    z5 = {"p": 5, "q": 1, "r": 1, "s": 1}
    gens = dict(z5, generators=Z5_SPEC["generators"])
    z5_2 = {"p": 5, "q": 2, "r": 2, "s": 0}
    word = ["contains", "--word"]
    cases = [("build", dict(gens, p=5.7), "ProfileMismatch"),
             ("build", dict(gens, q=1.5), "ProfileMismatch"),
             ("build", dict(gens, constacyclic_closure=True, mu=[1, 1, 1, 1]), "LengthMismatch"),
             ("build", dict(gens, constacyclic_closure=True, mu=[1]), "LengthMismatch"),
             ("build", dict(gens, mu=2), "LengthMismatch"),
             ("build", dict(z5, f0=[1, 1], mu=2), "LengthMismatch"),
             ("distance", {"p": 2, "n": 3, "generator": [[1.5, 0, 1]]}, "WrongRing"),
             ("distance", {"p": 2.0, "n": 3, "generator": [[1, 0, 1]]}, "ProfileMismatch"),
             ("distance", {"p": 2, "n": 3.5, "generator": [[1, 0, 1]]}, "ProfileMismatch"),
             # each of these exited 1 with a traceback, or (uint64) wrapped to -1 mod 3
             ("distance", {"p": 2, "n": 3, "generator": [[10 ** 20, 0, 1]]}, "WrongRing"),
             ("distance", {"p": 3, "n": 1, "generator": [[2 ** 64 - 1]]}, "WrongRing"),
             ("distance", {"p": 2, "n": 3, "generator": [[1, 0]]}, "LengthMismatch"),
             ("distance", {"p": 2, "n": 3, "generator": [1, 0, 1]}, "MalformedInput"),
             ("distance", {"p": 2, "generator": [1, 0, 1]}, "MalformedInput"),
             ("build", {"q": 1}, "MalformedInput"),
             ("build", [1, 2], "MalformedInput"),
             ("build", None, "MalformedInput"),
             ("build", dict(gens, generators=[1]), "MalformedInput"),
             ("build", dict(z5, f0=7), "MalformedInput"),
             ("build", dict(z5_2, g=[1, 1]), "MalformedInput"),
             ("build", dict(z5_2, f0="x^^2"), "MalformedInput"),
             ("build", dict(z5_2, f0=[1, 1], hypotheses="bogus"), "MalformedInput"),
             # an empty JSON object as a coefficient was read as 0
             ("build", dict(gens, generators=[[[{}], [[2, 1]], [[0, 1, 3]]]]), "WrongRing"),
             (word + ["[1]"], gens, "MalformedInput"),
             (word + ["[[1], [[2, 1]], [[0, 1, 3]], [1]]"], gens, "MalformedInput")]
    for argv, spec, code in cases:
        argv = [argv] if isinstance(argv, str) else argv
        status, out, err = run(capsys, argv, stdin=json.dumps(spec), monkeypatch=monkeypatch)
        assert (status, out) == (2, ""), (argv, spec)
        assert json.loads(err)["error"]["code"] == code, (argv, spec)
    status, _, _ = run(capsys, ["build"], stdin=json.dumps(dict(gens, constacyclic_closure=True,
                                                                  mu=[1, 1, 1])),
                       monkeypatch=monkeypatch)
    assert status == 0


def test_oversized_lengths_are_refused_before_allocating(capsys, monkeypatch):
    # these died with a MemoryError traceback (a 74.5 GiB np.eye for the first)
    specs = [{"p": 13, "q": 100000, "r": 0, "s": 0, "generators": []},
             {"p": 13, "q": 10 ** 7, "r": 0, "s": 0, "f0": [1], "hypotheses": "ignore"},
             {"p": 13, "q": 0, "r": 1000, "s": 20, "generators": []},
             {"p": 2, "n": 2049, "generator": [[1] * 2049]}]
    tracemalloc.start()
    try:
        for argv, spec in [("build", spec) for spec in specs[:3]] + [("distance", specs[3])]:
            status, out, err = run(capsys, [argv], stdin=json.dumps(spec),
                                   monkeypatch=monkeypatch)
            assert (status, out) == (2, "") and json.loads(err)["error"]["code"] == "TooLarge"
        assert main(["factor", "--p", "2", "--n", "100001"]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["code"] == "TooLarge"
        assert tracemalloc.get_traced_memory()[1] < 1 << 22
    finally:
        tracemalloc.stop()
    # the bound itself is accepted: 2048 = 0 + 2 * 1024 + 0
    assert BlockProfile(13, 0, 1024, 0).n == 2048


def test_null_polynomials_are_omitted(capsys, monkeypatch):
    # null in f0, g, h or l is an omitted polynomial, as in from_generator_polynomials
    rs = {"p": 2, "q": 0, "r": 3, "s": 3, "g": [[1, 1], [1, 1]], "h": [[1, 1], [1, 1], [1, 1]]}
    pr = BlockProfile(2, 0, 3, 3)
    cases = [(dict(rs, l=[None, None, [1]]),
              from_generator_polynomials(pr, g=([1, 1], [1, 1]), h=([1, 1],) * 3,
                                         l=(None, None, [1]))),
             ({"p": 2, "q": 0, "r": 3, "s": 0, "g": [None, [1, 1]]},
              from_generator_polynomials(BlockProfile(2, 0, 3, 0), g=(None, [1, 1]))),
             ({"p": 2, "q": 3, "r": 0, "s": 0, "f0": None},
              from_generator_polynomials(BlockProfile(2, 3, 0, 0)))]
    for spec, code in cases:
        status, out, _ = run(capsys, ["build", "--json"], stdin=json.dumps(spec),
                             monkeypatch=monkeypatch)
        assert status == 0, spec
        assert json.loads(out)["basis"] == code.basis.tolist(), spec


# valid specs of each form: additive by generators, additive by polynomials, linear
MUTATION_BASES = (
    Z5_SPEC,
    {"p": 5, "q": 1, "r": 1, "s": 1, "mu": [1, 1, 1], "f0": "x + 4", "g": [[1], [4, 1]],
     "h": [[1], [1], [4, 1]], "l": [[2], [3], [[1, 1]]], "hypotheses": "ignore"},
    {"p": 2, "n": 4, "generator": [[1, 1, 0, 0], [0, 0, 1, 1]]},
)
REPLACEMENTS = (-1, 1.5, 10 ** 20, "x", None, [], {}, [1])
SPEC_COMMANDS = (["build"], ["dual"], ["contains", "--word", "[[1], [[2, 1]], [[0, 1, 3]]]"],
                 ["gray"], ["distance"], ["css"]) + tuple(
    [command, "--kind", kind] for command in ("wenum", "macwilliams")
    for kind in sorted(ENUMERATORS))


def node_paths(node, at=()):
    """The path of every node of a JSON tree, the root's first."""
    yield at
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from node_paths(child, at + (key,))


@st.composite
def mutated_specs(draw):
    """A base spec with one dict key dropped or one node replaced by a REPLACEMENTS value."""
    spec = copy.deepcopy(draw(st.sampled_from(MUTATION_BASES)))
    path = draw(st.sampled_from(list(node_paths(spec))))
    drop = bool(path) and isinstance(path[-1], str) and draw(st.booleans())
    value = copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
    if not path:
        return value
    parent = spec
    for key in path[:-1]:
        parent = parent[key]
    if drop:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return spec


@settings(derandomize=True, max_examples=300, deadline=None)
@given(mutated_specs(), st.sampled_from(SPEC_COMMANDS))
def test_mutated_specs_exit_0_or_2(spec, argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(spec))), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", GeneratorHypothesisWarning)
        status = main(list(argv))
    assert status in (0, 2), (argv, spec, status)
    if status == 2:
        assert out.getvalue() == ""
        assert set(json.loads(err.getvalue())["error"]) == {"code", "message"}


def test_deterministic_output(capsys, tmp_path):
    path = spec_file(tmp_path, C2_SPEC)
    outs = set()
    for _ in range(2):
        status, out, _ = run(capsys, ["wenum", "--input", path, "--kind", "complete",
                                      "--json"])
        outs.add(out)
    assert len(outs) == 1


def test_macwilliams_command_compares_two_walks(capsys, tmp_path, monkeypatch):
    # rank 7 of N = 12: the public enumerators of this code would transform its
    # dual's walk, so a command built on them would compare a transform with
    # its own inverse and pass whatever the dual's walk returned
    from zprs import cli, enumerators
    spec = dict(C2_SPEC, generators=C2_SPEC["generators"]
                + [[[1, 1], [[1, 0], [0, 1]], [[0, 1, 0], [1, 0, 0]]]])
    path = spec_file(tmp_path, spec)
    assert cli.load_code(spec).rank == 7
    real = enumerators.walk

    def dropped(code, kind):
        enum = real(code, kind)
        if 2 * code.rank > code.profile.n:
            return enum
        top = max(enum.terms)          # drop one term of the smaller side only
        return enumerators.Enumerator(enum.nvars, enum.degree,
                                      {k: c for k, c in enum.terms.items() if k != top})

    for kind in ("hamming", "symmetrized", "lee"):
        with monkeypatch.context() as m:
            m.setattr(enumerators, "walk", dropped)
            status, out, _ = run(capsys, ["macwilliams", "--input", path, "--kind", kind])
        assert status == 1 and out.startswith("FAIL"), (kind, status, out)


def test_public_names_resolve_once():
    assert len(zprs.__all__) == len(set(zprs.__all__))
    assert all(hasattr(zprs, name) for name in zprs.__all__)
