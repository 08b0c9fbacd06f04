"""Tests of the benchmark itself; they stay out of the timed runs.

    python3 -m pytest -q bench/test_bench.py

Jobs invariance uses at most two workers (the benchmark machine's core
count), and every check here runs in well under a minute.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import zprs  # noqa: E402
import zprs.polynomials  # noqa: E402
import zprs.quantum  # noqa: E402
import zprs.reproduce  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _serialize_hits(hits) -> str:
    return "".join(workloads.serialize_hit(h) + "\n" for h in hits)


def test_search_is_jobs_invariant():
    one = zprs.search_dual_containing(5, 8, jobs=1)
    two = zprs.search_dual_containing(5, 8, jobs=2)
    assert one and _serialize_hits(one) == _serialize_hits(two)


@pytest.mark.parametrize("row", [0, 5, 6], ids=["5,8", "13,18", "17,8"])
def test_min_distance_is_jobs_invariant(row):
    p, s, f0_hat, f1_hat, gray, _ = zprs.reproduce.TABLE1_ROWS[row]
    if isinstance(f1_hat, tuple):
        f1_hat = zprs.hat(zprs.Poly.make(f1_hat[1], p), p, s, 1).int_coeffs()
    _, code = zprs.code_from_table_generators(p, s, f0_hat, f1_hat)
    image = zprs.GrayMap(p).image(code)
    assert image.min_distance(jobs=1) == image.min_distance(jobs=2) == gray[2]


def test_enumerate_seeds_share_the_rank_profile():
    a, b = workloads.Enumerate(1), workloads.Enumerate(2)
    assert a.profile() == b.profile()
    assert [row[1:] for row in a.profile()] == [
        (2, 4, 4, 4, 18, 6), (2, 4, 4, 4, 18, 6), (2, 4, 4, 4, 12, 12), (3, 3, 3, 3, 6, 12)]
    assert any(not np.array_equal(ca.basis, cb.basis)
               for (_, ca, _), (_, cb, _) in zip(a.codes, b.codes))
    again = workloads.Enumerate(1)
    assert all(np.array_equal(ca.basis, cc.basis)
               for (_, ca, _), (_, cc, _) in zip(a.codes, again.codes))


def _traced(fn):
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = fn()
    finally:
        tracer.uninstall()
    return tracer, result


def test_traced_search_conserves_the_funnel():
    plain = zprs.search_dual_containing(5, 8)
    tracer, traced = _traced(lambda: zprs.search_dual_containing(5, 8))
    m = tracer.metrics(workloads.rank_pruned(5, 8))
    assert spans.funnel_violations(m) == []
    assert m["quantum.funnel.assignments"] == 3 ** len(zprs.factor_xn_minus_lambda(5, 8, 1))
    assert m["quantum.funnel.constructed"] > 0
    assert m["quantum.hits"] == len(plain)
    assert _serialize_hits(traced) == _serialize_hits(plain)


def test_funnel_violation_is_reported():
    tracer, _ = _traced(lambda: zprs.search_dual_containing(5, 8))
    m = tracer.metrics(workloads.rank_pruned(5, 8) + 1)
    assert spans.funnel_violations(m)


def test_self_times_add_up_to_root_spans():
    tracer, _ = _traced(lambda: zprs.reproduce.run_target("example3"))
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    roots = a["parent"] < 0
    has_parent = ~roots
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                        minlength=dur.size)
    self_time = dur - child
    assert self_time.min() > -1e-9
    assert abs(self_time.sum() - dur[roots].sum()) < 1e-6
    names = {tracer.names[i] for i in a["span_name"]}
    # run_target reaches the worked example through reproduce.TARGETS
    assert {"reproduce.run_target", "reproduce.run_example3",
            "enumerators.hamming_enumerator", "enumerators.hamming_transform",
            "additive.AdditiveCode.iter_codeword_vectors"} <= names


def test_uninstall_restores_every_binding():
    original = zprs.polynomials.factor_xn_minus_lambda
    from_slots = zprs.FactorAssignment.__dict__["from_slots"]
    target = zprs.reproduce.TARGETS["example1"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert zprs.quantum.factor_xn_minus_lambda is not original
        assert zprs.factor_xn_minus_lambda is zprs.quantum.factor_xn_minus_lambda
        assert zprs.reproduce.TARGETS["example1"] is not target
    finally:
        tracer.uninstall()
    assert zprs.quantum.factor_xn_minus_lambda is original
    assert zprs.factor_xn_minus_lambda is original
    assert zprs.FactorAssignment.__dict__["from_slots"] is from_slots
    assert zprs.reproduce.TARGETS["example1"] is target


def test_checks_reject_wrong_outputs(monkeypatch):
    monkeypatch.setattr(workloads, "ENUM_CODES", [("small", 2, (2, 2, 2), 8, "transforms"),
                                                  ("small_c", 2, (2, 2, 2), 6, "complete")])
    enum = workloads.Enumerate(3)
    outputs, _ = workloads.run_tasks(enum.tasks())
    assert enum.check(outputs) == []
    (hamming, h_dual), (lee, l_dual) = outputs[0], outputs[1]
    swapped = [(hamming, l_dual), (lee, h_dual)] + outputs[2:3] + [False]
    assert enum.check(swapped) == [
        "small.hamming: transform differs from the direct dual enumerator",
        "small.lee: transform differs from the direct dual enumerator",
        "small_c.complete: complete MacWilliams check returned False"]


def test_failures_are_counted_not_dropped():
    def refuse():
        raise zprs.ZprsError("refused")
    outputs, seconds = workloads.run_tasks([("refused", refuse), ("ok", lambda: 1)])
    assert len(seconds) == 2
    assert isinstance(outputs[0], workloads.Failure) and outputs[1] == 1
    repro = workloads.Reproduce(0)
    assert repro.check([outputs[0]]) == ["reproduce: ZprsError: refused"]
    assert repro.check([(0, "PASS\n")]) == ["reproduce: stdout differs from golden"]


def test_factor_check_rejects_wrong_factors(monkeypatch):
    monkeypatch.setattr(workloads, "FACTOR_TASKS", [(5, 12, 1), (5, 12, 2)])
    factor = workloads.Factor(0)
    outputs, _ = workloads.run_tasks(factor.tasks())
    assert factor.check(outputs) == []
    (msg,) = factor.check([outputs[0], outputs[1][1:]])
    assert msg.startswith("x^12-2 over Z_5: product of factors is ")
    assert factor.check([list(reversed(outputs[0])), outputs[1]]) == [
        "x^12-1 over Z_5: factors not in canonical order"]


def test_coset_sizes_match_known_factorizations():
    assert workloads.cyclotomic_coset_sizes(2, 23) == [1, 11, 11]
    assert workloads.cyclotomic_coset_sizes(13, 18) == [1] * 6 + [3] * 4
