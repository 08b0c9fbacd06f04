"""Spans around the public functions of zprs, recorded from outside the library.

``Tracer.install()`` replaces every module binding of a public function of
each layer module (and every module-level dict entry holding one, such as
``reproduce.TARGETS``), plus the public methods of its classes, with a
wrapper that records one span per call: name, parent span, start, end, and
the size of the result (list length, array rows, enumerator terms, or 0/1
for a bool).  A generator function gets one span per item it yields.
``uninstall()`` restores every binding.

Spans stay in memory; ``metrics()`` derives the per-layer numbers from them
and ``save()`` writes them out.  Self time is a span's duration minus the
durations of its direct child spans, so time in private helpers and cached
properties lands in the nearest wrapped public caller.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import statistics
import sys
import time

import numpy as np

LAYERS = ("polynomials", "quantum", "additive", "gray", "linalg", "linear",
          "enumerators", "reproduce", "cli")

# Classes whose methods run once per coefficient or per term; wrapping them
# would multiply the tracing cost, so their time lands in the caller.
VALUE_TYPES = {"zprs.polynomials.Poly", "zprs.enumerators.CyclotomicInt"}


def result_size(value) -> int:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, np.ndarray):
        return value.shape[0] if value.ndim else 1
    if isinstance(value, (list, tuple)):
        return len(value)
    terms = getattr(value, "terms", None)
    return len(terms) if isinstance(terms, dict) else 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one entry per span, indexed by span id (ids grow in call order,
        # so a parent's id is always smaller than its children's); typed
        # arrays keep millions of spans at 37 bytes each
        self.span_name = array.array("i")
        self.parent = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self.size = array.array("q")
        self.outermost = array.array("b")
        self.raised: dict[int, str] = {}
        self._stack = [-1]
        self._active: list[int] = []
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        sid = len(self.span_name)
        self.span_name.append(nid)
        self.parent.append(self._stack[-1])
        self.outermost.append(self._active[nid] == 0)
        self.size.append(0)
        self.end.append(0.0)
        self._active[nid] += 1
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int, nid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()
        self._active[nid] -= 1

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        sid = self._open(nid)
                        try:
                            item = next(inner)
                        except StopIteration:
                            self._close(sid, nid)
                            return
                        except BaseException as exc:
                            self._close(sid, nid)
                            self.raised[sid] = type(exc).__name__
                            raise
                        self._close(sid, nid)
                        self.size[sid] = result_size(item)
                        yield item
                finally:
                    inner.close()
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(sid, nid)
                self.raised[sid] = type(exc).__name__
                raise
            self._close(sid, nid)
            self.size[sid] = result_size(result)
            return result
        return wrapper

    # -- installing ------------------------------------------------------

    def _targets(self):
        """(span name, original function, owner class or None, attribute)."""
        for layer in LAYERS:
            mod = importlib.import_module(f"zprs.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if f"{mod.__name__}.{obj.__name__}" in VALUE_TYPES:
                        continue
                    for meth, raw in vars(obj).items():
                        if meth.startswith("_"):
                            continue
                        if isinstance(raw, (classmethod, staticmethod)) or inspect.isfunction(raw):
                            yield f"{layer}.{obj.__name__}.{meth}", raw, obj, meth
                elif callable(obj):
                    yield f"{layer}.{attr}", obj, None, attr

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "zprs" or name.startswith("zprs."))]
        for name, obj, owner, attr in list(self._targets()):
            if owner is not None:
                if isinstance(obj, (classmethod, staticmethod)):
                    new = type(obj)(self.wrap(name, obj.__func__))
                else:
                    new = self.wrap(name, obj)
                self._patch(owner, attr, obj, new)
                continue
            new = self.wrap(name, obj)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is obj:
                        self._patch(mod, key, obj, new)
                    elif isinstance(val, dict):
                        for k, v in list(val.items()):
                            if v is obj:
                                self._patch(val, k, obj, new)

    def _patch(self, owner, key, old, new) -> None:
        if isinstance(owner, dict):
            owner[key] = new
        else:
            setattr(owner, key, new)
        self._patches.append((owner, key, old))

    def uninstall(self) -> None:
        for owner, key, old in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._patches.clear()

    # -- analysis --------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"span_name": np.array(self.span_name, dtype=np.int32),
                "parent": np.array(self.parent, dtype=np.int64),
                "start": np.array(self.start, dtype=np.float64),
                "end": np.array(self.end, dtype=np.float64),
                "size": np.array(self.size, dtype=np.int64),
                "outermost": np.array(self.outermost, dtype=np.int8).astype(bool)}

    def save(self, path) -> None:
        a = self.arrays()
        raised = np.array(sorted(self.raised), dtype=np.int64)
        np.savez_compressed(path, names=np.array(self.names), raised_span=raised,
                            raised_type=np.array([self.raised[s] for s in raised]), **a)

    def metrics(self, rank_pruned: int) -> dict[str, float]:
        """The per-layer metrics of this trace (see bench/README.md).

        ``rank_pruned`` is the number of assignments per search call that
        fail the rank requirement k >= n/2, computed by the caller
        independently of the search; it enters only the funnel.
        """
        a = self.arrays()
        n = len(self.span_name)
        name, parent = a["span_name"], a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child

        def ids(fn):
            nid = self._ids.get(fn)
            return np.flatnonzero(name == nid) if nid is not None else np.zeros(0, int)

        def total(fn):
            sel = ids(fn)
            return float(dur[sel][a["outermost"][sel]].sum())

        def self_s(fn):
            return float(self_time[ids(fn)].sum())

        def calls(fn):
            return int(ids(fn).size)

        def under(fn, ancestor):
            """Spans of fn with a span of ``ancestor`` on their parent chain."""
            target = self._ids.get(ancestor)
            out = []
            for sid in ids(fn):
                p = parent[sid]
                while p >= 0 and name[p] != target:
                    p = parent[p]
                if p >= 0:
                    out.append(int(sid))
            return out

        m: dict[str, float] = {}
        factor = "polynomials.factor_xn_minus_lambda"
        m[f"{factor}.s"] = total(factor)
        m[f"{factor}.calls"] = calls(factor)
        m["polynomials.poly_divmod.calls"] = calls("polynomials.poly_divmod")
        factors_found = int(a["size"][ids(factor)].sum())
        divmods = len(under("polynomials.poly_divmod", factor))
        m["polynomials.divmod_per_factor"] = divmods / factors_found if factors_found else 0.0
        m["polynomials.hat.s"] = total("polynomials.hat")

        search = "quantum.search_dual_containing"
        m[f"{search}.self_s"] = self_s(search)
        m["quantum.cyclic_code_from_assignment.self_s"] = self_s(
            "quantum.cyclic_code_from_assignment")
        m["quantum.FactorAssignment.from_slots.s"] = total("quantum.FactorAssignment.from_slots")
        m["quantum.is_dual_containing.s"] = total("quantum.is_dual_containing")
        m.update(self._funnel(ids(search), under, rank_pruned))

        m["additive.shift_module_span.s"] = total("additive.shift_module_span")
        m["additive.shift_module_span.calls"] = calls("additive.shift_module_span")
        m["additive.AdditiveCode.dual.s"] = total("additive.AdditiveCode.dual")
        walk = "additive.AdditiveCode.iter_codeword_vectors"
        m["additive.iter_codeword_vectors.s"] = total(walk)
        m["additive.iter_codeword_vectors.rows"] = int(a["size"][ids(walk)].sum())

        m["gray.GrayMap.image.s"] = total("gray.GrayMap.image")
        m["gray.GrayMap.image.calls"] = calls("gray.GrayMap.image")
        for fn in ("rref", "kernel_basis"):
            m[f"linalg.{fn}.s"] = total(f"linalg.{fn}")
            m[f"linalg.{fn}.calls"] = calls(f"linalg.{fn}")
        m["linear.LinearCode.min_distance.s"] = total("linear.LinearCode.min_distance")
        m["linear.LinearCode.min_distance.calls"] = calls("linear.LinearCode.min_distance")
        m["linear.min_distance_by_enumeration.calls"] = calls(
            "linear.min_distance_by_enumeration")

        kinds = ("hamming", "lee", "symmetrized", "complete")
        for kind in kinds:
            m[f"enumerators.{kind}_enumerator.s"] = total(f"enumerators.{kind}_enumerator")
        m["enumerators.transform.s"] = sum(total(f"enumerators.{k}_transform")
                                           for k in kinds[:3])
        m["enumerators.macwilliams_complete_check.self_s"] = self_s(
            "enumerators.macwilliams_complete_check")
        m["enumerators.terms"] = int(sum(a["size"][ids(f"enumerators.{k}_{part}")].sum()
                                         for k in kinds for part in ("enumerator", "transform")))
        m["reproduce.run_target.self_s"] = self_s("reproduce.run_target")
        m["cli.main.self_s"] = self_s("cli.main")
        return m

    def _funnel(self, searches, under, rank_pruned: int) -> dict[str, float]:
        """Counts of the assignment funnel inside search_dual_containing spans.

        Each search factors x^s - 1 into t factors and walks 3^t assignments.
        """
        search = "quantum.search_dual_containing"
        factor_spans = under("polynomials.factor_xn_minus_lambda", search)
        assignments = sum(3 ** self.size[s] for s in factor_spans)
        dual_tests = under("quantum.is_dual_containing", search)
        distance = under("linear.LinearCode.min_distance", search)
        bounded = [s for s in distance if self.raised.get(s) == "DistanceNotDetermined"]
        f = {
            "quantum.funnel.assignments": assignments,
            "quantum.funnel.rank_pruned": rank_pruned * len(searches),
            "quantum.funnel.constructed": len(under("quantum.cyclic_code_from_assignment",
                                                    search)),
            "quantum.funnel.gray_images": len(under("gray.GrayMap.image", search)),
            "quantum.funnel.dual_tests": len(dual_tests),
            "quantum.funnel.dual_containing": sum(self.size[s] for s in dual_tests),
            "quantum.funnel.distance_calls": len(distance),
            "quantum.funnel.distance_exact": sum(1 for s in distance if s not in self.raised),
            "quantum.funnel.distance_bounded": len(bounded),
            "quantum.hits": sum(self.size[int(s)] for s in searches),
        }
        constructed = f["quantum.funnel.constructed"]
        f["quantum.funnel.yield"] = (f["quantum.funnel.dual_containing"] / constructed
                                     if constructed else 0.0)
        return f


def funnel_violations(m: dict[str, float]) -> list[str]:
    """Conservation laws of the search funnel; empty when they all hold."""
    f = {k.rsplit(".", 1)[1]: v for k, v in m.items() if k.startswith("quantum.funnel.")}
    laws = [
        ("assignments = rank_pruned + constructed",
         f["assignments"] == f["rank_pruned"] + f["constructed"]),
        ("constructed = gray_images", f["constructed"] == f["gray_images"]),
        ("distance calls = dual_containing", f["distance_calls"] == f["dual_containing"]),
        ("exact + bounded = distance calls",
         f["distance_exact"] + f["distance_bounded"] == f["distance_calls"]),
    ]
    return [f"funnel: {law} fails ({f})" for law, ok in laws if not ok]


def median_metrics(runs: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of each timing over traced passes; counts must repeat exactly.

    Returns the metrics and the names of counts that differed between passes.
    """
    out, unsteady = {}, []
    for k, v in runs[0].items():
        if isinstance(v, int):
            out[k] = v
            if any(r[k] != v for r in runs):
                unsteady.append(k)
        else:
            out[k] = statistics.median(r[k] for r in runs)
    return out, unsteady
