"""zprs benchmark: one workload per process, jobs = 1.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: css_search, enumerate, factor, reproduce (see bench/README.md).
Run from a checkout that holds src/zprs.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60
# Wall seconds of reference_task() on the unloaded 2-core container the
# benchmark was defined on: the speed that every timing is scaled to.
REF_S = 0.075


def load_package() -> None:
    """Import zprs from this checkout's src/, or exit without a result."""
    if not (SRC / "zprs" / "__init__.py").is_file():
        sys.exit(f"bench: {SRC / 'zprs'} not found; run from a zprs checkout")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import zprs
    if Path(zprs.__file__).resolve().parent != (SRC / "zprs").resolve():
        sys.exit(f"bench: imported zprs from {zprs.__file__}, not from {SRC}")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["css_search", "enumerate", "factor", "reproduce"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set the workload up, print the monotonic clock and exit")
    return ap.parse_args(argv)


def reference_task() -> int:
    """Fixed work in the library's style, without zprs: small numpy row
    operations mod p and tuple / dict churn.

    The machine is shared, and other tenants slow it down by up to 2x for
    minutes at a time.  This task slows down with the workloads (their
    times correlate at 0.93), so each timing is divided by the time of the
    reference runs next to it.
    """
    rng = np.random.default_rng(0)
    acc = 0
    for _ in range(400):
        m = rng.integers(0, 17, (12, 24))
        v = m[0].copy()
        for row in m[1:]:
            v = (v * 3 + np.roll(row, 1)) % 17
        counts: dict[tuple, int] = {}
        for j in range(60):
            key = tuple(j * k % 17 for k in range(6))
            counts[key] = counts.get(key, 0) + 1
        acc += int(v.sum()) + len(counts)
    return acc


def reference_seconds() -> float:
    t0 = time.perf_counter()
    reference_task()
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, ref_before: float, ref_after: float) -> float:
    """Seconds scaled to the speed at which reference_task() takes REF_S."""
    return seconds * 2 * REF_S / (ref_before + ref_after)


class ReferenceTicks:
    """Runs reference_task() every TICK_S seconds of wall time, inside tasks too.

    An interval timer raises SIGALRM; Python runs the handler in the main
    thread between bytecodes, so the reference sees the same core and
    caches as the task it interrupts.  A 15-second search then gets a
    reference sample every few seconds instead of one at each end.
    """

    TICK_S = 2.0

    def __init__(self):
        self.samples: list[float] = []
        self._busy = False

    def sample(self) -> None:
        """Run the reference now, unless a tick arrived while one is running."""
        if self._busy:
            return
        self._busy = True
        try:
            self.samples.append(reference_seconds())
        finally:
            self._busy = False

    def _tick(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "ReferenceTicks":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.TICK_S, self.TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def setup_seconds(args) -> list[tuple[float, float]]:
    """Set-up time of fresh processes: from spawn until the workload is ready.

    Each probe is a new interpreter that imports zprs, builds the inputs and
    fills the one-time caches, then prints time.monotonic(), a clock shared
    by all processes on the machine.  Returns (seconds, seconds at the
    reference speed) per probe.
    """
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    before = reference_seconds()
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        probe = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                               timeout=PROBE_TIMEOUT_S, check=True)
        seconds = float(probe.stdout.split()[-1]) - t0
        after = reference_seconds()
        samples.append((seconds, at_reference_speed(seconds, before, after)))
        before = after
    return samples


def timed_pass(tasks, ticks: bool = True):
    """One pass with a reference run before the first task, after each task
    and, with ``ticks``, every ReferenceTicks.TICK_S seconds inside a task.

    Returns the outputs, each task's wall seconds without the reference runs
    inside it, and those seconds at the reference speed (scaled by the mean
    of the reference runs before, inside and after the task).
    """
    from workloads import run_tasks
    outputs, raw, scaled = [], [], []
    with contextlib.ExitStack() as stack:
        ref = stack.enter_context(ReferenceTicks()) if ticks else ReferenceTicks()
        ref.sample()
        for task in tasks:
            first = len(ref.samples) - 1
            (out,), (seconds,) = run_tasks([task])
            ref.sample()
            near = ref.samples[first:]
            seconds -= sum(near[1:-1])
            outputs.append(out)
            raw.append(seconds)
            scaled.append(seconds * REF_S / statistics.mean(near))
    return outputs, raw, scaled


def pass_seconds(task_seconds: list[list[float]]) -> float:
    """Seconds of one pass: each task's median over the passes, summed."""
    return sum(statistics.median(col) for col in zip(*task_seconds))


def check_passes(workload, passes) -> tuple[int, list[str]]:
    """Failed-task count over all passes, and the messages."""
    failed, messages = 0, []
    reference = workload.serialize(passes[0])
    for i, outputs in enumerate(passes):
        bad = workload.check(outputs)
        failed += len(bad)
        messages += [f"pass {i}: {msg}" for msg in bad]
        if not bad and workload.serialize(outputs) != reference:
            failed += 1
            messages.append(f"pass {i}: output differs from pass 0")
    return failed, messages


def measure(args, workload, tasks) -> dict:
    """Untraced passes until the next one would overrun --seconds (at least one)."""
    raw, scaled, lengths, passes = [], [], [], []
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outputs, raw_pass, scaled_pass = timed_pass(tasks)
        lengths.append(time.perf_counter() - t0)
        raw.append(raw_pass)
        scaled.append(scaled_pass)
        passes.append(outputs)
        if time.perf_counter() - begin + statistics.median(lengths) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, messages = check_passes(workload, passes)
    return {"wall_s": pass_seconds(scaled), "raw_wall_s": pass_seconds(raw),
            "passes": len(passes), "peak_rss_mb": peak_rss_mb,
            "attempted": len(tasks) * len(passes), "failed": failed, "messages": messages}


def measure_traced(args, workload, tasks) -> dict:
    """Alternate untraced and traced passes; per-layer metrics are medians."""
    from spans import Tracer, funnel_violations, median_metrics
    rank_pruned = getattr(workload, "rank_pruned", lambda: 0)()
    plain_times, traced_times, lengths, layer_runs, passes = [], [], [], [], []
    messages = []
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        # no reference ticks here: they would land inside the spans
        plain, _, seconds = timed_pass(tasks, ticks=False)
        plain_times.append(seconds)
        tracer = Tracer()
        tracer.install()
        try:
            traced, _, seconds = timed_pass(tasks, ticks=False)
        finally:
            tracer.uninstall()
        traced_times.append(seconds)
        lengths.append(time.perf_counter() - t0)
        layer = tracer.metrics(rank_pruned)
        layer_runs.append(layer)
        messages += funnel_violations(layer)
        if workload.serialize(traced) != workload.serialize(plain):
            messages.append("traced output differs from untraced output")
        passes += [plain, traced]
        if time.perf_counter() - begin + statistics.median(lengths) > args.seconds:
            break
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.save(out_dir / f"spans-{args.workload}-seed{args.seed}.npz")
    failed, check_messages = check_passes(workload, passes)
    metrics, unsteady = median_metrics(layer_runs)
    messages += [f"count {name} differs between traced passes" for name in unsteady]
    metrics["trace.overhead_s"] = pass_seconds(traced_times) - pass_seconds(plain_times)
    return {"metrics": metrics, "attempted": len(tasks) * len(passes),
            "failed": failed, "messages": check_messages + messages,
            "trace_violations": len(messages)}


UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith((".yield", "per_factor")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    load_package()
    import workloads

    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed)
        print(repr(time.monotonic()))
        return 0

    setup = [] if args.trace else setup_seconds(args)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    tasks = workload.tasks()

    if args.trace:
        res = measure_traced(args, workload, tasks)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in res["metrics"].items()}
        correct = res["failed"] == 0 and res["trace_violations"] == 0
    else:
        res = measure(args, workload, tasks)
        values = {"wall_s": res["wall_s"],
                  "setup_s": statistics.median(scaled for _, scaled in setup),
                  "peak_rss_mb": res["peak_rss_mb"]}
        for name, value in values.items():
            print(f"{args.workload} {name} = {value:.6g} {UNITS[name]}")
        # fail_frac is printed here but carried in the result line as
        # failed / attempted: a metric that is 0 on a healthy run cannot be
        # bounded as a share of its median
        print(f"{args.workload} fail_frac = {res['failed'] / res['attempted']:.6g} "
              f"({res['failed']} of {res['attempted']} tasks)")
        print(f"{args.workload} unscaled: wall {res['raw_wall_s']:.6g} s over "
              f"{res['passes']} passes, setup "
              f"{statistics.median(raw for raw, _ in setup):.6g} s")
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
        correct = res["failed"] == 0
    for msg in res["messages"]:
        print(f"{args.workload}: {msg}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
