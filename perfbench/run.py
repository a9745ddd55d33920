"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload multiprog --seed 1 --seconds 30 --trace 0

``--trace 0`` measures untraced iterations and prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced iterations and
prints the per-layer split, including ``trace.overhead``.  ``--workload
all`` (the default) runs every workload in turn, serially, in this
process.  Metric names, units and directions come from ``BENCHMARK.json``.
Every scenario run's output is checked; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import repro  # noqa: E402

if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"repro was imported from {repro.__file__}, not {ROOT / 'src'}")

from repro.kernel import Kernel  # noqa: E402
from repro.sim.engine import SimulationError  # noqa: E402
from repro.workloads import run_scenario  # noqa: E402

from layers import GcWatch, LayerTrace  # noqa: E402
from workloads import (  # noqa: E402
    PAPER_GAUSS_GAIN,
    WORKLOADS,
    check_result,
    fingerprint,
    sim_layer_metrics,
)

perf_counter = time.perf_counter

#: Set-up-only passes per untraced run, on top of the set-ups of its full
#: iterations, so ``setup_s`` is a median of several samples on ``scale``.
SETUP_PASSES = 5
#: Full iterations per untraced run, however long they take.
MIN_ITERATIONS = 3


class SetupDone(Exception):
    """Raised at event-loop entry during a set-up-only pass."""


class LoopClock:
    """Marks event-loop entry and exit inside ``run_scenario`` by wrapping
    ``Kernel.run_until_quiescent``: set-up is the time before entry,
    reduction the time after exit."""

    def __init__(self) -> None:
        self.entered = self.exited = 0.0
        self.setup_only = False
        self._original = Kernel.__dict__["run_until_quiescent"]

    def __enter__(self) -> "LoopClock":
        original = self._original

        def run_until_quiescent(kernel, *args, **kwargs):
            self.entered = perf_counter()
            if self.setup_only:
                raise SetupDone
            original(kernel, *args, **kwargs)
            self.exited = perf_counter()

        Kernel.run_until_quiescent = run_until_quiescent
        return self

    def __exit__(self, *exc) -> None:
        Kernel.run_until_quiescent = self._original

    def restored(self) -> bool:
        return Kernel.__dict__["run_until_quiescent"] is self._original


class Iteration:
    """One pass over a workload's scenario runs.

    Results are checked and reduced on the spot, so none outlives the
    iteration.  Host times cover the ``run_scenario`` calls only.
    """

    def __init__(self, workload, clock: LoopClock) -> None:
        self.wall_s = self.cpu_s = self.setup_s = self.reduce_s = 0.0
        self.problems = []
        self.attempted = len(workload.runs)
        results = {}
        for label, scenario in workload.runs:
            cpu = time.process_time()
            began = perf_counter()
            try:
                result = run_scenario(scenario)
            except SimulationError as exc:  # max_time, max_events, deadlock
                self.problems.append(f"{label}: {exc}")
                continue
            done = perf_counter()
            self.cpu_s += time.process_time() - cpu
            self.wall_s += done - began
            self.setup_s += clock.entered - began
            self.reduce_s += done - clock.exited
            problems = check_result(result, workload.expected[label])
            self.problems += [f"{label}: {p}" for p in problems]
            if not problems:
                results[label] = result
        self.failed = self.attempted - len(results)
        self.ok = not self.failed
        if self.ok:
            self.fingerprint = fingerprint(results)
            self.sim = workload.sim_metrics(results)
            self.layers = sim_layer_metrics(results, workload.expected)


def setup_pass(workload, clock: LoopClock) -> float:
    """Host time to set up every scenario of *workload*, without running."""
    total = 0.0
    clock.setup_only = True
    try:
        for _, scenario in workload.runs:
            began = perf_counter()
            try:
                run_scenario(scenario)
            except SetupDone:
                total += clock.entered - began
    finally:
        clock.setup_only = False
    return total


def tally(iterations):
    """attempted, failed, problems and the good iterations; a simulated
    outcome that differs between iterations is a problem too."""
    problems = [p for it in iterations for p in it.problems]
    good = [it for it in iterations if it.ok]
    if any(
        (it.fingerprint, it.sim, it.layers)
        != (good[0].fingerprint, good[0].sim, good[0].layers)
        for it in good
    ):
        problems.append("simulated outcome differs between identical runs")
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    return attempted, failed, problems, good


def measure_untraced(workload, seconds: float, clock: LoopClock):
    deadline = perf_counter() + seconds
    # The first iteration runs in a fresh process, so the high-water RSS
    # after it is the workload's peak memory.
    iterations = [Iteration(workload, clock)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [setup_pass(workload, clock) for _ in range(SETUP_PASSES)]
    while len(iterations) < MIN_ITERATIONS or (
        perf_counter() + median(it.wall_s for it in iterations) <= deadline
    ):
        iterations.append(Iteration(workload, clock))
    attempted, failed, problems, good = tally(iterations)
    metrics = {}
    if good:
        metrics = {
            "wall_s": median(it.wall_s for it in good),
            "cpu_s": median(it.cpu_s for it in good),
            "events_per_s": median(it.layers["sim.events"] / it.wall_s for it in good),
            "setup_s": median(setups + [it.setup_s for it in good]),
            "peak_rss_mb": peak_rss_mb,
            **good[0].sim,
        }
    note = f"{len(iterations)} iterations, {len(setups) + len(good)} set-ups"
    return metrics, attempted, failed, problems, note


def layer_split(trace: LayerTrace) -> dict:
    """Per-layer host time and call counts of one traced iteration."""
    s, c = trace.self_s, trace.calls
    return {
        "sim.schedule_calls": c["sim.schedule"],
        "sim.self_s": s["sim"] + s["sim.schedule"],
        "kernel.self_s": s["kernel"],
        "kernel.sched.enqueues": c["kernel.sched.enqueue"],
        "kernel.sched.dequeues": c["kernel.sched.dequeue"],
        "kernel.sched.self_s": s["kernel.sched.enqueue"] + s["kernel.sched.dequeue"],
        "machine.cache.calls": c["machine.cache"],
        "machine.cache.self_s": s["machine.cache"],
        "threads.self_s": s["threads"],
        "threads.queue_ops": c["threads.queue"],
        "threads.queue.self_s": s["threads.queue"],
        "apps.initial_tasks_s": s["apps.initial_tasks"],
        "apps.on_task_done_calls": c["apps.on_task_done"],
        "apps.on_task_done_s": s["apps.on_task_done"],
        "core.self_s": s["core"],
        "core.allocate_calls": c["core.allocate"],
        "core.allocate_s": s["core.allocate"],
        "core.filler_updates": c["core.filler"],
        "core.filler_s": s["core.filler"],
    }


def measure_traced(workload, seconds: float, clock: LoopClock):
    """Alternate untraced and traced iterations until *seconds* pass."""
    deadline = perf_counter() + seconds
    plain, traced, splits, gcs = [], [], [], []
    restored = True
    while not traced or (
        perf_counter() + plain[-1].wall_s + traced[-1].wall_s <= deadline
    ):
        with GcWatch() as watch:
            plain.append(Iteration(workload, clock))
        gcs.append(watch)
        trace = LayerTrace()
        with trace:
            traced.append(Iteration(workload, clock))
        restored = restored and trace.restored()
        splits.append(layer_split(trace))
    # Comparing traced with untraced iterations is the self-test: tracing
    # must not change what is simulated.
    attempted, failed, problems, _ = tally(plain + traced)
    if not restored:
        problems.append("a layer wrapper outlived its traced run")
    metrics = {}
    if failed == 0:
        split = {k: median(s[k] for s in splits) for k in splits[0]}
        metrics = {
            **plain[0].layers,
            **split,
            "gc.pause_s": median(w.pause_s for w in gcs),
            "gc.collections": median(w.collections for w in gcs),
            "workloads.reduce_s": median(it.reduce_s for it in plain),
            "trace.overhead": median(it.wall_s for it in traced)
            / median(it.wall_s for it in plain),
        }
    note = f"{len(plain)} untraced + {len(traced)} traced iterations"
    return metrics, attempted, failed, problems, note


def scrub_environment() -> list:
    """Remove every ``REPRO_*`` knob so no run can be perturbed by it."""
    knobs = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for knob in knobs:
        del os.environ[knob]
    return knobs


def host_descriptor() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "gc_threshold": gc.get_threshold(),
        "gc_enabled": gc.isenabled(),
    }


def describe(name: str, value: float, spec: dict) -> str:
    direction = {"lower": "lower is better", "higher": "higher is better"}
    better = direction.get(spec.get("better"), "")
    return f"  {name:<26} {value:>16.6f} {spec['unit']:<8} {better}"


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict):
    workload = WORKLOADS[name](seed)
    expected_names = spec["per_layer" if trace else "end_to_end"]
    with LoopClock() as clock:
        measure = measure_traced if trace else measure_untraced
        metrics, attempted, failed, problems, note = measure(workload, seconds, clock)
    if not clock.restored():
        problems.append("Kernel.run_until_quiescent was not restored")
    print(f"workload {name} (seed {seed}, trace {int(trace)}): {note}")
    print(f"  scenario runs: {attempted} attempted, {failed} failed, "
          f"error_rate {failed / attempted:.4f}")
    for problem in problems[:20]:
        print(f"  FAILED {problem}")
    missing = [m["name"] for m in expected_names if m["name"] not in metrics]
    if metrics and missing:
        raise SystemExit(f"benchmark did not produce {missing}")
    out = {}
    for m in expected_names:
        if m["name"] in metrics:
            value = float(metrics[m["name"]])
            print(describe(m["name"], value, m))
            out[m["name"]] = {"value": value, "unit": m["unit"]}
    if not trace and name == "multiprog" and metrics:
        gain = metrics["sim_control_gain_gauss"]
        print(
            f"  paper Figure 4 gauss gain: 66 s / 28 s = {PAPER_GAUSS_GAIN:.2f}x; "
            f"simulated {gain:.2f}x, error {gain / PAPER_GAUSS_GAIN - 1:+.1%} "
            "(Figure 4 was not a calibration target)"
        )
    correct = not problems and failed == 0 and bool(out)
    return correct, attempted, failed, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    knobs = scrub_environment()
    print(f"host: {json.dumps(host_descriptor())}")
    print(f"cleared environment knobs: {knobs or 'none'}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, att, fail, out = run_workload(
            name, args.seed, seconds, bool(args.trace), spec
        )
        correct, attempted, failed = correct and ok, attempted + att, failed + fail
        prefix = "" if len(names) == 1 else f"{name}/"
        metrics.update({prefix + k: v for k, v in out.items()})
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
