"""The benchmark's three workloads: scenarios, output check and simulated metrics.

Each workload is a list of labelled scenario runs that together form one
*iteration*; the benchmark times whole iterations.  Scenarios are built
from the benchmark's ``--seed`` and handed to ``run_scenario`` unchanged.
See README.md in this directory for why each workload is here.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from statistics import fmean
from typing import Callable, Dict, List, NamedTuple, Tuple

from benchmarks.perf import scale_scenario
from repro.apps.base import PhasedApplication
from repro.apps.service import ServiceApp
from repro.apps.synthetic import UniformApp
from repro.experiments.figure4 import figure4_scenario
from repro.experiments.service import service_mix_scenario
from repro.metrics.latency import percentile
from repro.sim import units
from repro.workloads import AppSpec, Scenario, ScenarioResult

#: Jitter seeds per ``multiprog`` iteration (both arms run on each).
MULTIPROG_JITTER_SEEDS = 3
#: The paper's Figure 4 gauss wall times: 66 s without control, 28 s with.
PAPER_GAUSS_GAIN = 66 / 28

SERVICE_RATE_PER_S = 180.0
SERVICE_REQUESTS = 2_000
#: 6,000 x 8 ms = 48 CPU-s of batch work: with the ~3.2 CPUs the stream
#: keeps busy, the batch job outlasts the ~11 s stream and its drift.
SERVICE_BATCH_TASKS = 6_000


class AppCheck(NamedTuple):
    """What a correct run of one application must report."""

    tasks: int
    requests: int
    #: Intended arrival of a service app's last request (us; 0 otherwise).
    last_arrival: int


def _task_count(app) -> int:
    if isinstance(app, ServiceApp):
        # One dispatcher segment, ``fanout`` stages and a reduce per request.
        return app.n_requests * (app.fanout + 2)
    if isinstance(app, PhasedApplication):
        return sum(len(app.phase_tasks(p)) for p in range(app.n_phases))
    return app.n_tasks


def expected_apps(scenario: Scenario) -> Dict[str, AppCheck]:
    """Build a spare instance of every application and record its census."""
    checks = {}
    for spec in scenario.apps:
        app = spec.factory()
        service = isinstance(app, ServiceApp)
        checks[app.app_id] = AppCheck(
            tasks=_task_count(app),
            requests=app.n_requests if service else 0,
            last_arrival=app.arrivals[-1] if service else 0,
        )
    return checks


def check_result(result: ScenarioResult, expected: Dict[str, AppCheck]) -> List[str]:
    """Problems with one run's output; empty when it is correct."""
    if set(result.apps) != set(expected):
        return [f"apps {sorted(result.apps)} != expected {sorted(expected)}"]
    problems = []
    for app_id, want in expected.items():
        got = result.apps[app_id]
        if got.finished_at is None:
            problems.append(f"{app_id} did not finish")
        if got.tasks_completed != want.tasks:
            problems.append(
                f"{app_id} completed {got.tasks_completed} of {want.tasks} tasks"
            )
        if got.requests_completed != want.requests:
            problems.append(
                f"{app_id} served {got.requests_completed} of "
                f"{want.requests} requests"
            )
    return problems


@dataclass
class Workload:
    name: str
    #: Labelled scenario runs of one iteration, in run order.
    runs: List[Tuple[str, Scenario]]
    #: label -> app_id -> census the output check compares against.
    expected: Dict[str, Dict[str, AppCheck]]
    #: results by label -> the three ``sim_*`` end-to-end metrics.
    sim_metrics: Callable[[Dict[str, ScenarioResult]], Dict[str, float]]


def _app_p99_ms(results) -> float:
    """p99 of application turnaround (arrival to finish), simulated ms."""
    return percentile(
        [app.wall_time for r in results for app in r.apps.values()], 99
    ) / 1e3


def multiprog(seed: int) -> Workload:
    """Figure 4 (paper preset), control off and centralized, on a few jitter
    seeds derived from *seed*."""
    jitter = [seed * MULTIPROG_JITTER_SEEDS + j for j in range(MULTIPROG_JITTER_SEEDS)]
    runs = []
    for s in jitter:
        runs.append((f"off/{s}", figure4_scenario(None, "paper", s)))
        runs.append((f"on/{s}", figure4_scenario("centralized", "paper", s)))

    def sim_metrics(results):
        on = [results[f"on/{s}"] for s in jitter]
        off = [results[f"off/{s}"] for s in jitter]
        return {
            "sim_makespan_s": fmean(r.makespan for r in on) / 1e6,
            "sim_p99_ms": _app_p99_ms(on),
            "sim_control_gain_gauss": fmean(r.wall_time("gauss") for r in off)
            / fmean(r.wall_time("gauss") for r in on),
        }

    return _workload("multiprog", runs, sim_metrics)


def service(seed: int) -> Workload:
    """The ``slo`` arm of the service experiment (paper preset), stretched
    to a 2,000-request stream with a batch job that outlasts it."""
    base = service_mix_scenario("slo", SERVICE_RATE_PER_S, "paper", seed)

    def stream() -> ServiceApp:
        return ServiceApp(
            app_id="svc",
            rate_per_s=SERVICE_RATE_PER_S,
            n_requests=SERVICE_REQUESTS,
            fanout=4,
            stage_cost=units.ms(4),
            reduce_cost=units.ms(2),
            slo_us=units.ms(60),
            seed=seed,
        )

    def batch() -> UniformApp:
        return UniformApp(
            "batch", n_tasks=SERVICE_BATCH_TASKS, task_cost=units.ms(8), seed=seed
        )

    scenario = dataclasses.replace(
        base, apps=[AppSpec(stream, n_processes=8), AppSpec(batch, n_processes=8)]
    )

    def sim_metrics(results):
        result = results["slo"]
        return {
            "sim_makespan_s": result.makespan / 1e6,
            "sim_p99_ms": result.service_tiers["interactive"].p99 / 1e3,
            # No control-off arm runs here: neutral by definition.
            "sim_control_gain_gauss": 1.0,
        }

    return _workload("service", [("slo", scenario)], sim_metrics)


#: Spacing of the scale tier's churn arrival grid (``scale_scenario``).
SCALE_CHURN_SPACING = 187
SCALE_RESIDENTS = 2_000


def scale(seed: int) -> Workload:
    """The pinned 1024-CPU / 10k-app / 32-shard perf tier.

    The tier has no random inputs, so the seed sets the phase of the churn
    arrival grid against the resident grid (``seed mod 187`` us).  Seed 0
    is exactly the tier ``benchmarks/perf.py --check`` pins (664,238
    events).
    """
    scenario = scale_scenario(n_residents=SCALE_RESIDENTS, seed=seed)
    phase = seed % SCALE_CHURN_SPACING
    scenario.apps[SCALE_RESIDENTS:] = [
        dataclasses.replace(spec, arrival=spec.arrival + phase)
        for spec in scenario.apps[SCALE_RESIDENTS:]
    ]

    def sim_metrics(results):
        result = results["scale"]
        return {
            "sim_makespan_s": result.makespan / 1e6,
            "sim_p99_ms": _app_p99_ms([result]),
            # No control-off arm runs here: neutral by definition.
            "sim_control_gain_gauss": 1.0,
        }

    return _workload("scale", [("scale", scenario)], sim_metrics)


def _workload(name, runs, sim_metrics) -> Workload:
    return Workload(
        name=name,
        runs=runs,
        expected={label: expected_apps(s) for label, s in runs},
        sim_metrics=sim_metrics,
    )


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    "multiprog": multiprog,
    "service": service,
    "scale": scale,
}


def sim_layer_metrics(
    results: Dict[str, ScenarioResult], expected: Dict[str, Dict[str, AppCheck]]
) -> Dict[str, float]:
    """Deterministic per-layer counts of one iteration, summed over its runs
    (both arms on ``multiprog``).  Simulated times are in simulated units."""
    r = list(results.values())
    locks = [stats for res in r for stats in res.locks.values()]
    apps = [app for res in r for app in res.apps.values()]
    acquisitions = sum(s.acquisitions for s in locks)
    util = [res.utilization for res in r]
    accounted = sum(sum(u.values()) for u in util)
    drift = [
        res.apps[app_id].finished_at - check.last_arrival
        for label, res in results.items()
        for app_id, check in expected[label].items()
        if check.requests
    ]
    return {
        "sim.events": sum(res.events_fired for res in r),
        "core.server_updates": sum(res.server_updates for res in r),
        "kernel.context_switches": sum(res.total_context_switches for res in r),
        "kernel.preemptions": sum(res.total_preemptions for res in r),
        "kernel.cs_preemptions": sum(res.total_cs_preemptions for res in r),
        "sync.acquisitions": acquisitions,
        "sync.contended_ratio": (
            sum(s.contended_acquisitions for s in locks) / acquisitions
            if acquisitions
            else 0.0
        ),
        "sync.spin_s": sum(res.total_spin_time for res in r) / 1e6,
        "sync.holder_preempted": sum(s.holder_preempted_encounters for s in locks),
        "threads.polls": sum(a.polls for a in apps),
        "threads.suspensions": sum(a.suspensions for a in apps),
        "threads.resumes": sum(a.resumes for a in apps),
        "threads.idle_poll_s": sum(a.idle_poll_time for a in apps) / 1e6,
        "machine.busy_ratio": sum(u["busy"] for u in util) / accounted,
        "apps.arrival_drift_ms": max(drift, default=0) / 1e3,
    }


def fingerprint(results: Dict[str, ScenarioResult]) -> str:
    """Digest of each run's event count and every app's finish time: equal
    fingerprints mean the simulated runs were identical.  A digest, not
    the tuples, so iterations do not keep 10k-entry records alive."""
    record = [
        (
            label,
            res.events_fired,
            sorted((app_id, app.finished_at) for app_id, app in res.apps.items()),
        )
        for label, res in results.items()
    ]
    return hashlib.sha256(repr(record).encode()).hexdigest()
