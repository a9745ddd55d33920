"""ChaosCampaign: sweep seeds x injectors x schedulers under the sanitizer.

The campaign is the lockdown for the fault-injection subsystem: every cell
runs a small multiprogrammed workload with the invariant sanitizer
forced on, injects one named fault plan, and asserts

* zero invariant violations,
* no deadlock (every application finishes inside the time cap), and
* bounded completion-time inflation against the matching healthy baseline.

Cells fan out over :func:`repro.experiments.parallel.parallel_map`, so the
sweep is order-stable and bit-identical whether it runs serially or on all
cores -- and :meth:`ChaosReport.format_report` is byte-identical for the
same seed set, which the determinism test pins.

This module is the one fault-sweep implementation: the recovery sweep
(:mod:`repro.experiments.recovery`) runs the same cells through
:func:`run_fault_cells` and extends :class:`ChaosReport` with its
supervised-vs-unsupervised check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.waste import waste_breakdown
from repro.apps.synthetic import UniformApp
from repro.config import RunConfig, active_config
from repro.experiments.config import get_preset
from repro.experiments.parallel import parallel_map
from repro.machine import MachineConfig
from repro.sim import units
from repro.workloads import AppSpec, Scenario, run_scenario

#: Named fault plans the default campaign sweeps (>= 3 distinct injector
#: families; see :mod:`repro.faults.plan` for the grammar).
DEFAULT_INJECTORS: Dict[str, str] = {
    "cpu-churn": (
        "cpu-offline:cpu=1,at=5ms,duration=40ms;"
        "cpu-offline:cpu=2,at=20ms,duration=40ms"
    ),
    # The runner sizes the stale-target TTL at 4 x the 10ms intervals.
    # The crash lands at 25ms -- after every application's first poll, so
    # targets are *adopted* when the server dies -- and stamps an epoch
    # on the board: polls fail immediately and the TTL releases targets
    # at ~(crash + TTL) = 65ms, with the 120ms outage leaving room for
    # crash-safe re-registration after the restart.
    "server-crash": "server-crash:at=25ms,down=120ms",
    "poll-chaos": (
        "poll-drop:at=5ms,duration=50ms,p=0.9;"
        "poll-delay:at=60ms,duration=30ms,delay=4ms"
    ),
    "message-chaos": (
        "chan-drop:at=0,duration=20ms,p=0.5;"
        "chan-dup:at=20ms,duration=20ms,p=0.5;"
        "clock-jitter:at=5ms,duration=60ms,amp=3ms"
    ),
    "preempt-storm": "preempt-storm:at=5ms,duration=50ms,period=2ms",
}

#: Kernel policies the default campaign crosses the injectors with.
DEFAULT_SCHEDULERS = ("fifo", "decay", "partition")


def shard_injectors(shards: int) -> Dict[str, str]:
    """One shard-targeted crash plan per shard (``server-crash:shard=i``).

    For sharded campaigns: ``run_campaign(injectors=shard_injectors(2),
    shards=2)`` kills exactly one shard per cell and lets the assertion
    machinery verify the *other* region's applications ride through.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    return {
        f"shard{index}-crash": (
            f"server-crash:at=8ms,down=140ms,shard={index}"
        )
        for index in range(shards)
    }

#: Healthy-vs-faulted makespan ratio the campaign tolerates by default.
#: Taking processors away or killing the server for most of a short run
#: legitimately slows it down; what we bound is *graceful* degradation,
#: not zero-cost degradation.
DEFAULT_MAX_INFLATION = 10.0


def chaos_scenario(
    scheduler: str,
    seed: int,
    faults: Optional[str] = None,
    shards: Optional[int] = None,
    supervise: Optional[bool] = None,
    critical_fraction: float = 0.0,
    name: str = "chaos",
) -> Scenario:
    """The campaign's workload: two controlled apps oversubscribing 8 CPUs.

    Small on purpose (a cell takes well under a second of host time) but
    structurally complete: centralized control, a poll/server interval the
    faults can race with, and enough oversubscription that targets bind.
    *shards* sizes the control plane and *supervise* arms the watchdog
    (``None`` = the run config's).  *critical_fraction* puts part of every
    task inside a spinlock, so losing control has a real cost; *name*
    prefixes the two application ids (which also seed their jitter).
    """
    machine = MachineConfig(
        n_processors=8,
        quantum=units.ms(5),
        context_switch_cost=units.us(50),
        dispatch_latency=units.us(10),
        cache_cold_penalty=units.us(500),
        cache_warmup_time=units.ms(2),
        cache_purge_time=units.ms(4),
    )
    return Scenario(
        apps=[
            AppSpec(
                lambda: UniformApp(
                    f"{name}-a",
                    n_tasks=240,
                    task_cost=units.ms(2),
                    critical_fraction=critical_fraction,
                    jitter=0.2,
                    seed=seed,
                ),
                n_processes=6,
            ),
            AppSpec(
                lambda: UniformApp(
                    f"{name}-b",
                    n_tasks=240,
                    task_cost=units.ms(2),
                    critical_fraction=critical_fraction,
                    jitter=0.2,
                    seed=seed,
                ),
                n_processes=6,
                arrival=units.ms(2),
            ),
        ],
        control="centralized",
        scheduler=scheduler,
        machine=machine,
        server_interval=units.ms(10),
        poll_interval=units.ms(10),
        seed=seed,
        max_time=units.seconds(5),
        faults=faults,
        shards=shards,
        supervise=supervise,
    )


@dataclass
class FaultCell:
    """One (fault plan, scenario shape, seed) -> outcome."""

    injector: str  # "baseline" for the healthy run
    scheduler: str
    seed: int
    #: Whether the control-plane watchdog ran.
    supervised: bool
    completed: bool
    makespan: int
    sim_time: int
    violations: int
    faults_injected: int
    fault_events: int
    failed_polls: int
    target_expiries: int
    restarts: int
    failovers: int
    #: us from the first injected crash to the last application's first
    #: fresh re-poll; None = no crash, or some application never
    #: reconverged.
    reconverge: Optional[int]
    idle_poll_pct: float
    #: makespan / healthy-baseline makespan; 0.0 until the sweep fills it.
    inflation: float = 0.0

    @property
    def where(self) -> str:
        arm = "/supervised" if self.supervised else ""
        return f"{self.injector}/{self.scheduler}{arm}/seed={self.seed}"


def _reconverge_time(result) -> Optional[int]:
    """us from the first applied crash until every app re-polled fresh."""
    crashes = [
        time
        for time, kind, details in result.fault_events
        if kind == "server_crash" and details.get("applied")
    ]
    if not crashes:
        return None
    first_crash = min(crashes)
    latest: Dict[str, int] = {}
    for record in result.trace.records("pc.poll"):
        app_id = record.data["app_id"]
        if record.time >= first_crash and app_id not in latest:
            latest[app_id] = record.time
    if set(latest) != set(result.apps):
        return None
    return max(latest.values()) - first_crash


def _fault_cell(args) -> FaultCell:
    """Sweep cell (module-level so it pickles for the process pool).

    *args* is ``(injector, seed, shape, config)``: *shape* holds the
    :func:`chaos_scenario` keywords, *config* carries the fault plan.
    """
    injector, seed, shape, config = args
    scenario = chaos_scenario(seed=seed, **shape)
    result = run_scenario(scenario, config=config)
    apps = result.apps.values()
    completed = all(
        app.finished_at is not None and app.finished_at >= 0 for app in apps
    ) and result.sim_time < scenario.max_time
    counters = result.watchdog_counters
    return FaultCell(
        injector=injector,
        scheduler=scenario.scheduler,
        seed=seed,
        supervised=counters is not None,
        completed=completed,
        makespan=result.makespan if completed else scenario.max_time,
        sim_time=result.sim_time,
        violations=result.sanitizer_violations,
        faults_injected=result.faults_injected,
        fault_events=len(result.fault_events),
        failed_polls=sum(app.failed_polls for app in apps),
        target_expiries=sum(app.target_expiries for app in apps),
        restarts=(counters or {}).get("restarts", 0),
        failovers=(counters or {}).get("failovers", 0),
        reconverge=_reconverge_time(result),
        idle_poll_pct=waste_breakdown(result).as_percentages()["idle_poll"],
    )


def run_fault_cells(
    cells_args: List[Tuple[str, int, Dict[str, Any], RunConfig]],
    jobs: Optional[int] = None,
) -> List[FaultCell]:
    """Run :func:`_fault_cell` over *cells_args* and fill in inflation.

    Each cell's inflation is its makespan over the ``"baseline"`` cell's
    with the same scheduler and seed.
    """
    cells: List[FaultCell] = parallel_map(_fault_cell, cells_args, jobs)
    baselines = {
        (cell.scheduler, cell.seed): cell.makespan
        for cell in cells
        if cell.injector == "baseline"
    }
    for cell in cells:
        base = baselines.get((cell.scheduler, cell.seed), 0)
        cell.inflation = cell.makespan / base if base else 0.0
    return cells


@dataclass
class ChaosReport:
    """Everything a fault sweep produced, reduced for assertion/printing."""

    cells: List[FaultCell]
    injectors: Dict[str, str]
    schedulers: Tuple[str, ...]
    seeds: Tuple[int, ...]
    sanitize: str = "record"

    #: What :meth:`assert_clean` says failed.
    title = "chaos campaign"

    @property
    def total_violations(self) -> int:
        return sum(cell.violations for cell in self.cells)

    @property
    def deadlocks(self) -> int:
        return sum(1 for cell in self.cells if not cell.completed)

    @property
    def max_inflation(self) -> float:
        return max((cell.inflation for cell in self.cells), default=0.0)

    def check(self, max_inflation: float = DEFAULT_MAX_INFLATION) -> List[str]:
        """All acceptance failures (empty list = clean sweep)."""
        failures: List[str] = []
        for cell in self.cells:
            if not cell.completed:
                failures.append(f"deadlock: {cell.where} missed the time cap")
            if cell.violations:
                failures.append(
                    f"invariants: {cell.where} logged {cell.violations} "
                    "violations"
                )
            if cell.inflation > max_inflation:
                failures.append(
                    f"inflation: {cell.where} ran {cell.inflation:.2f}x the "
                    f"healthy baseline (cap {max_inflation:.2f}x)"
                )
        return failures

    def assert_clean(
        self, max_inflation: float = DEFAULT_MAX_INFLATION
    ) -> None:
        """Raise AssertionError listing every acceptance failure."""
        failures = self.check(max_inflation)
        if failures:
            raise AssertionError(
                f"{self.title} failed:\n  " + "\n  ".join(failures)
            )

    def _verdict(self, summary: str, clean: str) -> List[str]:
        """The report's closing lines: *summary*, then failures or *clean*."""
        failures = self.check()
        if not failures:
            return [summary, clean]
        return [summary, "FAILURES:"] + [f"  {failure}" for failure in failures]

    def format_report(self) -> str:
        """Deterministic text report (byte-identical across reruns)."""
        lines = [
            "ChaosCampaign: "
            f"{len(self.injectors)} injector plans x "
            f"{len(self.schedulers)} schedulers x {len(self.seeds)} seeds "
            f"(sanitize={self.sanitize})",
            "",
            f"{'injector':<14} {'scheduler':<10} {'seed':>4} "
            f"{'makespan_us':>12} {'inflation':>9} {'viol':>4} "
            f"{'events':>6} {'expiries':>8} {'ok':>3}",
        ]
        for cell in self.cells:
            lines.append(
                f"{cell.injector:<14} {cell.scheduler:<10} {cell.seed:>4} "
                f"{cell.makespan:>12} {cell.inflation:>9.3f} "
                f"{cell.violations:>4} {cell.fault_events:>6} "
                f"{cell.target_expiries:>8} "
                f"{'yes' if cell.completed else 'NO':>3}"
            )
        lines.append("")
        lines += self._verdict(
            f"violations={self.total_violations} deadlocks={self.deadlocks} "
            f"max_inflation={self.max_inflation:.3f}",
            "clean",
        )
        return "\n".join(lines)


def run_campaign(
    injectors: Optional[Dict[str, str]] = None,
    schedulers: Sequence[str] = DEFAULT_SCHEDULERS,
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    sanitize: Optional[str] = None,
    jobs: Optional[int] = None,
    shards: Optional[int] = None,
) -> ChaosReport:
    """Run the full sweep: baselines + every injector plan per cell.

    *sanitize* defaults to the active config's mode, or ``"record"`` when
    that is off, so the campaign always runs checked.  Each cell's fault
    plan is pinned (the baseline runs healthy); every other knob follows
    the active config.  *shards* sizes every cell's control plane
    (``None`` = the config's); the fault plans then hit every shard.
    """
    if injectors is None:
        injectors = dict(DEFAULT_INJECTORS)
    config = active_config()
    sanitize = sanitize or config.sanitize or "record"
    schedulers = tuple(schedulers)
    seeds = tuple(seeds)

    plans = {"baseline": None, **injectors}
    cells = run_fault_cells(
        [
            (
                name,
                seed,
                {"scheduler": scheduler, "shards": shards},
                config.with_(sanitize=sanitize, faults=spec),
            )
            for scheduler in schedulers
            for seed in seeds
            for name, spec in plans.items()
        ],
        jobs,
    )
    return ChaosReport(
        cells=cells,
        injectors=injectors,
        schedulers=schedulers,
        seeds=seeds,
        sanitize=sanitize,
    )


def main(preset: str = "quick") -> None:  # pragma: no cover - CLI glue
    """CLI entry (``python -m repro.experiments chaos``): run + assert."""
    report = run_campaign(seeds=get_preset(preset).fault_seeds)
    print(report.format_report())
    report.assert_clean()
