"""Recovery sweep: supervised vs TTL-only control-plane failure handling.

The self-healing claim is quantitative: a watchdog that restarts (and
eventually fails over) dead control-server shards should beat the passive
fallback -- the threads package's stale-target TTL releasing every
orphaned application to full parallelism -- because released applications
oversubscribe the machine for the rest of the run, which is precisely the
Section 2 waste the control plane exists to prevent.

This experiment injects three failure patterns into a lock-heavy
workload (two 6-worker applications with a 15% critical-section
fraction on 8 processors, 2-shard control plane) and runs each one
twice -- supervised and unsupervised -- against a healthy baseline,
reporting:

* **inflation** -- makespan over the healthy baseline's (the acceptance
  metric: the supervised arm must be at or below the unsupervised arm in
  every cell);
* **time-to-reconverge** -- from the first injected crash until every
  application has re-adopted a fresh server target (``-`` = never, the
  unsupervised degraded mode);
* **idle-poll waste** -- the busy-wait share of machine capacity, which
  balloons when TTL release hands workers back to an overloaded machine;
* watchdog action counters (restarts, failovers, expiries).

Failure patterns:

* ``shard-dead`` -- one shard silently dies and never comes back: the
  watchdog restart path, vs TTL release of half the applications.
* ``shard-flap`` -- the same shard is re-killed every 20 ms: the restart
  budget (3 attempts) drains and the watchdog *fails over* the shard's
  region and applications to the survivor.
* ``total-outage`` -- every shard dies at once: supervised runs restart
  the whole plane; unsupervised runs degrade to full parallelism.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.config import active_config
from repro.experiments.config import get_preset
from repro.faults.campaign import (
    DEFAULT_MAX_INFLATION,
    ChaosReport,
    run_fault_cells,
)
from repro.metrics import format_table

#: Failure patterns swept by the recovery experiment (fault-plan specs
#: against a 2-shard plane; see :mod:`repro.faults.plan` for the grammar).
RECOVERY_PATTERNS: Dict[str, str] = {
    # Crashes land at >= 25ms so every application has adopted a target
    # first: the unsupervised arm then walks the full degradation path
    # (failed polls -> TTL expiry -> full parallelism).
    "shard-dead": "server-crash:shard=1,at=25ms",
    "shard-flap": (
        "server-crash:shard=1,at=25ms;"
        "server-crash:shard=1,at=45ms;"
        "server-crash:shard=1,at=65ms;"
        "server-crash:shard=1,at=85ms"
    ),
    "total-outage": "server-crash:at=25ms",
}

#: Shard count every cell runs with (patterns name shard 1, so >= 2).
RECOVERY_SHARDS = 2

#: Fraction of each task spent inside a spinlock.  This is what makes the
#: sweep decisive: with pure compute, TTL release to full parallelism is
#: nearly free (the machine stays busy either way), but with critical
#: sections the preempted-lock-holder waste of Section 2 makes the
#: uncontrolled 12-on-8 oversubscription measurably slower than the
#: equipartition a restarted server restores (~1.25x at this fraction).
RECOVERY_CRITICAL_FRACTION = 0.15

#: The recovery workload as :func:`repro.faults.campaign.chaos_scenario`
#: keywords: the campaign's two 6-worker applications and 10ms intervals
#: on a 2-shard plane, with the critical-section fraction above.
RECOVERY_SHAPE = {
    "scheduler": "fifo",
    "shards": RECOVERY_SHARDS,
    "critical_fraction": RECOVERY_CRITICAL_FRACTION,
    "name": "recovery",
}


class RecoveryReport(ChaosReport):
    """The chaos report plus the supervised-vs-unsupervised check."""

    title = "recovery sweep"

    def check(self, max_inflation: float = DEFAULT_MAX_INFLATION) -> List[str]:
        """The campaign's checks, then every (pattern, seed) whose
        supervised arm inflated more than its unsupervised arm."""
        failures = super().check(max_inflation)
        arms = {
            (cell.injector, cell.supervised, cell.seed): cell
            for cell in self.cells
        }
        for pattern in self.injectors:
            for seed in self.seeds:
                sup = arms.get((pattern, True, seed))
                unsup = arms.get((pattern, False, seed))
                if sup is None or unsup is None:
                    continue
                if sup.inflation > unsup.inflation:
                    failures.append(
                        f"recovery: {pattern}/seed={seed} supervised "
                        f"inflation {sup.inflation:.3f}x exceeds the "
                        f"unsupervised {unsup.inflation:.3f}x"
                    )
        return failures

    def format_report(self) -> str:
        """Deterministic text report (byte-identical across reruns)."""
        headers = [
            "pattern",
            "arm",
            "seed",
            "makespan_us",
            "inflation",
            "reconverge_us",
            "expiries",
            "restarts",
            "failovers",
            "idle_poll%",
            "ok",
        ]
        rows = [
            [
                cell.injector,
                "supervised" if cell.supervised else "ttl-only",
                cell.seed,
                cell.makespan,
                f"{cell.inflation:.3f}",
                cell.reconverge if cell.reconverge is not None else "-",
                cell.target_expiries,
                cell.restarts,
                cell.failovers,
                f"{cell.idle_poll_pct:.2f}",
                "yes" if cell.completed else "NO",
            ]
            for cell in self.cells
        ]
        lines = [
            "Recovery sweep: supervised watchdog vs TTL-only degradation "
            f"({len(self.injectors)} failure patterns x {len(self.seeds)} "
            f"seeds, shards={RECOVERY_SHARDS}, sanitize={self.sanitize})",
            format_table(headers, rows),
            "",
        ]
        lines += self._verdict(
            f"violations={self.total_violations} deadlocks={self.deadlocks}",
            "clean: supervision beat TTL-only in every cell",
        )
        return "\n".join(lines)


def run_recovery(
    preset: str = "quick",
    seeds: Optional[Tuple[int, ...]] = None,
    jobs: Optional[int] = None,
    sanitize: Optional[str] = None,
    patterns: Optional[Dict[str, str]] = None,
) -> RecoveryReport:
    """Run the sweep: healthy baselines + each pattern, both arms.

    *seeds* defaults to the preset's ``fault_seeds``.  *sanitize* defaults
    to the active config's mode, or ``"record"`` when that is off, so the
    sweep always runs checked.  Each cell's fault plan is pinned (the
    baseline runs healthy); every other knob follows the active config.
    """
    preset_seeds = get_preset(preset).fault_seeds
    seeds = tuple(preset_seeds if seeds is None else seeds)
    if patterns is None:
        patterns = dict(RECOVERY_PATTERNS)
    config = active_config()
    sanitize = sanitize or config.sanitize or "record"

    healthy = config.with_(sanitize=sanitize, faults=None)
    unsupervised = dict(RECOVERY_SHAPE, supervise=False)
    cells_args = [("baseline", seed, unsupervised, healthy) for seed in seeds]
    for pattern, spec in patterns.items():
        faulted = healthy.with_(faults=spec)
        for supervised in (False, True):
            shape = dict(RECOVERY_SHAPE, supervise=supervised)
            cells_args += [(pattern, seed, shape, faulted) for seed in seeds]
    return RecoveryReport(
        cells=run_fault_cells(cells_args, jobs),
        injectors=patterns,
        schedulers=(RECOVERY_SHAPE["scheduler"],),
        seeds=seeds,
        sanitize=sanitize,
    )


def main(preset: str = "quick") -> None:  # pragma: no cover - CLI glue
    """CLI entry (``python -m repro.experiments recovery``): run + assert."""
    report = run_recovery(preset)
    print(report.format_report())
    report.assert_clean()
