"""Perf-trajectory harness: events/sec and wall time per experiment.

Records each headline experiment's wall-clock time, simulator event count,
and event throughput into ``BENCH_perf.json`` at the repository root, so
successive PRs can see the speedup curve instead of guessing from CI noise.

The file is merge-written: re-measuring one experiment updates its entry
and leaves the others alone.  Sweeps run serially (``jobs=1``) -- the
event meter only sees the measuring process, and serial runs make the
throughput number comparable across hosts with different core counts.
Event counts fingerprint the default configuration, so the harness takes
only ``REPRO_SANITIZE`` from the environment and reports any other
``REPRO_*`` knob it ignores.  Each measured tier's printed line also
gives its cyclic-GC collections per generation and their total pause;
those are host facts, printed but never written to the file.

Run directly::

    PYTHONPATH=src:. python -m benchmarks.perf [experiment ...]

or via pytest (``benchmarks/test_bench_perf.py``).
"""

from __future__ import annotations

import gc
import json
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple

from repro.apps.synthetic import UniformApp
from repro.config import RunConfig, configured
from repro.experiments.figure1 import run_figure1
from repro.experiments.figure3 import run_figure3
from repro.experiments.figure4 import run_figure4
from repro.experiments.steady_state import run_steady_state
from repro.kernel import KernelConfig
from repro.machine import MachineConfig
from repro.sim import units
from repro.workloads import runner
from repro.workloads.scenario import AppSpec, Scenario

#: Where the trajectory lands: the repository root.
PERF_PATH = Path(__file__).resolve().parent.parent / "BENCH_perf.json"

def scale_scenario(
    n_residents: int = 2_000,
    n_churn: int = 8_000,
    seed: int = 0,
) -> Scenario:
    """The ``scale`` tier: 1024 CPUs, 10k applications, 32 shards.

    Two populations stress the two different hot paths:

    * *residents* (2 workers, ~200 ms of work each) arrive in the first
      100 ms and stay for most of the run, keeping the census, the shard
      boards, and the water-filling cap structure populated by the
      thousands -- with 1024 processors and >2000 resident caps the
      machine runs overcommitted, so targets sit below caps and the
      packages actually suspend and resume workers;
    * *churn* applications (1 worker, ~4 ms of work) arrive every 187 us
      for 1.5 s -- each arrival and departure is one O(log n) cap update
      against the incremental water-filler and one census-journal entry,
      never a full rescan.

    Everything is deterministic (fixed arrival grid, no generator RNG), so
    the fired-event count is an exact fingerprint for ``--check``.
    """
    apps = []
    for i in range(n_residents):
        app_id = f"res{i:04d}"
        apps.append(
            AppSpec(
                factory=lambda app_id=app_id, i=i: UniformApp(
                    app_id=app_id,
                    n_tasks=40,
                    task_cost=units.ms(5),
                    seed=seed + i,
                ),
                n_processes=2,
                arrival=i * 50,
            )
        )
    for i in range(n_churn):
        app_id = f"chn{i:04d}"
        apps.append(
            AppSpec(
                factory=lambda app_id=app_id, i=i: UniformApp(
                    app_id=app_id,
                    n_tasks=2,
                    task_cost=units.ms(2),
                    seed=seed + n_residents + i,
                ),
                n_processes=1,
                arrival=i * 187,
            )
        )
    return Scenario(
        apps=apps,
        control="centralized",
        machine=MachineConfig(n_processors=1024),
        # A 10k-application deployment would not trace every census tick;
        # leaving this on makes each change snapshot a 10k-entry dict.
        kernel=KernelConfig(runnable_trace=False),
        server_interval=units.ms(100),
        poll_interval=units.ms(100),
        shards=32,
        seed=seed,
        max_time=units.seconds(60),
    )


def run_scale():
    """Run the scale tier once (serial; see :func:`scale_scenario`)."""
    return runner.run_scenario(scale_scenario())


#: Quick-preset slices: tens of thousands of events each (enough to put
#: the measurement in the hot loops), small enough for a CI smoke job.
#: The ``scale`` tier is the exception -- a single seven-figure-event run
#: proving the 1024-CPU / 10k-app configuration completes within a CI
#: wall budget (see ``--budget``).
EXPERIMENTS = {
    "figure1": lambda: run_figure1(preset="quick", counts=(8, 16, 24), jobs=1),
    "figure3": lambda: run_figure3(
        preset="quick", apps=("fft", "matmul"), counts=(4, 16, 24), jobs=1
    ),
    "figure4": lambda: run_figure4(preset="quick"),
    "steady_state": lambda: run_steady_state(preset="quick", jobs=1),
    "scale": run_scale,
}


class GcMeter:
    """Cyclic-GC collections per generation and their total pause, counted
    via ``gc.callbacks`` while installed."""

    def __init__(self) -> None:
        self.collections = [0] * len(gc.get_count())
        self.pause_s = 0.0
        self._started = 0.0

    def _callback(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._started
            self.collections[info["generation"]] += 1

    def __enter__(self) -> "GcMeter":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)

    def __str__(self) -> str:
        counts = "/".join(map(str, self.collections))
        return f"gc {counts} collections, {self.pause_s:.3f}s pause"


def measure(name: str) -> Tuple[Dict[str, object], GcMeter]:
    """Run one experiment once, metered; return its perf record and the
    collector's activity during the run (which the record leaves out)."""
    fn = EXPERIMENTS[name]
    with runner.metered() as meter, GcMeter() as gc_meter:
        start = time.perf_counter()
        fn()
        wall = time.perf_counter() - start
    return {
        "wall_s": round(wall, 4),
        "events": meter.events,
        "events_per_sec": round(meter.events / wall) if wall > 0 else 0,
        "scenario_runs": meter.runs,
    }, gc_meter


def record(names: Optional[Iterable[str]] = None, path: Path = PERF_PATH) -> Dict:
    """Measure *names* (default: all experiments) and merge into *path*."""
    selected = list(names) if names is not None else list(EXPERIMENTS)
    data: Dict[str, object] = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except (ValueError, OSError):
            data = {}  # corrupt or unreadable: start the trajectory over
    for name in selected:
        entry, gc_meter = measure(name)
        data[name] = entry
        print(
            f"{name:>14}: {entry['wall_s']:8.3f}s  "
            f"{entry['events']:>9} events  {entry['events_per_sec']:>9} ev/s  "
            f"{gc_meter}"
        )
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return data


def check(
    names: Optional[Iterable[str]] = None,
    path: Path = PERF_PATH,
    budget_s: Optional[float] = None,
) -> bool:
    """Re-measure and compare ``events`` against the committed trajectory.

    The simulator is deterministic, so each experiment's event count is an
    exact fingerprint of its default behaviour: any drift means a change
    perturbed the simulated runs (intentionally or not).  Nothing is
    written.  Returns True when every measured count matches.
    """
    if not path.exists():
        print(f"no committed trajectory at {path}; nothing to check")
        return False
    committed = json.loads(path.read_text())
    selected = list(names) if names is not None else list(EXPERIMENTS)
    clean = True
    for name in selected:
        expected = (committed.get(name) or {}).get("events")
        if expected is None:
            print(f"{name:>14}: MISSING from {path.name}")
            clean = False
            continue
        entry, gc_meter = measure(name)
        got = entry["events"]
        if got == expected:
            print(
                f"{name:>14}: {got:>9} events  ok  "
                f"({entry['wall_s']:.2f}s, {gc_meter})"
            )
        else:
            print(
                f"{name:>14}: {got:>9} events  MISMATCH "
                f"(committed {expected}; {gc_meter})"
            )
            clean = False
        if budget_s is not None and entry["wall_s"] > budget_s:
            print(
                f"{name:>14}: OVER BUDGET "
                f"({entry['wall_s']:.2f}s > {budget_s:.0f}s wall-clock cap)"
            )
            clean = False
    return clean


def main(argv: Optional[Iterable[str]] = None) -> None:
    env = RunConfig.from_env()
    # Event counts fingerprint the default run, so only the sanitizer (an
    # observer that never changes a run) is taken from the environment.
    config = RunConfig(sanitize=env.sanitize)
    if env != config:
        print(f"measuring {config}; ignoring the other knobs of {env}")
    with configured(config):
        _main(argv)


def _main(argv: Optional[Iterable[str]]) -> None:
    names = list(argv if argv is not None else sys.argv[1:])
    checking = "--check" in names
    if checking:
        names.remove("--check")
    budget_s: Optional[float] = None
    if "--budget" in names:
        at = names.index("--budget")
        try:
            budget_s = float(names[at + 1])
        except (IndexError, ValueError):
            raise SystemExit("--budget requires a wall-clock limit in seconds")
        del names[at : at + 2]
    for name in names:
        if name not in EXPERIMENTS:
            raise SystemExit(
                f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
            )
    if checking:
        if not check(names or None, budget_s=budget_s):
            raise SystemExit(
                "event counts drifted from BENCH_perf.json"
                + (" (or a tier blew its wall budget)" if budget_s else "")
            )
        return
    record(names or None)
    print(f"wrote {PERF_PATH}")


if __name__ == "__main__":
    main()
