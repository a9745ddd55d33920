"""Figure 4: wall-clock times of three concurrent applications, with and
without process control.

"Figure 4 shows the results when three applications execute at the same
time, both with and without process control.  The applications were
started at intervals of 10 seconds, each with 16 processes."

Expected shape: fft and gauss take much longer without control; matmul --
which arrives last, with fresh processes the UMAX-style decay scheduler
favours -- shows the smallest absolute increase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.experiments.config import (
    PAPER_SCHEDULER,
    app_factories,
    get_preset,
    paper_machine,
)
from repro.metrics import format_table
from repro.workloads import AppSpec, Scenario, ScenarioResult, run_scenario

#: Arrival order of the paper's Figure 4 run (the stagger is per preset:
#: :attr:`repro.experiments.config.Preset.figure4_stagger`).
FIGURE4_ORDER = ("fft", "gauss", "matmul")
FIGURE4_PROCESSES = 16


def figure4_scenario(
    control: Optional[str],
    preset: str = "paper",
    seed: int = 0,
    scheduler: Optional[str] = None,
) -> Scenario:
    """The Figure 4 (and Figure 5) scenario description."""
    sizes = get_preset(preset)
    factories = app_factories(preset, seed)
    return Scenario(
        apps=[
            AppSpec(
                factories[name],
                FIGURE4_PROCESSES,
                arrival=index * sizes.figure4_stagger,
            )
            for index, name in enumerate(FIGURE4_ORDER)
        ],
        control=control,
        machine=paper_machine(),
        scheduler=scheduler or PAPER_SCHEDULER,
        poll_interval=sizes.poll_interval,
        server_interval=sizes.poll_interval,
        seed=seed,
    )


@dataclass
class Figure4Result:
    uncontrolled: ScenarioResult
    controlled: ScenarioResult
    preset: str

    def wall_times(self, controlled: bool) -> Dict[str, int]:
        result = self.controlled if controlled else self.uncontrolled
        return {app: r.wall_time for app, r in result.apps.items()}

    def ratio(self, app: str) -> float:
        return (
            self.uncontrolled.apps[app].wall_time
            / self.controlled.apps[app].wall_time
        )


def run_figure4(preset: str = "paper", seed: int = 0) -> Figure4Result:
    """Both Figure 4 runs (control off, control on)."""
    return Figure4Result(
        uncontrolled=run_scenario(figure4_scenario(None, preset, seed)),
        controlled=run_scenario(figure4_scenario("centralized", preset, seed)),
        preset=preset,
    )


def format_figure4(result: Figure4Result) -> str:
    rows = []
    for app in FIGURE4_ORDER:
        off = result.uncontrolled.apps[app]
        on = result.controlled.apps[app]
        rows.append(
            (
                app,
                f"{off.wall_time / 1e6:.1f}",
                f"{on.wall_time / 1e6:.1f}",
                f"{result.ratio(app):.2f}",
                on.suspensions,
                on.polls,
            )
        )
    table = format_table(
        ["app", "wall off (s)", "wall on (s)", "off/on", "suspensions", "polls"],
        rows,
    )
    stagger_s = get_preset(result.preset).figure4_stagger / 1e6
    return (
        f"Figure 4: three applications started {stagger_s:.0f} s apart, "
        f"{FIGURE4_PROCESSES} processes each\n"
        + table
        + "\nmakespan: off "
        + f"{result.uncontrolled.makespan / 1e6:.1f}s, "
        + f"on {result.controlled.makespan / 1e6:.1f}s"
    )


def main(preset: str = "paper") -> None:  # pragma: no cover - CLI glue
    print(format_figure4(run_figure4(preset)))
