"""Figure 5 benchmark: runnable processes vs time.

Shapes asserted: without control the runnable total reaches 3 x 16 = 48
and stays high; with control it returns to ~16 (the processor count)
within roughly one poll interval of each arrival, divides the machine
between the applications mid-run, and expands again as applications
finish.
"""

from benchmarks.conftest import run_once
from repro.experiments.config import get_preset
from repro.experiments.figure5 import format_figure5, run_figure5
from repro.sim import units

PRESET = "quick"


def test_figure5(benchmark):
    result = run_once(benchmark, lambda: run_figure5(preset=PRESET))
    print()
    print(format_figure5(result, step=units.seconds(2)))

    stagger = get_preset(PRESET).figure4_stagger
    interval = get_preset(PRESET).poll_interval

    # Uncontrolled: the machine is flooded to 48 runnable processes.
    assert result.off.total.maximum() >= 44
    # Controlled: the flood is temporary -- after the last arrival the
    # total returns to about the processor count within ~2 poll intervals.
    last_arrival = 2 * stagger
    converged_at = result.on.convergence_time(
        target=16, after=last_arrival, tolerance=3
    )
    assert converged_at is not None, "control never converged to ~16 runnable"
    assert converged_at <= last_arrival + 2 * interval + units.seconds(1)
    # Mid-run, the machine is split between applications: no application
    # holds more than ~the whole machine's worth of runnable processes.
    mid = converged_at + interval
    per_app = {
        app: series.value_at(mid) for app, series in result.on.per_app.items()
    }
    assert sum(per_app.values()) <= 16 + 3
    live = [count for count in per_app.values() if count > 0]
    assert len(live) >= 2, f"expected shared machine at t={mid}, got {per_app}"
