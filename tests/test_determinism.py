"""Determinism regression tests for the fast-path simulator.

The perf work (lazy-decay scheduling, the fused event loop, the parallel
sweep runner) is only admissible if it cannot change simulated results.
These tests pin that down three ways:

1. the same figure run twice in-process yields identical metrics;
2. a raw scenario run twice yields an *identical event trace*, record for
   record -- the strongest statement, since every metric is derived from
   the trace and the final kernel state;
3. the parallel sweep runner returns exactly what the serial loop returns.
"""

from __future__ import annotations

import pytest

from repro.experiments.ablations import run_quantum_sweep
from repro.experiments.figure1 import figure1_scenario, run_figure1
from repro.experiments.figure4 import run_figure4
from repro.sim import TraceLog
from repro.workloads import run_scenario


def _figure1_point(n: int):
    """One Figure 1 sweep point (quick preset), traced in full."""
    trace = TraceLog()  # unfiltered: every category, every record
    result = run_scenario(figure1_scenario(n, "quick", 0), trace=trace)
    return result, trace


def test_scenario_trace_is_bit_identical_across_runs():
    first, first_trace = _figure1_point(8)
    second, second_trace = _figure1_point(8)
    # Full event traces match record for record (time, category, payload).
    assert len(first_trace) == len(second_trace)
    for a, b in zip(first_trace, second_trace):
        assert a == b
    # And the derived metrics agree exactly.
    assert first.sim_time == second.sim_time
    assert first.events_fired == second.events_fired
    assert first.utilization == second.utilization
    for app_id, app in first.apps.items():
        assert app == second.apps[app_id]


def test_figure1_metrics_identical_across_runs():
    first = run_figure1(preset="quick", counts=(4, 8), jobs=1)
    second = run_figure1(preset="quick", counts=(4, 8), jobs=1)
    assert first.t1 == second.t1
    assert first.rows == second.rows


#: Sweeps the serial-vs-parallel test runs both ways: (sweep, jobs) ->
#: comparable result.
PARALLEL_SWEEPS = {
    "figure1": lambda jobs: run_figure1(preset="quick", counts=(4, 8), jobs=jobs),
    "quantum-sweep": lambda jobs: run_quantum_sweep(
        preset="quick", quanta_ms=(25, 50), jobs=jobs
    ),
}


@pytest.mark.parametrize("sweep", sorted(PARALLEL_SWEEPS))
def test_parallel_runner_matches_serial(sweep):
    """jobs=2 exercises the ProcessPoolExecutor path (or its serial
    fallback in sandboxes that forbid fork -- identical either way)."""
    run = PARALLEL_SWEEPS[sweep]
    assert run(1) == run(2)


def test_figure4_metrics_identical_across_runs():
    first = run_figure4(preset="quick")
    second = run_figure4(preset="quick")
    for controlled in (False, True):
        assert first.wall_times(controlled) == second.wall_times(controlled)
