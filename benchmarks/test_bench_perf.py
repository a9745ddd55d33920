"""Perf trajectory: record events/sec and wall time into BENCH_perf.json.

One benchmark per headline experiment.  Each runs its quick slice exactly
once (``run_once``: the interesting output is the recorded trajectory, not
host timing statistics) and merge-writes its entry into ``BENCH_perf.json``
at the repository root so future PRs can compare against this one.
"""

import gc

import pytest

from benchmarks.conftest import run_once
from benchmarks.perf import EXPERIMENTS, PERF_PATH, GcMeter, measure, record


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_perf_trajectory(benchmark, name):
    entry = run_once(benchmark, lambda: record([name])[name])
    print(f"\n{name}: {entry['wall_s']}s, {entry['events']} events, "
          f"{entry['events_per_sec']} events/sec")
    # The record must be usable by the next PR: nonzero work was measured
    # and the file landed where the CI artifact step expects it.
    assert entry["events"] > 0
    assert entry["wall_s"] > 0
    assert entry["events_per_sec"] > 0
    assert entry["scenario_runs"] > 0
    assert PERF_PATH.exists()


def test_measure_does_not_write():
    """`measure` is pure; only `record` touches BENCH_perf.json."""
    before = PERF_PATH.read_text() if PERF_PATH.exists() else None
    entry, _ = measure("figure4")
    assert entry["events"] > 0
    after = PERF_PATH.read_text() if PERF_PATH.exists() else None
    assert before == after


def test_gc_meter_counts_collections_by_generation():
    enabled = gc.isenabled()
    gc.disable()  # no automatic collection inside the meter
    try:
        with GcMeter() as meter:
            gc.collect(1)
            gc.collect(2)
    finally:
        if enabled:
            gc.enable()
    assert meter.collections == [0, 1, 1]
    assert meter.pause_s > 0
    assert str(meter).startswith("gc 0/1/1 collections, ")
