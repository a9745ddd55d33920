"""Parameter ablation benchmarks: quantum, cache penalty, poll interval,
control architecture, and package idle behaviour.

Each asserts the direction the paper's analysis predicts.
"""

from benchmarks.conftest import run_once
from repro.experiments.ablations import (
    run_cache_sweep,
    run_control_mode_comparison,
    run_idle_mode_comparison,
    run_machine_width_sweep,
    run_poll_interval_sweep,
    run_quantum_sweep,
    run_seed_stability,
)
from repro.metrics import format_rows


def test_cache_sweep(benchmark):
    """Section 2 point 4: the bigger the reload penalty, the bigger process
    control's win -- 'even more significant on the scalable high-performance
    multiprocessors currently being developed'."""
    rows = run_once(benchmark, lambda: run_cache_sweep(preset="quick"))
    print()
    print(format_rows("Cache cold-penalty sweep (fft@24)", rows))
    ratios = [row["off_on_ratio"] for row in rows]
    assert ratios[-1] > ratios[0] * 1.3
    assert all(b >= a * 0.9 for a, b in zip(ratios, ratios[1:]))


def test_quantum_sweep(benchmark):
    """Shorter quanta mean more context switches and cache reloads for the
    oversubscribed, uncontrolled run (Section 2 point 3)."""
    rows = run_once(benchmark, lambda: run_quantum_sweep(preset="quick"))
    print()
    print(format_rows("Quantum sweep (fft@24, uncontrolled)", rows))
    assert rows[0]["speedup_24"] < rows[-1]["speedup_24"]
    assert rows[0]["preemptions"] > rows[-1]["preemptions"]


def test_poll_interval_sweep(benchmark):
    """Section 5's 6-second polling: longer intervals react too slowly
    (worse wall time); shorter ones poll more often."""
    rows = run_once(benchmark, lambda: run_poll_interval_sweep(preset="quick"))
    print()
    print(format_rows("Poll interval sweep (gauss@24, controlled)", rows))
    assert rows[0]["wall_s"] <= rows[-1]["wall_s"]
    assert rows[0]["polls"] >= rows[-1]["polls"]


def test_control_mode_comparison(benchmark):
    """Section 4.2: both control architectures beat no control; the
    decentralized variant costs more process-table scans (its rejection
    rationale -- 'too inefficient ... one call per application per
    interval')."""
    rows = run_once(
        benchmark, lambda: run_control_mode_comparison(preset="quick")
    )
    print()
    print(format_rows("Centralized vs decentralized control", rows))
    by_mode = {row["control"]: row for row in rows}
    assert by_mode["centralized"]["makespan_s"] < by_mode["off"]["makespan_s"]
    assert by_mode["decentralized"]["makespan_s"] < by_mode["off"]["makespan_s"]
    assert by_mode["decentralized"]["table_scans"] > by_mode["centralized"][
        "table_scans"
    ]


def test_machine_width_sweep(benchmark):
    """The crossover tracks the processor count: on every machine width,
    1.5x oversubscription degrades the unmodified package substantially
    while the controlled one stays near its fitting-width time."""
    rows = run_once(
        benchmark, lambda: run_machine_width_sweep(preset="quick", widths=(8, 16))
    )
    print()
    print(format_rows("Machine width sweep", rows))
    for row in rows:
        assert row["off_degradation"] > 1.5, row
        assert row["on_degradation"] < row["off_degradation"] * 0.75, row


def test_seed_stability(benchmark):
    """The Figure 4 gain is stable across jitter seeds."""
    rows = run_once(
        benchmark, lambda: run_seed_stability(preset="quick", seeds=(0, 1, 2))
    )
    print()
    print(format_rows("Seed stability", rows))
    gains = [row["gain"] for row in rows if row["seed"] != "mean"]
    assert all(gain > 1.15 for gain in gains)
    assert max(gains) - min(gains) < 0.5  # tight spread


def test_idle_mode_comparison(benchmark):
    """Section 2 point 2: the busy-wait package wastes processors when the
    queue runs dry, so it degrades more without control -- and process
    control recovers most of the loss."""
    rows = run_once(benchmark, lambda: run_idle_mode_comparison(preset="quick"))
    print()
    print(format_rows("Busy-wait vs blocking package (gauss@24)", rows))
    by_key = {(r["package"], r["control"]): r["wall_s"] for r in rows}
    assert by_key[("busy-wait", "off")] > by_key[("blocking", "off")]
    assert by_key[("busy-wait", "on")] < by_key[("busy-wait", "off")]
