"""Scheduler ablation benchmark: process control vs Section 3's kernel-side
alternatives on the Figure 4 workload.

Shape asserted: adding process control shortens the makespan under every
time-sharing scheduler; coscheduling without control pays the cache-
corruption cost the paper predicts (worse than plain FIFO on a cached
machine).
"""

from benchmarks.conftest import run_once
from repro.experiments.ablations import run_scheduler_comparison
from repro.metrics import format_rows

TIME_SHARING = ("fifo", "decay", "coscheduling", "nopreempt", "affinity")


def test_scheduler_comparison(benchmark):
    rows = run_once(benchmark, lambda: run_scheduler_comparison(preset="quick"))
    print()
    print(format_rows("Scheduler comparison (Figure 4 mix)", rows))

    by_key = {(r["scheduler"], r["control"]): r for r in rows}
    for scheduler in TIME_SHARING:
        off = by_key[(scheduler, "off")]["makespan_s"]
        on = by_key[(scheduler, "on")]["makespan_s"]
        assert on < off, (
            f"{scheduler}: control should shorten the makespan "
            f"({off:.1f}s -> {on:.1f}s)"
        )
    # The paper's Section 3 criticism: coscheduling does not address cache
    # corruption -- on a cached machine it loses to plain FIFO time-sharing.
    assert (
        by_key[("coscheduling", "off")]["makespan_s"]
        > by_key[("fifo", "off")]["makespan_s"]
    )
    # But coscheduling does fix the spin problem it was designed for: less
    # spin waste per unit makespan than FIFO.
    cosched = by_key[("coscheduling", "off")]
    fifo = by_key[("fifo", "off")]
    assert (
        cosched["spin_s"] / cosched["makespan_s"]
        <= fifo["spin_s"] / fifo["makespan_s"] * 1.5
    )
