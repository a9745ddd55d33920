"""Section 7 fairness benchmark: process control vs a greedy application.

Shapes asserted:

* under plain time sharing, the application that refuses process control
  reaps a disproportionate benefit from the polite application's
  self-restraint (the paper: "an application that does not control its
  processes may get an unfair share of the processors");
* the Section 7 space-partitioning scheduler with a partition-aware server
  restores the polite application's share.
"""

from benchmarks.conftest import run_once
from repro.experiments.ablations import run_fairness_experiment
from repro.metrics import format_rows


def test_fairness_experiment(benchmark):
    rows = run_once(benchmark, lambda: run_fairness_experiment(preset="quick"))
    print()
    print(format_rows("Fairness vs a greedy uncontrolled application", rows))

    by_config = {row["configuration"]: row for row in rows}
    baseline = by_config["time-share, both greedy"]
    unfair = by_config["time-share, polite controlled"]
    partitioned = by_config["partition, polite controlled"]

    # The greedy application profits disproportionately from the polite
    # application's suspensions under time sharing.
    assert unfair["greedy_wall_s"] < baseline["greedy_wall_s"] * 0.75
    # The polite application was forced well below its fair half share.
    assert unfair["polite_avg_runnable"] < 8 * 1.25
    assert unfair["polite_suspensions"] > 0
    # Space partitioning protects the polite application: it finishes
    # faster than in the unfair configuration, and the greedy application
    # no longer profits from the polite one's restraint.
    assert partitioned["polite_wall_s"] < unfair["polite_wall_s"]
    assert partitioned["greedy_wall_s"] > unfair["greedy_wall_s"]
