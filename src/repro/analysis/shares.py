"""Processor-share analysis between applications.

Used by the Section 7 fairness experiments: how the machine's useful
cycles divided between applications, and how fair that division was
(Jain's fairness index: 1.0 = perfectly equal, 1/n = one application took
everything).
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.workloads.runner import ScenarioResult


def cpu_shares(result: ScenarioResult) -> Dict[str, float]:
    """Fraction of all application CPU consumed by each application."""
    totals = {app_id: app.cpu_time for app_id, app in result.apps.items()}
    grand = sum(totals.values())
    if grand == 0:
        return {app_id: 0.0 for app_id in totals}
    return {app_id: cpu / grand for app_id, cpu in totals.items()}


def jain_fairness(shares: Mapping[str, float]) -> float:
    """Jain's fairness index over a share map.

    ``(sum x)^2 / (n * sum x^2)``; 1.0 when all equal, ``1/n`` when one
    member holds everything.  An empty map is defined as perfectly fair.
    The index is scale-free, so shares are divided by the largest before
    squaring: tiny shares would otherwise square into subnormals and push
    the index above 1.
    """
    values = [v for v in shares.values() if v >= 0]
    peak = max(values, default=0)
    if peak == 0:
        return 1.0
    scaled = [v / peak for v in values]
    total = sum(scaled)
    return (total * total) / (len(scaled) * sum(v * v for v in scaled))
