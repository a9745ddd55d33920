"""Experiment harnesses: one module per paper figure, plus ablations.

Every module exposes ``run_*`` functions returning structured results and a
``format_*`` function printing the same rows/series the paper's figure
shows.  ``python -m repro.experiments <name> [--preset quick|paper]`` runs
one from the command line.

Calibration: the simulated machine and application parameters live in
:mod:`repro.experiments.config`; they were tuned so the paper's qualitative
shapes hold (see DESIGN.md section 6 and EXPERIMENTS.md for the
paper-vs-measured record).
"""

from repro.experiments.config import (
    PAPER_PROCESS_COUNTS,
    app_factories,
    paper_machine,
)

__all__ = [
    "paper_machine",
    "app_factories",
    "PAPER_PROCESS_COUNTS",
]
