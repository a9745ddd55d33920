"""Plain-text report formatting for the experiment harnesses.

The benchmark scripts print the same rows/series the paper's figures show;
these helpers keep the output aligned and consistent.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned ASCII table."""
    str_rows: List[List[str]] = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in str_rows:
        lines.append(
            "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)).rstrip()
        )
    return "\n".join(lines)


def format_rows(title: str, rows: Sequence[Mapping[str, object]]) -> str:
    """Render row dicts as a titled table; the first row's keys are the
    columns."""
    if not rows:
        return f"{title}\n(no rows)"
    headers = list(rows[0])
    table = format_table(
        headers, [[row.get(h, "") for h in headers] for row in rows]
    )
    return f"{title}\n{table}"


def format_run_header(title: str, **params: object) -> str:
    """A one-line experiment banner, e.g. ``== Figure 3 (quantum=100ms) ==``."""
    if params:
        detail = ", ".join(f"{key}={value}" for key, value in sorted(params.items()))
        return f"== {title} ({detail}) =="
    return f"== {title} =="


def format_sanitizer_summary(result: object) -> str:
    """One line summarizing a run's sanitizer outcome.

    Accepts any object with ``sanitizer_violations`` and
    ``sanitizer_counters`` attributes (a
    :class:`~repro.workloads.runner.ScenarioResult`).  Returns
    ``"sanitizer: off"`` when the run was unsanitized, otherwise the
    violation total plus the most useful counters.
    """
    counters = getattr(result, "sanitizer_counters", None)
    if counters is None:
        return "sanitizer: off"
    violations = getattr(result, "sanitizer_violations", 0)
    state = "clean" if violations == 0 else f"{violations} violation(s)"
    detail = (
        f"{counters.get('checks', 0)} checks, "
        f"{counters.get('deep_checks', 0)} deep, "
        f"{counters.get('lock_holder_preemptions_witnessed', 0)} "
        f"lock-holder preemptions witnessed"
    )
    per_check = sorted(
        (key.split(".", 1)[1], count)
        for key, count in counters.items()
        if key.startswith("violations.") and count
    )
    if per_check:
        breakdown = ", ".join(f"{name}={count}" for name, count in per_check)
        return f"sanitizer: {state} ({detail}; {breakdown})"
    return f"sanitizer: {state} ({detail})"


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
