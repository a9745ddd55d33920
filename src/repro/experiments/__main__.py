"""Command-line entry point for the experiment harnesses.

Usage::

    python -m repro.experiments figure1 [--preset paper|quick]
    python -m repro.experiments all --preset quick
"""

from __future__ import annotations

import argparse

from repro.config import RunConfig, configured
from repro.core.allocation import POLICY_NAMES
from repro.faults.campaign import main as chaos_main
from repro.experiments import (
    ablations,
    claims,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    lock_collapse,
    mechanisms,
    mixed_runtime,
    policies,
    recovery,
    service,
    steady_state,
)

_EXPERIMENTS = {
    "figure1": figure1.main,
    "figure2": figure2.main,
    "figure3": figure3.main,
    "figure4": figure4.main,
    "figure5": figure5.main,
    "claims": claims.main,
    "ablations": ablations.main,
    "mechanisms": mechanisms.main,
    "lock-collapse": lock_collapse.main,
    "mixed-runtime": mixed_runtime.main,
    "policies": policies.main,
    "service": service.main,
    "steady-state": steady_state.main,
    "chaos": chaos_main,
    "recovery": recovery.main,
}


def main() -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's figures and ablations.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_EXPERIMENTS) + ["all"],
        help="which experiment to run",
    )
    parser.add_argument(
        "--preset",
        choices=["paper", "quick"],
        default="paper",
        help="paper = full-size workloads; quick = reduced (for smoke runs)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for sweep fan-out (default: $REPRO_JOBS, "
        "then the CPU count); 1 forces serial execution",
    )
    parser.add_argument(
        "--sanitize",
        nargs="?",
        const="strict",
        default=None,
        choices=["strict", "record"],
        metavar="MODE",
        help="run every scenario under the SchedSanitizer invariant "
        "checker (default mode: strict, which aborts on the first "
        "violation; 'record' keeps running and tallies them)",
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="fault-injection plan applied to every scenario, e.g. "
        "'cpu-offline:cpu=1,at=10ms;server-crash:at=20ms,down=60ms' "
        "(see docs/FAULTS.md; equivalent to setting $REPRO_FAULTS)",
    )
    parser.add_argument(
        "--policy",
        default=None,
        choices=sorted(POLICY_NAMES) + ["space"],
        help="allocation policy the control server runs in every scenario "
        "that does not pin one itself (equivalent to setting "
        "$REPRO_POLICY; 'space' requires the partition scheduler)",
    )
    parser.add_argument(
        "--weights",
        default=None,
        metavar="SPEC",
        help="per-application priority shares for the control servers, "
        "e.g. 'fft=2,sort=0.5' (apps not named default to 1.0; "
        "equivalent to setting $REPRO_WEIGHTS; ignored when an "
        "explicit --policy/$REPRO_POLICY or a scenario-pinned policy "
        "wins the resolution)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="process-control server shards in every scenario that does "
        "not pin a count itself (equivalent to setting $REPRO_SHARDS; "
        "default 1 = the paper's single server)",
    )
    parser.add_argument(
        "--supervise",
        action="store_true",
        help="arm the control-plane watchdog (heartbeat monitoring, shard "
        "restart/failover) in every scenario that does not pin "
        "Scenario.supervise itself (equivalent to setting "
        "$REPRO_SUPERVISE=1; see docs/RESILIENCE.md)",
    )
    args = parser.parse_args()
    flags = {
        name: getattr(args, name)
        for name in ("jobs", "sanitize", "faults", "policy", "weights", "shards")
        if getattr(args, name) is not None
    }
    if args.supervise:
        flags["supervise"] = True
    try:
        # Validated up front, so a typo fails before any run.
        config = RunConfig.from_env().with_(**flags)
    except ValueError as exc:
        parser.error(str(exc))
    print(f"run config: {config}")
    with configured(config):
        if args.experiment == "all":
            for name in sorted(_EXPERIMENTS):
                print(f"\n{'=' * 72}\n{name}\n{'=' * 72}")
                _EXPERIMENTS[name](args.preset)
        else:
            _EXPERIMENTS[args.experiment](args.preset)


if __name__ == "__main__":
    main()
