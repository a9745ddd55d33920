"""``python -m repro`` -- a guided tour entry point.

With no subcommand, prints the package inventory and runs the quick
two-application comparison, so a fresh checkout can see the paper's effect
in one command.  ``python -m repro scenarios ...`` exposes the declarative
scenario corpus (list / show / run / cosim).  For the full harnesses use
``python -m repro.experiments <figure>``.
"""

from __future__ import annotations

import argparse

from repro import __version__, quick_compare
from repro.config import RunConfig, configured
from repro.metrics import format_table
from repro.scenarios.cli import add_scenarios_parser, run_from_args


def _run_demo(args: argparse.Namespace) -> int:
    print(f"repro {__version__}: process control demo")
    print(
        f"two applications x {args.processes} processes on 16 simulated "
        "processors\n"
    )
    results = quick_compare(scale=args.scale, n_processes=args.processes)
    rows = []
    for app in results["uncontrolled"].apps:
        off = results["uncontrolled"].apps[app].wall_time
        on = results["controlled"].apps[app].wall_time
        rows.append((app, f"{off / 1e6:.1f}", f"{on / 1e6:.1f}", f"{off / on:.2f}x"))
    print(format_table(["app", "uncontrolled (s)", "controlled (s)", "gain"], rows))
    print(
        "\nNext steps: python -m repro.experiments all --preset quick"
        "\n            python -m repro scenarios list"
        "\n            pytest benchmarks/ --benchmark-only"
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduction of Tucker & Gupta (SOSP 1989): dynamic process "
            "control for multiprogrammed shared-memory multiprocessors."
        ),
    )
    parser.add_argument(
        "--processes",
        type=int,
        default=24,
        help="worker processes per application (default 24, on 16 CPUs)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.2,
        help="application size multiplier (default 0.2 for a fast demo)",
    )
    subparsers = parser.add_subparsers(dest="command")
    add_scenarios_parser(subparsers)
    args = parser.parse_args()
    try:
        config = RunConfig.from_env()
    except ValueError as exc:
        parser.error(str(exc))
    with configured(config):
        if args.command == "scenarios":
            return run_from_args(args)
        return _run_demo(args)


if __name__ == "__main__":
    raise SystemExit(main())
