"""Command-line front end: run one scenario command, write CSV and plot data."""

from __future__ import annotations

import argparse
import sys
import warnings
from importlib import resources
from pathlib import Path

from .scenario import (
    COMMANDS,
    ScenarioError,
    ScenarioWarning,
    emit_csv,
    emit_plotdata,
    load_scenario,
    run_experiment,
)


def bundled_scenario(name: str = "default") -> Path:
    """Path of a scenario shipped inside the package."""
    return Path(str(resources.files("m3sim").joinpath("scenarios", f"{name}.yaml")))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="m3sim",
        description="Multi-hop, multi-operator cellular network studies "
        "driven by scenario files.",
    )
    parser.add_argument("command", choices=COMMANDS, help="which study to run")
    parser.add_argument(
        "--scenario",
        metavar="FILE",
        help="scenario file (default: the bundled 'default' scenario)",
    )
    parser.add_argument("--out", metavar="DIR", default=".", help="output directory")
    parser.add_argument("--seed", type=int, help="override the experiment seed")
    parser.add_argument("--walks", type=int, help="override the Monte Carlo walk count")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    path = Path(args.scenario) if args.scenario else bundled_scenario()
    try:
        # annotation mismatches are kept in scenario.notes; summarize instead
        # of letting every one hit stderr
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ScenarioWarning)
            scenario = load_scenario(path)
        if scenario.notes:
            print(f"m3sim: {len(scenario.notes)} scenario notes", file=sys.stderr)
        table = run_experiment(scenario, args.command, seed=args.seed, walks=args.walks)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / f"{args.command}.csv"
        emit_csv(table, csv_path)
        emit_plotdata(table, out / f"{args.command}_plot.dat")
    except (ScenarioError, OSError) as exc:
        print(f"m3sim: error: {exc}", file=sys.stderr)
        return 1
    summary = f"{args.command} on {scenario.name!r}: {len(table.rows)} rows -> {csv_path}"
    try:
        print(summary)
    except UnicodeEncodeError:  # a non-UTF-8 locale; the outputs are written already
        print(summary.encode("ascii", "backslashreplace").decode("ascii"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
