"""Command-line scenario runner and benchmark driver.

Exit codes: 0 when the run succeeds and every expectation in the scenario
holds, 1 when an expectation fails, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from .bench import SUITES, run_suites
from .costmodel import CostTable, accumulate
from .dpti import Variant
from .scenario import (
    ScenarioError,
    build_simulation,
    check_expectations,
    load_scenario,
)
from .tasks import explore

_VARIANT_FLAG = {"none": None, "stash": Variant.STASH, "freeze": Variant.FREEZE}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dptisim",
        description="Deterministic protection-window simulator: scenario runs and calibrated benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario file")
    run_p.add_argument("scenario", help="path to a scenario JSON file")
    run_p.add_argument("--variant", choices=sorted(_VARIANT_FLAG), help="override the scenario variant")
    run_p.add_argument("--seed", type=int, help="seed for the seeded scheduler")
    run_p.add_argument("--exhaustive", action="store_true", help="explore every interleaving")
    run_p.add_argument("--max-steps", type=int, help="scheduler step bound")
    run_p.add_argument("--report-out", help="write the machine-readable report here")
    run_p.add_argument("--costs", help="JSON file with cost-table overrides")

    bench_p = sub.add_parser("bench", help="run benchmark suites or a scenario cost matrix")
    bench_p.add_argument(
        "target",
        help=f"suite name ({', '.join(sorted(SUITES))}, all) or a scenario path",
    )
    bench_p.add_argument("--report-out", help="write the benchmark tables as JSON here")
    bench_p.add_argument("--costs", help="JSON file with cost-table overrides")
    return parser


def _load_costs(path: Optional[str]) -> CostTable:
    table = CostTable()
    if path:
        overrides = json.loads(Path(path).read_text())
        table = table.with_overrides(overrides)
    return table


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        sc = load_scenario(args.scenario)
    except (ScenarioError, OSError) as exc:
        print(f"error: {args.scenario}: {exc}", file=sys.stderr)
        return 2
    try:
        table = _load_costs(args.costs)
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        print(f"error: --costs: {exc}", file=sys.stderr)
        return 2
    if sc.costs:
        table = table.with_overrides(sc.costs)
    variant = _VARIANT_FLAG[args.variant] if args.variant else sc.variant

    mode = "exhaustive" if (args.exhaustive or sc.schedule["mode"] == "exhaustive") else "seeded"
    seed = args.seed if args.seed is not None else sc.schedule.get("seed", 0)
    try:
        # build_simulation raises what only building can find (overlapping
        # mappings, undefined alias labels) on its first call.
        if mode == "exhaustive":
            result = explore(
                lambda: build_simulation(sc, variant_override=variant, cost_table=table),
                max_steps=args.max_steps or sc.schedule.get("max_steps", 24),
            )
        else:
            sim = build_simulation(sc, variant_override=variant, cost_table=table)
            result = sim.run_seeded(
                seed=seed, max_steps=args.max_steps or sc.schedule.get("max_steps", 1000)
            )
    except ScenarioError as exc:
        print(f"error: {args.scenario}: {exc}", file=sys.stderr)
        return 2
    if mode == "exhaustive":
        print(
            f"scenario {sc.name}: explored {result.paths} interleavings "
            f"({result.truncated_paths} truncated), witnesses={result.witnesses} "
            f"in {result.witness_paths} path(s), kills={result.kills}, "
            f"deadlock_paths={result.deadlock_paths}"
        )
        if result.example_witness:
            print(f"  first witness: {result.example_witness}")
        payload = result.to_dict()
    else:
        cycles = result.cycles["total"] if result.cycles else 0
        print(
            f"scenario {sc.name}: seed={seed} steps={result.steps} "
            f"kills={[k['cause'] for k in result.kills]} witnesses={len(result.witnesses)} "
            f"deadlocked={result.deadlocked} cycles={cycles}"
        )
        payload = result.to_dict()
        payload["hash"] = result.hash_hex()

    failures = check_expectations(sc, result, variant)
    for failure in failures:
        print(f"expectation failed: {failure}", file=sys.stderr)
    if sc.expectations and not failures:
        print("expectations: all hold")

    if args.report_out:
        Path(args.report_out).write_text(json.dumps(payload, sort_keys=True, indent=2))
        print(f"report written to {args.report_out}")
    return 1 if failures else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        table = _load_costs(args.costs)
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        print(f"error: --costs: {exc}", file=sys.stderr)
        return 2
    if args.target in SUITES or args.target == "all":
        names = sorted(SUITES) if args.target == "all" else [args.target]
        reports = run_suites(names, table)
    elif Path(args.target).exists():
        reports = _scenario_matrix(args.target, table)
        if reports is None:
            return 2
    else:
        print(
            f"error: unknown bench target {args.target!r} "
            f"(suites: {', '.join(sorted(SUITES))}, all)",
            file=sys.stderr,
        )
        return 2
    for report in reports:
        print(report.render_text())
        print()
    if args.report_out:
        Path(args.report_out).write_text(
            json.dumps([r.to_dict() for r in reports], sort_keys=True, indent=2)
        )
        print(f"report written to {args.report_out}")
    return 0


def _scenario_matrix(path: str, table: CostTable):
    """Cost the same scenario under no protection, stashing, and freezing."""
    from .costmodel import bench_report

    try:
        sc = load_scenario(path)
    except (ScenarioError, OSError) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None
    rows = []
    for label, variant in (("none", None), ("stash", Variant.STASH), ("freeze", Variant.FREEZE)):
        try:
            sim = build_simulation(sc, variant_override=variant, cost_table=table)
        except ScenarioError as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return None
        sim.run_seeded(seed=sc.schedule.get("seed", 0), max_steps=sc.schedule.get("max_steps", 1000))
        rows.append((label, accumulate(sim.events, table)))
    return [bench_report(f"{sc.name}: variant cost matrix (cycles)", rows, baseline="none")]


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_bench(args)


if __name__ == "__main__":
    sys.exit(main())
