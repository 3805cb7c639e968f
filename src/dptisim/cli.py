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

from .bench import SUITES, run_suites, scenario_matrix
from .costmodel import CostError, CostTable
from .scenario import (
    _VARIANTS,
    Scenario,
    ScenarioError,
    build_simulation,
    check_expectations,
    effective_expectations,
    load_scenario,
)
from .tasks import explore, explore_all


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dptisim",
        description="Deterministic protection-window simulator: scenario runs and calibrated benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario file")
    run_p.add_argument("scenario", help="path to a scenario JSON file")
    run_p.add_argument("--variant", choices=sorted(_VARIANTS), help="override the scenario variant")
    run_p.add_argument("--seed", type=int, help="seed for the seeded scheduler")
    run_p.add_argument("--exhaustive", action="store_true", help="search every interleaving for the verdict")
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


def _load_costs(path: Optional[str]) -> Optional[CostTable]:
    """The default table with the overrides in the ``--costs`` file, if any."""
    if path is None:
        return None
    return CostTable().with_overrides(json.loads(Path(path).read_text()))


def _scenario_costs(sc: Scenario, table: Optional[CostTable]) -> CostTable:
    """The ``--costs`` table, then the scenario's own costs over it."""
    return sc.cost_table if table is None else table.with_overrides(sc.raw.get("costs") or {})


def _cmd_run(args: argparse.Namespace, costs: Optional[CostTable]) -> int:
    try:
        sc = load_scenario(args.scenario)
    except (ScenarioError, OSError) as exc:
        print(f"error: {args.scenario}: {exc}", file=sys.stderr)
        return 2
    table = _scenario_costs(sc, costs)
    variant = _VARIANTS[args.variant] if args.variant else sc.variant

    mode = "exhaustive" if (args.exhaustive or sc.schedule["mode"] == "exhaustive") else "seeded"
    seed = args.seed if args.seed is not None else sc.schedule.get("seed", 0)
    try:
        # build_simulation raises what only building can find: overlapping
        # mappings and bad enclave bridge pages.
        if mode == "exhaustive":
            # a paths bound counts interleavings, which only full
            # enumeration runs
            counts_paths = "paths" in (effective_expectations(sc, variant) or {})
            result = (explore_all if counts_paths else explore)(
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
        if len(result.groups) > 1:
            explored = f"{result.paths} paths over {len(result.groups)} groups explored apart"
        elif result.reduced:
            explored = f"explored {result.paths} paths, one per class of equivalent interleavings"
        else:
            explored = f"explored {result.paths} interleavings"
        print(
            f"scenario {sc.name}: {explored} "
            f"({result.truncated_paths} truncated), witnesses={result.witnesses} "
            f"in {result.witness_paths} path(s), kills={result.kills}, "
            f"deadlock_paths={result.deadlock_paths}"
        )
        verdict = result.verdict()
        print(f"  verdict: {json.dumps(verdict, sort_keys=True)}")
        if result.example_witness:
            print(f"  first witness: {result.example_witness}")
        payload = dict(result.to_dict(), verdict=verdict)
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
    if sc.raw.get("expectations") and not failures:
        print("expectations: all hold")

    if args.report_out:
        Path(args.report_out).write_text(json.dumps(payload, sort_keys=True, indent=2))
        print(f"report written to {args.report_out}")
    return 1 if failures else 0


def _cmd_bench(args: argparse.Namespace, costs: Optional[CostTable]) -> int:
    if args.target in SUITES or args.target == "all":
        names = sorted(SUITES) if args.target == "all" else [args.target]
        reports = run_suites(names, costs)
    elif Path(args.target).exists():
        try:
            sc = load_scenario(args.target)
            # Only overlapping mappings and bad bridge pages fail at build.
            reports = scenario_matrix(sc, _scenario_costs(sc, costs))
        except (ScenarioError, OSError) as exc:
            print(f"error: {args.target}: {exc}", file=sys.stderr)
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


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        costs = _load_costs(args.costs)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, CostError) as exc:
        print(f"error: --costs {args.costs}: {exc}", file=sys.stderr)
        return 2
    if args.command == "run":
        return _cmd_run(args, costs)
    return _cmd_bench(args, costs)


if __name__ == "__main__":
    sys.exit(main())
