"""Record the verdicts the benchmark checks against into references.json.

    python3 perfbench/record_references.py

Run it only when the simulator's answers are meant to change (a model
change, never a speed-up); the benchmark counts every operation whose
verdict differs from these as failed. Takes about two minutes.
"""

from __future__ import annotations

import json
import string
import sys

from program import VARIANT_NAMES, import_program, load_scenarios
from workloads import (
    DISALLOWED_PATHS,
    REFERENCES,
    SEED_POOL,
    SUITE_NAMES,
    BuildCounter,
    CostSuites,
    References,
    cycles_str,
    explore_counts,
    explore_verdict,
    independent_scenario,
    seeded_verdict,
)

DIGITS = string.digits + string.ascii_lowercase  # base 36, see References.seeded


def seeded_section(prog) -> tuple[dict, dict]:
    seeded, hashes = {}, {}
    for stem, sc in prog.scenarios.items():
        for vname, variant in prog.variants.items():
            verdicts: list[str] = []
            by_seed = []
            for seed in range(SEED_POOL):
                sim = prog.scenario.build_simulation(sc, variant)
                report = sim.run_seeded(seed, sc.schedule.get("max_steps", 1000))
                if seed == 0:
                    hashes[f"{stem}/{vname}"] = report.hash_hex()
                verdict = seeded_verdict(report)
                if verdict not in verdicts:
                    verdicts.append(verdict)
                by_seed.append(DIGITS[verdicts.index(verdict)])
            seeded[f"{stem}/{vname}"] = {"verdicts": verdicts, "by_seed": "".join(by_seed)}
    return seeded, hashes


def explored(prog, sc, vname: str) -> dict:
    variant = prog.variants[vname]
    factory = BuildCounter(lambda: prog.scenario.build_simulation(sc, variant))
    report = prog.tasks.explore(factory, sc.schedule.get("max_steps", 24))
    problems = prog.scenario.check_expectations(sc, report, variant)
    if problems:
        raise SystemExit(f"{sc.name} / {vname}: expectations fail: {problems}")
    return {"verdict": explore_verdict(report), "counts": explore_counts(report), "builds": factory.builds}


def main() -> int:
    prog = import_program()
    prog.scenarios = load_scenarios(prog)
    seeded, hashes = seeded_section(prog)
    explore = {
        f"{stem}/{vname}": explored(prog, sc, vname)
        for stem, sc in prog.scenarios.items() if stem.startswith("toctou_")
        for vname in VARIANT_NAMES
    }
    independent = {}
    visudo = prog.scenarios["visudo"].raw
    seen = set()
    for seed in range(10_000):
        key, raw = independent_scenario(visudo, seed)
        if key in seen:
            continue
        seen.add(key)
        sc = prog.scenario.scenario_from_dict(raw)
        for vname in VARIANT_NAMES:
            entry = explored(prog, sc, vname)
            independent[f"{key}/{vname}"] = entry
            print(f"independent {key}/{vname}: {entry['counts']['paths']} paths", file=sys.stderr)
        if len(seen) == 2 + len(DISALLOWED_PATHS):
            break
    suites = {
        r.title: {row.label: cycles_str(row.cycles) for row in r.rows}
        for r in prog.bench.run_suites(SUITE_NAMES)
    }
    costs = CostSuites(prog, References({"suites": suites, "matrix": {}}), 0)
    matrix = {
        stem: {row.label: cycles_str(row.cycles) for row in costs.matrix_op(stem, sc).run()[0].rows}
        for stem, sc in prog.scenarios.items()
    }
    data = {
        "seed_pool": SEED_POOL,
        "seeded": seeded,
        "seed0_hash": hashes,
        "explore": explore,
        "independent": independent,
        "suites": suites,
        "matrix": matrix,
    }
    REFERENCES.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCES}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
