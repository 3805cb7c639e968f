"""Time ``explore`` of generated races on two commits, in alternating runs.

    python3 scripts/race_pairs.py --base a971c26 --head HEAD --runs 5 --out BENCH_undo.json

The races are the pair races and the enclave bystanders of this
repository's ``tests/conftest.py`` (``pair_race``, ``enclave_bystanders``),
so both commits run the same scenarios. Each commit is exported with ``git
archive`` into its own temporary directory. Each run is a new process that
imports that checkout's simulator, reads the race's scenario from its
standard input, and times one ``explore`` of it at bound 400 on a factory
that counts its builds and the steps they executed (``step_count``, summed
over builds). Runs alternate which commit goes first. The script sets the
key ``generated_races`` of the JSON file ``--out`` (created if missing,
every other key kept): per race, each side's median seconds over ``--runs``
runs, every run's seconds, and its paths, builds and executed steps, which
are the same on every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

from bench_pairs import export, git

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from conftest import enclave_bystanders, pair_race  # noqa: E402

# name -> (scenario, variant)
RACES = {
    "3+2 one page stash": (pair_race(3, 2, True), "stash"),
    "3+3 distinct pages stash": (pair_race(3, 3), "stash"),
    "4+4 distinct pages stash": (pair_race(4, 4), "stash"),
    "3 enclave bystanders none": (enclave_bystanders(3), "none"),
    "3 enclave bystanders stash": (enclave_bystanders(3), "stash"),
}

# Run in a checkout: time one explore of the race read from standard input,
# a JSON list of the scenario and the variant, and print its seconds, paths,
# builds and executed steps as JSON.
CHILD = """
import json, sys, time
sys.path[:0] = ["src"]
from dptisim.dpti import Variant
from dptisim.scenario import build_simulation, scenario_from_dict
from dptisim.tasks import explore

raw, variant = json.load(sys.stdin)
sc = scenario_from_dict(raw)
variant = {"none": None, "stash": Variant.STASH, "freeze": Variant.FREEZE}[variant]
built = []

def factory():
    built.append(build_simulation(sc, variant))
    return built[-1]

start = time.perf_counter()
report = explore(factory, 400)
seconds = time.perf_counter() - start
print(json.dumps({"seconds": seconds, "paths": report.paths, "builds": len(built),
                  "steps": sum(sim.step_count for sim in built)}))
"""


def run_once(checkout: Path, race: tuple[dict, str]) -> dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], input=json.dumps(race),
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="parent commit")
    parser.add_argument("--head", default="HEAD", help="commit holding the change")
    parser.add_argument("--runs", type=int, default=5, help="runs per side and race")
    parser.add_argument("--out", required=True, help="JSON file whose generated_races key to set")
    args = parser.parse_args(argv)

    commits = {"base": git("rev-parse", args.base), "head": git("rev-parse", args.head)}
    races: dict[str, Any] = {}
    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {side: Path(tmp) / side for side in commits}
        for side, commit in commits.items():
            export(commit, checkouts[side])
        for name, race in RACES.items():
            runs: dict[str, list[dict[str, Any]]] = {"base": [], "head": []}
            for i in range(args.runs):
                for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
                    runs[side].append(run_once(checkouts[side], race))
            races[name] = {
                side: {
                    "median_s": statistics.median(run["seconds"] for run in side_runs),
                    "seconds": [run["seconds"] for run in side_runs],
                    **{key: side_runs[0][key] for key in ("paths", "builds", "steps")},
                }
                for side, side_runs in runs.items()
            }
            base, head = races[name]["base"], races[name]["head"]
            print(f"{name}: " + "; ".join(
                f"{side} {r['median_s']:.3f} s, {r['paths']} paths, {r['builds']} builds, {r['steps']} steps"
                for side, r in (("base", base), ("head", head))
            ))
    out = Path(args.out)
    result = json.loads(out.read_text()) if out.exists() else {}
    result["generated_races"] = {"commits": commits, "runs": args.runs, "races": races}
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
