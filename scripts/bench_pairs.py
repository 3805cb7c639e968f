"""Compare two commits on the repository benchmark in alternating pairs.

    python3 scripts/bench_pairs.py --base 9184e6d --head HEAD --seed 23 \\
        --workload explore-independent --workload explore-race --out BENCH_explore.json

Each commit is exported with ``git archive`` into its own temporary
directory, and ``perfbench/run.py`` runs there with ``--trace 0`` for the
``run_seconds`` that BENCHMARK.json sets, so both sides use their own
committed benchmark and sources. For every workload (by default every one
BENCHMARK.json lists) the script runs ``PAIRS`` pairs, alternating which
commit goes first, and writes, per end-to-end metric, each side's median and
quartiles, every run's value, and the number of pairs the head commit won
(ties count for neither).

Each metric also gets a verdict against the bound BENCHMARK.json sets for it,
printed with the medians:

- ``worse``: the head median is worse than the base median by more than the
  bound, as a fraction of the base median;
- ``unresolved``: the base runs' spread, (q3 - q1) / median, is wider than the
  bound, so the runs cannot tell a change of that size from noise, unless
  every head run beats every base run;
- ``within``: neither.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(commit: str, dest: Path) -> None:
    """Write the committed files of ``commit`` into ``dest``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{checkout}: {workload} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict[str, Any]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def fraction(x: float, of: float) -> float:
    """``x`` as a fraction of ``|of|``; infinite for a positive ``x`` of 0."""
    return x / abs(of) if of else (math.inf if x > 0 else 0.0)


def verdict(base: dict[str, Any], head: dict[str, Any], sign: int, bound: float) -> str:
    """``worse``, ``unresolved`` or ``within``, as the module docstring says;
    ``sign`` is 1 where lower is better and -1 where higher is."""
    if fraction(sign * (head["median"] - base["median"]), base["median"]) > bound:
        return "worse"
    beats_all = all(sign * (b - h) > 0 for b in base["runs"] for h in head["runs"])
    if fraction(base["q3"] - base["q1"], base["median"]) > bound and not beats_all:
        return "unresolved"
    return "within"


def summarise(
    runs: dict[str, list[dict[str, Any]]], better: dict[str, str], bounds: dict[str, float],
) -> dict[str, Any]:
    metrics: dict[str, Any] = {}
    for name, direction in better.items():
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        head = [r["metrics"][name]["value"] for r in runs["head"]]
        sign = 1 if direction == "lower" else -1
        wins = sum(sign * (b - h) > 0 for b, h in zip(base, head))
        b, h = spread(base), spread(head)
        metrics[name] = {
            "unit": runs["base"][0]["metrics"][name]["unit"],
            "better": direction,
            "base": b,
            "head": h,
            "head_wins": wins,
            "base_over_head": b["median"] / h["median"] if h["median"] else None,
            "median_gap_exceeds_base_iqr": abs(b["median"] - h["median"]) > b["q3"] - b["q1"],
            "bound": bounds[name],
            "base_spread": fraction(b["q3"] - b["q1"], b["median"]),
            "verdict": verdict(b, h, sign, bounds[name]),
        }
    return {
        "metrics": metrics,
        "attempted": {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()},
        "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="parent commit")
    parser.add_argument("--head", default="HEAD", help="commit holding the change")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all in BENCHMARK.json)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    commits = {"base": git("rev-parse", args.base), "head": git("rev-parse", args.head)}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    result: dict[str, Any] = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "commits": commits,
        "seed": args.seed,
        "seconds": seconds,
        "pairs": PAIRS,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {side: Path(tmp) / side for side in commits}
        for side, commit in commits.items():
            export(commit, checkouts[side])
        for workload in workloads:
            runs: dict[str, list[dict[str, Any]]] = {"base": [], "head": []}
            for i in range(PAIRS):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                for side in order:
                    runs[side].append(run_once(checkouts[side], workload, args.seed, seconds))
                print(f"{workload} pair {i + 1}/{PAIRS}: verdict_s base "
                      f"{runs['base'][-1]['metrics']['verdict_s']['value']:.3f} head "
                      f"{runs['head'][-1]['metrics']['verdict_s']['value']:.3f}", file=sys.stderr)
            result["workloads"][workload] = summarise(runs, better, bounds)
    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    for workload, summary in result["workloads"].items():
        for name, m in summary["metrics"].items():
            print(f"{workload:20s} {name:15s} base {m['base']['median']:12.6g} "
                  f"head {m['head']['median']:12.6g} {m['unit']:6s} head wins {m['head_wins']}/{PAIRS} "
                  f"spread {m['base_spread']:6.1%} bound {m['bound']:.0%} {m['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
