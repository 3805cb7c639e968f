"""Size a change: one benchmark workload's sweeps on two commits, in turn, in one process.

    python3 scripts/ab_sweeps.py --base dc35997 --head HEAD --workload cost-suites \\
        --sweeps 100 --seed 7

Each commit is exported with ``git archive`` into its own temporary
directory, and its ``src/dptisim`` is renamed there to a package name of its
own (``dptisim_base``, ``dptisim_head``), so the two import side by side.
Each side runs the workload as its own ``perfbench/`` defines it (workloads,
recorded verdicts, shipped scenarios), after the benchmark's warm-up build of
every scenario. The sides then take turns, one sweep each, alternating which
goes first. The script prints each side's median sweep time, the share of
sweeps the head won (ties count for neither) and each side's failed
operations. It reads ``perfbench/`` and writes nothing into the checkouts.

It exits 2, running nothing, if a package imports itself absolutely
(``import dptisim`` or ``from dptisim...``): renamed, such a package would
run some other copy of that module.

Taking turns in one process removes most of the drift between separate
10-s runs, so differences of a few percent show. The script only sizes a
change: a gain is claimed from the repository benchmark in alternating
pairs of runs (``scripts/bench_pairs.py``).
"""

from __future__ import annotations

import argparse
import ast
import importlib
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from types import ModuleType
from typing import Any, Iterator

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "dptisim"
BENCH_MODULES = ("program", "workloads")  # perfbench's own, imported by these names


def export(commit: str, dest: Path) -> None:
    """Write the committed files of ``commit`` into ``dest``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def absolute_self_imports(package: Path) -> list[str]:
    """``file:line`` of every import of ``dptisim`` by its absolute name in
    the package's sources."""
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names = [node.module]
            else:
                continue
            if any(name == PACKAGE or name.startswith(PACKAGE + ".") for name in names):
                found.append(f"{path.relative_to(package.parent.parent)}:{node.lineno}")
    return found


class Side:
    """One commit's program and workload, imported from its checkout."""

    def __init__(self, name: str, checkout: Path, workload: str, seed: int):
        self.name = name
        self.package = f"{PACKAGE}_{name}"
        src = checkout / "src"
        (src / PACKAGE).rename(src / self.package)
        sys.path.insert(0, str(src))
        program, workloads = _bench_modules(checkout / "perfbench")
        modules = {m: importlib.import_module(f"{self.package}.{m}") for m in program.MODULES}
        Variant = modules["dpti"].Variant
        prog = program.Program(
            modules=modules,
            variants={"none": None, "stash": Variant.STASH, "freeze": Variant.FREEZE},
        )
        prog.scenarios = program.load_scenarios(prog)
        program.warm_up(prog)
        self.workloads = workloads
        self.sweeps: Iterator[list[Any]] = workloads.WORKLOADS[workload](
            prog, workloads.References.load(), seed
        ).sweeps()
        self.tally = workloads.Tally()

    def sweep(self) -> float:
        """Run the workload's next sweep; its busy time in seconds."""
        self.workloads.run_sweep(next(self.sweeps), self.tally, self.workloads.NoSpans(), count_cycles=False)
        return self.tally.sweeps[-1]


def _bench_modules(perfbench: Path) -> tuple[ModuleType, ModuleType]:
    """This checkout's ``program`` and ``workloads`` modules. They import
    each other by plain name, so each side's are imported in turn and then
    taken out of ``sys.modules``."""
    sys.path.insert(0, str(perfbench))
    try:
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)
        return tuple(importlib.import_module(name) for name in BENCH_MODULES)  # type: ignore[return-value]
    finally:
        sys.path.remove(str(perfbench))
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="parent commit")
    parser.add_argument("--head", default="HEAD", help="commit holding the change")
    parser.add_argument("--workload", required=True, help="perfbench workload to run")
    parser.add_argument("--sweeps", type=int, required=True, help="sweeps per side")
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    args = parser.parse_args(argv)
    if args.sweeps < 1:
        parser.error("--sweeps must be at least 1")

    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {side: Path(tmp) / side for side in ("base", "head")}
        for side, commit in (("base", args.base), ("head", args.head)):
            export(commit, checkouts[side])
            found = absolute_self_imports(checkouts[side] / "src" / PACKAGE)
            if found:
                print(f"{side} ({commit}) imports {PACKAGE} absolutely: {', '.join(found)}", file=sys.stderr)
                return 2
        sides = {side: Side(side, checkout, args.workload, args.seed) for side, checkout in checkouts.items()}
        times: dict[str, list[float]] = {"base": [], "head": []}
        for i in range(args.sweeps):
            for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
                times[side].append(sides[side].sweep())

    wins = sum(h < b for b, h in zip(times["base"], times["head"]))
    base_ms, head_ms = (statistics.median(times[side]) * 1e3 for side in ("base", "head"))
    print(f"{args.workload}: {args.sweeps} sweeps per side, seed {args.seed}")
    for side, commit in (("base", args.base), ("head", args.head)):
        tally = sides[side].tally
        print(f"  {side} {commit}: median sweep {statistics.median(times[side]) * 1e3:.3f} ms, "
              f"failed {tally.failed}/{tally.attempted}")
    print(f"  head/base {head_ms / base_ms - 1:+.1%}, head won {wins}/{args.sweeps} sweeps")
    return 0


if __name__ == "__main__":
    sys.exit(main())
