"""Import the simulator from the checkout and load its shipped inputs.

Set-up is everything a workload needs before its first timed operation:
importing the package, loading and validating every shipped scenario, one
warm-up build of each scenario under each variant, and the workload's own
input generation. It is repeated so that set-up time can be reported as a
median; every repetition imports the package afresh.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIO_DIR = ROOT / "scenarios"
PACKAGE = "dptisim"
MODULES = (
    "vmem", "filters", "events", "dpti", "sgxdom", "costmodel", "tasks", "bench", "scenario", "cli",
)
VARIANT_NAMES = ("none", "stash", "freeze")


class MissingProgram(Exception):
    """The checkout does not hold the simulator sources or its scenarios."""


@dataclass
class Program:
    """The imported simulator modules and the shipped scenarios."""

    modules: dict[str, ModuleType]
    variants: dict[str, Any]  # variant name -> dpti.Variant, or None for "none"
    scenarios: dict[str, Any] = field(default_factory=dict)  # file stem -> Scenario

    def __getattr__(self, name: str) -> ModuleType:
        try:
            return self.modules[name]
        except KeyError:
            raise AttributeError(name) from None


def import_program() -> Program:
    """Import every simulator module from ``src/`` of this checkout, never
    from an installed copy."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise MissingProgram(f"no {PACKAGE} package under {SRC}")
    if not SCENARIO_DIR.is_dir():
        raise MissingProgram(f"no scenario directory at {SCENARIO_DIR}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
    origin = Path(modules["scenario"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise MissingProgram(f"{PACKAGE} was imported from {origin}, outside {SRC}")
    Variant = modules["dpti"].Variant
    variants = {"none": None, "stash": Variant.STASH, "freeze": Variant.FREEZE}
    return Program(modules=modules, variants=variants)


def load_scenarios(prog: Program) -> dict[str, Any]:
    paths = sorted(SCENARIO_DIR.glob("*.json"))
    if not paths:
        raise MissingProgram(f"no scenario files in {SCENARIO_DIR}")
    return {p.stem: prog.scenario.load_scenario(p) for p in paths}


def warm_up(prog: Program) -> None:
    for sc in prog.scenarios.values():
        for variant in prog.variants.values():
            prog.scenario.build_simulation(sc, variant)


def set_up(prepare: Callable[[Program], Any], repeats: int) -> tuple[Program, Any, float]:
    """Run the whole set-up ``repeats`` times; returns the last program, the
    workload state ``prepare`` made from it, and the median set-up time."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        prog = import_program()
        prog.scenarios = load_scenarios(prog)
        warm_up(prog)
        state = prepare(prog)
        times.append(time.perf_counter() - t0)
    return prog, state, statistics.median(times)
