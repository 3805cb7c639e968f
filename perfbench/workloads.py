"""The benchmark's four workloads and the verdicts they are checked against.

Each workload is a closed loop with one client: it issues its next operation
only when the previous one has returned. Operations are grouped into sweeps,
and one sweep reaches every verdict the workload asks for once. The workload
seed picks the sweeps (scheduler seeds, sweep order, the generated scenario);
the simulator sees only the inputs made from it.

- ``seeded-mix``: every shipped scenario under every variant, one seeded run
  each (build, run, report hash, expectations), at a scheduler seed drawn
  from the workload seed per sweep.
- ``explore-race``: exhaustive exploration of every ``toctou_*`` fixture
  under every variant, in an order shuffled per sweep. Threads share and
  alias frames, so most interleavings differ.
- ``explore-independent``: exhaustive exploration of a scenario generated
  from the workload seed, in which no two processes share a frame, so every
  interleaving is equivalent and the 100-rule visudo policy is compiled on
  every replay.
- ``cost-suites``: the calibrated suites and the variant cost matrix of
  every shipped scenario, in an order shuffled per sweep.
"""

from __future__ import annotations

import copy
import json
import random
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

from program import VARIANT_NAMES, Program, load_scenarios

REFERENCES = Path(__file__).resolve().parent / "references.json"

# Scheduler seeds of seeded-mix are drawn from range(SEED_POOL); the
# references hold a verdict for each of them.
SEED_POOL = 1000

SUITE_NAMES = ("aliases", "getppid", "sgx", "strings")

# Disallowed paths the explore-independent generator may open instead of
# the shipped wrongfile's /etc/shadow. None is in the visudo allow list.
DISALLOWED_PATHS = (
    "/etc/shadow-",
    "/etc/gshadow",
    "/etc/sudoers.d/99-backdoor",
    "/home/admin/.ssh/authorized_keys",
    "/home/admin/.bashrc",
    "/var/log/auth.log",
    "/proc/self/mem",
    "/boot/vmlinuz",
)

# Independent workloads compose the shipped visudo policy and editor with
# one filter violator; the generated scenario states what every interleaving
# must show.
INDEPENDENT_EXPECTATIONS = {
    "witnesses": {"equals": 0},
    "deadlocks": {"equals": 0},
    "kills": [{"cause": "filter_violation"}],
}


# ---------------------------------------------------------------------------
# verdicts


def cycles_str(value: Any) -> str:
    """Exact textual form of a cycle count (int, Fraction or float)."""
    return str(Fraction(value))


def seeded_verdict(report: Any) -> str:
    """Witness count, kills, deadlocked tasks, truncation, steps and the
    cycle total of one seeded run, as one comparable string."""
    kills = ",".join(sorted(f"{k['process']}:{k['cause']}" for k in report.kills))
    total = report.cycles["total"] if report.cycles else 0
    return (
        f"w={len(report.witnesses)}|k={kills}|d={len(report.deadlocked)}"
        f"|t={int(report.truncated)}|s={report.steps}|c={cycles_str(total)}"
    )


def explore_verdict(report: Any) -> dict[str, Any]:
    """The answer an exploration gives, in the terms every sound reduced
    search must reproduce: whether a witness, a deadlock and a truncated
    path exist, and which kill causes occur."""
    return {
        "witness": report.witness_paths > 0,
        "kill_causes": sorted(report.kills),
        "deadlock": report.deadlock_paths > 0,
        "truncated": report.truncated_paths > 0,
    }


def explore_counts(report: Any) -> dict[str, Any]:
    """Full-enumeration counts, recorded for reference but not checked, so
    that a reduced search that visits fewer paths is not counted as wrong."""
    return {
        "paths": report.paths,
        "witnesses": report.witnesses,
        "witness_paths": report.witness_paths,
        "kills": dict(sorted(report.kills.items())),
        "deadlock_paths": report.deadlock_paths,
        "truncated_paths": report.truncated_paths,
        "steps": sum(p["steps"] for p in report.per_path),
    }


class References:
    """Verdicts recorded from the simulator, stored in references.json."""

    def __init__(self, data: dict[str, Any]):
        self.data = data

    @classmethod
    def load(cls, path: Path = REFERENCES) -> References:
        return cls(json.loads(path.read_text()))

    def seeded(self, key: str, seed: int) -> Optional[str]:
        entry = self.data["seeded"].get(key)
        if entry is None or not 0 <= seed < len(entry["by_seed"]):
            return None
        return entry["verdicts"][int(entry["by_seed"][seed], 36)]

    def section(self, name: str) -> dict[str, Any]:
        return self.data[name]


def calibrated_problems(reports: list[Any]) -> list[str]:
    """Check the suite tables against the published calibration constants
    (README, cost-model section), with zero tolerance."""
    tables = {r.title: r for r in reports}
    problems: list[str] = []

    def row(title: str, label: str) -> Optional[Any]:
        try:
            return tables[title].row(label)
        except KeyError:
            problems.append(f"missing row {label!r} of {title!r}")
            return None

    def expect(title: str, label: str, cycles: int) -> None:
        r = row(title, label)
        if r is not None and Fraction(r.cycles) != cycles:
            problems.append(f"{title} / {label}: {r.cycles} cycles, calibrated {cycles}")

    getppid = "getppid latency (cycles)"
    expect(getppid, "vanilla", 295)
    expect(getppid, "seccomp", 395)
    expect(getppid, "dpti", 360)
    strings = "openat deep string filtering, stash (cycles)"
    expect(strings, "1-string", 2016)
    expect(strings, "10-string", 2331)
    aliases = "openat deep filtering by alias mappings, stash (cycles)"
    base = row(aliases, "1-mapping")
    if base is not None:
        for m in (2, 5, 10):
            r = row(aliases, f"{m}-mapping")
            if r is not None and Fraction(r.cycles) - Fraction(base.cycles) != 970 * (m - 1):
                problems.append(f"{aliases} / {m}-mapping: not +970 cycles per extra mapping")
    for title, fault_pct, syscall_pct in (
        ("ecall transition latency (cycles)", "19.9", "9.9"),
        ("ocall transition latency (cycles)", "44.0", "24.0"),
    ):
        unprotected = row(title, "unprotected")
        for label, pct in (("fault-exit", fault_pct), ("syscall-exit", syscall_pct)):
            r = row(title, label)
            if r is None or unprotected is None:
                continue
            base_cycles = Fraction(unprotected.cycles)
            overhead = (Fraction(r.cycles) - base_cycles) / base_cycles * 100
            if overhead != Fraction(pct):
                problems.append(f"{title} / {label}: {float(overhead)}%, calibrated +{pct}%")
    return problems


# ---------------------------------------------------------------------------
# the explore-independent generator


def independent_scenario(visudo: dict[str, Any], seed: int) -> tuple[str, dict[str, Any]]:
    """Pair the shipped visudo editor (``benign``) with one filter violator
    chosen by the seed: ``override``, ``wrongfile``, or a copy of wrongfile
    that opens another disallowed path. Returns the violator key and the
    scenario as a dict for ``scenario_from_dict``."""
    rng = random.Random(seed)
    kind = rng.choice(("override", "wrongfile", "path"))
    processes = {p["name"]: p for p in visudo["processes"]}
    benign = copy.deepcopy(processes["benign"])
    key = kind
    if kind == "path":
        path = rng.choice(DISALLOWED_PATHS)
        allowed = {
            s for rule in visudo["filters"]["rules"]
            if rule["nr"] == "openat" for s in rule.get("strings", [])
        }
        if path in allowed:
            raise ValueError(f"generated path {path!r} is allowed by the visudo policy")
        violator = copy.deepcopy(processes["wrongfile"])
        violator["name"] = "strayfile"
        violator["threads"][0]["name"] = "strayfile-main"
        violator["mappings"][0]["data"][0]["string"] = path
        key = f"path:{path}"
    else:
        violator = copy.deepcopy(processes[kind])
    raw = {
        "version": 1,
        "name": f"independent-{key}",
        "variant": "none",
        "schedule": {"mode": "exhaustive", "max_steps": visudo["schedule"]["max_steps"]},
        "filters": copy.deepcopy(visudo["filters"]),
        "processes": [benign, violator],
        "expectations": copy.deepcopy(INDEPENDENT_EXPECTATIONS),
    }
    return key, raw


def check_no_shared_frame(prog: Program, sc: Any) -> None:
    """Raise unless the scenario's processes map disjoint physical frames,
    both as written and once built."""
    for proc in sc.processes:
        for m in proc.get("mappings", []):
            if m.get("shared") or "alias_of" in m:
                raise ValueError(f"process {proc['name']!r} maps a shared or alias frame")
    sim = prog.scenario.build_simulation(sc, None)
    owner: dict[int, int] = {}
    for asid, space in sim.vmem.spaces.items():
        for pte in space.entries.values():
            if owner.setdefault(pte.frame_id, asid) != asid:
                raise ValueError(f"frame {pte.frame_id} is mapped by two address spaces")


# ---------------------------------------------------------------------------
# operations and tallies


@dataclass
class Op:
    """One operation: ``run`` is the timed call into the simulator, ``check``
    compares what it returned with the recorded verdict."""

    label: str
    span: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    steps: Callable[[Any], int] = lambda outcome: 0
    cycles: Callable[[Any], list[tuple[Any, dict[str, Any]]]] = lambda outcome: []


@dataclass
class Tally:
    latencies: list[float] = field(default_factory=list)  # s per operation
    sweeps: list[float] = field(default_factory=list)  # s per sweep
    steps: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    cycles: Fraction = Fraction(0)
    components: dict[str, Fraction] = field(default_factory=dict)

    def fail(self, label: str, problems: list[str]) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{label}: {'; '.join(problems)}")

    def add_cycles(self, total: Any, components: dict[str, Any]) -> None:
        self.cycles += Fraction(total)
        for name, value in components.items():
            self.components[name] = self.components.get(name, Fraction(0)) + Fraction(value)


class BuildCounter:
    """Exploration factory that counts builds and the steps each built
    simulation went on to execute."""

    def __init__(self, build: Callable[[], Any]):
        self.build = build
        self.builds = 0
        self._steps = 0
        self._last: Any = None

    def __call__(self) -> Any:
        if self._last is not None:
            self._steps += self._last.step_count
        self._last = self.build()
        self.builds += 1
        return self._last

    @property
    def steps(self) -> int:
        return self._steps + (self._last.step_count if self._last is not None else 0)


NO_SPANS = nullcontext()


class NoSpans:
    def op(self, name: str) -> Any:
        return NO_SPANS


def run_sweep(ops: list[Op], tally: Tally, spans: Any, count_cycles: bool) -> None:
    total = 0.0
    for op in ops:
        tally.attempted += 1
        try:
            with spans.op(op.span):
                t0 = time.perf_counter()
                outcome = op.run()
                elapsed = time.perf_counter() - t0
            problems = op.check(outcome)
        except Exception as exc:  # an operation that crashes is a failed one
            traceback.print_exc(file=sys.stderr)
            tally.fail(op.label, [f"{type(exc).__name__}: {exc}"])
            continue
        tally.latencies.append(elapsed)
        total += elapsed
        tally.steps += op.steps(outcome)
        if count_cycles:
            for cycles_total, components in op.cycles(outcome):
                tally.add_cycles(cycles_total, components)
        if problems:
            tally.fail(op.label, problems)
    tally.sweeps.append(total)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    min_sweeps = 1  # fewest sweeps per run, however short --seconds is
    trace_sweeps = 1  # the traced run does exactly this many sweeps
    cycle_sweeps = 0  # modeled cycles are summed over this many first sweeps

    def __init__(self, prog: Program, refs: References, seed: int):
        self.prog = prog
        self.refs = refs
        self.seed = seed

    def sweeps(self) -> Iterator[list[Op]]:
        raise NotImplementedError

    def load_inputs(self) -> None:
        """Load and validate the workload's scenarios again (traced set-up)."""
        load_scenarios(self.prog)

    def extra_cycles(self, tally: Tally) -> None:
        """Modeled cycles not produced by the timed sweeps."""

    # shared operations ---------------------------------------------------

    def seeded_op(self, stem: str, sc: Any, vname: str, seed: int, expect: bool) -> Op:
        S = self.prog.scenario
        variant = self.prog.variants[vname]
        max_steps = sc.schedule.get("max_steps", 1000)
        key = f"{stem}/{vname}"

        def run() -> Any:
            sim = S.build_simulation(sc, variant)
            report = sim.run_seeded(seed, max_steps)
            report.hash_hex()
            problems = S.check_expectations(sc, report, variant) if expect else []
            return report, problems

        def check(outcome: Any) -> list[str]:
            report, problems = outcome
            got, want = seeded_verdict(report), self.refs.seeded(key, seed)
            if got != want:
                problems = problems + [f"seed {seed}: verdict {got}, recorded {want}"]
            return problems

        return Op(
            label=f"{key} seed {seed}", span="op.seeded_run", run=run, check=check,
            steps=lambda outcome: outcome[0].steps,
            cycles=lambda outcome: [
                (outcome[0].cycles["total"], outcome[0].cycles["components"])
            ],
        )

    def explore_op(self, key: str, sc: Any, vname: str, want: Optional[dict[str, Any]]) -> Op:
        S, T = self.prog.scenario, self.prog.tasks
        variant = self.prog.variants[vname]
        max_steps = sc.schedule.get("max_steps", 24)

        def run() -> Any:
            factory = BuildCounter(lambda: S.build_simulation(sc, variant))
            report = T.explore(factory, max_steps)
            return report, S.check_expectations(sc, report, variant), factory.steps

        def check(outcome: Any) -> list[str]:
            report, problems = outcome[0], list(outcome[1])
            got = explore_verdict(report)
            if got != want:
                problems.append(f"verdict {got}, recorded {want}")
            return problems

        return Op(
            label=key, span="op.exploration", run=run, check=check,
            steps=lambda outcome: outcome[2],
        )

    def seed0_cycles(self, tally: Tally, cases: list[tuple[str, Any, str]]) -> None:
        """Modeled cycles of the explore workloads: one seeded run, scheduler
        seed 0, of every shipped scenario and variant the workload explores
        or is generated from, checked against the recorded verdict."""
        for key, sc, vname in cases:
            sim = self.prog.scenario.build_simulation(sc, self.prog.variants[vname])
            report = sim.run_seeded(0, sc.schedule.get("max_steps", 1000))
            got, recorded = seeded_verdict(report), self.refs.seeded(key, 0)
            tally.attempted += 1
            if got != recorded:
                tally.fail(f"{key} seed 0", [f"verdict {got}, recorded {recorded}"])
            tally.add_cycles(report.cycles["total"], report.cycles["components"])


class SeededMix(Workload):
    name = "seeded-mix"
    min_sweeps = 100
    trace_sweeps = 100
    cycle_sweeps = 100

    def __init__(self, prog: Program, refs: References, seed: int):
        super().__init__(prog, refs, seed)
        self.cases = [
            (stem, sc, vname, sc.schedule["mode"] == "seeded")
            for stem, sc in prog.scenarios.items()
            for vname in VARIANT_NAMES
        ]

    def sweeps(self) -> Iterator[list[Op]]:
        rng = random.Random(self.seed)
        while True:
            seed = rng.randrange(SEED_POOL)
            yield [self.seeded_op(stem, sc, vname, seed, expect) for stem, sc, vname, expect in self.cases]


class Explorations(Workload):
    """Exhaustive explorations of ``self.cases``, (key, scenario, variant
    name, recorded verdict), in an order shuffled per sweep."""

    cases: list[tuple[str, Any, str, Optional[dict[str, Any]]]]

    def sweeps(self) -> Iterator[list[Op]]:
        rng = random.Random(self.seed)
        while True:
            order = list(self.cases)
            rng.shuffle(order)
            yield [self.explore_op(key, sc, vname, want) for key, sc, vname, want in order]


class ExploreRace(Explorations):
    name = "explore-race"
    min_sweeps = 3
    trace_sweeps = 3

    def __init__(self, prog: Program, refs: References, seed: int):
        super().__init__(prog, refs, seed)
        recorded = refs.section("explore")
        self.cases = [
            (f"{stem}/{vname}", sc, vname, recorded.get(f"{stem}/{vname}", {}).get("verdict"))
            for stem, sc in prog.scenarios.items() if stem.startswith("toctou_")
            for vname in VARIANT_NAMES
        ]

    def extra_cycles(self, tally: Tally) -> None:
        self.seed0_cycles(tally, [(key, sc, vname) for key, sc, vname, _ in self.cases])


class ExploreIndependent(Explorations):
    name = "explore-independent"
    min_sweeps = 4
    trace_sweeps = 1

    def __init__(self, prog: Program, refs: References, seed: int):
        super().__init__(prog, refs, seed)
        key, self.raw = independent_scenario(prog.scenarios["visudo"].raw, seed)
        sc = prog.scenario.scenario_from_dict(self.raw)
        check_no_shared_frame(prog, sc)
        recorded = refs.section("independent")
        self.cases = [
            (f"{key}/{vname}", sc, vname, recorded.get(f"{key}/{vname}", {}).get("verdict"))
            for vname in VARIANT_NAMES
        ]

    def load_inputs(self) -> None:
        super().load_inputs()
        self.prog.scenario.scenario_from_dict(self.raw)

    def extra_cycles(self, tally: Tally) -> None:
        # The violator kinds differ in modeled cycles, so the generated
        # scenario would make this figure depend on the seed; the shipped
        # visudo scenario it is generated from does not.
        visudo = self.prog.scenarios["visudo"]
        self.seed0_cycles(tally, [(f"visudo/{vname}", visudo, vname) for vname in VARIANT_NAMES])


class CostSuites(Workload):
    name = "cost-suites"
    min_sweeps = 20
    trace_sweeps = 20
    cycle_sweeps = 1

    def suites_op(self) -> Op:
        B = self.prog.bench
        recorded = self.refs.section("suites")

        def check(reports: list[Any]) -> list[str]:
            problems = calibrated_problems(reports)
            got = {r.title: {row.label: cycles_str(row.cycles) for row in r.rows} for r in reports}
            if got != recorded:
                problems.append("suite tables differ from the recorded ones")
            return problems

        return Op(
            label="run_suites", span="op.suites", run=lambda: B.run_suites(SUITE_NAMES),
            check=check,
            cycles=lambda reports: [(row.cycles, row.components) for r in reports for row in r.rows],
        )

    def matrix_op(self, stem: str, sc: Any) -> Op:
        S, C = self.prog.scenario, self.prog.costmodel
        recorded = self.refs.section("matrix").get(stem)
        seed, max_steps = sc.schedule.get("seed", 0), sc.schedule.get("max_steps", 1000)

        def run() -> Any:
            table = C.CostTable()
            rows, steps = [], 0
            for vname in VARIANT_NAMES:
                sim = S.build_simulation(sc, self.prog.variants[vname], cost_table=table)
                sim.run_seeded(seed=seed, max_steps=max_steps)
                steps += sim.step_count
                rows.append((vname, C.accumulate(sim.events, table)))
            title = f"{sc.name}: variant cost matrix (cycles)"
            return C.bench_report(title, rows, baseline="none"), steps

        def check(outcome: Any) -> list[str]:
            got = {row.label: cycles_str(row.cycles) for row in outcome[0].rows}
            return [] if got == recorded else [f"matrix {got}, recorded {recorded}"]

        return Op(
            label=f"matrix {stem}", span="bench.matrix", run=run, check=check,
            steps=lambda outcome: outcome[1],
            cycles=lambda outcome: [(row.cycles, row.components) for row in outcome[0].rows],
        )

    def sweeps(self) -> Iterator[list[Op]]:
        rng = random.Random(self.seed)
        while True:
            order = [None] + sorted(self.prog.scenarios)
            rng.shuffle(order)
            yield [
                self.suites_op() if stem is None else self.matrix_op(stem, self.prog.scenarios[stem])
                for stem in order
            ]


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (SeededMix, ExploreRace, ExploreIndependent, CostSuites)
}


def run_sweeps(workload: Workload, tally: Tally, *, seconds: float, sweeps: Optional[int]) -> None:
    """Sweep until ``seconds`` have passed and ``workload.min_sweeps`` are
    done, or exactly ``sweeps`` times when that is given."""
    t0 = time.perf_counter()
    for done, ops in enumerate(workload.sweeps()):
        if sweeps is not None:
            if done >= sweeps:
                break
        elif done >= workload.min_sweeps and time.perf_counter() - t0 >= seconds:
            break
        run_sweep(ops, tally, NoSpans(), count_cycles=done < workload.cycle_sweeps)
