"""The explorer against a reference that rebuilds the simulation at every
node of the schedule tree.

The reference is the plain form of exhaustive enumeration: pop a decision
prefix, build a fresh simulation, replay the prefix, and push one child per
runnable thread at the next branch point. It builds once per node of the
tree: 2P-1 times for P paths when every branch point has two choices.
``explore`` carries the live simulation into the first child and so builds
once per path; its report must stay byte-identical.
"""

from typing import Any, Optional

import pytest

from dptisim.dpti import Variant
from dptisim.scenario import build_simulation, load_scenario
from dptisim.tasks import ExplorationReport, explore, extract_witnesses

from conftest import SCENARIOS

VARIANTS = {"none": None, "stash": Variant.STASH, "freeze": Variant.FREEZE}
# visudo's own bound (400) means about 90,000 paths; a small bound keeps the
# comparison to a few thousand truncated ones.
BOUNDS = {"visudo": 8}


def reference_explore(factory, max_steps: int) -> ExplorationReport:
    paths = truncated = witnesses = witness_paths = deadlock_paths = 0
    kills: dict[str, int] = {}
    process_kills: dict[str, dict[str, int]] = {}
    example: Optional[dict[str, Any]] = None
    per_path: list[dict[str, Any]] = []
    stack: list[tuple[int, ...]] = [()]
    while stack:
        prefix = stack.pop()
        sim = factory()
        frontier = sim.run_prefix(prefix, max_steps)
        if frontier is not None:
            for tid in reversed(frontier):
                stack.append(prefix + (tid,))
            continue
        paths += 1
        truncated += sim.truncated
        path_witnesses = extract_witnesses(sim.events)
        witnesses += len(path_witnesses)
        if path_witnesses:
            witness_paths += 1
            if example is None:
                example = dict(path_witnesses[0], decisions=list(prefix))
        causes = {k["cause"] for k in sim.kills}
        for cause in causes:
            kills[cause] = kills.get(cause, 0) + 1
        for process, cause in {(k["process"], k["cause"]) for k in sim.kills}:
            by_cause = process_kills.setdefault(process, {})
            by_cause[cause] = by_cause.get(cause, 0) + 1
        deadlock_paths += bool(sim.deadlocked_tids())
        per_path.append(
            {
                "decisions": list(prefix),
                "steps": sim.step_count,
                "witnesses": len(path_witnesses),
                "kills": sorted(causes),
                "deadlocked": sim.deadlocked_tids(),
            }
        )
    return ExplorationReport(
        paths=paths,
        truncated_paths=truncated,
        witnesses=witnesses,
        witness_paths=witness_paths,
        kills=kills,
        process_kills=process_kills,
        deadlock_paths=deadlock_paths,
        example_witness=example,
        per_path=per_path,
    )


class CountingFactory:
    def __init__(self, sc, variant):
        self.sc = sc
        self.variant = variant
        self.builds = 0

    def __call__(self):
        self.builds += 1
        return build_simulation(self.sc, variant_override=self.variant)


def _bound(path, sc) -> int:
    return BOUNDS.get(path.stem, sc.schedule.get("max_steps", 24))


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
def test_explore_matches_rebuild_every_node_reference(path, variant):
    sc = load_scenario(path)
    factory = CountingFactory(sc, VARIANTS[variant])
    report = explore(factory, _bound(path, sc))
    reference = reference_explore(CountingFactory(sc, VARIANTS[variant]), _bound(path, sc))
    assert report.to_json() == reference.to_json()
    assert factory.builds == report.paths


def test_filter_rules_compiled_once_across_builds(scenarios_dir, monkeypatch):
    from dptisim import filters

    compiled = []
    original = filters.FilterBuilder.build_rules

    def counting(self):
        compiled.append(self)
        return original(self)

    monkeypatch.setattr(filters.FilterBuilder, "build_rules", counting)
    sc = load_scenario(scenarios_dir / "visudo.json")
    sims = [build_simulation(sc, variant_override=v) for v in VARIANTS.values() for _ in range(3)]
    assert len(compiled) == 1
    openat = filters.SYSCALL_NRS["openat"]
    rules = {
        id(proc.filters.lookup(openat)) for sim in sims for proc in sim.processes.values()
    }
    assert len(rules) == 1  # every table looks up the same compiled rule


def test_tables_keep_independent_refcounts(scenarios_dir):
    sc = load_scenario(scenarios_dir / "visudo.json")
    first, second = build_simulation(sc), build_simulation(sc)
    a, b = (next(iter(sim.processes.values())).filters for sim in (first, second))
    assert a is not b
    a.acquire()
    assert (a.refcount, b.refcount) == (2, 1)
    assert a.release(2) and a.freed
    assert not b.freed and b.refcount == 1

    procs = list(second.processes.values())
    tables = [p.filters for p in procs]
    assert len({id(t) for t in tables}) == len(procs) == 3
    assert tables[0].release()
    assert [t.freed for t in tables] == [True, False, False]
    assert [t.refcount for t in tables] == [0, 1, 1]
