"""The explorer against a reference that rebuilds the simulation at every
node of the schedule tree, and the group split against full enumeration.

The reference is the plain form of exhaustive enumeration: pop a decision
prefix, build a fresh simulation, replay the prefix, and push one child per
runnable thread at the next branch point. It builds once per node of the
tree: 2P-1 times for P paths when every branch point has two choices.
``explore_all`` carries the live simulation into the first child and
undoes its way back to each later one, so it builds once per search; its
report must stay byte-identical.

``explore`` searches each group of processes that may interact on its own,
and within a group one path per class of interleavings that differ only in
the order of steps that commute. Its verdict must be the reference's
wherever the split is taken, and where it is abandoned.
"""

import copy
import itertools
import json
from typing import Any, Optional

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st
from hypothesis.errors import NoSuchExample

from dptisim import MapSpec, ReadOp, Simulation, tasks
from dptisim.dpti import Variant
from dptisim.events import FiltersFreedEvent
from dptisim.scenario import build_simulation, load_scenario, scenario_from_dict
from dptisim.tasks import ExplorationReport, TaskState, explore, explore_all, extract_kills, extract_witnesses

from conftest import SCENARIOS, pair_race, sgx_data_only_with
from test_compiled_scenario import check_every_step

VARIANTS = {"none": None, "stash": Variant.STASH, "freeze": Variant.FREEZE}
PATHS = sorted(SCENARIOS.glob("*.json"))
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
        path_kills = extract_kills(sim.events)
        causes = {k["cause"] for k in path_kills}
        for cause in causes:
            kills[cause] = kills.get(cause, 0) + 1
        for process, cause in {(k["process"], k["cause"]) for k in path_kills}:
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
        groups=[[p.name for p in factory().processes.values()]],
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
@pytest.mark.parametrize("path", PATHS, ids=lambda p: p.stem)
def test_explore_matches_rebuild_every_node_reference(path, variant):
    sc = load_scenario(path)
    factory = CountingFactory(sc, VARIANTS[variant])
    report = explore_all(factory, _bound(path, sc))
    reference = reference_explore(CountingFactory(sc, VARIANTS[variant]), _bound(path, sc))
    assert report.to_json() == reference.to_json()
    # one build per search: the search undoes every step
    assert factory.builds == 1
    if len(sc.compiled.groups) == 1:
        # explore of one group gives full enumeration's verdict, on one build
        reduced = CountingFactory(sc, VARIANTS[variant])
        assert explore(reduced, _bound(path, sc)).verdict() == report.verdict()
        assert reduced.builds == 1


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


def assert_same_verdict(sc, variant, max_steps) -> ExplorationReport:
    """``explore`` splits ``sc`` and gives the verdict of full enumeration,
    which ``test_explore_matches_rebuild_every_node_reference`` holds to the
    reference; returns its report."""
    factory, full = CountingFactory(sc, variant), CountingFactory(sc, variant)
    report = explore(factory, max_steps)
    assert report.verdict() == explore_all(full, max_steps).verdict()
    assert len(report.groups) > 1, report.groups
    assert factory.builds == full.builds == 1
    return report


def assert_hands_over(sc, variant, max_steps, monkeypatch) -> None:
    """``explore`` gives up the split of ``sc`` after what it has run and
    hands over to full enumeration, at the whole bound."""
    handed_over = []
    monkeypatch.setattr(
        tasks, "explore_all", lambda factory, max_steps: handed_over.append(max_steps) or "full"
    )
    assert explore(lambda: build_simulation(sc, variant), max_steps) == "full"
    assert handed_over == [max_steps]
    monkeypatch.undo()


def visudo_part(names: tuple[str, ...]) -> Any:
    """visudo with only the processes ``names``, at its own bound."""
    raw = copy.deepcopy(load_scenario(SCENARIOS / "visudo.json").raw)
    raw["processes"] = [p for p in raw["processes"] if p["name"] in names]
    raw["name"] = "+".join(names)
    return scenario_from_dict(raw)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("names", itertools.combinations(("benign", "override", "wrongfile"), 2),
                         ids="+".join)
def test_split_of_two_visudo_processes_gives_the_reference_verdict(names, variant, monkeypatch):
    """At visudo's bound, and at the sum of the two groups' longest paths,
    where no interleaving truncates yet; one step below it, where all do,
    the split is abandoned."""
    sc = visudo_part(names)
    report = explore(lambda: build_simulation(sc, VARIANTS[variant]), 400)
    assert report.groups == [[name] for name in names]
    assert report.paths == 2  # each process has one thread, so one path
    fit = sum(p["steps"] for p in report.per_path)
    assert assert_same_verdict(sc, VARIANTS[variant], fit).verdict() == report.verdict()
    assert_hands_over(sc, VARIANTS[variant], fit - 1, monkeypatch)


# The verdict explore_all gives for exhaustive visudo at its own bound of
# 400 steps under every variant: 89,700 interleavings under none and
# 245,520 under stash and freeze, which take from half a minute to three
# minutes each on a 2-vCPU VM.
VISUDO_VERDICT = {
    "witness": False,
    "kill_causes": ["filter_violation"],
    "process_kills": {"override": ["filter_violation"], "wrongfile": ["filter_violation"]},
    "deadlock": False,
    "truncated": False,
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_visudo_split_gives_the_full_enumeration_verdict(variant):
    sc = load_scenario(SCENARIOS / "visudo.json")
    factory = CountingFactory(sc, VARIANTS[variant])
    report = explore(factory, 400)
    assert report.verdict() == VISUDO_VERDICT
    assert report.groups == [["benign"], ["override"], ["wrongfile"]]
    assert (report.paths, factory.builds) == (3, 1)


@pytest.mark.parametrize("bound", [8, 12, 16, 24])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_visudo_split_abandoned_below_its_longest_paths(variant, bound, monkeypatch):
    """Every interleaving of visudo truncates at these bounds, so the split
    gives up and hands over to full enumeration, whose verdict the tests
    above hold to the reference at bound 8 (the larger bounds take seconds
    to enumerate)."""
    assert_hands_over(load_scenario(SCENARIOS / "visudo.json"), VARIANTS[variant], bound, monkeypatch)


# What the bystander's one thread does: write to a page of its own, or
# nothing, so that it is never runnable.
BYSTANDER_OPS = {
    "busy": [{"op": "write", "vaddr": 0x70000, "string": "x"}],
    "idle": [],
}


def with_bystander(sc, ops: str = "busy", first: bool = False) -> Any:
    """``sc`` with one more process, ``first`` or last, whose one thread
    does ``BYSTANDER_OPS[ops]``."""
    raw = copy.deepcopy(sc.raw)
    raw["processes"].insert(0 if first else len(raw["processes"]), {
        "name": "bystander",
        "mappings": [{"vaddr": 0x70000}],
        "threads": [{"name": "bystander-main", "ops": BYSTANDER_OPS[ops]}],
    })
    return scenario_from_dict(raw)


TOCTOU = [p for p in PATHS if p.stem.startswith("toctou_")]


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("path", TOCTOU, ids=lambda p: p.stem)
def test_split_with_a_bystander_gives_the_reference_verdict(path, variant):
    sc = with_bystander(load_scenario(path))
    report = assert_same_verdict(sc, VARIANTS[variant], sc.schedule["max_steps"])
    assert report.groups[-1] == ["bystander"]
    if report.example_witness is None:
        return
    # The witness group runs first: its decisions replay on a full build,
    # bystander included, to the same witness.
    example = dict(report.example_witness)
    decisions = example.pop("decisions")
    sim = build_simulation(sc, VARIANTS[variant])
    sim.run_prefix(decisions, sc.schedule["max_steps"])
    assert extract_witnesses(sim.events)[0] == example


def witness_with_its_group_first(sc, report: ExplorationReport) -> dict[str, Any]:
    """The first witness of ``report``, a split search of ``sc`` under no
    protection, as a fresh build gives it when only the steps of the
    witness's path run: the path that the branch-point decisions of its
    ``per_path`` entry, among the tasks of its group, give. With the
    decisions at each step where more than one task of the whole
    simulation is runnable."""
    chosen = next(path for path in report.per_path if path["witnesses"])["decisions"]
    sim = build_simulation(sc, None)
    tids = next(group for group in sim.groups if chosen[0] in group)
    decisions = []
    while len(sim.trace) < sc.schedule["max_steps"]:
        ready = [tid for tid in tids if sim.tasks[tid].state == TaskState.RUNNABLE]
        if not ready:
            break
        tid = chosen.pop(0) if len(ready) > 1 else ready[0]
        if len(sim.runnable_tids()) > 1:
            decisions.append(tid)
        sim.step(tid)
    return dict(extract_witnesses(sim.events)[0], decisions=decisions)


@pytest.mark.parametrize("first", [True, False], ids=["bystander first", "bystander last"])
@pytest.mark.parametrize("ops", sorted(BYSTANDER_OPS))
@pytest.mark.parametrize("path", TOCTOU, ids=lambda p: p.stem)
def test_split_witness_replays_with_its_group_first(path, ops, first):
    """A split search reports its first witness as its path gives it with
    the witness's group scheduled first on a fresh build, on its one build:
    the witness's decisions replay there through ``run_prefix`` to the same
    witness. That holds whether the bystander's group ran before it on the
    search's build or runs after, and whether the bystander is runnable on a
    fresh build, which makes each step of the path a decision, or never."""
    sc = with_bystander(load_scenario(path), ops, first)
    factory = CountingFactory(sc, None)
    report = explore(factory, sc.schedule["max_steps"])
    assert len(report.groups) == 2 and ["bystander"] in report.groups
    assert factory.builds == 1
    assert report.example_witness == witness_with_its_group_first(sc, report)
    example = dict(report.example_witness)
    decisions = example.pop("decisions")
    sim = build_simulation(sc, None)
    sim.run_prefix(decisions, sc.schedule["max_steps"])
    assert extract_witnesses(sim.events)[0] == example


# What the other processes of a generated scenario below do; the picks that
# name a process reach its labelled page.
SOLO_OPS = ("write", "mprotect")
LINK_OPS = ("alias_write", "mmap_write", "proc_mem_write")


@st.composite
def linked_processes(draw) -> dict:
    """Two or three processes, each with one thread and one labelled page
    holding "file1". The first opens the path on its page; the others make
    one or two picks between them: a write to their own page, or to another
    process's page through a mapping alias, an ``mmap`` alias or
    ``proc_mem_write``."""
    count = draw(st.integers(2, 3))
    picks = draw(st.lists(
        st.tuples(st.integers(1, count - 1), st.sampled_from(SOLO_OPS + LINK_OPS), st.integers(0, count - 1)),
        min_size=1, max_size=2,
    ))
    processes = [
        {
            "name": f"p{i}", "sandboxed": draw(st.booleans()),
            "mappings": [{"vaddr": 0x10000, "label": f"buf{i}", "data": [{"at": 0x10000, "string": "file1"}]}],
            "threads": [{"name": f"t{i}", "ops": []}],
        }
        for i in range(count)
    ]
    processes[0]["threads"][0]["ops"].append({"op": "syscall", "nr": "openat", "args": [0, 0x10000, 0]})
    for i, kind, j in picks:
        if kind == "alias_write":
            i, j = max(i, j), min(i, j)  # a mapping aliases only earlier labels
        proc = processes[i]
        ops = proc["threads"][0]["ops"]
        if kind == "write":
            ops.append({"op": "write", "vaddr": 0x10000, "string": "file2"})
        elif kind == "mprotect":
            ops.append({"op": "mprotect", "vaddr": 0x10000, "write": True})
        elif kind == "alias_write":
            vaddr = 0x40000 + 0x10000 * j
            if all(m["vaddr"] != vaddr for m in proc["mappings"]):
                proc["mappings"].append({"vaddr": vaddr, "alias_of": f"buf{j}"})
            ops.append({"op": "write", "vaddr": vaddr, "string": "file2"})
        elif kind == "mmap_write":
            vaddr = 0x80000 + 0x10000 * j
            ops.append({"op": "mmap", "vaddr": vaddr, "alias_of": f"buf{j}"})
            ops.append({"op": "write", "vaddr": vaddr, "string": "file2"})
        else:
            ops.append({"op": "proc_mem_write", "target": f"t{j}", "vaddr": 0x10000, "string": "file2"})
    return {
        "version": 1, "name": "linked",
        "filters": {"rules": [
            {"nr": "read"}, {"nr": "mmap"}, {"nr": "mprotect"}, {"nr": "exit_group"},
            {"nr": "openat", "arg": 1, "strings": ["file1"]},
        ]},
        "processes": processes,
    }


@settings(max_examples=120, deadline=None, derandomize=True)
@given(linked_processes(), st.sampled_from(sorted(VARIANTS)))
def test_generated_processes_split_to_the_full_enumeration_verdict(raw, variant):
    """However the generated processes reach each other's pages, the split
    gives full enumeration's verdict, and processes that reach no other page
    are explored apart."""
    sc = scenario_from_dict(raw)
    factory = lambda: build_simulation(sc, VARIANTS[variant])  # noqa: E731
    report = explore(factory, 200)
    assert report.verdict() == explore_all(factory, 200).verdict()
    assert not report.verdict()["truncated"]
    linked = {
        frozenset((int(p["name"][1:]), int(target[1:])))
        for p in raw["processes"]
        for target in [m["alias_of"][3:] for m in p["mappings"] if "alias_of" in m]
        + [op.get("alias_of", "")[3:] or op.get("target", "")[1:] for op in p["threads"][0]["ops"]
           if op["op"] in ("mmap", "proc_mem_write")]
        for target in [f"p{target}"]
    }
    if not any(len(pair) == 2 for pair in linked):
        assert len(report.groups) == len(raw["processes"])


class TestGroups:
    def groups(self, sc) -> list[list[str]]:
        """The process names of each group, in order, which ``explore``
        also reports."""
        process_of = [plan.name for plan in sc.compiled.processes for _ in plan.threads]
        names = [list(dict.fromkeys(process_of[tid - 1] for tid in tids)) for tids in sc.compiled.groups]
        assert explore(lambda: build_simulation(sc), 400).groups == names
        return names

    def test_shipped_groups(self):
        assert self.groups(load_scenario(SCENARIOS / "toctou_alias.json")) == [["app", "accomplice"]]
        visudo = load_scenario(SCENARIOS / "visudo.json")
        assert self.groups(visudo) == [["benign"], ["override"], ["wrongfile"]]
        assert self.groups(load_scenario(SCENARIOS / "sgx_rop.json")) == [["host"]]

    def two_processes(self, ops: list) -> Any:
        """Two processes that share nothing; the first runs ``ops``."""
        return scenario_from_dict({
            "version": 1, "name": "pair",
            "processes": [
                {"name": "a", "mappings": [{"vaddr": 0x10000, "label": "buf"}],
                 "threads": [{"name": "a-main", "ops": ops}]},
                {"name": "b", "mappings": [{"vaddr": 0x10000}],
                 "threads": [{"name": "b-main", "ops": [{"op": "write", "vaddr": 0x10000, "string": "b"}]}]},
            ],
        })

    @pytest.mark.parametrize("ops, together", [
        ([{"op": "write", "vaddr": 0x10000, "string": "a"}], False),
        ([{"op": "proc_mem_write", "target": "a-main", "vaddr": 0x10000, "string": "a"}], False),
        ([{"op": "proc_mem_write", "target": "b-main", "vaddr": 0x10000, "string": "a"}], True),
        ([{"op": "proc_mem_write", "target": 2, "vaddr": 0x10000, "string": "a"}], True),
        ([{"op": "proc_mem_write", "target": 9, "vaddr": 0x10000, "string": "a"}], False),
        ([{"op": "fork"}], True),
        ([{"op": "fork", "child": [{"op": "exit"}]}], True),
        ([{"op": "exec", "path_vaddr": 0x10000, "image": {"ops": [{"op": "fork"}]}}], True),
        ([{"op": "exec", "path_vaddr": 0x10000, "image": {"mappings": [{"vaddr": 0x20000}]}}], False),
    ])
    def test_what_joins_two_processes(self, ops, together):
        sc = self.two_processes(ops)
        assert self.groups(sc) == ([["a", "b"]] if together else [["a"], ["b"]])
        sim = build_simulation(sc)
        assert sim.groups == (((1, 2),) if together else ((1,), (2,)))

    @pytest.mark.parametrize("where", ["mapping", "mmap", "exec"])
    def test_an_alias_joins_its_label_owner(self, where):
        alias = {"vaddr": 0x30000, "alias_of": "buf"}
        raw = self.two_processes([{"op": "write", "vaddr": 0x10000, "string": "a"}]).raw
        b = raw["processes"][1]
        if where == "mapping":
            b["mappings"].append(alias)
        elif where == "mmap":
            b["threads"][0]["ops"].append(dict(alias, op="mmap"))
        else:
            b["threads"][0]["ops"].append(
                {"op": "exec", "path_vaddr": 0x10000, "image": {"mappings": [alias]}}
            )
        assert self.groups(scenario_from_dict(raw)) == [["a", "b"]]

    def test_an_ecall_joins_the_enclave_host(self):
        raw = json.loads((SCENARIOS / "sgx_data_only.json").read_text())
        raw["processes"].append({
            "name": "guest", "threads": [{"name": "guest-main", "ops": [{"op": "ecall", "enclave": "evil"}]}],
        })
        raw["processes"].append({"name": "other", "threads": []})
        sc = scenario_from_dict(raw)
        # a process with no thread is in no group: it has nothing to step
        assert self.groups(sc) == [["host", "guest"]]
        assert build_simulation(sc).groups == ((1, 2),)

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("path", PATHS, ids=lambda p: p.stem)
    def test_no_frame_is_mapped_by_two_groups(self, path, variant):
        sc = load_scenario(path)
        sim = build_simulation(sc, VARIANTS[variant])
        assert sorted(tid for tids in sim.groups for tid in tids) == list(sim.tasks)
        for _ in range(2):  # as built, and after a seeded run
            spaces = sim.vmem.spaces
            frames = [
                {
                    pte.frame_id
                    for asid in {sim.tasks[tid].asid for tid in tids} if asid in spaces
                    for pte in spaces[asid].entries.values()
                }
                for tids in sim.groups
            ]
            assert all(frames)
            for a, b in itertools.combinations(frames, 2):
                assert not a & b
            sim.run_seeded(0, sc.schedule.get("max_steps", 1000))


# ---------------------------------------------------------------------------
# the reduction inside a group


def test_two_threads_reading_one_page_explore_one_path():
    """Reads commute, so every interleaving of the two threads is one class."""
    def factory():
        sim = Simulation(variant=None)
        proc = sim.add_process("p")
        sim.map_region(proc.asid, MapSpec(vaddr=0x10000))
        for name in ("t1", "t2"):
            sim.add_thread(proc, [ReadOp(0x10000)] * 2, name=name)
        return sim

    report = explore(factory, 24)
    assert (report.paths, report.reduced) == (1, True)
    full = explore_all(factory, 24)
    assert full.paths == 6 and report.verdict() == full.verdict()


@pytest.mark.parametrize("path", TOCTOU, ids=lambda p: p.stem)
def test_reduced_witness_replays_through_run_prefix(path):
    """The decisions of a one-group reduced search's example witness replay
    on a fresh build to the same witness."""
    sc = load_scenario(path)
    report = explore(lambda: build_simulation(sc, None), sc.schedule["max_steps"])
    assert report.reduced and len(report.groups) == 1
    example = dict(report.example_witness)
    decisions = example.pop("decisions")
    sim = build_simulation(sc, None)
    assert sim.run_prefix(decisions, sc.schedule["max_steps"]) is None
    assert extract_witnesses(sim.events)[0] == example


PAGE, ALIAS = 0x10000, 0x80000
RACE_OPS = ("openat", "write", "mprotect", "mmap", "exit")
# With a fork among them, an mmap of a fresh page at the alias's address
# too: it reads no page-table entry that the fork writes.
FORK_RACE_OPS = RACE_OPS + ("fork", "fresh mmap")


def _race_op(draw, kind: str) -> dict:
    if kind == "openat":
        return {"op": "syscall", "nr": "openat", "args": [0, PAGE, 0]}
    if kind == "write":
        return {"op": "write", "vaddr": draw(st.sampled_from((PAGE, ALIAS))), "string": "file2"}
    if kind == "mprotect":
        return {"op": "mprotect", "vaddr": PAGE, "write": draw(st.booleans())}
    if kind == "mmap":
        return {"op": "mmap", "vaddr": ALIAS, "alias_of": "buf"}
    if kind == "fresh mmap":
        return {"op": "mmap", "vaddr": ALIAS}
    if kind == "exit":
        return {"op": "exit", "group": draw(st.booleans())}
    return {"op": "fork", "child": [{"op": "read", "vaddr": ALIAS}]}


@st.composite
def one_process_races(draw, kinds=RACE_OPS) -> dict:
    """Two or three threads of one sandboxed process with one labelled page
    holding "file1". Each thread runs one or two ops on the page, of
    ``kinds``: an openat of the path on it, a write over it (at the page or
    at its alias), an mprotect of it, an mmap of the alias or of a fresh
    page at its address, an exit, or a fork whose child reads the alias.
    Four ops at most over two threads and three over three, with at most
    two openats and one fork, keep full enumeration within a few thousand
    paths."""
    threads = draw(
        st.lists(st.lists(st.sampled_from(kinds), min_size=1, max_size=2), min_size=2, max_size=3)
        .filter(lambda kinds: sum(map(len, kinds)) <= 6 - len(kinds))
        .filter(lambda kinds: sum(k.count("openat") for k in kinds) <= 2)
        .filter(lambda kinds: sum(k.count("fork") for k in kinds) <= 1)
    )
    return one_process_race([[_race_op(draw, kind) for kind in kinds] for kinds in threads])


def one_process_race(threads: list[list[dict]]) -> dict:
    """The race of ``one_process_races`` whose threads run the ops ``threads``."""
    return {
        "version": 1, "name": "race",
        "filters": {"rules": [
            {"nr": "read"}, {"nr": "mmap"}, {"nr": "mprotect"}, {"nr": "fork"}, {"nr": "exit"},
            {"nr": "exit_group"}, {"nr": "openat", "arg": 1, "strings": ["file1"]},
        ]},
        "processes": [{
            "name": "p", "sandboxed": True,
            "mappings": [{"vaddr": PAGE, "label": "buf", "data": [{"at": PAGE, "string": "file1"}]}],
            "threads": [{"name": f"t{i}", "ops": ops} for i, ops in enumerate(threads)],
        }],
    }


def assert_checked_reduction(raw, variant) -> ExplorationReport:
    """The reduced search of ``raw`` gives full enumeration's verdict, each
    on one build, and every step it takes keeps the memory and window
    invariants; returns its report."""
    sc = scenario_from_dict(raw)
    built = []

    def checked():
        built.append(build_simulation(sc, VARIANTS[variant]))
        check_every_step(built[-1])
        return built[-1]

    report = explore(checked, 200)
    full = CountingFactory(sc, VARIANTS[variant])
    assert report.verdict() == explore_all(full, 200).verdict()
    assert len(built) == full.builds == 1
    return report


@settings(max_examples=100, deadline=None, derandomize=True)
@given(one_process_races(), st.sampled_from(sorted(VARIANTS)))
def test_generated_races_reduce_to_the_full_enumeration_verdict(raw, variant):
    """Where windows, stalls, wakes and kills meet the sleep sets, the
    reduced search gives full enumeration's verdict, and every step it
    takes keeps the memory and window invariants."""
    assert not assert_checked_reduction(raw, variant).verdict()["truncated"]


@settings(max_examples=50, deadline=None, derandomize=True)
@given(one_process_races(FORK_RACE_OPS), st.sampled_from(sorted(VARIANTS)))
def test_generated_races_with_a_fork_reduce_to_the_full_enumeration_verdict(raw, variant):
    """The same with a fork among the ops, which reads every entry of its
    parent's space and writes each one it makes copy-on-write."""
    assert_checked_reduction(raw, variant)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("other", [
    [{"op": "write", "vaddr": 0x201000, "string": "zz"}, {"op": "read", "vaddr": 0x80000, "len": 4}],
    [{"op": "ecall", "enclave": "evil"}],
], ids=["host-writer", "second-caller"])
def test_enclave_races_reduce_to_the_full_enumeration_verdict(other, variant):
    """sgx_data_only with a second host thread, which writes the data bridge
    page while the enclave runs or calls the enclave too."""
    sc = scenario_from_dict(sgx_data_only_with("enclave_race", [{"name": "other", "rsp": 0x302000, "ops": other}]))
    factory, full = CountingFactory(sc, VARIANTS[variant]), CountingFactory(sc, VARIANTS[variant])
    assert explore(factory, 80).verdict() == explore_all(full, 80).verdict()
    assert factory.builds == full.builds == 1


# ---------------------------------------------------------------------------
# pair races


LAYOUTS = {"distinct pages": False, "one page": True}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("openers, racers", [(2, 1), (1, 2)])
def test_small_pair_races_reduce_to_the_full_enumeration_verdict(openers, racers, layout, variant):
    sc = scenario_from_dict(pair_race(openers, racers, LAYOUTS[layout]))
    factory, full = CountingFactory(sc, VARIANTS[variant]), CountingFactory(sc, VARIANTS[variant])
    assert explore(factory, 400).verdict() == explore_all(full, 400).verdict()
    assert factory.builds == full.builds == 1


def _race_verdict(witness: bool, *causes: str) -> dict[str, Any]:
    return {
        "witness": witness, "kill_causes": list(causes), "process_kills": {"p": list(causes)},
        "deadlock": False, "truncated": False,
    }


# The verdict explore_all gives on each 2+2 pair race: from 432 to 6,632
# interleavings, which take up to 2 s each. Under stash and freeze the
# window over the checked page leaves no witness, and on one page an
# opener's restore can find the frame inside the other opener's window.
TWO_TWO_VERDICTS = {
    ("distinct pages", "none"): _race_verdict(True, "filter_violation"),
    ("distinct pages", "stash"): _race_verdict(False, "filter_violation"),
    ("distinct pages", "freeze"): _race_verdict(False, "filter_violation"),
    ("one page", "none"): _race_verdict(True, "filter_violation"),
    ("one page", "stash"): _race_verdict(False, "concurrent_use_violation", "filter_violation"),
    ("one page", "freeze"): _race_verdict(False, "concurrent_use_violation", "filter_violation"),
}


class LimitedFactory(CountingFactory):
    """A counting factory that fails at build ``limit + 1``, so that a
    search that takes far more builds fails fast."""

    def __init__(self, sc, variant, limit: int):
        super().__init__(sc, variant)
        self.limit = limit

    def __call__(self):
        assert self.builds < self.limit, f"more than {self.limit} builds"
        return super().__call__()


@pytest.mark.parametrize("layout, variant", sorted(TWO_TWO_VERDICTS))
def test_two_two_pair_races_reduce_to_the_recorded_verdict(layout, variant):
    sc = scenario_from_dict(pair_race(2, 2, LAYOUTS[layout]))
    factory = LimitedFactory(sc, VARIANTS[variant], 400)
    assert explore(factory, 400).verdict() == TWO_TWO_VERDICTS[layout, variant]


@pytest.mark.parametrize("variant", ["freeze", "stash"])
@pytest.mark.parametrize("openers, racers, limit", [(2, 2, 100), (3, 3, 1000)])
def test_pair_races_on_distinct_pages_take_few_builds(openers, racers, limit, variant):
    """Openers and racers on distinct pages touch disjoint memory, so their
    windows, wait queues and entries leave the search few classes."""
    sc = scenario_from_dict(pair_race(openers, racers))
    assert explore(LimitedFactory(sc, VARIANTS[variant], limit), 400).verdict() == _race_verdict(
        False, "filter_violation"
    )


def _dropping(drop):
    """A mutant of the search whose footprints lose the locations ``drop``
    picks, given each location and whether the step wrote it."""
    recorded_step = tasks._recorded_step

    def mutant(sim, tid):
        reads, writes = recorded_step(sim, tid)
        return {loc for loc in reads if not drop(loc, False)}, {loc for loc in writes if not drop(loc, True)}

    return mutant


# Each mutant drops one kind of location. The verdict oracle below catches
# the first three. It catches neither the window writes nor the wait-queue
# writes: on the fixtures, the generated races and the pair races every
# search without one of them still gives full enumeration's verdict, since
# a restore both writes the window of each of its frames and wakes that
# frame's queue, so either kind alone still orders the steps it must. The
# id and process writes are left to the write check too: only a fork or an
# exec writes them, and each also writes the space it reads or makes. The
# write check of tests/test_commutation.py catches each of the eight.
MUTANTS = {
    "frame writes": lambda loc, written: written and loc[0] == "frame",
    "page-table writes": lambda loc, written: written and loc[0] == "pte",
    "space writes": lambda loc, written: written and loc[0] == "space",
    "window writes": lambda loc, written: written and loc[0] == "window",
    "wait-queue writes": lambda loc, written: written and loc[0] == "waitq",
    "id writes": lambda loc, written: written and loc == "ids",
    "process writes": lambda loc, written: written and loc[0] == "process",
}
VERDICT_MUTANTS = ("frame writes", "page-table writes", "space writes")


# For each mutant that no shipped fixture catches, the case a search for one
# shrinks to, which spares the row that search.
SHRUNK = {
    "page-table writes": (
        one_process_race([
            [{"op": "write", "vaddr": PAGE, "string": "file2"}],
            [{"op": "mprotect", "vaddr": PAGE, "write": False}],
        ]),
        "freeze",
    ),
    "space writes": (
        one_process_race([
            [{"op": "mmap", "vaddr": ALIAS}],
            [{"op": "fork", "child": [{"op": "read", "vaddr": ALIAS}]}],
        ]),
        "freeze",
    ),
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_a_parents_exit_and_its_childs_kill_conflict_on_their_one_filter_table(variant):
    """A fork shares its parent's filter table. The parent's exit_group and
    the kill of the child, whose read of the unmapped alias segfaults, each
    release it, and the events tell which of them freed it, so the search
    must not call the two steps independent."""
    sc = scenario_from_dict(one_process_race([
        [{"op": "fork", "child": [{"op": "read", "vaddr": ALIAS}]}, {"op": "exit", "group": True}],
        [{"op": "read", "vaddr": PAGE}],
    ]))
    freed = []
    for order in ((1, 3), (3, 1)):
        sim = build_simulation(sc, VARIANTS[variant])
        while 3 not in sim.tasks:
            sim.step(1)
        seen = len(sim.events)
        footprints = [tasks._recorded_step(sim, tid) for tid in order]
        assert not tasks._independent(*footprints), order
        freed.append([ev.tgid for ev in sim.events[seen:] if isinstance(ev, FiltersFreedEvent)])
    assert freed == [[2], [1]]


def _differs(sc, variant, max_steps) -> bool:
    def factory():
        return build_simulation(sc, VARIANTS[variant])

    return explore(factory, max_steps).verdict() != explore_all(factory, max_steps).verdict()


@pytest.mark.parametrize("mutant", sorted(VERDICT_MUTANTS))
def test_the_oracle_catches_a_broken_footprint(mutant, monkeypatch):
    """With one kind of location dropped from every footprint, some shipped
    fixture or generated scenario gets a verdict other than full
    enumeration's."""
    monkeypatch.setattr(tasks, "_recorded_step", _dropping(MUTANTS[mutant]))
    if mutant in SHRUNK:
        raw, variant = SHRUNK[mutant]
        if _differs(scenario_from_dict(raw), variant, 200):
            return
    for path in PATHS:
        sc = load_scenario(path)
        if all(len(tids) == 1 for tids in sc.compiled.groups):
            continue  # a one-thread group never branches, so records nothing
        if any(_differs(sc, variant, _bound(path, sc)) for variant in VARIANTS):
            return
    for generated in (one_process_races(FORK_RACE_OPS), linked_processes()):
        try:
            find(
                st.tuples(generated, st.sampled_from(sorted(VARIANTS))),
                lambda case: _differs(scenario_from_dict(case[0]), case[1], 200),
                settings=settings(
                    max_examples=500, deadline=None, derandomize=True, database=None,
                    phases=[Phase.generate],
                ),
            )
            return
        except NoSuchExample:
            pass
    pytest.fail(f"no case tells the search without {mutant} from full enumeration")
