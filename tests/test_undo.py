"""The search's undo against the state it came back to, and what a search
builds and counts.

A search opens a journal level at each branch point that has choices left
and comes back to it by putting back what the steps since wrote. At every
branch point the search visits, ``location_state`` of
``tests/test_commutation.py``, its events aside, must be the same after an
undo to the branch point as when the search first reached it, and the
events and the trace must be cut back to where they were. A journal that
misses one kind of write fails this check: the mutants below each skip one.

Every step is undone so, a fork, an exec and an enclave step too: a search
of a fork race, of an enclave race and of enclave bystanders builds once
and still gives the report of the reference that rebuilds at every node.
"""

from typing import Any, Callable, Iterator

import pytest

from dptisim.scenario import build_simulation, load_scenario, scenario_from_dict
from dptisim.tasks import Simulation, explore, explore_all
from dptisim.vmem import Journal, Vmem, vpn_of

from conftest import SCENARIOS, enclave_bystanders, enclave_race, pair_race
from test_commutation import location_state
from test_explore_oracle import PAGE, SHRUNK, VARIANTS, CountingFactory, one_process_race, reference_explore

TOCTOU = sorted(SCENARIOS.glob("toctou_*.json"))
# The pair races, under stash: one page makes the openers' windows meet.
PAIR_RACES = {
    "2+2 one page": pair_race(2, 2, one_page=True),
    "3+2 one page": pair_race(3, 2, one_page=True),
    "3+3 distinct pages": pair_race(3, 3),
}


def _state(sim: Simulation) -> tuple:
    state = location_state(sim)
    del state["events"]
    return state, len(sim.events), len(sim.trace)


class _Differs(Exception):
    """An undo did not come back to the state its level opened at."""


def undo_failures(
    search: Callable[..., Any], factory: Callable[[], Simulation], max_steps: int,
    monkeypatch: pytest.MonkeyPatch,
) -> Iterator[str]:
    """Run ``search`` of ``factory`` until an undo does not come back to the
    state its level opened at, which would leave the search on a state no
    path reaches, and yield a line for it; the last line counts the undos
    checked."""
    opened: dict[Any, tuple] = {}
    failures: list[str] = []
    checked = 0
    open_level, undo = Simulation.open_level, Simulation.undo

    def opening(sim: Simulation):
        level = open_level(sim)
        opened[level] = _state(sim)
        return level

    def undoing(sim: Simulation, level, close: bool) -> None:
        nonlocal checked
        undo(sim, level, close)
        want, got = opened[level], _state(sim)
        checked += 1
        if got != want:
            differ = sorted((loc for loc in want[0].keys() | got[0].keys()
                             if want[0].get(loc) != got[0].get(loc)), key=repr)
            failures.append(f"undo at step {want[2]}: differs on {differ}, events/trace {got[1:]} for {want[1:]}")
            raise _Differs

    with monkeypatch.context() as patch:
        patch.setattr(Simulation, "open_level", opening)
        patch.setattr(Simulation, "undo", undoing)
        try:
            search(factory, max_steps)
        except _Differs:
            pass
    yield from failures
    yield f"{checked} undos checked"


def _factory(sc, variant: str) -> Callable[[], Simulation]:
    return lambda: build_simulation(sc, VARIANTS[variant])


def assert_undoes(search, factory, max_steps, monkeypatch, some: bool = True) -> None:
    """``search`` of ``factory`` comes back to every branch point it undoes
    to, and with ``some`` undoes to at least one."""
    *failures, checked = undo_failures(search, factory, max_steps, monkeypatch)
    assert failures == []
    assert checked != "0 undos checked" or not some


@pytest.mark.parametrize("search", [explore, explore_all], ids=["explore", "explore_all"])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("path", TOCTOU, ids=lambda p: p.stem)
def test_undo_comes_back_to_each_branch_point_of_a_fixture(path, variant, search, monkeypatch):
    sc = load_scenario(path)
    assert_undoes(search, _factory(sc, variant), sc.schedule["max_steps"], monkeypatch)


@pytest.mark.parametrize("race", sorted(PAIR_RACES))
def test_undo_comes_back_to_each_branch_point_of_a_pair_race(race, monkeypatch):
    sc = scenario_from_dict(PAIR_RACES[race])
    assert_undoes(explore, _factory(sc, "stash"), 400, monkeypatch)


# A thread stalls on the page another thread's window holds closed, under
# stash and freeze, while a third ends their process.
STALLED_EXIT = one_process_race([
    [{"op": "syscall", "nr": "openat", "args": [0, PAGE, 0]}],
    [{"op": "write", "vaddr": PAGE, "string": "file2"}],
    [{"op": "exit", "group": True}],
])


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_undo_comes_back_after_an_exit_ends_a_stalled_thread(variant, monkeypatch):
    sc = scenario_from_dict(STALLED_EXIT)
    assert_undoes(explore_all, _factory(sc, variant), 200, monkeypatch)


def _skipping_fills(access):
    """A mutant of ``Vmem.access`` whose TLB fills the journal misses: the
    entry it fills counts as saved while the access runs."""

    def mutant(vmem: Vmem, core, asid, mode, kind, vaddr):
        journal, loc = vmem.journal, ("pte", asid, vpn_of(vaddr))
        hide = journal is not None and loc not in journal.seen
        if hide:
            journal.seen.add(loc)
        try:
            return access(vmem, core, asid, mode, kind, vaddr)
        finally:
            if hide:
                journal.seen.discard(loc)

    return mutant


def _skipping(kind: str):
    """A mutant of ``Journal.save`` that misses the writes of one kind of
    location."""
    save = Journal.save

    def mutant(journal: Journal, loc) -> None:
        if (loc[0] if loc.__class__ is tuple else loc) != kind:
            save(journal, loc)

    return mutant


# The races of a fork, of an enclave with a host thread, and of enclave
# bystanders, with their bounds.
RACES = {
    "fork race": (scenario_from_dict(SHRUNK["space writes"][0]), 200),
    "enclave race": (scenario_from_dict(enclave_race()), 80),
    "1 enclave bystander": (scenario_from_dict(enclave_bystanders(1)), 80),
    "2 enclave bystanders": (scenario_from_dict(enclave_bystanders(2)), 80),
    "3 enclave bystanders": (scenario_from_dict(enclave_bystanders(3)), 80),
}

# Each mutant patches one method so that the journal skips one kind of
# write, and names the cases that must tell it: the fixtures, or the races.
MUTANTS = {
    "TLB fills": (Vmem, "access", _skipping_fills(Vmem.access), "fixtures"),
    "frame writes": (Journal, "save", _skipping("frame"), "fixtures"),
    "id counters": (Journal, "save", _skipping("ids"), "races"),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_the_undo_check_catches_a_journal_that_skips_a_write(mutant, monkeypatch):
    owner, attr, patched, where = MUTANTS[mutant]
    monkeypatch.setattr(owner, attr, patched)
    if where == "fixtures":
        cases = [(sc, sc.schedule["max_steps"]) for sc in map(load_scenario, TOCTOU)]
    else:
        cases = list(RACES.values())
    assert any(
        not line.endswith("undos checked")
        for sc, max_steps in cases for variant in sorted(VARIANTS)
        for line in undo_failures(explore_all, _factory(sc, variant), max_steps, monkeypatch)
    ), f"no case tells a journal that skips {mutant}"


@pytest.mark.parametrize("search", [explore, explore_all], ids=["explore", "explore_all"])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("race", sorted(RACES))
def test_a_fork_or_enclave_race_undoes_on_one_build(race, variant, search, monkeypatch):
    """Every branch point of the race is come back to by undoing, so the
    search builds once; full enumeration still gives the reference's report
    byte for byte."""
    sc, max_steps = RACES[race]
    factory = CountingFactory(sc, VARIANTS[variant])
    report = search(factory, max_steps)
    assert factory.builds == 1
    if search is explore_all and race in ("fork race", "enclave race"):
        assert report.to_json() == reference_explore(CountingFactory(sc, VARIANTS[variant]), max_steps).to_json()
        assert_undoes(explore_all, factory, max_steps, monkeypatch, some=True)


# ---------------------------------------------------------------------------
# what a search builds and counts


@pytest.mark.parametrize("search", [explore, explore_all], ids=["explore", "explore_all"])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("path", TOCTOU, ids=lambda p: p.stem)
def test_a_fixture_search_builds_once_and_counts_every_step(path, variant, search, monkeypatch):
    """``step_count`` counts every step the one build executed, undone ones
    included, while an event's step and a trace entry's index are positions
    on the path."""
    sc = load_scenario(path)
    factory = CountingFactory(sc, VARIANTS[variant])
    calls: dict[int, int] = {}
    step = Simulation.step

    def counting_step(sim: Simulation, tid: int) -> str:
        seen = len(sim.events)
        outcome = step(sim, tid)
        calls[id(sim)] = calls.get(id(sim), 0) + 1
        position = len(sim.trace) - 1
        assert sim.trace[-1][0] == position
        assert all(ev.step == position for ev in sim.events[seen:])
        return outcome

    built: list[Simulation] = []

    def building() -> Simulation:
        built.append(factory())
        return built[-1]

    monkeypatch.setattr(Simulation, "step", counting_step)
    report = search(building, sc.schedule["max_steps"])
    assert factory.builds == len(built) == 1
    (sim,) = built
    assert sim.step_count == calls[id(sim)] > len(sim.trace)
    assert report.paths > 1
