"""Broken protection mechanisms, each applied with monkeypatch: a scenario
of the corpus must find a witness under stash and under freeze with the
mutant, and none with the real code. Otherwise a verdict of "no witness"
would hold for a mechanism that does not work."""

import json

import pytest

from dptisim.dpti import DptiEngine
from dptisim.scenario import build_simulation, scenario_from_dict
from dptisim.tasks import explore
from dptisim.vmem import Vmem

from conftest import SCENARIOS, double_write_racer


def _flush_keeping_tlb_entries(self, asid: int, vpn: int) -> None:
    """``Vmem.tlb_flush`` that records its footprint write but drops no
    TLB entry, so a core keeps writing through the entry it cached before
    the window closed the page."""
    if self.fp is not None:
        self.wrote(("pte", asid, vpn))


def _no_window_frame(self, task, vpns) -> None:
    """``DptiEngine._window_frame`` that finds no window, so an mprotect or
    fork of a page inside an open window does not wait for its restore."""
    return None


# mutant -> (owner, attribute, replacement), the scenario that catches it,
# and the step bound of its search. The single-write one-page races 1+1 and
# 2+2 miss mutant (i): their racer has no cached entry to write through.
MUTANTS = {
    "(i) tlb_flush drops nothing": (
        (Vmem, "tlb_flush", _flush_keeping_tlb_entries), double_write_racer(), 400,
    ),
    "mprotect and fork wait for no window": (
        (DptiEngine, "_window_frame", _no_window_frame),
        json.loads((SCENARIOS / "toctou_mprotect.json").read_text()), 56,
    ),
}


@pytest.mark.parametrize("variant", ["stash", "freeze"])
@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_the_corpus_finds_a_witness_only_with_the_mutant(mutant, variant, monkeypatch):
    (owner, attribute, replacement), raw, max_steps = MUTANTS[mutant]
    sc = scenario_from_dict(raw)

    def witness() -> bool:
        return explore(lambda: build_simulation(sc, variant), max_steps).verdict()["witness"]

    assert not witness()
    monkeypatch.setattr(owner, attribute, replacement)
    assert witness()
