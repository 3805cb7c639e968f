"""Seed-0 report hashes of the shipped scenarios against those recorded with
the benchmark in perfbench/references.json, so that a change to the bytes of
any report fails the suite, not only the traced benchmark run."""

import json

import pytest

from dptisim.dpti import Variant
from dptisim.scenario import build_simulation, load_scenario

from conftest import SCENARIOS

SEED0_HASH = json.loads(
    (SCENARIOS.parent / "perfbench" / "references.json").read_text()
)["seed0_hash"]
VARIANTS = {"none": None, "stash": Variant.STASH, "freeze": Variant.FREEZE}


@pytest.mark.parametrize("key", sorted(SEED0_HASH))
def test_seed0_report_hash_matches_reference(key):
    stem, variant = key.split("/")
    sc = load_scenario(SCENARIOS / f"{stem}.json")
    report = build_simulation(sc, VARIANTS[variant]).run_seeded(0, sc.schedule.get("max_steps", 1000))
    assert report.hash_hex() == SEED0_HASH[key]
