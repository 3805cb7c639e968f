"""Every seeded verdict the benchmark checks, against those recorded in
perfbench/references.json: each shipped scenario under each variant at each
scheduler seed of the pool. A change whose answers the benchmark would count
as wrong fails the suite first. The verdict is the benchmark's own
``seeded_verdict``."""

import sys

import pytest

from dptisim.dpti import Variant
from dptisim.scenario import build_simulation, load_scenario

from conftest import SCENARIOS

sys.path.insert(0, str(SCENARIOS.parent / "perfbench"))
from workloads import References, seeded_verdict  # noqa: E402

REFERENCES = References.load()
VARIANTS = {"none": None, "stash": Variant.STASH, "freeze": Variant.FREEZE}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
def test_every_seeded_verdict_matches_the_reference(path, variant):
    sc = load_scenario(path)
    key, max_steps = f"{path.stem}/{variant}", sc.schedule.get("max_steps", 1000)
    wrong = []
    for seed in range(REFERENCES.data["seed_pool"]):
        got = seeded_verdict(build_simulation(sc, VARIANTS[variant]).run_seeded(seed, max_steps))
        if got != REFERENCES.seeded(key, seed):
            wrong.append((seed, got, REFERENCES.seeded(key, seed)))
    assert wrong == []
