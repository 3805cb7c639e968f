"""Mutation test of the scenario parser: every shipped scenario with one JSON
value replaced by a value of the wrong type or range either fails to load
with a ScenarioError or builds, runs and checks its expectations cleanly;
nothing else escapes, and the CLI never shows a traceback."""

import copy
import json

import pytest

from dptisim.cli import main
from dptisim.scenario import ScenarioError, build_simulation, check_expectations, scenario_from_dict

from conftest import SCENARIOS

# Huge counts are left out: a page count of 2**40 makes a build allocate
# that many frames.
WRONG = [None, True, -1, "x", [1], {"a": 1}, 1.5]
PATHS = sorted(SCENARIOS.glob("*.json"))
STEPS = 300


def locations(value, prefix=()):
    """The key path of every value inside ``value``, parents first."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield prefix + (key,)
        yield from locations(item, prefix + (key,))


def mutated(raw, location, value):
    raw = copy.deepcopy(raw)
    parent = raw
    for key in location[:-1]:
        parent = parent[key]
    parent[location[-1]] = value
    return raw


def mutations(raw):
    for location in locations(raw):
        # Only the first rules of a long policy: the rest have the same shapes.
        if location[:2] == ("filters", "rules") and len(location) > 2 and location[2] >= 8:
            continue
        for value in WRONG:
            yield location, value


def load_and_run(raw):
    """Load, build, run and check ``raw``; a ScenarioError is a clean rejection."""
    try:
        sc = scenario_from_dict(raw)
        seed = sc.schedule.get("seed", 0)
        report = build_simulation(sc).run_seeded(seed, min(sc.schedule.get("max_steps", STEPS), STEPS))
        check_expectations(sc, report)
    except ScenarioError:
        pass


@pytest.mark.parametrize("path", PATHS, ids=lambda p: p.stem)
def test_every_one_value_mutation_is_rejected_or_runs(path):
    raw = json.loads(path.read_text())
    escapes = []
    for location, value in mutations(raw):
        try:
            load_and_run(mutated(raw, location, value))
        except Exception as exc:  # anything but a ScenarioError escapes
            escapes.append(f"{'/'.join(map(str, location))} = {value!r}: {type(exc).__name__}: {exc}")
    assert escapes == [], f"{len(escapes)} escapes, first: {escapes[:5]}"


@pytest.mark.parametrize("path", PATHS, ids=lambda p: p.stem)
def test_cli_exits_0_1_or_2_on_mutations(path, tmp_path, capsys):
    raw = json.loads(path.read_text())
    every = list(mutations(raw))[::97]
    scenario = tmp_path / "s.json"
    for location, value in every:
        scenario.write_text(json.dumps(mutated(raw, location, value)))
        code = main(["run", str(scenario), "--max-steps", "8"])
        err = capsys.readouterr().err
        assert code in (0, 1, 2) and "Traceback" not in err, (location, value, err)
