"""A seeded report's bytes, and so its hash, are those of the canonical
stdlib encoding ``tasks._dumps``, whether orjson writes the per-run fields
or the stdlib does."""

import importlib.util
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dptisim import tasks
from dptisim.dpti import Variant
from dptisim.filters import MAX_SYSCALL_ARGS
from dptisim.scenario import build_simulation, load_scenario, scenario_from_dict

from conftest import SCENARIOS

SEED0_HASH = json.loads((SCENARIOS.parent / "perfbench" / "references.json").read_text())["seed0_hash"]
VARIANTS = {"none": None, "stash": Variant.STASH, "freeze": Variant.FREEZE}


def stdlib_json(report) -> str:
    """The report's JSON with every field encoded by the stdlib reference."""
    rest = report.to_dict()
    del rest["config"]
    return '{"config":' + tasks._dumps(report.config) + "," + tasks._dumps(rest)[1:]


def run(raw: dict, variant=None, seed: int = 0):
    sc = scenario_from_dict(raw)
    return build_simulation(sc, variant).run_seeded(seed, sc.schedule.get("max_steps", 1000))


def floats_outside_cycles(x, path=()) -> list:
    if isinstance(x, float):
        return [path]
    if isinstance(x, dict):
        items = x.items()
    elif isinstance(x, list):
        items = enumerate(x)
    else:
        return []
    return [p for k, v in items if path or k != "cycles" for p in floats_outside_cycles(v, path + (k,))]


def openat(**changes) -> dict:
    raw = json.loads((SCENARIOS / "toctou_openat.json").read_text())
    raw.update(changes)
    return raw


# Values of the shape of a report's per-run fields: floats only under
# "cycles", integer keys only argument indexes.
text = st.text(st.characters(max_codepoint=0x7F), max_size=8) | st.text(st.characters(exclude_categories=()), max_size=8)
ints = st.integers() | st.sampled_from([2**63 - 1, 2**63, 2**64 - 1, 2**64, -(2**63), -(2**63) - 1])
floats = st.floats(1e-4, 1e16, exclude_max=True) | st.floats(-1e16, -1e-4, exclude_min=True) | st.floats()
scalars = st.none() | st.booleans() | ints | text
trees = st.recursive(
    scalars,
    lambda kids: (
        st.lists(kids, max_size=4)
        | st.dictionaries(text, kids, max_size=4)
        | st.dictionaries(st.integers(0, MAX_SYSCALL_ARGS - 1), kids, max_size=4)
    ),
    max_leaves=16,
)
cycles = st.none() | st.recursive(ints | floats, lambda kids: st.dictionaries(text, kids, max_size=4), max_leaves=8)
reports = st.builds(lambda rest, c: {**rest, "cycles": c}, st.dictionaries(text, trees, max_size=5), cycles)


@settings(max_examples=400, deadline=None)
@given(reports)
def test_the_fast_encoding_is_the_stdlib_encoding(rest):
    pytest.importorskip("orjson")
    assert tasks._encode(rest) == tasks._dumps(rest).encode()


def test_every_seeded_report_encodes_as_the_stdlib_does():
    """Every shipped scenario, variant and seed 0-99: the same bytes, and no
    float outside ``cycles``, where the encoder checks floats."""
    pytest.importorskip("orjson")
    for path in sorted(SCENARIOS.glob("*.json")):
        sc = load_scenario(path)
        for variant in VARIANTS.values():
            for seed in range(100):
                report = build_simulation(sc, variant).run_seeded(seed, sc.schedule.get("max_steps", 1000))
                assert report.to_json() == stdlib_json(report), (path.stem, variant, seed)
                assert not floats_outside_cycles(report.to_dict()), (path.stem, variant, seed)


def test_argument_indexes_sort_as_text_as_they_sort_as_numbers():
    """orjson sorts integer keys as text, the stdlib as numbers; the only
    integer keys of a report are argument indexes."""
    indexes = range(MAX_SYSCALL_ARGS)
    assert sorted(indexes, key=str) == sorted(indexes)


# scenario -> what the orjson encoding would get wrong in its report
FALLBACKS = {
    "a seed of 2**64": (openat(), {"seed": 2**64}),
    "a non-ASCII name": (openat(name="café"), {}),
    "DEL in the name": (openat(name="a\x7fb"), {}),
    "a cost below 1e-4": (openat(costs={"tlb_flush": [1, 100000]}), {"variant": Variant.STASH}),
    "a cost of 1e16 or more": (openat(costs={"tlb_flush": [10**17 + 1, 7]}), {"variant": Variant.STASH}),
}


@pytest.mark.parametrize("case", sorted(FALLBACKS))
def test_a_report_orjson_would_encode_otherwise_falls_back(case, monkeypatch):
    orjson = pytest.importorskip("orjson")
    raw, kwargs = FALLBACKS[case]
    report = run(raw, **kwargs)
    rest = report.to_dict()
    del rest["config"]
    try:
        unguarded = orjson.dumps(rest, option=orjson.OPT_SORT_KEYS | orjson.OPT_NON_STR_KEYS)
    except orjson.JSONEncodeError:
        unguarded = None
    assert unguarded != tasks._dumps(rest).encode()
    assert report.to_json() == stdlib_json(report)
    digest = report.hash_hex()
    monkeypatch.setattr(tasks, "orjson", None)
    assert report.hash_hex() == digest


@pytest.mark.parametrize("key", sorted(SEED0_HASH))
def test_seed0_hashes_without_orjson(key, monkeypatch):
    monkeypatch.setattr(tasks, "orjson", None)
    stem, variant = key.split("/")
    sc = load_scenario(SCENARIOS / f"{stem}.json")
    report = build_simulation(sc, VARIANTS[variant]).run_seeded(0, sc.schedule.get("max_steps", 1000))
    assert report.hash_hex() == SEED0_HASH[key]


def test_tasks_imports_without_orjson(monkeypatch):
    """Where orjson is missing, a fresh import of ``tasks`` encodes with the
    stdlib alone, to the same hash."""
    monkeypatch.setitem(sys.modules, "orjson", None)
    spec = importlib.util.spec_from_file_location("dptisim._tasks_without_orjson", tasks.__file__)
    fresh = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, fresh)
    spec.loader.exec_module(fresh)
    assert fresh.orjson is None
    report = run(openat())
    assert fresh.SimReport.hash_hex(report) == report.hash_hex()
