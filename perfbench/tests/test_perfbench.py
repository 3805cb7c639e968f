"""Self-test of the benchmark: every workload at a tiny size, corrupted
reference verdicts, the traced run's metric set, the generator's frame
independence, and the refusal to run without the simulator.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from program import import_program, load_scenarios  # noqa: E402
from run import measure  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    References,
    check_no_shared_frame,
    independent_scenario,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(section: str) -> set[str]:
    return {m["name"] for m in SPEC[section]}


def test_workloads_match_spec():
    assert set(WORKLOADS) == _names("workloads")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_is_correct(name):
    result = measure(name, seed=3, seconds=0, trace=False, sweeps=1)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == _names("end_to_end")
    for metric in result["metrics"].values():
        assert metric["value"] > 0


def _corrupt(name: str, data: dict) -> None:
    if name == "seeded-mix":
        entry = data["seeded"]["visudo/stash"]
        entry["verdicts"] = ["w=9|k=|d=0|t=0|s=1|c=1"] * len(entry["verdicts"])
    elif name == "explore-race":
        data["explore"]["toctou_openat/none"]["verdict"]["witness"] = False
    elif name == "explore-independent":
        for entry in data["independent"].values():
            entry["verdict"]["kill_causes"] = []
    else:
        data["matrix"]["visudo"]["stash"] = "1"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corrupted_reference_counts_as_failure(name):
    data = copy.deepcopy(References.load().data)
    _corrupt(name, data)
    result = measure(name, seed=3, seconds=0, trace=False, sweeps=1, refs=References(data))
    assert not result["correct"]
    assert 1 <= result["failed"] <= result["attempted"]


def test_traced_run_reports_every_per_layer_metric():
    result = measure("cost-suites", seed=1, seconds=0, trace=True, sweeps=1)
    assert result["correct"], result["problems"]
    assert set(result["metrics"]) == _names("per_layer")
    assert result["metrics"]["bench.getppid_ms"]["value"] > 0
    assert result["metrics"]["costmodel.cycles.seccomp_scan"]["value"] == 100


def test_generated_scenarios_share_no_frame():
    prog = import_program()
    prog.scenarios = load_scenarios(prog)
    kinds = set()
    for seed in range(12):
        key, raw = independent_scenario(prog.scenarios["visudo"].raw, seed)
        kinds.add(key.split(":")[0])
        check_no_shared_frame(prog, prog.scenario.scenario_from_dict(raw))
    assert kinds == {"override", "wrongfile", "path"}
    with pytest.raises(ValueError):
        check_no_shared_frame(prog, prog.scenarios["toctou_alias"])


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "seeded-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
