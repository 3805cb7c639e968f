"""Print every executable line of the simulator that never runs.

    python3 scripts/line_trace.py [ROOT]

ROOT defaults to this repository. Under ``sys.settrace``, limited to the
files of ROOT/src/dptisim, the script runs, in this process:

- ``pytest tests perfbench/tests -p no:cacheprovider`` from ROOT;
- for every scenario under ROOT/scenarios and each variant: the seed-0
  seeded run, ``explore`` and ``explore_all``, visudo at ``max_steps`` 10
  (its full search takes minutes) and every other scenario at its own;
- under each variant, ``explore`` of ``FORK_RACE`` and of sgx_data_only
  with the host thread ``ENCLAVE_RACE_THREAD``, so that the search undoes
  a fork and enclave steps below a branch point.

It then prints, file by file, each line that some code object of the file
maps an instruction to (``co_lines()``) and that never ran, with its
source, and the total. It writes no file into ROOT: no bytecode cache, no
pytest cache, and the test run's working directory, where hypothesis keeps
its examples, is a temporary one. The exit status is pytest's, or 2 if ROOT
lacks src/dptisim or scenarios/. A full run takes minutes.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from types import CodeType

sys.dont_write_bytecode = True
from checkout import checkout_root  # noqa: E402

ROOT = checkout_root("python3 scripts/line_trace.py [ROOT]")
PACKAGE = ROOT / "src" / "dptisim"
EXPLORE_MAX_STEPS = {"visudo": 10}
# One sandboxed process: one thread maps a fresh page while the other forks
# a child that reads it.
FORK_RACE = {
    "version": 1, "name": "fork_race",
    "filters": {"rules": [{"nr": "mmap"}, {"nr": "fork"}, {"nr": "exit_group"}]},
    "processes": [{
        "name": "p", "sandboxed": True,
        "threads": [
            {"name": "t0", "ops": [{"op": "mmap", "vaddr": 0x80000}]},
            {"name": "t1", "ops": [{"op": "fork", "child": [{"op": "read", "vaddr": 0x80000}]}]},
        ],
    }],
}
# sgx_data_only with a second host thread, which writes the data bridge
# page while the enclave runs and then reads the secret page.
ENCLAVE_RACE_THREAD = {
    "name": "other", "rsp": 0x302000,
    "ops": [{"op": "write", "vaddr": 0x201000, "string": "zz"}, {"op": "read", "vaddr": 0x80000, "len": 4}],
}


def executable_lines(code: CodeType) -> set[int]:
    """The lines ``code`` and every code object nested in it run."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= executable_lines(const)
    return lines


class LineTracer:
    """The lines that ran, by file, of the files under ``prefix``."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.ran: dict[str, set[int]] = {}

    def __call__(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(self.prefix):
            return None
        lines = self.ran.setdefault(filename, set())
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def __enter__(self) -> LineTracer:
        sys.settrace(self)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(None)


def run_scenarios() -> None:
    from dptisim.scenario import _VARIANTS, build_simulation, load_scenario, scenario_from_dict
    from dptisim.tasks import explore, explore_all

    for path in sorted((ROOT / "scenarios").glob("*.json")):
        sc = load_scenario(path)
        for variant in _VARIANTS.values():
            factory = lambda: build_simulation(sc, variant)  # noqa: E731
            factory().run_seeded(0, sc.schedule.get("max_steps", 1000))
            max_steps = EXPLORE_MAX_STEPS.get(path.stem, sc.schedule.get("max_steps", 24))
            explore(factory, max_steps)
            explore_all(factory, max_steps)
    enclave_race = json.loads((ROOT / "scenarios" / "sgx_data_only.json").read_text())
    enclave_race["processes"][0]["threads"].append(ENCLAVE_RACE_THREAD)
    for race in (scenario_from_dict(FORK_RACE), scenario_from_dict(enclave_race)):
        for variant in _VARIANTS.values():
            explore(lambda: build_simulation(race, variant), 200)


def main() -> int:
    import pytest

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch, LineTracer(str(PACKAGE) + os.sep) as tracer:
        os.chdir(scratch)
        try:
            status = pytest.main(
                [str(ROOT / "tests"), str(ROOT / "perfbench" / "tests"), "-q", "-p", "no:cacheprovider",
                 f"--rootdir={ROOT}"]
            )
            run_scenarios()
        finally:
            os.chdir(cwd)
    total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        unrun = sorted(executable_lines(compile(source, str(path), "exec")) - tracer.ran.get(str(path), set()))
        for line in unrun:
            print(f"{path.relative_to(ROOT)}:{line}: {lines[line - 1].strip()}")
        total += len(unrun)
    print(f"{total} executable lines never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
