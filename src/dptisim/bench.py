"""Benchmark suites over the calibrated cost model.

Every row is a scenario, built and run through the same path as
``dptisim run`` (``scenario_from_dict``, ``build_simulation``, a seeded run),
with the emitted events folded through the cost table. The suites compare
filtering regimes side by side: no filtering, the sequential-scan baseline,
and constant-lookup filtering with optional deep argument checks. Each
suite's scenarios are loaded once per process, on first use.
"""

from __future__ import annotations

from functools import cache
from typing import Any, Optional, Sequence

from .costmodel import DEFAULT_TABLE, BenchReport, CostTable, CycleTotals, accumulate, bench_report
from .dpti import Variant
from .events import EcallEvent, Event, OcallEvent, SeccompEvalEvent
from .filters import SYSCALL_NRS, Disposition, SeccompProgram, SeccompRule, seccomp_eval
from .scenario import _VARIANTS, Scenario, build_simulation, scenario_from_dict
from .vmem import PAGE_SIZE

# The canonical simple-filter configuration: 8 allowed syscalls against 341
# rejected ones, the benchmarked syscall's allow rule last in scan order.
ALLOWED_EIGHT = ["read", "write", "close", "fstat", "mmap", "brk", "exit_group", "getppid"]
BLOCKED_COUNT = 341

PATH_VADDR = 0x40000
BENCH_PATH = "/etc/hosts"  # 10 characters
WRITE_PAYLOAD = "x" * 204  # write-syscall buffers are longer than path names


def blocked_nrs(allowed: Sequence[str], count: int = BLOCKED_COUNT) -> list[int]:
    allowed_nrs = {SYSCALL_NRS[name] for name in allowed}
    out = []
    nr = 0
    while len(out) < count:
        if nr not in allowed_nrs:
            out.append(nr)
        nr += 1
    return out


@cache
def simple_filter_program(benchmarked: str = "getppid") -> SeccompProgram:
    rules = [SeccompRule(nr, (), Disposition.DENY) for nr in blocked_nrs(ALLOWED_EIGHT)]
    for name in ALLOWED_EIGHT:
        if name != benchmarked:
            rules.append(SeccompRule(SYSCALL_NRS[name], (), Disposition.ALLOW))
    rules.append(SeccompRule(SYSCALL_NRS[benchmarked], (), Disposition.ALLOW))
    return SeccompProgram(rules)


def _allow(names: Sequence[str]) -> list[dict[str, Any]]:
    return [{"nr": name} for name in names]


def _one_thread(ops: list[dict[str, Any]], rules: Optional[list[dict[str, Any]]] = None,
                mappings: Sequence[dict[str, Any]] = ()) -> Scenario:
    """Process "bench" with one thread running ``ops``, sandboxed under
    ``rules`` when given."""
    proc = {"name": "bench", "mappings": list(mappings), "threads": [{"name": "t1", "ops": ops}]}
    raw = {"version": 1, "name": "bench", "processes": [proc]}
    if rules is not None:
        proc["sandboxed"] = True
        raw["filters"] = {"rules": rules}
    return scenario_from_dict(raw)


def _events(sc: Scenario, variant: Optional[Variant]) -> list[Event]:
    """The events of one seeded run of ``sc`` under ``variant``; no report
    is built."""
    sim = build_simulation(sc, variant_override=variant)
    sim.run(seed=sc.schedule.get("seed", 0), max_steps=sc.schedule.get("max_steps", 1000))
    return sim.events


def _row(sc: Scenario, variant: Optional[Variant], table: CostTable,
         only: Optional[type] = None) -> CycleTotals:
    events = _events(sc, variant)
    return accumulate(events if only is None else [e for e in events if isinstance(e, only)], table)


@cache
def _getppid_scenario(sandboxed: bool) -> Scenario:
    return _one_thread([{"op": "syscall", "nr": "getppid"}], _allow(ALLOWED_EIGHT) if sandboxed else None)


def getppid_suite(table: Optional[CostTable] = None) -> list[BenchReport]:
    """Latency of one fast, side-effect-free syscall under the three regimes."""
    table = table or DEFAULT_TABLE
    vanilla_events = _events(_getppid_scenario(False), None)

    decision, scanned = seccomp_eval(simple_filter_program("getppid"), SYSCALL_NRS["getppid"], [0] * 6)
    ev = SeccompEvalEvent(nr=SYSCALL_NRS["getppid"], decision=decision.value, scanned=scanned)
    return [
        bench_report(
            "getppid latency (cycles)",
            [
                ("vanilla", accumulate(vanilla_events, table)),
                ("seccomp", accumulate(vanilla_events + [ev], table)),
                ("dpti", _row(_getppid_scenario(True), Variant.STASH, table)),
            ],
            baseline="vanilla",
        )
    ]


def _deep_rules(syscall: str, strings: Sequence[str]) -> list[dict[str, Any]]:
    """The simple filter with ``syscall``'s argument 1 checked against ``strings``."""
    return _allow([n for n in ALLOWED_EIGHT if n != syscall]) + [
        {"nr": syscall, "arg": 1, "strings": list(strings)}
    ]


def _decoys(n: int, length: int) -> list[str]:
    return [f"/no/{i:03d}".ljust(length, "z") for i in range(n)]


@cache
def _string_scenario(syscall: str, n: Optional[int]) -> Scenario:
    """``syscall`` on a path (openat) or buffer page, filtered against ``n``
    strings with the matching one last, or with no argument check for None."""
    target = BENCH_PATH if syscall == "openat" else WRITE_PAYLOAD
    args = [0, PATH_VADDR, len(target) if syscall == "write" else 0]
    if n is None:
        rules = _allow(ALLOWED_EIGHT + ([] if syscall in ALLOWED_EIGHT else [syscall]))
    else:
        rules = _deep_rules(syscall, _decoys(n - 1, len(target)) + [target])
    mapping = {"vaddr": PATH_VADDR, "data": [{"at": PATH_VADDR, "string": target}]}
    return _one_thread([{"op": "syscall", "nr": syscall, "args": args}], rules, [mapping])


def string_sweep_suite(
    table: Optional[CostTable] = None,
    syscall: str = "openat",
    counts: Sequence[int] = (1, 2, 5, 10),
    variant: Variant = Variant.STASH,
) -> list[BenchReport]:
    """Deep-filter cost versus the position of the matching string: the
    correct value sits last, so n strings cost n comparisons."""
    table = table or DEFAULT_TABLE
    rows = [("no-filter", _row(_string_scenario(syscall, None), variant, table))]
    rows += [(f"{n}-string", _row(_string_scenario(syscall, n), variant, table)) for n in counts]
    return [
        bench_report(
            f"{syscall} deep string filtering, {variant.value} (cycles)", rows,
            baseline="no-filter",
        )
    ]


@cache
def _alias_scenario(syscall: str, m: int) -> Scenario:
    """The path page mapped ``m`` times, the first mapping the one the
    syscall reads."""
    mappings = [{
        "vaddr": PATH_VADDR, "shared": True, "label": "path",
        "data": [{"at": PATH_VADDR, "string": BENCH_PATH}],
    }]
    mappings += [
        {"vaddr": PATH_VADDR + i * PAGE_SIZE, "alias_of": "path", "shared": True} for i in range(1, m)
    ]
    op = {"op": "syscall", "nr": syscall, "args": [0, PATH_VADDR, 0]}
    return _one_thread([op], _deep_rules(syscall, [BENCH_PATH]), mappings)


def alias_sweep_suite(
    table: Optional[CostTable] = None,
    syscall: str = "openat",
    counts: Sequence[int] = (1, 2, 5, 10),
    variant: Variant = Variant.STASH,
) -> list[BenchReport]:
    """Deep-filter cost versus the number of mappings of the argument page,
    including the one the syscall uses; every alias pays its own page-table
    manipulation and shootdown, twice."""
    table = table or DEFAULT_TABLE
    rows = [(f"{m}-mapping", _row(_alias_scenario(syscall, m), variant, table)) for m in counts]
    return [
        bench_report(
            f"{syscall} deep filtering by alias mappings, {variant.value} (cycles)",
            rows, baseline="1-mapping",
        )
    ]


ENCLAVE_VADDR = 0x100000
CBP_VADDR = 0x200000
DBP_VADDR = 0x201000
STACK_VADDR = 0x300000


@cache
def _sgx_scenario(with_ocall: bool, syscall_exit: bool) -> Scenario:
    """A host thread that calls into a two-page enclave, which calls out
    once when ``with_ocall``; the enclave takes the build's variant."""
    raw = {
        "version": 1,
        "name": "sgx-bench",
        "processes": [{
            "name": "host",
            "mappings": [
                {"vaddr": ENCLAVE_VADDR, "pages": 2},
                {"vaddr": CBP_VADDR, "write": False, "exec": True},
                {"vaddr": DBP_VADDR},
                {"vaddr": STACK_VADDR, "pages": 4},
            ],
            "threads": [{
                "name": "t1", "rsp": STACK_VADDR + 2 * PAGE_SIZE,
                "ops": [{"op": "ecall", "enclave": "e1"}],
            }],
        }],
        "enclaves": [{
            "name": "e1", "process": "host", "pages": {"vaddr": ENCLAVE_VADDR, "pages": 2},
            "cbp_vaddr": CBP_VADDR, "dbp_vaddrs": [DBP_VADDR], "syscall_exit": syscall_exit,
            "script": [{"op": "ocall"}] if with_ocall else [],
        }],
    }
    return scenario_from_dict(raw)


def sgx_suite(table: Optional[CostTable] = None) -> list[BenchReport]:
    """Domain-transition latency: unconfined, page-fault exit, syscall exit."""
    table = table or DEFAULT_TABLE
    reports = []
    for call, with_ocall, only in (("ecall", False, EcallEvent), ("ocall", True, OcallEvent)):
        rows = [
            (label, _row(_sgx_scenario(with_ocall, sysexit), variant, table, only=only))
            for label, variant, sysexit in (
                ("unprotected", None, False),
                ("fault-exit", Variant.STASH, False),
                ("syscall-exit", Variant.STASH, True),
            )
        ]
        reports.append(
            bench_report(f"{call} transition latency (cycles)", rows, baseline="unprotected")
        )
    return reports


SUITES = {
    "getppid": getppid_suite,
    "strings": string_sweep_suite,
    "aliases": alias_sweep_suite,
    "sgx": sgx_suite,
}


def run_suites(names: Sequence[str], table: Optional[CostTable] = None) -> list[BenchReport]:
    table = table or DEFAULT_TABLE
    reports: list[BenchReport] = []
    for name in names:
        reports.extend(SUITES[name](table))
    return reports


def scenario_matrix(sc: Scenario, table: CostTable) -> list[BenchReport]:
    """Cost the same scenario under no protection, stashing, and freezing."""
    rows = [(name, _row(sc, variant, table)) for name, variant in _VARIANTS.items()]
    return [bench_report(f"{sc.name}: variant cost matrix (cycles)", rows, baseline="none")]
