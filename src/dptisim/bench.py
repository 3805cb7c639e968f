"""Benchmark suites over the calibrated cost model.

Each suite runs the real simulation machinery for single-syscall or
single-transition scenarios and folds the emitted events through the cost
table, comparing filtering regimes side by side: no filtering, the
sequential-scan baseline, and constant-lookup filtering with optional deep
argument checks.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .costmodel import (
    BenchReport,
    CostTable,
    CycleTotals,
    accumulate,
    bench_report,
)
from .dpti import Variant
from .events import EcallEvent, OcallEvent, SeccompEvalEvent
from .filters import (
    SYSCALL_NRS,
    Disposition,
    FilterBuilder,
    CmpOp,
    SeccompProgram,
    SeccompRule,
    seccomp_eval,
)
from .sgxdom import EnclaveOcall, build_isolated_mapping
from .tasks import EcallOp, MapSpec, Simulation, SyscallOp
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


def simple_filter_program(benchmarked: str = "getppid") -> SeccompProgram:
    rules = [SeccompRule(nr, (), Disposition.DENY) for nr in blocked_nrs(ALLOWED_EIGHT)]
    for name in ALLOWED_EIGHT:
        if name != benchmarked:
            rules.append(SeccompRule(SYSCALL_NRS[name], (), Disposition.ALLOW))
    rules.append(SeccompRule(SYSCALL_NRS[benchmarked], (), Disposition.ALLOW))
    return SeccompProgram(rules)


def simple_filter_builder() -> FilterBuilder:
    fb = FilterBuilder()
    for name in ALLOWED_EIGHT:
        fb.add_rule(name)
    return fb


def _run_events(
    *,
    variant: Optional[Variant],
    sandboxed: bool,
    builder: Optional[FilterBuilder],
    ops: Sequence,
    mappings: Sequence[MapSpec] = (),
    alias_count: int = 0,
) -> Simulation:
    sim = Simulation(variant=variant, name="bench")
    table = builder.install() if builder is not None else None
    proc = sim.add_process("bench", sandboxed=sandboxed, filters=table)
    path_frames: list[int] = []
    for spec in mappings:
        frames = sim.map_region(proc.asid, spec)
        if not path_frames:
            path_frames = frames
    for i in range(alias_count - 1):
        sim.map_region(
            proc.asid,
            MapSpec(vaddr=PATH_VADDR + (i + 1) * PAGE_SIZE, pages=len(path_frames),
                    alias_frames=tuple(path_frames), shared=True),
        )
    sim.add_thread(proc, list(ops), name="t1")
    sim.run_seeded(0)
    return sim


def _totals(sim: Simulation, table: CostTable, only: Optional[type] = None) -> CycleTotals:
    events = sim.events if only is None else [e for e in sim.events if isinstance(e, only)]
    return accumulate(events, table)


def getppid_suite(table: Optional[CostTable] = None) -> list[BenchReport]:
    """Latency of one fast, side-effect-free syscall under the three regimes."""
    table = table or CostTable()
    getppid = SyscallOp(SYSCALL_NRS["getppid"], ())

    vanilla = _run_events(variant=None, sandboxed=False, builder=None, ops=[getppid])
    vanilla_totals = _totals(vanilla, table)

    program = simple_filter_program("getppid")
    decision, scanned = seccomp_eval(program, SYSCALL_NRS["getppid"], [0] * 6)
    seccomp_events = list(vanilla.events)
    ev = SeccompEvalEvent(nr=SYSCALL_NRS["getppid"], decision=decision.value, scanned=scanned)
    seccomp_events.append(ev)
    seccomp_totals = accumulate(seccomp_events, table)

    dpti = _run_events(
        variant=Variant.STASH, sandboxed=True, builder=simple_filter_builder(), ops=[getppid]
    )
    dpti_totals = _totals(dpti, table)

    return [
        bench_report(
            "getppid latency (cycles)",
            [("vanilla", vanilla_totals), ("seccomp", seccomp_totals), ("dpti", dpti_totals)],
            baseline="vanilla",
        )
    ]


def _deep_filter_builder(syscall: str, arg: int, strings: Sequence[str]) -> FilterBuilder:
    fb = FilterBuilder()
    for name in ALLOWED_EIGHT:
        if name != syscall:
            fb.add_rule(name)
    for s in strings:
        fb.add_rule_string(syscall, arg, CmpOp.EQ, s)
    return fb


def _decoys(n: int, length: int) -> list[str]:
    return [f"/no/{i:03d}".ljust(length, "z") for i in range(n)]


def string_sweep_suite(
    table: Optional[CostTable] = None,
    syscall: str = "openat",
    counts: Sequence[int] = (1, 2, 5, 10),
    variant: Variant = Variant.STASH,
) -> list[BenchReport]:
    """Deep-filter cost versus the position of the matching string: the
    correct value sits last, so n strings cost n comparisons."""
    table = table or CostTable()
    arg = 1
    target = BENCH_PATH if syscall == "openat" else WRITE_PAYLOAD
    args = (0, PATH_VADDR, len(target)) if syscall == "write" else (0, PATH_VADDR, 0)
    mapping = MapSpec(vaddr=PATH_VADDR, pages=1, data=((PATH_VADDR, target.encode() + b"\x00"),))
    op = SyscallOp(SYSCALL_NRS[syscall], args)

    simple = simple_filter_builder()
    if syscall not in ALLOWED_EIGHT:
        simple.add_rule(syscall)
    rows = []
    baseline = _run_events(
        variant=variant, sandboxed=True, builder=simple, ops=[op], mappings=[mapping]
    )
    rows.append(("no-filter", _totals(baseline, table)))
    for n in counts:
        strings = _decoys(n - 1, len(target)) + [target]
        sim = _run_events(
            variant=variant, sandboxed=True,
            builder=_deep_filter_builder(syscall, arg, strings),
            ops=[op], mappings=[mapping],
        )
        rows.append((f"{n}-string", _totals(sim, table)))
    return [
        bench_report(
            f"{syscall} deep string filtering, {variant.value} (cycles)", rows,
            baseline="no-filter",
        )
    ]


def alias_sweep_suite(
    table: Optional[CostTable] = None,
    syscall: str = "openat",
    counts: Sequence[int] = (1, 2, 5, 10),
    variant: Variant = Variant.STASH,
) -> list[BenchReport]:
    """Deep-filter cost versus the number of mappings of the argument page,
    including the one the syscall uses; every alias pays its own page-table
    manipulation and shootdown, twice."""
    table = table or CostTable()
    mapping = MapSpec(
        vaddr=PATH_VADDR, pages=1, shared=True,
        data=((PATH_VADDR, BENCH_PATH.encode() + b"\x00"),),
    )
    op = SyscallOp(SYSCALL_NRS[syscall], (0, PATH_VADDR, 0))
    rows = []
    for m in counts:
        sim = _run_events(
            variant=variant, sandboxed=True,
            builder=_deep_filter_builder(syscall, 1, [BENCH_PATH]),
            ops=[op], mappings=[mapping], alias_count=m,
        )
        rows.append((f"{m}-mapping", _totals(sim, table)))
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


def _sgx_sim(variant: Optional[Variant], syscall_exit: bool, with_ocall: bool) -> Simulation:
    sim = Simulation(variant=variant, name="sgx-bench")
    proc = sim.add_process("host")
    sim.map_region(proc.asid, MapSpec(vaddr=ENCLAVE_VADDR, pages=2))
    sim.map_region(proc.asid, MapSpec(vaddr=CBP_VADDR, pages=1, writable=False, executable=True))
    sim.map_region(proc.asid, MapSpec(vaddr=DBP_VADDR, pages=1))
    sim.map_region(proc.asid, MapSpec(vaddr=STACK_VADDR, pages=4))
    script = [EnclaveOcall()] if with_ocall else []
    domain = build_isolated_mapping(
        sim.vmem, sim.vmem.spaces[proc.asid], "e1",
        {ENCLAVE_VADDR // PAGE_SIZE, ENCLAVE_VADDR // PAGE_SIZE + 1},
        CBP_VADDR // PAGE_SIZE, [DBP_VADDR], variant,
        syscall_exit=syscall_exit, script=script,
    )
    sim.enclaves["e1"] = domain
    sim.add_thread(proc, [EcallOp("e1")], name="t1", rsp=STACK_VADDR + 2 * PAGE_SIZE)
    sim.run_seeded(0)
    return sim


def sgx_suite(table: Optional[CostTable] = None) -> list[BenchReport]:
    """Domain-transition latency: unconfined, page-fault exit, syscall exit."""
    table = table or CostTable()
    reports = []
    for call, with_ocall, only in (("ecall", False, EcallEvent), ("ocall", True, OcallEvent)):
        rows = []
        for label, variant, sysexit in (
            ("unprotected", None, False),
            ("fault-exit", Variant.STASH, False),
            ("syscall-exit", Variant.STASH, True),
        ):
            sim = _sgx_sim(variant, sysexit, with_ocall)
            rows.append((label, _totals(sim, table, only=only)))
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
    table = table or CostTable()
    reports: list[BenchReport] = []
    for name in names:
        reports.extend(SUITES[name](table))
    return reports
