"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with `pytest -s` to see them on passing runs)."""

import itertools
import json
import random
import time
from contextlib import contextmanager
from dataclasses import replace

from dptisim import EcallOp, MapSpec, ReadOp, Simulation, SyscallOp, Variant, WriteOp
from dptisim.bench import alias_sweep_suite, getppid_suite, sgx_suite, string_sweep_suite
from dptisim.costmodel import CostTable
from dptisim.dpti import make_syscall_context
from dptisim.events import KillCause, SyscallEvent
from dptisim.filters import SYSCALL_NRS, FilterBuilder
from dptisim.scenario import build_simulation, check_expectations, load_scenario
from dptisim.sgxdom import (
    build_isolated_mapping,
    classify_eexit,
)
from dptisim.tasks import explore, extract_kills
from dptisim.vmem import PAGE_SIZE, AccessKind, AccessMode

from conftest import SCENARIOS


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {title}: FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {num:02d} {title}: PASS", flush=True)


TOCTOU_FIXTURES = [
    "toctou_openat.json",
    "toctou_alias.json",
    "toctou_procmem.json",
    "toctou_mprotect.json",
    "toctou_mmap_alias.json",
]


def test_criterion_1_toctou_elimination():
    with criterion(1, "TOCTOU elimination over exhaustive interleavings"):
        start = time.monotonic()
        for name in TOCTOU_FIXTURES:
            sc = load_scenario(SCENARIOS / name)
            max_steps = sc.schedule.get("max_steps", 24)
            for variant, expect_zero in ((None, False), (Variant.STASH, True), (Variant.FREEZE, True)):
                report = explore(
                    lambda: build_simulation(sc, variant_override=variant),
                    max_steps=max_steps,
                )
                assert report.truncated_paths == 0, (name, variant)
                if expect_zero:
                    assert report.witnesses == 0, (name, variant, report.example_witness)
                    assert report.deadlock_paths == 0, (name, variant)
                else:
                    assert report.witnesses >= 1, (name, "unprotected baseline must race")
                assert check_expectations(sc, report, variant) == []
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"exhaustive suite took {elapsed:.1f}s"


def _restoration_round(rng: random.Random, variant: Variant):
    """One randomized protect/restore round trip; returns 'killed' or None
    after asserting bitwise restoration."""
    sim = Simulation(variant=variant, cores=2)
    procs = [sim.add_process(f"p{i}") for i in range(2)]
    base = 0x40000 + rng.randrange(8) * 0x10000
    executable = rng.random() < 0.15
    primary = MapSpec(
        vaddr=base,
        pages=2,
        writable=rng.random() < 0.8,
        user=True,
        executable=executable,
        shared=True,
        label="primary",
    )
    frames = sim.map_region(procs[0].asid, primary)
    for i in range(rng.randrange(3)):
        owner = procs[rng.randrange(2)]
        sim.map_region(
            owner.asid,
            MapSpec(
                vaddr=0x900000 + i * 0x10000,
                pages=2,
                writable=rng.random() < 0.5,
                user=rng.random() < 0.9,
                executable=False,
                shared=True,
                alias_of="primary",
            ),
        )
    length = rng.choice((1, 5, 120, PAGE_SIZE - 1, PAGE_SIZE + 40))
    offset = rng.randrange(0, PAGE_SIZE - 1) if length < PAGE_SIZE else rng.randrange(0, PAGE_SIZE - 50)
    string = bytes(rng.randrange(1, 256) for _ in range(length))
    vaddr = base + offset
    frame_data = sim.vmem.frames
    addr, pos = vaddr, 0
    payload = string + b"\x00"
    while pos < len(payload):
        frame = frame_data[frames[(addr // PAGE_SIZE) - base // PAGE_SIZE]]
        chunk = min(len(payload) - pos, PAGE_SIZE - addr % PAGE_SIZE)
        frame[addr % PAGE_SIZE : addr % PAGE_SIZE + chunk] = payload[pos : pos + chunk]
        addr += chunk
        pos += chunk

    task = sim.add_thread(procs[0], [], name="carrier")
    # warm one TLB entry so the flush path is exercised
    sim.vmem.access(0, procs[0].asid, AccessMode.KERNEL, AccessKind.READ, base)

    def snapshot():
        state = {}
        for space in sim.vmem.spaces.values():
            for vpn, pte in space.entries.items():
                state[(space.asid, vpn)] = replace(pte)
        return state

    def probe():
        out = {}
        for space in sorted(sim.vmem.spaces.values(), key=lambda s: s.asid):
            for vpn in space.entries:
                for mode in (AccessMode.USER, AccessMode.KERNEL):
                    for kind in (AccessKind.READ, AccessKind.WRITE, AccessKind.EXEC):
                        fault, _ = sim.vmem.access(1, space.asid, mode, kind, vpn * PAGE_SIZE)
                        out[(space.asid, vpn, mode, kind)] = fault and fault.reason
        return out

    before = snapshot()
    before_probe = probe()
    ctx = make_syscall_context(SyscallOp(SYSCALL_NRS["openat"], (0, vaddr, 0)))
    record = sim.engine.protect_argument(task, ctx, 1)
    if record is False:
        assert variant == Variant.STASH and executable, "only stash+exec may kill here"
        return "killed"
    assert record is not None
    assert sim.engine.restore(task, record)
    after = snapshot()
    assert after.keys() == before.keys()
    for key in before:
        assert after[key] == before[key], (key, variant)
    assert probe() == before_probe
    return None


def test_criterion_2_restoration_exactness():
    with criterion(2, "1000 randomized protect/restore round trips are bitwise exact"):
        rng = random.Random(20260810)
        killed = 0
        for i in range(1000):
            variant = Variant.STASH if i % 2 == 0 else Variant.FREEZE
            if _restoration_round(rng, variant) == "killed":
                killed += 1
        assert killed < 200  # executable-page rejections, excluded by design


def test_criterion_3_filter_scaling_law():
    with criterion(3, "constant-time lookup vs linear scan; 295/395/360 exact"):
        report = getppid_suite()[0]
        assert report.row("vanilla").cycles == 295
        assert report.row("seccomp").cycles == 395
        assert report.row("dpti").cycles == 360

        table = CostTable()
        totals = []
        for rule_count in (1, 349):
            fb = FilterBuilder()
            fb.add_rule("getppid")
            nr, extra = 0, 0
            while extra < rule_count - 1:
                if nr != SYSCALL_NRS["getppid"]:
                    fb.add_rule(nr)
                    extra += 1
                nr += 1
            sim = Simulation(variant=Variant.STASH)
            proc = sim.add_process("p", sandboxed=True, filters=fb.install())
            from dptisim import SyscallOp

            sim.add_thread(proc, [SyscallOp(SYSCALL_NRS["getppid"], ())], name="t")
            sim.run_seeded(0)
            from dptisim.costmodel import accumulate

            totals.append(accumulate(sim.events, table).total)
        assert totals[0] == totals[1]

        from dptisim.costmodel import accumulate
        from dptisim.events import SeccompEvalEvent

        scans = [
            accumulate([SeccompEvalEvent(nr=110, decision="allow", scanned=pos)], table).total
            for pos in (1, 50, 349)
        ]
        assert scans[0] < scans[1] < scans[2]


def test_criterion_4_deep_filter_cost_shape():
    with criterion(4, "deep-filter totals 2038/2351 within 2%, flush dominant"):
        start = time.monotonic()
        report = string_sweep_suite()[0]
        one = report.row("1-string")
        ten = report.row("10-string")
        assert abs(one.cycles - 2038) <= 0.02 * 2038, one.cycles
        assert abs(ten.cycles - 2351) <= 0.02 * 2351, ten.cycles
        added = {k: v for k, v in one.components.items() if k != "base"}
        assert max(added, key=added.get) == "tlb_flush"
        assert CostTable().tlb_flush == 458
        assert time.monotonic() - start < 5.0


def test_criterion_5_alias_cost_shape():
    with criterion(5, "alias sweep strictly increasing and affine"):
        report = alias_sweep_suite()[0]
        totals = {m: report.row(f"{m}-mapping").cycles for m in (1, 2, 5, 10)}
        assert totals[1] < totals[2] < totals[5] < totals[10]
        slope = totals[2] - totals[1]
        assert totals[5] == totals[1] + 4 * slope
        assert totals[10] == totals[1] + 9 * slope
        table = CostTable()
        assert slope == 2 * (table.pte_manipulate + table.tlb_flush)
        assert 2 * table.tlb_flush / slope > 0.5  # flush share dominates


def test_criterion_6_stash_rejects_executable_pages():
    with criterion(6, "executable argument pages: stash kills, freeze permits"):
        sc = load_scenario(SCENARIOS / "exec_page_argument.json")
        stash = build_simulation(sc, variant_override=Variant.STASH)
        stash.run_seeded(0)
        assert [k["cause"] for k in extract_kills(stash.events)] == [KillCause.EXECUTABLE_PAGE]

        freeze = build_simulation(sc, variant_override=Variant.FREEZE)
        freeze.run_seeded(0)
        assert extract_kills(freeze.events) == []
        done = [e for e in freeze.events if isinstance(e, SyscallEvent) and e.name == "openat"]
        assert done and done[0].outcome == "executed"


ENCLAVE = 0x100000
CBP = 0x200000
DBP = 0x201000
STACK = 0x300000


def _confinement_sim(variant, script, host_pages=1):
    sim = Simulation(variant=variant)
    proc = sim.add_process("host")
    sim.map_region(proc.asid, MapSpec(vaddr=0x80000, pages=host_pages))
    sim.map_region(proc.asid, MapSpec(vaddr=ENCLAVE, pages=2))
    sim.map_region(proc.asid, MapSpec(vaddr=CBP, pages=1, writable=False, executable=True))
    sim.map_region(proc.asid, MapSpec(vaddr=DBP, pages=1))
    sim.map_region(proc.asid, MapSpec(vaddr=STACK, pages=4))
    domain = build_isolated_mapping(
        sim.vmem, sim.vmem.spaces[proc.asid], "e",
        {ENCLAVE // PAGE_SIZE, ENCLAVE // PAGE_SIZE + 1},
        CBP // PAGE_SIZE, [DBP], variant, script=script,
    )
    sim.enclaves["e"] = domain
    sim.add_thread(proc, [EcallOp("e")], name="caller", rsp=STACK + 2 * PAGE_SIZE)
    return sim, domain


def test_criterion_7_sgx_confinement():
    with criterion(7, "enclave confinement: data-only, register tamper, exits, reads"):
        # (a) data-only attack faults/kills under both variants
        for name in ("sgx_data_only.json",):
            sc = load_scenario(SCENARIOS / name)
            for variant in (Variant.STASH, Variant.FREEZE):
                sim = build_simulation(sc, variant_override=variant)
                sim.run_seeded(0)
                assert [k["cause"] for k in extract_kills(sim.events)] == [KillCause.ISOLATION_VIOLATION]
                assert check_expectations(sc, sim.build_report(), variant) == []

        # (b) register tamper ends in a stack-tamper kill, never a return
        sc = load_scenario(SCENARIOS / "sgx_rop.json")
        for variant in (Variant.STASH, Variant.FREEZE):
            sim = build_simulation(sc, variant_override=variant)
            sim.run_seeded(0)
            assert [k["cause"] for k in extract_kills(sim.events)] == [KillCause.STACK_TAMPER]
            returned = [
                e for e in sim.events
                if e.to_dict()["type"] == "EcallEvent" and e.outcome == "returned"
            ]
            assert not returned

        # (c) exit-leaf sweep: every bridge-page offset is legal-or-kill and
        # every target off the bridge page kills
        for optimized in (False, True):
            sim, domain = _confinement_sim(Variant.STASH, [])
            domain = replace(domain, cbp=replace(domain.cbp, syscall_exit_stub=optimized))
            for offset in range(PAGE_SIZE):
                outcome = classify_eexit(domain, CBP + offset).outcome
                assert outcome in ("legal", "kill"), offset
            rng = random.Random(99)
            picked = 0
            while picked < 20:
                target = rng.randrange(0, 0x400000)
                if CBP <= target <= CBP + PAGE_SIZE:
                    continue
                assert classify_eexit(domain, target).outcome == "kill", hex(target)
                picked += 1

        # (d) stash denies reads of withheld host frames; freeze permits
        # reads and denies writes: exhaustive over a 16-page host region
        for page in range(16):
            addr = 0x80000 + page * PAGE_SIZE
            for kind in ("read", "write"):
                for variant in (Variant.STASH, Variant.FREEZE):
                    op = ReadOp(addr, 1) if kind == "read" else WriteOp(addr, b"!")
                    sim, _ = _confinement_sim(variant, [op], host_pages=16)
                    sim.run_seeded(0)
                    killed = bool(extract_kills(sim.events))
                    expected = not (variant == Variant.FREEZE and kind == "read")
                    assert killed == expected, (page, kind, variant)


def test_criterion_8_sgx_transition_costs():
    with criterion(8, "transition overheads 19.9/9.9 and 44.0/24.0 within 1pp"):
        ecall, ocall = sgx_suite()
        assert abs(ecall.row("fault-exit").overhead - 19.9) <= 1.0
        assert abs(ecall.row("syscall-exit").overhead - 9.9) <= 1.0
        assert abs(ocall.row("fault-exit").overhead - 44.0) <= 1.0
        assert abs(ocall.row("syscall-exit").overhead - 24.0) <= 1.0
        for report in (ecall, ocall):
            assert report.row("syscall-exit").cycles < report.row("fault-exit").cycles


def test_criterion_9_visudo_flagship():
    with criterion(9, "visudo fixture: benign edit allowed, overrides killed"):
        sc = load_scenario(SCENARIOS / "visudo.json")
        simple = [r for r in sc.raw["filters"]["rules"] if "arg" not in r]
        openat_strings = next(r for r in sc.raw["filters"]["rules"] if r["nr"] == "openat")
        execve_strings = next(r for r in sc.raw["filters"]["rules"] if r["nr"] == "execve")
        assert len(simple) == 52
        assert len(openat_strings["strings"]) == 47
        assert len(execve_strings["strings"]) == 1
        for variant in (Variant.STASH, Variant.FREEZE):
            sim = build_simulation(sc, variant_override=variant)
            report = sim.run_seeded(0)
            kills = {(k["process"], k["cause"]) for k in report.kills}
            assert kills == {
                ("override", KillCause.FILTER_VIOLATION),
                ("wrongfile", KillCause.FILTER_VIOLATION),
            }
            assert report.witnesses == [] and report.deadlocked == []
            assert check_expectations(sc, report, variant) == []


def test_criterion_10_determinism():
    with criterion(10, "seeded runs are byte-identical"):
        for name, variant in (("visudo.json", Variant.STASH), ("sgx_data_only.json", Variant.FREEZE)):
            sc = load_scenario(SCENARIOS / name)
            hashes = set()
            for _ in range(2):
                sim = build_simulation(sc, variant_override=variant)
                hashes.add(sim.run_seeded(seed=11).hash_hex())
            assert len(hashes) == 1, name
        sc = load_scenario(SCENARIOS / "toctou_openat.json")
        explorations = {
            explore(lambda: build_simulation(sc, variant_override=Variant.STASH), 40).hash_hex()
            for _ in range(2)
        }
        assert len(explorations) == 1
