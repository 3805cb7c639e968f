import itertools
import random

import pytest

from dptisim import EcallOp, MapSpec, ReadOp, Simulation, Variant, WriteOp
from dptisim.events import (
    DiagnosticEvent,
    EcallEvent,
    EnclaveLazyMapEvent,
    KillCause,
    OcallEvent,
    StatEvent,
)
from dptisim.sgxdom import (
    CbpContents,
    ENCLU_STUB_END,
    ENTRY_STUB_END,
    EXIT_STUB_START,
    EnclaveEexit,
    EnclaveOcall,
    EnclaveSetReg,
    OverlapWithEnclaveError,
    SYSCALL_INSN_START,
    UnalignedDbpError,
    build_isolated_mapping,
    classify_eexit,
)
from dptisim.scenario import build_simulation, scenario_from_dict
from dptisim.tasks import extract_kills
from dptisim.vmem import PAGE_SIZE, AccessMode

from conftest import enclave_outsider

ENCLAVE = 0x100000
CBP = 0x200000
DBP = 0x201000
SECRET = 0x80000
STACK = 0x300000
RSP = STACK + 2 * PAGE_SIZE  # two permitted stack pages below, two protected above


def host_sim(variant, script, *, syscall_exit=False, rsp=RSP, extra_threads=(), enclave_pages=2):
    sim = Simulation(variant=variant)
    proc = sim.add_process("host")
    sim.map_region(proc.asid, MapSpec(vaddr=SECRET, pages=1, data=((SECRET, b"host secret"),)))
    sim.map_region(proc.asid, MapSpec(vaddr=ENCLAVE, pages=enclave_pages))
    sim.map_region(proc.asid, MapSpec(vaddr=CBP, pages=1, writable=False, executable=True))
    sim.map_region(proc.asid, MapSpec(vaddr=DBP, pages=1))
    sim.map_region(proc.asid, MapSpec(vaddr=STACK, pages=4))
    first = ENCLAVE // PAGE_SIZE
    domain = build_isolated_mapping(
        sim.vmem, sim.vmem.spaces[proc.asid], "e1", set(range(first, first + enclave_pages)),
        CBP // PAGE_SIZE, [DBP], variant, syscall_exit=syscall_exit, script=script,
    )
    sim.enclaves["e1"] = domain
    sim.add_thread(proc, [EcallOp("e1")], name="caller", rsp=rsp)
    for i, (ops, thread_rsp) in enumerate(extra_threads):
        sim.add_thread(proc, ops, name=f"x{i}", rsp=thread_rsp)
    return sim, proc, domain


def kill_causes(sim):
    return [k["cause"] for k in extract_kills(sim.events)]


class TestBuildIsolatedMapping:
    def test_stash_maps_exactly_bridges_before_lazy_faults(self):
        sim, proc, domain = host_sim(Variant.STASH, [])
        isolated = sim.vmem.spaces[domain.isolated_asid]
        assert set(isolated.entries) == {CBP // PAGE_SIZE, DBP // PAGE_SIZE}

    def test_freeze_maps_all_host_pages_readonly(self):
        sim, proc, domain = host_sim(Variant.FREEZE, [])
        host = sim.vmem.spaces[proc.asid]
        isolated = sim.vmem.spaces[domain.isolated_asid]
        assert set(isolated.entries) == set(host.entries)
        for vpn, pte in isolated.entries.items():
            assert pte.executable == (vpn == CBP // PAGE_SIZE)
            assert pte.writable == (vpn == DBP // PAGE_SIZE)

    def test_unaligned_dbp_rejected(self):
        sim = Simulation()
        proc = sim.add_process("host")
        sim.map_region(proc.asid, MapSpec(vaddr=CBP, pages=1, executable=True))
        with pytest.raises(UnalignedDbpError):
            build_isolated_mapping(
                sim.vmem, sim.vmem.spaces[proc.asid], "e", {1}, CBP // PAGE_SIZE,
                [DBP + 12], Variant.STASH,
            )

    def test_bridge_overlapping_enclave_rejected(self):
        sim = Simulation()
        proc = sim.add_process("host")
        sim.map_region(proc.asid, MapSpec(vaddr=ENCLAVE, pages=1, executable=True))
        with pytest.raises(OverlapWithEnclaveError):
            build_isolated_mapping(
                sim.vmem, sim.vmem.spaces[proc.asid], "e", {ENCLAVE // PAGE_SIZE},
                ENCLAVE // PAGE_SIZE, [], Variant.STASH,
            )


class TestEnterExit:
    def test_enter_aligns_and_saves_stack_pointer(self):
        sim, proc, domain = host_sim(Variant.STASH, [EnclaveEexit()], rsp=RSP + 24)
        sim.step(1)
        assert sim.tasks[1].micro.at_entry == (RSP, 0)
        assert sim.tasks[1].cpu.rsp == RSP

    def test_pages_below_aligned_sp_stay_writable(self):
        script = [WriteOp(RSP - 8, b"arg")]
        sim, proc, domain = host_sim(Variant.STASH, script)
        report = sim.run_seeded(0)
        assert not extract_kills(sim.events)
        assert not report.deadlocked

    def test_pages_at_or_above_aligned_sp_protected(self):
        for variant in (Variant.STASH, Variant.FREEZE):
            script = [WriteOp(RSP + 8, b"ret")]
            sim, proc, domain = host_sim(variant, script)
            sim.run_seeded(0)
            assert kill_causes(sim) == [KillCause.ISOLATION_VIOLATION]

    def test_two_threads_share_isolated_mapping(self):
        sim, proc, domain = host_sim(
            Variant.STASH, [EnclaveEexit()],
            extra_threads=([[EcallOp("e1")], STACK + PAGE_SIZE],),
        )
        sim.step(1)
        sim.step(2)
        assert sim.tasks[1].asid == sim.tasks[2].asid == domain.isolated_asid

    def test_benign_return_restores_registers_and_mapping(self):
        sim, proc, domain = host_sim(Variant.STASH, [EnclaveEexit()])
        sim.run_seeded(0)
        task = sim.tasks[1]
        assert not extract_kills(sim.events)
        assert task.asid == proc.asid
        assert (task.cpu.rsp, task.cpu.rbp) == (RSP, 0)
        ev = next(e for e in sim.events if isinstance(e, EcallEvent))
        assert ev.outcome == "returned" and ev.exit_kind == "fault"

    def test_rbp_tamper_kills(self):
        script = [EnclaveSetReg("rbp", 0xDEAD), EnclaveEexit()]
        sim, proc, domain = host_sim(Variant.STASH, script)
        sim.run_seeded(0)
        assert kill_causes(sim) == [KillCause.STACK_TAMPER]

    def test_rsp_tamper_kills(self):
        script = [EnclaveSetReg("rsp", RSP - 64), EnclaveEexit()]
        sim, proc, domain = host_sim(Variant.FREEZE, script)
        sim.run_seeded(0)
        assert kill_causes(sim) == [KillCause.STACK_TAMPER]

    def test_unprotected_domain_skips_checks(self):
        script = [EnclaveSetReg("rbp", 0xDEAD), EnclaveEexit()]
        sim, proc, domain = host_sim(None, script)
        sim.run_seeded(0)
        assert not extract_kills(sim.events)

    def test_unprotected_exit_sets_rbx_only_for_an_explicit_target(self):
        for target, rbx in (("legal", 7), (0x1234, 0x1234)):
            sim, proc, domain = host_sim(None, [EnclaveSetReg("rbx", 7), EnclaveEexit(target)])
            sim.run_seeded(0)
            assert not extract_kills(sim.events)
            assert (sim.tasks[1].cpu.rax, sim.tasks[1].cpu.rbx) == (4, rbx)

    @pytest.mark.parametrize("variant", [None, Variant.STASH, Variant.FREEZE], ids=["none", "stash", "freeze"])
    def test_entry_reports_stale_bytes_on_a_lent_stack_page(self, variant):
        """A confined enclave's entry reports each stack page below the
        aligned stack pointer that still holds a non-zero byte; an
        unconfined enclave is lent no page and reports none."""
        sim, proc, domain = host_sim(variant, [EnclaveEexit()])
        sim.vmem.poke(proc.asid, RSP - PAGE_SIZE + 100, b"\x01")
        sim.step(1)
        diagnostics = [ev.message for ev in sim.events if isinstance(ev, DiagnosticEvent)]
        stale = f"stale non-zero bytes on stack page {RSP // PAGE_SIZE - 1:#x} below the aligned stack pointer"
        assert diagnostics == ([] if variant is None else [stale])


class TestCallsFromOutsideTheHost:
    """An enclave lives in the address space it was built in: a call from
    any other is a segfault of the caller's process, under every variant,
    and changes nothing of the host."""

    @pytest.mark.parametrize("variant", [None, Variant.STASH, Variant.FREEZE], ids=["none", "stash", "freeze"])
    @pytest.mark.parametrize("caller, process", [
        ("fork child", "host.child2"), ("guest", "guest"), ("exec", "host"),
    ])
    def test_the_call_kills_its_caller(self, caller, process, variant):
        sim = build_simulation(scenario_from_dict(enclave_outsider(caller)), variant_override=variant)
        host = sim.processes[1]
        secret = sim.vmem.entry(host.asid, SECRET // PAGE_SIZE).frame_id
        sim.run_seeded(0, 200)
        (kill,) = [k for k in extract_kills(sim.events) if k["process"] == process]
        assert kill["cause"] == KillCause.SEGFAULT and "enclave evil" in kill["detail"]
        (killed,) = [step for step in sim.trace if step[2:] == ["ecall:evil", "killed"]]
        assert sim.processes[sim.tasks[killed[1]].tgid].name == process
        ecalls = [ev.tid for ev in sim.events if isinstance(ev, EcallEvent)]
        assert killed[1] not in ecalls
        assert bytes(sim.vmem.frames[secret][:11]) == b"host secret"


class TestOcall:
    def test_ocall_requires_stack_grown_downwards(self):
        script = [EnclaveSetReg("rsp", RSP + 8), EnclaveOcall(), EnclaveEexit()]
        sim, proc, domain = host_sim(Variant.STASH, script)
        sim.run_seeded(0)
        assert kill_causes(sim) == [KillCause.STACK_TAMPER]

    def test_ocall_with_lower_rsp_round_trips(self):
        script = [EnclaveSetReg("rsp", RSP - 32), EnclaveOcall(),
                  EnclaveSetReg("rsp", RSP), EnclaveEexit()]
        sim, proc, domain = host_sim(Variant.STASH, script)
        sim.run_seeded(0)
        assert not extract_kills(sim.events)
        ev = next(e for e in sim.events if isinstance(e, OcallEvent))
        assert ev.exit_kind == "fault" and ev.protected

    def test_ocall_removes_thread_stack_from_isolation(self):
        """While one thread is out on an outcall, a sibling enclave thread
        cannot write that thread's stack pages."""
        victim_stack_page = STACK  # below caller's aligned rsp, so normally writable
        script = [EnclaveOcall(), EnclaveEexit()]
        sim, proc, domain = host_sim(Variant.STASH, script)
        sim.step(1)  # enter isolation
        sim.step(1)  # ocall: caller's stack pages leave the isolated mapping
        isolated = sim.vmem.spaces[domain.isolated_asid]
        assert victim_stack_page // PAGE_SIZE not in isolated.entries
        sim.run_seeded(0)
        assert not extract_kills(sim.events)


class TestEexitDestinations:
    def test_first_instruction_after_cbp_is_the_legal_exit(self):
        sim, proc, domain = host_sim(Variant.STASH, [])
        behavior = classify_eexit(domain, domain.exit_fault_vaddr)
        assert behavior.outcome == "legal" and behavior.exit_kind == "fault"

    def test_arbitrary_host_target_kills(self):
        script = [EnclaveEexit(SECRET + 16)]
        sim, proc, domain = host_sim(Variant.STASH, script)
        sim.run_seeded(0)
        assert kill_causes(sim) == [KillCause.ISOLATION_VIOLATION]

    def test_misaligned_landing_in_nop_sled_slides_to_legal_exit(self):
        script = [EnclaveEexit(CBP + 1234)]
        sim, proc, domain = host_sim(Variant.STASH, script)
        sim.run_seeded(0)
        assert not extract_kills(sim.events)

    def test_landing_in_resume_stub_without_pending_exit_kills(self):
        script = [EnclaveEexit(CBP + ENTRY_STUB_END)]
        sim, proc, domain = host_sim(Variant.STASH, script)
        sim.run_seeded(0)
        assert kill_causes(sim) == [KillCause.ISOLATION_VIOLATION]

    def test_offset_behavior_table_is_total_and_two_valued(self):
        for optimized in (False, True):
            cbp = CbpContents(syscall_exit_stub=optimized)
            for offset in range(PAGE_SIZE):
                behavior = cbp.behavior(offset)
                assert behavior.outcome in ("legal", "kill")
                if offset < ENCLU_STUB_END:
                    assert behavior.outcome == "kill"
                else:
                    assert behavior.outcome == "legal"

    @pytest.mark.parametrize("offset", [-1, PAGE_SIZE])
    def test_offset_outside_the_bridge_page_rejected(self, offset):
        with pytest.raises(ValueError, match="outside the bridge page"):
            CbpContents(syscall_exit_stub=True).behavior(offset)

    def test_random_non_cbp_targets_all_kill(self):
        sim, proc, domain = host_sim(Variant.STASH, [])
        rng = random.Random(7)
        cbp_lo = CBP
        cbp_hi = CBP + PAGE_SIZE
        picked = 0
        while picked < 20:
            target = rng.randrange(0, 0x400000)
            if cbp_lo <= target <= cbp_hi:  # the page plus its sanctioned exit address
                continue
            assert classify_eexit(domain, target).outcome == "kill"
            picked += 1


class TestSyscallExitOptimization:
    def test_stub_entry_exits_via_syscall_path(self):
        script = [EnclaveEexit()]
        sim, proc, domain = host_sim(Variant.STASH, script, syscall_exit=True)
        sim.run_seeded(0)
        assert not extract_kills(sim.events)
        ev = next(e for e in sim.events if isinstance(e, EcallEvent))
        assert ev.exit_kind == "syscall"

    def test_optimized_and_fault_exits_reach_identical_post_state(self):
        results = {}
        for syscall_exit in (False, True):
            sim, proc, domain = host_sim(Variant.STASH, [EnclaveEexit()],
                                         syscall_exit=syscall_exit)
            sim.run_seeded(0)
            task = sim.tasks[1]
            results[syscall_exit] = (task.asid, task.cpu.rsp, task.cpu.rbp, tuple(kill_causes(sim)))
        assert results[False] == results[True]

    def test_direct_jump_to_syscall_instruction_only_runs_stat(self):
        script = [EnclaveEexit(CBP + SYSCALL_INSN_START)]
        sim, proc, domain = host_sim(Variant.STASH, script, syscall_exit=True)
        sim.run_seeded(0)
        assert not extract_kills(sim.events)
        stat = [e for e in sim.events if isinstance(e, StatEvent)]
        assert len(stat) == 1 and stat[0].origin == "cbp_stub"
        ev = next(e for e in sim.events if isinstance(e, EcallEvent))
        assert ev.exit_kind == "fault"  # slid past the stub to the exit fault

    def test_stub_absent_when_optimization_disabled(self):
        cbp = CbpContents(syscall_exit_stub=False)
        assert cbp.behavior(EXIT_STUB_START).exit_kind == "fault"
        assert not cbp.behavior(SYSCALL_INSN_START).stat_executed


class TestIsolatedFaults:
    def test_enclave_pages_map_lazily(self):
        script = [WriteOp(ENCLAVE + 8, b"mine"), EnclaveEexit()]
        sim, proc, domain = host_sim(Variant.STASH, script)
        sim.run_seeded(0)
        assert not extract_kills(sim.events)
        assert any(isinstance(e, EnclaveLazyMapEvent) for e in sim.events)
        isolated = sim.vmem.spaces[domain.isolated_asid]
        assert ENCLAVE // PAGE_SIZE in isolated.entries

    def test_write_across_five_lazy_pages_completes(self):
        data = b"e" * (5 * PAGE_SIZE)
        script = [WriteOp(ENCLAVE, data), EnclaveEexit()]
        sim, proc, domain = host_sim(Variant.STASH, script, enclave_pages=5)
        sim.run_seeded(0)
        assert not extract_kills(sim.events)
        assert sum(isinstance(e, EnclaveLazyMapEvent) for e in sim.events) == 5
        written, _ = sim.vmem.read_bytes(0, proc.asid, AccessMode.KERNEL, ENCLAVE, len(data))
        assert written == data

    def test_stash_denies_reads_of_unmapped_host_pages(self):
        script = [ReadOp(SECRET, 4)]
        sim, proc, domain = host_sim(Variant.STASH, script)
        sim.run_seeded(0)
        assert kill_causes(sim) == [KillCause.ISOLATION_VIOLATION]

    def test_freeze_permits_reads_denies_writes(self):
        script = [ReadOp(SECRET, 4), WriteOp(SECRET, b"x")]
        sim, proc, domain = host_sim(Variant.FREEZE, script)
        sim.run_seeded(0)
        assert kill_causes(sim) == [KillCause.ISOLATION_VIOLATION]
        # the read step completed before the write was refused
        trace_outcomes = [t[3] for t in sim.trace]
        assert "running" in trace_outcomes

    def test_dbp_writes_allowed_under_both_variants(self):
        for variant in (Variant.STASH, Variant.FREEZE):
            script = [WriteOp(DBP, b"exchange"), EnclaveEexit()]
            sim, proc, domain = host_sim(variant, script)
            sim.run_seeded(0)
            assert not extract_kills(sim.events)
            data, _ = sim.vmem.read_bytes(0, proc.asid, AccessMode.KERNEL, DBP, 8)
            assert data == b"exchange"


class TestWriteConfinement:
    """Bounded search over short enclave write programs: the only frames an
    isolated enclave can change are bridge pages, its permitted stack pages,
    and enclave pages."""

    TARGETS = {
        "dbp": DBP + 64,
        "secret": SECRET + 8,
        "stack_below": RSP - 16,
        "stack_above": RSP + 16,
        "enclave": ENCLAVE + 32,
    }
    ALLOWED = {"dbp", "stack_below", "enclave"}

    def test_exhaustive_write_programs(self):
        for variant in (Variant.STASH, Variant.FREEZE):
            for program in itertools.chain(
                itertools.product(self.TARGETS, repeat=1),
                itertools.product(self.TARGETS, repeat=2),
            ):
                script = [WriteOp(self.TARGETS[t], b"!") for t in program]
                script.append(EnclaveEexit())
                sim, proc, domain = host_sim(variant, script)
                before = {fid: bytes(data) for fid, data in sim.vmem.frames.items()}
                sim.run_seeded(0)
                changed = {
                    fid for fid, data in sim.vmem.frames.items()
                    if fid in before and data != before[fid]
                }
                host = sim.vmem.spaces[proc.asid]
                allowed_frames = set()
                for name in self.ALLOWED:
                    vpn = self.TARGETS[name] // PAGE_SIZE
                    allowed_frames.add(host.entries[vpn].frame_id)
                assert changed <= allowed_frames, (variant, program)
                forbidden = [t for t in program if t not in self.ALLOWED]
                if forbidden:
                    assert kill_causes(sim) == [KillCause.ISOLATION_VIOLATION]


class TestInterrupt:
    def test_async_exit_resumes_via_bridge_page(self):
        from dptisim.sgxdom import EnclaveInterrupt

        script = [EnclaveInterrupt(), WriteOp(DBP, b"after"), EnclaveEexit()]
        sim, proc, domain = host_sim(Variant.STASH, script)
        sim.run_seeded(0)
        assert not extract_kills(sim.events)
        data, _ = sim.vmem.read_bytes(0, proc.asid, AccessMode.KERNEL, DBP, 5)
        assert data == b"after"
