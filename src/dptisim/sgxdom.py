"""Enclave protection domains built from an isolated address mapping.

While a thread runs enclave code its address space is switched to a reduced
mapping: under stashing only the enclave pages, one code bridge page, the
data bridge pages and the pages below the aligned stack pointer exist at
all; under freezing every host page stays readable but only bridge and stack
pages stay writable. All transitions in and out of the domain funnel through
the code bridge page, and the exit verifies the stack and base pointer
against the values saved on entry.

Enclave code is a scripted op sequence, and the bridge page is modeled as a
page with semantic regions plus an exhaustive offset-behavior table rather
than decoded instructions.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Union

from .dpti import Variant
from .events import (
    DiagnosticEvent,
    EcallEvent,
    EnclaveLazyMapEvent,
    KillCause,
    OcallEvent,
    SgxFaultEvent,
    StatEvent,
)
from .vmem import PAGE_SIZE, AddressSpace, PageFault, PteBit, Vmem, vpn_of

if TYPE_CHECKING:  # tasks imports this module
    from .tasks import ReadOp, WriteOp


class SgxError(Exception):
    pass


class UnalignedDbpError(SgxError):
    pass


class OverlapWithEnclaveError(SgxError):
    pass


# Code bridge page regions, in byte offsets. The enter stub sits first, then
# the resume stub; everything after is single-byte no-ops except for the
# optional exit stub (register setup ending in the one syscall instruction).
ENTRY_STUB_END = 16
ENCLU_STUB_END = 20
EXIT_STUB_START = 20
SYSCALL_INSN_START = 36
SYSCALL_INSN_END = 38


@dataclass(frozen=True)
class CbpBehavior:
    outcome: str  # "legal" | "kill"
    exit_kind: Optional[str]  # "fault" | "syscall" | None on kill
    stat_executed: bool


@dataclass(frozen=True)
class CbpContents:
    """Offset-behavior table for exits landing anywhere on the bridge page.

    Landing at or sliding into the resume stub with no pending asynchronous
    exit faults on the bridge page itself, which is never a permitted fault
    address. Only the full exit stub reaches the driver; a jump into its
    middle or straight at the syscall instruction can at most execute the
    stat syscall (the exit leaf forces the register selecting it) and then
    slides on to the legal exit fault.
    """

    syscall_exit_stub: bool

    def behavior(self, offset: int) -> CbpBehavior:
        if not 0 <= offset < PAGE_SIZE:
            raise ValueError(f"offset {offset} outside the bridge page")
        if offset < ENCLU_STUB_END:
            return CbpBehavior("kill", None, False)
        if self.syscall_exit_stub:
            if offset == EXIT_STUB_START:
                return CbpBehavior("legal", "syscall", False)
            if offset < SYSCALL_INSN_END:
                return CbpBehavior("legal", "fault", True)
        return CbpBehavior("legal", "fault", False)


# ---------------------------------------------------------------------------
# scripted enclave ops: a thread's ReadOp and WriteOp, plus these


@dataclass(frozen=True)
class EnclaveSetReg:
    reg: str  # rsp | rbp | rax | rbx
    value: int


@dataclass(frozen=True)
class EnclaveEexit:
    target: Union[int, str] = "legal"  # explicit address or the sanctioned exit


@dataclass(frozen=True)
class EnclaveOcall:
    pass


@dataclass(frozen=True)
class EnclaveInterrupt:
    pass


EnclaveOp = Union[
    "ReadOp", "WriteOp", EnclaveSetReg, EnclaveEexit, EnclaveOcall, EnclaveInterrupt
]


@dataclass
class EnclaveDomain:
    name: str
    variant: Optional[str]  # a Variant; None models an unconfined enclave
    enclave_vpns: set[int]
    cbp_vpn: int
    host_asid: int
    isolated_asid: Optional[int]
    cbp: CbpContents
    script: list[EnclaveOp] = field(default_factory=list)

    @property
    def exit_fault_vaddr(self) -> int:
        """First instruction after the bridge page: the one permitted fetch fault."""
        return (self.cbp_vpn + 1) * PAGE_SIZE

    def legal_exit_kind(self) -> str:
        return "syscall" if self.cbp.syscall_exit_stub else "fault"


@dataclass
class EnclaveContext:
    """Micro-state of one thread executing inside a domain."""

    domain: EnclaveDomain
    at_entry: tuple[int, int]  # (rsp, rbp)
    # the thread's stack pages below the saved rsp, which the isolation lends it
    stack_vpns: list[int] = field(default_factory=list)
    ip: int = 0
    state: str = "running"  # running | ocall_out | exiting
    exit_kind: Optional[str] = None

    def saved(self) -> tuple:
        """What a step of this call may change of it, for ``put_back``."""
        return self, self.ip, self.state, self.exit_kind

    @staticmethod
    def put_back(saved: tuple) -> None:
        ctx, ctx.ip, ctx.state, ctx.exit_kind = saved


def build_isolated_mapping(
    vmem: Vmem,
    host: AddressSpace,
    name: str,
    enclave_vpns: set[int],
    cbp_vpn: int,
    dbp_vaddrs: list[int],
    variant: Optional[str],
    syscall_exit: bool = False,
    script: Optional[list[EnclaveOp]] = None,
) -> EnclaveDomain:
    """Construct the reusable isolated mapping for one enclave.

    Data bridge pages must be page-aligned (their whole page is exposed) and
    neither they nor the code bridge may lie inside the enclave range.
    """
    dbp_vpns: set[int] = set()
    for vaddr in dbp_vaddrs:
        if vaddr % PAGE_SIZE != 0:
            raise UnalignedDbpError(f"data bridge page at {vaddr:#x} is not page-aligned")
        dbp_vpns.add(vpn_of(vaddr))
    for vpn in dbp_vpns | {cbp_vpn}:
        if vpn in enclave_vpns:
            raise OverlapWithEnclaveError(f"bridge page {vpn:#x} overlaps the enclave")
    for vpn in sorted(dbp_vpns | {cbp_vpn}):
        if vpn not in host.entries:
            raise SgxError(f"bridge page {vpn:#x} not mapped in the host")

    cbp = CbpContents(syscall_exit_stub=syscall_exit)
    if variant is None:
        return EnclaveDomain(
            name, None, set(enclave_vpns), cbp_vpn, host.asid, None, cbp,
            script=list(script or []),
        )

    isolated = vmem.new_address_space()
    if variant == Variant.STASH:
        vmem.map(isolated.asid, cbp_vpn, host.entries[cbp_vpn].frame_id,
                 user=True, writable=False, executable=True)
        for vpn in sorted(dbp_vpns):
            vmem.map(isolated.asid, vpn, host.entries[vpn].frame_id,
                     user=True, writable=True, executable=False)
        # Enclave pages are mapped lazily on first touch.
    else:
        for vpn, pte in sorted(host.entries.items()):
            vmem.map(
                isolated.asid, vpn, pte.frame_id,
                user=True,
                writable=vpn in dbp_vpns,
                executable=vpn == cbp_vpn,
            )
    return EnclaveDomain(
        name, variant, set(enclave_vpns), cbp_vpn, host.asid,
        isolated.asid, cbp, script=list(script or []),
    )


def classify_eexit(domain: EnclaveDomain, target: int) -> CbpBehavior:
    """Outcome of an exit-leaf transfer to an arbitrary target address."""
    cbp_base = domain.cbp_vpn * PAGE_SIZE
    if target == domain.exit_fault_vaddr:
        return CbpBehavior("legal", "fault", False)
    if cbp_base <= target < cbp_base + PAGE_SIZE:
        return domain.cbp.behavior(target - cbp_base)
    return CbpBehavior("kill", None, False)


class SgxRuntime:
    """Domain enter/exit transitions and the isolated-thread fault policy.

    The simulation owns the runtime, which holds it weakly, and its one Vmem
    directly.
    """

    def __init__(self, sim):
        self.sim = weakref.proxy(sim)
        self.vmem: Vmem = sim.vmem

    # ------------------------------------------------------------------
    # transitions

    def enter(self, task, domain: EnclaveDomain) -> None:
        """Switch the calling thread onto the isolated mapping.

        The stack pointer is aligned down to a page boundary; pages at and
        above it (holding return addresses) are withheld from the isolation,
        pages below stay usable for outcall argument passing.
        """
        vmem = self.vmem
        aligned = task.cpu.rsp - (task.cpu.rsp % PAGE_SIZE)
        task.cpu.rsp = aligned
        saved = (aligned, task.cpu.rbp)
        if domain.variant is None:
            task.micro = EnclaveContext(domain, saved)
            return
        # The stack lent is the mapped run of pages below the aligned stack
        # pointer that has the flags of the page just below it.
        host = domain.host_asid
        top = start = vpn_of(aligned)
        below = vmem.entry(host, top - 1)
        flags = below and (below.vm_write, below.vm_exec, below.shared)
        while (pte := vmem.entry(host, start - 1)) is not None and (
                pte.vm_write, pte.vm_exec, pte.shared) == flags:
            start -= 1
        permitted = list(range(start, top))
        self._lend_stack(domain, permitted, True)
        for vpn in permitted:
            frame = vmem.frames[vmem.entry(host, vpn).frame_id]
            if vmem.fp is not None:
                vmem.fp[0].add(("frame", frame.frame_id))
            if frame.data.count(0) != len(frame.data):  # any non-zero byte
                self.sim.emit(
                    DiagnosticEvent(
                        tid=task.tid,
                        message=f"stale non-zero bytes on stack page {vpn:#x} below the aligned stack pointer",
                    )
                )
        task.asid = domain.isolated_asid
        task.micro = EnclaveContext(domain, saved, permitted)

    def _lend_stack(self, domain: EnclaveDomain, vpns: list[int], lend: bool) -> None:
        """Lend the stack pages ``vpns`` to the isolation, or take them back:
        map or unmap them under stashing, let or stop writes under freezing."""
        vmem, asid = self.vmem, domain.isolated_asid
        for vpn in vpns:
            if domain.variant == Variant.FREEZE:
                vmem.set_bit(asid, vpn, PteBit.WRITABLE, lend)
                vmem.tlb_flush(asid, vpn)
            elif lend and vmem.entry(asid, vpn) is None:
                vmem.map(asid, vpn, vmem.entry(domain.host_asid, vpn).frame_id,
                         user=True, writable=True, executable=False)
            elif not lend and vmem.entry(asid, vpn) is not None:
                vmem.unmap(asid, vpn)
                vmem.tlb_flush(asid, vpn)

    def step(self, task) -> str:
        """Run one enclave-script op (or transition); 'again' or 'done'."""
        ctx: EnclaveContext = task.micro
        domain = ctx.domain
        if ctx.state == "ocall_out":
            # Outcall body finished; re-enter the isolation.
            if domain.variant is not None:
                self._lend_stack(domain, ctx.stack_vpns, True)
                task.asid = domain.isolated_asid
            ctx.state = "running"
            return "again"
        if ctx.state == "exiting" or ctx.ip >= len(domain.script):
            return self._ecall_return(task, ctx)
        op = domain.script[ctx.ip]
        if isinstance(op, EnclaveSetReg):
            setattr(task.cpu, op.reg, op.value)
            ctx.ip += 1
            return "again"
        if isinstance(op, EnclaveInterrupt):
            # Asynchronous exit: state is parked, the handler runs, and the
            # resume stub on the bridge page re-enters the enclave.
            self.sim.emit(
                DiagnosticEvent(tid=task.tid, message="async exit resumed via bridge-page resume stub")
            )
            ctx.ip += 1
            return "again"
        if isinstance(op, EnclaveOcall):
            return self._ocall(task, ctx)
        if isinstance(op, EnclaveEexit):
            return self._eexit(task, ctx, op.target)
        # a read or write, through the same access loop as thread code
        outcome = self.sim.user_access(task, op, domain)
        if outcome == "killed":
            return "done"
        if outcome == "ok":
            ctx.ip += 1
        return "again"

    def on_isolated_fault(self, task, domain: EnclaveDomain, fault: PageFault) -> str:
        """Faults from isolated threads: enclave pages map lazily ('retry');
        anything else means the enclave reached for data it was not given
        ('killed')."""
        vmem = self.vmem
        if fault.vpn in domain.enclave_vpns:
            if vmem.entry(domain.isolated_asid, fault.vpn) is not None:
                vmem.set_perms(domain.isolated_asid, fault.vpn, True, True, True)
            else:
                vmem.map(domain.isolated_asid, fault.vpn, vmem.entry(domain.host_asid, fault.vpn).frame_id,
                         user=True, writable=True, executable=True)
            vmem.tlb_flush(domain.isolated_asid, fault.vpn)
            self.sim.emit(EnclaveLazyMapEvent(tid=task.tid, vpn=fault.vpn))
            return "retry"
        self.sim.emit(SgxFaultEvent(tid=task.tid, vaddr=fault.vaddr, classification="kill"))
        self.sim.kill_group(
            task.tgid, KillCause.ISOLATION_VIOLATION,
            f"enclave touched non-bridge address {fault.vaddr:#x} ({fault.reason})",
        )
        return "killed"

    def _ocall(self, task, ctx: EnclaveContext) -> str:
        domain = ctx.domain
        saved_rsp, _ = ctx.at_entry
        if task.cpu.rsp > saved_rsp:
            self.sim.kill_group(
                task.tgid, KillCause.STACK_TAMPER,
                f"outcall with stack pointer {task.cpu.rsp:#x} above saved {saved_rsp:#x}",
            )
            return "done"
        if domain.variant is not None:
            # The thread's own stack leaves the isolated mapping for the
            # duration, so sibling enclave threads cannot alter it.
            self._lend_stack(domain, ctx.stack_vpns, False)
            task.asid = domain.host_asid
        self.sim.emit(
            OcallEvent(
                tid=task.tid, enclave=domain.name,
                protected=domain.variant is not None,
                exit_kind=domain.legal_exit_kind() if domain.variant is not None else None,
            )
        )
        ctx.state = "ocall_out"
        ctx.ip += 1
        return "again"

    def _eexit(self, task, ctx: EnclaveContext, target: Union[int, str]) -> str:
        domain = ctx.domain
        task.cpu.rax = 4
        if domain.variant is None:
            # Unconfined: every exit leaves; only an explicit target sets rbx.
            if target != "legal":
                task.cpu.rbx = int(target)
            ctx.state = "exiting"
            ctx.ip += 1
            return "again"
        if target == "legal":
            if domain.cbp.syscall_exit_stub:
                target = domain.cbp_vpn * PAGE_SIZE + EXIT_STUB_START
            else:
                target = domain.exit_fault_vaddr
        task.cpu.rbx = int(target)
        behavior = classify_eexit(domain, int(target))
        if behavior.stat_executed:
            self.sim.emit(StatEvent(tid=task.tid, origin="cbp_stub"))
        if behavior.outcome == "kill":
            self.sim.emit(
                SgxFaultEvent(tid=task.tid, vaddr=int(target), classification="kill")
            )
            self.sim.kill_group(
                task.tgid, KillCause.ISOLATION_VIOLATION,
                f"exit-leaf transfer to disallowed target {int(target):#x}",
            )
            return "done"
        self.sim.emit(
            SgxFaultEvent(
                tid=task.tid,
                vaddr=domain.exit_fault_vaddr if behavior.exit_kind == "fault" else int(target),
                classification="legal_exit",
            )
        )
        ctx.exit_kind = behavior.exit_kind
        ctx.state = "exiting"
        ctx.ip += 1
        return "again"

    def _ecall_return(self, task, ctx: EnclaveContext) -> str:
        domain = ctx.domain
        saved_rsp, saved_rbp = ctx.at_entry
        protected = domain.variant is not None
        if protected and (task.cpu.rsp != saved_rsp or task.cpu.rbp != saved_rbp):
            self.sim.kill_group(
                task.tgid, KillCause.STACK_TAMPER,
                f"return with rsp={task.cpu.rsp:#x} rbp={task.cpu.rbp:#x}, "
                f"saved rsp={saved_rsp:#x} rbp={saved_rbp:#x}",
            )
            return "done"
        task.cpu.rsp, task.cpu.rbp = saved_rsp, saved_rbp
        if protected:
            self._lend_stack(domain, ctx.stack_vpns, False)
            task.asid = domain.host_asid
        exit_kind = ctx.exit_kind or (domain.legal_exit_kind() if protected else None)
        self.sim.emit(
            EcallEvent(
                tid=task.tid, enclave=domain.name, protected=protected,
                exit_kind=exit_kind, outcome="returned",
            )
        )
        task.micro = None
        return "done"
