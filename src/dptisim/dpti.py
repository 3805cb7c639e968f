"""Syscall dispatch with page-table protection windows.

Dispatch distinguishes three cases: unregistered syscalls kill the caller,
registered ones without argument filters run directly, and string-filtered
arguments get their backing pages protected for the duration of the syscall.
Two variants exist: stashing clears the user bit (page fully inaccessible
from user mode), freezing clears the writable bit (page read-only), and a
frozen mapping takes no copy-on-write copy while any window holds it.
Either way the bytes the filter checked are the bytes the syscall body
consumes. A window is held by its syscall: the syscall's restore ends it,
and a kill ends the dying syscall's window. Windows may overlap: the first
to close a mapping saves its bits, each holds one count on it, and the last
to end puts the bits back. A copy-on-write copy of a mapping that windows
hold leaves their hold: the copy gets the saved bits, while the windows
keep the shared frame closed.

Syscalls advance through explicit phases (lookup, deep check, body, restore)
so a scheduler can preempt between the check and the use; that window is
where the unprotected baseline races.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Optional

from .events import (
    CowEvent,
    ExecEvent,
    ExitEvent,
    ForkEvent,
    KillCause,
    MprotectEvent,
    OpenEvent,
    ProcMemWriteEvent,
    ProtectEvent,
    RestoreEvent,
    StatEvent,
    StringCheckEvent,
    SyscallEvent,
    WriteSyscallEvent,
)
from .filters import COMPARE, SYSCALL_NAMES, Disposition, FilterRule, StringFilter
from .vmem import (
    PAGE_SIZE,
    AccessMode,
    DoubleMapError,
    FaultReason,
    PageFault,
    PteBit,
    UnmappedError,
    Vmem,
    page_offset,
    page_spans,
    vpn_of,
)

# Longest page span a NUL-terminated string argument may cover.
MAX_SPAN = 2


class Variant:
    STASH = "stash"
    FREEZE = "freeze"


class SyscallPhase:
    LOOKUP = "lookup"
    DEEP_CHECK = "deep_check"
    BODY = "body"
    RESTORE = "restore"


@dataclass(slots=True)
class ClosedMapping:
    """One mapping that open windows hold closed: the bits it had before the
    first of them closed it, and how many windows hold it. Under freezing
    it is the freeze: a write to it makes no copy-on-write copy."""

    asid: int
    vpn: int
    frame_id: int
    user: bool
    writable: bool
    executable: bool
    windows: int = 0


@dataclass(eq=False)
class ProtectionRecord:
    """One syscall's protection window: the frames it closed, and every
    mapping of them it holds closed. Its syscall context is its one owner."""

    frames: list[int] = field(default_factory=list)
    mappings: list[ClosedMapping] = field(default_factory=list)

    def saved(self) -> tuple[ProtectionRecord, int, int]:
        """What puts this record's lists, which only grow, back as they are
        now, for ``put_back``."""
        return self, len(self.frames), len(self.mappings)

    @staticmethod
    def put_back(saved: tuple[ProtectionRecord, int, int]) -> None:
        record, frames, mappings = saved
        del record.frames[frames:]
        del record.mappings[mappings:]


@dataclass
class SyscallContext:
    """One in-flight syscall; phases are the schedulable preemption points."""

    op: Any  # the thread op that entered the kernel; bodies read operands from it
    nr: int
    name: str
    args: list[int]
    phase: str = SyscallPhase.LOOKUP
    rule: Optional[FilterRule] = None
    disposition: str = "unsandboxed"
    record: Optional[ProtectionRecord] = None  # the window, once an argument opens it
    # each replaced, never changed in place, so that ``saved`` may keep it
    checked: dict[int, bytes] = field(default_factory=dict)
    used: dict[int, bytes] = field(default_factory=dict)
    result: Optional[int] = None

    def saved(self) -> tuple:
        """What a step of this syscall may change of it, with its window's
        record as ``ProtectionRecord.saved`` gives it, for ``put_back``."""
        record = self.record
        return (
            self, self.phase, self.rule, self.disposition, record, self.checked, self.used,
            self.result, record.saved() if record is not None else None,
        )

    @staticmethod
    def put_back(saved: tuple) -> None:
        (ctx, ctx.phase, ctx.rule, ctx.disposition, ctx.record, ctx.checked, ctx.used, ctx.result,
         record) = saved
        if record is not None:
            ProtectionRecord.put_back(record)


def make_syscall_context(op: Any) -> SyscallContext:
    """The context of the syscall ``op`` makes, from its ``syscall()`` form."""
    nr, args = op.syscall()
    # the fallback name is built only for a number no table names
    name = SYSCALL_NAMES.get(nr) or f"sys_{nr}"
    return SyscallContext(op, nr, name, [*args, 0, 0, 0, 0, 0, 0][:6])


class DptiEngine:
    """Kernel-side policy: filter dispatch, protection windows, fault handling.

    The engine mutates simulation state through the host object (`sim`),
    which provides tasks, memory, the event log, and kill/stall/wake hooks.
    The host owns the engine, which holds it weakly, so a simulation is
    freed when its last reference goes, and the host's one Vmem directly,
    so that memory is reached without a call through the weak proxy.
    """

    def __init__(self, sim, variant: Optional[str], deny_mode: str = "kill"):
        self.sim = weakref.proxy(sim)
        self.vmem: Vmem = sim.vmem
        self.variant = variant
        self.deny_mode = deny_mode
        # the open windows over each frame inside one, in the order they closed it
        self.by_frame: dict[int, list[ProtectionRecord]] = {}
        self.closed: dict[tuple[int, int, int], ClosedMapping] = {}  # by (asid, vpn, frame_id)

    # ------------------------------------------------------------------
    # dispatch state machine

    def step_syscall(self, task) -> str:
        """Advance one phase; returns 'again', 'stalled', or 'done'."""
        ctx: SyscallContext = task.micro
        if ctx.phase == SyscallPhase.LOOKUP:
            return self._lookup_step(task, ctx)
        if ctx.phase == SyscallPhase.DEEP_CHECK:
            return self._deep_check_step(task, ctx)
        if ctx.phase == SyscallPhase.BODY:
            return self._body_step(task, ctx)
        return self._restore_step(task, ctx)

    def _lookup_step(self, task, ctx: SyscallContext) -> str:
        if not task.sandboxed or ctx.name in ("exit", "exit_group"):
            # exit/exit_group are the filter cleanup path and always proceed
            ctx.disposition = "unsandboxed" if not task.sandboxed else Disposition.ALLOW
            ctx.phase = SyscallPhase.BODY
            return self._body_step(task, ctx)
        rule = task.filters.lookup(ctx.nr)
        ctx.rule = rule
        ctx.disposition = rule.disposition
        if rule.disposition == Disposition.DENY:
            if self.deny_mode == "errno":
                ctx.result = -1
                self._finish(task, ctx, outcome="denied")
                return "done"
            self.kill(task, KillCause.UNREGISTERED_SYSCALL, f"{ctx.name} not registered")
            return "done"
        if rule.disposition == Disposition.ALLOW:
            ctx.phase = SyscallPhase.BODY
            return "again"
        # Primitive argument values already live in registers; check in place.
        for prim in rule.primitives:
            if not COMPARE[prim.op](ctx.args[prim.arg_index], prim.value):
                self.kill(
                    task,
                    KillCause.FILTER_VIOLATION,
                    f"{ctx.name} arg{prim.arg_index} fails {prim.op} {prim.value}",
                )
                return "done"
        ctx.phase = SyscallPhase.DEEP_CHECK if rule.strings else SyscallPhase.BODY
        return "again"

    def _deep_check_step(self, task, ctx: SyscallContext) -> str:
        for sf in ctx.rule.strings:
            if self.protect_argument(task, ctx, sf.arg_index) is False:
                return "done"  # killed while protecting
            matched = self.check_string(task, ctx, sf)
            if not matched:
                if matched is False:
                    self.kill(
                        task,
                        KillCause.FILTER_VIOLATION,
                        f"{ctx.name} arg{sf.arg_index} string not allowed",
                    )
                return "done"  # killed, by the fetch if not by the check
        ctx.phase = SyscallPhase.BODY
        return "again"

    def _body_step(self, task, ctx: SyscallContext) -> str:
        status = self.BODIES.get(ctx.name, DptiEngine._body_generic)(self, task, ctx)
        if status == "stalled":
            return "stalled"
        if status == "killed":
            return "done"
        if ctx.record is not None:
            ctx.phase = SyscallPhase.RESTORE
            return "again"
        self._finish(task, ctx)
        return "done"

    def _restore_step(self, task, ctx: SyscallContext) -> str:
        # A kill here means concurrent use of a protected frame.
        if self.restore(task, ctx.record):
            self._finish(task, ctx)
        return "done"

    def _finish(self, task, ctx: SyscallContext, outcome: str = "executed") -> None:
        checked, used = ctx.checked, ctx.used
        self.sim.emit(
            SyscallEvent(
                tid=task.tid,
                nr=ctx.nr,
                name=ctx.name,
                sandboxed=task.sandboxed,
                disposition=ctx.disposition,
                outcome=outcome,
                result=ctx.result,
                checked={k: v.decode("latin-1") for k, v in checked.items()} if checked else None,
                used={k: v.decode("latin-1") for k, v in used.items()} if used else None,
            )
        )

    # ------------------------------------------------------------------
    # protection windows

    def protect_argument(self, task, ctx: SyscallContext, arg_index: int):
        """Protect every page the string argument spans, aliases included, in
        the syscall's one window: the first argument opens it, later ones add
        the pages it lacks.

        Pages are protected one by one while scanning for the terminator, so
        a byte is only trusted once its page can no longer change. Returns
        the window, None when protection is disabled, or False if the caller
        was killed (bad pointer, executable page under stashing).
        """
        if self.variant is None:
            return None
        vmem = self.vmem
        vaddr = ctx.args[arg_index]
        record = ctx.record
        if record is None:
            record = ctx.record = ProtectionRecord()
        had_frames, had_mappings = len(record.frames), len(record.mappings)
        for vpn, offset, _, _ in page_spans(vaddr, MAX_SPAN * PAGE_SIZE - page_offset(vaddr)):
            if not self._protect_page(task, record, vpn):
                return False
            frame = vmem.frames[vmem.spaces[task.asid].entries[vpn].frame_id]
            if vmem.fp is not None:
                vmem.fp[0].add(("frame", frame.frame_id))
            if frame.data.find(0, offset) >= 0:
                break
        else:
            self.kill(
                task,
                KillCause.BAD_POINTER,
                f"{ctx.name} arg{arg_index} unterminated within {MAX_SPAN} pages",
            )
            return False
        self.sim.emit(
            ProtectEvent(
                tid=task.tid,
                variant=self.variant,
                frames=record.frames[had_frames:],
                mappings=len(record.mappings) - had_mappings,
                pages=len(record.frames) - had_frames,
            )
        )
        return record

    def _protect_page(self, task, record: ProtectionRecord, vpn: int) -> bool:
        vmem = self.vmem
        pte = vmem.entry(task.asid, vpn)
        if pte is None:
            self.kill(task, KillCause.BAD_POINTER, f"argument page {vpn:#x} unmapped")
            return False
        if pte.cow:
            # Resolve sharing first so the protection stays private to this
            # process and survives an exec by the sharing sibling.
            self._resolve_cow(task.tid, task.asid, vpn)
        frame_id = pte.frame_id
        if frame_id in record.frames:
            return True  # an earlier argument of this syscall closed it
        if self.variant == Variant.STASH and pte.executable:
            self.kill(task, KillCause.EXECUTABLE_PAGE, f"stash refused executable page {vpn:#x}")
            return False
        windows = self._windows(frame_id, write=True)
        for asid, a_vpn in vmem.aliases_of(frame_id):
            self._close_mapping(record, asid, a_vpn)
        record.frames.append(frame_id)
        windows.append(record)
        return True

    def _windows(self, frame_id: int, write: bool = False) -> list[ProtectionRecord]:
        """The open windows over ``frame_id``, in the order they closed it,
        recorded as a read, or with ``write`` a write, of the frame's window
        location. That location also holds the mappings of the frame that
        the windows hold closed, so every step that reads or writes either
        calls this for the frame."""
        fp = self.vmem.fp
        if fp is not None:
            if write:
                self.vmem.wrote(("window", frame_id))
            else:
                fp[0].add(("window", frame_id))
        return self.by_frame.setdefault(frame_id, []) if write else self.by_frame.get(frame_id, [])

    def saved_window(self, loc: tuple) -> tuple:
        """The journal entry of the windows over a frame as they are now,
        with each one's record and the mappings of the frame they hold
        closed."""
        frame_id = loc[1]
        records = self.by_frame.get(frame_id)
        held = [record.saved() for record in records] if records is not None else None
        closed = [
            (key, mapping, mapping.windows) for key, mapping in self.closed.items() if key[2] == frame_id
        ]
        return self._put_window, frame_id, held, closed

    def _put_window(self, entry: tuple) -> None:
        _, frame_id, held, closed = entry
        if held is None:
            self.by_frame.pop(frame_id, None)
        else:
            self.by_frame[frame_id] = [saved[0] for saved in held]
            for saved in held:
                ProtectionRecord.put_back(saved)
        for key in [key for key in self.closed if key[2] == frame_id]:
            del self.closed[key]
        for key, mapping, windows in closed:
            mapping.windows = windows
            self.closed[key] = mapping

    def cover_new_mapping(self, asid: int, vpn: int) -> None:
        """A fresh mapping of a frame appeared while that frame is inside
        protection windows (an alias mapped mid-syscall): fold it into every
        covering record, so each window stays complete and the last to end
        returns the mapping to the permissions it was created with."""
        frame_id = self.vmem.pte(asid, vpn).frame_id
        if self._windows(frame_id):
            for record in self._windows(frame_id, write=True):
                self._close_mapping(record, asid, vpn)

    def _resolve_cow(self, tid: int, asid: int, vpn: int) -> None:
        """Give ``asid`` its own copy of the copy-on-write page ``vpn``, in
        place in its page-table entry, and record the copy. A copy of a
        mapping that windows hold leaves their hold: it gets the bits saved
        for the mapping."""
        vmem = self.vmem
        old = vmem.pte(asid, vpn).frame_id
        # a mapping is held closed only while a window is over its frame
        closed = self._windows(old) and self.closed.get((asid, vpn, old))
        if closed:
            vmem.set_perms(asid, vpn, closed.user, False, closed.executable)
        new = vmem.cow_resolve(asid, vpn)
        self.sim.emit(CowEvent(tid=tid, asid=asid, vpn=vpn, old_frame=old, new_frame=new))

    def _close_mapping(self, record: ProtectionRecord, asid: int, vpn: int) -> None:
        """Hold one mapping closed for ``record``: the first window over it
        saves its bits, then stashes or freezes it; a later one only counts."""
        vmem = self.vmem
        pte = vmem.entry(asid, vpn)
        key = (asid, vpn, pte.frame_id)
        closed = self.closed.get(key)
        if closed is None:
            closed = self.closed[key] = ClosedMapping(*key, pte.user, pte.writable, pte.executable)
            if self.variant == Variant.STASH:
                vmem.set_perms(asid, vpn, False, pte.writable, False)
            else:
                vmem.set_bit(asid, vpn, PteBit.WRITABLE, False)
            vmem.tlb_flush(asid, vpn)
        closed.windows += 1
        record.mappings.append(closed)

    def check_string(self, task, ctx: SyscallContext, sf: StringFilter) -> Optional[bool]:
        """The check fetch: read the argument, unmodifiable once protected,
        and compare it against each allowed value in order. None if the
        fetch killed the caller."""
        s = self._fetch(task, ctx, sf.arg_index)
        if s is None:
            return None
        ctx.checked = {**ctx.checked, sf.arg_index: s}
        # Candidates are compared in order up to the first match.
        try:
            comparisons = sf.allowed.index(s) + 1
            matched = True
        except ValueError:
            comparisons = len(sf.allowed)
            matched = False
        self.sim.emit(
            StringCheckEvent(
                tid=task.tid,
                nr=ctx.nr,
                arg_index=sf.arg_index,
                arg_len=len(s),
                comparisons=comparisons,
                matched=matched,
            )
        )
        return matched

    def restore(self, task, record: ProtectionRecord) -> bool:
        """Put every recorded mapping back exactly as found; wake stalled
        writers. If the frame is still inside another live protection window
        the application is killed instead."""
        for frame_id in record.frames:
            for other in self._windows(frame_id):
                if other is not record:
                    self.kill(
                        task,
                        KillCause.CONCURRENT_USE,
                        f"frame {frame_id} still protected by another syscall",
                    )
                    return False
        restored = self._apply_restore(record)
        self.sim.emit(
            RestoreEvent(tid=task.tid, frames=list(record.frames), mappings=restored)
        )
        self.sim.wake_frame_waiters(set(record.frames))
        return True

    def _apply_restore(self, record: ProtectionRecord) -> int:
        """Let go of every mapping ``record`` holds closed; the last window
        over one puts its bits back. Returns how many."""
        vmem = self.vmem
        if vmem.fp is not None:
            # the windows over these frames hold the mappings let go of below
            for frame_id in record.frames:
                vmem.wrote(("window", frame_id))
        restored = 0
        for closed in record.mappings:
            closed.windows -= 1
            if closed.windows:
                continue
            del self.closed[closed.asid, closed.vpn, closed.frame_id]
            pte = vmem.entry(closed.asid, closed.vpn)  # None once replaced (exec) or torn down
            if pte is None or pte.frame_id != closed.frame_id:
                continue
            vmem.set_perms(closed.asid, closed.vpn, closed.user, closed.writable, closed.executable)
            vmem.tlb_flush(closed.asid, closed.vpn)
            restored += 1
        for frame_id in record.frames:
            records = self._windows(frame_id, write=True)
            records.remove(record)
            if not records:
                del self.by_frame[frame_id]
        return restored

    def unwind_group(self, tasks: Iterable) -> None:
        """Kill path: release the window of each of these tasks' in-flight
        syscalls, without the concurrent-use check, and wake its waiters."""
        for task in tasks:
            ctx = task.micro
            if isinstance(ctx, SyscallContext) and ctx.record is not None:
                self._apply_restore(ctx.record)
                self.sim.wake_frame_waiters(set(ctx.record.frames))

    # ------------------------------------------------------------------
    # fault and interface policy

    def on_page_fault(self, task, fault: PageFault) -> str:
        """Handle a user-mode fault: 'retry' once copy-on-write is resolved,
        'stalled' once the task waits for the window that closed the page,
        or 'killed' once the task's process is killed. A copy-on-write
        page is copied only if its flags take a write and no freeze holds
        the mapping."""
        if fault.reason == FaultReason.COW_PENDING:
            pte = self.vmem.pte(fault.asid, fault.vpn)
            held = self._windows(pte.frame_id) and (fault.asid, fault.vpn, pte.frame_id) in self.closed
            if pte.vm_write and not held:
                self._resolve_cow(task.tid, fault.asid, fault.vpn)
                return "retry"
            fault = replace(fault, reason=FaultReason.WRITE_PROT)  # Linux checks VM_WRITE before it copies
        stashed = self.variant == Variant.STASH and fault.reason == FaultReason.USER_BIT
        frozen = self.variant == Variant.FREEZE and fault.reason == FaultReason.WRITE_PROT
        if (stashed or frozen) and fault.frame_id is not None and self._windows(fault.frame_id):
            self.sim.stall_task(task, "frame", fault.frame_id)
            return "stalled"
        self.kill(task, KillCause.SEGFAULT, f"fault {fault.reason} at {fault.vaddr:#x}")
        return "killed"

    def _window_frame(self, task, vpns: Iterable[int]) -> Optional[int]:
        """The first frame that ``task`` maps at one of ``vpns`` and that is
        inside an open window, or None. An mprotect or fork of such a page
        waits for the window's restore: applied inside the window, the
        restore would put back the bits an mprotect changed, and a fork
        would copy the closed entry into the child, which no window covers."""
        for vpn in vpns:
            pte = self.vmem.entry(task.asid, vpn)
            if pte is not None and self._windows(pte.frame_id):
                return pte.frame_id
        return None

    def on_proc_mem_write(self, writer, target, vaddr: int, data: bytes) -> str:
        """Direct-memory interface: writes ignore page permissions, so the
        whole interface is shut for sandboxed tasks while filtering is
        active."""
        if target is not None and self.vmem.fp is not None:
            self.vmem.fp[0].add(("task", target.tid))
        if writer.sandboxed and self.variant is not None:
            outcome = "denied"
        elif target is None or not target.alive:
            outcome = "denied"
        else:
            vmem = self.vmem
            # An empty write still needs the page at vaddr.
            vpns = [vpn for vpn, *_ in page_spans(vaddr, max(len(data), 1))]
            ptes = [vmem.entry(target.asid, vpn) for vpn in vpns]
            if not all(ptes):
                outcome = "denied"
            else:
                # Each page gets its own copy before any byte is written.
                for vpn, pte in zip(vpns, ptes):
                    if pte.cow:
                        self._resolve_cow(writer.tid, target.asid, vpn)
                vmem.poke(target.asid, vaddr, data)
                outcome = "executed"
        self.sim.emit(
            ProcMemWriteEvent(
                tid=writer.tid,
                target_tid=target.tid if target is not None else -1,
                vaddr=vaddr,
                outcome=outcome,
            )
        )
        return outcome

    def kill(self, task, cause: str, detail: str = "") -> None:
        self.sim.kill_group(task.tgid, cause, detail)

    # ------------------------------------------------------------------
    # syscall bodies (simulated effects; these perform the "use" fetches)

    def _fetch(self, task, ctx: SyscallContext, arg_index: int) -> Optional[bytes]:
        """The string argument ``arg_index``, read in kernel mode, or None
        once an unreadable one has killed the caller."""
        s, _ = self.vmem.read_cstring(
            self.sim.core_of(task), task.asid, AccessMode.KERNEL,
            ctx.args[arg_index], MAX_SPAN,
        )
        if s is None:
            self.kill(task, KillCause.BAD_POINTER, f"{ctx.name} arg{arg_index} unreadable")
        return s

    def _use_fetch(self, task, ctx: SyscallContext, arg_index: int) -> Optional[bytes]:
        s = self._fetch(task, ctx, arg_index)
        if s is not None:
            ctx.used = {**ctx.used, arg_index: s}
        return s

    def _body_openat(self, task, ctx: SyscallContext) -> str:
        path = self._use_fetch(task, ctx, 1)
        if path is None:
            return "killed"
        ctx.result = 3
        self.sim.emit(OpenEvent(tid=task.tid, path=path.decode("latin-1"), fd=3))
        return "ok"

    def _body_write(self, task, ctx: SyscallContext) -> str:
        buf = self._use_fetch(task, ctx, 1)
        if buf is None:
            return "killed"
        ctx.result = ctx.args[2]
        self.sim.emit(WriteSyscallEvent(tid=task.tid, data=buf.decode("latin-1")))
        return "ok"

    def _body_stat(self, task, ctx: SyscallContext) -> str:
        if self._use_fetch(task, ctx, 0) is None:
            return "killed"
        ctx.result = 0
        self.sim.emit(StatEvent(tid=task.tid, origin="syscall"))
        return "ok"

    def _body_execve(self, task, ctx: SyscallContext) -> str:
        path = self._use_fetch(task, ctx, 0)
        if path is None:
            return "killed"
        record = ctx.record
        restored = 0 if record is None else sum(closed.asid != task.asid for closed in record.mappings)
        if not self.sim.exec_task(task, ctx.op.image):
            ctx.result = -1
            return "ok"
        ctx.result = 0
        self.sim.emit(
            ExecEvent(tid=task.tid, path=path.decode("latin-1"), restored_sibling_mappings=restored)
        )
        return "ok"

    def _body_fork(self, task, ctx: SyscallContext) -> str:
        blocking_frame = self._window_frame(task, self.vmem.mapped(task.asid))
        if blocking_frame is not None:
            self.sim.stall_task(task, "fork", blocking_frame)
            return "stalled"
        child = self.sim.fork_task(task, ctx.op.child_ops)
        ctx.result = child.tgid
        refcount = task.filters.refcount if task.filters is not None else 0
        self.sim.emit(
            ForkEvent(tid=task.tid, child_pid=child.tgid, child_tid=child.tid, refcount=refcount)
        )
        return "ok"

    def _body_exit(self, task, ctx: SyscallContext) -> str:
        op = ctx.op
        freed = self.sim.exit_task(task, op.group)
        refcount = task.filters.refcount if task.filters is not None else 0
        self.sim.emit(
            ExitEvent(tid=task.tid, code=op.code, group=op.group, refcount=refcount, freed=freed)
        )
        return "ok"

    def _body_getppid(self, task, ctx: SyscallContext) -> str:
        ctx.result = task.parent_pid
        return "ok"

    def _body_mmap(self, task, ctx: SyscallContext) -> str:
        spec = ctx.op.spec
        # like MAP_FIXED_NOREPLACE: -1, mapping nothing, if a page is taken or a label gone
        try:
            self.sim.map_region(task.asid, spec, task.tid)
        except (DoubleMapError, UnmappedError):
            ctx.result = -1
            return "ok"
        ctx.result = spec.vaddr
        if self.variant is not None:
            start = vpn_of(spec.vaddr)
            for vpn in range(start, start + spec.pages):
                self.cover_new_mapping(task.asid, vpn)
        return "ok"

    def _body_mprotect(self, task, ctx: SyscallContext) -> str:
        spec = ctx.op
        vpns = spec.vpns
        blocking_frame = self._window_frame(task, vpns)
        if blocking_frame is not None:
            self.sim.stall_task(task, "mprotect", blocking_frame)
            self.sim.emit(MprotectEvent(tid=task.tid, vpns=vpns, outcome="stalled"))
            return "stalled"
        vmem = self.vmem
        entries = vmem.spaces[task.asid].entries
        for vpn in vpns:
            pte = entries.get(vpn)
            if pte is None:
                continue
            # a copy-on-write entry stays read-only: its copy takes vm_write
            vmem.set_perms(task.asid, vpn, spec.user, spec.writable and not pte.cow, spec.executable)
            pte.vm_write, pte.vm_exec = spec.writable, spec.executable
            vmem.tlb_flush(task.asid, vpn)
        ctx.result = 0
        self.sim.emit(MprotectEvent(tid=task.tid, vpns=vpns, outcome="applied"))
        return "ok"

    def _body_read(self, task, ctx: SyscallContext) -> str:
        ctx.result = 0
        return "ok"

    def _body_generic(self, task, ctx: SyscallContext) -> str:
        # A generic body still consumes any string-filtered arguments.
        if ctx.rule is not None:
            for sf in ctx.rule.strings:
                if self._use_fetch(task, ctx, sf.arg_index) is None:
                    return "killed"
        ctx.result = 0
        return "ok"

    BODIES = {
        "openat": _body_openat,
        "write": _body_write,
        "stat": _body_stat,
        "execve": _body_execve,
        "fork": _body_fork,
        "exit": _body_exit,
        "exit_group": _body_exit,
        "getppid": _body_getppid,
        "mmap": _body_mmap,
        "mprotect": _body_mprotect,
        "read": _body_read,
    }
