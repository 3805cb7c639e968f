"""Deterministic multi-thread simulator.

Threads run scripted op sequences; the scheduler picks one runnable thread
per step, either from a seeded RNG (reproducible runs) or by exhaustively
enumerating every choice at every branch point (systematic interleaving
exploration). Syscalls expand into multiple scheduler steps at their
preemption points, which is what makes check/use races schedulable.

Fault handling, stalling, wake-ups, and process lifecycle (fork, exec,
exit/exit_group with filter reference counting) all live here; the filtering
policy itself is in the engine this simulation hosts.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import InitVar, dataclass, field, fields, replace
from functools import partial
from operator import attrgetter
from typing import Any, Callable, Optional, Sequence, Union

try:  # the optional ``fast`` extra
    import orjson
except ImportError:
    orjson = None

from . import costmodel
from .dpti import DptiEngine, SyscallContext, Variant, make_syscall_context
from .events import (
    DeadlockEvent,
    Event,
    FiltersFreedEvent,
    KillEvent,
    StallEvent,
    SyscallEvent,
    WakeEvent,
)
from .filters import SYSCALL_NAMES, SYSCALL_NRS, FilterTable
from .sgxdom import EnclaveDomain, SgxRuntime
from .vmem import (
    PAGE_SIZE, AccessMode, DoubleMapError, Entry, Footprint, Journal, Level, UnmappedError,
    Vmem, pages_spanned, vpn_of,
)


# ---------------------------------------------------------------------------
# thread programs


# Each op names itself in the trace with label(); an op that enters the
# kernel gives its syscall form, (nr, args), with syscall(); the syscall body
# reads any other operand from the op itself.


@dataclass(frozen=True)
class ReadOp:
    vaddr: int
    length: int = 1

    def label(self) -> str:
        return f"read@{self.vaddr:#x}"


@dataclass(frozen=True)
class WriteOp:
    vaddr: int
    data: bytes

    def label(self) -> str:
        return f"write@{self.vaddr:#x}"


@dataclass(frozen=True)
class SyscallOp:
    nr: int
    args: tuple[int, ...] = ()

    def label(self) -> str:
        return f"syscall:{SYSCALL_NAMES.get(self.nr, self.nr)}"

    def syscall(self) -> tuple[int, Sequence[int]]:
        return self.nr, self.args


@dataclass(frozen=True)
class MapSpec:
    """One mapped region: pages, permissions, optional initial bytes.

    alias_of maps the frames that its label's pages map when it is mapped,
    instead of fresh ones; data entries are (absolute vaddr, bytes) pairs.
    """

    vaddr: int
    pages: int = 1
    writable: bool = True
    executable: bool = False
    user: bool = True
    shared: bool = False
    alias_of: Optional[str] = None
    data: tuple[tuple[int, bytes], ...] = ()
    label: Optional[str] = None


@dataclass(frozen=True)
class MmapOp:
    spec: MapSpec

    def label(self) -> str:
        return f"mmap@{self.spec.vaddr:#x}"

    def syscall(self) -> tuple[int, Sequence[int]]:
        return SYSCALL_NRS["mmap"], (self.spec.vaddr, self.spec.pages * PAGE_SIZE)


@dataclass(frozen=True)
class MprotectOp:
    vaddr: int
    pages: int
    user: bool = True
    writable: bool = False
    executable: bool = False

    @property
    def vpns(self) -> list[int]:
        start = vpn_of(self.vaddr)
        return list(range(start, start + self.pages))

    def label(self) -> str:
        return f"mprotect@{self.vaddr:#x}"

    def syscall(self) -> tuple[int, Sequence[int]]:
        return SYSCALL_NRS["mprotect"], (self.vaddr, self.pages * PAGE_SIZE)


@dataclass(frozen=True)
class ForkOp:
    child_ops: tuple = ()

    def label(self) -> str:
        return "fork"

    def syscall(self) -> tuple[int, Sequence[int]]:
        return SYSCALL_NRS["fork"], ()


@dataclass(frozen=True)
class ExecImage:
    mappings: tuple[MapSpec, ...] = ()
    ops: tuple = ()


@dataclass(frozen=True)
class ExecOp:
    path_vaddr: int
    image: ExecImage = ExecImage()

    def label(self) -> str:
        return "exec"

    def syscall(self) -> tuple[int, Sequence[int]]:
        return SYSCALL_NRS["execve"], (self.path_vaddr,)


@dataclass(frozen=True)
class ExitOp:
    code: int = 0
    group: bool = True

    def label(self) -> str:
        return "exit_group" if self.group else "exit"

    def syscall(self) -> tuple[int, Sequence[int]]:
        return SYSCALL_NRS[self.label()], (self.code,)


@dataclass(frozen=True)
class ProcMemWriteOp:
    target: Union[int, str]  # tid or thread name
    vaddr: int
    data: bytes

    def label(self) -> str:
        return f"proc_mem_write@{self.vaddr:#x}"


@dataclass(frozen=True)
class EcallOp:
    enclave: str

    def label(self) -> str:
        return f"ecall:{self.enclave}"


ThreadOp = Union[
    ReadOp, WriteOp, SyscallOp, MmapOp, MprotectOp, ForkOp, ExecOp, ExitOp,
    ProcMemWriteOp, EcallOp,
]


# ---------------------------------------------------------------------------
# tasks


class TaskState:
    RUNNABLE = "runnable"
    STALLED = "stalled"
    FINISHED = "finished"  # script exhausted without an exit syscall
    DEAD = "dead"


@dataclass
class CpuState:
    rax: int = 0
    rbx: int = 0
    rsp: int = 0
    rbp: int = 0


@dataclass
class Task:
    tid: int
    tgid: int
    parent_pid: int
    name: str
    asid: int
    ops: list[ThreadOp]
    cpu: CpuState
    sandboxed: bool = False
    filters: Optional[FilterTable] = None
    ip: int = 0
    state: str = TaskState.RUNNABLE
    stall: Optional[tuple[str, int]] = None
    micro: Optional[object] = None  # SyscallContext | EnclaveContext

    @property
    def alive(self) -> bool:
        return self.state != TaskState.DEAD


@dataclass
class ProcessInfo:
    tgid: int
    name: str
    asid: int
    sandboxed: bool
    filters: Optional[FilterTable]


# ---------------------------------------------------------------------------
# reports


def _dumps(obj: Any) -> str:
    """The canonical encoding: sorted keys, no spaces, ASCII escapes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _floats_agree(x: Any) -> bool:
    """Whether orjson writes every float in ``x`` as the stdlib does. Both
    write the shortest digits that read back, but in the same notation only
    for 1e-4 <= |f| < 1e16; outside it, and for NaN and the infinities, they
    differ."""
    if isinstance(x, float):
        return 1e-4 <= abs(x) < 1e16
    if isinstance(x, dict):
        return all(map(_floats_agree, x.values()))
    return True


def _encode(rest: dict[str, Any]) -> bytes:
    """``_dumps(rest)`` as bytes, written by orjson when its bytes are
    provably the same. Of a report's per-run fields only ``cycles`` holds
    floats (``costmodel._num``). The only integer keys are argument indexes
    (``SyscallEvent.checked`` and ``used``), below ``MAX_SYSCALL_ARGS`` = 6,
    so orjson's text order of them is the stdlib's numeric order."""
    if orjson is not None and _floats_agree(rest.get("cycles")):
        try:
            out = orjson.dumps(rest, option=orjson.OPT_SORT_KEYS | orjson.OPT_NON_STR_KEYS)
        except orjson.JSONEncodeError:  # an integer outside 64 bits
            pass
        else:
            # The stdlib escapes DEL and every non-ASCII character; orjson
            # writes them raw. All other ASCII encodes the same.
            if out.isascii() and b"\x7f" not in out:
                return out
    return _dumps(rest).encode()


class _Report:
    """JSON form and hash of a report dataclass, built from its fields."""

    def to_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self) -> str:
        return _dumps(self.to_dict())

    def hash_hex(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()


@dataclass
class SimReport(_Report):
    name: str
    variant: Optional[str]
    schedule: dict[str, Any]
    steps: int
    truncated: bool
    trace: list[list[Any]]
    events: list[dict[str, Any]]
    kills: list[dict[str, Any]]
    witnesses: list[dict[str, Any]]
    deadlocked: list[int]
    filters: dict[str, dict[str, Any]]
    cycles: Optional[dict[str, Any]] = None
    config: Optional[dict[str, Any]] = None
    # ``config`` already encoded as to_json encodes it, or None to encode it
    config_json: InitVar[Optional[str]] = None

    def __post_init__(self, config_json: Optional[str]) -> None:
        self._config_json = config_json

    def _json(self) -> bytes:
        # The instance dict holds the fields and ``_config_json``; copying it
        # costs far less than ``to_dict``.
        rest = vars(self).copy()
        config = rest.pop("_config_json")
        if config is None:
            config = _dumps(rest["config"])
        del rest["config"]
        # "config" sorts before every other field, so its text leads.
        return b'{"config":' + config.encode() + b"," + _encode(rest)[1:]

    def to_json(self) -> str:
        return self._json().decode()

    def hash_hex(self) -> str:
        return hashlib.sha256(self._json()).hexdigest()


def extract_witnesses(events: Sequence[Event]) -> list[dict[str, Any]]:
    """Check/use divergences: completed syscalls whose deep-checked argument
    bytes differ from the bytes the syscall body consumed."""
    out = []
    for ev in events:
        if not isinstance(ev, SyscallEvent) or ev.checked is None or ev.used is None:
            continue
        for arg, checked in ev.checked.items():
            used = ev.used.get(arg)
            if used is not None and used != checked:
                out.append(
                    {
                        "step": ev.step,
                        "tid": ev.tid,
                        "nr": ev.nr,
                        "name": ev.name,
                        "arg": arg,
                        "checked": checked,
                        "used": used,
                    }
                )
    return out


def extract_kills(events: Sequence[Event]) -> list[dict[str, Any]]:
    """Every process kill, in the order the events record them."""
    return [{"step": ev.step, "process": ev.process, "cause": ev.cause, "detail": ev.detail}
            for ev in events if isinstance(ev, KillEvent)]


# ---------------------------------------------------------------------------
# the simulator


class Simulation:
    def __init__(
        self,
        variant: Optional[str] = None,
        cores: int = 2,
        deny_mode: str = "kill",
        name: str = "sim",
        cost_table: Optional["costmodel.CostTable"] = None,
        config: Optional[dict[str, Any]] = None,
        config_json: Optional[str] = None,
    ):
        if variant not in (None, Variant.STASH, Variant.FREEZE):
            raise ValueError(f"unknown variant {variant!r}")
        self.name = name
        self.vmem = Vmem(cores=cores)
        self.engine = DptiEngine(self, variant, deny_mode=deny_mode)
        self.sgx = SgxRuntime(self)
        # In ascending tid order, the order every scan of it reports: tids
        # only grow and no task is ever removed.
        self.tasks: dict[int, Task] = {}
        self.tasks_by_name: dict[str, Task] = {}
        self.processes: dict[int, ProcessInfo] = {}
        self.enclaves: dict[str, EnclaveDomain] = {}
        # label -> (asid, first vpn) of the mapping map_region gave it
        self.labels: dict[str, tuple[int, int]] = {}
        self.events: list[Event] = []
        # The steps of the path the simulation is on, each at its index: the
        # position an event's step, the step bound and a path's steps count.
        self.trace: list[list[Any]] = []
        # Every step the simulation executed, those a search undid included.
        self.step_count = 0
        self.truncated = False
        self.cost_table = cost_table
        self.config = config
        self.config_json = config_json
        self.schedule_info: dict[str, Any] = {}
        # The tids of each group of processes that may interact, as
        # build_simulation works them out; () for a simulation built by hand,
        # which explore searches as one group.
        self.groups: tuple[tuple[int, ...], ...] = ()
        self._next_tid = 1
        self._next_pid = 1
        self._current_tid = -1
        self._finalized = False
        self._journal: Optional[Journal] = None

    # ------------------------------------------------------------------
    # construction helpers

    def add_process(
        self,
        name: str,
        *,
        sandboxed: bool = False,
        filters: Optional[FilterTable] = None,
    ) -> ProcessInfo:
        return self._new_process(name, self.vmem.new_address_space().asid, sandboxed, filters)

    def _new_process(
        self, name: str, asid: int, sandboxed: bool, filters: Optional[FilterTable],
    ) -> ProcessInfo:
        """A process in address space ``asid``, under the next pid."""
        if self.vmem.fp is not None:
            self.vmem.wrote("ids")
        pid = self._next_pid
        self._next_pid += 1
        info = self.processes[pid] = ProcessInfo(pid, name, asid, sandboxed, filters)
        return info

    def add_thread(
        self,
        proc: ProcessInfo,
        ops: Sequence[ThreadOp],
        name: Optional[str] = None,
        rsp: int = 0,
        rbp: int = 0,
    ) -> Task:
        name = name or f"{proc.name}.t{self._next_tid}"
        if name in self.tasks_by_name:
            raise ValueError(f"duplicate thread name {name!r}")
        if proc.filters is not None and any(t.tgid == proc.tgid for t in self.tasks.values()):
            proc.filters.acquire()  # clone shares the installed filters
        return self._new_task(proc, ops, CpuState(rsp=rsp, rbp=rbp), name=name)

    def _new_task(
        self, proc: ProcessInfo, ops: Sequence[ThreadOp], cpu: CpuState,
        name: Optional[str] = None, parent_pid: int = 0,
    ) -> Task:
        """A task of ``proc`` under the next tid, named ``name`` or after its
        process and tid; finished at once if it has no ops."""
        if self.vmem.fp is not None:
            self.vmem.wrote("ids")
        tid = self._next_tid
        self._next_tid += 1
        task = Task(
            tid=tid, tgid=proc.tgid, parent_pid=parent_pid,
            name=name or f"{proc.name}.t{tid}", asid=proc.asid, ops=list(ops), cpu=cpu,
            sandboxed=proc.sandboxed, filters=proc.filters,
        )
        if not task.ops:
            task.state = TaskState.FINISHED
        self.tasks[tid] = task
        self.tasks_by_name[task.name] = task
        return task

    def map_region(self, asid: int, spec: MapSpec, tid: int = 0) -> list[int]:
        """Map every page of ``spec``, or raise DoubleMapError, having mapped
        and allocated nothing, if any of them is already mapped. An alias maps
        its label's frames as they are now, copy-on-write resolved as a write
        by ``tid`` would; UnmappedError, mapping nothing, if a page is gone."""
        start = vpn_of(spec.vaddr)
        vpns = range(start, start + spec.pages)
        for vpn in vpns:
            if self.vmem.entry(asid, vpn) is not None:
                raise DoubleMapError(f"vpn {vpn:#x} already mapped in asid {asid}")
        if spec.alias_of is None:
            frame_ids = [self.vmem.alloc_frame() for _ in vpns]
        else:
            label_asid, first = self.labels[spec.alias_of]
            label_vpns = range(first, first + spec.pages)
            ptes = [self.vmem.pte(label_asid, vpn) for vpn in label_vpns]  # or UnmappedError
            for vpn, pte in zip(label_vpns, ptes):
                if pte.cow:
                    self.engine._resolve_cow(tid, label_asid, vpn)  # in place in pte
            frame_ids = [pte.frame_id for pte in ptes]
        for vpn, frame_id in zip(vpns, frame_ids):
            self.vmem.map(
                asid, vpn, frame_id,
                user=spec.user, writable=spec.writable,
                executable=spec.executable, shared=spec.shared,
            )
        for at, data in spec.data:
            self.vmem.poke(asid, at, data)
        if spec.label is not None:
            self.labels[spec.label] = (asid, start)
        return frame_ids

    # ------------------------------------------------------------------
    # hooks used by the engine and the enclave runtime

    def emit(self, ev: Event) -> None:
        ev.step = len(self.trace)
        ev.seq = len(self.events)
        self.events.append(ev)

    def core_of(self, task: Task) -> int:
        return (task.tid - 1) % self.vmem.cores

    def stall_task(self, task: Task, kind: str, frame_id: int) -> None:
        if task.state != TaskState.RUNNABLE:
            raise RuntimeError(f"cannot stall task {task.tid} in state {task.state}")
        if self.vmem.fp is not None:
            self.vmem.fp[1].add(("waitq", frame_id))
        task.state = TaskState.STALLED
        task.stall = (kind, frame_id)
        self.emit(StallEvent(tid=task.tid, kind=kind, frame_id=frame_id))

    def wake_frame_waiters(self, frames: set[int]) -> None:
        vmem = self.vmem
        if vmem.fp is not None:
            for frame_id in frames:
                vmem.fp[1].add(("waitq", frame_id))
        for task in self.tasks.values():
            if task.state == TaskState.STALLED and task.stall is not None and task.stall[1] in frames:
                if vmem.fp is not None:
                    vmem.wrote(("task", task.tid))
                task.state = TaskState.RUNNABLE
                self.emit(WakeEvent(tid=task.tid, frame_id=task.stall[1]))
                task.stall = None

    def kill_group(self, tgid: int, cause: str, detail: str = "") -> None:
        proc = self.processes[tgid]
        self.emit(
            KillEvent(
                tid=self._current_tid, tgid=tgid, process=proc.name,
                cause=cause, detail=detail,
            )
        )
        self._end_tasks(tgid, self._live(tgid))

    def _live(self, tgid: int) -> list[Task]:
        live = []
        for task in self.tasks.values():
            if task.tgid == tgid and task.alive:
                live.append(task)
        return live

    def _end_tasks(self, tgid: int, tasks: list[Task]) -> bool:
        """Tear down ``tasks`` of process ``tgid``: end the protection window
        of each one's in-flight syscall, mark them dead and release their
        references to the process's filters. Returns whether that freed the
        filters."""
        self.engine.unwind_group(tasks)
        filters = self.processes[tgid].filters
        vmem = self.vmem
        if vmem.fp is not None:
            for task in tasks:
                vmem.wrote(("task", task.tid))
                if task.stall is not None:
                    vmem.fp[1].add(("waitq", task.stall[1]))
            self._wrote_filters(filters)
        for task in tasks:
            task.state = TaskState.DEAD
            task.micro = None
            task.stall = None
        if filters is None or not tasks or not filters.release(len(tasks)):
            return False
        self.emit(FiltersFreedEvent(tgid=tgid))
        return True

    def _wrote_filters(self, filters: Optional[FilterTable]) -> None:
        """Record a write of the reference count of ``filters``, if any, which
        a fork shares: it is named by the first process it was installed for."""
        if self.vmem.fp is None or filters is None:
            return
        for proc in self.processes.values():
            if proc.filters is filters:
                self.vmem.wrote(("filters", proc.tgid))
                return

    # ------------------------------------------------------------------
    # lifecycle bodies (called from the dispatch engine)

    def fork_task(self, parent: Task, child_ops: Sequence[ThreadOp]) -> Task:
        child_space = self.vmem.fork_address_space(parent.asid)
        proc = self.processes[parent.tgid]
        info = self._new_process(proc.name, child_space.asid, proc.sandboxed, proc.filters)
        info.name += f".child{info.tgid}"
        if info.filters is not None:
            self._wrote_filters(info.filters)
            info.filters.acquire()
        return self._new_task(info, child_ops, replace(parent.cpu), parent_pid=parent.tgid)

    def exec_task(self, task: Task, image: ExecImage) -> bool:
        """Replace ``task``'s process with ``image``; False, changing nothing,
        if the image's mappings overlap or one aliases a label that no longer
        maps its pages."""
        space = self.vmem.new_address_space()
        try:
            for spec in image.mappings:
                self.map_region(space.asid, spec, task.tid)
        except (DoubleMapError, UnmappedError):
            self.vmem.destroy_address_space(space.asid)
            return False
        self._end_tasks(task.tgid, [t for t in self._live(task.tgid) if t is not task])
        old_asid = task.asid
        if self.vmem.fp is not None:
            self.vmem.wrote(("process", task.tgid))
        self.processes[task.tgid].asid = space.asid
        task.asid = space.asid
        self.vmem.destroy_address_space(old_asid)
        task.ops = list(image.ops)
        task.ip = -1  # advanced to 0 when the exec syscall completes
        task.cpu = CpuState()
        return True

    def exit_task(self, task: Task, group: bool) -> bool:
        """End ``task``, or with ``group`` its whole process; returns whether
        that freed the process's filters."""
        return self._end_tasks(task.tgid, self._live(task.tgid) if group else [task])

    # ------------------------------------------------------------------
    # undo, for a search

    def open_level(self) -> Level:
        """Open a journal level at this state, to which ``undo`` comes back:
        from now on each write saves its location before it changes."""
        if self._journal is None:
            vmem = self.vmem
            self._journal = Journal({
                "frame": vmem.saved_frame, "pte": vmem.saved_pte, "space": vmem.saved_space,
                "rmap": vmem.saved_rmap, "alloc": vmem.saved_alloc, "ids": self._saved_ids,
                "window": self.engine.saved_window, "task": self._saved_task,
                "process": self._saved_process, "filters": self._saved_filters,
            })
        # While a level is open every step records its footprint, for the
        # journal; one that ``_recorded_step`` does not record writes it into
        # sets that nothing reads.
        self.vmem.journal, self.vmem.fp = self._journal, (set(), set())
        return self._journal.open((len(self.events), len(self.trace)))

    def undo(self, level: Level, close: bool) -> None:
        """Come back to the state at which ``level``, the innermost open
        level, opened, with the events and the trace it had; then close the
        level with ``close``, or go on journalling into it."""
        journal = self._journal
        journal.undo(level, close)
        events, steps = level.at
        del self.events[events:]
        del self.trace[steps:]
        if not journal.levels:
            self.vmem.journal = self.vmem.fp = None

    def end_search(self) -> None:
        """Give up every open journal level: the search comes back to none
        of them. The journal, which points back at the simulation, goes with
        them."""
        self._journal = self.vmem.journal = self.vmem.fp = None

    def _saved_task(self, loc: tuple) -> Entry:
        """What a step may change of a task: its script and its place in
        it, its state and stall, its address space and CPU state, and the
        syscall or enclave call in flight."""
        task = self.tasks[loc[1]]
        ctx, cpu = task.micro, task.cpu
        return (_put_task, task, task.ip, task.state, task.stall, task.asid, task.ops, cpu, _registers(cpu),
                ctx, None if ctx is None else ctx.saved())

    def _saved_ids(self, loc: str) -> Entry:
        """The id counters; put back, they also drop every address space,
        process and task made since, as ``Vmem.saved_alloc`` drops frames."""
        return self._put_ids, self.vmem._next_asid, self._next_pid, self._next_tid

    def _put_ids(self, entry: Entry) -> None:
        _, asid, pid, tid = entry
        vmem = self.vmem
        for made in range(asid, vmem._next_asid):
            vmem.spaces.pop(made, None)  # or destroyed already
        for made in range(pid, self._next_pid):
            del self.processes[made]
        for made in range(tid, self._next_tid):
            del self.tasks_by_name[self.tasks.pop(made).name]
        vmem._next_asid, self._next_pid, self._next_tid = asid, pid, tid

    def _saved_process(self, loc: tuple) -> Entry:
        proc = self.processes[loc[1]]
        return _put_process, proc, proc.asid

    def _saved_filters(self, loc: tuple) -> Entry:
        table = self.processes[loc[1]].filters
        return _put_filters, table, table.refcount, table.freed

    # ------------------------------------------------------------------
    # stepping

    def runnable_tids(self) -> list[int]:
        # Loops, not comprehensions, here and in the other helpers that a
        # search runs at every step or path end: in CPython 3.11 each
        # comprehension is a function call of its own.
        ready = []
        for tid, task in self.tasks.items():
            if task.state == TaskState.RUNNABLE:
                ready.append(tid)
        return ready

    def _advance(self, task: Task) -> None:
        task.ip += 1
        if task.ip >= len(task.ops) and task.state == TaskState.RUNNABLE:
            task.state = TaskState.FINISHED

    def step(self, tid: int) -> str:
        task = self.tasks[tid]
        if task.state != TaskState.RUNNABLE:
            raise RuntimeError(f"stepping non-runnable task {tid}")
        if self.vmem.fp is not None:
            self.vmem.wrote(("task", tid))  # a step always writes its own task
        self._current_tid = tid
        ctx = task.micro
        if isinstance(ctx, SyscallContext):
            label = f"syscall:{ctx.name}"
            outcome = self._in_flight(task, ctx.phase, self.engine.step_syscall(task))
        elif ctx is not None:
            label = f"enclave:{ctx.domain.name}"
            outcome = self._in_flight(task, ctx.state, self.sgx.step(task))
        else:
            op = task.ops[task.ip]
            label = op.label()
            outcome = self._exec_op(task, op)
        self.trace.append([len(self.trace), tid, label, outcome])
        self.step_count += 1
        return outcome

    def _exec_op(self, task: Task, op: ThreadOp) -> str:
        if isinstance(op, (ReadOp, WriteOp)):
            outcome = self.user_access(task, op)
            if outcome == "ok":
                self._advance(task)
            return outcome
        if isinstance(op, ProcMemWriteOp):
            target = (
                self.tasks.get(op.target)
                if isinstance(op.target, int)
                else self.tasks_by_name.get(op.target)
            )
            outcome = self.engine.on_proc_mem_write(task, target, op.vaddr, op.data)
            if task.state == TaskState.RUNNABLE:
                self._advance(task)
            return f"proc_mem:{outcome}"
        if isinstance(op, EcallOp):
            return "enclave_enter" if self.sgx.enter(task, self.enclaves[op.enclave]) else "killed"
        # Everything else enters the kernel as a syscall.
        ctx = task.micro = make_syscall_context(op)
        return self._in_flight(task, ctx.phase, self.engine.step_syscall(task))

    def _in_flight(self, task: Task, phase: str, status: str) -> str:
        """The trace outcome of one step of an in-flight syscall or enclave
        call that was in ``phase`` and returned ``status``: 'again',
        'stalled' or 'done'. A done call leaves the task, which moves on to
        its next op if it is still runnable."""
        if status == "stalled":
            return "stalled"
        if status == "again":
            return phase
        task.micro = None
        if task.state == TaskState.RUNNABLE:
            self._advance(task)
        return f"{phase}:done"

    def user_access(
        self, task: Task, op: Union[ReadOp, WriteOp], domain: Optional[EnclaveDomain] = None,
    ) -> str:
        """One user-mode read or write by thread code or, given ``domain``, by
        that enclave's code: 'ok', 'stalled' or 'killed'. On 'ok' the caller
        advances its own instruction pointer.

        A confined enclave's faults go to the enclave runtime; all others, an
        unconfined enclave's included, go to the engine.

        A fault is retried only after a copy-on-write copy, which leaves the
        page writable, no longer copy-on-write and flushed from every TLB, or
        after an enclave lazy map, which leaves it mapped with its user,
        write and exec bits set and flushed. Nothing else runs within one
        access, so neither can fault on the same page twice: one retry per
        spanned page is enough, and running out of them is a simulator fault.
        """
        confined = domain is not None and domain.variant is not None
        length = op.length if isinstance(op, ReadOp) else len(op.data)
        for _ in range(pages_spanned(op.vaddr, length) + 1):
            if isinstance(op, ReadOp):
                _, fault = self.vmem.read_bytes(
                    self.core_of(task), task.asid, AccessMode.USER, op.vaddr, op.length
                )
            else:
                fault = self.vmem.write_bytes(
                    self.core_of(task), task.asid, AccessMode.USER, op.vaddr, op.data
                )
            if fault is None:
                return "ok"
            if confined:
                outcome = self.sgx.on_isolated_fault(task, domain, fault)
            else:
                outcome = self.engine.on_page_fault(task, fault)
            if outcome != "retry":
                return outcome
        raise RuntimeError(
            f"simulator fault: task {task.tid} still faults at {op.vaddr:#x} after a retry per page"
        )

    # ------------------------------------------------------------------
    # drivers

    def run_seeded(self, seed: int = 0, max_steps: int = 1000) -> SimReport:
        self.run(seed, max_steps)
        return self.build_report()

    def run(self, seed: int = 0, max_steps: int = 1000) -> None:
        """The seeded schedule of ``run_seeded``, without building a report."""
        rng = random.Random(seed)
        while len(self.trace) < max_steps:
            runnable = self.runnable_tids()
            if not runnable:
                break
            tid = runnable[0] if len(runnable) == 1 else runnable[rng.randrange(len(runnable))]
            self.step(tid)
        else:
            self.truncated = bool(self.runnable_tids())
        self.schedule_info = {"mode": "seeded", "seed": seed, "max_steps": max_steps}
        self._finalize()

    def run_prefix(self, decisions: Sequence[int], max_steps: int) -> Optional[list[int]]:
        """Follow branch-point decisions; returns the runnable set at the
        first undecided branch point, or None when the run completed."""
        consumed = 0
        while len(self.trace) < max_steps:
            ready = self.runnable_tids()
            if not ready:
                break
            if len(ready) == 1:
                tid = ready[0]
            elif consumed < len(decisions):
                tid = decisions[consumed]
                consumed += 1
            else:
                return ready
            self.step(tid)
        self.truncated = len(self.trace) >= max_steps and bool(self.runnable_tids())
        self._finalize()
        return None

    def _runnable_in(self, tids: Sequence[int]) -> list[int]:
        tasks = self.tasks
        return [tid for tid in tids if tasks[tid].state == TaskState.RUNNABLE]

    def _finalize(self) -> None:
        if self._finalized:
            return
        self._finalized = True
        for tid, task in self.tasks.items():
            if task.state == TaskState.STALLED and task.stall is not None:
                self.emit(DeadlockEvent(tid=tid, kind=task.stall[0], frame_id=task.stall[1]))

    # ------------------------------------------------------------------
    # reporting

    def deadlocked_tids(self) -> list[int]:
        stalled = []
        for tid, task in self.tasks.items():
            if task.state == TaskState.STALLED:
                stalled.append(tid)
        return stalled

    def build_report(self) -> SimReport:
        cycles = None
        if self.cost_table is not None:
            cycles = costmodel.accumulate(self.events, self.cost_table).to_dict()
        filters_state: dict[str, dict[str, Any]] = {}
        for proc in self.processes.values():
            if proc.filters is not None:
                filters_state[proc.name] = {
                    "refcount": proc.filters.refcount,
                    "freed": proc.filters.freed,
                }
        return SimReport(
            name=self.name,
            variant=self.engine.variant,
            schedule=dict(self.schedule_info),
            steps=len(self.trace),
            truncated=self.truncated,
            trace=[list(entry) for entry in self.trace],
            events=[ev.to_dict() for ev in self.events],
            kills=extract_kills(self.events),
            witnesses=extract_witnesses(self.events),
            deadlocked=self.deadlocked_tids(),
            filters=filters_state,
            cycles=cycles,
            config=self.config,
            config_json=self.config_json,
        )


# ---------------------------------------------------------------------------
# systematic exploration


@dataclass
class ExplorationReport(_Report):
    """Counts over the paths an exploration ran, as it adds them."""

    paths: int = 0
    truncated_paths: int = 0
    witnesses: int = 0
    witness_paths: int = 0
    # cause -> number of paths with at least one
    kills: dict[str, int] = field(default_factory=dict)
    # process -> cause -> number of paths that killed that process so
    process_kills: dict[str, dict[str, int]] = field(default_factory=dict)
    deadlock_paths: int = 0
    example_witness: Optional[dict[str, Any]] = None
    per_path: list[dict[str, Any]] = field(default_factory=list)
    # the names of the processes of each group's threads, in tid order; one
    # group, of every process, when every task was enumerated together
    groups: list[list[str]] = field(default_factory=list)
    # whether sleep sets cut the search, so that the counts are over one
    # path per class of interleavings that differ only in the order of
    # steps that commute
    reduced: bool = False

    def to_dict(self) -> dict[str, Any]:
        out = super().to_dict()
        if not self.reduced:
            del out["reduced"]  # a search that never branched, or explored every path
        return out

    def verdict(self) -> dict[str, Any]:
        """The answer, in the terms every sound reduced search must give
        alike: whether a witness, a deadlock and a truncated path exist,
        which kill causes occur, and which causes killed each process."""
        return {
            "witness": self.witness_paths > 0,
            "kill_causes": sorted(self.kills),
            "process_kills": {p: sorted(causes) for p, causes in sorted(self.process_kills.items())},
            "deadlock": self.deadlock_paths > 0,
            "truncated": self.truncated_paths > 0,
        }

    def _add(
        self, decisions: Sequence[int], steps: int, truncated: bool,
        events: Sequence[Event], deadlocked: list[int],
    ) -> None:
        """Count one path, from the events it added itself."""
        witnesses = extract_witnesses(events)
        kills = set()
        for ev in events:
            if ev.__class__ is KillEvent:
                kills.add((ev.process, ev.cause))
        self.paths += 1
        self.truncated_paths += truncated
        if witnesses:
            self.witnesses += len(witnesses)
            self.witness_paths += 1
            if self.example_witness is None:
                self.example_witness = dict(witnesses[0], decisions=list(decisions))
        causes = []
        if kills:
            causes = {cause for _, cause in kills}
            for cause in causes:
                self.kills[cause] = self.kills.get(cause, 0) + 1
            for process, cause in kills:
                by_cause = self.process_kills.setdefault(process, {})
                by_cause[cause] = by_cause.get(cause, 0) + 1
            causes = sorted(causes)
        self.deadlock_paths += bool(deadlocked)
        self.per_path.append(
            {
                "decisions": list(decisions),
                "steps": steps,
                "witnesses": len(witnesses),
                "kills": causes,
                "deadlocked": deadlocked,
            }
        )


_registers = attrgetter("rax", "rbx", "rsp", "rbp")


def _put_task(entry: Entry) -> None:
    _, task, task.ip, task.state, task.stall, task.asid, task.ops, cpu, registers, task.micro, context = entry
    task.cpu = cpu
    cpu.rax, cpu.rbx, cpu.rsp, cpu.rbp = registers
    if context is not None:
        context[0].put_back(context)


def _put_process(entry: Entry) -> None:
    _, proc, proc.asid = entry


def _put_filters(entry: Entry) -> None:
    _, table, table.refcount, table.freed = entry


def _recorded_step(sim: Simulation, tid: int) -> Footprint:
    """Step ``tid`` and return what the step read and wrote."""
    vmem = sim.vmem
    outer, vmem.fp = vmem.fp, (set(), set())
    try:
        sim.step(tid)
        return vmem.fp
    finally:
        vmem.fp = outer


def _independent(a: Footprint, b: Footprint) -> bool:
    """Whether two steps, by different threads, commute: neither writes a
    location the other reads or writes."""
    (reads_a, writes_a), (reads_b, writes_b) = a, b
    return writes_a.isdisjoint(reads_b) and writes_a.isdisjoint(writes_b) and writes_b.isdisjoint(reads_a)


@dataclass(slots=True)
class _Branch:
    """A branch point of a search with more than one choice: the sleep set
    the search reached it with and the footprint of the first step of each
    choice explored from it so far, which a reduced search keeps; how many
    of its choices are left, and the journal level that comes back to it."""

    sleep: dict[int, Footprint]
    done: dict[int, Footprint]
    pending: int
    level: Level


def _search(
    sim: Simulation, max_steps: int, report: ExplorationReport,
    tids: Optional[Sequence[int]] = None, reduce: bool = False, bystanders: bool = False,
) -> Optional[int]:
    """Add to ``report`` every path of a depth-first search over the
    scheduling choices among ``tids``, or among every task when None, and
    return the most steps a path took.

    The search runs on ``sim`` and leaves it where its last path ended. At
    a branch point it opens a journal level and carries on into the first
    choice; it comes back for each later choice by undoing what the steps
    since wrote, and cutting the events and the trace back (Visser et al.,
    "Model Checking Programs", ASE 2000). Only ``tids`` step, and each path
    runs at most ``max_steps`` steps of them. Each path's facts are what it
    added itself: its events, and its stalled tasks among ``tids``. Its
    first witness is the one its path gives with ``tids`` scheduled first on
    a fresh build, on which some task outside ``tids`` is runnable if
    ``bystanders``.

    With ``reduce``, the search keeps sleep sets: a thread sleeps, and is not
    chosen, while all it would do next was already explored from an earlier
    choice of a branch point and no step since touched what its next step
    touches. Every interleaving is then equivalent, up to the order of
    steps that commute, to some path explored, and a path that could only
    go on with a sleeping thread ends uncounted. A reduced search returns
    None at the first path that truncates, since the bound cuts equivalent
    interleavings at different steps.
    """
    longest = 0
    if tids is None:
        runnable = Simulation.runnable_tids
    else:
        runnable = partial(Simulation._runnable_in, tids=tids)
    # where the paths on ``sim`` begin: its events, and its trace
    events, first = len(sim.events), len(sim.trace)
    # (the branch point and the choice to step first, or None for the first
    # path; the decisions)
    stack: list[tuple[Optional[_Branch], Optional[int], tuple[int, ...]]] = [(None, None, ())]
    while stack:
        branch, choice, prefix = stack.pop()
        if branch is not None:
            branch.pending -= 1
            sim.undo(branch.level, close=not branch.pending)
        limit = first + max_steps
        sleep: dict[int, Footprint] = {}
        blocked = False
        while True:
            if choice is not None:
                if reduce:
                    fp = _recorded_step(sim, choice)
                    if branch is not None:
                        sleep = branch.sleep | branch.done
                        branch.done[choice] = fp
                    if sleep:
                        asleep = sleep
                        sleep = {}
                        for tid, other in asleep.items():
                            if _independent(other, fp):
                                sleep[tid] = other
                else:
                    sim.step(choice)
                choice = None
            ready = runnable(sim)
            if not ready or len(sim.trace) >= limit:
                break
            if len(ready) == 1:
                # Only a step that writes a sleeper's task can end or stall it,
                # and the sleeper's own footprint writes its task, so that step
                # wakes it: every sleeper is runnable, here at most this one.
                tid = ready[0]
                if tid in sleep:
                    blocked = True
                    break
                sim.step(tid)
                continue
            awake = [tid for tid in ready if tid not in sleep] if sleep else ready
            if not awake:
                blocked = True
                break
            report.reduced |= reduce
            # a branch point with one choice awake is never come back to
            branch = None
            if len(awake) > 1:
                branch = _Branch(sleep, {}, len(awake) - 1, sim.open_level())
                for tid in reversed(awake[1:]):
                    stack.append((branch, tid, prefix + (tid,)))
            choice = awake[0]
            prefix += (choice,)
        if blocked:
            continue  # some path explored is equivalent to every path it leads to
        truncated = bool(ready)
        if truncated and reduce:
            sim.end_search()
            return None
        if tids is None:
            deadlocked = sim.deadlocked_tids()
        else:
            deadlocked = [tid for tid in tids if sim.tasks[tid].state == TaskState.STALLED]
        steps = len(sim.trace) - first
        longest = max(longest, steps)
        no_witness_yet = report.example_witness is None
        report._add(prefix, steps, truncated, sim.events[events:] if events else sim.events, deadlocked)
        if no_witness_yet and report.example_witness is not None and tids is not None:
            _witness_first(report.example_witness, first, sim.trace[first:], bystanders)
    sim.end_search()
    return longest


def _witness_first(
    witness: dict[str, Any], first: int, path: list[list[Any]], bystanders: bool,
) -> None:
    """Make ``witness``, the first of a group's path that began at step
    ``first`` and whose trace is ``path``, what that path gives with its
    group scheduled first on a fresh build: its step counted from the
    path's start, and the branch-point decisions of the whole simulation
    with which ``run_prefix`` replays it. No other task steps before the
    group there, and none of the group's steps changes another group's
    task. So with ``bystanders``, some task of another group runnable on a
    fresh build, every step of the path is a decision; without, the
    decisions are the group's own."""
    witness["step"] -= first
    if bystanders:
        witness["decisions"] = [tid for _, tid, _, _ in path]


def explore_all(factory: Callable[[], Simulation], max_steps: int = 24) -> ExplorationReport:
    """Enumerate every scheduling choice of every task at every branch point.

    A branch point is a step with more than one runnable thread; forced steps
    don't branch, so the number of explored paths equals the number of
    distinct interleavings of the scenario. The search builds once.
    """
    sim = factory()
    report = ExplorationReport(groups=[[p.name for p in sim.processes.values()]])
    _search(sim, max_steps, report)
    return report


def explore(factory: Callable[[], Simulation], max_steps: int = 24) -> ExplorationReport:
    """The verdict of ``explore_all``, from one path per class of equivalent
    interleavings, with each group of processes that may interact searched
    on its own when the simulation has several.

    Within a group the search keeps sleep sets over the footprint of each
    step, what it read and wrote: interleavings that differ only in the
    order of steps that commute reach the same witnesses, kills and
    deadlocks, so one of them is explored.

    No task of one group can change what a task of another reads, so every
    interleaving is one path of each group, and a witness, kill or deadlock
    exists if it exists in some group. The groups are searched in order, the
    first on the first build and each next one on the simulation where the
    previous group's search ended: its tasks have not stepped there yet.
    The counts are over the paths run. A path that truncates, or groups
    whose longest paths add up to more than ``max_steps``, would make some
    interleaving truncate; then every interleaving is enumerated instead,
    on a fresh build.
    """
    sim = factory()
    groups = sim.groups or (tuple(sim.tasks),)
    runnable = set(sim.runnable_tids())
    report = ExplorationReport(groups=[
        list(dict.fromkeys(sim.processes[sim.tasks[tid].tgid].name for tid in tids))
        for tids in groups
    ])
    budget = max_steps
    for tids in groups if len(groups) > 1 else [None]:
        bystanders = tids is not None and not runnable.issubset(tids)
        longest = _search(sim, budget, report, tids, reduce=True, bystanders=bystanders)
        if longest is None:
            return explore_all(factory, max_steps)
        budget -= longest
    return report
