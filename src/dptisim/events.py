"""Structured events emitted into the simulation report.

Events are the only interface between the running simulation and the cycle
cost model: every charged component (syscall entry, filter lookup, page-table
manipulation, TLB shootdown, string comparison, domain transition) appears
here with enough detail for a pure fold to reproduce the totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional


class KillCause:
    UNREGISTERED_SYSCALL = "unregistered_syscall"
    FILTER_VIOLATION = "filter_violation"
    BAD_POINTER = "bad_pointer"
    EXECUTABLE_PAGE = "executable_page"
    CONCURRENT_USE = "concurrent_use_violation"
    STACK_TAMPER = "stack_tamper"
    SEGFAULT = "segfault"
    ISOLATION_VIOLATION = "isolation_violation"


@dataclass
class Event:
    step: int = field(default=-1, init=False)
    seq: int = field(default=-1, init=False)

    def to_dict(self) -> dict[str, Any]:
        return {"type": type(self).__name__, **vars(self)}


@dataclass
class SyscallEvent(Event):
    tid: int
    nr: int
    name: str
    sandboxed: bool
    disposition: str  # unsandboxed | allow | allow_if | deny
    outcome: str  # executed | killed | stalled
    result: Optional[int] = None
    checked: Optional[dict[int, str]] = None
    used: Optional[dict[int, str]] = None


@dataclass
class ProtectEvent(Event):
    tid: int
    variant: str
    frames: list[int]
    mappings: int
    pages: int


@dataclass
class RestoreEvent(Event):
    tid: int
    frames: list[int]
    mappings: int


@dataclass
class StringCheckEvent(Event):
    tid: int
    nr: int
    arg_index: int
    arg_len: int
    comparisons: int
    matched: bool


@dataclass
class SeccompEvalEvent(Event):
    nr: int
    decision: str
    scanned: int


@dataclass
class OpenEvent(Event):
    tid: int
    path: str
    fd: int


@dataclass
class WriteSyscallEvent(Event):
    tid: int
    data: str


@dataclass
class StatEvent(Event):
    tid: int
    origin: str  # syscall | cbp_stub


@dataclass
class ForkEvent(Event):
    tid: int
    child_pid: int
    child_tid: int
    refcount: int


@dataclass
class ExecEvent(Event):
    tid: int
    path: str
    restored_sibling_mappings: int


@dataclass
class ExitEvent(Event):
    tid: int
    code: int
    group: bool
    refcount: int
    freed: bool


@dataclass
class KillEvent(Event):
    tid: int
    tgid: int
    process: str
    cause: str  # a KillCause
    detail: str = ""


@dataclass
class StallEvent(Event):
    tid: int
    kind: str  # frame | mprotect | fork
    frame_id: int


@dataclass
class WakeEvent(Event):
    tid: int
    frame_id: int


@dataclass
class MprotectEvent(Event):
    tid: int
    vpns: list[int]
    outcome: str  # applied | stalled


@dataclass
class ProcMemWriteEvent(Event):
    tid: int
    target_tid: int
    vaddr: int
    outcome: str  # denied | executed


@dataclass
class CowEvent(Event):
    tid: int
    asid: int
    vpn: int
    old_frame: int
    new_frame: int


@dataclass
class EcallEvent(Event):
    tid: int
    enclave: str
    protected: bool
    exit_kind: Optional[str]  # fault | syscall | None when unprotected
    outcome: str  # returned | killed


@dataclass
class OcallEvent(Event):
    tid: int
    enclave: str
    protected: bool
    exit_kind: Optional[str]


@dataclass
class SgxFaultEvent(Event):
    tid: int
    vaddr: int
    classification: str  # legal_exit | kill | lazy_map


@dataclass
class EnclaveLazyMapEvent(Event):
    tid: int
    vpn: int


@dataclass
class DiagnosticEvent(Event):
    tid: int
    message: str


@dataclass
class DeadlockEvent(Event):
    tid: int
    kind: str
    frame_id: int


@dataclass
class FiltersFreedEvent(Event):
    tgid: int
