"""Deterministic simulator for page-table-enforced protection windows.

Temporarily stashing (user bit cleared, page inaccessible) or freezing
(writable bit cleared, page read-only) the pages behind complex syscall
arguments makes deep argument filtering race-free; the same trick applied to
a whole address space confines untrusted enclaves. The simulator reproduces
the mechanism, its attack surface, and a calibrated cycle-cost model at desk
scale.
"""

from .costmodel import BenchReport, CostTable, accumulate
from .dpti import DptiEngine, Variant
from .filters import (
    CmpOp,
    FilterBuilder,
    FilterTable,
    SeccompProgram,
    SeccompRule,
    seccomp_eval,
)
from .tasks import (
    EcallOp,
    ExecImage,
    ExecOp,
    ExitOp,
    ExplorationReport,
    ForkOp,
    MapSpec,
    MmapOp,
    MprotectOp,
    ProcMemWriteOp,
    ReadOp,
    SimReport,
    Simulation,
    SyscallOp,
    WriteOp,
    explore,
    explore_all,
)
from .vmem import PAGE_SIZE, Vmem

__all__ = [
    "BenchReport",
    "CostTable",
    "CmpOp",
    "DptiEngine",
    "EcallOp",
    "ExecImage",
    "ExecOp",
    "ExitOp",
    "ExplorationReport",
    "FilterBuilder",
    "FilterTable",
    "ForkOp",
    "MapSpec",
    "MmapOp",
    "MprotectOp",
    "PAGE_SIZE",
    "ProcMemWriteOp",
    "ReadOp",
    "SeccompProgram",
    "SeccompRule",
    "SimReport",
    "Simulation",
    "SyscallOp",
    "Variant",
    "Vmem",
    "WriteOp",
    "accumulate",
    "explore",
    "explore_all",
    "seccomp_eval",
]
