"""Syscall filter construction and lookup.

Two evaluators live here: the constant-lookup dense filter table used by the
page-table-protected dispatch path, and a sequential first-match program that
models the classic BPF-list baseline for cost comparison. The table is an
array indexed by syscall number, so lookup cost is independent of how many
rules are populated; the sequential program pays per rule scanned.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence, Union

MAX_SYSCALL_ARGS = 6
MAX_ARG_STRING = 4096

# x86-64 numbers for the syscalls the simulator gives names to.
SYSCALL_NRS: dict[str, int] = {
    "read": 0, "write": 1, "open": 2, "close": 3, "stat": 4, "fstat": 5,
    "lstat": 6, "poll": 7, "lseek": 8, "mmap": 9, "mprotect": 10,
    "munmap": 11, "brk": 12, "rt_sigaction": 13, "rt_sigprocmask": 14,
    "rt_sigreturn": 15, "ioctl": 16, "pread64": 17, "pwrite64": 18,
    "readv": 19, "writev": 20, "access": 21, "pipe": 22, "select": 23,
    "sched_yield": 24, "mremap": 25, "msync": 26, "mincore": 27,
    "madvise": 28, "dup": 32, "dup2": 33, "nanosleep": 35, "getitimer": 36,
    "setitimer": 38, "getpid": 39, "socket": 41, "connect": 42,
    "sendto": 44, "recvfrom": 45, "sendmsg": 46, "recvmsg": 47,
    "bind": 49, "listen": 50, "getsockname": 51, "getpeername": 52,
    "clone": 56, "fork": 57, "vfork": 58, "execve": 59, "exit": 60,
    "wait4": 61, "kill": 62, "uname": 63, "fcntl": 72, "flock": 73,
    "fsync": 74, "fdatasync": 75, "getdents": 78, "getcwd": 79,
    "chdir": 80, "fchdir": 81, "rename": 82, "mkdir": 83, "rmdir": 84,
    "creat": 85, "unlink": 87, "chmod": 90, "fchmod": 91, "umask": 95,
    "gettimeofday": 96, "getrlimit": 97, "getuid": 102, "getgid": 104,
    "geteuid": 107, "getppid": 110, "exit_group": 231, "openat": 257,
    "newfstatat": 262, "faccessat": 269,
}

SYSCALL_NAMES = {nr: name for name, nr in SYSCALL_NRS.items()}

# Above every x86-64 syscall number. A FilterTable has one entry per number
# up to its largest rule's, so the bound also bounds the table.
MAX_SYSCALL_NR = 1023


def syscall_nr(nr: Union[int, str]) -> int:
    if isinstance(nr, str):
        try:
            return SYSCALL_NRS[nr]
        except KeyError:
            raise FilterError(f"unknown syscall name {nr!r}") from None
    if not 0 <= nr <= MAX_SYSCALL_NR:
        raise FilterError(f"syscall number {nr} outside 0..{MAX_SYSCALL_NR}")
    return nr


class FilterError(Exception):
    pass


class AlreadyInstalledError(FilterError):
    pass


class DuplicateArgFilterError(FilterError):
    pass


class StringTooLongError(FilterError):
    pass


class CmpOp(Enum):
    EQ = "EQ"
    NE = "NE"
    LT = "LT"
    LE = "LE"
    GT = "GT"
    GE = "GE"

    def evaluate(self, lhs: int, rhs: int) -> bool:
        if self is CmpOp.EQ:
            return lhs == rhs
        if self is CmpOp.NE:
            return lhs != rhs
        if self is CmpOp.LT:
            return lhs < rhs
        if self is CmpOp.LE:
            return lhs <= rhs
        if self is CmpOp.GT:
            return lhs > rhs
        return lhs >= rhs


@dataclass(frozen=True)
class PrimitiveFilter:
    arg_index: int
    op: CmpOp
    value: int


@dataclass(frozen=True)
class StringFilter:
    arg_index: int
    allowed: tuple[bytes, ...]  # non-empty; each at most MAX_ARG_STRING bytes


class Disposition(Enum):
    DENY = "deny"
    ALLOW = "allow"
    ALLOW_IF = "allow_if"


@dataclass(frozen=True)
class FilterRule:
    disposition: Disposition
    primitives: tuple[PrimitiveFilter, ...] = ()
    strings: tuple[StringFilter, ...] = ()


DENY_RULE = FilterRule(Disposition.DENY)


class FilterTable:
    """Dense per-syscall-number rule array; immutable once installed.

    Lookup is index arithmetic: cost does not depend on how many entries are
    populated. Unlisted numbers deny. The table is shared across fork/clone
    with a reference count; the last exiting task frees it.
    """

    def __init__(self, dense: tuple[FilterRule, ...], populated: int):
        self._rules = dense
        self.populated = populated
        self.refcount = 1
        self.freed = False

    @classmethod
    def from_rules(cls, rules: Mapping[int, FilterRule]) -> FilterTable:
        size = (max(rules) + 1) if rules else 0
        dense: list[FilterRule] = [DENY_RULE] * size
        for nr, rule in rules.items():
            dense[nr] = rule
        return cls(tuple(dense), len(rules))

    def fresh(self) -> FilterTable:
        """A newly installed table over the same immutable rules, with its
        own reference count."""
        return FilterTable(self._rules, self.populated)

    def lookup(self, nr: int) -> FilterRule:
        if 0 <= nr < len(self._rules):
            return self._rules[nr]
        return DENY_RULE

    def acquire(self) -> None:
        if self.freed:
            raise FilterError("filter table already freed")
        self.refcount += 1

    def release(self, count: int = 1) -> bool:
        """Drop count references; returns True when this call freed the table."""
        if self.freed:
            raise FilterError("filter table already freed")
        if count > self.refcount:
            raise FilterError(
                f"refcount underflow: releasing {count} of {self.refcount}"
            )
        self.refcount -= count
        if self.refcount == 0:
            self.freed = True
            return True
        return False


class FilterBuilder:
    """User-space side of filter setup, mirroring the support-library calls:
    create, add allow/primitive/string rules, then install once.
    """

    def __init__(self):
        self._allowed: set[int] = set()
        self._primitives: dict[int, dict[int, PrimitiveFilter]] = {}
        self._strings: dict[int, dict[int, list[bytes]]] = {}
        self._installed = False

    def _check_mutable(self) -> None:
        if self._installed:
            raise AlreadyInstalledError("filters already installed; updates are not possible")

    @staticmethod
    def _check_arg_index(arg_index: int) -> None:
        if not 0 <= arg_index < MAX_SYSCALL_ARGS:
            raise FilterError(f"arg_index {arg_index} outside 0..{MAX_SYSCALL_ARGS - 1}")

    def add_rule(self, nr: Union[int, str]) -> FilterBuilder:
        self._check_mutable()
        self._allowed.add(syscall_nr(nr))
        return self

    def add_rule_primitive(
        self, nr: Union[int, str], arg_index: int, op: CmpOp, value: int
    ) -> FilterBuilder:
        self._check_mutable()
        self._check_arg_index(arg_index)
        num = syscall_nr(nr)
        per_arg = self._primitives.setdefault(num, {})
        if arg_index in per_arg or arg_index in self._strings.get(num, {}):
            raise DuplicateArgFilterError(
                f"syscall {num} already has a filter on arg {arg_index}"
            )
        per_arg[arg_index] = PrimitiveFilter(arg_index, op, value)
        return self

    def add_rule_string(
        self, nr: Union[int, str], arg_index: int, op: CmpOp, value: Union[str, bytes]
    ) -> FilterBuilder:
        self._check_mutable()
        self._check_arg_index(arg_index)
        if op is not CmpOp.EQ:
            raise FilterError("string filters support EQ only")
        raw = value.encode() if isinstance(value, str) else bytes(value)
        if len(raw) > MAX_ARG_STRING:
            raise StringTooLongError(f"string filter of {len(raw)} bytes exceeds {MAX_ARG_STRING}")
        num = syscall_nr(nr)
        if arg_index in self._primitives.get(num, {}):
            raise DuplicateArgFilterError(
                f"syscall {num} already has a primitive filter on arg {arg_index}"
            )
        # Repeated calls for the same argument accumulate allowed values.
        self._strings.setdefault(num, {}).setdefault(arg_index, []).append(raw)
        return self

    def build_rules(self) -> dict[int, FilterRule]:
        rules: dict[int, FilterRule] = {}
        nrs = self._allowed | set(self._primitives) | set(self._strings)
        for nr in sorted(nrs):
            primitives = tuple(
                self._primitives.get(nr, {})[i]
                for i in sorted(self._primitives.get(nr, {}))
            )
            strings = tuple(
                StringFilter(i, tuple(vals))
                for i, vals in sorted(self._strings.get(nr, {}).items())
            )
            if primitives or strings:
                rules[nr] = FilterRule(Disposition.ALLOW_IF, primitives, strings)
            else:
                rules[nr] = FilterRule(Disposition.ALLOW)
        return rules

    def install(self) -> FilterTable:
        """Deep-copy the rules into their installed, immutable form."""
        self._check_mutable()
        table = FilterTable.from_rules(self.build_rules())
        self._installed = True
        return table


# ---------------------------------------------------------------------------
# Sequential baseline evaluator


@dataclass(frozen=True)
class SeccompRule:
    nr: int
    predicates: tuple[PrimitiveFilter, ...]
    action: Disposition  # ALLOW or DENY


class SeccompProgram:
    """Ordered rule list with first-match evaluation.

    The constructor reorders rules so that for any one syscall number the
    least permissive rule comes first (denies before allows), which is how
    the least-permissive-wins policy is realised with a sequential scan.
    Rules for distinct numbers keep their relative order.
    """

    def __init__(self, rules: Sequence[SeccompRule], default_action: Disposition = Disposition.DENY):
        ordered = list(rules)
        by_nr: dict[int, list[int]] = {}
        for idx, rule in enumerate(ordered):
            by_nr.setdefault(rule.nr, []).append(idx)
        for indices in by_nr.values():
            if len(indices) > 1:
                group = sorted(
                    (ordered[i] for i in indices),
                    key=lambda r: 0 if r.action is Disposition.DENY else 1,
                )
                for slot, rule in zip(indices, group):
                    ordered[slot] = rule
        self.rules: tuple[SeccompRule, ...] = tuple(ordered)
        self.default_action = default_action

    def __len__(self) -> int:
        return len(self.rules)


def seccomp_eval(
    program: SeccompProgram, nr: int, args: Sequence[int]
) -> tuple[Disposition, int]:
    """Scan the program; the first rule matching nr and predicates decides.

    Returns (decision, number of rules visited); the scan count is what the
    cost model charges per rule.
    """
    for scanned, rule in enumerate(program.rules, start=1):
        if rule.nr != nr:
            continue
        if all(p.op.evaluate(args[p.arg_index], p.value) for p in rule.predicates):
            return rule.action, scanned
    return program.default_action, len(program.rules)
