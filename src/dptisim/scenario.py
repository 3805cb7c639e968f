"""Scenario files: a versioned JSON schema describing processes, thread
programs, filter rules, optional enclaves, cost overrides, and expected
outcomes. A scenario is parsed in one pass when it is loaded: each value is
read once, by a typed reader that names where a bad one is, straight into
the compiled form every build shares. Unknown keys are rejected so fixture
typos fail loudly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Optional, Union

from .costmodel import DEFAULT_TABLE, CostError, CostTable, _is_int
from .dpti import Variant
from .filters import (
    MAX_SYSCALL_NR, SYSCALL_NAMES, SYSCALL_NRS, CmpOp, FilterBuilder, FilterError, FilterTable,
    syscall_nr,
)
from .sgxdom import (
    EnclaveEexit,
    EnclaveInterrupt,
    EnclaveOcall,
    EnclaveSetReg,
    SgxError,
    build_isolated_mapping,
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
    _dumps,
)
from .vmem import PAGE_SIZE, DoubleMapError, vpn_of

SCHEMA_VERSION = 1
# Most pages one mapping, mmap, mprotect or enclave range may cover, and most
# cores a scenario may have: a build allocates per page and per core.
MAX_PAGES = 1024
MAX_CORES = 64


class ScenarioError(Exception):
    def __init__(self, message: str, line: Optional[int] = None, col: Optional[int] = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, column {col}: {message}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# typed readers: each reads one value, checks its type and range, and raises
# a ScenarioError that names where the value is

_REQUIRED = object()


def _at(where: str, key: Union[str, int]) -> str:
    if isinstance(key, int):
        return f"{where}[{key}]"
    return f"{where}.{key}" if where else key


def _fields(obj: Any, allowed: set[str], required: set[str], where: str) -> dict:
    """``obj`` itself, once it is an object with only ``allowed`` keys and
    every ``required`` one."""
    where = where or "scenario"
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ScenarioError(f"{where}: unknown key(s) {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ScenarioError(f"{where}: missing required key(s) {sorted(missing)}")
    return obj


def _read(obj: Any, key: Union[str, int], where: str, default: Any,
          ok: Callable[[Any], bool], expected: str) -> Any:
    """``obj[key]`` (an object's key or a list's index) if ``ok`` holds for
    it; ``default`` if the object lacks the key and one is given."""
    if isinstance(obj, dict) and key not in obj:
        if default is _REQUIRED:
            raise ScenarioError(f"{_at(where, key)}: missing")
        return default
    value = obj[key]
    if not ok(value):
        raise ScenarioError(f"{_at(where, key)}: expected {expected}, got {value!r}")
    return value


def _reader(ok: Callable[[Any], bool], expected: str) -> Callable[..., Any]:
    return lambda obj, key, where, default=_REQUIRED: _read(obj, key, where, default, ok, expected)


_flag = _reader(lambda v: isinstance(v, bool), "true or false")
_str = _reader(lambda v: isinstance(v, str), "a string")
_signed = _reader(_is_int, "an integer")
_unsigned = _reader(lambda v: _is_int(v) and v >= 0, "a non-negative integer")
_positive = _reader(lambda v: _is_int(v) and v >= 1, "a positive integer")
_pages = _reader(lambda v: _is_int(v) and 1 <= v <= MAX_PAGES, f"a page count from 1 to {MAX_PAGES}")
_cores = _reader(lambda v: _is_int(v) and 1 <= v <= MAX_CORES, f"a core count from 1 to {MAX_CORES}")


def _choice(obj: dict, key: str, where: str, choices: Any, default: Any = _REQUIRED) -> str:
    return _read(obj, key, where, default,
                 lambda v: isinstance(v, str) and v in choices, f"one of {sorted(choices)}")


def _list(obj: dict, key: str, where: str) -> list:
    """``obj[key]`` as a list, an empty one if the key is absent."""
    return _read(obj, key, where, [], lambda v: isinstance(v, list), "a list")


def _each(obj: dict, key: str, where: str) -> list[tuple[str, Any]]:
    """(location, item) for each item of the list ``obj[key]``."""
    return [(f"{_at(where, key)}[{k}]", item) for k, item in enumerate(_list(obj, key, where))]


def _all(read: Callable[..., Any], obj: dict, key: str, where: str) -> tuple:
    """The list ``obj[key]`` with each item read by ``read``."""
    items = _list(obj, key, where)
    return tuple(read(items, k, _at(where, key)) for k in range(len(items)))


def _syscall_nr(obj: dict, key: str, where: str) -> int:
    return syscall_nr(_read(
        obj, key, where, _REQUIRED,
        lambda v: v in SYSCALL_NRS if isinstance(v, str) else _is_int(v) and 0 <= v <= MAX_SYSCALL_NR,
        f"a known syscall name or a number from 0 to {MAX_SYSCALL_NR}",
    ))


def _op_bytes(obj: dict, where: str) -> bytes:
    if "string" in obj:
        return _str(obj, "string", where).encode()
    if "bytes" in obj:
        return bytes(_read(
            obj, "bytes", where, _REQUIRED,
            lambda v: isinstance(v, list) and all(_is_int(b) and 0 <= b < 256 for b in v),
            "a list of byte values",
        ))
    raise ScenarioError(f"{where}: needs 'string' or 'bytes'")


_VARIANTS = {"none": None, "stash": Variant.STASH, "freeze": Variant.FREEZE}
_DENY_MODES = ("kill", "errno")
_REGISTERS = ("rax", "rbx", "rsp", "rbp")  # the fields of tasks.CpuState
_MAPPING_KEYS = {"vaddr", "pages", "write", "exec", "user", "shared", "label", "alias_of", "data"}
# No op can alias a label that an exec image would map, so an image takes none.
_IMAGE_MAPPING_KEYS = _MAPPING_KEYS - {"label"}
# expectation -> the bounds it takes
_BOUNDS = {"witnesses": {"equals", "min", "max"}, "deadlocks": {"equals"}, "paths": {"min"}}

# default for variant overrides: "use the variant the scenario declares"
_SCENARIO_VARIANT = object()


# ---------------------------------------------------------------------------
# the compiled scenario


@dataclass(frozen=True)
class _ProcessPlan:
    name: str
    sandboxed: bool
    mappings: tuple[MapSpec, ...]
    threads: tuple[tuple[str, tuple, int, int], ...] = ()  # (name, ops, rsp, rbp)


@dataclass(frozen=True)
class _EnclavePlan:
    name: str
    host: int  # index into CompiledScenario.processes
    variant: object  # a Variant, None, or _SCENARIO_VARIANT for the build's own
    vpns: frozenset[int]
    cbp_vpn: int
    dbp_vaddrs: tuple[int, ...]
    syscall_exit: bool
    script: tuple


@dataclass(frozen=True)
class CompiledScenario:
    """A scenario parsed into the immutable pieces every build shares: mapping
    specs, op tuples and the config's JSON text."""

    processes: tuple[_ProcessPlan, ...]
    enclaves: tuple[_EnclavePlan, ...]
    config_json: str
    # The threads of each group of processes that may interact, by the tids
    # build_simulation gives them, in the order of each group's first thread.
    groups: tuple[tuple[int, ...], ...] = ()


@dataclass
class Scenario:
    raw: dict[str, Any]
    name: str
    variant: Optional[Variant]
    cores: int
    deny_mode: str
    schedule: dict[str, Any]
    processes: list[dict[str, Any]]
    # The filter policy as a table that is never installed itself: each
    # sandboxed process of a build gets a fresh() copy.
    filter_table: Optional[FilterTable]
    # The default cost table with the scenario's overrides.
    cost_table: CostTable
    # What every build of this scenario shares, read-only.
    compiled: CompiledScenario


@dataclass
class _Names:
    """What ops refer to by name: label -> (owner's process index, pages), and the enclaves."""

    labels: dict[str, tuple[int, int]]
    enclaves: dict[str, _EnclavePlan]


def load_scenario(path: Union[str, Path]) -> Scenario:
    try:
        return scenario_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except json.JSONDecodeError as exc:
        raise ScenarioError(exc.msg, line=exc.lineno, col=exc.colno) from None
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"not UTF-8 text: byte {exc.object[exc.start]:#04x} at offset {exc.start}") from None
    except RecursionError:
        raise ScenarioError("nested too deeply") from None


def scenario_from_dict(raw: Any) -> Scenario:
    _fields(
        raw,
        allowed={
            "version", "name", "variant", "cores", "deny_mode", "schedule",
            "processes", "filters", "enclaves", "costs", "expectations",
        },
        required={"version", "name", "processes"},
        where="",
    )
    _read(raw, "version", "", _REQUIRED, lambda v: _is_int(v) and v == SCHEMA_VERSION,
          f"schema version {SCHEMA_VERSION}")
    schedule = _fields(
        raw.get("schedule", {"mode": "seeded", "seed": 0}),
        allowed={"mode", "seed", "max_steps"}, required={"mode"}, where="schedule",
    )
    _choice(schedule, "mode", "schedule", ("seeded", "exhaustive"))
    _signed(schedule, "seed", "schedule", 0)
    _positive(schedule, "max_steps", "schedule", 1)

    filters = raw.get("filters")
    filter_table = None if filters is None else FilterTable.from_rules(build_filters(filters).build_rules())
    costs = raw.get("costs")
    try:
        cost_table = DEFAULT_TABLE if costs is None else DEFAULT_TABLE.with_overrides(costs)
    except CostError as exc:
        raise ScenarioError(f"costs: {exc}") from None
    expectations = raw.get("expectations")
    if expectations is not None:
        _read_expectations(expectations, "expectations", nested=False)

    _read(raw, "processes", "", _REQUIRED, lambda v: isinstance(v, list) and v != [], "a non-empty list")
    names = _Names(labels={}, enclaves={})
    plans = _processes(raw, filter_table is not None, names)
    host = {plan.name: i for i, plan in enumerate(plans)}
    for where, enc in _each(raw, "enclaves", ""):
        plan = _enclave(enc, where, host, names)
        if plan.name in names.enclaves:
            raise ScenarioError(f"{where}: duplicate enclave name {plan.name!r}")
        names.enclaves[plan.name] = plan
    # Ops may alias any labelled mapping and call any enclave, so threads
    # are built once all are known.
    thread_names: set[str] = set()
    for i, (where, proc) in enumerate(_each(raw, "processes", "")):
        threads = []
        for at, t in _each(proc, "threads", where):
            _fields(t, allowed={"name", "rsp", "rbp", "ops"}, required={"name", "ops"}, where=at)
            name = _str(t, "name", at)
            if name in thread_names:
                raise ScenarioError(f"{at}: duplicate thread name {name!r}")
            thread_names.add(name)
            threads.append(
                (name, _ops(t, "ops", at, _OPS, names), _unsigned(t, "rsp", at, 0), _unsigned(t, "rbp", at, 0))
            )
        plans[i] = replace(plans[i], threads=tuple(threads))

    enclaves = tuple(names.enclaves.values())
    groups = _groups(plans, names)
    return Scenario(
        raw=raw,
        name=_str(raw, "name", ""),
        variant=_VARIANTS[_choice(raw, "variant", "", _VARIANTS, "none")],
        cores=_cores(raw, "cores", "", 2),
        deny_mode=_choice(raw, "deny_mode", "", _DENY_MODES, "kill"),
        schedule=schedule,
        processes=raw["processes"],
        filter_table=filter_table,
        cost_table=cost_table,
        compiled=CompiledScenario(
            processes=tuple(plans),
            enclaves=enclaves,
            config_json=_dumps(raw),
            groups=groups,
        ),
    )


def _groups(plans: list[_ProcessPlan], names: _Names) -> tuple[tuple[int, ...], ...]:
    """The tids of the threads of each connected component of "may interact"
    over the processes. Two processes may interact if they map a common
    label, if one names a thread of the other in ``proc_mem_write``, or if
    they share an enclave (its host or an ``ecall`` to it). A ``fork``
    anywhere makes every process one group: a child's pid, tid and name
    come from counters all share."""
    root = list(range(len(plans)))

    def find(i: int) -> int:
        while root[i] != i:
            i = root[i]
        return i

    def join(i: int, j: int) -> None:
        root[find(i)] = find(j)

    # each thread's process, by name and by the tid build_simulation gives
    # it: 1, 2, ... in this order
    threads = [(name, i) for i, plan in enumerate(plans) for name, *_ in plan.threads]
    thread_owner = {**dict(threads), **{tid: i for tid, (_, i) in enumerate(threads, 1)}}
    host = {enc.name: enc.host for enc in names.enclaves.values()}

    def link(i: int, specs: tuple[MapSpec, ...]) -> None:
        for spec in specs:
            if spec.alias_of is not None:
                join(i, names.labels[spec.alias_of][0])

    def walk(i: int, ops: tuple) -> bool:
        """Join process ``i`` with every process ``ops`` reach; False on a fork."""
        for op in ops:
            if isinstance(op, ForkOp):
                return False
            if isinstance(op, MmapOp):
                link(i, (op.spec,))
            elif isinstance(op, ExecOp):
                link(i, op.image.mappings)
                if not walk(i, op.image.ops):
                    return False
            elif isinstance(op, ProcMemWriteOp) and op.target in thread_owner:
                join(i, thread_owner[op.target])
            elif isinstance(op, EcallOp):
                join(i, host[op.enclave])
        return True

    for i, plan in enumerate(plans):
        link(i, plan.mappings)
        if not all(walk(i, ops) for _, ops, _, _ in plan.threads):
            root[:] = [0] * len(plans)
            break
    groups: dict[int, list[int]] = {}
    for tid, (_, i) in enumerate(threads, 1):
        groups.setdefault(find(i), []).append(tid)
    return tuple(tuple(group) for group in groups.values())


def _processes(raw: dict, have_filters: bool, names: _Names) -> list[_ProcessPlan]:
    """Every process with its mappings, and no threads yet."""
    plans: list[_ProcessPlan] = []
    seen: set[str] = set()
    for where, proc in _each(raw, "processes", ""):
        _fields(
            proc, allowed={"name", "sandboxed", "mappings", "threads"},
            required={"name", "threads"}, where=where,
        )
        name = _str(proc, "name", where)
        if name in seen:
            raise ScenarioError(f"{where}: duplicate process name {name!r}")
        seen.add(name)
        sandboxed = _flag(proc, "sandboxed", where, False)
        if sandboxed and not have_filters:
            raise ScenarioError(f"{where}: process {name!r} is sandboxed but no filters are defined")
        specs = []
        for at, m in _each(proc, "mappings", where):
            spec = _map_spec(_fields(m, _MAPPING_KEYS, {"vaddr"}, at), at, names.labels)
            if spec.label:
                if spec.label in names.labels:
                    raise ScenarioError(f"{at}.label: duplicate label {spec.label!r}")
                names.labels[spec.label] = (len(plans), spec.pages)
            specs.append(spec)
        plans.append(_ProcessPlan(name, sandboxed, tuple(specs)))
    return plans


def _enclave(enc: Any, where: str, host: dict[str, int], names: _Names) -> _EnclavePlan:
    _fields(
        enc,
        allowed={
            "name", "process", "variant", "pages", "cbp_vaddr", "dbp_vaddrs",
            "syscall_exit", "script",
        },
        required={"name", "process", "pages", "cbp_vaddr"},
        where=where,
    )
    pages = _fields(enc["pages"], allowed={"vaddr", "pages"}, required={"vaddr"}, where=f"{where}.pages")
    start = vpn_of(_unsigned(pages, "vaddr", f"{where}.pages"))
    variant = _choice(enc, "variant", where, _VARIANTS, None)
    return _EnclavePlan(
        name=_str(enc, "name", where),
        host=host[_choice(enc, "process", where, host)],
        variant=_SCENARIO_VARIANT if variant is None else _VARIANTS[variant],
        vpns=frozenset(range(start, start + _pages(pages, "pages", f"{where}.pages", 1))),
        cbp_vpn=vpn_of(_unsigned(enc, "cbp_vaddr", where)),
        dbp_vaddrs=_all(_unsigned, enc, "dbp_vaddrs", where),
        syscall_exit=_flag(enc, "syscall_exit", where, False),
        script=_ops(enc, "script", where, _ENCLAVE_OPS, names),
    )


def _read_expectations(exp: Any, where: str, nested: bool) -> None:
    """Check every value of an expectations section, which stays the raw
    dict check_expectations reads."""
    allowed = set(_BOUNDS) | {"kills", "no_kills"}
    _fields(exp, allowed if nested else allowed | {"by_variant"}, set(), where)
    for key, bound_names in _BOUNDS.items():
        if key in exp:
            bounds = _fields(exp[key], bound_names, set(), f"{where}.{key}")
            for name in bounds:
                _unsigned(bounds, name, f"{where}.{key}")
    for at, want in _each(exp, "kills", where):
        for key in _fields(want, {"process", "cause"}, set(), at):
            _str(want, key, at)
    _read(exp, "no_kills", where, True,
          lambda v: v is True or isinstance(v, list) and all(isinstance(p, str) for p in v),
          "true or a list of process names")
    if not nested:
        by_variant = _fields(exp.get("by_variant", {}), set(_VARIANTS), set(), f"{where}.by_variant")
        for name, sub in by_variant.items():
            _read_expectations(sub, f"{where}.by_variant.{name}", nested=True)


def build_filters(spec: Any) -> FilterBuilder:
    _fields(spec, allowed={"rules"}, required={"rules"}, where="filters")
    fb = FilterBuilder()
    for at, rule in _each(spec, "rules", "filters"):
        _fields(rule, allowed={"nr", "arg", "op", "value", "strings", "allow"}, required={"nr"}, where=at)
        nr = _syscall_nr(rule, "nr", at)
        _read(rule, "allow", at, True, lambda v: v is True, "true (every rule allows)")
        try:
            if "strings" in rule or "arg" in rule:
                arg = _unsigned(rule, "arg", at)
                op = CmpOp[_choice(rule, "op", at, CmpOp.__members__, "EQ")]
                if "strings" in rule:
                    for s in _all(_str, rule, "strings", at):
                        fb.add_rule_string(nr, arg, op, s)
                else:
                    fb.add_rule_primitive(nr, arg, op, _signed(rule, "value", at))
            else:
                fb.add_rule(nr)
        except FilterError as exc:
            raise ScenarioError(f"{at}: {exc}") from None
    return fb


# ---------------------------------------------------------------------------
# mappings and ops


def _map_spec(m: dict[str, Any], where: str, labels: dict[str, tuple[int, int]]) -> MapSpec:
    alias_of = _str(m, "alias_of", where, None)
    if alias_of is not None and alias_of not in labels:
        raise ScenarioError(f"{where}.alias_of: references undefined label {alias_of!r}")
    label_pages = labels[alias_of][1] if alias_of is not None else 1
    lo = _unsigned(m, "vaddr", where)
    pages = _pages(m, "pages", where, label_pages)
    if alias_of is not None and pages != label_pages:
        raise ScenarioError(
            f"{where}.pages: {pages}, but an alias takes the {label_pages} page(s) of its label"
        )
    hi = lo + pages * PAGE_SIZE
    data = []
    for at, d in _each(m, "data", where):
        _fields(d, allowed={"at", "string", "bytes", "nul"}, required={"at"}, where=at)
        start, raw = _unsigned(d, "at", at), _op_bytes(d, at)
        if "string" in d and _flag(d, "nul", at, True):
            raw += b"\x00"
        if not (lo <= start and start + len(raw) <= hi):
            raise ScenarioError(
                f"{at}: data at {start:#x} (+{len(raw)}) falls outside {lo:#x}..{hi:#x}"
            )
        data.append((start, raw))
    return MapSpec(
        vaddr=lo,
        pages=pages,
        writable=_flag(m, "write", where, True),
        executable=_flag(m, "exec", where, False),
        user=_flag(m, "user", where, True),
        shared=_flag(m, "shared", where, False),
        alias_of=alias_of,
        data=tuple(data),
        label=_str(m, "label", where, None),
    )


# syscall -> the op kind that makes it. A raw syscall op carries only numbers,
# and these syscalls need more: a mapping, child ops, an image, or whether an
# exit ends the whole group.
_OP_SYSCALLS = {
    "mmap": "mmap", "mprotect": "mprotect", "fork": "fork", "execve": "exec",
    "exit": "exit", "exit_group": "exit",
}


def _syscall(op: dict, at: str, names: _Names) -> SyscallOp:
    nr = _syscall_nr(op, "nr", at)
    kind = _OP_SYSCALLS.get(SYSCALL_NAMES.get(nr))
    if kind is not None:
        raise ScenarioError(f"{at}.nr: a raw syscall op cannot make {SYSCALL_NAMES[nr]}; use the {kind!r} op")
    return SyscallOp(nr, _all(_signed, op, "args", at))


def _exec(op: dict[str, Any], at: str, names: _Names) -> ExecOp:
    image = _fields(op.get("image", {}), allowed={"mappings", "ops"}, required=set(), where=f"{at}.image")
    return ExecOp(
        _unsigned(op, "path_vaddr", at),
        ExecImage(
            mappings=tuple(
                _map_spec(_fields(m, _IMAGE_MAPPING_KEYS, {"vaddr"}, where), where, names.labels)
                for where, m in _each(image, "mappings", f"{at}.image")
            ),
            ops=_ops(image, "ops", f"{at}.image", _OPS, names),
        ),
    )


# op kind -> (allowed keys, required keys, builder), keys besides "op" itself;
# each builder reads and checks the values of the op at a location. Thread
# ops and enclave script ops each have one table.
_OpTable = dict[str, tuple[set[str], set[str], Callable[[dict, str, _Names], Any]]]

_OPS: _OpTable = {
    "read": (
        {"vaddr", "len"}, {"vaddr"},
        lambda op, at, names: ReadOp(_unsigned(op, "vaddr", at), _positive(op, "len", at, 1)),
    ),
    "write": (
        {"vaddr", "string", "bytes"}, {"vaddr"},
        lambda op, at, names: WriteOp(_unsigned(op, "vaddr", at), _op_bytes(op, at)),
    ),
    "syscall": ({"nr", "args"}, {"nr"}, _syscall),
    "mmap": (
        {"vaddr", "pages", "write", "exec", "shared", "alias_of"}, {"vaddr"},
        lambda op, at, names: MmapOp(_map_spec(op, at, names.labels)),
    ),
    "mprotect": (
        {"vaddr", "pages", "user", "write", "exec"}, {"vaddr"},
        lambda op, at, names: MprotectOp(
            _unsigned(op, "vaddr", at), _pages(op, "pages", at, 1),
            user=_flag(op, "user", at, True), writable=_flag(op, "write", at, False),
            executable=_flag(op, "exec", at, False),
        ),
    ),
    "fork": ({"child"}, set(), lambda op, at, names: ForkOp(_ops(op, "child", at, _OPS, names))),
    "exec": ({"path_vaddr", "image"}, {"path_vaddr"}, _exec),
    "exit": (
        {"code", "group"}, set(),
        lambda op, at, names: ExitOp(_signed(op, "code", at, 0), _flag(op, "group", at, True)),
    ),
    "proc_mem_write": (
        {"target", "vaddr", "string", "bytes"}, {"target", "vaddr"},
        lambda op, at, names: ProcMemWriteOp(
            _read(op, "target", at, _REQUIRED, lambda v: isinstance(v, str) or _is_int(v) and v >= 0,
                  "a thread name or a non-negative tid"),
            _unsigned(op, "vaddr", at), _op_bytes(op, at),
        ),
    ),
    "ecall": (
        {"enclave"}, {"enclave"},
        lambda op, at, names: EcallOp(_choice(op, "enclave", at, names.enclaves)),
    ),
}
_ENCLAVE_OPS: _OpTable = {
    "read": _OPS["read"],
    "write": _OPS["write"],
    "set_reg": (
        {"reg", "value"}, {"reg", "value"},
        lambda op, at, names: EnclaveSetReg(_choice(op, "reg", at, _REGISTERS), _unsigned(op, "value", at)),
    ),
    "eexit": (
        {"target"}, set(),
        lambda op, at, names: EnclaveEexit(
            _read(op, "target", at, "legal", lambda v: v == "legal" or _is_int(v) and v >= 0,
                  "\"legal\" or a non-negative address")
        ),
    ),
    "ocall": (set(), set(), lambda op, at, names: EnclaveOcall()),
    "interrupt": (set(), set(), lambda op, at, names: EnclaveInterrupt()),
}


def _ops(obj: dict, key: str, where: str, table: _OpTable, names: _Names) -> tuple:
    """The op list ``obj[key]``, each op checked and built by ``table``."""
    ops = []
    for at, op in _each(obj, key, where):
        if not isinstance(op, dict) or "op" not in op:
            raise ScenarioError(f"{at}: expected an object with an 'op' key")
        kind = op["op"]
        if not isinstance(kind, str) or kind not in table:
            raise ScenarioError(f"{at}: unknown op {kind!r}")
        allowed, required, build = table[kind]
        _fields(op, allowed=allowed | {"op"}, required=required, where=f"{at} ({kind})")
        ops.append(build(op, at, names))
    return tuple(ops)


# ---------------------------------------------------------------------------
# building a runnable simulation


def build_simulation(
    sc: Scenario,
    variant_override: object = _SCENARIO_VARIANT,
    cost_table: Optional[CostTable] = None,
) -> Simulation:
    plan = sc.compiled
    variant = sc.variant if variant_override is _SCENARIO_VARIANT else variant_override
    sim = Simulation(
        variant=variant,
        cores=sc.cores,
        deny_mode=sc.deny_mode,
        name=sc.name,
        cost_table=sc.cost_table if cost_table is None else cost_table,
        config=sc.raw,
        config_json=plan.config_json,
    )
    proc_infos = []
    for i, proc in enumerate(plan.processes):
        # Each process gets its own table (own refcount) over the shared rules.
        table = sc.filter_table.fresh() if proc.sandboxed else None
        info = sim.add_process(proc.name, sandboxed=proc.sandboxed, filters=table)
        proc_infos.append(info)
        for j, spec in enumerate(proc.mappings):
            try:
                sim.map_region(info.asid, spec)
            except DoubleMapError as exc:
                raise ScenarioError(f"processes[{i}].mappings[{j}]: overlaps an earlier mapping: {exc}") from None
    for i, enc in enumerate(plan.enclaves):
        try:
            domain = build_isolated_mapping(
                sim.vmem,
                sim.vmem.spaces[proc_infos[enc.host].asid],
                enc.name,
                enc.vpns,
                enc.cbp_vpn,
                enc.dbp_vaddrs,
                variant if enc.variant is _SCENARIO_VARIANT else enc.variant,
                syscall_exit=enc.syscall_exit,
                script=enc.script,
            )
        except SgxError as exc:
            raise ScenarioError(f"enclaves[{i}]: {exc}") from None
        sim.enclaves[enc.name] = domain
    for proc, info in zip(plan.processes, proc_infos):
        for name, ops, rsp, rbp in proc.threads:
            sim.add_thread(info, ops, name=name, rsp=rsp, rbp=rbp)
    sim.groups = plan.groups
    return sim


# ---------------------------------------------------------------------------
# expectations


def effective_expectations(sc: Scenario, variant: Optional[Variant]) -> Optional[dict[str, Any]]:
    """Base expectations merged with the per-variant override section."""
    exp = sc.raw.get("expectations")
    if exp is None:
        return None
    merged = {k: v for k, v in exp.items() if k != "by_variant"}
    name = variant.value if variant is not None else "none"
    merged.update(exp.get("by_variant", {}).get(name, {}))
    return merged or None


def check_expectations(
    sc: Scenario,
    result: Union[SimReport, ExplorationReport],
    variant: object = _SCENARIO_VARIANT,
) -> list[str]:
    """Returns a list of human-readable failures; empty means all hold."""
    if variant is _SCENARIO_VARIANT:
        variant = sc.variant
    exp = effective_expectations(sc, variant)
    if not exp:
        return []
    failures: list[str] = []
    exploring = isinstance(result, ExplorationReport)
    # A search of groups apart, or one cut by sleep sets, counts only the
    # paths it ran, so a witness or deadlock bound reads as existence: none,
    # or at least one.
    apart = len(result.groups) if exploring and len(result.groups) > 1 else 0
    reduced = apart or (exploring and result.reduced)

    def counted(n: int) -> int:
        return min(n, 1) if reduced else n

    witnesses = counted(result.witnesses if exploring else len(result.witnesses))
    bounds = exp.get("witnesses")
    if bounds:
        if "equals" in bounds and witnesses != counted(bounds["equals"]):
            failures.append(f"witnesses: expected exactly {bounds['equals']}, found {witnesses}")
        if "min" in bounds and witnesses < counted(bounds["min"]):
            failures.append(f"witnesses: expected at least {bounds['min']}, found {witnesses}")
        if "max" in bounds and witnesses > counted(bounds["max"]):
            failures.append(f"witnesses: expected at most {bounds['max']}, found {witnesses}")
    # (process, cause) of every kill in the seeded run, or on some path of
    # the exploration
    if exploring:
        killed = {
            (process, cause)
            for process, causes in result.process_kills.items() for cause in causes
        }
    else:
        killed = {(k["process"], k["cause"]) for k in result.kills}
    for want in exp.get("kills", []):
        if not any(
            ("process" not in want or process == want["process"])
            and ("cause" not in want or cause == want["cause"])
            for process, cause in killed
        ):
            failures.append(f"kills: no kill matching {want}{' on any path' if exploring else ''}")
    no_kills = exp.get("no_kills")
    if no_kills:
        bad = sorted(k for k in killed if no_kills is True or k[0] in no_kills)
        if bad:
            failures.append(f"no_kills: kills occurred: {bad}")
    deadlocks = exp.get("deadlocks")
    if deadlocks is not None:
        count = counted(result.deadlock_paths if exploring else len(result.deadlocked))
        if count != counted(deadlocks.get("equals", 0)):
            failures.append(
                f"deadlocks: expected {deadlocks.get('equals', 0)}, found {count}"
            )
    paths = exp.get("paths")
    if paths is not None and reduced:
        how = (
            f"{apart} groups were explored apart" if apart
            else "one path was explored per class of equivalent interleavings"
        )
        failures.append(
            f"paths: {how}, so the path count is not the number of "
            "interleavings; explore every interleaving (explore_all) to bound it"
        )
    elif paths is not None and exploring and result.paths < paths.get("min", 1):
        failures.append(f"paths: expected at least {paths.get('min', 1)}, explored {result.paths}")
    return failures
