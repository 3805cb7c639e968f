"""Scenario files: a versioned JSON schema describing processes, thread
programs, filter rules, optional enclaves, cost overrides, and expected
outcomes. Unknown keys are rejected so fixture typos fail loudly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Optional, Union

from .costmodel import CostError, CostTable
from .dpti import Variant
from .filters import CmpOp, FilterBuilder, FilterError, FilterTable, syscall_nr
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
)
from .vmem import PAGE_SIZE, DoubleMapError, vpn_of

SCHEMA_VERSION = 1


class ScenarioError(Exception):
    def __init__(self, message: str, line: Optional[int] = None, col: Optional[int] = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, column {col}: {message}"
        super().__init__(message)


def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ScenarioError(f"{where}: unknown key(s) {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ScenarioError(f"{where}: missing required key(s) {sorted(missing)}")


def _op_bytes(obj: dict, where: str) -> bytes:
    if "string" in obj:
        if not isinstance(obj["string"], str):
            raise ScenarioError(f"{where}.string: expected a string, got {obj['string']!r}")
        return obj["string"].encode()
    if "bytes" in obj:
        value = obj["bytes"]
        if not isinstance(value, list) or not all(
            isinstance(b, int) and not isinstance(b, bool) and 0 <= b < 256 for b in value
        ):
            raise ScenarioError(f"{where}.bytes: expected a list of byte values, got {value!r}")
        return bytes(value)
    raise ScenarioError(f"{where}: needs 'string' or 'bytes'")


def _data_bytes(obj: dict, where: str) -> bytes:
    raw = _op_bytes(obj, where)
    if "string" in obj and obj.get("nul", True):
        raw += b"\x00"
    return raw


_VARIANTS = {"none": None, "stash": Variant.STASH, "freeze": Variant.FREEZE}
_DENY_MODES = ("kill", "errno")
_REGISTERS = ("rax", "rbx", "rsp", "rbp")  # the fields of tasks.CpuState

# default for variant overrides: "use the variant the scenario declares"
_SCENARIO_VARIANT = object()


@dataclass
class Scenario:
    raw: dict[str, Any]
    name: str
    variant: Optional[Variant]
    cores: int
    deny_mode: str
    schedule: dict[str, Any]
    processes: list[dict[str, Any]]
    filters: Optional[dict[str, Any]]
    enclaves: list[dict[str, Any]] = field(default_factory=list)
    costs: Optional[dict[str, Any]] = None
    expectations: Optional[dict[str, Any]] = None
    # The filter policy, compiled once at load into a table that is never
    # installed itself: each sandboxed process of a build gets a fresh() copy.
    filter_table: Optional[FilterTable] = None
    # The default cost table with the scenario's overrides, made at load.
    cost_table: CostTable = field(default_factory=CostTable)

    @cached_property
    def compiled(self) -> CompiledScenario:
        """What every build of this scenario shares, compiled on the first
        build (so that errors only building can find keep surfacing there)
        and read-only after."""
        return _compile(self)


def load_scenario(path: Union[str, Path]) -> Scenario:
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(exc.msg, line=exc.lineno, col=exc.colno) from None
    return scenario_from_dict(raw)


def _address(value: Any, where: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ScenarioError(f"{where}: expected a non-negative integer, got {value!r}")


def _count(obj: dict, key: str, where: str) -> None:
    value = obj.get(key, 1)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ScenarioError(f"{where}.{key}: expected a positive integer, got {value!r}")


def _validate_mapping(m: Any, where: str) -> None:
    _require_keys(
        m,
        allowed={
            "vaddr", "pages", "write", "exec", "user", "shared",
            "label", "alias_of", "data",
        },
        required={"vaddr"},  # alias mappings too
        where=where,
    )
    _address(m["vaddr"], f"{where}.vaddr")
    _count(m, "pages", where)
    data = m.get("data", [])
    if not isinstance(data, list):
        raise ScenarioError(f"{where}.data: expected a list")
    for k, d in enumerate(data):
        at = f"{where}.data[{k}]"
        _require_keys(d, allowed={"at", "string", "bytes", "nul"}, required={"at"}, where=at)
        _address(d["at"], f"{at}.at")
        _data_bytes(d, at)


def scenario_from_dict(raw: dict[str, Any]) -> Scenario:
    _require_keys(
        raw,
        allowed={
            "version", "name", "variant", "cores", "deny_mode", "schedule",
            "processes", "filters", "enclaves", "costs", "expectations",
        },
        required={"version", "name", "processes"},
        where="scenario",
    )
    if raw["version"] != SCHEMA_VERSION:
        raise ScenarioError(
            f"schema version {raw['version']!r} not supported (expected {SCHEMA_VERSION})"
        )
    variant_name = raw.get("variant", "none")
    if variant_name not in _VARIANTS:
        raise ScenarioError(f"variant must be one of {sorted(_VARIANTS)}")
    _count(raw, "cores", "scenario")
    deny_mode = raw.get("deny_mode", "kill")
    if deny_mode not in _DENY_MODES:
        raise ScenarioError(f"deny_mode must be one of {list(_DENY_MODES)}, got {deny_mode!r}")
    schedule = raw.get("schedule", {"mode": "seeded", "seed": 0})
    _require_keys(
        schedule, allowed={"mode", "seed", "max_steps"}, required={"mode"}, where="schedule"
    )
    if schedule["mode"] not in ("seeded", "exhaustive"):
        raise ScenarioError("schedule.mode must be 'seeded' or 'exhaustive'")

    filters = raw.get("filters")
    filter_table = None
    if filters is not None:
        _require_keys(filters, allowed={"rules"}, required={"rules"}, where="filters")
        for k, rule in enumerate(filters["rules"]):
            _require_keys(
                rule, allowed={"nr", "arg", "op", "value", "strings", "allow"},
                required={"nr"}, where=f"filters.rules[{k}]",
            )
        filter_table = FilterTable.from_rules(build_filters(filters).build_rules())

    processes = raw["processes"]
    if not isinstance(processes, list) or not processes:
        raise ScenarioError("processes must be a non-empty list")
    thread_names: set[str] = set()
    ecalls: list[tuple[str, str]] = []  # (where, enclave name)
    for i, proc in enumerate(processes):
        _require_keys(
            proc,
            allowed={"name", "sandboxed", "mappings", "threads"},
            required={"name", "threads"},
            where=f"processes[{i}]",
        )
        if proc.get("sandboxed", False) and filters is None:
            raise ScenarioError(
                f"processes[{i}]: process {proc['name']!r} is sandboxed but no filters are defined"
            )
        for j, m in enumerate(proc.get("mappings", [])):
            _validate_mapping(m, f"processes[{i}].mappings[{j}]")
        for j, t in enumerate(proc["threads"]):
            where = f"processes[{i}].threads[{j}]"
            _require_keys(t, allowed={"name", "rsp", "rbp", "ops"}, required={"name", "ops"}, where=where)
            if t["name"] in thread_names:
                raise ScenarioError(f"{where}: duplicate thread name {t['name']!r}")
            thread_names.add(t["name"])
            _validate_ops(t["ops"], f"{where}.ops", ecalls)

    enclaves = raw.get("enclaves", [])
    process_names = {proc["name"] for proc in processes}
    enclave_names: set[str] = set()
    for i, enc in enumerate(enclaves):
        where = f"enclaves[{i}]"
        _require_keys(
            enc,
            allowed={
                "name", "process", "variant", "pages", "cbp_vaddr", "dbp_vaddrs",
                "syscall_exit", "script",
            },
            required={"name", "process", "pages", "cbp_vaddr"},
            where=where,
        )
        _require_keys(
            enc["pages"], allowed={"vaddr", "pages"}, required={"vaddr"},
            where=f"{where}.pages",
        )
        _address(enc["pages"]["vaddr"], f"{where}.pages.vaddr")
        _count(enc["pages"], "pages", f"{where}.pages")
        _address(enc["cbp_vaddr"], f"{where}.cbp_vaddr")
        dbp_vaddrs = enc.get("dbp_vaddrs", [])
        if not isinstance(dbp_vaddrs, list):
            raise ScenarioError(f"{where}.dbp_vaddrs: expected a list")
        for k, vaddr in enumerate(dbp_vaddrs):
            _address(vaddr, f"{where}.dbp_vaddrs[{k}]")
        if enc["process"] not in process_names:
            raise ScenarioError(f"{where}: unknown process {enc['process']!r}")
        if enc.get("variant", "none") not in _VARIANTS:
            raise ScenarioError(f"{where}.variant must be one of {sorted(_VARIANTS)}")
        if enc["name"] in enclave_names:
            raise ScenarioError(f"{where}: duplicate enclave name {enc['name']!r}")
        enclave_names.add(enc["name"])
        script = enc.get("script", [])
        if not isinstance(script, list):
            raise ScenarioError(f"{where}.script: expected a list")
        for k, op in enumerate(script):
            at = f"{where}.script[{k}]"
            kind = _check_op(op, _ENCLAVE_OPS, at)
            if kind == "set_reg" and op["reg"] not in _REGISTERS:
                raise ScenarioError(f"{at}.reg must be one of {list(_REGISTERS)}, got {op['reg']!r}")
            if kind == "eexit" and op.get("target", "legal") != "legal":
                _address(op["target"], f"{at}.target")
    for where, name in ecalls:
        if name not in enclave_names:
            raise ScenarioError(f"{where}: ecall to undefined enclave {name!r}")

    costs = raw.get("costs")
    try:
        cost_table = CostTable() if costs is None else CostTable().with_overrides(costs)
    except CostError as exc:
        raise ScenarioError(f"costs: {exc}") from None

    expectations = raw.get("expectations")
    if expectations is not None:
        _EXP_KEYS = {"witnesses", "kills", "no_kills", "deadlocks", "paths"}
        _require_keys(
            expectations,
            allowed=_EXP_KEYS | {"by_variant"},
            required=set(),
            where="expectations",
        )
        for vname, sub in expectations.get("by_variant", {}).items():
            if vname not in _VARIANTS:
                raise ScenarioError(f"expectations.by_variant: unknown variant {vname!r}")
            _require_keys(sub, allowed=_EXP_KEYS, required=set(),
                          where=f"expectations.by_variant.{vname}")

    return Scenario(
        raw=raw,
        name=raw["name"],
        variant=_VARIANTS[variant_name],
        cores=raw.get("cores", 2),
        deny_mode=deny_mode,
        schedule=schedule,
        processes=processes,
        filters=filters,
        enclaves=enclaves,
        costs=costs,
        expectations=expectations,
        filter_table=filter_table,
        cost_table=cost_table,
    )


def _build_syscall(op: dict[str, Any], labels: dict[str, list[int]]) -> SyscallOp:
    try:
        nr = syscall_nr(op["nr"])
    except FilterError as exc:
        raise ScenarioError(str(exc)) from None
    return SyscallOp(nr, tuple(op.get("args", [])))


def _build_exec(op: dict[str, Any], labels: dict[str, list[int]]) -> ExecOp:
    image = op.get("image", {})
    return ExecOp(
        op["path_vaddr"],
        ExecImage(
            mappings=tuple(_map_spec(m, labels) for m in image.get("mappings", [])),
            ops=_build_ops(image.get("ops", []), _OPS, labels),
        ),
    )


# op kind -> (allowed keys, required keys, builder), keys besides "op" itself.
# _check_op validates against a table and _build_ops builds from the same one;
# thread ops and enclave script ops each have one.
_OpTable = dict[str, tuple[set[str], set[str], Callable[..., Any]]]

_OPS: _OpTable = {
    "read": ({"vaddr", "len"}, {"vaddr"}, lambda op, labels: ReadOp(op["vaddr"], op.get("len", 1))),
    "write": (
        {"vaddr", "string", "bytes"}, {"vaddr"},
        lambda op, labels: WriteOp(op["vaddr"], _op_bytes(op, "write op")),
    ),
    "syscall": ({"nr", "args"}, {"nr"}, _build_syscall),
    "mmap": (
        {"vaddr", "pages", "write", "exec", "shared", "alias_of"}, {"vaddr"},
        lambda op, labels: MmapOp(_map_spec(op, labels)),
    ),
    "mprotect": (
        {"vaddr", "pages", "user", "write", "exec"}, {"vaddr"},
        lambda op, labels: MprotectOp(
            op["vaddr"], op.get("pages", 1), user=op.get("user", True),
            writable=op.get("write", False), executable=op.get("exec", False),
        ),
    ),
    "fork": ({"child"}, set(), lambda op, labels: ForkOp(_build_ops(op.get("child", []), _OPS, labels))),
    "exec": ({"path_vaddr", "image"}, {"path_vaddr"}, _build_exec),
    "exit": ({"code", "group"}, set(), lambda op, labels: ExitOp(op.get("code", 0), op.get("group", True))),
    "proc_mem_write": (
        {"target", "vaddr", "string", "bytes"}, {"target", "vaddr"},
        lambda op, labels: ProcMemWriteOp(op["target"], op["vaddr"], _op_bytes(op, "proc_mem_write op")),
    ),
    "ecall": ({"enclave"}, {"enclave"}, lambda op, labels: EcallOp(op["enclave"])),
}
_ENCLAVE_OPS: _OpTable = {
    "read": _OPS["read"],
    "write": _OPS["write"],
    "set_reg": ({"reg", "value"}, {"reg", "value"}, lambda op, labels: EnclaveSetReg(op["reg"], op["value"])),
    "eexit": ({"target"}, set(), lambda op, labels: EnclaveEexit(op.get("target", "legal"))),
    "ocall": (set(), set(), lambda op, labels: EnclaveOcall()),
    "interrupt": (set(), set(), lambda op, labels: EnclaveInterrupt()),
}


def _build_ops(ops: list[dict[str, Any]], table: _OpTable, labels: dict[str, list[int]]) -> tuple:
    return tuple(table[op["op"]][2](op, labels) for op in ops)


def _check_op(op: Any, table: _OpTable, at: str) -> str:
    """Check one op's keys, addresses and payload against ``table``; return its kind."""
    if not isinstance(op, dict) or "op" not in op:
        raise ScenarioError(f"{at}: expected an object with an 'op' key")
    kind = op["op"]
    if not isinstance(kind, str) or kind not in table:
        raise ScenarioError(f"{at}: unknown op {kind!r}")
    allowed, required, _ = table[kind]
    _require_keys(op, allowed=allowed | {"op"}, required=required, where=f"{at} ({kind})")
    for key in ("vaddr", "path_vaddr"):
        if key in op:
            _address(op[key], f"{at}.{key}")
    if "string" in allowed:
        _op_bytes(op, at)
    return kind


def _validate_ops(ops: list, where: str, ecalls: list[tuple[str, str]]) -> None:
    if not isinstance(ops, list):
        raise ScenarioError(f"{where}: expected a list")
    for n, op in enumerate(ops):
        at = f"{where}[{n}]"
        kind = _check_op(op, _OPS, at)
        if "pages" in op:
            _count(op, "pages", at)
        if kind == "fork":
            _validate_ops(op.get("child", []), f"{at}.child", ecalls)
        if kind == "exec" and "image" in op:
            _require_keys(
                op["image"], allowed={"mappings", "ops"}, required=set(),
                where=f"{at}.image",
            )
            for j, m in enumerate(op["image"].get("mappings", [])):
                _validate_mapping(m, f"{at}.image.mappings[{j}]")
            _validate_ops(op["image"].get("ops", []), f"{at}.image.ops", ecalls)
        if kind == "ecall":
            ecalls.append((at, op["enclave"]))


# ---------------------------------------------------------------------------
# building a runnable simulation


def build_filters(spec: dict[str, Any]) -> FilterBuilder:
    fb = FilterBuilder()
    for k, rule in enumerate(spec["rules"]):
        try:
            nr = rule["nr"]
            if "strings" in rule:
                for s in rule["strings"]:
                    fb.add_rule_string(nr, rule["arg"], CmpOp.EQ, s)
            elif "arg" in rule:
                op = rule.get("op", "EQ")
                if op not in CmpOp.__members__:
                    raise FilterError(f"unknown comparison {op!r}")
                fb.add_rule_primitive(nr, rule["arg"], CmpOp[op], rule["value"])
            else:
                fb.add_rule(nr)
        except FilterError as exc:
            raise ScenarioError(f"filters.rules[{k}]: {exc}") from None
        except KeyError as exc:
            raise ScenarioError(f"filters.rules[{k}]: missing or unknown {exc}") from None
    return fb


@dataclass(frozen=True)
class _ProcessPlan:
    name: str
    sandboxed: bool
    mappings: tuple[MapSpec, ...]
    # per mapping: the frame ids a labelled mapping is compiled to get, else None
    label_frames: tuple[Optional[tuple[int, ...]], ...]
    threads: tuple[tuple[str, tuple, int, int], ...]  # (name, ops, rsp, rbp)


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


def _compile(sc: Scenario) -> CompiledScenario:
    labels: dict[str, list[int]] = {}
    # A build allocates frames 1, 2, ... in this order, one per page of each
    # mapping that is not an alias, so a label's frame ids are known here;
    # build_simulation checks that the labelled mappings get them.
    next_frame = 1
    mappings = []
    for proc in sc.processes:
        specs, label_frames = [], []
        for m in proc.get("mappings", []):
            spec = _map_spec(m, labels)
            if spec.alias_frames is not None:
                frames = list(spec.alias_frames)
            else:
                frames = list(range(next_frame, next_frame + spec.pages))
                next_frame += spec.pages
            if m.get("label"):
                labels[m["label"]] = frames
            specs.append(spec)
            label_frames.append(tuple(frames) if m.get("label") else None)
        mappings.append((tuple(specs), tuple(label_frames)))
    # Ops may alias any labelled mapping, so they are built once all are known.
    processes = tuple(
        _ProcessPlan(
            name=proc["name"],
            sandboxed=proc.get("sandboxed", False),
            mappings=specs,
            label_frames=label_frames,
            threads=tuple(
                (t["name"], _build_ops(t["ops"], _OPS, labels), t.get("rsp", 0), t.get("rbp", 0))
                for t in proc["threads"]
            ),
        )
        for proc, (specs, label_frames) in zip(sc.processes, mappings)
    )
    enclaves = []
    for enc in sc.enclaves:
        pages = enc["pages"]
        start = vpn_of(pages["vaddr"])
        enclaves.append(
            _EnclavePlan(
                name=enc["name"],
                host=next(i for i, p in enumerate(processes) if p.name == enc["process"]),
                variant=_VARIANTS[enc["variant"]] if "variant" in enc else _SCENARIO_VARIANT,
                vpns=frozenset(range(start, start + pages.get("pages", 1))),
                cbp_vpn=vpn_of(enc["cbp_vaddr"]),
                dbp_vaddrs=tuple(enc.get("dbp_vaddrs", [])),
                syscall_exit=enc.get("syscall_exit", False),
                script=_build_ops(enc.get("script", []), _ENCLAVE_OPS, labels),
            )
        )
    return CompiledScenario(
        processes=processes,
        enclaves=tuple(enclaves),
        config_json=json.dumps(sc.raw, sort_keys=True, separators=(",", ":")),
    )


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
        for j, (spec, expected) in enumerate(zip(proc.mappings, proc.label_frames)):
            try:
                frames = sim.map_region(info.asid, spec)
            except DoubleMapError as exc:
                raise ScenarioError(f"processes[{i}].mappings[{j}]: overlaps an earlier mapping: {exc}") from None
            if expected is not None and tuple(frames) != expected:
                raise RuntimeError(
                    f"processes[{i}].mappings[{j}]: label {spec.label!r} got frames "
                    f"{frames}, compiled for {list(expected)}"
                )
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
    return sim


def _map_spec(m: dict[str, Any], labels: dict[str, list[int]]) -> MapSpec:
    alias_frames = None
    if "alias_of" in m:
        label = m["alias_of"]
        if label not in labels:
            raise ScenarioError(f"alias_of references undefined label {label!r}")
        alias_frames = tuple(labels[label])
    data = tuple(
        (d["at"], _data_bytes(d, "mapping data")) for d in m.get("data", [])
    )
    pages = m.get("pages", len(alias_frames) if alias_frames else 1)
    lo, hi = m["vaddr"], m["vaddr"] + pages * PAGE_SIZE
    for at, raw in data:
        if not (lo <= at and at + len(raw) <= hi):
            raise ScenarioError(
                f"mapping data at {at:#x} (+{len(raw)}) falls outside {lo:#x}..{hi:#x}"
            )
    return MapSpec(
        vaddr=m["vaddr"],
        pages=pages,
        writable=m.get("write", True),
        executable=m.get("exec", False),
        user=m.get("user", True),
        shared=m.get("shared", False),
        alias_frames=alias_frames,
        data=data,
        label=m.get("label"),
    )


# ---------------------------------------------------------------------------
# expectations


def effective_expectations(sc: Scenario, variant: Optional[Variant]) -> Optional[dict[str, Any]]:
    """Base expectations merged with the per-variant override section."""
    exp = sc.expectations
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
    witnesses = result.witnesses if exploring else len(result.witnesses)
    bounds = exp.get("witnesses")
    if bounds:
        if "equals" in bounds and witnesses != bounds["equals"]:
            failures.append(f"witnesses: expected exactly {bounds['equals']}, found {witnesses}")
        if "min" in bounds and witnesses < bounds["min"]:
            failures.append(f"witnesses: expected at least {bounds['min']}, found {witnesses}")
        if "max" in bounds and witnesses > bounds["max"]:
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
        count = result.deadlock_paths if exploring else len(result.deadlocked)
        if count != deadlocks.get("equals", 0):
            failures.append(
                f"deadlocks: expected {deadlocks.get('equals', 0)}, found {count}"
            )
    paths = exp.get("paths")
    if paths is not None and exploring and result.paths < paths.get("min", 1):
        failures.append(f"paths: expected at least {paths.get('min', 1)}, explored {result.paths}")
    return failures
