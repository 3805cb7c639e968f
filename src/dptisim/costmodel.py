"""Cycle accounting over simulation events.

The table is a calibrated accounting device, not a hardware model: each
constant is fitted so that the canonical single-syscall benchmarks reproduce
measured totals, and everything else follows additively from the charged
components. Charges are exact (integers and rationals), so calibrated
totals compare with zero tolerance.

A run's charges are folded in integer units of 1/D cycle, where D is the
lcm of the table's denominators (698 for the defaults), and each component
and the total are converted back to an exact ``int`` or ``Fraction`` once:
a ``Fraction`` operation per charged event made the fold about four times
slower.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from fractions import Fraction
from numbers import Rational
from typing import Any, Callable, Iterable, Optional, Sequence, Union

from .events import (
    EcallEvent,
    Event,
    OcallEvent,
    ProtectEvent,
    RestoreEvent,
    SeccompEvalEvent,
    StringCheckEvent,
    SyscallEvent,
)

Cycles = Union[int, Fraction]


def _num(x: Cycles) -> Union[int, float]:
    """JSON-friendly value: exact int when integral, float otherwise."""
    if isinstance(x, Rational) and x.denominator == 1:
        return int(x)
    return float(x)


def _exact(units: int, d: int) -> Cycles:
    """``units`` of 1/``d`` cycle: an int when integral, else a Fraction."""
    cycles, rest = divmod(units, d)
    return Fraction(units, d) if rest else cycles


@dataclass(frozen=True)
class CostTable:
    """Per-component cycle costs; the additive model charges a simulated run
    as the sum of its components.

    Defaults reproduce: 295/395/360 cycles for an allow-listed fast syscall
    under no filtering / a 349-rule sequential scan / constant table lookup;
    one-page deep string filtering dominated by the two TLB shootdowns; and
    domain-transition overheads of +19.9%/+9.9% (call-in, fault vs syscall
    exit) and +44.0%/+24.0% (call-out).

    A table is not changed once made (``base_syscall`` included): its ledger
    is computed on first use and kept.
    """

    base_syscall: dict[str, Cycles] = field(
        default_factory=lambda: {"getppid": 295, "openat": 855, "write": 855, "default": 295}
    )
    filter_lookup_dpti: Cycles = 65
    seccomp_per_rule_scanned: Cycles = Fraction(100, 349)
    pt_resolve: Cycles = 86
    pte_manipulate: Cycles = 27
    tlb_flush: Cycles = 458
    string_compare_base: Cycles = 35
    string_compare_per_char: Cycles = Fraction(1, 2)
    ecall_base: Cycles = 10000
    ocall_base: Cycles = 5000
    domain_enter: Cycles = 390
    ocall_exit_fixed: Cycles = 600
    fault_exit: Cycles = 1600
    syscall_exit: Cycles = 600

    def base_for(self, name: str) -> Cycles:
        return self.base_syscall.get(name, self.base_syscall.get("default", 0))

    def string_compare_cost(self, arg_len: int, comparisons: int, matched: bool) -> Cycles:
        """Every candidate pays the comparison overhead; only the matching
        one is scanned to its full length."""
        cost = comparisons * self.string_compare_base
        if matched:
            cost = cost + self.string_compare_per_char * arg_len
        return cost

    def with_overrides(self, overrides: Any) -> CostTable:
        """This table with the fields named in ``overrides`` replaced and the
        ``base_syscall`` entries merged. Values are integers, decimals or
        ``[numerator, denominator]`` pairs; anything else is a CostError that
        names the field."""
        if not isinstance(overrides, dict):
            raise CostError(f"expected an object of cost fields, got {overrides!r}")
        changed: dict[str, Any] = {}
        for key, value in overrides.items():
            if key == "base_syscall":
                if not isinstance(value, dict):
                    raise CostError(f"base_syscall: expected an object, got {value!r}")
                changed[key] = {
                    **self.base_syscall,
                    **{name: _to_cycles(v, f"base_syscall.{name}") for name, v in value.items()},
                }
            elif key in _FIELDS:
                changed[key] = _to_cycles(value, key)
            else:
                raise CostError(f"unknown cost field {key!r}")
        return replace(self, **changed)

    @cached_property
    def _ledger(self) -> tuple[int, CostTable]:
        """(D, this table in integer units of 1/D cycle), D the lcm of the
        denominators of its costs."""
        scalars = {name: getattr(self, name) for name in _SCALARS}
        d = math.lcm(*(v.denominator for v in [*scalars.values(), *self.base_syscall.values()]))

        def units(v: Cycles) -> int:
            return v.numerator * (d // v.denominator)

        return d, CostTable(
            base_syscall={name: units(v) for name, v in self.base_syscall.items()},
            **{name: units(v) for name, v in scalars.items()},
        )


class CostError(ValueError):
    """A malformed cost override."""


_FIELDS = frozenset(f.name for f in fields(CostTable))
_SCALARS = tuple(sorted(_FIELDS - {"base_syscall"}))

# The calibrated table, shared by every caller that takes the defaults so
# that its ledger is computed once per process.
DEFAULT_TABLE = CostTable()


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _to_cycles(value: Any, where: str) -> Cycles:
    if _is_int(value):
        return value
    if isinstance(value, float) and math.isfinite(value):
        return Fraction(str(value))
    if (
        isinstance(value, (list, tuple)) and len(value) == 2
        and _is_int(value[0]) and _is_int(value[1]) and value[1] != 0
    ):
        return Fraction(value[0], value[1])
    raise CostError(
        f"{where}: expected a number or [numerator, nonzero denominator], got {value!r}"
    )


# The charge of one event type: each adds its components, in the integer
# units of the scaled table ``u`` (a table's ledger), into ``c``.


def _charge_syscall(e: SyscallEvent, u: CostTable, c: dict[str, int]) -> None:
    c["base"] = c.get("base", 0) + u.base_for(e.name)
    if e.sandboxed:
        c["filter_lookup"] = c.get("filter_lookup", 0) + u.filter_lookup_dpti


def _charge_protect(e: ProtectEvent, u: CostTable, c: dict[str, int]) -> None:
    c["pt_resolve"] = c.get("pt_resolve", 0) + u.pt_resolve * e.pages
    _charge_restore(e, u, c)


def _charge_restore(e: Union[ProtectEvent, RestoreEvent], u: CostTable, c: dict[str, int]) -> None:
    c["pte_manipulate"] = c.get("pte_manipulate", 0) + u.pte_manipulate * e.mappings
    c["tlb_flush"] = c.get("tlb_flush", 0) + u.tlb_flush * e.mappings


def _charge_string_check(e: StringCheckEvent, u: CostTable, c: dict[str, int]) -> None:
    c["string_check"] = c.get("string_check", 0) + u.string_compare_cost(e.arg_len, e.comparisons, e.matched)


def _charge_seccomp_eval(e: SeccompEvalEvent, u: CostTable, c: dict[str, int]) -> None:
    c["seccomp_scan"] = c.get("seccomp_scan", 0) + e.scanned * u.seccomp_per_rule_scanned


def _charge_enclave_call(e: Union[EcallEvent, OcallEvent], u: CostTable, c: dict[str, int]) -> None:
    ecall = type(e) is EcallEvent
    charges = {"sgx_base": u.ecall_base if ecall else u.ocall_base}
    if e.protected:
        if ecall:
            charges["domain_enter"] = u.domain_enter
        else:
            charges["domain_exit"] = u.ocall_exit_fixed
        charges[f"{e.exit_kind}_exit"] = u.fault_exit if e.exit_kind == "fault" else u.syscall_exit
    for component, units in charges.items():
        c[component] = c.get(component, 0) + units


# Every event type is a direct subclass of Event, so the exact type names
# the charge; the types not listed are not charged.
_CHARGES: dict[type, Callable[[Any, CostTable, dict[str, int]], None]] = {
    SyscallEvent: _charge_syscall,
    ProtectEvent: _charge_protect,
    RestoreEvent: _charge_restore,
    StringCheckEvent: _charge_string_check,
    SeccompEvalEvent: _charge_seccomp_eval,
    EcallEvent: _charge_enclave_call,
    OcallEvent: _charge_enclave_call,
}


@dataclass
class CycleTotals:
    total: Cycles
    components: dict[str, Cycles]

    def to_dict(self) -> dict[str, Any]:
        return {
            "total": _num(self.total),
            "components": {k: _num(v) for k, v in sorted(self.components.items())},
        }


def accumulate(events: Iterable[Event], table: CostTable) -> CycleTotals:
    """The components and total that ``table`` charges for ``events``."""
    d, units = table._ledger
    charges = _CHARGES
    components: dict[str, int] = {}
    for event in events:
        charged = charges.get(type(event))
        if charged is not None:
            charged(event, units, components)
    # Integer sums, so the total of the components is the total of the charges.
    return CycleTotals(
        _exact(sum(components.values()), d),
        {component: _exact(u, d) for component, u in components.items()},
    )


# ---------------------------------------------------------------------------
# benchmark reports


def overhead_pct(value: Cycles, baseline: Cycles) -> Optional[float]:
    if baseline == 0:
        return None
    vn, vd, bn, bd = value.numerator, value.denominator, baseline.numerator, baseline.denominator
    # (value - baseline) / baseline * 100 as one ratio of integers, whose true
    # division rounds correctly: float() of the exact Fraction, without one.
    return round((vn * bd - bn * vd) * 100 / (vd * bn), 1)


@dataclass
class BenchRow:
    label: str
    cycles: Cycles
    overhead: Optional[float]  # percent vs the baseline row, 0.1% resolution
    components: dict[str, Cycles] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "cycles": _num(self.cycles),
            "overhead_pct": self.overhead,
            "components": {k: _num(v) for k, v in sorted(self.components.items())},
        }


@dataclass
class BenchReport:
    title: str
    rows: list[BenchRow]

    def row(self, label: str) -> BenchRow:
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(label)

    def to_dict(self) -> dict[str, Any]:
        return {"title": self.title, "rows": [r.to_dict() for r in self.rows]}

    def render_text(self) -> str:
        width = max([len(r.label) for r in self.rows] + [len(self.title), 8])
        lines = [self.title, "-" * len(self.title)]
        for r in self.rows:
            cyc = _num(r.cycles)
            cyc_s = f"{cyc:.1f}" if isinstance(cyc, float) else str(cyc)
            over = "baseline" if r.overhead is None else f"{r.overhead:+.1f}%"
            lines.append(f"{r.label:<{width}}  {cyc_s:>10}  {over:>9}")
        return "\n".join(lines)


def bench_report(title: str, rows: Sequence[tuple[str, CycleTotals]], baseline: str) -> BenchReport:
    base_total = next(t.total for label, t in rows if label == baseline)
    out = []
    for label, totals in rows:
        out.append(
            BenchRow(
                label=label,
                cycles=totals.total,
                overhead=None if label == baseline else overhead_pct(totals.total, base_total),
                components=dict(totals.components),
            )
        )
    return BenchReport(title, out)
