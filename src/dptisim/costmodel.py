"""Cycle accounting over simulation events.

The table is a calibrated accounting device, not a hardware model: each
constant is fitted so that the canonical single-syscall benchmarks reproduce
measured totals, and everything else follows additively from the charged
components. Charges are exact (integers and rationals), so calibrated
totals compare with zero tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from numbers import Rational
from typing import Any, Iterable, Optional, Sequence, Union

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


@dataclass(frozen=True)
class CostTable:
    """Per-component cycle costs; the additive model charges a simulated run
    as the sum of its components.

    Defaults reproduce: 295/395/360 cycles for an allow-listed fast syscall
    under no filtering / a 349-rule sequential scan / constant table lookup;
    one-page deep string filtering dominated by the two TLB shootdowns; and
    domain-transition overheads of +19.9%/+9.9% (call-in, fault vs syscall
    exit) and +44.0%/+24.0% (call-out).
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


class CostError(ValueError):
    """A malformed cost override."""


_FIELDS = frozenset(f.name for f in fields(CostTable))


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


def charge(event: Event, table: CostTable) -> dict[str, Cycles]:
    """Component charges for one event; empty for uncharged event types."""
    if isinstance(event, SyscallEvent):
        out: dict[str, Cycles] = {"base": table.base_for(event.name)}
        if event.sandboxed:
            out["filter_lookup"] = table.filter_lookup_dpti
        return out
    if isinstance(event, ProtectEvent):
        return {
            "pt_resolve": table.pt_resolve * event.pages,
            "pte_manipulate": table.pte_manipulate * event.mappings,
            "tlb_flush": table.tlb_flush * event.mappings,
        }
    if isinstance(event, RestoreEvent):
        return {
            "pte_manipulate": table.pte_manipulate * event.mappings,
            "tlb_flush": table.tlb_flush * event.mappings,
        }
    if isinstance(event, StringCheckEvent):
        return {
            "string_check": table.string_compare_cost(
                event.arg_len, event.comparisons, event.matched
            )
        }
    if isinstance(event, SeccompEvalEvent):
        return {"seccomp_scan": event.scanned * table.seccomp_per_rule_scanned}
    if isinstance(event, (EcallEvent, OcallEvent)):
        ecall = isinstance(event, EcallEvent)
        out = {"sgx_base": table.ecall_base if ecall else table.ocall_base}
        if event.protected:
            if ecall:
                out["domain_enter"] = table.domain_enter
            else:
                out["domain_exit"] = table.ocall_exit_fixed
            out[f"{event.exit_kind}_exit"] = (
                table.fault_exit if event.exit_kind == "fault" else table.syscall_exit
            )
        return out
    return {}


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
    components: dict[str, Cycles] = {}
    for event in events:
        for component, cycles in charge(event, table).items():
            components[component] = components.get(component, 0) + cycles
    # Exact sums, so the total of the components is the total of the charges.
    return CycleTotals(sum(components.values()), components)


# ---------------------------------------------------------------------------
# benchmark reports


def overhead_pct(value: Cycles, baseline: Cycles) -> Optional[float]:
    if baseline == 0:
        return None
    return round(float(Fraction(value - baseline) / Fraction(baseline) * 100), 1)


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
