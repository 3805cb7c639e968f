from dataclasses import fields
from fractions import Fraction

import pytest

from dptisim.bench import (
    alias_sweep_suite,
    getppid_suite,
    sgx_suite,
    simple_filter_program,
    string_sweep_suite,
)
from dptisim.costmodel import DEFAULT_TABLE, CostError, CostTable, accumulate
from dptisim.events import (
    EcallEvent,
    OcallEvent,
    ProtectEvent,
    RestoreEvent,
    SeccompEvalEvent,
    StringCheckEvent,
    SyscallEvent,
)
from dptisim.filters import SYSCALL_NRS, Disposition, seccomp_eval
from dptisim.scenario import _VARIANTS, build_simulation, load_scenario, scenario_from_dict
from dptisim.dpti import Variant


class TestDefaults:
    def test_canonical_component_constants(self):
        table = CostTable()
        assert table.tlb_flush == 458
        assert table.pt_resolve == 86
        assert table.pte_manipulate == 27
        assert table.base_for("getppid") == 295
        assert table.string_compare_cost(10, 1, True) == 40

    def test_zeroed_table_costs_nothing(self):
        table = CostTable(
            base_syscall={"default": 0},
            **{f.name: 0 for f in fields(CostTable) if f.name != "base_syscall"},
        )
        for report in getppid_suite(table) + string_sweep_suite(table) + sgx_suite(table):
            for row in report.rows:
                assert row.cycles == 0

    def test_overrides(self):
        table = CostTable().with_overrides(
            {"tlb_flush": 500, "base_syscall": {"getppid": 300}, "pt_resolve": 12.5, "pte_manipulate": [7, 2]}
        )
        assert table.tlb_flush == 500
        assert (table.pt_resolve, table.pte_manipulate) == (Fraction(25, 2), Fraction(7, 2))
        assert table.base_for("getppid") == 300
        assert table.base_for("openat") == 855  # untouched entries survive
        with pytest.raises(CostError, match="no_such_field"):
            CostTable().with_overrides({"no_such_field": 1})


class TestSimpleFilterBench:
    def test_exact_three_way_comparison(self):
        report = getppid_suite()[0]
        assert report.row("vanilla").cycles == 295
        assert report.row("seccomp").cycles == 395
        assert report.row("dpti").cycles == 360
        assert report.row("seccomp").overhead == 33.9
        assert report.row("dpti").overhead == 22.0

    def test_lookup_cost_constant_in_installed_rule_count(self, scenarios_dir):
        """One sandboxed getppid costs the same lookup under a 1-rule policy
        and under the 100-rule visudo policy with getppid allowed."""
        visudo = load_scenario(scenarios_dir / "visudo.json").raw["filters"]["rules"]
        table = CostTable()
        populated, lookups = [], []
        for rules in ([{"nr": "getppid"}], visudo + [{"nr": "getppid"}]):
            sc = scenario_from_dict({
                "version": 1, "name": "lookup", "filters": {"rules": rules},
                "processes": [{
                    "name": "p", "sandboxed": True,
                    "threads": [{"name": "t", "ops": [{"op": "syscall", "nr": "getppid"}]}],
                }],
            })
            sim = build_simulation(sc, Variant.STASH)
            report = sim.run_seeded(0)
            assert report.kills == []
            populated.append(sc.filter_table.populated)
            lookups.append(accumulate(sim.events, table).components["filter_lookup"])
        assert populated == [1, 55]
        assert lookups[0] == lookups[1] == table.filter_lookup_dpti

    def test_seccomp_cost_strictly_increases_with_scan_position(self):
        table = CostTable()
        totals = []
        for position in (1, 100, 349):
            scanned_event = SeccompEvalEvent(nr=110, decision="allow", scanned=position)
            totals.append(accumulate([scanned_event], table).total)
        assert totals[0] < totals[1] < totals[2]

    def test_full_scan_of_349_rules_costs_exactly_100(self):
        table = CostTable()
        program = simple_filter_program("getppid")
        assert len(program) == 349
        decision, scanned = seccomp_eval(program, SYSCALL_NRS["getppid"], [0] * 6)
        assert decision == Disposition.ALLOW and scanned == 349
        total = accumulate([SeccompEvalEvent(nr=110, decision="allow", scanned=349)], table).total
        assert total == Fraction(100)


class TestDeepFilterBench:
    def test_single_string_total_within_two_percent(self):
        report = string_sweep_suite()[0]
        total = report.row("1-string").cycles
        assert abs(total - 2038) <= 0.02 * 2038

    def test_ten_string_total_within_two_percent(self):
        report = string_sweep_suite()[0]
        total = report.row("10-string").cycles
        assert abs(total - 2351) <= 0.02 * 2351

    def test_no_filter_baseline_is_920(self):
        report = string_sweep_suite()[0]
        assert report.row("no-filter").cycles == 920

    def test_totals_monotone_in_string_count(self):
        report = string_sweep_suite()[0]
        values = [report.row(f"{n}-string").cycles for n in (1, 2, 5, 10)]
        assert values == sorted(values)
        assert len(set(values)) == len(values)

    def test_flush_is_the_largest_added_component(self):
        report = string_sweep_suite()[0]
        components = report.row("1-string").components
        added = {k: v for k, v in components.items() if k != "base"}
        assert max(added, key=added.get) == "tlb_flush"
        # each of the two shootdowns charges the calibrated per-flush cost
        assert components["tlb_flush"] == 2 * 458

    def test_stash_and_freeze_cost_the_same(self):
        stash = string_sweep_suite(variant=Variant.STASH)[0].row("1-string").cycles
        freeze = string_sweep_suite(variant=Variant.FREEZE)[0].row("1-string").cycles
        assert stash == freeze

    def test_write_sweep_uses_longer_string_check(self):
        report = string_sweep_suite(syscall="write")[0]
        table = CostTable()
        check = report.row("1-string").components["string_check"]
        assert check == table.string_compare_cost(204, 1, True) == 137


class TestAliasBench:
    def test_strictly_increasing_and_affine(self):
        report = alias_sweep_suite()[0]
        totals = {m: report.row(f"{m}-mapping").cycles for m in (1, 2, 5, 10)}
        assert totals[1] < totals[2] < totals[5] < totals[10]
        slope = totals[2] - totals[1]
        for a, b in ((2, 5), (5, 10)):
            assert totals[b] - totals[a] == slope * (b - a)

    def test_slope_dominated_by_manipulate_and_flush(self):
        table = CostTable()
        report = alias_sweep_suite(table=table)[0]
        slope = report.row("2-mapping").cycles - report.row("1-mapping").cycles
        per_alias = 2 * (table.pte_manipulate + table.tlb_flush)  # protect and restore
        assert slope == per_alias
        assert 2 * table.tlb_flush > slope / 2  # the flush share dominates


class TestSgxBench:
    def test_transition_overheads_match_calibration(self):
        ecall, ocall = sgx_suite()
        assert ecall.row("fault-exit").overhead == 19.9
        assert ecall.row("syscall-exit").overhead == 9.9
        assert ocall.row("fault-exit").overhead == 44.0
        assert ocall.row("syscall-exit").overhead == 24.0

    def test_syscall_exit_strictly_cheaper_than_fault_exit(self):
        for report in sgx_suite():
            assert report.row("syscall-exit").cycles < report.row("fault-exit").cycles


class TestReportRendering:
    def test_text_table_and_json(self):
        report = getppid_suite()[0]
        text = report.render_text()
        assert "vanilla" in text and "baseline" in text
        data = report.to_dict()
        assert data["rows"][0]["cycles"] == 295

    def test_missing_row_label_raises(self):
        with pytest.raises(KeyError, match="no-such-row"):
            getppid_suite()[0].row("no-such-row")


def reference_fold(events, table):
    """The cycles ``table`` charges for ``events``, folded in Fraction
    arithmetic event by event: (total, components), each an int when
    integral and a Fraction otherwise."""
    components = {}

    def add(component, cycles):
        components[component] = components.get(component, Fraction(0)) + Fraction(cycles)

    for ev in events:
        if isinstance(ev, SyscallEvent):
            add("base", table.base_for(ev.name))
            if ev.sandboxed:
                add("filter_lookup", table.filter_lookup_dpti)
        elif isinstance(ev, (ProtectEvent, RestoreEvent)):
            if isinstance(ev, ProtectEvent):
                add("pt_resolve", Fraction(table.pt_resolve) * ev.pages)
            add("pte_manipulate", Fraction(table.pte_manipulate) * ev.mappings)
            add("tlb_flush", Fraction(table.tlb_flush) * ev.mappings)
        elif isinstance(ev, StringCheckEvent):
            per_char = Fraction(table.string_compare_per_char) * ev.arg_len if ev.matched else 0
            add("string_check", ev.comparisons * Fraction(table.string_compare_base) + per_char)
        elif isinstance(ev, SeccompEvalEvent):
            add("seccomp_scan", ev.scanned * Fraction(table.seccomp_per_rule_scanned))
        elif isinstance(ev, (EcallEvent, OcallEvent)):
            ecall = isinstance(ev, EcallEvent)
            add("sgx_base", table.ecall_base if ecall else table.ocall_base)
            if ev.protected:
                add("domain_enter" if ecall else "domain_exit",
                    table.domain_enter if ecall else table.ocall_exit_fixed)
                add(f"{ev.exit_kind}_exit", table.fault_exit if ev.exit_kind == "fault" else table.syscall_exit)

    def exact(cycles):
        return int(cycles) if cycles.denominator == 1 else cycles

    return exact(sum(components.values(), Fraction(0))), {k: exact(v) for k, v in components.items()}


def typed(cycles):
    return type(cycles).__name__, cycles


AWKWARD = DEFAULT_TABLE.with_overrides(
    {"seccomp_per_rule_scanned": [100, 349], "string_compare_per_char": 0.3, "pt_resolve": [7, 3]}
)


class TestLedgerOracle:
    """The integer ledger against a Fraction fold of the same events: every
    shipped scenario under every variant at seeds 0-4, and the sequential
    scan's charge at a few scan lengths, which no scenario emits."""

    @pytest.mark.parametrize("table", [DEFAULT_TABLE, AWKWARD], ids=["default", "awkward"])
    def test_totals_and_components_equal_the_fraction_fold(self, table, scenarios_dir):
        runs = {
            f"scan {scanned}": [SeccompEvalEvent(nr=110, decision="allow", scanned=scanned)]
            for scanned in (1, 100, 349)
        }
        for path in sorted(scenarios_dir.glob("*.json")):
            sc = load_scenario(path)
            for name, variant in _VARIANTS.items():
                for seed in range(5):
                    sim = build_simulation(sc, variant)
                    sim.run(seed, sc.schedule.get("max_steps", 1000))
                    runs[f"{path.stem}/{name}/{seed}"] = sim.events
        mismatched = []
        for key, events in runs.items():
            got = accumulate(events, table)
            total, components = reference_fold(events, table)
            if typed(got.total) != typed(total) or (
                {k: typed(v) for k, v in got.components.items()}
                != {k: typed(v) for k, v in components.items()}
            ):
                mismatched.append((key, got, total, components))
        assert len(runs) > 3
        assert mismatched == []

    def test_ledger_units_of_the_default_table(self):
        d, units = DEFAULT_TABLE._ledger
        assert d == 698
        assert (units.seccomp_per_rule_scanned, units.string_compare_per_char) == (200, 349)
        assert AWKWARD._ledger[0] == 349 * 10 * 3
