import json

import pytest

from dptisim.cli import main
from dptisim.filters import MAX_SYSCALL_NR
from dptisim.scenario import (
    MAX_CORES,
    MAX_PAGES,
    ScenarioError,
    build_simulation,
    check_expectations,
    load_scenario,
    scenario_from_dict,
)
from dptisim.tasks import explore, explore_all


def minimal_scenario(**overrides):
    raw = {
        "version": 1,
        "name": "mini",
        "processes": [
            {
                "name": "p",
                "threads": [{"name": "t", "ops": [{"op": "read", "vaddr": 65536}]}],
                "mappings": [{"vaddr": 65536}],
            }
        ],
    }
    raw.update(overrides)
    return raw


class TestParsing:
    def test_json_error_carries_line_and_column(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "version": 1,\n  "oops"\n}')
        with pytest.raises(ScenarioError) as err:
            load_scenario(bad)
        assert err.value.line in (3, 4)  # the parser flags the delimiter
        assert err.value.col is not None
        assert "line" in str(err.value)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ScenarioError, match="unknown key"):
            scenario_from_dict(minimal_scenario(bogus=1))

    def test_unknown_op_key_rejected(self):
        raw = minimal_scenario()
        raw["processes"][0]["threads"][0]["ops"][0]["left"] = 1
        with pytest.raises(ScenarioError, match="unknown key"):
            scenario_from_dict(raw)

    def test_unknown_op_rejected(self):
        raw = minimal_scenario()
        raw["processes"][0]["threads"][0]["ops"] = [{"op": "teleport"}]
        with pytest.raises(ScenarioError, match="unknown op"):
            scenario_from_dict(raw)

    def test_version_mismatch_rejected(self):
        with pytest.raises(ScenarioError, match="version"):
            scenario_from_dict(minimal_scenario(version=99))

    def test_missing_required_key_rejected(self):
        raw = minimal_scenario()
        del raw["processes"][0]["threads"][0]["name"]
        with pytest.raises(ScenarioError, match="missing required"):
            scenario_from_dict(raw)

    def test_bad_variant_rejected(self):
        with pytest.raises(ScenarioError, match="variant"):
            scenario_from_dict(minimal_scenario(variant="both"))

    def test_alias_of_requires_known_label(self):
        raw = minimal_scenario()
        raw["processes"][0]["mappings"].append({"vaddr": 131072, "alias_of": "ghost"})
        with pytest.raises(ScenarioError, match="mappings\\[1\\].alias_of: references undefined label"):
            scenario_from_dict(raw)

    def test_sandboxed_process_requires_filters(self):
        raw = minimal_scenario()
        raw["processes"][0]["sandboxed"] = True
        with pytest.raises(ScenarioError, match="no filters"):
            build_simulation(scenario_from_dict(raw))

    def test_errno_deny_mode_survives_unregistered_syscall(self):
        raw = minimal_scenario(
            deny_mode="errno",
            variant="stash",
            filters={"rules": [{"nr": "read"}]},
        )
        raw["processes"][0]["sandboxed"] = True
        raw["processes"][0]["threads"][0]["ops"] = [
            {"op": "syscall", "nr": "socket", "args": []},
            {"op": "syscall", "nr": "read", "args": []},
        ]
        sim = build_simulation(scenario_from_dict(raw))
        report = sim.run_seeded(0)
        assert report.kills == []
        outcomes = [e["outcome"] for e in report.events if e["type"] == "SyscallEvent"]
        assert outcomes == ["denied", "executed"]

    @pytest.mark.parametrize(
        "op, passes, fails",
        [("EQ", 5, 6), ("NE", 6, 5), ("LT", 4, 5), ("LE", 5, 6), ("GT", 6, 5), ("GE", 5, 4)],
    )
    def test_primitive_rule_checks_its_argument(self, op, passes, fails):
        raw = minimal_scenario(
            variant="stash",
            filters={"rules": [{"nr": "write", "arg": 2, "op": op, "value": 5}]},
        )
        raw["processes"][0]["sandboxed"] = True
        raw["processes"][0]["threads"][0]["ops"] = [
            {"op": "syscall", "nr": "write", "args": [1, 65536, passes]},
            {"op": "syscall", "nr": "write", "args": [1, 65536, fails]},
        ]
        report = build_simulation(scenario_from_dict(raw)).run_seeded(0)
        ran = [(e["name"], e["result"]) for e in report.events if e["type"] == "SyscallEvent"]
        assert ran == [("write", passes)]
        assert [(k["cause"], k["detail"]) for k in report.kills] == [
            ("filter_violation", f"write arg2 fails {op} 5")
        ]


class TestExpectations:
    def test_by_variant_merging(self, scenarios_dir):
        sc = load_scenario(scenarios_dir / "toctou_openat.json")
        report = explore(lambda: build_simulation(sc, variant_override=None), 40)
        assert check_expectations(sc, report, None) == []
        # the no-protection expectations demand a witness; a protected run
        # evaluated against them must fail
        from dptisim.dpti import Variant

        protected = explore(
            lambda: build_simulation(sc, variant_override=Variant.STASH), 40
        )
        assert check_expectations(sc, protected, None) != []
        assert check_expectations(sc, protected, Variant.STASH) == []

    def test_per_process_kills_hold_on_every_path(self, scenarios_dir):
        sc = load_scenario(scenarios_dir / "visudo.json")
        report = explore(lambda: build_simulation(sc), 8)
        assert set(report.process_kills) == {"override", "wrongfile"}
        assert check_expectations(sc, report) == []

    @pytest.mark.parametrize("expectations, holds", [
        ({"kills": [{"process": "victim", "cause": "unregistered_syscall"}]}, True),
        ({"kills": [{"process": "victim"}, {"cause": "unregistered_syscall"}]}, True),
        ({"kills": [{"process": "bystander"}]}, False),
        ({"kills": [{"process": "victim", "cause": "segfault"}]}, False),
        ({"no_kills": ["bystander"]}, True),
        ({"no_kills": ["victim"]}, False),
        ({"no_kills": True}, False),
    ])
    def test_kill_expectations_name_the_process_in_runs_and_explorations(self, expectations, holds):
        raw = minimal_scenario(filters={"rules": [{"nr": "exit_group"}]}, expectations=expectations)
        raw["processes"][0].update(name="bystander")
        raw["processes"].append({
            "name": "victim", "sandboxed": True,
            "threads": [{"name": "v", "ops": [{"op": "syscall", "nr": "getppid"}]}],
        })
        sc = scenario_from_dict(raw)
        seeded = build_simulation(sc).run_seeded(0)
        explored = explore(lambda: build_simulation(sc), 40)
        assert explored.verdict()["process_kills"] == {"victim": ["unregistered_syscall"]}
        for report in (seeded, explored):
            assert (check_expectations(sc, report) == []) is holds


class TestCliRun:
    def test_missing_file_exits_2(self, capsys):
        assert main(["run", "no-such-file.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_file_exits_2_with_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["run", str(bad)]) == 2
        assert "line" in capsys.readouterr().err

    def test_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(json.dumps(minimal_scenario(name="caf\u00e9"), ensure_ascii=False).encode("latin-1"))
        for argv in (["run", str(bad)], ["bench", str(bad)]):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert "not UTF-8 text: byte 0xe9" in err and "Traceback" not in err

    def test_deeply_nested_file_exits_2(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["run", str(deep)]) == 2
        assert "nested too deeply" in capsys.readouterr().err

    def test_usage_error_exits_2(self, capsys):
        assert main(["run"]) == 2

    def test_fixture_passes_under_every_variant(self, scenarios_dir, capsys):
        for variant in ("none", "stash", "freeze"):
            code = main(["run", str(scenarios_dir / "toctou_openat.json"), "--variant", variant])
            assert code == 0, capsys.readouterr()

    def test_failed_expectation_exits_1(self, tmp_path, capsys):
        raw = minimal_scenario(expectations={"witnesses": {"min": 5}})
        path = tmp_path / "s.json"
        path.write_text(json.dumps(raw))
        assert main(["run", str(path)]) == 1
        assert "expectation failed" in capsys.readouterr().err

    def test_seeded_runs_are_reproducible(self, scenarios_dir, tmp_path, capsys):
        hashes = []
        for i in range(2):
            out = tmp_path / f"r{i}.json"
            code = main([
                "run", str(scenarios_dir / "visudo.json"), "--seed", "3",
                "--report-out", str(out),
            ])
            assert code == 0
            hashes.append(json.loads(out.read_text())["hash"])
        assert hashes[0] == hashes[1]

    def test_round_trip_config_reruns_identically(self, scenarios_dir, tmp_path):
        out1 = tmp_path / "r1.json"
        assert main([
            "run", str(scenarios_dir / "visudo.json"), "--variant", "stash",
            "--seed", "1", "--report-out", str(out1),
        ]) == 0
        report = json.loads(out1.read_text())
        rewritten = tmp_path / "echoed.json"
        rewritten.write_text(json.dumps(report["config"]))
        out2 = tmp_path / "r2.json"
        assert main([
            "run", str(rewritten), "--variant", "stash", "--seed", "1",
            "--report-out", str(out2),
        ]) == 0
        assert json.loads(out2.read_text())["hash"] == report["hash"]

    def test_exhaustive_flag_writes_exploration_report(self, scenarios_dir, tmp_path):
        out = tmp_path / "x.json"
        code = main([
            "run", str(scenarios_dir / "toctou_openat.json"), "--exhaustive",
            "--report-out", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["paths"] > 0 and data["witnesses"] >= 1

    def test_exhaustive_run_checks_per_process_expectations(self, scenarios_dir, capsys):
        code = main(["run", str(scenarios_dir / "visudo.json"), "--exhaustive", "--max-steps", "8"])
        out = capsys.readouterr()
        assert code == 0, out.err
        assert "explored 885 interleavings" in out.out
        assert "expectations: all hold" in out.out

    @pytest.mark.parametrize("variant", ["none", "stash", "freeze"])
    def test_exhaustive_visudo_explores_its_processes_apart(self, scenarios_dir, tmp_path, capsys, variant):
        out = tmp_path / "x.json"
        code = main([
            "run", str(scenarios_dir / "visudo.json"), "--exhaustive", "--variant", variant,
            "--report-out", str(out),
        ])
        printed = capsys.readouterr()
        assert code == 0, printed.err
        assert "3 paths over 3 groups explored apart" in printed.out
        assert "expectations: all hold" in printed.out
        data = json.loads(out.read_text())
        assert data["groups"] == [["benign"], ["override"], ["wrongfile"]]
        assert data["verdict"]["process_kills"] == {
            "override": ["filter_violation"], "wrongfile": ["filter_violation"],
        }


def two_independent_processes(expectations):
    """Two processes that share no frame, each with one thread: one path each
    when explored apart, 3 interleavings together."""
    raw = minimal_scenario(expectations=expectations)
    raw["processes"][0]["threads"][0]["ops"].append({"op": "read", "vaddr": 65536})
    raw["processes"].append({
        "name": "q", "mappings": [{"vaddr": 65536}],
        "threads": [{"name": "u", "ops": [{"op": "read", "vaddr": 65536}]}],
    })
    return scenario_from_dict(raw)


class TestExpectationsApart:
    @pytest.mark.parametrize("expectations, holds", [
        ({"witnesses": {"equals": 0}}, True),
        ({"witnesses": {"max": 0}}, True),
        ({"witnesses": {"min": 1}}, False),
        ({"witnesses": {"equals": 2}}, False),
        ({"deadlocks": {"equals": 0}}, True),
        ({"deadlocks": {"equals": 1}}, False),
    ])
    def test_bounds_read_as_existence(self, expectations, holds):
        sc = two_independent_processes(expectations)
        report = explore(lambda: build_simulation(sc), 40)
        assert len(report.groups) == 2 and report.paths == 2
        assert (check_expectations(sc, report) == []) is holds

    def test_witness_count_reads_as_at_least_one(self, scenarios_dir):
        raw = json.loads((scenarios_dir / "toctou_openat.json").read_text())
        raw["processes"].append({"name": "q", "threads": [{"name": "u", "ops": []}]})
        raw["expectations"] = {"witnesses": {"equals": 5}}
        sc = scenario_from_dict(raw)
        report = explore(lambda: build_simulation(sc, variant_override=None), 40)
        assert len(report.groups) == 2 and report.witnesses == 1
        assert check_expectations(sc, report, None) == []
        raw["expectations"] = {"witnesses": {"max": 0}}
        assert check_expectations(scenario_from_dict(raw), report, None) != []

    def test_paths_bound_asks_for_full_enumeration(self):
        sc = two_independent_processes({"paths": {"min": 1}})
        (failure,) = check_expectations(sc, explore(lambda: build_simulation(sc), 40))
        assert "2 groups were explored apart" in failure and "explore_all" in failure
        full = explore_all(lambda: build_simulation(sc), 40)
        assert full.paths == 3 and check_expectations(sc, full) == []

    def test_paths_bound_fails_a_reduced_search_and_a_short_enumeration(self):
        """Two threads of one process reading one page: ``explore`` cuts
        their interleavings to one class, so a paths bound fails there; under
        ``explore_all`` it fails when fewer interleavings exist."""
        raw = minimal_scenario(expectations={"paths": {"min": 3}})
        raw["processes"][0]["threads"].append(
            {"name": "t2", "ops": [{"op": "read", "vaddr": 65536}]}
        )
        sc = scenario_from_dict(raw)
        reduced = explore(lambda: build_simulation(sc), 40)
        assert reduced.reduced and len(reduced.groups) == 1
        (failure,) = check_expectations(sc, reduced)
        assert "one path was explored per class" in failure and "explore_all" in failure
        full = explore_all(lambda: build_simulation(sc), 40)
        assert full.paths == 2
        assert check_expectations(sc, full) == ["paths: expected at least 3, explored 2"]

    def test_run_enumerates_every_interleaving_for_a_paths_bound(self, tmp_path, capsys):
        path = tmp_path / "two.json"
        path.write_text(json.dumps(two_independent_processes({"paths": {"min": 3}}).raw))
        assert main(["run", str(path), "--exhaustive", "--max-steps", "40"]) == 0
        out = capsys.readouterr().out
        assert "explored 3 interleavings" in out and "expectations: all hold" in out


def _add_thread(raw, **thread):
    raw["processes"][0]["threads"].append(thread)


def _set_op(raw, **op):
    raw["processes"][0]["threads"][0]["ops"] = [op]


def _labelled(raw):
    """``raw`` with its first mapping labelled ``x``."""
    raw["processes"][0]["mappings"][0]["label"] = "x"
    return raw


def _add_enclave(raw, **enclave):
    """An enclave at 1 MiB with its code bridge page at 2 MiB, plus ``enclave``."""
    raw["processes"][0]["mappings"].extend([{"vaddr": 1 << 20}, {"vaddr": 2 << 20, "exec": True}])
    raw["enclaves"] = [{
        "name": "e", "process": "p", "pages": {"vaddr": 1 << 20}, "cbp_vaddr": 2 << 20,
        **enclave,
    }]


MALFORMED = {
    "zero cores": (lambda raw: raw.update(cores=0), "cores"),
    "unknown deny mode": (lambda raw: raw.update(deny_mode="bogus"), "deny_mode"),
    "ecall to undefined enclave": (
        lambda raw: _set_op(raw, op="ecall", enclave="ghost"), "threads[0].ops[0]"),
    "duplicate thread name": (
        lambda raw: _add_thread(raw, name="t", ops=[]), "processes[0].threads[1]"),
    "overlapping mappings": (
        lambda raw: raw["processes"][0]["mappings"].append({"vaddr": 65536 + 8}),
        "processes[0].mappings[1]"),
    "string vaddr": (
        lambda raw: _set_op(raw, op="read", vaddr="0x10000"), "ops[0].vaddr"),
    "negative vaddr": (
        lambda raw: raw["processes"][0]["mappings"][0].update(vaddr=-4096), "mappings[0].vaddr"),
    "op missing a required key": (lambda raw: _set_op(raw, op="write"), "ops[0]"),
    "string rule without arg": (
        lambda raw: raw.update(filters={"rules": [{"nr": "openat", "strings": ["x"]}]}),
        "filters.rules[0]"),
    "unknown comparison": (
        lambda raw: raw.update(filters={"rules": [{"nr": 1, "arg": 0, "op": "XX", "value": 1}]}),
        "filters.rules[0]"),
    "enclave on unknown process": (
        lambda raw: raw.update(enclaves=[{
            "name": "e", "process": "ghost", "pages": {"vaddr": 1 << 20}, "cbp_vaddr": 2 << 20,
        }]),
        "enclaves[0]"),
    "enclave op missing a key": (
        lambda raw: _add_enclave(raw, script=[{"op": "read"}]), "enclaves[0].script[0]"),
    "enclave eexit to a named target": (
        lambda raw: _add_enclave(raw, script=[{"op": "eexit", "target": "home"}]),
        "enclaves[0].script[0].target"),
    "enclave string bridge address": (
        lambda raw: _add_enclave(raw, dbp_vaddrs=["0x300000"]), "enclaves[0].dbp_vaddrs[0]"),
    "mapping data without an address": (
        lambda raw: raw["processes"][0]["mappings"][0].update(data=[{"string": "x"}]),
        "mappings[0].data[0]"),
    "mapping data without a payload": (
        lambda raw: raw["processes"][0]["mappings"][0].update(data=[{"at": 65536}]),
        "mappings[0].data[0]: needs 'string' or 'bytes'"),
    "mapping data past its mapping's end": (
        lambda raw: raw["processes"][0]["mappings"][0].update(data=[{"at": 65536 + 4094, "string": "xy"}]),
        "mappings[0].data[0]: data at 0x10ffe (+3) falls outside 0x10000..0x11000"),
    "exec image mapping with a label": (
        lambda raw: _set_op(raw, op="exec", path_vaddr=65536,
                            image={"mappings": [{"vaddr": 131072, "label": "y"}]}),
        "ops[0].image.mappings[0]: unknown key(s) ['label']"),
    "duplicate enclave name": (
        lambda raw: _add_enclave(raw) or raw["enclaves"].append(dict(raw["enclaves"][0])),
        "enclaves[1]: duplicate enclave name 'e'"),
    "unmapped enclave data bridge page": (
        lambda raw: _add_enclave(raw, dbp_vaddrs=[3 << 20]), "enclaves[0]: bridge page 0x300 not mapped"),
    "string rule with a comparison other than EQ": (
        lambda raw: raw.update(filters={"rules": [{"nr": "openat", "arg": 1, "op": "NE", "strings": ["x"]}]}),
        "filters.rules[0]: string filters support EQ only"),
    "write op with out-of-range bytes": (
        lambda raw: _set_op(raw, op="write", vaddr=65536, bytes=[256]), "ops[0].bytes"),
    "cost pair with a zero denominator": (
        lambda raw: raw.update(costs={"tlb_flush": [1, 0]}), "costs: tlb_flush"),
    "costs not an object": (lambda raw: raw.update(costs=[458]), "costs: expected an object"),
    "unknown cost field": (lambda raw: raw.update(costs={"flush": 1}), "costs: unknown cost field"),
    "base syscall costs not an object": (
        lambda raw: raw.update(costs={"base_syscall": 295}), "costs: base_syscall"),
    "rules not a list": (lambda raw: raw.update(filters={"rules": 1}), "filters.rules: expected a list"),
    "mappings not a list": (
        lambda raw: raw["processes"][0].update(mappings=1), "processes[0].mappings: expected a list"),
    "threads not a list": (
        lambda raw: raw["processes"][0].update(threads=1), "processes[0].threads: expected a list"),
    "rule strings not a list": (
        lambda raw: raw.update(filters={"rules": [{"nr": "openat", "arg": 1, "strings": "x"}]}),
        "filters.rules[0].strings: expected a list"),
    "syscall args not a list": (
        lambda raw: _set_op(raw, op="syscall", nr="getppid", args=1), "ops[0].args: expected a list"),
    "by_variant a list": (
        lambda raw: raw.update(expectations={"by_variant": []}), "expectations.by_variant"),
    "string read length": (lambda raw: _set_op(raw, op="read", vaddr=65536, len="8"), "ops[0].len"),
    "list rule nr": (lambda raw: raw.update(filters={"rules": [{"nr": [1]}]}), "filters.rules[0].nr"),
    "list op nr": (lambda raw: _set_op(raw, op="syscall", nr=[1]), "ops[0].nr"),
    "list thread name": (
        lambda raw: raw["processes"][0]["threads"][0].update(name=[1]), "threads[0].name"),
    "list process name": (lambda raw: raw["processes"][0].update(name=[1]), "processes[0].name"),
    "list proc_mem_write target": (
        lambda raw: _set_op(raw, op="proc_mem_write", target=[1], vaddr=65536, string="x"),
        "ops[0].target"),
    "string max_steps": (
        lambda raw: raw.update(schedule={"mode": "seeded", "max_steps": "9"}), "schedule.max_steps"),
    "negative read length": (lambda raw: _set_op(raw, op="read", vaddr=65536, len=-1), "ops[0].len"),
    "string exit code": (lambda raw: _set_op(raw, op="exit", code="x"), "ops[0].code"),
    "string mprotect permission": (
        lambda raw: _set_op(raw, op="mprotect", vaddr=65536, write="yes"), "ops[0].write"),
    "string seed": (lambda raw: raw.update(schedule={"mode": "seeded", "seed": "x"}), "schedule.seed"),
    "witness bounds a list": (
        lambda raw: raw.update(expectations={"witnesses": [1]}), "expectations.witnesses"),
    "string register value": (
        lambda raw: _add_enclave(raw, script=[{"op": "set_reg", "reg": "rsp", "value": "x"}]),
        "enclaves[0].script[0].value"),
    "string rule with a string arg": (
        lambda raw: raw.update(filters={"rules": [{"nr": "openat", "arg": "x", "strings": ["a"]}]}),
        "filters.rules[0].arg"),
    "list enclave process": (
        lambda raw: _add_enclave(raw, process=[1]), "enclaves[0].process"),
    "numeric no_kills": (lambda raw: raw.update(expectations={"no_kills": 1}), "expectations.no_kills"),
    "duplicate process name": (
        lambda raw: raw["processes"].append({"name": "p", "threads": []}),
        "processes[1]: duplicate process name 'p'"),
    "duplicate mapping label": (
        lambda raw: _labelled(raw)["processes"][0]["mappings"].append({"vaddr": 131072, "label": "x"}),
        "processes[0].mappings[1].label: duplicate label 'x'"),
    "alias mapping with more pages than its label": (
        lambda raw: _labelled(raw)["processes"][0]["mappings"].append(
            {"vaddr": 131072, "alias_of": "x", "pages": 2, "data": [{"at": 135168, "string": "a"}]}),
        "mappings[1].pages: 2, but an alias takes the 1 page(s) of its label"),
    "mmap alias with more pages than its label": (
        lambda raw: _set_op(_labelled(raw), op="mmap", vaddr=131072, alias_of="x", pages=2),
        "ops[0].pages: 2, but an alias takes the 1 page(s) of its label"),
    "rule nr above the bound": (
        lambda raw: raw.update(filters={"rules": [{"nr": MAX_SYSCALL_NR + 1}]}),
        f"filters.rules[0].nr: expected a known syscall name or a number from 0 to {MAX_SYSCALL_NR}"),
    "huge rule nr": (
        lambda raw: raw.update(filters={"rules": [{"nr": 10**30}]}), "filters.rules[0].nr"),
    "op nr above the bound": (
        lambda raw: _set_op(raw, op="syscall", nr=MAX_SYSCALL_NR + 1), "ops[0].nr: expected"),
    "huge op nr": (lambda raw: _set_op(raw, op="syscall", nr=10**30), "ops[0].nr: expected"),
    **{
        f"raw syscall op making {name}": (
            lambda raw, name=name: _set_op(raw, op="syscall", nr=name),
            f"ops[0].nr: a raw syscall op cannot make {name}; use the {kind!r} op")
        for name, kind in [
            ("mmap", "mmap"), ("mprotect", "mprotect"), ("fork", "fork"), ("execve", "exec"),
            ("exit", "exit"), ("exit_group", "exit"),
        ]
    },
    "raw syscall op making mmap by number": (
        lambda raw: _set_op(raw, op="syscall", nr=9, args=[131072, 4096]),
        "ops[0].nr: a raw syscall op cannot make mmap; use the 'mmap' op"),
    # Counts a build allocates by are bounded at load; none of these values
    # is ever allocated.
    **{
        f"{name} of {label}": (
            lambda raw, mutate=mutate, count=count: mutate(raw, count), f"{where}: expected")
        for name, mutate, where, bound in [
            ("cores", lambda raw, n: raw.update(cores=n), "cores", MAX_CORES),
            ("mapping pages", lambda raw, n: raw["processes"][0]["mappings"][0].update(pages=n),
             "processes[0].mappings[0].pages", MAX_PAGES),
            ("exec image mapping pages",
             lambda raw, n: _set_op(raw, op="exec", path_vaddr=65536,
                                    image={"mappings": [{"vaddr": 65536, "pages": n}]}),
             "ops[0].image.mappings[0].pages", MAX_PAGES),
            ("mmap pages", lambda raw, n: _set_op(raw, op="mmap", vaddr=131072, pages=n),
             "ops[0].pages", MAX_PAGES),
            ("mprotect pages", lambda raw, n: _set_op(raw, op="mprotect", vaddr=65536, pages=n),
             "ops[0].pages", MAX_PAGES),
            ("enclave pages", lambda raw, n: _add_enclave(raw, pages={"vaddr": 1 << 20, "pages": n}),
             "enclaves[0].pages.pages", MAX_PAGES),
        ]
        for label, count in [("MAX + 1", bound + 1), ("10**30", 10**30)]
    },
}

# --costs file contents -> text the message must contain
MALFORMED_COSTS = {
    "a list": ([458], "expected an object"),
    "a zero denominator": ({"tlb_flush": [1, 0]}, "tlb_flush"),
    "a string cost": ({"base_syscall": {"getppid": "295"}}, "base_syscall.getppid"),
    "a boolean cost": ({"pt_resolve": True}, "pt_resolve"),
    "an unknown field": ({"flush": 1}, "unknown cost field 'flush'"),
    "base syscall costs not an object": ({"base_syscall": [295]}, "base_syscall"),
    "an infinite cost": ({"tlb_flush": float("inf")}, "tlb_flush"),
}


class TestCliMalformed:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exits_2_with_located_message(self, case, tmp_path, capsys):
        mutate, where = MALFORMED[case]
        raw = minimal_scenario()
        mutate(raw)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(raw))
        for argv in (["run", str(path)], ["run", str(path), "--exhaustive"], ["bench", str(path)]):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert where in err and "Traceback" not in err


class TestCliMalformedCosts:
    @pytest.mark.parametrize("case", sorted(MALFORMED_COSTS))
    def test_exits_2_with_located_message(self, case, scenarios_dir, tmp_path, capsys):
        overrides, where = MALFORMED_COSTS[case]
        costs = tmp_path / "c.json"
        costs.write_text(json.dumps(overrides))
        scenario = str(scenarios_dir / "toctou_openat.json")
        for argv in (["run", scenario], ["bench", scenario], ["bench", "getppid"]):
            assert main(argv + ["--costs", str(costs)]) == 2, argv
            err = capsys.readouterr().err
            assert "--costs" in err and where in err and "Traceback" not in err


# ops run by an exec image of the process that maps the label x, at 0x10000
# -> each syscall's (name, result). Once its process has exec'd, a label maps
# nothing, so an alias of it cannot be mapped.
_SECOND_EXEC = {"op": "exec", "path_vaddr": 131072}
EXEC_IMAGE_FAULTS = {
    "mmap alias of a label an exec unmapped": (
        [{"op": "mmap", "vaddr": 196608, "alias_of": "x"}], [("execve", 0), ("mmap", -1)]),
    "exec image alias of a label an exec unmapped": (
        [dict(_SECOND_EXEC, image={"mappings": [{"vaddr": 196608, "alias_of": "x"}]})],
        [("execve", 0), ("execve", -1)]),
    "exec image with overlapping mappings": (
        [dict(_SECOND_EXEC, image={"mappings": [{"vaddr": 196608}, {"vaddr": 196608}]})],
        [("execve", 0), ("execve", -1)]),
}


class TestCliRunTimeFaults:
    def _run(self, raw, tmp_path):
        path, out = tmp_path / "s.json", tmp_path / "r.json"
        path.write_text(json.dumps(raw))
        assert main(["run", str(path), "--report-out", str(out)]) == 0
        return json.loads(out.read_text())

    def test_mmap_over_an_existing_mapping_fails_the_call(self, tmp_path, capsys):
        raw = minimal_scenario()
        _set_op(raw, op="mmap", vaddr=0xF000, pages=2)
        report = self._run(raw, tmp_path)
        assert report["kills"] == []
        mmap = [e for e in report["events"] if e["type"] == "SyscallEvent"]
        assert [(e["name"], e["result"]) for e in mmap] == [("mmap", -1)]

    @pytest.mark.parametrize("case", sorted(EXEC_IMAGE_FAULTS))
    def test_an_image_that_cannot_be_mapped_fails_the_call(self, case, tmp_path):
        ops, calls = EXEC_IMAGE_FAULTS[case]
        raw = minimal_scenario()
        _labelled(raw)["processes"][0]["mappings"][0]["data"] = [{"at": 65536, "string": "/bin/a"}]
        _set_op(raw, op="exec", path_vaddr=65536, image={
            "mappings": [{"vaddr": 131072, "data": [{"at": 131072, "string": "/bin/b"}]}], "ops": ops,
        })
        report = self._run(raw, tmp_path)
        assert report["kills"] == []
        assert [(e["name"], e["result"]) for e in report["events"] if e["type"] == "SyscallEvent"] == calls

    def test_unconfined_enclave_fault_on_its_own_page_is_a_segfault(
        self, scenarios_dir, tmp_path, capsys
    ):
        raw = json.loads((scenarios_dir / "sgx_data_only.json").read_text())
        raw["variant"] = "none"
        del raw["expectations"]
        pages = next(m for m in raw["processes"][0]["mappings"] if m.get("label") == "enclave-pages")
        pages["write"] = False
        raw["enclaves"][0]["script"] = [
            {"op": "write", "vaddr": pages["vaddr"], "string": "x"}, {"op": "eexit"},
        ]
        report = self._run(raw, tmp_path)
        assert [k["cause"] for k in report["kills"]] == ["segfault"]


class TestCliBench:
    def test_getppid_suite_table(self, capsys):
        assert main(["bench", "getppid"]) == 0
        out = capsys.readouterr().out
        assert "295" in out and "395" in out and "360" in out

    def test_all_suites_with_report_out(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(["bench", "all", "--report-out", str(out)]) == 0
        data = json.loads(out.read_text())
        titles = {entry["title"] for entry in data}
        assert any("getppid" in t for t in titles)
        assert any("ecall" in t for t in titles)

    def test_unknown_target_exits_2(self, capsys):
        assert main(["bench", "nonesuch"]) == 2

    def test_cost_override_file(self, tmp_path, capsys):
        costs = tmp_path / "c.json"
        costs.write_text(json.dumps({"base_syscall": {"getppid": 1000}}))
        assert main(["bench", "getppid", "--costs", str(costs)]) == 0
        assert "1000" in capsys.readouterr().out

    @pytest.mark.parametrize("cli_costs", [None, {"tlb_flush": 1, "pte_manipulate": 100}])
    def test_scenario_matrix_costs_like_run(self, cli_costs, scenarios_dir, tmp_path, capsys):
        """bench <scenario> applies --costs, then the scenario's own costs,
        as run does."""
        raw = json.loads((scenarios_dir / "visudo.json").read_text())
        raw["costs"] = {"tlb_flush": 1000}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(raw))
        extra = []
        if cli_costs is not None:
            (tmp_path / "c.json").write_text(json.dumps(cli_costs))
            extra = ["--costs", str(tmp_path / "c.json")]
        matrix = tmp_path / "m.json"
        assert main(["bench", str(path), "--report-out", str(matrix)] + extra) == 0
        rows = {row["label"]: row for row in json.loads(matrix.read_text())[0]["rows"]}
        for variant in ("none", "stash", "freeze"):
            out = tmp_path / f"{variant}.json"
            assert main(["run", str(path), "--variant", variant, "--report-out", str(out)] + extra) == 0
            cycles = json.loads(out.read_text())["cycles"]
            assert rows[variant]["cycles"] == cycles["total"], variant
            assert rows[variant]["components"] == cycles["components"], variant
        flushes = rows["stash"]["components"]["tlb_flush"]
        assert flushes > 0 and flushes % 1000 == 0
        if cli_costs is not None:
            assert rows["stash"]["components"]["pte_manipulate"] % 100 == 0

    def test_scenario_cost_matrix(self, scenarios_dir, capsys):
        assert main(["bench", str(scenarios_dir / "toctou_openat.json")]) == 0
        out = capsys.readouterr().out
        assert "variant cost matrix" in out
