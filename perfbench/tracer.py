"""Spans and counts recorded around the simulator's public functions.

The traced run replaces each function named in ``targets`` with a wrapper,
from the benchmark's own files; the simulator's sources are not touched. A
span holds a name, a start and an end (``perf_counter_ns``), the span that
was open when it began, and the operation it belongs to: one seeded run, one
exploration, one suite or one cost matrix. Spans are kept in flat arrays and
written once, when the run ends. A span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Iterator, Optional

from program import PACKAGE, Program


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.op_id = -1
        self.op_labels: list[str] = []
        self.counts: dict[str, int] = {}
        self._patches: list[tuple[Any, str, Any, Any]] = []  # owner, attr, original, wrapped
        # exploration bookkeeping: the tree of executed schedules
        self.exploring = 0
        self._tree: dict[int, dict] = {}
        self._node: dict[int, dict] = self._tree
        self._tree_sim: Any = None

    # spans ----------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, name: str, by: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + by

    def wrap(self, name: str, fn: Callable, before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        nid = self._name_id(name)
        stack, names, parents, ops, starts, ends = (
            self.stack, self.name, self.parent, self.op_of, self.start, self.end
        )

        def traced(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before(args)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def op(self, name: str) -> "_OpSpan":
        """A new operation with its own id and a top-level span."""
        return _OpSpan(self, name)

    # installing -----------------------------------------------------------

    @contextmanager
    def installed(self, prog: Program) -> Iterator[None]:
        """Replace the traced functions with their wrappers for the duration
        of the block, then put the originals back."""
        if not self._patches:
            self._patches = self._make_patches(prog)
        try:
            for owner, attr, _, wrapped in self._patches:
                _assign(owner, attr, wrapped)
            yield
        finally:
            for owner, attr, original, _ in reversed(self._patches):
                _assign(owner, attr, original)

    def _make_patches(self, prog: Program) -> list[tuple[Any, str, Any, Any]]:
        patches = []
        for name, owner, attr, hooks in targets(self, prog):
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, **hooks)
            if isinstance(owner, type):
                patches.append((owner, attr, original, wrapped))
                continue
            # A module-level function may also be bound by name in the
            # modules that import it; replace every binding.
            for mod_name, module in list(sys.modules.items()):
                if mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."):
                    if getattr(module, attr, None) is original:
                        patches.append((module, attr, original, wrapped))
        suites = prog.bench.SUITES
        for suite in sorted(suites):
            patches.append((suites, suite, suites[suite], self.wrap(f"bench.{suite}", suites[suite])))
        return patches

    # hooks ----------------------------------------------------------------

    def explore_begin(self, args: tuple) -> None:
        self.exploring += 1
        self._tree = {}
        self._node = self._tree
        self._tree_sim = None

    def explore_end(self, args: tuple, report: Any) -> None:
        self.exploring -= 1
        self.count("explore.paths", report.paths)

    def step_begin(self, args: tuple) -> None:
        if not self.exploring:
            return
        sim, tid = args[0], args[1]
        if sim is not self._tree_sim:  # a fresh replay starts at the root
            self._tree_sim = sim
            self._node = self._tree
        self.count("explore.steps_executed")
        child = self._node.get(tid)
        if child is None:
            child = self._node[tid] = {}
            self.count("explore.steps_distinct")
        self._node = child

    def build_begin(self, args: tuple) -> None:
        if self.exploring:
            self.count("explore.builds")

    # reporting ------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self time in ns."""
        n = len(self.name)
        child = [0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {name: {"calls": 0, "total_ns": 0, "self_ns": 0} for name in self.names}
        for i in range(n):
            entry = out[self.names[self.name[i]]]
            dur = end[i] - start[i]
            entry["calls"] += 1
            entry["total_ns"] += dur
            entry["self_ns"] += dur - child[i]
        return out

    def write(self, path: Path, extra: dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "names": self.names,
            "ops": self.op_labels,
            "counts": self.counts,
            "spans": {
                "name": self.name.tolist(),
                "start_ns": self.start.tolist(),
                "end_ns": self.end.tolist(),
                "parent": self.parent.tolist(),
                "op": self.op_of.tolist(),
            },
            **extra,
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _assign(owner: Any, attr: str, value: Any) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class _OpSpan:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.idx = -1

    def __enter__(self) -> None:
        t = self.tracer
        t.op_id = len(t.op_labels)
        t.op_labels.append(self.name)
        t.exploring = 0
        self.idx = len(t.name)
        t.name.append(t._name_id(self.name))
        t.parent.append(-1)
        t.op_of.append(t.op_id)
        t.start.append(perf_counter_ns())
        t.end.append(0)
        t.stack.append(self.idx)

    def __exit__(self, *exc: Any) -> None:
        t = self.tracer
        t.end[self.idx] = perf_counter_ns()
        del t.stack[t.stack.index(self.idx):]


def targets(tracer: Tracer, prog: Program) -> list[tuple[str, Any, str, dict[str, Any]]]:
    """(span name, owner, attribute, hooks) of every traced function.
    Span names are ``<module>.<function>``; the module is the layer."""
    S, F, T, D, V, G, C, B = (
        prog.scenario, prog.filters, prog.tasks, prog.dpti, prog.vmem, prog.sgxdom,
        prog.costmodel, prog.bench,
    )
    count = tracer.count

    def protected(args: tuple, record: Any) -> None:
        if record is not None and record is not False:
            count("dpti.windows")
            count("dpti.mappings_covered", len(record.mappings))

    def covers(args: tuple) -> None:
        engine, asid, vpn = args[0], args[1], args[2]
        pte = engine.sim.vmem.spaces[asid].entries.get(vpn)
        if pte is not None and engine.by_frame.get(pte.frame_id):
            count("dpti.mappings_covered")

    def charged(args: tuple) -> None:
        count("costmodel.events_charged", len(args[0]))

    return [
        ("scenario.load_scenario", S, "load_scenario", {}),
        ("scenario.scenario_from_dict", S, "scenario_from_dict", {}),
        ("scenario.build_simulation", S, "build_simulation", {"before": tracer.build_begin}),
        ("filters.compile", S, "build_filters", {}),
        ("filters.install", F.FilterBuilder, "install", {}),
        ("filters.lookup", F.FilterTable, "lookup", {}),
        ("filters.seccomp_eval", F, "seccomp_eval",
         {"after": lambda args, result: count("filters.seccomp_rules_scanned", result[1])}),
        ("tasks.explore", T, "explore", {"before": tracer.explore_begin, "after": tracer.explore_end}),
        ("tasks.run_seeded", T.Simulation, "run_seeded", {}),
        ("tasks.run_prefix", T.Simulation, "run_prefix", {}),
        ("tasks.step", T.Simulation, "step", {"before": tracer.step_begin}),
        ("tasks.runnable_tids", T.Simulation, "runnable_tids", {}),
        ("tasks.stall_task", T.Simulation, "stall_task", {}),
        ("tasks.build_report", T.Simulation, "build_report", {}),
        ("tasks.report_hash", T.SimReport, "hash_hex", {}),
        ("dpti.step_syscall", D.DptiEngine, "step_syscall", {}),
        ("dpti.protect_argument", D.DptiEngine, "protect_argument", {"after": protected}),
        ("dpti.cover_new_mapping", D.DptiEngine, "cover_new_mapping", {"before": covers}),
        ("dpti.restore", D.DptiEngine, "restore", {}),
        ("dpti.on_page_fault", D.DptiEngine, "on_page_fault", {}),
        ("vmem.access", V.Vmem, "access", {}),
        ("vmem.set_bit", V.Vmem, "set_bit", {}),
        ("vmem.tlb_flush", V.Vmem, "tlb_flush", {}),
        ("vmem.cow_resolve", V.Vmem, "cow_resolve", {}),
        ("vmem.map", V.Vmem, "map", {}),
        ("sgxdom.build_isolated_mapping", G, "build_isolated_mapping", {}),
        ("sgxdom.enter", G.SgxRuntime, "enter", {}),
        ("sgxdom.step", G.SgxRuntime, "step", {}),
        ("sgxdom.on_isolated_fault", G.SgxRuntime, "on_isolated_fault", {}),
        ("costmodel.accumulate", C, "accumulate", {"before": charged}),
        ("bench.run_suites", B, "run_suites", {}),
    ]
