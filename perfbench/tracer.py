"""Outside-in span tracing of one scatterfuzz campaign round.

The tracer rebinds the names the engine calls into each layer and
records one span (name, start, end, parent) per call, in memory.  It
changes no file of the package and draws from no random stream, so a
traced campaign makes exactly the decisions an untraced one makes.

Layers and the names rebound for them:

    engine    Campaign.run, Campaign.mutate
    vm        scatterfuzz.engine.execute
    coverage  CoverageMap.record_trace
    cmplog    scatterfuzz.engine.find_record
    solver    scatterfuzz.engine.colorize, scatterfuzz.engine.solve_with_alignments

A layer's self time is its spans' duration minus the part covered by
their child spans.  The campaign observer the benchmark installs is a
span of its own, so its bookkeeping is charged to no layer.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from functools import cached_property
from time import perf_counter_ns

import scatterfuzz.engine as engine
from scatterfuzz.coverage import CoverageMap
from scatterfuzz.engine import Campaign
from scatterfuzz.solver import SolveStatus
from scatterfuzz.vm import ExitReason

RUN = "engine.run"
MUTATE = "engine.mutate"
EXECUTE = "vm.execute"
RECORD = "coverage.record_trace"
FIND = "cmplog.find_record"
COLORIZE = "solver.colorize"
SOLVE = "solver.solve"
OBSERVER = "bench.observer"
SPAN_NAMES = (RUN, MUTATE, EXECUTE, RECORD, FIND, COLORIZE, SOLVE, OBSERVER)

# Spans the wrappers can nest inside one Campaign.run call: run, then
# colorize or solve, then execute.  Each adds one Python frame, so a
# traced campaign gets this many more frames of stack; one that overflows
# the stack then fails at the same execution traced or not.
WRAPPER_DEPTH = 3

EXEC_KINDS = ("seed", "havoc", "solver", "color", "solver-keep")
VM_EXITS = (ExitReason.CRASH, ExitReason.INPUT_EXHAUSTED,
            ExitReason.BUDGET_EXHAUSTED)


class Tracer:
    """Span recorder plus the per-boundary counters derived at the same calls.

    Spans are appended as they end, so children precede their parent;
    parents are recovered from the nesting of the intervals, which is
    exact in a single thread and keeps the per-call cost to two clock
    reads and three appends.
    """

    def __init__(self):
        self._name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.span_name = array("B")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counts = Counter()
        # cmp_id -> (execution index, input) of the first execution of
        # the current campaign whose trace satisfied that comparison.
        self.first_solved: dict = {}
        self.observer = self._wrap(self._observe, OBSERVER)

    # -- recording --------------------------------------------------------

    def _wrap(self, fn, name, after=None):
        nid = self._name_ids[name]
        add_name = self.span_name.append
        add_start = self.span_start.append
        add_end = self.span_end.append
        clock = perf_counter_ns

        def traced(*args, **kwargs):
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                add_end(clock())
                add_start(start)
                add_name(nid)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _observe(self, campaign, trace, data, kind):
        counts = self.counts
        counts["execs." + kind] += 1
        counts["vm.steps"] += trace.steps
        counts["vm.exit." + trace.exit.value] += 1
        counts["cmplog.records"] += len(trace.comparisons)
        counts["cmplog.overflow"] += trace.cmp_overflow
        for rec in trace.comparisons:
            if rec.cmp_id not in self.first_solved and rec.is_solved():
                self.first_solved[rec.cmp_id] = (campaign.stats.executions,
                                                 data)

    def _after_record(self, args, result):
        if result.interesting:
            self.counts["coverage.interesting"] += 1

    def _after_colorize(self, args, result):
        self.counts["solver.colorize.changed"] += (
            result.bytes != args[1].bytes)

    def _after_solve(self, args, result):
        self.counts["solver.status." + result.status.value] += 1

    @contextmanager
    def installed(self):
        """Rebind the engine's layer entry points for the duration."""
        targets = [
            (Campaign, "run", RUN, None),
            (Campaign, "mutate", MUTATE, None),
            (CoverageMap, "record_trace", RECORD, self._after_record),
            (engine, "execute", EXECUTE, None),
            (engine, "find_record", FIND, None),
            (engine, "colorize", COLORIZE, self._after_colorize),
            (engine, "solve_with_alignments", SOLVE, self._after_solve),
        ]
        saved = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _, _ in targets]
        try:
            for owner, attr, name, after in targets:
                setattr(owner, attr, self._wrap(getattr(owner, attr), name,
                                                after))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    @cached_property
    def span_parent(self):
        """Index of each span's parent span, -1 for a root; after recording."""
        starts = self.span_start
        parent = array("i", [-1]) * len(starts)
        done = []   # ended spans whose parent has not ended yet
        for i, start in enumerate(starts):
            while done and starts[done[-1]] >= start:
                parent[done.pop()] = i
            done.append(i)
        return parent

    def layer_times(self):
        """Per span name (calls, self ns); execute durations; color execs."""
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parent = self.span_parent
        covered = array("q", [0]) * len(names)
        for i, p in enumerate(parent):
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        calls = [0] * len(SPAN_NAMES)
        own = [0] * len(SPAN_NAMES)
        exec_id = self._name_ids[EXECUTE]
        color_id = self._name_ids[COLORIZE]
        exec_ns = []
        color_execs = 0
        for i, nid in enumerate(names):
            dur = ends[i] - starts[i]
            calls[nid] += 1
            own[nid] += dur - covered[i]
            if nid == exec_id:
                exec_ns.append(dur)
                p = parent[i]
                color_execs += p >= 0 and names[p] == color_id
        table = {name: (calls[i], own[i]) for i, name in enumerate(SPAN_NAMES)}
        return table, exec_ns, color_execs

    def write(self, path):
        """Write the spans: one JSON header line, then the raw arrays."""
        header = {
            "names": list(SPAN_NAMES),
            "count": len(self.span_name),
            "byteorder": sys.byteorder,
            "arrays": [["name", "B"], ["parent", "i"], ["start_ns", "q"],
                       ["end_ns", "q"]],
        }
        with open(path, "wb") as fp:
            fp.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                arr.tofile(fp)


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list (q in 0..100)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def layer_metrics(tracer, stats_list, setup, traced_eps, untraced_eps):
    """Per-layer metrics of one traced round, as {name: (value, unit)}."""
    table, exec_ns, color_execs = tracer.layer_times()
    exec_ns.sort()
    c = tracer.counts
    execs = table[EXECUTE][0]
    steps = c["vm.steps"]
    record_calls = table[RECORD][0]
    colorize_calls = table[COLORIZE][0]
    solved = c["solver.status." + SolveStatus.SOLVED.value]
    solver_execs = sum(st.solver_executions for st in stats_list)
    ns = 1e-9   # seconds per nanosecond

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "corpus.load_s": (setup["load_s"], "s"),
        "vm.compile_s": (setup["compile_s"], "s"),
        "vm.execute.calls": (execs, "count"),
        "vm.execute.self_s": (table[EXECUTE][1] * ns, "s"),
        "vm.execute.us_p50": (percentile(exec_ns, 50) / 1e3, "us"),
        "vm.execute.us_p99": (percentile(exec_ns, 99) / 1e3, "us"),
        "vm.steps_per_exec": (ratio(steps, execs), "count"),
        "vm.ns_per_step": (ratio(table[EXECUTE][1], steps), "ns"),
    }
    for reason in VM_EXITS:
        m["vm.exit." + reason.value] = (c["vm.exit." + reason.value], "count")
    m.update({
        "cmplog.records_per_exec": (ratio(c["cmplog.records"], execs),
                                    "count"),
        "cmplog.overflow": (c["cmplog.overflow"], "count"),
        "cmplog.find_record.calls": (table[FIND][0], "count"),
        "coverage.record_trace.calls": (record_calls, "count"),
        "coverage.record_trace.self_s": (table[RECORD][1] * ns, "s"),
        "coverage.interesting_ratio": (
            ratio(c["coverage.interesting"], record_calls), "ratio"),
        "engine.mutate.calls": (table[MUTATE][0], "count"),
        "engine.mutate.self_s": (table[MUTATE][1] * ns, "s"),
        "engine.self_s": (table[RUN][1] * ns, "s"),
        "engine.queue_len": (sum(st.queue_len for st in stats_list),
                             "count"),
    })
    # The engine labels colorization executions "solver"; the enclosing
    # span tells them apart.
    kinds = {kind: c["execs." + kind] for kind in EXEC_KINDS}
    kinds["solver"] -= color_execs
    kinds["color"] = color_execs
    for kind, n in kinds.items():
        m["engine.execs." + kind] = (n, "count")
    m.update({
        "solver.attempts": (sum(st.solver_attempts for st in stats_list),
                            "count"),
        "solver.execs": (solver_execs, "count"),
        "solver.execs_per_solve": (ratio(solver_execs, solved), "count"),
    })
    for status in SolveStatus:
        m["solver.status." + status.value] = (
            c["solver.status." + status.value], "count")
    m.update({
        "solver.inconsistent": (
            sum(st.inconsistent_baselines for st in stats_list), "count"),
        "solver.color.changed_ratio": (
            ratio(c["solver.colorize.changed"], colorize_calls), "ratio"),
        "solver.self_s": ((table[COLORIZE][1] + table[SOLVE][1]) * ns, "s"),
        "trace.execs_per_s.untraced": (untraced_eps, "1/s"),
        "trace.execs_per_s.traced": (traced_eps, "1/s"),
        "trace.overhead": (ratio(untraced_eps - traced_eps, untraced_eps),
                           "ratio"),
    })
    return m
