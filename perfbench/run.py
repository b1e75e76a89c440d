"""Seeded campaign benchmark for scatterfuzz.

Run from the repository root:

    python3 perfbench/run.py --workload cmd-parsers --seed 1 --seconds 30 --trace 0

A workload is a fixed list of campaigns (scenario x solver arm x
campaign seed), each driven through ``engine.Campaign`` in this one
process with no extra threads.  The campaign seeds come from ``--seed``.
Every campaign runs once (the first round, which gives the deterministic
counts); then the campaigns are re-run in order until ``--seconds`` have
passed, at least one re-run, and each re-run must reproduce its first
run's stats.  Set-up (loading the corpus and one warm-up execution per
scenario, which compiles it) is repeated SETUP_REPEATS times and
reported as its median.

With ``--trace 0`` the last line of standard output is a JSON object
carrying the end-to-end metrics.  With ``--trace 1`` one more round runs
with the layer entry points wrapped (see tracer.py), and the JSON
carries the per-layer metrics.  Lines before it list every metric by
name and unit, the campaigns, and the checks.  The exit code is 0 only
when every check passes.  See README.md for the layer map.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_REPEATS = 25
# Python frames a campaign may use above run_case.  A campaign that
# overflows the stack (suffix_ok, ROADMAP item 1) fails at an execution
# that depends on how deep it was started, so every run gets the same
# headroom wherever the benchmark calls it from.
CAMPAIGN_FRAMES = 990


@dataclass(frozen=True)
class Workload:
    scenarios: tuple | None    # None: every bundled scenario
    solver_arms: tuple         # solver_enabled values, one arm each
    trials: int                # campaign seeds per scenario and arm
    budget: int                # max_executions per campaign


def _workloads(bench_execs):
    """Workload compositions; BENCHMARK.json says why each was chosen."""
    return {
        "cmd-parsers": Workload(("modem_ok", "console"), (True,), 3, 10_000),
        "nostr-havoc": Workload(
            ("nostr_bits", "nostr_chain", "nostr_state"), (False,), 3,
            40_000),
        "corpus-ablation": Workload(None, (True, False), 1, bench_execs),
    }


@dataclass(frozen=True)
class Case:
    scenario: object
    config: object

    @property
    def label(self):
        arm = "solver-on" if self.config.solver_enabled else "solver-off"
        return f"{self.scenario.name}/{arm}/seed{self.config.rng_seed}"


@dataclass
class Outcome:
    case: Case
    stats: object        # CampaignStats, partial if the campaign raised
    edges: int           # final coverage map bits
    queue_digest: str    # SHA-256 over the queue entries' bytes, in order
    error: str | None    # exception type and message, None if it finished
    wall_s: float

    def deterministic(self):
        """Everything a re-run with the same seed must reproduce."""
        return (dataclasses.asdict(self.stats), self.edges, self.queue_digest,
                None if self.error is None else self.error.split(":")[0])

    def solves(self):
        """Execution index per expected string; None if unsolved or failed."""
        solved = self.stats.solved_comparisons
        return [None if self.error else solved.get(exp.cmp_id)
                for exp in self.case.scenario.expected_strings]


def _import_package():
    """Import scatterfuzz from this checkout's src/, never from elsewhere."""
    if not (SRC / "scatterfuzz" / "__init__.py").is_file():
        sys.exit(f"perfbench: no scatterfuzz package under {SRC}")
    sys.path.insert(0, str(SRC))
    import scatterfuzz
    if Path(scatterfuzz.__file__).resolve().parent != SRC / "scatterfuzz":
        sys.exit(f"perfbench: imported scatterfuzz from {scatterfuzz.__file__}")


@dataclass
class Setup:
    load_s: float        # corpus.load_corpus
    compile_s: float     # vm.compile_program, timed only when traced
    total_s: float       # load plus one warm-up execution per scenario


def setup(names, time_compile):
    """Load the corpus and run each workload scenario once, compiling it.

    Returns the workload's scenarios and the set-up's timings.
    """
    import scatterfuzz.vm as vm
    from scatterfuzz.corpus import load_corpus
    from scatterfuzz.engine import DEFAULT_SEED_LEN
    compile_program = vm.compile_program
    compiling = []

    def timed_compile(program):
        t = time.perf_counter()
        try:
            return compile_program(program)
        finally:
            compiling.append(time.perf_counter() - t)

    if time_compile:
        vm.compile_program = timed_compile
    try:
        t0 = time.perf_counter()
        corpus = load_corpus()
        t1 = time.perf_counter()
        scenarios = [s for s in corpus if names is None or s.name in names]
        for s in scenarios:
            vm.execute(s.program, bytes(DEFAULT_SEED_LEN), read_log=False)
        t2 = time.perf_counter()
    finally:
        vm.compile_program = compile_program
    return scenarios, Setup(t1 - t0, sum(compiling), t2 - t0)


def campaign_seeds(seed, trials):
    return [seed * trials + i for i in range(trials)]


def make_cases(workload, scenarios, seed):
    from scatterfuzz.engine import CampaignConfig
    return [Case(s, CampaignConfig(rng_seed=cs, max_executions=workload.budget,
                                   solver_enabled=arm))
            for s in scenarios
            for arm in workload.solver_arms
            for cs in campaign_seeds(seed, workload.trials)]


def _stack_depth():
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def run_case(case, observer=None, extra_frames=0):
    """Run one campaign to its budget or its first exception."""
    from scatterfuzz.engine import Campaign
    campaign = Campaign(case.scenario.program, case.config, observer=observer)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + CAMPAIGN_FRAMES + extra_frames)
    t0 = time.perf_counter()
    try:
        campaign.run()
        error = None
    except Exception as exc:  # a failing campaign is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    finally:
        wall = time.perf_counter() - t0
        sys.setrecursionlimit(limit)
    digest = hashlib.sha256()
    for entry in campaign.queue:
        digest.update(len(entry.data).to_bytes(4, "little") + entry.data)
    return Outcome(case, campaign.stats, campaign.cov.bit_count(),
                   digest.hexdigest(), error, wall)


def throughput(first_round, reruns=()):
    """Executions per second, each campaign timed by the median of its runs."""
    walls = [[o.wall_s] for o in first_round]
    for i, o in reruns:
        walls[i].append(o.wall_s)
    return (sum(o.stats.executions for o in first_round)
            / sum(statistics.median(w) for w in walls))


def end_to_end(first_round, reruns, setups):
    solves = [v for o in first_round for v in o.solves()]
    budget_of = [o.case.config.max_executions for o in first_round
                 for _ in o.case.scenario.expected_strings]
    return {
        "execs_per_s": (throughput(first_round, reruns), "1/s"),
        "setup_s": (statistics.median(s.total_s for s in setups), "s"),
        "execs_to_solve": (sum(b if v is None else v
                               for v, b in zip(solves, budget_of)), "execs"),
        "strings_solved": (sum(v is not None for v in solves), "count"),
        "strings_expected": (len(solves), "count"),
        "edges_covered": (sum(o.edges for o in first_round), "count"),
        "unique_crashes": (sum(o.stats.unique_crashes for o in first_round),
                           "count"),
        "campaigns_failed": (sum(o.error is not None for o in first_round),
                             "count"),
        "campaigns_run": (len(first_round), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


def check(checks, name, failures, detail=""):
    """Record one check: it passes when the list of failures is empty."""
    if failures:
        detail = (detail + "; " if detail else "") + "failed: " + ", ".join(
            failures)
    checks.append((name, not failures, detail))


def check_runs(checks, first_round, reruns):
    check(checks, "re-run campaigns give identical stats",
          [o.case.label for i, o in reruns
           if o.deterministic() != first_round[i].deterministic()],
          f"{len(reruns)} re-runs")
    check(checks, "no campaign exceeds its budget",
          [o.case.label for o in first_round + [o for _, o in reruns]
           if o.stats.executions > o.case.config.max_executions])
    check(checks, "solver-off campaigns run no solver",
          [o.case.label for o in first_round
           if not o.case.config.solver_enabled
           and (o.stats.solver_attempts or o.stats.solver_executions)])


def traced_round(cases, checks):
    """Run every case once with the tracer installed; confirm its solves."""
    from scatterfuzz.program import FuzzInput
    from scatterfuzz.vm import execute
    from tracer import WRAPPER_DEPTH, Tracer  # imports scatterfuzz
    tracer = Tracer()
    outcomes = []
    unconfirmed = []
    confirmed = 0
    with tracer.installed():
        for case in cases:
            tracer.first_solved.clear()
            outcome = run_case(case, observer=tracer.observer,
                               extra_frames=WRAPPER_DEPTH)
            outcomes.append(outcome)
            for exp in case.scenario.expected_strings:
                at = outcome.stats.solved_comparisons.get(exp.cmp_id)
                if at is None:
                    continue
                index, data = tracer.first_solved.get(exp.cmp_id, (None, b""))
                trace = execute(case.scenario.program, FuzzInput(data),
                                budget=case.config.instr_budget,
                                read_log=False)
                if index == at and any(r.cmp_id == exp.cmp_id and r.is_solved()
                                       for r in trace.comparisons):
                    confirmed += 1
                else:
                    unconfirmed.append(f"{case.label}:{exp.label}")
    check(checks, "solved strings replay as solved", unconfirmed,
          f"{confirmed} confirmed")
    return tracer, outcomes


def print_metrics(title, metrics):
    print(title)
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<{width}}  {shown} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    _import_package()
    from scatterfuzz.bench import DEFAULT_BENCH_EXECS
    workloads = _workloads(DEFAULT_BENCH_EXECS)
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads)}")
    workload = workloads[args.workload]

    setups = []
    for _ in range(SETUP_REPEATS):
        scenarios, timing = setup(workload.scenarios, bool(args.trace))
        setups.append(timing)
    cases = make_cases(workload, scenarios, args.seed)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"workload {args.workload}: {why.get(args.workload, '')}")
    print(f"  {len(cases)} campaigns of {workload.budget} executions, "
          f"campaign seeds {campaign_seeds(args.seed, workload.trials)}")

    # Run every campaign once, then re-run them in order until the time is
    # up, at least one re-run.  Timing each campaign by the median of its
    # runs keeps a partial last pass from skewing the campaign mix.
    start = time.perf_counter()
    first = [run_case(case) for case in cases]
    reruns = []
    while not reruns or time.perf_counter() - start < args.seconds:
        i = len(reruns) % len(cases)
        reruns.append((i, run_case(cases[i])))
    for o in first:
        solved = sum(v is not None for v in o.solves())
        print(f"  {o.case.label}: {o.stats.executions} execs "
              f"{o.stats.executions / o.wall_s:.0f}/s, edges {o.edges}, "
              f"unique crashes {o.stats.unique_crashes}, strings solved "
              f"{solved}/{len(o.solves())}"
              + (f", FAILED {o.error}" if o.error else ""))
    checks = []
    check_runs(checks, first, reruns)
    e2e = end_to_end(first, reruns, setups)
    print_metrics(f"end-to-end ({len(cases) + len(reruns)} untraced "
                  f"campaign runs, set-up median of {SETUP_REPEATS}):", e2e)

    if args.trace:
        from tracer import layer_metrics
        tracer, traced = traced_round(cases, checks)
        check(checks, "traced stats equal untraced stats",
              [t.case.label for t, f in zip(traced, first)
               if t.deterministic() != f.deterministic()])
        setup_medians = {
            "load_s": statistics.median(s.load_s for s in setups),
            "compile_s": statistics.median(s.compile_s for s in setups)}
        metrics = layer_metrics(tracer, [o.stats for o in traced],
                                setup_medians, throughput(traced),
                                e2e["execs_per_s"][0])
        print_metrics("per-layer (one traced round):", metrics)
        print("  wait time: none; one process and one thread, so no work "
              "queues between layers")
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.bin"
        tracer.write(spans)
        print(f"  spans: {len(tracer.span_name)} written to "
              f"{spans.relative_to(ROOT)}")
        wanted = spec["per_layer"]
    else:
        metrics = e2e
        wanted = spec["end_to_end"]

    check(checks, "every metric in BENCHMARK.json is measured",
          [m["name"] for m in wanted if m["name"] not in metrics])
    correct = all(ok for _, ok, _ in checks)
    print("checks:")
    for name, ok, detail in checks:
        print(f"  {'ok  ' if ok else 'FAIL'} {name}"
              + (f" ({detail})" if detail else ""))
    result = {
        "correct": correct,
        "attempted": e2e["campaigns_run"][0],
        "failed": e2e["campaigns_failed"][0],
        "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                "unit": metrics[m["name"]][1]}
                    for m in wanted if m["name"] in metrics},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
