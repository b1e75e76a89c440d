"""Acceptance criteria, one test per criterion.

Each test prints a single machine-greppable verdict line of the form
``[criterion N] PASS ...`` (pytest shows them with -s, or on failure).
Criteria that involve campaigns state their runtime bound and assert it.
"""

import json
import random
import sys
import time

from scatterfuzz import (CampaignConfig, FuzzInput, execute, mann_whitney_u,
                         naive_search, run_campaign, solve,
                         solve_with_alignments)
from scatterfuzz.cli import main as cli_main
from scatterfuzz.cmplog import CmpKey, find_record
from scatterfuzz.corpus import label_to_cmp_id
from scatterfuzz.coverage import LENGTH_WINDOW
from scatterfuzz.engine import Campaign
from scatterfuzz.solver import SolveStatus

import conftest
from synthetic import SyntheticInstance, brute_force_solvable, make_executor
from test_mwu import oracle_exact_p


def verdict(n, ok, detail):
    line = f"[criterion {n}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line, file=sys.stderr)
    # Collected by conftest's terminal-summary hook so the verdicts
    # appear in the run output even under output capture.
    conftest.acceptance_verdicts.append(line)
    assert ok, line


def keyed(corpus, name, label):
    program = corpus[name].program
    return program, CmpKey(label_to_cmp_id(program, label), 0)


def baseline(program, key, data):
    fi = FuzzInput(data)
    rec = find_record(execute(program, fi), key)
    return fi, rec


def test_criterion_1_quad_combinatorics(corpus):
    """Naive search reports exactly 256 combinations; guided solve <= 17."""
    t0 = time.monotonic()
    program, key = keyed(corpus, "quad_wxyz", "cmp_wxyz")
    fi, rec = baseline(program, key, b"AAAABBBBCCCCDDDD")
    executor = lambda f: execute(program, f)
    nres = naive_search(rec, fi, executor, combo_budget=1000)
    sres = solve(rec, fi, executor)
    elapsed = time.monotonic() - t0
    ok = (nres.combination_count == 256
          and sres.status is SolveStatus.SOLVED
          and sres.executions_used <= 16 + 1
          and elapsed < 1.0)
    verdict(1, ok, f"naive=256? {nres.combination_count}; "
                   f"guided execs={sres.executions_used} (<=17); "
                   f"runtime {elapsed:.2f}s (<1s)")


def test_criterion_2_example_blowups(corpus):
    """Exact 3^18 and 16^7 counts; naive censored at 10k; solve <= 200."""
    cases = [
        ("routes_cmd", "cmp_routes",
         bytes().join(bytes([c]) * 3 for c in b"abcdefghijklmnopqr"),
         3 ** 18),
        ("poweron", "cmp_poweron",
         bytes().join(bytes([c]) * 16 for c in b"abcdefg"),
         16 ** 7),
    ]
    details = []
    ok = True
    for name, label, data, want_count in cases:
        t0 = time.monotonic()
        program, key = keyed(corpus, name, label)
        fi, rec = baseline(program, key, data)
        executor = lambda f: execute(program, f)
        nres = naive_search(rec, fi, executor, combo_budget=10_000)
        sres = solve(rec, fi, executor)
        elapsed = time.monotonic() - t0
        ok &= (nres.combination_count == want_count
               and nres.status is SolveStatus.BUDGET_EXHAUSTED
               and sres.status is SolveStatus.SOLVED
               and sres.executions_used <= 200
               and elapsed < 30.0)
        details.append(f"{name}: count={nres.combination_count} "
                       f"(={want_count}), naive={nres.status.value}, "
                       f"solve execs={sres.executions_used} (<=200), "
                       f"{elapsed:.1f}s (<30s)")
    verdict(2, ok, "; ".join(details))


def test_criterion_3_guard_analog(corpus):
    """Solver config solves the gated guard and covers >= 1.5x blocks."""
    t0 = time.monotonic()
    program, key = keyed(corpus, "modem_ok", "cmp_key")
    ratios = []
    guard_solved = []
    for seed in range(1, 6):
        per_config = {}
        for solver in (True, False):
            stats = run_campaign(program, CampaignConfig(
                rng_seed=seed, max_executions=200_000,
                solver_enabled=solver))
            per_config[solver] = stats
        on, off = per_config[True], per_config[False]
        guard_solved.append(key.cmp_id in on.solved_comparisons)
        ratios.append(on.unique_blocks / off.unique_blocks)
    elapsed = time.monotonic() - t0
    ok = (all(guard_solved) and all(r >= 1.5 for r in ratios)
          and elapsed < 300.0)
    verdict(3, ok, f"guard solved in {sum(guard_solved)}/5 trials; "
                   f"block ratios {[round(r, 2) for r in ratios]} "
                   f"(all >=1.5); runtime {elapsed:.0f}s (<300s)")


def test_criterion_4_oracle_equivalence():
    """1,000 seeded small instances: solver agrees with brute force."""
    t0 = time.monotonic()
    disagreements = 0
    solvable = 0
    for i in range(1000):
        rng = random.Random(1000 + i)
        n_input = rng.randint(4, 12)
        base = bytes(rng.choice(b"abcd") for _ in range(n_input))
        ideal_len = rng.randint(1, 3)
        extra = rng.randint(0, 2)
        k = min(ideal_len + extra, n_input)
        if k < ideal_len:
            k = ideal_len
        sources = tuple(sorted(rng.sample(range(n_input), k)))
        ideal = bytes(rng.choice(b"WXYZ") for _ in range(ideal_len))
        cursor = rng.randint(0, n_input)
        inst = SyntheticInstance(base=base, sources=sources, ideal=ideal,
                                 read_cursor=cursor)
        executor = make_executor(inst)
        rec = executor(FuzzInput(base)).comparisons[0]
        res = solve_with_alignments(rec, FuzzInput(base), executor)
        got = res.status is SolveStatus.SOLVED
        want = brute_force_solvable(inst)
        solvable += want
        if got != want:
            disagreements += 1
    elapsed = time.monotonic() - t0
    ok = disagreements == 0 and elapsed < 120.0
    verdict(4, ok, f"1000 instances ({solvable} solvable), "
                   f"{disagreements} disagreements (=0); "
                   f"runtime {elapsed:.1f}s (<2min)")


def test_criterion_5_length_feedback(corpus):
    """Unseen in-window (cmp_id, observed_len) => one new bit + enqueue."""
    t0 = time.monotonic()
    program = corpus["poweron"].program
    seeds = [bytes(128), bytes(range(1, 129))]

    # Arm 1: feedback on; trace-level assertions via instrumented hooks.
    c = Campaign(program, CampaignConfig(
        rng_seed=1, max_executions=50_000, solver_enabled=False,
        length_feedback_enabled=True), seeds=seeds)
    seen_pairs = set()
    state = {"expect_enqueue": False, "checked": 0, "new_pair_execs": 0}
    orig_record, orig_enqueue = c._record, c._enqueue

    def checking_record(trace):
        assert not state["expect_enqueue"], \
            "interesting input was not enqueued"
        res = orig_record(trace)
        new_pairs = 0
        for rec in trace.comparisons:
            if abs(rec.observed_len - rec.ideal_len) <= LENGTH_WINDOW:
                pair = (rec.cmp_id, rec.observed_len)
                if pair not in seen_pairs:
                    seen_pairs.add(pair)
                    new_pairs += 1
        assert res.new_length_bits == new_pairs, \
            f"expected {new_pairs} new length bits, got {res.new_length_bits}"
        state["checked"] += 1
        state["new_pair_execs"] += bool(new_pairs)
        state["expect_enqueue"] = res.interesting
        return res

    def checking_enqueue(data, via, edges):
        state["expect_enqueue"] = False
        return orig_enqueue(data, via, edges)

    c._record = checking_record
    c._enqueue = checking_enqueue
    c.run()

    # Arm 2: feedback off; length-only inputs must be discarded.
    c2 = Campaign(program, CampaignConfig(
        rng_seed=1, max_executions=50_000, solver_enabled=False,
        length_feedback_enabled=False), seeds=seeds)
    orig_record2, orig_enqueue2 = c2._record, c2._enqueue
    state2 = {"last_interesting": True, "discarded": 0}
    seen2 = set()

    def record2(trace):
        res = orig_record2(trace)
        assert res.new_length_bits == 0
        had_new_pair = False
        for rec in trace.comparisons:
            if abs(rec.observed_len - rec.ideal_len) <= LENGTH_WINDOW:
                pair = (rec.cmp_id, rec.observed_len)
                if pair not in seen2:
                    seen2.add(pair)
                    had_new_pair = True
        if had_new_pair and not res.interesting:
            state2["discarded"] += 1
        state2["last_interesting"] = res.interesting
        return res

    def enqueue2(data, via, edges):
        assert via == "seed" or state2["last_interesting"], \
            "non-interesting input enqueued with feedback off"
        return orig_enqueue2(data, via, edges)

    c2._record = record2
    c2._enqueue = enqueue2
    c2.run()

    elapsed = time.monotonic() - t0
    ok = (state["checked"] == 50_000 and state["new_pair_execs"] >= 2
          and state2["discarded"] >= 1 and elapsed < 60.0)
    verdict(5, ok, f"on-arm: {state['checked']} execs checked, "
                   f"{len(seen_pairs)} in-window pairs, "
                   f"{state['new_pair_execs']} bit-setting execs; "
                   f"off-arm discarded {state2['discarded']} length-only "
                   f"inputs; runtime {elapsed:.1f}s (<60s)")


def test_criterion_6_solver_neutrality(corpus):
    """No significant block-coverage difference on no-strings scenarios."""
    t0 = time.monotonic()
    details = []
    ok = True
    for name in ("nostr_bits", "nostr_chain", "nostr_state"):
        program = corpus[name].program
        blocks = {True: [], False: []}
        for solver in (True, False):
            for seed in range(1, 6):
                stats = run_campaign(program, CampaignConfig(
                    rng_seed=seed, max_executions=20_000,
                    solver_enabled=solver))
                blocks[solver].append(stats.unique_blocks)
        res = mann_whitney_u(blocks[True], blocks[False])
        ok &= res.p_value > 0.01
        details.append(f"{name}: p={res.p_value:.3f}"
                       f"{' (degenerate)' if res.degenerate else ''}")
    elapsed = time.monotonic() - t0
    ok &= elapsed < 300.0
    verdict(6, ok, f"{'; '.join(details)}; all p>0.01; "
                   f"runtime {elapsed:.0f}s (<300s)")


def test_criterion_7_false_positive(corpus, tmp_path):
    """Bogus PRINT comparison is attempted, abandoned, never enqueued."""
    t0 = time.monotonic()
    program, key = keyed(corpus, "print_fp", "cmp_print")
    out = tmp_path / "fp"
    c = Campaign(program, CampaignConfig(rng_seed=1, max_executions=10_000),
                 out_dir=out)
    stats = c.run()
    events = [json.loads(line)
              for line in (out / "solver.jsonl").read_text().splitlines()]
    attempts = [e for e in events
                if e.get("key") == [key.cmp_id, 0] and e["phase"] == "map"]
    abandoned = [e for e in attempts if e["outcome"] == "unmapped"]
    junk = [e for e in c.queue if e.via == "solver"]
    elapsed = time.monotonic() - t0
    ok = (stats.solver_attempts >= 1 and len(abandoned) >= 1
          and stats.solver_solved == 0 and not junk and elapsed < 30.0)
    verdict(7, ok, f"{stats.solver_attempts} attempts, "
                   f"{len(abandoned)} abandoned unmapped, "
                   f"{len(junk)} solver-attributed entries (=0); "
                   f"runtime {elapsed:.1f}s (<30s)")


def test_criterion_8_cli_determinism(tmp_path):
    """Two identical fuzz invocations produce byte-identical outputs."""
    t0 = time.monotonic()
    dirs = [tmp_path / "run_a", tmp_path / "run_b"]
    for d in dirs:
        rc = cli_main(["fuzz", "modem_ok", "--seed", "9", "--execs", "8000",
                       "--out", str(d)])
        assert rc == 0
    a, b = dirs
    stats_equal = (a / "stats.jsonl").read_bytes() == \
        (b / "stats.jsonl").read_bytes()
    names_a = sorted(p.name for p in (a / "queue").iterdir())
    names_b = sorted(p.name for p in (b / "queue").iterdir())
    queue_equal = names_a == names_b and all(
        (a / "queue" / n).read_bytes() == (b / "queue" / n).read_bytes()
        for n in names_a)
    elapsed = time.monotonic() - t0
    ok = stats_equal and queue_equal and elapsed < 60.0
    verdict(8, ok, f"stats identical: {stats_equal}; queue identical: "
                   f"{queue_equal} ({len(names_a)} entries); "
                   f"runtime {elapsed:.1f}s (<60s)")


def test_criterion_9_statistics_validity():
    """Exact rank test matches brute-force enumeration; symmetry holds."""
    t0 = time.monotonic()
    rng = random.Random(2024)
    mismatches = 0
    symmetry_breaks = 0
    for _ in range(200):
        na, nb = rng.randint(1, 7), rng.randint(1, 7)
        a = [rng.randint(0, 6) for _ in range(na)]
        b = [rng.randint(0, 6) for _ in range(nb)]
        res = mann_whitney_u(a, b)
        sym = mann_whitney_u(b, a)
        if abs(sym.u - (na * nb - res.u)) > 1e-9 or \
                abs(sym.p_value - res.p_value) > 1e-9:
            symmetry_breaks += 1
        if res.degenerate:
            continue
        if abs(res.p_value - oracle_exact_p(a, b)) > 1e-9:
            mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and symmetry_breaks == 0 and elapsed < 60.0
    verdict(9, ok, f"200 samples: {mismatches} oracle mismatches (=0), "
                   f"{symmetry_breaks} symmetry breaks (=0); "
                   f"runtime {elapsed:.1f}s (<60s)")
