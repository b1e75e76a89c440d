"""Campaign loop: determinism, mutation, solver stage, crash handling."""

import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

import scatterfuzz.engine as engine_mod
from scatterfuzz import CampaignConfig, ConfigError, run_campaign
from scatterfuzz.asm import parse_scenario
from scatterfuzz.bench import DEFAULT_BENCH_EXECS
from scatterfuzz.cmplog import MAX_HITS_PER_SITE
from scatterfuzz.engine import Campaign, QueueEntry

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from tracer import COLORIZE, Tracer  # noqa: E402


def make_entry(data, entry_id=0):
    return QueueEntry(data=bytes(data), entry_id=entry_id, via="seed")


def small_campaign(corpus, name, execs=3000, **kw):
    defaults = dict(rng_seed=1, max_executions=execs)
    defaults.update(kw)
    return Campaign(corpus[name].program, CampaignConfig(**defaults))


def test_zero_budget_rejected():
    with pytest.raises(ConfigError):
        CampaignConfig(max_executions=0)
    with pytest.raises(ConfigError):
        CampaignConfig(instr_budget=0)


def test_mutate_deterministic(corpus):
    c = small_campaign(corpus, "nostr_bits")
    entry = make_entry(b"hello world")
    c.queue.append(entry)
    a = c.mutate(entry, random.Random(42))
    b = c.mutate(entry, random.Random(42))
    assert a == b


def test_mutate_degenerate_input(corpus):
    c = small_campaign(corpus, "nostr_bits")
    entry = make_entry(b"x")
    c.queue.append(entry)
    for seed in range(50):
        out = c.mutate(entry, random.Random(seed))
        assert 1 <= len(out) <= engine_mod.DEFAULT_MAX_INPUT_LEN


class _ScriptedRng:
    """Plays back a fixed sequence for randint/randrange calls."""

    def __init__(self, values):
        self.values = iter(values)

    def randint(self, lo, hi):
        return next(self.values)

    def randrange(self, n):
        return next(self.values)

    def getrandbits(self, _):
        return 0


def test_splice_property_1000_seeded(corpus):
    c = small_campaign(corpus, "nostr_bits")
    parent_a = bytes([0xAA]) * 40
    parent_b = bytes([0xBB]) * 40
    c.queue.append(make_entry(parent_a, 0))
    c.queue.append(make_entry(parent_b, 1))
    rng = random.Random(7)
    for _ in range(1000):
        cut = rng.randrange(len(parent_a))
        keep = rng.randrange(len(parent_b))
        # one stacked op; op 4 = splice; pick entry 1; then cut, keep.
        script = _ScriptedRng([1, 4, 1, cut, keep])
        out = c.mutate(c.queue[0], script)
        assert out == parent_a[:cut] + parent_b[keep:]
        assert 0 <= cut < len(parent_a) and 0 <= keep < len(parent_b)


def test_replay_determinism(corpus):
    stats = []
    lines = []
    for _ in range(2):
        c = small_campaign(corpus, "modem_ok", execs=4000)
        s = c.run()
        stats.append((s.executions, s.queue_len, s.unique_blocks,
                      s.unique_crashes, tuple(sorted(s.solved_comparisons))))
        lines.append(tuple(c._stats_lines))
    assert stats[0] == stats[1]
    assert lines[0] == lines[1]


def test_solver_disabled_never_calls_solver(corpus, monkeypatch):
    def boom(*a, **kw):
        raise AssertionError("solver invoked with solver_enabled=False")

    monkeypatch.setattr(engine_mod, "solve_with_alignments", boom)
    monkeypatch.setattr(engine_mod, "colorize", boom)
    stats = run_campaign(corpus["modem_ok"].program,
                         CampaignConfig(rng_seed=2, max_executions=2000,
                                        solver_enabled=False))
    assert stats.solver_attempts == 0


def test_solver_neutrality_on_no_strings(corpus):
    """Without comparisons, solver on/off runs are byte-for-byte equal."""
    for name in ("nostr_bits", "nostr_chain", "nostr_state"):
        runs = []
        for solver in (True, False):
            c = Campaign(corpus[name].program,
                         CampaignConfig(rng_seed=3, max_executions=2000,
                                        solver_enabled=solver))
            s = c.run()
            runs.append((tuple(c._stats_lines),
                         tuple(e.data for e in c.queue),
                         s.unique_blocks, s.unique_crashes))
        assert runs[0] == runs[1]


def test_no_lost_crashes(corpus):
    magic = bytes([0x42, 0x13, 0x37, 0x99])
    c = Campaign(corpus["nostr_bits"].program,
                 CampaignConfig(rng_seed=1, max_executions=500),
                 seeds=[magic])
    stats = c.run()
    assert stats.crashes >= 1
    assert stats.unique_crashes >= 1
    assert len(c._crash_blobs) == stats.unique_crashes


def test_crashes_deduplicated_by_path():
    """Two paths to one CRASH are two unique crashes; a repeat is not."""
    program = parse_scenario(
        '.rom s "a\\0"\n.ram 8\n.periph p\n'
        "  READ_REG r1, p\n  BZ r1, left\n  JMP boom\n"
        "left:\n  LOADI r2, 0\nboom:\n  CRASH\n")
    c = Campaign(program, CampaignConfig(rng_seed=1, max_executions=3),
                 seeds=[b"\0", b"\1", b"\0"])
    stats = c.run()
    assert stats.crashes == 3
    assert stats.unique_crashes == 2
    assert c._crash_blobs == [(1, b"\0"), (2, b"\1")]


def test_solved_inputs_bypass_interestingness(corpus):
    c = Campaign(corpus["contract_ok"].program,
                 CampaignConfig(rng_seed=1, max_executions=3000))
    c.run()
    assert any(e.via == "solver" for e in c.queue)


def test_solver_stage_one_shot(corpus, monkeypatch):
    calls = []
    real = engine_mod.solve_with_alignments

    def spy(rec, base, executor, **kw):
        calls.append(rec.key)
        return real(rec, base, executor, **kw)

    monkeypatch.setattr(engine_mod, "solve_with_alignments", spy)
    c = Campaign(corpus["print_fp"].program,
                 CampaignConfig(rng_seed=4, max_executions=3000))
    stats = c.run()
    assert stats.solver_attempts == len(calls)
    # Never solved, so every reached entry may attempt once; no entry
    # is ever attributed to the solver.
    assert not any(e.via == "solver" for e in c.queue)
    assert stats.solver_solved == 0


def test_tracer_contract(corpus):
    """The benchmark tracer sees every solver call and changes nothing.

    It reads colorize's base input as the second positional argument
    and counts each solve_with_alignments status.
    """
    config = CampaignConfig(rng_seed=1, max_executions=3000)
    untraced = Campaign(corpus["contract_ok"].program, config).run()
    tracer = Tracer()
    with tracer.installed():
        traced = Campaign(corpus["contract_ok"].program, config,
                          observer=tracer.observer).run()
    assert traced == untraced
    assert tracer.counts["solver.status.solved"] >= 1
    assert tracer.layer_times()[0][COLORIZE][0] >= 1


def test_campaign_dir_layout(corpus, tmp_path):
    out = tmp_path / "camp"
    overflow = []
    stats = run_campaign(
        corpus["modem_ok"].program,
        CampaignConfig(rng_seed=1, max_executions=3000), out_dir=out,
        observer=lambda c, trace, data, kind: overflow.append(
            trace.cmp_overflow))
    assert (out / "queue").is_dir()
    assert (out / "crashes").is_dir()
    assert (out / "bitmap.bin").stat().st_size == 8192
    stats_lines = (out / "stats.jsonl").read_text().strip().splitlines()
    assert all(json.loads(line) for line in stats_lines)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["executions"] == 3000
    assert summary["solver_executions"] == stats.solver_executions > 0
    assert summary["cmp_overflow"] == stats.cmp_overflow == sum(overflow)
    solver_lines = (out / "solver.jsonl").read_text().strip().splitlines()
    assert all(json.loads(line) for line in solver_lines if line)


def test_summary_counts_cmp_overflow(tmp_path):
    """Hits past the per-site cap reach CampaignStats and summary.json."""
    program = parse_scenario(
        '.rom w "hi\\0"\n.ram 8\n.periph p\n'
        'top:\n  READ_REG r1, p\n  CALL STRCMP, w, ram\n  JMP top\n')
    out = tmp_path / "camp"
    stats = run_campaign(program, CampaignConfig(
        rng_seed=1, max_executions=200, solver_enabled=False),
        seeds=[bytes(MAX_HITS_PER_SITE + 5)], out_dir=out)
    summary = json.loads((out / "summary.json").read_text())
    assert stats.cmp_overflow >= 5
    assert summary["cmp_overflow"] == stats.cmp_overflow
    assert summary["solver_executions"] == 0


def test_every_scenario_runs_to_budget(corpus):
    """Whole corpus x solver on/off at the bench budget, no exception.

    With the solver on, every expected string except the false positive
    is solved, and each solve marks a new site, so solves never exceed
    the number of comparison sites.
    """
    for scenario in corpus.values():
        program = scenario.program
        sites = sum(ins.opcode == "CALL" for ins in program.instructions)
        for solver in (True, False):
            stats = run_campaign(program, CampaignConfig(
                rng_seed=1, max_executions=DEFAULT_BENCH_EXECS,
                solver_enabled=solver))
            label = f"{scenario.name}/solver={solver}"
            assert stats.executions == DEFAULT_BENCH_EXECS, label
            if not solver or scenario.category == "false_positive":
                continue
            missing = [e.label for e in scenario.expected_strings
                       if e.cmp_id not in stats.solved_comparisons]
            assert not missing, (label, missing)
            assert stats.solver_solved <= sites, label


def test_campaign_digest_matches_golden():
    """Every bundled scenario, solver on and off, seed 1, 2,000 executions,
    digests byte for byte as tests/data/campaign_digest_2k.txt records.

    A change that alters campaign behaviour on purpose regenerates it:
    python tools/campaign_digest.py 2000 1 > tests/data/campaign_digest_2k.txt
    """
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "campaign_digest", root / "tools/campaign_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    golden = (root / "tests/data/campaign_digest_2k.txt").read_text()
    assert list(digest.digest_lines(2000, (1,))) == golden.splitlines()
