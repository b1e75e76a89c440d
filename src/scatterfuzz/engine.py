"""Coverage-guided fuzzing campaign loop.

A campaign repeatedly picks a queue entry (favoring small inputs that
cover edges), mutates it a fixed number of times per visit, and keeps
mutants that light new bitmap bits.  Each newly enqueued entry passes
through a solver stage that tries to crack any string comparison the
entry reaches but does not satisfy; solved inputs are enqueued
unconditionally so progress on a comparison is never lost.

With the solver disabled the loop never touches the solver random
stream, so mutation behavior is byte-for-byte identical to a build
without the solver.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .cmplog import find_record
from .coverage import CoverageMap
from .errors import ConfigError, InconsistentBaseline
from .program import DEFAULT_INSTR_BUDGET, FuzzInput, TargetProgram
from .solver import SolveStatus, colorize, solve_with_alignments
from .vm import ExitReason, execute

DEFAULT_ENERGY = 64
DEFAULT_MAX_INPUT_LEN = 512
DEFAULT_SEED_LEN = 64
_SOLVER_SEED_SALT = 0x534F4C56


@dataclass
class CampaignConfig:
    rng_seed: int = 0
    max_executions: int = 100_000
    solver_enabled: bool = True
    colorization_enabled: bool = True
    length_feedback_enabled: bool = True
    instr_budget: int = DEFAULT_INSTR_BUDGET

    def __post_init__(self):
        if self.max_executions <= 0:
            raise ConfigError("max_executions must be positive")
        if self.instr_budget <= 0:
            raise ConfigError("instr_budget must be positive")

    def digest(self) -> str:
        return (f"seed{self.rng_seed}"
                f"-solver{int(self.solver_enabled)}"
                f"-color{int(self.colorization_enabled)}"
                f"-lenfb{int(self.length_feedback_enabled)}")


@dataclass
class QueueEntry:
    data: bytes
    entry_id: int
    via: str                        # "seed", "havoc", or "solver"
    edges: frozenset = frozenset()
    solver_done: set = field(default_factory=set)
    favored: bool = False


@dataclass
class CampaignStats:
    executions: int = 0
    queue_len: int = 0
    crashes: int = 0
    unique_crashes: int = 0
    unique_blocks: int = 0
    edges_covered: int = 0
    solved_comparisons: dict = field(default_factory=dict)
    solver_attempts: int = 0
    solver_solved: int = 0
    solver_executions: int = 0
    inconsistent_baselines: int = 0
    cmp_overflow: int = 0           # comparison hits past the log's caps


class _CampaignDone(Exception):
    pass


class Campaign:
    """One fuzzing campaign against a single target program."""

    def __init__(self, program: TargetProgram, config: CampaignConfig,
                 seeds=None, out_dir=None, observer=None):
        self.program = program
        self.config = config
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.observer = observer
        self.mut_rng = random.Random(config.rng_seed)
        self.solver_rng = random.Random(config.rng_seed ^ _SOLVER_SEED_SALT)
        self.cov = CoverageMap()
        self.queue: list[QueueEntry] = []
        self.stats = CampaignStats()
        self.blocks_seen: set[int] = set()
        self.crash_keys: set = set()
        self._stats_lines: list[str] = []
        self._solver_lines: list[str] = []
        self._crash_blobs: list[tuple[int, bytes]] = []
        self.seeds = [bytes(s) for s in (seeds or [])]
        if not self.seeds:
            self.seeds = [bytes(DEFAULT_SEED_LEN),
                          bytes([0xFF]) * DEFAULT_SEED_LEN]

    # -- execution --------------------------------------------------------

    def _exec(self, data: bytes, kind: str):
        """Run one input, account it, and track crashes and solved sites."""
        if self.stats.executions >= self.config.max_executions:
            raise _CampaignDone
        trace = execute(self.program, data, budget=self.config.instr_budget,
                        read_log=False)
        self.stats.executions += 1
        self.stats.cmp_overflow += trace.cmp_overflow
        self.blocks_seen |= trace.blocks
        if trace.exit is ExitReason.CRASH:
            self.stats.crashes += 1
            key = (trace.crash_pc, _edge_digest(trace.edges))
            if key not in self.crash_keys:
                self.crash_keys.add(key)
                self.stats.unique_crashes += 1
                self._crash_blobs.append((self.stats.executions, data))
        for rec in trace.comparisons:
            if (rec.is_solved()
                    and rec.cmp_id not in self.stats.solved_comparisons):
                self.stats.solved_comparisons[rec.cmp_id] = \
                    self.stats.executions
        if self.observer is not None:
            self.observer(self, trace, data, kind)
        return trace

    def _record(self, trace):
        return self.cov.record_trace(
            trace, length_feedback=self.config.length_feedback_enabled)

    def _log_stat(self, kind, new_bits):
        self._stats_lines.append(json.dumps(
            {"exec_id": self.stats.executions, "kind": kind,
             "new_bits": new_bits, "blocks": len(self.blocks_seen)}))

    # -- queue management -------------------------------------------------

    def _enqueue(self, data: bytes, via: str, edges) -> QueueEntry:
        entry = QueueEntry(data=data, entry_id=len(self.queue), via=via,
                           edges=frozenset(edges))
        self.queue.append(entry)
        self.stats.queue_len = len(self.queue)
        return entry

    def _refresh_favored(self):
        """Mark the smallest entry covering each edge as favored."""
        best: dict[int, QueueEntry] = {}
        for entry in self.queue:
            entry.favored = False
            for e in entry.edges:
                cur = best.get(e)
                if cur is None or len(entry.data) < len(cur.data):
                    best[e] = entry
        for entry in best.values():
            entry.favored = True

    # -- solver stage -----------------------------------------------------

    def _solver_executor(self, fuzz_input: FuzzInput):
        trace = self._exec(fuzz_input.bytes, "solver")
        self.stats.solver_executions += 1
        res = self._record(trace)
        if res.interesting:
            self._log_stat("solver", res.new_bits)
        return trace

    def _solver_stage(self, entry: QueueEntry, trace):
        """Attack each unsatisfied comparison the entry reaches, once."""
        if not self.config.solver_enabled:
            return
        for rec in trace.comparisons:
            # _exec has already marked every satisfied comparison solved.
            if rec.cmp_id in self.stats.solved_comparisons:
                continue
            if rec.key in entry.solver_done:
                continue
            entry.solver_done.add(rec.key)
            if not rec.ideal_str or not rec.observed_str:
                # Nothing to map from or onto; skip without spending the
                # colorization budget.
                continue
            self.stats.solver_attempts += 1
            base = FuzzInput(entry.data)

            def emit(event):
                self._solver_lines.append(json.dumps(event))

            try:
                if self.config.colorization_enabled:
                    base = colorize(rec, base, self._solver_executor,
                                    self.solver_rng, log=emit)
                    colored_trace = self._solver_executor(base)
                    rec2 = find_record(colored_trace, rec.key)
                    if rec2 is None:
                        base, rec2 = FuzzInput(entry.data), rec
                    rec = rec2
                result = solve_with_alignments(
                    rec, base, self._solver_executor, log=emit)
            except InconsistentBaseline:
                self.stats.inconsistent_baselines += 1
                continue
            if result.status is SolveStatus.SOLVED:
                self.stats.solver_solved += 1
                solved = result.solved_input.bytes
                t = self._exec(solved, "solver-keep")
                res = self._record(t)
                self._log_stat("solver-keep", res.new_bits)
                # Solved inputs bypass the interestingness filter.
                new = self._enqueue(solved, "solver", t.edges)
                self._solver_stage(new, t)

    # -- mutation ---------------------------------------------------------

    def mutate(self, entry: QueueEntry, rng: random.Random) -> bytes:
        """Stacked havoc mutation of one queue entry."""
        data = bytearray(entry.data)
        for _ in range(rng.randint(1, 8)):
            if not data:
                data = bytearray([rng.getrandbits(8)])
                continue
            op = rng.randrange(5)
            if op == 0:
                pos = rng.randrange(len(data))
                data[pos] ^= 1 << rng.randrange(8)
            elif op == 1:
                data[rng.randrange(len(data))] = rng.getrandbits(8)
            elif op == 2:
                # Duplicate a short block in place.
                lo = rng.randrange(len(data))
                hi = min(len(data), lo + rng.randint(1, 16))
                data[hi:hi] = data[lo:hi]
            elif op == 3:
                lo = rng.randrange(len(data))
                hi = min(len(data), lo + rng.randint(1, 16))
                del data[lo:hi]
            else:
                # Splice: keep a prefix, graft another entry's suffix.
                other = self.queue[rng.randrange(len(self.queue))].data
                if other:
                    cut = rng.randrange(len(data))
                    graft = other[rng.randrange(len(other)):]
                    data = data[:cut] + bytearray(graft)
        if not data:
            data = bytearray([rng.getrandbits(8)])
        return bytes(data[:DEFAULT_MAX_INPUT_LEN])

    # -- main loop --------------------------------------------------------

    def run(self) -> CampaignStats:
        try:
            for seed in self.seeds:
                trace = self._exec(seed, "seed")
                res = self._record(trace)
                self._log_stat("seed", res.new_bits)
                entry = self._enqueue(seed, "seed", trace.edges)
                self._solver_stage(entry, trace)

            cursor = 0
            while self.stats.executions < self.config.max_executions:
                self._refresh_favored()
                schedule = ([e for e in self.queue if e.favored]
                            + [e for e in self.queue if not e.favored])
                entry = schedule[cursor % len(schedule)]
                cursor += 1
                for _ in range(DEFAULT_ENERGY):
                    mutant = self.mutate(entry, self.mut_rng)
                    trace = self._exec(mutant, "havoc")
                    res = self._record(trace)
                    if res.interesting:
                        self._log_stat("havoc", res.new_bits)
                        new = self._enqueue(mutant, "havoc", trace.edges)
                        self._solver_stage(new, trace)
        except _CampaignDone:
            pass

        self.stats.unique_blocks = len(self.blocks_seen)
        self.stats.edges_covered = self.cov.bit_count()
        if self.out_dir is not None:
            self._write_outputs()
        return self.stats

    # -- persistence ------------------------------------------------------

    def _write_outputs(self):
        out = self.out_dir
        (out / "queue").mkdir(parents=True, exist_ok=True)
        (out / "crashes").mkdir(parents=True, exist_ok=True)
        for entry in self.queue:
            (out / "queue" / f"{entry.entry_id:06d}").write_bytes(entry.data)
        for exec_id, blob in self._crash_blobs:
            (out / "crashes" / f"crash_{exec_id:08d}").write_bytes(blob)
        (out / "stats.jsonl").write_text(
            "\n".join(self._stats_lines) + "\n" if self._stats_lines else "")
        (out / "solver.jsonl").write_text(
            "\n".join(self._solver_lines) + "\n" if self._solver_lines else "")
        (out / "bitmap.bin").write_bytes(self.cov.to_bytes())
        summary = asdict(self.stats)
        summary["solved_comparisons"] = {
            str(k): v
            for k, v in sorted(summary["solved_comparisons"].items())}
        summary["config"] = self.config.digest()
        (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")


def _edge_digest(edges) -> int:
    """Order-independent stable hash of an edge set."""
    h = 0
    for e in edges:
        x = (e * 0x9E3779B1 + 0x7F4A7C15) & 0xFFFFFFFF
        x ^= x >> 16
        h ^= x
    return h


def run_campaign(program, config: CampaignConfig, seeds=None, out_dir=None,
                 observer=None) -> CampaignStats:
    return Campaign(program, config, seeds=seeds, out_dir=out_dir,
                    observer=observer).run()
