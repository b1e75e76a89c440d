"""Feedback-guided search and replacement for scattered string comparisons.

Solves one comparison at a time: for each character of the observed
string, scan the already-read region of the input for candidate bytes,
tentatively replace one with the ideal character, and keep the
replacement only when re-execution shows the observed buffer changed at
that exact position.  Locked positions advance a floor index, so stream
ordering prunes earlier candidates.  Includes string contraction via
token delimiters, head/tail alignment for substring checks, random-byte
colorization, and a naive Cartesian-product baseline for comparison.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .cmplog import CmpKey, find_record
from .errors import InconsistentBaseline
from .program import FuzzInput

# Ordered by how common each token separator is in embedded command
# parsers; space and newline first.
DEFAULT_DELIMITERS = bytes([0x20, 0x0A, 0x0D, 0x09, 0x00, 0x2C, 0x3B])

DEFAULT_COLORIZE_EXECS = 24


class SolveStatus(enum.Enum):
    SOLVED = "solved"
    UNMAPPED_BYTE = "unmapped_byte"
    CONTRACTION_TRIED = "contraction_tried"
    NOT_REACHED = "not_reached"
    BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass
class SolveResult:
    status: SolveStatus
    mapped: list = field(default_factory=list)
    executions_used: int = 0
    solved_input: FuzzInput | None = None
    unmapped_index: int | None = None
    alignment_offset: int = 0


@dataclass
class NaiveSearchResult:
    status: SolveStatus
    combination_count: int
    executions_used: int = 0
    solved_input: FuzzInput | None = None


def default_exec_budget(input_len: int) -> int:
    return 4 * input_len + 64


def candidate_positions(working_input, byte_value, from_index, to_index):
    """Positions in [from_index, to_index) holding byte_value, ascending."""
    return [j for j in range(from_index, to_index)
            if working_input[j] == byte_value]


class _Budget(Exception):
    pass


class _Runner:
    """Runs one solve attempt's executions against its budget."""

    def __init__(self, executor, budget, key, offset, log):
        self.executor = executor
        self.budget = budget
        self.execs = 0
        self.key = key
        self.offset = offset
        self.log = log

    def run(self, data):
        if self.execs >= self.budget:
            raise _Budget
        self.execs += 1
        return find_record(self.executor(FuzzInput(bytes(data))), self.key)

    def probe(self, working, lo, hi, pos, want, value):
        """The one probe step: find the input byte that feeds observed[pos].

        Each j in [lo, hi) holding ``want`` gets ``value`` written in
        turn and the target re-runs; the first j whose run shows
        ``value`` at observed[pos] is returned with that run's record
        as ``(j, record)``, else ``(None, None)``.  ``working`` is left
        as it was.
        """
        for j in candidate_positions(working, want, lo, hi):
            working[j] = value
            rec = self.run(working)
            working[j] = want
            if (rec is not None and pos < len(rec.observed)
                    and rec.observed[pos] == value):
                return j, rec
        return None, None

    def result(self, status, mapped, **fields):
        return SolveResult(status, mapped=mapped, executions_used=self.execs,
                           alignment_offset=self.offset, **fields)

    def event(self, phase, **fields):
        if self.log is not None:
            self.log({"key": [self.key.cmp_id, self.key.hit_index],
                      "phase": phase, "execs": self.execs, **fields})


def solve(program, base_input, key: CmpKey, ideal: bytes, observed: bytes,
          executor, *, exec_budget=None, offset=0, log=None) -> SolveResult:
    """Map ideal onto the observed string's bytes until the comparison passes.

    ``observed``/``ideal`` are the logical strings (no terminator) from a
    prior trace of ``base_input``.  ``offset`` aligns ideal onto the
    observed buffer starting at that position (0 = head alignment).
    ``executor`` runs the target on a candidate input and returns a
    trace; it may be the VM or an injected test double.
    """
    base = base_input.bytes
    budget = exec_budget if exec_budget is not None else default_exec_budget(
        len(base))
    rn = _Runner(executor, budget, key, offset, log)
    try:
        return _solve_inner(base, ideal, observed, rn)
    except _Budget:
        return rn.result(SolveStatus.BUDGET_EXHAUSTED, [])


def _solve_inner(base, ideal, observed, rn):
    rec = rn.run(base)
    if rec is None or rec.observed_str != observed or rec.ideal_str != ideal:
        raise InconsistentBaseline(
            f"cmp {rn.key.cmp_id}/{rn.key.hit_index} "
            "not reproducible from base input")

    if rec.is_solved():
        return rn.result(SolveStatus.SOLVED, [], solved_input=FuzzInput(base))

    working = bytearray(base)
    last_index = 0
    read_limit = rec.read_cursor
    mapped = []
    offset = rn.offset
    ideal_len = len(ideal)
    # Head alignment walks the whole observed string so over-long strings
    # reach the contraction step; tail alignment only covers ideal_len
    # positions ending at the observed string's end.
    limit = len(observed) if offset == 0 else offset + ideal_len

    pos = offset
    while pos < limit:
        if pos - offset >= ideal_len:
            # Observed string is longer than ideal: contract it.
            return _contract(working, observed, pos, rn, last_index,
                             read_limit, mapped)
        target = ideal[pos - offset]
        j, rec = rn.probe(working, last_index, read_limit, pos,
                          observed[pos], target)
        if j is None:
            rn.event("map", i=pos, j=None, outcome="unmapped")
            return rn.result(SolveStatus.UNMAPPED_BYTE, mapped,
                             unmapped_index=pos)
        working[j] = target
        last_index = j + 1
        read_limit = rec.read_cursor
        mapped.append((pos, j))
        rn.event("map", i=pos, j=j, outcome="locked")
        pos += 1
        if rec.is_solved():
            # The comparison passes already (e.g. STRSTR found the
            # needle); mapping on or contracting would only spend runs.
            break

    # All targeted positions locked, or the comparison passed early; the
    # trace of the final working input doubles as the verification
    # execution (execution is deterministic).
    if rec.is_solved():
        rn.event("map", i=None, j=None, outcome="solved")
        return rn.result(SolveStatus.SOLVED, mapped,
                         solved_input=FuzzInput(bytes(working)))
    rn.event("map", i=None, j=None, outcome="verify_failed")
    return rn.result(SolveStatus.NOT_REACHED, mapped)


def _contract(working, observed, pos, rn, last_index, read_limit, mapped):
    """Shorten an over-long observed string with a token delimiter.

    Locates the input byte feeding observed[pos] with the probe step
    mapping uses (a sentinel write must be seen at that position), then
    tries each delimiter there.
    """
    want = observed[pos]
    j, _ = rn.probe(working, last_index, read_limit, pos, want, want ^ 0xA5)
    if j is None:
        rn.event("contract", i=pos, j=None, outcome="not_located")
        return rn.result(SolveStatus.CONTRACTION_TRIED, mapped,
                         unmapped_index=pos)

    for delim in DEFAULT_DELIMITERS:
        working[j] = delim
        rec = rn.run(working)
        if rec is not None and rec.is_solved():
            rn.event("contract", i=pos, j=j, outcome="solved")
            return rn.result(SolveStatus.SOLVED, mapped + [(pos, j)],
                             solved_input=FuzzInput(bytes(working)))
    rn.event("contract", i=pos, j=j, outcome="exhausted")
    return rn.result(SolveStatus.CONTRACTION_TRIED, mapped,
                     unmapped_index=pos)


def solve_with_alignments(program, base_input, key, record, executor, *,
                          log=None) -> SolveResult:
    """Try head alignment, then tail alignment for nested substring checks.

    Returns the first Solved result, else the attempt that locked more
    positions (ties favor head alignment).
    """
    observed = record.observed_str
    ideal = record.ideal_str
    head = solve(program, base_input, key, ideal, observed, executor,
                 log=log)
    if head.status is SolveStatus.SOLVED or len(observed) <= len(ideal):
        return head
    tail_offset = len(observed) - len(ideal)
    tail = solve(program, base_input, key, ideal, observed, executor,
                 offset=tail_offset, log=log)
    if tail.status is SolveStatus.SOLVED:
        return tail
    return tail if len(tail.mapped) > len(head.mapped) else head


def colorize(program, base_input, key, executor, rng, *,
             log=None) -> FuzzInput:
    """Raise input entropy while keeping the targeted comparison reachable.

    Greedily replaces maximal spans with random bytes, splitting a span
    in half whenever the replacement stops the trace from containing the
    record at key.  Returns base_input unchanged if nothing colors.
    """
    base = base_input.bytes
    work = bytearray(base)
    stack = [(0, len(work))]
    execs = 0
    while stack and execs < DEFAULT_COLORIZE_EXECS:
        lo, hi = stack.pop()
        if hi <= lo:
            continue
        saved = work[lo:hi]
        work[lo:hi] = bytes(rng.getrandbits(8) for _ in range(hi - lo))
        trace = executor(FuzzInput(bytes(work)))
        execs += 1
        if find_record(trace, key) is not None:
            continue
        work[lo:hi] = saved
        if hi - lo > 1:
            mid = (lo + hi) // 2
            stack.append((mid, hi))
            stack.append((lo, mid))
    if len(set(work)) < len(set(base)):
        work = bytearray(base)
    if log is not None:
        log({"key": [key.cmp_id, key.hit_index], "phase": "color",
             "execs": execs,
             "outcome": "colored" if bytes(work) != base else "unchanged"})
    return FuzzInput(bytes(work))


def naive_search(program, base_input, key, record, executor,
                 combo_budget: int, *, log=None) -> NaiveSearchResult:
    """Baseline: try the Cartesian product of candidate replacements.

    The reported combination count is the product of per-character
    candidate list sizes (computed arithmetically, never by running the
    target).  Enumeration skips combinations whose positions are not
    strictly increasing, since two string characters cannot map to one
    input byte.
    """
    base = base_input.bytes
    observed = record.observed_str
    ideal = record.ideal_str
    n = min(len(observed), len(ideal))
    cands = [candidate_positions(base, observed[i], 0, record.read_cursor)
             for i in range(n)]
    count = math.prod(len(c) for c in cands) if n else 0

    if n == 0 or count == 0:
        return NaiveSearchResult(SolveStatus.UNMAPPED_BYTE, count)

    execs = 0
    stack = [(0, (), base)]
    # Depth-first product enumeration, pruned to strictly increasing
    # position tuples; memory stays linear in the string length.
    while stack:
        depth, positions, data = stack.pop()
        if depth == n:
            if execs >= combo_budget:
                return NaiveSearchResult(SolveStatus.BUDGET_EXHAUSTED, count,
                                         executions_used=execs)
            execs += 1
            trace = executor(FuzzInput(data))
            rec = find_record(trace, key)
            if rec is not None and rec.is_solved():
                return NaiveSearchResult(SolveStatus.SOLVED, count,
                                         executions_used=execs,
                                         solved_input=FuzzInput(data))
            continue
        floor = positions[-1] if positions else -1
        for j in reversed(cands[depth]):
            if j <= floor:
                continue
            mutated = data[:j] + bytes([ideal[depth]]) + data[j + 1:]
            stack.append((depth + 1, positions + (j,), mutated))
    return NaiveSearchResult(SolveStatus.UNMAPPED_BYTE, count,
                             executions_used=execs)
