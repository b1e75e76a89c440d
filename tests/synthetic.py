"""Synthetic comparison executor used as a test double for the solver.

Models the one property the search depends on: each observed-string
byte is a copy of one fuzz-input byte at a fixed source position, and
only bytes below the read cursor were consumed.  The record's verdict
is the oracle's success rule: the observed string ends with ideal
(exact at the head, or as a tail suffix).  This keeps the brute-force
oracle for solver equivalence small and exact.
"""

import itertools
from dataclasses import dataclass

from scatterfuzz.cmplog import ComparisonRecord
from scatterfuzz.coverage import strlen_bounded
from scatterfuzz.program import FuzzInput


@dataclass
class SyntheticTrace:
    comparisons: list


@dataclass(frozen=True)
class SyntheticInstance:
    base: bytes
    sources: tuple          # strictly increasing input positions
    ideal: bytes
    read_cursor: int


def make_executor(inst: SyntheticInstance):
    def executor(fuzz_input: FuzzInput):
        data = fuzz_input.bytes
        observed = bytes(data[p] if p < len(data) else 0
                         for p in inst.sources) + b"\x00"
        observed_len = strlen_bounded(observed)
        rec = ComparisonRecord(
            cmp_id=0, hit_index=0, observed=observed,
            ideal=inst.ideal + b"\x00",
            read_cursor=inst.read_cursor,
            observed_len=observed_len,
            ideal_len=len(inst.ideal),
            satisfied=observed[:observed_len].endswith(inst.ideal))
        return SyntheticTrace(comparisons=[rec])
    return executor


def brute_force_solvable(inst: SyntheticInstance) -> bool:
    """Exhaustive combination search, independent of the greedy solver.

    Tries every strictly increasing choice of candidate positions for
    either alignment of the ideal onto the observed string; over-long
    observed strings additionally need a NUL written at some candidate
    of the next position.  Success is judged by re-deriving the record.
    """
    executor = make_executor(inst)
    base = inst.base
    k = len(inst.sources)
    n = len(inst.ideal)
    baseline = executor(FuzzInput(base)).comparisons[0]
    observed = baseline.observed_str

    def candidates(byte):
        return [j for j in range(inst.read_cursor) if base[j] == byte]

    def attempt(offset, contract):
        span = [candidates(observed[offset + i]) for i in range(n)]
        writes = [bytes([c]) for c in inst.ideal]
        if contract:
            if offset + n >= len(observed):
                return False
            span.append(candidates(observed[offset + n]))
            writes.append(b"\x00")
        pools = span
        for combo in itertools.product(*pools):
            if any(b <= a for a, b in zip(combo, combo[1:])):
                continue
            data = bytearray(base)
            for pos, val in zip(combo, writes):
                data[pos] = val[0]
            rec = executor(FuzzInput(bytes(data))).comparisons[0]
            if (rec.observed_len == offset + n
                    and rec.observed[offset:offset + n] == inst.ideal):
                return True
        return False

    obs_len = baseline.observed_len
    if obs_len < n:
        return False
    if attempt(0, contract=obs_len > n):
        return True
    if obs_len > n and attempt(obs_len - n, contract=False):
        return True
    return False
