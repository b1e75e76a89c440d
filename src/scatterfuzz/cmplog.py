"""Comparison records.

Every CALL whose two pointer arguments decode to one ROM and one RAM
address is logged as a candidate string comparison, no matter which
builtin was invoked.  False positives (e.g. printing a static string to
a device structure) are allowed; the solver abandons them cheaply.
Each record carries the builtin's own verdict, so "solved" means
exactly what the firmware's comparison decided.  A builtin reads at most
MAX_STRLEN (128) bytes through each pointer, and these are the bytes a
record's snapshots hold.
"""

from __future__ import annotations

from dataclasses import dataclass

# Bounds against pathological scenarios: extra hits/sites are counted in
# the trace's overflow counter, never silently dropped mid-record.
MAX_CMP_SITES = 256
MAX_HITS_PER_SITE = 32


@dataclass(frozen=True)
class CmpKey:
    cmp_id: int
    hit_index: int


@dataclass(slots=True)
class ComparisonRecord:
    cmp_id: int
    hit_index: int
    observed: bytes      # raw RAM-side snapshot, clamped
    ideal: bytes         # raw ROM-side snapshot, clamped
    read_cursor: int
    observed_len: int
    ideal_len: int
    satisfied: bool      # the builtin's verdict (see vm._State.call)

    @property
    def key(self):
        return CmpKey(self.cmp_id, self.hit_index)

    @property
    def observed_str(self):
        return self.observed[:self.observed_len]

    @property
    def ideal_str(self):
        return self.ideal[:self.ideal_len]

    def is_solved(self):
        """True when the builtin reported the comparison as satisfied."""
        return self.satisfied


def find_record(trace, key: CmpKey):
    for rec in trace.comparisons:
        if rec.cmp_id == key.cmp_id and rec.hit_index == key.hit_index:
            return rec
    return None

