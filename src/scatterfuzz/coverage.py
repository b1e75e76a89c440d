"""Virgin coverage bitmap combining edge bits and string-length feedback.

Edge bits and length bits share one 2^16 map through salted hash
domains.  Length feedback rewards inputs whose observed string at a
comparison site gets close to the ideal string's length, so seeds that
load enough data for a replacement attempt are retained.
"""

from __future__ import annotations

from dataclasses import dataclass

from .program import MAP_SIZE, MAX_STRLEN

LENGTH_WINDOW = 4
_LENGTH_SALT = 0x4C454E46


def strlen_bounded(buffer: bytes) -> int:
    """Index of the first NUL, or MAX_STRLEN if none within MAX_STRLEN bytes."""
    pos = buffer.find(0, 0, MAX_STRLEN)
    return pos if pos >= 0 else min(len(buffer), MAX_STRLEN)


def length_feedback_bit(cmp_id: int, observed_len: int, ideal_len: int):
    """Bitmap index for an observed length at a comparison site, or None.

    An observation qualifies when the observed length falls within the
    +/- LENGTH_WINDOW band around the ideal length (exact matches are
    always inside the band).
    """
    if not (ideal_len - LENGTH_WINDOW <= observed_len
            <= ideal_len + LENGTH_WINDOW):
        return None
    h = (cmp_id * 0x9E3779B1 + _LENGTH_SALT) & 0xFFFFFFFF
    h ^= (observed_len * 0xC2B2AE3D + 0x165667B1) & 0xFFFFFFFF
    h = ((h ^ (h >> 13)) * 0x85EBCA77) & 0xFFFFFFFF
    h ^= h >> 11
    return h & (MAP_SIZE - 1)


@dataclass
class RecordResult:
    interesting: bool
    new_edge_bits: int
    new_length_bits: int

    @property
    def new_bits(self):
        return self.new_edge_bits + self.new_length_bits


class CoverageMap:
    """Fixed 2^16-bit virgin map; bits only ever transition 0 -> 1."""

    def __init__(self):
        self._bits: set[int] = set()
        # (cmp_id, observed_len, ideal_len) -> bit index or None; the
        # hash is pure, so caching it is safe and saves the hot path.
        self._len_bit_cache: dict = {}

    def bit_count(self):
        return len(self._bits)

    def record_trace(self, trace, *, length_feedback=True) -> RecordResult:
        """Fold one trace into the map; report whether it was novel."""
        new_edges = trace.edges - self._bits
        self._bits |= new_edges

        new_len = 0
        if length_feedback:
            cache = self._len_bit_cache
            for rec in trace.comparisons:
                ck = (rec.cmp_id, rec.observed_len, rec.ideal_len)
                try:
                    idx = cache[ck]
                except KeyError:
                    idx = cache[ck] = length_feedback_bit(*ck)
                if idx is not None and idx not in self._bits:
                    self._bits.add(idx)
                    new_len += 1
        n_edges = len(new_edges)
        return RecordResult(interesting=bool(n_edges or new_len),
                            new_edge_bits=n_edges, new_length_bits=new_len)

    # -- serialization (raw 8 KiB bitmap) --------------------------------

    def to_bytes(self) -> bytes:
        out = bytearray(MAP_SIZE // 8)
        for b in self._bits:
            out[b >> 3] |= 1 << (b & 7)
        return bytes(out)
