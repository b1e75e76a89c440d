"""Virgin map semantics, length feedback window, serialization."""

from hypothesis import given, settings
from hypothesis import strategies as st

from scatterfuzz import CoverageMap, FuzzInput, execute
from scatterfuzz.coverage import (LENGTH_WINDOW, length_feedback_bit,
                                  strlen_bounded)
from scatterfuzz.program import MAP_SIZE, MAX_STRLEN


def test_strlen_bounded():
    assert strlen_bounded(b"abc\x00def") == 3
    assert strlen_bounded(b"\x00") == 0
    assert strlen_bounded(b"a" * 200) == MAX_STRLEN
    assert strlen_bounded(b"ab") == 2


@given(st.integers(0, 255), st.integers(0, MAX_STRLEN),
       st.integers(0, MAX_STRLEN))
def test_length_window_property(cmp_id, observed_len, ideal_len):
    bit = length_feedback_bit(cmp_id, observed_len, ideal_len)
    inside = abs(observed_len - ideal_len) <= LENGTH_WINDOW
    if inside:
        assert bit is not None and 0 <= bit < MAP_SIZE
    else:
        assert bit is None


def test_length_bit_depends_on_site_and_length():
    a = length_feedback_bit(1, 5, 5)
    b = length_feedback_bit(2, 5, 5)
    c = length_feedback_bit(1, 6, 5)
    assert len({a, b, c}) == 3


def test_record_trace_monotone(corpus):
    program = corpus["interleaved_ac"].program
    cov = CoverageMap()
    t = execute(program, FuzzInput(b"0123456789"))
    first = cov.record_trace(t)
    assert first.interesting and first.new_edge_bits > 0
    again = cov.record_trace(t)
    assert not again.interesting and again.new_bits == 0


def test_record_trace_order_insensitive(corpus):
    program = corpus["console"].program
    inputs = [b"ps\n", b"help\n", b"reboot\nxx", b"\n\n\n"]
    traces = [execute(program, FuzzInput(d)) for d in inputs]
    cov_a, cov_b = CoverageMap(), CoverageMap()
    for t in traces:
        cov_a.record_trace(t)
    for t in reversed(traces):
        cov_b.record_trace(t)
    assert cov_a.to_bytes() == cov_b.to_bytes()


def test_length_feedback_toggle(corpus):
    program = corpus["contract_ok"].program
    t = execute(program, FuzzInput(b"abcd"))
    cov_off = CoverageMap()
    res_off = cov_off.record_trace(t, length_feedback=False)
    assert res_off.new_length_bits == 0
    cov_on = CoverageMap()
    res_on = cov_on.record_trace(t, length_feedback=True)
    assert res_on.new_length_bits >= 1


@settings(max_examples=30, deadline=None)
@given(st.sets(st.integers(0, MAP_SIZE - 1), max_size=200))
def test_bitmap_round_trip(bits):
    cov = CoverageMap()
    cov._bits = set(bits)
    raw = cov.to_bytes()
    assert len(raw) == MAP_SIZE // 8
    assert CoverageMap.from_bytes(raw)._bits == bits
