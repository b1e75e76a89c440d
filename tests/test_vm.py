"""Executor semantics: stream reads, branching, builtins, crashes, edges."""

import time
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scatterfuzz import ExitReason, FuzzInput, execute
from scatterfuzz.asm import parse_scenario
from scatterfuzz.program import BUILTINS, MAX_STRLEN, ROM_BASE, block_edge_id
from scatterfuzz.vm import compile_program


def run(text, data, **kw):
    return execute(parse_scenario(text), FuzzInput(bytes(data)), **kw)


def test_interleaved_hand_checked(corpus):
    """Oracle: the interleaved scenario's read schedule, stepped by hand.

    The program polls two peripherals in a fixed pattern; reads 2 and 5
    are the data reads, the comparison happens after read 9, and one
    status read follows it on either branch.  execute accepts
    read_log=False, which changes nothing, and rejects read_log=True.
    """
    program = corpus["interleaved_ac"].program
    trace = execute(program, FuzzInput(b"s1ss2ssss3"))
    assert trace.final_cursor == 10
    assert trace.exit is ExitReason.HALT
    rec = trace.comparisons[0]
    assert rec.read_cursor == 9
    assert rec.observed_str == b"12"
    assert rec.ideal_str == b"ac"
    assert execute(program, FuzzInput(b"s1ss2ssss3"),
                   read_log=False) == trace
    with pytest.raises(ValueError):
        execute(program, FuzzInput(b"s1ss2ssss3"), read_log=True)


def test_input_exhausted():
    t = run('.rom s "a\\0"\n.ram 8\n.periph p\n  READ_REG r1, p\n  HALT\n',
            b"")
    assert t.exit is ExitReason.INPUT_EXHAUSTED
    assert t.final_cursor == 0


def test_budget_exhausted():
    t = run('.rom s "a\\0"\n.ram 8\nspin:\n  JMP spin\n', b"", budget=1000)
    assert t.exit is ExitReason.BUDGET_EXHAUSTED


def test_crash_opcode_and_pc(corpus):
    program = corpus["nostr_bits"].program
    trace = execute(program, FuzzInput(bytes([0x42, 0x13, 0x37, 0x99])))
    assert trace.exit is ExitReason.CRASH
    assert program.instructions[trace.crash_pc].opcode == "CRASH"


def test_load_out_of_bounds_crashes():
    text = ('.rom s "a\\0"\n.ram 8\n.periph p\n'
            '  READ_REG r1, p\n  LOAD r2, r1\n  HALT\n')
    t = run(text, b"\x05")  # address 5 is neither ROM nor RAM
    assert t.exit is ExitReason.CRASH


def test_indexed_store_bounds():
    text = ('.rom s "a\\0"\n.ram 8\n.periph p\n'
            '  READ_REG r1, p\n  STORE ram+0, 7, r1\n  HALT\n')
    assert run(text, b"\x07").exit is ExitReason.HALT
    assert run(text, b"\x20").exit is ExitReason.CRASH


def test_cmp_and_branches():
    text = ('.rom s "a\\0"\n.ram 8\n.periph p\n'
            '  READ_REG r1, p\n  CMP r2, r1, 65\n  BZ r2, yes\n'
            '  STORE ram+0, 0\n  HALT\n'
            'yes:\n  STORE ram+0, 1\n  HALT\n')
    program = parse_scenario(text)
    t_yes = execute(program, FuzzInput(b"A"))
    t_no = execute(program, FuzzInput(b"B"))
    assert t_yes.blocks != t_no.blocks


def escaped(data):
    """data as the body of a .rom string."""
    return "".join(f"\\x{b:02x}" for b in data)


def returns_zero(builtin, rom, ram_bytes, n):
    """Whether builtin(ROM string rom, RAM holding ram_bytes) with r2 = n
    returns 0; the execution must take under a second.

    r2 is set through OR, since LOADI takes only pointer-sized values.
    """
    stores = "\n".join(f"  STORE ram+{i}, {b}"
                       for i, b in enumerate(ram_bytes))
    # r0 is not directly visible in the trace; infer it via the branch.
    text = (f'.rom s "{escaped(rom)}"\n.ram 256\n{stores}\n'
            f'  LOADI r2, 0\n  OR r2, r2, {n}\n'
            f'  CALL {builtin}, s, ram\n  BZ r0, hit\n  HALT\n'
            'hit:\n  STORE ram+255, 1\n  HALT\n')
    program = parse_scenario(text)
    t0 = time.perf_counter()
    t = execute(program, FuzzInput(b""))
    assert time.perf_counter() - t0 < 1.0
    assert t.exit is ExitReason.HALT
    return len(program.block_starts) - 1 in t.blocks


@pytest.mark.parametrize("builtin,ram_bytes,n,expect_zero", [
    ("STRNCMP", b"ab", 2, True),
    ("STRNCMP", b"ax", 2, False),
    ("STRNCMP", b"ax", 1, True),
    ("MEMCMP", b"ab\x00", 3, True),
    ("MEMCMP", b"ab\x01", 3, False),
    ("MEMCMP", b"ax", -1, True),
])
def test_bounded_builtins(builtin, ram_bytes, n, expect_zero):
    assert returns_zero(builtin, b"ab\0", ram_bytes, n) == expect_zero


_LONG = b"a" * MAX_STRLEN


@pytest.mark.parametrize("builtin,rom,ram_bytes,expect_zero", [
    ("MEMCMP", _LONG + b"b", _LONG + b"c", True),
    ("MEMCMP", _LONG[1:] + b"b", _LONG, False),
    ("STRNCMP", _LONG + b"b", _LONG + b"c", True),
], ids=["memcmp-differ-past-clamp", "memcmp-differ-at-last-byte",
        "strncmp-differ-past-clamp"])
def test_builtins_read_max_strlen_bytes(builtin, rom, ram_bytes,
                                        expect_zero):
    """With r2 far past both segments, each pointer is read for exactly
    MAX_STRLEN bytes: spans that differ only past them are equal."""
    assert returns_zero(builtin, rom, ram_bytes, 0x7FFFFFFF) == expect_zero


def test_strstr_found_and_missing(corpus):
    program = corpus["suffix_ok"].program
    hit = execute(program, FuzzInput(b"OK"))
    miss = execute(program, FuzzInput(b"no"))
    assert hit.blocks != miss.blocks
    assert hit.comparisons[0].observed_str == b"xxOK"


def test_execute_is_pure(corpus):
    program = corpus["modem_ok"].program
    data = FuzzInput(bytes(range(64)))
    a = execute(program, data)
    b = execute(program, data)
    assert a.edges == b.edges
    assert a.blocks == b.blocks
    assert a.comparisons == b.comparisons
    assert a.exit == b.exit and a.steps == b.steps


@settings(max_examples=50, deadline=None)
@given(st.binary(max_size=128))
def test_execute_deterministic_property(data):
    from scatterfuzz import load_scenario
    program = load_scenario("console").program
    a = execute(program, FuzzInput(data))
    b = execute(program, FuzzInput(data))
    assert (a.edges, a.blocks, a.exit, a.final_cursor) == \
           (b.edges, b.blocks, b.exit, b.final_cursor)


# Block 0 is instructions 0-3 and block 1 is instructions 4-7 (its LABEL
# counts as a step); r2, the data byte, indexes an 8-byte RAM.
_TWO_BLOCKS = ('.rom s "a\\0"\n.ram 8\n.periph status\n.periph data\n'
               '  READ_REG r1, status\n  READ_REG r2, data\n'
               '  LOAD r3, ram+0, r2\n  JMP next\n'
               'next:\n  READ_REG r4, status\n  READ_REG r5, data\n  HALT\n')


@pytest.mark.parametrize("data,budget,exit_reason,expected", [
    # Runs to HALT: every read of both blocks.
    (b"\0\1\2\3", 1000, ExitReason.HALT,
     [(0, "status"), (1, "data"), (2, "status"), (3, "data")]),
    # Block 0 crashes in its LOAD (index 9) after both its reads.
    (b"\0\x09\2\3", 1000, ExitReason.CRASH, [(0, "status"), (1, "data")]),
    # Block 1's second read finds no input left.
    (b"\0\1\2", 1000, ExitReason.INPUT_EXHAUSTED,
     [(0, "status"), (1, "data"), (2, "status")]),
    # The budget stops the run before block 1 starts.
    (b"\0\1\2\3", 4, ExitReason.BUDGET_EXHAUSTED,
     [(0, "status"), (1, "data")]),
])
def test_read_log_at_each_exit(data, budget, exit_reason, expected):
    """However a run ends, the cursor stops after exactly the reads that
    ran, listed by hand as (cursor, peripheral) in ``expected``; a crash
    names the crashing instruction."""
    t = run(_TWO_BLOCKS, data, budget=budget)
    assert t.exit is exit_reason
    assert t.final_cursor == len(expected)
    assert t.crash_pc == (2 if exit_reason is ExitReason.CRASH else None)


def test_edge_ids_direction_sensitive():
    assert block_edge_id(1, 2) != block_edge_id(2, 1)


def test_edge_id_collisions_low_on_console(corpus):
    """Static CFG edges of the densest scenario map to mostly unique bits."""
    program = corpus["console"].program
    comp = compile_program(program)
    ids = list(comp.edge_ids.values())
    collisions = len(ids) - len(set(ids))
    assert collisions / len(ids) <= 0.01


def test_steps_accounting():
    t = run('.rom s "a\\0"\n.ram 8\n  LOADI r1, 1\n  LOADI r2, 2\n  HALT\n',
            b"")
    assert t.steps == 3


class CallCase(NamedTuple):
    builtin: str
    key: bytes          # first ROM string, then other
    other: bytes
    ram_size: int
    fill: bytes         # RAM bytes from offset 0, the rest stays zero
    a0: str             # operand tokens: ROM symbol or address, ram+k, int
    a1: str
    n: int              # r2, the bound STRNCMP and MEMCMP read
    j: int              # RAM offset each input byte is stored to
    j2: int | None      # RAM offset r0's low byte is stored to, if any
    data: bytes


def call_program(case, registers):
    """A loop over one CALL site, with immediate or register pointers.

    Each round stores an input byte into RAM and runs the CALL; a zero
    r0 consumes one more input byte, so every hit's branch shows in the
    later records' read cursors and in the final cursor.  The pointers
    are loaded into r4/r5 in both versions, so instruction indices and
    step counts agree.
    """
    a0, a1 = ("r4", "r5") if registers else (case.a0, case.a1)

    lines = [f'.rom key "{escaped(case.key)}"',
             f'.rom other "{escaped(case.other)}"',
             f".ram {case.ram_size}", ".periph p", f"  LOADI r2, {case.n}"]
    lines += [f"  STORE ram+{i}, {b}" for i, b in enumerate(case.fill)]
    lines += ["top:", "  READ_REG r1, p", f"  STORE ram+{case.j}, r1",
              f"  LOADI r4, {case.a0}", f"  LOADI r5, {case.a1}",
              f"  CALL {case.builtin}, {a0}, {a1}"]
    if case.j2 is not None:
        lines.append(f"  STORE ram+{case.j2}, r0")
    lines += ["  BNZ r0, top", "  READ_REG r6, p", "  JMP top"]
    return parse_scenario("\n".join(lines) + "\n")


# Small alphabets make equal strings, found needles and NULs common.
_ROM_STRINGS = st.one_of(
    st.lists(st.sampled_from(b"ab"), max_size=5).map(bytes),
    st.builds(lambda c, n: bytes([c]) * n, st.sampled_from(b"ab"),
              st.sampled_from([127, 128, 129, 255, 256, 257, 300])))
_OPERAND_KINDS = [("rom", "ram"), ("ram", "rom"), ("rom", "rom"),
                  ("ram", "ram"), ("int", "ram"), ("rom", "int")]


@st.composite
def call_cases(draw):
    key = draw(_ROM_STRINGS) + draw(st.sampled_from([b"", b"\0"]))
    other = draw(_ROM_STRINGS.filter(bool)) + draw(
        st.sampled_from([b"", b"\0"]))
    rom_len = len(key) + len(other)
    ram_size = draw(st.sampled_from([1, 8, 130, 260, 300])
                    | st.integers(1, 64))
    ram_off = st.sampled_from([0, ram_size - 1]) | st.integers(
        0, ram_size - 1)
    # NUL-free RAM runs up to the whole segment, some bytes poked after.
    fill = bytearray(bytes([draw(st.sampled_from(b"ab"))])
                     * draw(st.sampled_from([0, ram_size])
                            | st.integers(0, ram_size)))
    for off, byte in draw(st.lists(st.tuples(ram_off, st.sampled_from(
            b"\0ab")), max_size=3)):
        fill.extend(bytes(max(0, off + 1 - len(fill))))
        fill[off] = byte
    tokens = {
        "rom": st.sampled_from(["key", "other"]) | st.integers(
            0, rom_len - 1).map(lambda o: hex(ROM_BASE + o)),
        "ram": ram_off.map(lambda k: f"ram+{k}"),
        "int": st.sampled_from(["0", "7"]),
    }
    k0, k1 = draw(st.sampled_from(_OPERAND_KINDS))
    n_in = draw(st.integers(0, 48))
    return CallCase(
        builtin=draw(st.sampled_from(sorted(BUILTINS))), key=key,
        other=other, ram_size=ram_size, fill=bytes(fill),
        a0=draw(tokens[k0]), a1=draw(tokens[k1]),
        n=draw(st.sampled_from([0, 1, 3, 129, 300]) | st.integers(0, 10)),
        j=draw(ram_off), j2=draw(st.none() | ram_off),
        data=bytes(draw(st.lists(st.sampled_from(b"\0ab"), min_size=n_in,
                                 max_size=n_in))))


@settings(max_examples=300, deadline=None)
@example(CallCase("STRCMP", b"a" * 300, b"\0", 300, b"a" * 300, "ram+0",
                  "key", 0, 127, None, b"abb" * 20))
@example(CallCase("STRCMP", b"a" * 300, b"\0", 300, b"a" * 300, "ram+0",
                  "key", 0, 255, None, b"abb" * 20))
@given(call_cases())
def test_immediate_sites_match_register_calls(case):
    """Compile-time specialized CALL sites behave like the generic call.

    In the examples both strings are 300 NUL-free bytes, of which STRCMP
    reads the first MAX_STRLEN (128), the bytes the records keep; they
    are equal exactly when the loop writes an "a" at offset 127, and
    always when it writes at offset 255.  The first example's loop
    passes MAX_HITS_PER_SITE.  A STRCMP record is satisfied exactly when
    its two strings are equal.
    """
    imm = execute(call_program(case, registers=False), FuzzInput(case.data))
    reg = execute(call_program(case, registers=True), FuzzInput(case.data))
    assert imm.comparisons == reg.comparisons
    if case.builtin == "STRCMP":
        for rec in imm.comparisons:
            assert rec.satisfied == (rec.observed_str == rec.ideal_str)
    assert (imm.cmp_overflow, imm.exit, imm.final_cursor, imm.steps,
            imm.edges) == \
           (reg.cmp_overflow, reg.exit, reg.final_cursor, reg.steps,
            reg.edges)
