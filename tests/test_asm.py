"""Assembly format: parsing, validation errors, serialization round trip."""

import pytest

from scatterfuzz import FuzzInput, execute
from scatterfuzz.asm import parse_scenario, serialize
from scatterfuzz.errors import (DuplicateLabel, MalformedProgram, ParseError,
                                UnknownLabel)
from scatterfuzz.program import RAM_BASE, ROM_BASE

MINIMAL = """
.rom greet "hi\\0"
.ram 32
.periph port

start:
  READ_REG r1, port
  STORE ram+0, r1
  CALL STRCMP, greet, ram
  BZ r0, done
  HALT
done:
  HALT
"""


def test_parse_minimal():
    p = parse_scenario(MINIMAL, name="minimal")
    assert p.rom == b"hi\x00"
    assert p.ram_size == 32
    assert p.periphs == ("port",)
    assert p.rom_symbols == {"greet": ROM_BASE}
    ops = [i.opcode for i in p.instructions]
    assert ops == ["LABEL", "READ_REG", "STORE", "CALL", "BZ", "HALT",
                   "LABEL", "HALT"]


def test_escapes():
    p = parse_scenario('.rom s "a\\n\\r\\t\\\\\\"\\x41\\0"\n.ram 8\n  HALT\n')
    assert p.rom == b'a\n\r\t\\"A\x00'


def test_comments_and_blank_lines():
    text = ('.rom s "x;y\\0"  ; trailing comment\n'
            '.ram 8\n'
            '\n'
            '; full-line comment\n'
            '  HALT\n')
    p = parse_scenario(text)
    assert p.rom == b"x;y\x00"
    assert len(p.instructions) == 1


def test_ram_symbol_resolution():
    p = parse_scenario('.rom s "a\\0"\n.ram 16\n  STORE ram+5, 7\n  HALT\n')
    assert p.instructions[0].operands[0] == ("imm", RAM_BASE + 5)


def test_default_ram_size():
    p = parse_scenario('.rom s "a\\0"\n  HALT\n')
    assert p.ram_size == 256


def test_unknown_label_raises():
    with pytest.raises(UnknownLabel):
        parse_scenario('.rom s "a\\0"\n.ram 8\n  JMP nowhere\n')


def test_duplicate_label_raises():
    with pytest.raises(DuplicateLabel):
        parse_scenario('.rom s "a\\0"\n.ram 8\na:\na:\n  HALT\n')


def test_duplicate_rom_symbol_raises():
    with pytest.raises(ParseError):
        parse_scenario('.rom s "a\\0"\n.rom s "b\\0"\n  HALT\n')


def test_undeclared_peripheral_rejected():
    with pytest.raises(MalformedProgram):
        parse_scenario('.rom s "a\\0"\n.ram 8\n  READ_REG r1, ghost\n  HALT\n')


def test_store_to_rom_rejected():
    with pytest.raises(MalformedProgram):
        parse_scenario('.rom s "a\\0"\n.ram 8\n  STORE s, 1\n  HALT\n')


def test_fallthrough_end_rejected():
    with pytest.raises(MalformedProgram):
        parse_scenario('.rom s "a\\0"\n.ram 8\n  LOADI r1, 0\n')


def test_bad_register():
    with pytest.raises(ParseError):
        parse_scenario('.rom s "a\\0"\n.ram 8\n  LOADI r9, 0\n  HALT\n')


def test_bad_escape():
    with pytest.raises(ParseError):
        parse_scenario('.rom s "\\q"\n  HALT\n')


def test_serialize_round_trip(corpus):
    for scenario in corpus.values():
        p = scenario.program
        text = serialize(p)
        q = parse_scenario(text, name=p.name)
        assert q.rom == p.rom
        assert q.ram_size == p.ram_size
        assert q.periphs == p.periphs
        assert q.instructions == p.instructions


def test_equality_survives_execution(corpus):
    text = serialize(corpus["modem_ok"].program)
    p = parse_scenario(text, name="modem_ok")
    q = parse_scenario(text, name="modem_ok")
    assert p == q
    execute(p, FuzzInput(b"AT"))
    assert p == q
