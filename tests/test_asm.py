"""Assembly format: parsing, symbol resolution, validation errors."""

from pathlib import Path

import pytest

from scatterfuzz import FuzzInput, execute
from scatterfuzz.asm import parse_scenario
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
    ops = [i.opcode for i in p.instructions]
    assert ops == ["LABEL", "READ_REG", "STORE", "CALL", "BZ", "HALT",
                   "LABEL", "HALT"]
    assert p.instructions[3].operands[1] == ("imm", ROM_BASE)


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


def test_equality_survives_execution(corpus):
    text = Path(corpus["modem_ok"].source_path).read_text()
    p = parse_scenario(text, name="modem_ok")
    q = parse_scenario(text, name="modem_ok")
    assert p == q
    execute(p, FuzzInput(b"AT"))
    assert p == q
