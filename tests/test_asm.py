"""Assembly format: parsing, symbol resolution, validation errors."""

from pathlib import Path

import pytest

from scatterfuzz import FuzzInput, execute
from scatterfuzz.asm import parse_scenario
from scatterfuzz.errors import (DuplicateLabel, MalformedProgram, ParseError,
                                UnknownLabel)
from scatterfuzz.program import (RAM_BASE, ROM_BASE, SIGNATURES, Instruction,
                                 TargetProgram)

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
    # A string ending in an escaped backslash still closes before a comment.
    p = parse_scenario('.rom s "a\\\\" ; note\n  HALT\n')
    assert p.rom == b"a\\"


def test_ram_symbol_resolution():
    p = parse_scenario('.rom s "a\\0"\n.ram 16\n  STORE ram+5, 7\n  HALT\n')
    assert p.instructions[0].operands[0] == ("imm", RAM_BASE + 5)


def test_default_ram_size():
    p = parse_scenario('.rom s "a\\0"\n  HALT\n')
    assert p.ram_size == 256


def test_unknown_label_raises():
    with pytest.raises(UnknownLabel) as info:
        parse_scenario('.rom s "a\\0"\n.ram 8\n  JMP nowhere\n'
                       '  BZ r1, nowhere\n')
    assert info.value.line == 3


def test_validator_error_names_source_line():
    """Not the instruction index, which counts labels and skips blanks."""
    text = '.rom s "a\\0"\n.ram 8\nx:\n\n  STORE r1, 5\n  HALT\n'
    with pytest.raises(MalformedProgram) as info:
        parse_scenario(text)
    assert info.value.line == 5
    assert str(info.value).startswith("line 5: STORE operand 1")


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


@pytest.mark.parametrize("rom_len, ok", [(RAM_BASE - ROM_BASE, True),
                                         (RAM_BASE - ROM_BASE + 1, False)])
def test_rom_must_end_below_ram(rom_len, ok):
    """A longer ROM would shadow RAM: LOAD ram+0 would read a ROM byte."""
    text = (f'.rom s "{"A" * rom_len}"\n.ram 8\n'
            "  STORE ram+0, 7\n  LOAD r1, ram+0\n  CMP r2, r1, 7\n"
            "  BNZ r2, bad\n  HALT\nbad:\n  CRASH\n")
    if not ok:
        with pytest.raises(MalformedProgram):
            parse_scenario(text)
        return
    trace = execute(parse_scenario(text), FuzzInput(b""))
    assert trace.exit.value == "halt"


def test_fallthrough_end_rejected():
    with pytest.raises(MalformedProgram):
        parse_scenario('.rom s "a\\0"\n.ram 8\n  LOADI r1, 0\n')


def test_bad_register():
    with pytest.raises(ParseError):
        parse_scenario('.rom s "a\\0"\n.ram 8\n  LOADI r9, 0\n  HALT\n')


@pytest.mark.parametrize("line", [
    "LABEL",
    "LABEL r1",
    "READ_REG r1, port, junk",
    "CALL STRCMP, s, ram, r1",
    "JMP a, b",
    "BZ r1, a, b",
])
def test_malformed_instruction_line_rejected(line):
    text = f'.rom s "a\\0"\n.ram 8\n.periph port\na:\nb:\n  {line}\n  HALT\n'
    with pytest.raises(ParseError) as info:
        parse_scenario(text)
    assert info.value.line == 6


def build(*instructions):
    """A program with ROM "a\\0", 8 bytes of RAM, peripheral port, label x."""
    return TargetProgram(
        instructions=[Instruction("LABEL", (("label", "x"),)), *instructions,
                      Instruction("HALT")],
        rom=b"a\0", ram_size=8, periphs=("port",))


@pytest.mark.parametrize("instruction", [
    Instruction("LOADI", (("reg", 0), ("reg", 9))),
    Instruction("LOADI", (("reg", 0), ("reg", -1))),
    Instruction("LABEL", ()),
    Instruction("LOADI", (("reg",), ("imm", 0))),
    Instruction("LOADI", (5, ("imm", 0))),
    Instruction("LOADI", (("reg", "x"), ("imm", 0))),
])
def test_validator_rejects_bad_register_and_bare_label(instruction):
    with pytest.raises(MalformedProgram):
        build(instruction)


# kind, opcode, operands with None at the probed one, accepted, rejected
KIND_CASES = [
    ("r", "MOV", (("reg", 0), None), ("reg", 7), ("reg", 8)),
    ("v", "CMP", (("reg", 0), ("reg", 1), None), ("imm", 0x7500),
     ("reg", -1)),
    ("a", "LOADI", (("reg", 0), None), ("imm", 5), ("imm", 0x7500)),
    ("m", "LOAD", (("reg", 0), None), ("imm", ROM_BASE), ("imm", 5)),
    ("w", "STORE", (None, ("imm", 1)), ("imm", RAM_BASE + 7),
     ("imm", ROM_BASE)),
    ("p", "READ_REG", (("reg", 0), None), ("periph", "port"),
     ("periph", "ghost")),
    ("l", "JMP", (None,), ("label", "x"), ("label", "y")),
    ("b", "CALL", (None, ("imm", ROM_BASE), ("imm", RAM_BASE)),
     ("builtin", "MEMCMP"), ("builtin", "MEMCPY")),
    ("n", "LABEL", (None,), ("label", "y"), ("imm", 0)),
]


@pytest.mark.parametrize("kind, opcode, operands, good, bad", KIND_CASES,
                         ids=[case[0] for case in KIND_CASES])
def test_operand_kind(kind, opcode, operands, good, bad):
    assert SIGNATURES[opcode].replace("|", "")[operands.index(None)] == kind

    def probe(operand):
        return Instruction(opcode, tuple(operand if o is None else o
                                         for o in operands))

    build(probe(good))
    with pytest.raises(MalformedProgram):
        build(probe(bad))


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
