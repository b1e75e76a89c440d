"""Scenario assembly text format.

One instruction per line.  Directives: ``.rom <name> "<escaped bytes>"``,
``.ram <size>``, ``.periph <name>``.  Labels are ``name:`` on their own
line, comments start with ``;``.  ROM strings use C-style escapes and a
trailing explicit ``\\0`` when NUL termination is intended.  Each
mnemonic's operands are listed by kind in ``program.SIGNATURES``.  Parse
errors name the offending line, except ``UnknownLabel``, which names the
missing label.
"""

from __future__ import annotations

import re

from .errors import DuplicateLabel, ParseError, UnknownLabel
from .program import (BUILTINS, NUM_REGS, RAM_BASE, ROM_BASE, SIGNATURES,
                      Instruction, TargetProgram, operand_kinds)

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")

# Operand kinds written as bare names, and the tag each one parses to.
_NAME_TAGS = {"p": "periph", "l": "label", "b": "builtin"}

_ESCAPES = {"0": 0, "n": 0x0A, "r": 0x0D, "t": 0x09, "\\": 0x5C, '"': 0x22}


def _decode_rom_string(text, line_no):
    out = bytearray()
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\\":
            if i + 1 >= len(text):
                raise ParseError("dangling escape", line_no, i)
            e = text[i + 1]
            if e in _ESCAPES:
                out.append(_ESCAPES[e])
                i += 2
            elif e == "x":
                if i + 3 >= len(text):
                    raise ParseError("truncated \\x escape", line_no, i)
                try:
                    out.append(int(text[i + 2:i + 4], 16))
                except ValueError:
                    raise ParseError("bad \\x escape", line_no, i) from None
                i += 4
            else:
                raise ParseError(f"unknown escape \\{e}", line_no, i)
        else:
            out.append(ord(c))
            i += 1
    return bytes(out)


def _parse_int(tok, line_no, col):
    try:
        return int(tok, 0)
    except ValueError:
        raise ParseError(f"bad number {tok!r}", line_no, col) from None


def _strip_comment(line):
    in_str = False
    for i, c in enumerate(line):
        if c == '"' and (i == 0 or line[i - 1] != "\\"):
            in_str = not in_str
        elif c == ";" and not in_str:
            return line[:i]
    return line


def parse_scenario(text: str, name: str = "") -> TargetProgram:
    """Parse scenario assembly source into a validated TargetProgram."""
    rom = bytearray()
    rom_symbols: dict[str, int] = {}
    ram_size = None
    periphs: list[str] = []
    instructions: list[Instruction] = []
    label_lines: dict[str, int] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue

        if line.startswith("."):
            _parse_directive(line, line_no, rom, rom_symbols, periphs)
            if line.split()[0] == ".ram":
                size = _parse_int(line.split()[1], line_no, 0)
                if ram_size is not None:
                    raise ParseError("duplicate .ram directive", line_no, 0)
                ram_size = size
            continue

        if line.endswith(":"):
            label = line[:-1].strip()
            if not _IDENT.match(label):
                raise ParseError(f"bad label {label!r}", line_no, 0)
            if label in label_lines:
                raise DuplicateLabel(f"duplicate label {label!r}", line_no, 0)
            label_lines[label] = line_no
            instructions.append(Instruction("LABEL", (("label", label),)))
            continue

        instructions.append(
            _parse_instruction(line, line_no, rom_symbols))

    if ram_size is None:
        ram_size = 256

    # Late resolution: branch targets must exist.
    for ins in instructions:
        for tag, value in ins.operands:
            if tag == "label" and value not in label_lines:
                raise UnknownLabel(f"branch to undefined label {value!r}")

    program = TargetProgram(
        instructions=instructions,
        rom=bytes(rom),
        ram_size=ram_size,
        periphs=tuple(periphs),
        name=name,
    )
    return program


def _parse_directive(line, line_no, rom, rom_symbols, periphs):
    parts = line.split(None, 2)
    head = parts[0]
    if head == ".rom":
        if len(parts) != 3:
            raise ParseError(".rom needs a name and a string", line_no, 0)
        sym = parts[1]
        if not _IDENT.match(sym):
            raise ParseError(f"bad ROM symbol {sym!r}", line_no, 0)
        if sym in rom_symbols:
            raise ParseError(f"duplicate ROM symbol {sym!r}", line_no, 0)
        body = parts[2].strip()
        if len(body) < 2 or body[0] != '"' or body[-1] != '"':
            raise ParseError(".rom string must be double-quoted", line_no, 0)
        data = _decode_rom_string(body[1:-1], line_no)
        rom_symbols[sym] = ROM_BASE + len(rom)
        rom.extend(data)
    elif head == ".ram":
        if len(parts) != 2:
            raise ParseError(".ram needs a size", line_no, 0)
        # size handled by caller so it can detect duplicates
    elif head == ".periph":
        if len(parts) != 2 or not _IDENT.match(parts[1]):
            raise ParseError(".periph needs a name", line_no, 0)
        if parts[1] in periphs:
            raise ParseError(f"duplicate peripheral {parts[1]!r}", line_no, 0)
        periphs.append(parts[1])
    else:
        raise ParseError(f"unknown directive {head}", line_no, 0)


def _parse_operand(tok, line_no, rom_symbols):
    tok = tok.strip()
    if re.match(r"r[0-9]+$", tok):
        n = int(tok[1:])
        if n >= NUM_REGS:
            raise ParseError(f"no such register {tok}", line_no, 0)
        return ("reg", n)
    if tok == "ram" or tok.startswith("ram+"):
        off = 0 if tok == "ram" else _parse_int(tok[4:], line_no, 0)
        return ("imm", RAM_BASE + off)
    if re.match(r"-?(0x[0-9a-fA-F]+|[0-9]+)$", tok):
        return ("imm", _parse_int(tok, line_no, 0))
    if tok in rom_symbols:
        return ("imm", rom_symbols[tok])
    raise ParseError(f"cannot resolve operand {tok!r}", line_no, 0)


def _parse_instruction(line, line_no, rom_symbols):
    m = re.match(r"([A-Z_]+)\s*(.*)$", line)
    if not m:
        raise ParseError(f"unparseable line {line!r}", line_no, 0)
    op = m.group(1)
    if op not in SIGNATURES or op == "LABEL":
        raise ParseError(f"unknown instruction {op!r}", line_no, 0)
    rest = m.group(2).strip()
    toks = [t.strip() for t in rest.split(",")] if rest else []
    kinds = operand_kinds(op, len(toks))
    if kinds is None:
        raise ParseError(f"{op} cannot take {len(toks)} operands", line_no, 0)
    operands = []
    for kind, tok in zip(kinds, toks):
        if kind == "b" and tok not in BUILTINS:
            raise ParseError(f"unknown builtin {tok!r}", line_no, 0)
        if kind in _NAME_TAGS:
            operands.append((_NAME_TAGS[kind], tok))
        else:
            operands.append(_parse_operand(tok, line_no, rom_symbols))
    return Instruction(op, tuple(operands))
