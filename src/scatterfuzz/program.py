"""Target program model: instructions, memory layout, validation, blocks.

The virtual target is a tiny register machine.  ROM holds the constant
strings scenarios compare against, RAM is the only writable segment, and
every READ_REG consumes exactly one byte of the fuzz input stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import MalformedProgram

ROM_BASE = 0x1000
RAM_BASE = 0x8000
NUM_REGS = 8
MAX_STRLEN = 128
MAP_SIZE = 1 << 16
DEFAULT_INSTR_BUDGET = 1_000_000

# What an operand of each kind may be.
OPERAND_KINDS = {
    "r": "a register",
    "v": "a register or an immediate",
    "a": "a pointer (a register, or an immediate below ROM_BASE "
         "or in ROM/RAM)",
    "m": "a ROM/RAM address (a register, or an immediate in ROM/RAM)",
    "w": "a RAM address (an immediate in RAM)",  # so ROM stays immutable
    "p": "a declared peripheral",
    "l": "a defined label",
    "b": "a builtin",
    "n": "a label name",
}
# Each opcode's operand kinds, in order; kinds after "|" are optional.
SIGNATURES = {
    "READ_REG": "rp", "LOADI": "ra", "MOV": "rr",
    "AND": "rrv", "OR": "rrv", "CMP": "rrv",
    "BZ": "rl", "BNZ": "rl", "JMP": "l",
    "LOAD": "rm|r", "STORE": "wv|r", "CALL": "baa",
    "CRASH": "", "HALT": "", "LABEL": "n",
}
OPCODES = frozenset(SIGNATURES)
BRANCH_OPS = frozenset({"BZ", "BNZ", "JMP"})
TERMINAL_OPS = frozenset({"HALT", "CRASH", "JMP"})
BUILTINS = frozenset({"STRCMP", "STRNCMP", "STRSTR", "MEMCMP", "PRINT"})

# Operands after parsing are tagged pairs: ("reg", n), ("imm", value),
# ("label", name), ("periph", name), ("builtin", name).  ROM symbols and
# ram+N forms are resolved to ("imm", address) by the assembler.


def operand_kinds(opcode, count):
    """Kinds of count operands of opcode; None if it cannot take count."""
    required, _, optional = SIGNATURES[opcode].partition("|")
    if len(required) <= count <= len(required) + len(optional):
        return (required + optional)[:count]
    return None


@dataclass(frozen=True)
class Instruction:
    opcode: str
    operands: tuple = ()

    def __post_init__(self):
        if self.opcode not in OPCODES:
            raise MalformedProgram(f"unknown opcode {self.opcode!r}")


@dataclass(frozen=True)
class FuzzInput:
    bytes: bytes


@dataclass
class TargetProgram:
    instructions: list[Instruction]
    rom: bytes
    ram_size: int
    periphs: tuple[str, ...]
    name: str = ""
    # filled in by validate() and, on first execution, by the VM
    blocks: dict[str, int] = field(init=False, repr=False, compare=False)
    block_starts: list[int] = field(init=False, repr=False, compare=False)
    _compiled: object = field(default=None, init=False, repr=False,
                              compare=False)

    def __post_init__(self):
        self.validate()

    # -- address helpers -------------------------------------------------

    def in_rom(self, addr):
        return ROM_BASE <= addr < ROM_BASE + len(self.rom)

    def in_ram(self, addr):
        return RAM_BASE <= addr < RAM_BASE + self.ram_size

    # -- validation ------------------------------------------------------

    def validate(self):
        if not self.rom:
            raise MalformedProgram("ROM segment is empty")
        if self.ram_size <= 0:
            raise MalformedProgram("RAM segment is empty")
        if len(self.rom) > RAM_BASE - ROM_BASE:
            raise MalformedProgram("ROM segment overlaps RAM")
        if self.ram_size > 65536:
            raise MalformedProgram("segment too large")
        if not self.instructions:
            raise MalformedProgram("no instructions")

        labels = {}
        for idx, ins in enumerate(self.instructions):
            if ins.opcode == "LABEL":
                self._check_instruction(idx, ins, labels)
                name = ins.operands[0][1]
                if name in labels:
                    raise MalformedProgram(f"duplicate label {name!r}")
                labels[name] = idx
        self.blocks = labels

        for idx, ins in enumerate(self.instructions):
            self._check_instruction(idx, ins, labels)

        last = self.instructions[-1]
        if last.opcode not in TERMINAL_OPS:
            raise MalformedProgram("program may fall off the end; "
                                   "last instruction must be HALT/CRASH/JMP")
        self._compute_blocks()

    def _check_instruction(self, idx, ins, labels):
        kinds = operand_kinds(ins.opcode, len(ins.operands))
        if kinds is None:
            raise MalformedProgram(f"instr {idx}: {ins.opcode} cannot take "
                                   f"{len(ins.operands)} operands")
        for pos, (kind, operand) in enumerate(zip(kinds, ins.operands)):
            if not self._operand_fits(kind, operand, labels):
                raise MalformedProgram(
                    f"instr {idx}: {ins.opcode} operand {pos + 1} {operand!r} "
                    f"is not {OPERAND_KINDS[kind]}")

    def _operand_fits(self, kind, operand, labels):
        """Whether operand is valid where SIGNATURES has kind."""
        tag, value = operand
        if tag == "reg":
            return kind in "rvam" and 0 <= value < NUM_REGS
        if tag == "imm":
            if kind == "v" or (kind == "a" and value < ROM_BASE):
                return True
            if kind == "w":
                return self.in_ram(value)
            return kind in "am" and (self.in_rom(value) or self.in_ram(value))
        if tag == "periph":
            return kind == "p" and value in self.periphs
        if tag == "label":
            return kind == "n" or (kind == "l" and value in labels)
        return tag == "builtin" and kind == "b" and value in BUILTINS

    # -- basic blocks ----------------------------------------------------

    def _compute_blocks(self):
        starts = {0}
        for idx, ins in enumerate(self.instructions):
            if ins.opcode == "LABEL":
                starts.add(idx)
            if ins.opcode in BRANCH_OPS and idx + 1 < len(self.instructions):
                starts.add(idx + 1)
        self.block_starts = sorted(starts)


def block_edge_id(prev_block: int, cur_block: int) -> int:
    """Hash a directed block transition into a MAP_SIZE bitmap index.

    Stable across runs and platforms; direction sensitive.
    """
    h = (prev_block * 0x9E3779B1 + 0x85EBCA77) & 0xFFFFFFFF
    h ^= (cur_block * 0xC2B2AE3D + 0x27D4EB2F) & 0xFFFFFFFF
    h = ((h ^ (h >> 15)) * 0x2C1B3C6D) & 0xFFFFFFFF
    h ^= h >> 12
    return h & (MAP_SIZE - 1)
