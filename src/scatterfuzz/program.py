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

OPCODES = frozenset({
    "READ_REG", "LOADI", "MOV", "AND", "OR", "CMP", "BZ", "BNZ", "JMP",
    "LOAD", "STORE", "CALL", "CRASH", "HALT", "LABEL",
})
BRANCH_OPS = frozenset({"BZ", "BNZ", "JMP"})
TERMINAL_OPS = frozenset({"HALT", "CRASH", "JMP"})
BUILTINS = frozenset({"STRCMP", "STRNCMP", "STRSTR", "MEMCMP", "PRINT"})

# Operand kinds after parsing: ("reg", n), ("imm", value), ("label", name),
# ("periph", name), ("builtin", name).  ROM symbols and ram+N forms are
# resolved to ("imm", address) by the assembler.


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
        if len(self.rom) > 65536 or self.ram_size > 65536:
            raise MalformedProgram("segment too large")
        if not self.instructions:
            raise MalformedProgram("no instructions")

        labels = {}
        for idx, ins in enumerate(self.instructions):
            if ins.opcode == "LABEL":
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
        op = ins.opcode
        ops = ins.operands

        def want(n):
            if len(ops) != n:
                raise MalformedProgram(
                    f"instr {idx}: {op} expects {n} operands, got {len(ops)}")

        def reg(o):
            kind, val = o
            if kind != "reg" or not 0 <= val < NUM_REGS:
                raise MalformedProgram(f"instr {idx}: {op} needs a register")
            return val

        def reg_or_imm(o):
            if o[0] not in ("reg", "imm"):
                raise MalformedProgram(f"instr {idx}: bad operand for {op}")

        def pointer_imm(o):
            # Static addresses must land in ROM or RAM.
            if o[0] == "imm" and o[1] >= ROM_BASE:
                if not (self.in_rom(o[1]) or self.in_ram(o[1])):
                    raise MalformedProgram(
                        f"instr {idx}: address {o[1]:#x} outside ROM/RAM")

        if op == "READ_REG":
            want(2)
            reg(ops[0])
            if ops[1][0] != "periph" or ops[1][1] not in self.periphs:
                raise MalformedProgram(
                    f"instr {idx}: READ_REG needs a declared peripheral")
        elif op == "LOADI":
            want(2)
            reg(ops[0])
            reg_or_imm(ops[1])
            pointer_imm(ops[1])
        elif op == "MOV":
            want(2)
            reg(ops[0])
            reg(ops[1])
        elif op in ("AND", "OR", "CMP"):
            want(3)
            reg(ops[0])
            reg(ops[1])
            reg_or_imm(ops[2])
        elif op in ("BZ", "BNZ"):
            want(2)
            reg(ops[0])
            if ops[1][0] != "label" or ops[1][1] not in labels:
                raise MalformedProgram(
                    f"instr {idx}: branch to unknown label {ops[1][1]!r}")
        elif op == "JMP":
            want(1)
            if ops[0][0] != "label" or ops[0][1] not in labels:
                raise MalformedProgram(
                    f"instr {idx}: branch to unknown label {ops[0][1]!r}")
        elif op == "LOAD":
            if len(ops) not in (2, 3):
                raise MalformedProgram(f"instr {idx}: LOAD takes 2-3 operands")
            reg(ops[0])
            reg_or_imm(ops[1])
            if ops[1][0] == "imm" and not (self.in_rom(ops[1][1])
                                           or self.in_ram(ops[1][1])):
                raise MalformedProgram(
                    f"instr {idx}: LOAD address outside ROM/RAM")
            if len(ops) == 3:
                reg(ops[2])
        elif op == "STORE":
            if len(ops) not in (2, 3):
                raise MalformedProgram(f"instr {idx}: STORE takes 2-3 operands")
            # ROM immutability is enforced here: the destination must be a
            # static RAM address, never a ROM address or a bare register.
            if ops[0][0] != "imm" or not self.in_ram(ops[0][1]):
                raise MalformedProgram(
                    f"instr {idx}: STORE destination must be a RAM address")
            reg_or_imm(ops[1])
            if len(ops) == 3:
                reg(ops[2])
        elif op == "CALL":
            want(3)
            if ops[0][0] != "builtin" or ops[0][1] not in BUILTINS:
                raise MalformedProgram(f"instr {idx}: unknown builtin")
            for o in ops[1:]:
                reg_or_imm(o)
                pointer_imm(o)
        elif op in ("CRASH", "HALT"):
            want(0)
        elif op == "LABEL":
            want(1)

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
