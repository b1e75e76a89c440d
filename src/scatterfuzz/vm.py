"""Deterministic virtual microcontroller executor.

Each basic block of a validated program is compiled once to a Python
function; execution is a trampoline over those functions.  Every
READ_REG consumes exactly one byte of the fuzz input stream, so
logically adjacent data bytes end up scattered across the input
whenever several peripherals are polled between data reads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .cmplog import (MAX_CMP_SITES, MAX_HITS_PER_SITE, ComparisonRecord,
                     snapshot)
from .coverage import strlen_bounded
from .program import (DEFAULT_INSTR_BUDGET, MAP_SIZE, RAM_BASE, ROM_BASE,
                      FuzzInput, TargetProgram, block_edge_id)


class ExitReason(enum.Enum):
    HALT = "halt"
    CRASH = "crash"
    INPUT_EXHAUSTED = "input_exhausted"
    BUDGET_EXHAUSTED = "budget_exhausted"


_EXIT_BY_CODE = {0: ExitReason.HALT, 1: ExitReason.CRASH,
                 2: ExitReason.INPUT_EXHAUSTED}


@dataclass
class ExecutionTrace:
    edges: set
    blocks: set
    comparisons: list
    read_log: list | None
    exit: ExitReason
    final_cursor: int
    steps: int
    crash_pc: int | None = None
    cmp_overflow: int = 0


class _State:
    __slots__ = ("r", "ram", "data", "n", "cursor", "exit", "crash_pc",
                 "rl", "comparisons", "hits", "overflow", "program",
                 "rom_lo", "rom_hi", "ram_lo", "ram_hi")

    def __init__(self, program, data, read_log):
        self.r = [0] * 8
        self.ram = bytearray(program.ram_size)
        self.data = data
        self.n = len(data)
        self.cursor = 0
        self.exit = 0
        self.crash_pc = None
        self.rl = [] if read_log else None
        self.comparisons = []
        self.hits = {}
        self.overflow = 0
        self.program = program
        self.rom_lo, self.rom_hi = program.rom_range()
        self.ram_lo, self.ram_hi = program.ram_range()

    # -- builtin call sites ----------------------------------------------

    def call(self, idx, builtin, a0, a1):
        # The one ROM/RAM call-site classifier, inlined: this path is the
        # hottest Python-level code in a campaign.  Records carry the
        # builtin's own verdict as the only definition of "satisfied".
        ret = self._builtin(builtin, a0, a1)
        prog = self.program
        a0_rom = self.rom_lo <= a0 < self.rom_hi
        a1_rom = self.rom_lo <= a1 < self.rom_hi
        if a0_rom and self.ram_lo <= a1 < self.ram_hi:
            ideal_addr, obs_addr = a0, a1
        elif a1_rom and self.ram_lo <= a0 < self.ram_hi:
            ideal_addr, obs_addr = a1, a0
        else:
            ideal_addr = None
        if ideal_addr is not None:
            hits = self.hits
            h = hits.get(idx)
            if h is None:
                if len(hits) >= MAX_CMP_SITES:
                    self.overflow += 1
                    h = None
                else:
                    h = 0
            elif h >= MAX_HITS_PER_SITE:
                self.overflow += 1
                h = None
            if h is not None:
                hits[idx] = h + 1
                obs = snapshot(prog, self.ram, obs_addr)
                idl = snapshot(prog, self.ram, ideal_addr)
                self.comparisons.append(ComparisonRecord(
                    cmp_id=idx, hit_index=h, observed=obs, ideal=idl,
                    read_cursor=self.cursor,
                    observed_len=strlen_bounded(obs),
                    ideal_len=strlen_bounded(idl),
                    satisfied=(ret != 0 if builtin == "STRSTR"
                               else ret == 0 and builtin != "PRINT")))
        return ret

    def _byte(self, addr):
        prog = self.program
        if prog.in_rom(addr):
            return prog.rom[addr - ROM_BASE]
        if prog.in_ram(addr):
            return self.ram[addr - RAM_BASE]
        return None

    def _cstr(self, addr, limit=256):
        prog = self.program
        if prog.in_rom(addr):
            seg, off = prog.rom, addr - ROM_BASE
        elif prog.in_ram(addr):
            seg, off = self.ram, addr - RAM_BASE
        else:
            return b""
        end = seg.find(0, off, off + limit)
        if end < 0:
            end = min(len(seg), off + limit)
        return bytes(seg[off:end])

    def _builtin(self, name, a0, a1):
        if name == "PRINT":
            return 0
        if name == "STRCMP":
            return 0 if self._cstr(a0) == self._cstr(a1) else 1
        if name == "STRNCMP":
            n = self.r[2]
            for i in range(n):
                ca = self._byte(a0 + i) or 0
                cb = self._byte(a1 + i) or 0
                if ca != cb:
                    return 1
                if ca == 0:
                    return 0
            return 0
        if name == "MEMCMP":
            n = self.r[2]
            for i in range(n):
                if (self._byte(a0 + i) or 0) != (self._byte(a1 + i) or 0):
                    return 1
            return 0
        if name == "STRSTR":
            hay = self._cstr(a0)
            needle = self._cstr(a1)
            if not needle:
                return a0
            pos = hay.find(needle)
            return 0 if pos < 0 else a0 + pos
        raise AssertionError(f"unknown builtin {name}")


# -- block compilation ---------------------------------------------------


@dataclass
class _Compiled:
    fns: list            # block functions, read_log disabled
    fns_log: list        # block functions, read_log enabled
    lens: list           # instruction count per block
    edge_ids: dict       # (prev << 16) | cur -> bitmap index
    sentinel: int        # virtual predecessor of the entry block


def _operand_expr(o):
    kind, val = o
    if kind == "reg":
        return f"r[{val}]"
    return str(val)


def _gen_block(program, bi, start, end, read_log):
    ins_list = program.instructions
    rom_len = len(program.rom)
    ram_size = program.ram_size
    lines = [f"def _b{bi}(st, rom=_ROM):", "    r = st.r"]
    uses_ram = any(ins_list[i].opcode in ("STORE", "LOAD", "CALL")
                   for i in range(start, end))
    if uses_ram:
        lines.append("    ram = st.ram")
    if read_log and any(ins_list[i].opcode == "READ_REG"
                        for i in range(start, end)):
        lines.append("    rl = st.rl")

    def emit(s):
        lines.append("    " + s)

    next_block = None
    fell_through = True
    for idx in range(start, end):
        ins = ins_list[idx]
        op = ins.opcode
        ops = ins.operands
        if op == "LABEL":
            continue
        if op == "READ_REG":
            rd = ops[0][1]
            emit("c = st.cursor")
            emit("if c >= st.n:")
            emit("    st.exit = 2")
            emit("    return -1")
            emit(f"r[{rd}] = st.data[c]")
            emit("st.cursor = c + 1")
            if read_log:
                emit(f"rl.append((c, {ops[1][1]!r}))")
        elif op in ("LOADI", "MOV"):
            emit(f"r[{ops[0][1]}] = {_operand_expr(ops[1])}")
        elif op == "AND":
            emit(f"r[{ops[0][1]}] = r[{ops[1][1]}] & {_operand_expr(ops[2])}")
        elif op == "OR":
            emit(f"r[{ops[0][1]}] = r[{ops[1][1]}] | {_operand_expr(ops[2])}")
        elif op == "CMP":
            emit(f"r[{ops[0][1]}] = 0 if r[{ops[1][1]}] == "
                 f"{_operand_expr(ops[2])} else 1")
        elif op in ("BZ", "BNZ"):
            target = program.block_of(program.blocks[ops[1][1]])
            test = "==" if op == "BZ" else "!="
            emit(f"if r[{ops[0][1]}] {test} 0:")
            emit(f"    return {target}")
        elif op == "JMP":
            target = program.block_of(program.blocks[ops[0][1]])
            emit(f"return {target}")
            fell_through = False
        elif op == "LOAD":
            rd = ops[0][1]
            idx_expr = f" + r[{ops[2][1]}]" if len(ops) == 3 else ""
            if ops[1][0] == "imm":
                addr = ops[1][1]
                if program.in_rom(addr):
                    off = addr - ROM_BASE
                    if not idx_expr:
                        emit(f"r[{rd}] = rom[{off}]")
                    else:
                        emit(f"a = {off}{idx_expr}")
                        emit(f"if 0 <= a < {rom_len}:")
                        emit(f"    r[{rd}] = rom[a]")
                        emit("else:")
                        emit(f"    st.exit = 1; st.crash_pc = {idx}; return -1")
                else:
                    off = addr - RAM_BASE
                    if not idx_expr:
                        emit(f"r[{rd}] = ram[{off}]")
                    else:
                        emit(f"a = {off}{idx_expr}")
                        emit(f"if 0 <= a < {ram_size}:")
                        emit(f"    r[{rd}] = ram[a]")
                        emit("else:")
                        emit(f"    st.exit = 1; st.crash_pc = {idx}; return -1")
            else:
                emit(f"a = r[{ops[1][1]}]{idx_expr}")
                emit(f"if {ROM_BASE} <= a < {ROM_BASE + rom_len}:")
                emit(f"    r[{rd}] = rom[a - {ROM_BASE}]")
                emit(f"elif {RAM_BASE} <= a < {RAM_BASE + ram_size}:")
                emit(f"    r[{rd}] = ram[a - {RAM_BASE}]")
                emit("else:")
                emit(f"    st.exit = 1; st.crash_pc = {idx}; return -1")
        elif op == "STORE":
            off = ops[0][1] - RAM_BASE
            val = _operand_expr(ops[1])
            if ops[1][0] == "imm":
                val = str(ops[1][1] & 0xFF)
            else:
                val = f"{val} & 0xFF"
            if len(ops) == 3:
                emit(f"a = {off} + r[{ops[2][1]}]")
                emit(f"if 0 <= a < {ram_size}:")
                emit(f"    ram[a] = {val}")
                emit("else:")
                emit(f"    st.exit = 1; st.crash_pc = {idx}; return -1")
            else:
                emit(f"ram[{off}] = {val}")
        elif op == "CALL":
            a0 = _operand_expr(ops[1])
            a1 = _operand_expr(ops[2])
            emit(f"r[0] = st.call({idx}, {ops[0][1]!r}, {a0}, {a1})")
        elif op == "CRASH":
            emit(f"st.exit = 1; st.crash_pc = {idx}")
            emit("return -1")
            fell_through = False
        elif op == "HALT":
            emit("st.exit = 0")
            emit("return -1")
            fell_through = False
        else:
            raise AssertionError(op)

    if fell_through:
        next_block = bi + 1
        emit(f"return {next_block}")
    if len(lines) == 2 or (len(lines) == 3 and uses_ram):
        # Block of only LABELs still needs a body.
        emit(f"return {bi + 1}")
    return "\n".join(lines)


def _successors(program, bi, start, end):
    succ = set()
    terminal = False
    for idx in range(start, end):
        ins = program.instructions[idx]
        if ins.opcode in ("BZ", "BNZ"):
            succ.add(program.block_of(program.blocks[ins.operands[1][1]]))
        elif ins.opcode == "JMP":
            succ.add(program.block_of(program.blocks[ins.operands[0][1]]))
            terminal = True
        elif ins.opcode in ("HALT", "CRASH"):
            terminal = True
    if not terminal and bi + 1 < program.block_count():
        succ.add(bi + 1)
    return succ


def compile_program(program: TargetProgram) -> _Compiled:
    starts = program.block_starts
    n_blocks = len(starts)
    bounds = [(starts[i], starts[i + 1] if i + 1 < n_blocks
               else len(program.instructions)) for i in range(n_blocks)]

    def build(read_log):
        src = "\n\n".join(
            _gen_block(program, bi, lo, hi, read_log)
            for bi, (lo, hi) in enumerate(bounds))
        glb = {"_ROM": program.rom}
        exec(compile(src, f"<scenario:{program.name or 'vm'}>", "exec"), glb)
        return [glb[f"_b{bi}"] for bi in range(n_blocks)]

    sentinel = n_blocks
    edge_ids = {(sentinel << 16) | 0: block_edge_id(sentinel, 0, MAP_SIZE)}
    for bi, (lo, hi) in enumerate(bounds):
        for s in _successors(program, bi, lo, hi):
            edge_ids[(bi << 16) | s] = block_edge_id(bi, s, MAP_SIZE)

    lens = [hi - lo for lo, hi in bounds]
    return _Compiled(fns=build(False), fns_log=build(True), lens=lens,
                     edge_ids=edge_ids, sentinel=sentinel)


def _get_compiled(program):
    if program._compiled is None:
        program._compiled = compile_program(program)
    return program._compiled


def execute(program: TargetProgram, fuzz_input: FuzzInput,
            budget: int = DEFAULT_INSTR_BUDGET, *,
            read_log: bool = True) -> ExecutionTrace:
    """Run the program over the input stream; pure in all three arguments."""
    if budget <= 0:
        raise ValueError("budget must be positive")
    comp = _get_compiled(program)
    data = fuzz_input.bytes if isinstance(fuzz_input, FuzzInput) else bytes(
        fuzz_input)
    st = _State(program, data, read_log)
    fns = comp.fns_log if read_log else comp.fns
    lens = comp.lens
    # The hot loop only collects raw (prev, cur) transition keys; edge
    # hashes and the block set are derived once afterwards.
    trans = set()
    add = trans.add
    prev = comp.sentinel
    b = 0
    steps = 0
    exit_reason = None
    while b >= 0:
        steps += lens[b]
        if steps > budget:
            exit_reason = ExitReason.BUDGET_EXHAUSTED
            break
        add((prev << 16) | b)
        prev = b
        b = fns[b](st)
    if exit_reason is None:
        exit_reason = _EXIT_BY_CODE[st.exit]
    edge_tab = comp.edge_ids
    edges = {edge_tab[t] for t in trans}
    blocks = {t & 0xFFFF for t in trans}
    return ExecutionTrace(
        edges=edges, blocks=blocks, comparisons=st.comparisons,
        read_log=st.rl, exit=exit_reason, final_cursor=st.cursor,
        steps=steps, crash_pc=st.crash_pc, cmp_overflow=st.overflow)
