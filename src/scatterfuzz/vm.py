"""Deterministic virtual microcontroller executor.

Each basic block of a validated program is compiled once to a Python
function; execution is a trampoline over those functions.  Every
READ_REG consumes exactly one byte of the fuzz input stream, so
logically adjacent data bytes end up scattered across the input
whenever several peripherals are polled between data reads.

A block function returns the id of the next block, or a negative
code that ends the run: -1 HALT, -2 CRASH (after setting st.crash_pc)
and -3 INPUT_EXHAUSTED.  The trampoline maps that code to ExitReason;
the budget is checked before each block runs.

Each builtin reads at most MAX_STRLEN (128) bytes through each pointer:
through read_target, or, at a compiled STRCMP site, by the same bounded
slice of RAM.  These are the bytes a comparison record holds, so its
strings agree with the builtin's verdict.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .cmplog import MAX_CMP_SITES, MAX_HITS_PER_SITE, ComparisonRecord
from .coverage import strlen_bounded
from .program import (DEFAULT_INSTR_BUDGET, MAX_STRLEN, RAM_BASE, ROM_BASE,
                      FuzzInput, TargetProgram, block_edge_id)


class ExitReason(enum.Enum):
    HALT = "halt"
    CRASH = "crash"
    INPUT_EXHAUSTED = "input_exhausted"
    BUDGET_EXHAUSTED = "budget_exhausted"


_EXIT_BY_CODE = {-1: ExitReason.HALT, -2: ExitReason.CRASH,
                 -3: ExitReason.INPUT_EXHAUSTED}


@dataclass
class ExecutionTrace:
    edges: set
    blocks: set
    comparisons: list
    exit: ExitReason
    final_cursor: int
    steps: int
    crash_pc: int | None = None
    cmp_overflow: int = 0


def read_target(program, ram, addr):
    """The bytes a builtin reads through pointer addr: at most MAX_STRLEN,
    up to the end of addr's segment, none outside ROM and RAM.  Bytes
    past these read as 0.  ram may be None for a ROM addr."""
    if program.in_rom(addr):
        seg, off = program.rom, addr - ROM_BASE
    elif program.in_ram(addr):
        seg, off = ram, addr - RAM_BASE
    else:
        return b""
    return seg[off:off + MAX_STRLEN]


def _classify(program, a0, a1):
    """The one ROM/RAM call-site classifier.

    A CALL is logged as a candidate string comparison iff one pointer is
    in ROM and the other in RAM.  Returns what depends only on the two
    pointers, ``(ideal snapshot, the ROM C string, observed RAM
    offset)``, or None for a call that is not logged.
    """
    if program.in_rom(a0) and program.in_ram(a1):
        ideal_addr, obs_addr = a0, a1
    elif program.in_rom(a1) and program.in_ram(a0):
        ideal_addr, obs_addr = a1, a0
    else:
        return None
    ideal = read_target(program, None, ideal_addr)
    return ideal, ideal.partition(b"\0")[0], obs_addr - RAM_BASE


def _satisfied(builtin, ret):
    """The builtin's verdict on its return value.

    This is the only definition of a satisfied comparison: the
    comparators pass on 0, STRSTR when it found the needle (non-zero),
    and PRINT never.
    """
    if builtin == "STRSTR":
        return ret != 0
    return ret == 0 and builtin != "PRINT"


class _State:
    __slots__ = ("r", "ram", "data", "n", "cursor", "crash_pc",
                 "comparisons", "hits", "overflow", "program")

    def __init__(self, program, data):
        self.r = [0] * 8
        self.ram = bytearray(program.ram_size)
        self.data = data
        self.n = len(data)
        self.cursor = 0
        self.crash_pc = None
        self.comparisons = []
        self.hits = {}
        self.overflow = 0
        self.program = program

    # -- builtin call sites ----------------------------------------------

    def call(self, idx, builtin, a0, a1):
        """A CALL with a register operand, classified when it runs.

        CALLs with two immediate pointers are compiled by _site instead.
        """
        ret = self._builtin(builtin, a0, a1)
        facts = _classify(self.program, a0, a1)
        if facts is not None:
            self.log(idx, *facts, _satisfied(builtin, ret))
        return ret

    def log(self, idx, ideal, key, obs_off, satisfied):
        """Record one hit of a logged call site, within the caps.

        Hits past MAX_HITS_PER_SITE, and sites past MAX_CMP_SITES, are
        counted in the overflow counter instead.
        """
        hits = self.hits
        h = hits.get(idx)
        if h is None:
            if len(hits) >= MAX_CMP_SITES:
                self.overflow += 1
                return
            h = 0
        elif h >= MAX_HITS_PER_SITE:
            self.overflow += 1
            return
        hits[idx] = h + 1
        obs = bytes(self.ram[obs_off:obs_off + MAX_STRLEN])
        self.comparisons.append(ComparisonRecord(
            cmp_id=idx, hit_index=h, observed=obs, ideal=ideal,
            read_cursor=self.cursor, observed_len=strlen_bounded(obs),
            ideal_len=len(key), satisfied=satisfied))

    def _builtin(self, name, a0, a1):
        """Builtin name's return value; STRNCMP and MEMCMP compare r2 bytes."""
        if name == "PRINT":
            return 0
        s0 = read_target(self.program, self.ram, a0)
        s1 = read_target(self.program, self.ram, a1)
        if name in ("STRNCMP", "MEMCMP"):
            n = max(self.r[2], 0)
            s0, s1 = s0[:n], s1[:n]
        if name == "MEMCMP":
            # The shorter span is padded with the 0s read past its end.
            return 0 if (s0.ljust(len(s1), b"\0")
                         == s1.ljust(len(s0), b"\0")) else 1
        s0 = s0.partition(b"\0")[0]
        s1 = s1.partition(b"\0")[0]
        if name == "STRSTR":
            if not s1:
                return a0
            pos = s0.find(s1)
            return 0 if pos < 0 else a0 + pos
        return 0 if s0 == s1 else 1


def _site(program, idx, builtin, a0, a1):
    """Compile the CALL at idx, whose pointers a0 and a1 are immediates.

    Everything that depends only on the site is settled here, once: the
    classification, the ideal snapshot and the ROM C string, which a
    logged STRCMP compares against, and its verdict rule.
    RAM, r2 and the read cursor are still read when the site runs.
    """
    facts = _classify(program, a0, a1)
    if facts is None:
        def site(st):
            return st._builtin(builtin, a0, a1)
        return site
    ideal, key, obs_off = facts
    if builtin == "STRCMP":
        # The builtin's bounded read of the RAM side, against the key.
        lim = obs_off + MAX_STRLEN

        def site(st):
            ram = st.ram
            end = ram.find(0, obs_off, lim)
            eq = ram[obs_off:end if end >= 0 else lim] == key
            st.log(idx, ideal, key, obs_off, eq)
            return 0 if eq else 1
        return site

    def site(st):
        ret = st._builtin(builtin, a0, a1)
        st.log(idx, ideal, key, obs_off, _satisfied(builtin, ret))
        return ret
    return site


# -- block compilation ---------------------------------------------------


@dataclass
class _Compiled:
    fns: list            # block functions, the only compiled form
    lens: list           # instruction count per block
    edge_ids: dict       # (prev << 16) | cur -> bitmap index
    sentinel: int        # virtual predecessor of the entry block


def _operand_expr(o):
    kind, val = o
    if kind == "reg":
        return f"r[{val}]"
    return str(val)


def _gen_block(program, bi, start, end, sites, ordinal):
    """Source of block bi and the set of blocks it can return to.

    ``ordinal`` maps each block's first instruction index to its block
    id, which is where a label's target is looked up.
    """
    ins_list = program.instructions
    rom_len = len(program.rom)
    ram_size = program.ram_size
    lines = [f"def _b{bi}(st, rom=_ROM):", "    r = st.r"]
    uses_ram = any(ins_list[i].opcode in ("STORE", "LOAD")
                   for i in range(start, end))
    if uses_ram:
        lines.append("    ram = st.ram")

    def emit(s):
        lines.append("    " + s)

    def checked(idx, addr, *arms):
        """Set a = addr, run the first (bound, stmt) arm whose bound
        holds, and crash at instruction idx when none does."""
        emit(f"a = {addr}")
        for i, (cond, stmt) in enumerate(arms):
            emit(f"{'el' if i else ''}if {cond}:")
            emit(f"    {stmt}")
        emit("else:")
        emit(f"    st.crash_pc = {idx}; return -2")

    succ = set()
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
            emit("    return -3")
            emit(f"r[{rd}] = st.data[c]")
            emit("st.cursor = c + 1")
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
            target = ordinal[program.blocks[ops[1][1]]]
            succ.add(target)
            test = "==" if op == "BZ" else "!="
            emit(f"if r[{ops[0][1]}] {test} 0:")
            emit(f"    return {target}")
        elif op == "JMP":
            target = ordinal[program.blocks[ops[0][1]]]
            succ.add(target)
            emit(f"return {target}")
            fell_through = False
        elif op == "LOAD":
            rd = ops[0][1]
            idx_expr = f" + r[{ops[2][1]}]" if len(ops) == 3 else ""
            if ops[1][0] == "imm":
                addr = ops[1][1]
                seg, base, size = (("rom", ROM_BASE, rom_len)
                                   if program.in_rom(addr)
                                   else ("ram", RAM_BASE, ram_size))
                if idx_expr:
                    checked(idx, f"{addr - base}{idx_expr}",
                            (f"0 <= a < {size}", f"r[{rd}] = {seg}[a]"))
                else:
                    emit(f"r[{rd}] = {seg}[{addr - base}]")
            else:
                checked(idx, f"r[{ops[1][1]}]{idx_expr}",
                        (f"{ROM_BASE} <= a < {ROM_BASE + rom_len}",
                         f"r[{rd}] = rom[a - {ROM_BASE}]"),
                        (f"{RAM_BASE} <= a < {RAM_BASE + ram_size}",
                         f"r[{rd}] = ram[a - {RAM_BASE}]"))
        elif op == "STORE":
            off = ops[0][1] - RAM_BASE
            val = (str(ops[1][1] & 0xFF) if ops[1][0] == "imm"
                   else f"r[{ops[1][1]}] & 0xFF")
            if len(ops) == 3:
                checked(idx, f"{off} + r[{ops[2][1]}]",
                        (f"0 <= a < {ram_size}", f"ram[a] = {val}"))
            else:
                emit(f"ram[{off}] = {val}")
        elif op == "CALL":
            if idx in sites:
                emit(f"r[0] = _s{idx}(st)")
            else:
                a0 = _operand_expr(ops[1])
                a1 = _operand_expr(ops[2])
                emit(f"r[0] = st.call({idx}, {ops[0][1]!r}, {a0}, {a1})")
        elif op == "CRASH":
            emit(f"st.crash_pc = {idx}")
            emit("return -2")
            fell_through = False
        elif op == "HALT":
            emit("return -1")
            fell_through = False
        else:
            raise AssertionError(op)

    if fell_through:
        # Validation ends the program with HALT/CRASH/JMP, so a block
        # that falls through always has a next block.
        succ.add(bi + 1)
        emit(f"return {bi + 1}")
    return "\n".join(lines), succ


def compile_program(program: TargetProgram) -> _Compiled:
    starts = program.block_starts
    n_blocks = len(starts)
    bounds = [(starts[i], starts[i + 1] if i + 1 < n_blocks
               else len(program.instructions)) for i in range(n_blocks)]

    # One specialized function per CALL with two immediate pointers.
    sites = {}
    for idx, ins in enumerate(program.instructions):
        ops = ins.operands
        if ins.opcode == "CALL" and ops[1][0] == ops[2][0] == "imm":
            sites[idx] = _site(program, idx, ops[0][1], ops[1][1], ops[2][1])

    ordinal = {lo: bi for bi, (lo, _) in enumerate(bounds)}
    blocks = [_gen_block(program, bi, lo, hi, sites, ordinal)
              for bi, (lo, hi) in enumerate(bounds)]
    src = "\n\n".join(block_src for block_src, _ in blocks)
    glb = {"_ROM": program.rom}
    glb.update((f"_s{idx}", fn) for idx, fn in sites.items())
    exec(compile(src, f"<scenario:{program.name or 'vm'}>", "exec"), glb)

    sentinel = n_blocks
    edge_ids = {(sentinel << 16) | 0: block_edge_id(sentinel, 0)}
    for bi, (_, succ) in enumerate(blocks):
        for s in succ:
            edge_ids[(bi << 16) | s] = block_edge_id(bi, s)

    return _Compiled(fns=[glb[f"_b{bi}"] for bi in range(n_blocks)],
                     lens=[hi - lo for lo, hi in bounds],
                     edge_ids=edge_ids, sentinel=sentinel)


def _get_compiled(program):
    if program._compiled is None:
        program._compiled = compile_program(program)
    return program._compiled


def execute(program: TargetProgram, fuzz_input: FuzzInput,
            budget: int = DEFAULT_INSTR_BUDGET, *,
            read_log: bool = False) -> ExecutionTrace:
    """Run the program over the input stream; pure in its arguments.

    read_log accepts only False; the keyword stays for callers that
    still pass it.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    if read_log:
        raise ValueError("read_log=True is not supported")
    comp = _get_compiled(program)
    data = fuzz_input.bytes if isinstance(fuzz_input, FuzzInput) else bytes(
        fuzz_input)
    st = _State(program, data)
    fns = comp.fns
    lens = comp.lens
    # The hot loop only collects raw (prev, cur) transition keys; edge
    # hashes and the block set are derived once afterwards.
    trans = set()
    add = trans.add
    prev = comp.sentinel
    b = 0
    steps = 0
    while b >= 0:
        steps += lens[b]
        if steps > budget:
            exit_reason = ExitReason.BUDGET_EXHAUSTED
            break
        add((prev << 16) | b)
        prev = b
        b = fns[b](st)
    else:
        exit_reason = _EXIT_BY_CODE[b]
    edge_tab = comp.edge_ids
    edges = {edge_tab[t] for t in trans}
    blocks = {t & 0xFFFF for t in trans}
    return ExecutionTrace(
        edges=edges, blocks=blocks, comparisons=st.comparisons,
        exit=exit_reason, final_cursor=st.cursor,
        steps=steps, crash_pc=st.crash_pc, cmp_overflow=st.overflow)
