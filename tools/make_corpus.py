#!/usr/bin/env python3
"""Generate the bundled scenario corpus.

The target ISA has no arithmetic on pointers, so scenario loops are
unrolled here instead of written by hand.  Run from the repository root:

    python tools/make_corpus.py

Writes .s files and manifest.json into src/scatterfuzz/scenarios/, or
into the directory main() is given.
"""

import json
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / "src/scatterfuzz/scenarios"


def gated_read(lines, gate_label, dest, mask=0x80):
    """Poll status until the mask bit is set, then read one data byte."""
    lines += [
        f"{gate_label}:",
        "  READ_REG r1, status",
        f"  AND r2, r1, {mask}",
        f"  BZ r2, {gate_label}",
        "  READ_REG r3, dataport",
        f"  STORE ram+{dest}, r3",
    ]


def modem_ok():
    """Status-gated unlock key, then an open command console.

    The unlock string and every command are solvable only through
    feedback-guided replacement; random mutation reaches the comparison
    easily (the gate passes on any byte with the high bit set) but
    cannot satisfy it.
    """
    key = "OK42"
    cmds = ["load", "dump", "wipe", "stat", "ping", "rset", "echo", "boom"]
    lines = ['.rom key "OK42\\0"']
    for c in cmds:
        lines.append(f'.rom cmd_{c} "{c}\\0"')
    lines += [".ram 64", ".periph status", ".periph dataport", ""]
    for i in range(len(key)):
        gated_read(lines, f"gate{i}", i)
    lines += [
        "cmp_key:",
        "  CALL STRCMP, key, ram",
        "  BZ r0, unlocked",
        "locked:",
        "  HALT",
        "unlocked:",
        "  STORE ram+48, 1",
        "cmd_loop:",
    ]
    for i in range(4):
        lines += ["  READ_REG r3, dataport", f"  STORE ram+{16 + i}, r3"]
    lines.append("  STORE ram+20, 0")
    for c in cmds:
        lines += [
            f"cmp_{c}:",
            f"  CALL STRCMP, cmd_{c}, ram+16",
            f"  BZ r0, h_{c}",
        ]
    lines.append("  JMP cmd_gate")
    for i, c in enumerate(cmds):
        lines.append(f"h_{c}:")
        if c == "boom":
            lines.append("  CRASH")
        else:
            lines += [f"  STORE ram+{32 + i}, 1", "  JMP cmd_gate"]
    # The console continues onto another command only after a CR byte,
    # which keeps loop iteration counts small on random inputs.
    lines += [
        "cmd_gate:",
        "  READ_REG r1, dataport",
        "  CMP r2, r1, 13",
        "  BZ r2, cmd_loop",
        "  HALT",
    ]
    return "\n".join(lines) + "\n"


def interleaved_ac():
    """Interleaved status and data reads; exactly ten READ_REG executions.

    The comparison runs after the ninth read, so its read cursor is 9
    and one more byte is consumed afterwards.
    """
    lines = [
        '.rom want "ac\\0"',
        ".ram 32",
        ".periph status",
        ".periph data",
        "",
        "  READ_REG r1, status",      # read 1
        "  READ_REG r2, data",        # read 2
        "  STORE ram+0, r2",
        "  READ_REG r1, status",      # read 3
        "  READ_REG r1, status",      # read 4
        "  READ_REG r2, data",        # read 5
        "  STORE ram+1, r2",
        "  READ_REG r1, status",      # reads 6-9
        "  READ_REG r1, status",
        "  READ_REG r1, status",
        "  READ_REG r1, status",
        "  STORE ram+2, 0",
        "cmp_ac:",
        "  CALL STRCMP, want, ram",
        "  BZ r0, matched",
        "  READ_REG r1, status",      # read 10
        "  HALT",
        "matched:",
        "  READ_REG r1, status",      # read 10 on the match path too
        "  STORE ram+8, 1",
        "  HALT",
    ]
    return "\n".join(lines) + "\n"


def scattered(name, target, pads_before, ram_size=64, crash_on_match=False):
    """A target string read one char per iteration with pad reads between."""
    lines = [
        f'.rom want "{target}\\0"',
        f".ram {ram_size}",
        ".periph status",
        ".periph dataport",
        "",
    ]
    for i in range(len(target)):
        for _ in range(pads_before):
            lines.append("  READ_REG r1, status")
        lines += ["  READ_REG r2, dataport", f"  STORE ram+{i}, r2"]
    lines += [
        f"  STORE ram+{len(target)}, 0",
        f"cmp_{name}:",
        "  CALL STRCMP, want, ram",
        "  BZ r0, matched",
        "  HALT",
        "matched:",
        f"  STORE ram+{ram_size - 1}, 1",
        "  CRASH" if crash_on_match else "  HALT",
    ]
    return "\n".join(lines) + "\n"


def console():
    """Newline-terminated command line dispatched over eight commands.

    RAM starts zeroed, so stopping at the newline leaves a shorter
    NUL-terminated string without an explicit terminator store.
    """
    cmds = ["ps", "help", "reboot", "rtc", "saul", "write", "read", "all"]
    lines = []
    for c in cmds:
        lines.append(f'.rom cmd_{c} "{c}\\0"')
    lines += [".ram 64", ".periph uart", ""]
    for i in range(12):
        lines += [
            f"pos{i}:",
            "  READ_REG r1, uart",
            "  CMP r2, r1, 10",
            "  BZ r2, dispatch",
            f"  STORE ram+{i}, r1",
        ]
    lines.append("dispatch:")
    for c in cmds:
        lines += [
            f"cmp_{c}:",
            f"  CALL STRCMP, cmd_{c}, ram",
            f"  BZ r0, h_{c}",
        ]
    lines.append("  HALT")
    for i, c in enumerate(cmds):
        lines.append(f"h_{c}:")
        if c == "reboot":
            lines.append("  CRASH")
        else:
            lines += [f"  STORE ram+{40 + i}, 1", "  HALT"]
    return "\n".join(lines) + "\n"


def suffix_ok():
    """Substring search whose needle can only match at the buffer tail."""
    lines = [
        '.rom needle "OK\\0"',
        ".ram 32",
        ".periph dataport",
        "",
        "  STORE ram+0, 120",        # 'x', a constant prefix
        "  STORE ram+1, 120",
        "  READ_REG r1, dataport",
        "  STORE ram+2, r1",
        "  READ_REG r1, dataport",
        "  STORE ram+3, r1",
        "cmp_find:",
        "  CALL STRSTR, ram, needle",
        "  BZ r0, missing",
        "  STORE ram+16, 1",
        "  HALT",
        "missing:",
        "  HALT",
    ]
    return "\n".join(lines) + "\n"


def contract_ok():
    """Four data bytes compared against a two-char string.

    Matching needs both replacement and a terminator written over the
    third byte, exercising string contraction.
    """
    lines = [
        '.rom want "OK\\0"',
        ".ram 32",
        ".periph dataport",
        "",
    ]
    for i in range(4):
        lines += ["  READ_REG r1, dataport", f"  STORE ram+{i}, r1"]
    lines += [
        "cmp_ok:",
        "  CALL STRCMP, want, ram",
        "  BZ r0, matched",
        "  HALT",
        "matched:",
        "  STORE ram+16, 1",
        "  HALT",
    ]
    return "\n".join(lines) + "\n"


def print_fp():
    """A print call that pairs a ROM string with a RAM device struct.

    Looks like a comparison to the detector but no input byte can move
    the observed buffer, so the solver must abandon it cheaply.
    """
    lines = [
        '.rom greeting "Device up\\0"',
        ".ram 64",
        ".periph dataport",
        "",
        "  STORE ram+32, 68",        # 'D', device-struct constants
        "  STORE ram+33, 101",       # 'e'
        "  READ_REG r1, dataport",
        "  STORE ram+0, r1",
        "cmp_print:",
        "  CALL PRINT, greeting, ram+32",
        "  READ_REG r1, dataport",
        "  CMP r2, r1, 7",
        "  BZ r2, bell",
        "  HALT",
        "bell:",
        "  STORE ram+48, 1",
        "  HALT",
    ]
    return "\n".join(lines) + "\n"


def nostr_bits():
    """Magic-byte ladder with no string comparisons; ends in a crash."""
    magic = [0x42, 0x13, 0x37, 0x99]
    lines = ['.rom tag "bits\\0"', ".ram 16", ".periph port", ""]
    for i, m in enumerate(magic):
        lines += [
            f"step{i}:",
            "  READ_REG r1, port",
            f"  CMP r2, r1, {m}",
            f"  BNZ r2, out{i}",
        ]
    lines += ["  CRASH"]
    for i in range(len(magic)):
        lines += [f"out{i}:", f"  STORE ram+{i}, 1", "  HALT"]
    return "\n".join(lines) + "\n"


def nostr_chain():
    """Each byte's top two bits pick one of four paths, three bytes deep."""
    lines = ['.rom tag "chain\\0"', ".ram 16", ".periph port", ""]
    for i in range(3):
        lines += [
            f"hop{i}:",
            "  READ_REG r1, port",
            "  AND r2, r1, 192",
            "  CMP r3, r2, 0",
            f"  BZ r3, q{i}_0",
            "  CMP r3, r2, 64",
            f"  BZ r3, q{i}_1",
            "  CMP r3, r2, 128",
            f"  BZ r3, q{i}_2",
            f"q{i}_3:",
            f"  STORE ram+{4 * i + 3}, 1",
            f"  JMP next{i}",
            f"q{i}_0:",
            f"  STORE ram+{4 * i}, 1",
            f"  JMP next{i}",
            f"q{i}_1:",
            f"  STORE ram+{4 * i + 1}, 1",
            f"  JMP next{i}",
            f"q{i}_2:",
            f"  STORE ram+{4 * i + 2}, 1",
            f"next{i}:",
        ]
    lines += ["  HALT"]
    return "\n".join(lines) + "\n"


def nostr_state():
    """Mode bits accumulate across reads and gate the final branch."""
    lines = [
        '.rom tag "state\\0"',
        ".ram 16",
        ".periph port",
        "",
        "  LOADI r4, 0",
        "start:",
        "  READ_REG r1, port",
        "  AND r2, r1, 1",
        "  BZ r2, no_a",
        "  OR r4, r4, 1",
        "no_a:",
        "  READ_REG r1, port",
        "  AND r2, r1, 2",
        "  BZ r2, no_b",
        "  OR r4, r4, 2",
        "no_b:",
        "  READ_REG r1, port",
        "  AND r2, r1, 4",
        "  BZ r2, no_c",
        "  OR r4, r4, 4",
        "no_c:",
        "  CMP r5, r4, 7",
        "  BZ r5, armed",
        "  HALT",
        "armed:",
        "  READ_REG r1, port",
        "  CMP r5, r1, 170",
        "  BZ r5, fire",
        "  HALT",
        "fire:",
        "  CRASH",
    ]
    return "\n".join(lines) + "\n"


def quad_wxyz():
    """Four data chars, three pads before each; ideal string is distinct."""
    return scattered("wxyz", "WXYZ", pads_before=3, ram_size=32)


SCENARIOS = [
    ("modem_ok", "guarded", modem_ok(),
     [["cmp_key", "OK42"], ["cmp_load", "load"], ["cmp_dump", "dump"],
      ["cmp_wipe", "wipe"], ["cmp_stat", "stat"], ["cmp_ping", "ping"],
      ["cmp_rset", "rset"], ["cmp_echo", "echo"], ["cmp_boom", "boom"]]),
    ("interleaved_ac", "interleaved", interleaved_ac(), [["cmp_ac", "ac"]]),
    ("routes_cmd", "scattered",
     scattered("routes", "rpl-refresh-routes", pads_before=2),
     [["cmp_routes", "rpl-refresh-routes"]]),
    ("poweron", "scattered",
     scattered("poweron", "poweron", pads_before=15),
     [["cmp_poweron", "poweron"]]),
    ("console", "console", console(),
     [["cmp_ps", "ps"], ["cmp_help", "help"], ["cmp_reboot", "reboot"],
      ["cmp_rtc", "rtc"], ["cmp_saul", "saul"], ["cmp_write", "write"],
      ["cmp_read", "read"], ["cmp_all", "all"]]),
    ("suffix_ok", "substring", suffix_ok(), [["cmp_find", "OK"]]),
    ("contract_ok", "contraction", contract_ok(), [["cmp_ok", "OK"]]),
    ("print_fp", "false_positive", print_fp(), [["cmp_print", "Device up"]]),
    ("nostr_bits", "no_strings", nostr_bits(), []),
    ("nostr_chain", "no_strings", nostr_chain(), []),
    ("nostr_state", "no_strings", nostr_state(), []),
    ("quad_wxyz", "scattered", quad_wxyz(), [["cmp_wxyz", "WXYZ"]]),
]


def main(out=OUT):
    out.mkdir(parents=True, exist_ok=True)
    manifest = []
    for name, category, text, expected in SCENARIOS:
        (out / f"{name}.s").write_text(text)
        manifest.append({
            "name": name,
            "file": f"{name}.s",
            "category": category,
            "expected_strings": expected,
        })
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {len(SCENARIOS)} scenarios to {out}")


if __name__ == "__main__":
    main()
