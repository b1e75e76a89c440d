"""Feedback-guided search: mapping, pruning, contraction, alignment."""

import random

import pytest

from scatterfuzz import FuzzInput, execute, naive_search, solve
from scatterfuzz import solve_with_alignments, colorize
from scatterfuzz.asm import parse_scenario
from scatterfuzz.cmplog import CmpKey, find_record
from scatterfuzz.errors import InconsistentBaseline
from scatterfuzz.solver import (DEFAULT_DELIMITERS, SolveStatus,
                                candidate_positions, default_exec_budget)

from synthetic import SyntheticInstance, brute_force_solvable, make_executor

FIG3_INPUT = b"AAAABBBBCCCCDDDD"
ROUTES_INPUT = bytes().join(bytes([c]) * 3 for c in b"abcdefghijklmnopqr")
POWERON_INPUT = bytes().join(bytes([c]) * 16 for c in b"abcdefg")


def test_candidate_positions():
    assert candidate_positions(b"abcabc", ord("a"), 0, 6) == [0, 3]
    assert candidate_positions(b"abcabc", ord("a"), 1, 6) == [3]
    assert candidate_positions(b"abcabc", ord("z"), 0, 6) == []


def test_default_budget():
    assert default_exec_budget(16) == 4 * 16 + 64


def test_quad_candidates_guided_vs_naive(corpus, get_key):
    program, key = get_key("quad_wxyz", "cmp_wxyz")
    fi = FuzzInput(FIG3_INPUT)
    rec = find_record(execute(program, fi), key)
    executor = lambda f: execute(program, f)
    res = solve(rec, fi, executor)
    assert res.status is SolveStatus.SOLVED
    assert res.executions_used <= 16 + 1
    # Rejected candidates are restored; only the locked bytes change.
    assert res.solved_input.bytes == b"AAAWBBBXCCCYDDDZ"
    nres = naive_search(rec, fi, executor, combo_budget=1000)
    assert nres.combination_count == 256
    assert nres.status is SolveStatus.SOLVED


def test_mapped_positions_monotone(corpus, get_key):
    program, key = get_key("routes_cmd", "cmp_routes")
    fi = FuzzInput(ROUTES_INPUT)
    rec = find_record(execute(program, fi), key)
    res = solve(rec, fi, lambda f: execute(program, f))
    assert res.status is SolveStatus.SOLVED
    js = [j for _, j in res.mapped]
    assert js == sorted(js) and len(set(js)) == len(js)
    ps = [i for i, _ in res.mapped]
    assert ps == list(range(18))


def test_solver_only_touches_read_region(corpus, get_key):
    """No executed candidate differs from base at or past the read cursor."""
    program, key = get_key("contract_ok", "cmp_ok")
    base = b"wxyz" + b"TAIL"
    fi = FuzzInput(base)
    rec = find_record(execute(program, fi), key)
    tried = []

    def executor(f):
        tried.append(f.bytes)
        return execute(program, f)

    res = solve(rec, fi, executor)
    assert res.status is SolveStatus.SOLVED
    for data in tried:
        assert data[rec.read_cursor:] == base[rec.read_cursor:]


def test_contraction_uses_nul(corpus, get_key):
    program, key = get_key("contract_ok", "cmp_ok")
    fi = FuzzInput(b"wxyz")
    rec = find_record(execute(program, fi), key)
    assert len(rec.observed_str) > len(rec.ideal_str)
    res = solve(rec, fi, lambda f: execute(program, f))
    assert res.status is SolveStatus.SOLVED
    assert res.solved_input.bytes[:3] == b"OK\x00"
    verify = find_record(execute(program, res.solved_input), key)
    assert verify.is_solved()


def test_contraction_uses_newline_on_console(corpus, get_key):
    """The console stops its line at LF, so LF is the working delimiter."""
    program, key = get_key("console", "cmp_help")
    base = b"helpab\n"
    fi = FuzzInput(base)
    rec = find_record(execute(program, fi), key)
    assert rec.observed_str == b"helpab"
    res = solve(rec, fi, lambda f: execute(program, f))
    assert res.status is SolveStatus.SOLVED
    assert res.solved_input.bytes[4] == 0x0A
    verify = find_record(execute(program, res.solved_input), key)
    assert verify.is_solved()


def test_delimiter_order():
    assert list(DEFAULT_DELIMITERS) == [0x20, 0x0A, 0x0D, 0x09, 0x00,
                                        ord(","), ord(";")]


def test_tail_alignment_on_substring(corpus, get_key):
    program, key = get_key("suffix_ok", "cmp_find")
    fi = FuzzInput(b"ab")
    rec = find_record(execute(program, fi), key)
    head = solve(rec, fi, lambda f: execute(program, f))
    assert head.status is SolveStatus.UNMAPPED_BYTE
    assert head.unmapped_index == 0
    both = solve_with_alignments(rec, fi, lambda f: execute(program, f))
    assert both.status is SolveStatus.SOLVED
    assert both.alignment_offset == 2
    assert both.solved_input.bytes == b"OK"


def test_mapping_stops_once_substring_found():
    """A lock that satisfies STRSTR ends the solve; nothing is contracted.

    Head alignment maps "OK" onto the haystack's first two bytes; the
    rest of the haystack stays as read.
    """
    text = ('.rom needle "OK\\0"\n.ram 8\n.periph p\n'
            '  READ_REG r1, p\n  STORE ram+0, r1\n'
            '  READ_REG r1, p\n  STORE ram+1, r1\n'
            '  READ_REG r1, p\n  STORE ram+2, r1\n'
            '  READ_REG r1, p\n  STORE ram+3, r1\n'
            'cmp_find:\n  CALL STRSTR, ram, needle\n  HALT\n')
    program = parse_scenario(text)
    fi = FuzzInput(b"abcd")
    rec = execute(program, fi).comparisons[0]
    assert rec.observed_str == b"abcd" and not rec.is_solved()
    res = solve_with_alignments(rec, fi, lambda f: execute(program, f))
    assert res.status is SolveStatus.SOLVED
    assert res.solved_input.bytes == b"OKcd"
    assert res.executions_used == 3
    assert res.mapped == [(0, 0), (1, 1)]


def test_false_positive_abandoned_cheaply(corpus, get_key):
    program, key = get_key("print_fp", "cmp_print")
    fi = FuzzInput(b"qq")
    rec = find_record(execute(program, fi), key)
    res = solve_with_alignments(rec, fi, lambda f: execute(program, f))
    assert res.status is SolveStatus.UNMAPPED_BYTE
    assert res.executions_used <= default_exec_budget(2)
    assert res.solved_input is None


def test_inconsistent_baseline(corpus, get_key):
    """A record that the base input does not reproduce is refused."""
    program, key = get_key("contract_ok", "cmp_ok")
    rec = find_record(execute(program, FuzzInput(b"abcd")), key)
    with pytest.raises(InconsistentBaseline):
        solve(rec, FuzzInput(b"wxyz"), lambda f: execute(program, f))


def test_budget_exhaustion(corpus, get_key):
    program, key = get_key("poweron", "cmp_poweron")
    fi = FuzzInput(POWERON_INPUT)
    rec = find_record(execute(program, fi), key)
    res = solve(rec, fi, lambda f: execute(program, f), exec_budget=10)
    assert res.status is SolveStatus.BUDGET_EXHAUSTED
    assert res.executions_used == 10


def test_naive_skips_non_increasing_combos():
    text = ('.rom w "XY\\0"\n.ram 8\n.periph p\n'
            '  READ_REG r1, p\n  STORE ram+0, r1\n'
            '  READ_REG r1, p\n  STORE ram+1, r1\n'
            'c:\n  CALL STRCMP, w, ram\n  HALT\n')
    program = parse_scenario(text)
    from scatterfuzz.corpus import label_to_cmp_id
    key = CmpKey(label_to_cmp_id(program, "c"), 0)
    fi = FuzzInput(b"aa")
    rec = find_record(execute(program, fi), key)
    res = naive_search(rec, fi, lambda f: execute(program, f),
                       combo_budget=100)
    # Count is the full Cartesian product; only the one strictly
    # increasing pair is ever executed.
    assert res.combination_count == 4
    assert res.status is SolveStatus.SOLVED
    assert res.executions_used == 1
    assert res.solved_input.bytes == b"XY"


def test_colorize_preserves_reachability_and_entropy(corpus, get_key):
    program, key = get_key("poweron", "cmp_poweron")
    fi = FuzzInput(POWERON_INPUT)
    rng = random.Random(11)
    rec = find_record(execute(program, fi), key)
    colored = colorize(rec, fi, lambda f: execute(program, f), rng)
    assert find_record(execute(program, colored), key) is not None
    assert len(set(colored.bytes)) >= len(set(fi.bytes))


def test_colorization_reduces_candidates(corpus, get_key):
    """Paired ablation on the dense-candidate scenario, 5 RNG seeds."""
    program, key = get_key("poweron", "cmp_poweron")
    fi = FuzzInput(POWERON_INPUT)
    executor = lambda f: execute(program, f)
    rec = find_record(execute(program, fi), key)
    plain = solve(rec, fi, executor)
    assert plain.status is SolveStatus.SOLVED
    wins = 0
    for seed in range(1, 6):
        count = [0]

        def counting(f):
            count[0] += 1
            return execute(program, f)

        colored = colorize(rec, fi, counting, random.Random(seed))
        rec_c = find_record(counting(FuzzInput(colored.bytes)), key)
        res = solve(rec_c, colored, counting)
        assert res.status is SolveStatus.SOLVED
        if count[0] < plain.executions_used:
            wins += 1
    assert wins >= 4


def test_contraction_skips_decoy_byte():
    """A surplus character's value at a position that does not feed it.

    The sentinel write at 4 leaves observed[2] unchanged, so contraction
    passes over it and cuts the string at its source, 5.
    """
    inst = SyntheticInstance(base=b"qaqbcc", sources=(1, 3, 5),
                             ideal=b"XY", read_cursor=6)
    executor = make_executor(inst)
    fi = FuzzInput(inst.base)
    res = solve_with_alignments(executor(fi).comparisons[0], fi, executor)
    assert res.status is SolveStatus.SOLVED
    assert res.mapped == [(0, 1), (1, 3), (2, 5)]
    assert res.solved_input.bytes == b"qXqYc\x00"
    assert res.executions_used == 10


def test_synthetic_oracle_spot_checks():
    inst = SyntheticInstance(base=b"qaqbqc", sources=(1, 3, 5),
                             ideal=b"XYZ", read_cursor=6)
    executor = make_executor(inst)
    fi = FuzzInput(inst.base)
    rec = executor(fi).comparisons[0]
    res = solve_with_alignments(rec, fi, executor)
    assert res.status is SolveStatus.SOLVED
    assert brute_force_solvable(inst)

    blocked = SyntheticInstance(base=b"qaqbqc", sources=(1, 3, 5),
                                ideal=b"XYZ", read_cursor=4)
    rec_b = make_executor(blocked)(fi).comparisons[0]
    res_b = solve_with_alignments(rec_b, fi, make_executor(blocked))
    assert res_b.status is not SolveStatus.SOLVED
    assert not brute_force_solvable(blocked)


@pytest.mark.parametrize("name, label, data, status, mapped, offset, events", [
    ("contract_ok", "cmp_ok", b"wxyz", SolveStatus.SOLVED,
     [(0, 0), (1, 1), (2, 2)], 0,
     [("map", 2, 0, 0, "locked"), ("map", 3, 1, 1, "locked"),
      ("contract", 9, 2, 2, "solved")]),
    ("print_fp", "cmp_print", b"qq", SolveStatus.UNMAPPED_BYTE, [], 0,
     [("map", 1, 0, None, "unmapped")]),
    ("suffix_ok", "cmp_find", b"ab", SolveStatus.SOLVED, [(2, 0), (3, 1)], 2,
     [("map", 1, 0, None, "unmapped"), ("map", 2, 2, 0, "locked"),
      ("map", 3, 3, 1, "locked"), ("map", 3, None, None, "solved")]),
])
def test_alignment_event_log(get_key, name, label, data, status, mapped,
                             offset, events):
    """Mapping, contraction and tail alignment, event by event."""
    program, key = get_key(name, label)
    fi = FuzzInput(data)
    rec = find_record(execute(program, fi), key)
    log = []
    res = solve_with_alignments(rec, fi, lambda f: execute(program, f),
                                log=log.append)
    assert res.status is status
    assert res.mapped == mapped
    assert res.alignment_offset == offset
    assert res.executions_used == events[-1][1]
    assert log == [{"key": [key.cmp_id, 0], "phase": phase, "execs": execs,
                    "i": i, "j": j, "outcome": outcome}
                   for phase, execs, i, j, outcome in events]
