"""Comparison detection, record snapshots, verdicts, hit indexing, caps."""

from scatterfuzz import FuzzInput, execute
from scatterfuzz.asm import parse_scenario
from scatterfuzz.cmplog import MAX_HITS_PER_SITE, CmpKey, find_record
from scatterfuzz.corpus import label_to_cmp_id


def test_detect_requires_one_rom_one_ram():
    """The VM logs a call iff one pointer is ROM and the other RAM."""
    text = ('.rom w "hi\\0"\n.ram 8\n'
            '  STORE ram+0, 104\n  STORE ram+1, 111\n  LOADI r3, 5\n'
            'rom_ram:\n  CALL STRCMP, w, ram\n'
            'ram_rom:\n  CALL STRCMP, ram, w\n'
            'rom_rom:\n  CALL STRCMP, w, w\n'
            'ram_ram:\n  CALL STRCMP, ram, ram\n'
            'bad_ram:\n  CALL STRCMP, r3, ram\n  HALT\n')
    program = parse_scenario(text)
    trace = execute(program, FuzzInput(b""))
    assert [r.cmp_id for r in trace.comparisons] == [
        label_to_cmp_id(program, "rom_ram"),
        label_to_cmp_id(program, "ram_rom")]
    for rec in trace.comparisons:
        assert rec.ideal_str == b"hi"
        assert rec.observed_str == b"ho"
        assert not rec.is_solved()


def test_print_call_is_logged_as_candidate(corpus):
    """Two-pointer detection deliberately flags the PRINT false positive."""
    program = corpus["print_fp"].program
    trace = execute(program, FuzzInput(b"xx"))
    rec = trace.comparisons[0]
    assert rec.ideal_str == b"Device up"
    assert rec.observed_str == b"De"
    assert program.instructions[rec.cmp_id].operands[0] == \
        ("builtin", "PRINT")


def test_snapshot_semantics(corpus):
    program = corpus["contract_ok"].program
    trace = execute(program, FuzzInput(b"wxyz"))
    rec = trace.comparisons[0]
    assert rec.observed[:5] == b"wxyz\x00"
    assert rec.observed_len == 4
    assert rec.ideal_str == b"OK"
    assert rec.read_cursor == 4
    assert not rec.is_solved()
    solved = execute(program, FuzzInput(b"OK\x00z")).comparisons[0]
    assert solved.is_solved()
    # STRSTR is satisfied by a substring: the verdict is the builtin's.
    found = execute(corpus["suffix_ok"].program,
                    FuzzInput(b"OK")).comparisons[0]
    assert found.observed_str == b"xxOK"
    assert found.is_solved()
    # PRINT is a logged false positive and is never satisfied.
    for data in (b"", b"x", b"De", b"Device up", bytes(range(256))):
        fp = execute(corpus["print_fp"].program, FuzzInput(data))
        assert not any(r.is_solved() for r in fp.comparisons)
    text = ('.rom w "hi\\0"\n.ram 8\n  STORE ram+0, 104\n'
            '  STORE ram+1, 105\n  CALL PRINT, w, ram\n  HALT\n')
    equal = execute(parse_scenario(text), FuzzInput(b"")).comparisons[0]
    assert equal.observed_str == equal.ideal_str == b"hi"
    assert not equal.is_solved()


def test_cmp_id_is_static_site(corpus):
    program = corpus["console"].program
    t1 = execute(program, FuzzInput(b"ps\n"))
    t2 = execute(program, FuzzInput(b"zz\n"))
    assert [r.cmp_id for r in t1.comparisons][:1] == \
           [r.cmp_id for r in t2.comparisons][:1]


def test_hit_index_disambiguates_loop_hits():
    text = ('.rom w "hi\\0"\n.ram 8\n.periph p\n'
            'top:\n  READ_REG r1, p\n  STORE ram+0, r1\n'
            '  CALL STRCMP, w, ram\n  JMP top\n')
    program = parse_scenario(text)
    trace = execute(program, FuzzInput(b"abc"))
    keys = [(r.cmp_id, r.hit_index) for r in trace.comparisons]
    assert len(keys) == 3
    assert len(set(keys)) == 3
    assert [k[1] for k in keys] == [0, 1, 2]
    assert [r.read_cursor for r in trace.comparisons] == [1, 2, 3]


def test_hits_per_site_cap():
    text = ('.rom w "hi\\0"\n.ram 8\n.periph p\n'
            'top:\n  READ_REG r1, p\n'
            '  CALL STRCMP, w, ram\n  JMP top\n')
    program = parse_scenario(text)
    trace = execute(program, FuzzInput(bytes(100)))
    assert len(trace.comparisons) == MAX_HITS_PER_SITE
    assert trace.cmp_overflow == 100 - MAX_HITS_PER_SITE


def test_trace_accessors(corpus):
    program = corpus["interleaved_ac"].program
    trace = execute(program, FuzzInput(b"0123456789"))
    key = trace.comparisons[0].key
    assert find_record(trace, key).read_cursor == 9
    assert find_record(trace, key).observed[:2] == b"14"
    assert find_record(trace, CmpKey(9999, 0)) is None
