"""Corpus loading, ground-truth resolution, category coverage."""

import importlib.util
from pathlib import Path

import pytest

from scatterfuzz import FuzzInput, execute, load_corpus, load_scenario
from scatterfuzz.corpus import (CATEGORIES, bundled_dir, label_to_cmp_id,
                                resolve_expected)
from scatterfuzz.errors import ScenarioValidationError


def test_all_scenarios_load(corpus):
    assert len(corpus) >= 12
    for scenario in corpus.values():
        assert scenario.category in CATEGORIES
        assert scenario.program.instructions


def test_categories_covered(corpus):
    present = {s.category for s in corpus.values()}
    assert present == CATEGORIES
    no_strings = [s for s in corpus.values() if s.category == "no_strings"]
    assert len(no_strings) == 3


def test_ground_truth_sound(corpus):
    """Every declared string is the ROM constant at its labeled CALL."""
    for scenario in corpus.values():
        for exp in scenario.expected_strings:
            ins = scenario.program.instructions[exp.cmp_id]
            assert ins.opcode == "CALL"
            rom_args = [o[1] for o in ins.operands[1:]
                        if o[0] == "imm" and scenario.program.in_rom(o[1])]
            assert rom_args


def test_expected_strings_reachable_as_ideal(corpus, get_key):
    """A long-enough input reaches each comparison with the declared ideal."""
    probes = {
        "modem_ok": b"\xffO\xffK\xff4\xff2zzzzX",
        "interleaved_ac": bytes(10),
        "routes_cmd": b"x" * 54,
        "poweron": b"x" * 112,
        "console": b"x" * 12,
        "suffix_ok": b"xx",
        "contract_ok": b"xxxx",
        "print_fp": b"xx",
        "quad_wxyz": b"x" * 16,
    }
    for name, data in probes.items():
        scenario = corpus[name]
        trace = execute(scenario.program, FuzzInput(data))
        by_id = {r.cmp_id: r for r in trace.comparisons}
        for exp in scenario.expected_strings:
            rec = by_id[exp.cmp_id]
            assert rec.ideal_str == exp.ideal, (name, exp.label)


def test_label_to_cmp_id_errors(corpus):
    program = corpus["interleaved_ac"].program
    with pytest.raises(ScenarioValidationError):
        label_to_cmp_id(program, "missing_label")
    with pytest.raises(ScenarioValidationError):
        label_to_cmp_id(program, "matched")  # no CALL after this label


def test_resolve_expected_mismatch(corpus):
    program = corpus["interleaved_ac"].program
    with pytest.raises(ScenarioValidationError):
        resolve_expected(program, [("cmp_ac", "WRONG")])


def test_load_scenario_by_name_and_missing():
    assert load_scenario("interleaved_ac").name == "interleaved_ac"
    with pytest.raises(ScenarioValidationError):
        load_scenario("does_not_exist")


def test_load_scenario_from_path(tmp_path):
    path = tmp_path / "tiny.s"
    path.write_text('.rom s "a\\0"\n.ram 8\n  HALT\n')
    scenario = load_scenario(str(path))
    assert scenario.name == "tiny"
    assert scenario.program.rom == b"a\x00"


def test_load_corpus_from_explicit_dir():
    scenarios = load_corpus(bundled_dir())
    assert {s.name for s in scenarios} == \
        {s.name for s in load_corpus()}


def test_make_corpus_reproduces_bundled(tmp_path):
    """tools/make_corpus.py regenerates the bundled scenarios byte for byte."""
    tool = Path(__file__).resolve().parent.parent / "tools/make_corpus.py"
    spec = importlib.util.spec_from_file_location("make_corpus", tool)
    make_corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_corpus)
    make_corpus.main(tmp_path)
    bundled = {p.name for p in bundled_dir().iterdir()
               if p.suffix == ".s" or p.name == "manifest.json"}
    assert {p.name for p in tmp_path.iterdir()} == bundled
    for name in bundled:
        assert (tmp_path / name).read_bytes() == \
            (bundled_dir() / name).read_bytes(), name


ENTRY = ('[{"name": "x", "category": %s, "file": %s, '
         '"expected_strings": %s}]')


@pytest.mark.parametrize("manifest", [
    None,                                     # no manifest.json
    '[{"name": "x"',                          # JSON syntax error
    '{"name": "x"}',                          # not a list
    "[5]",                                    # an entry is not an object
    '[{"name": "x"}]',                        # entry lacks keys
    '[{"name": "x", "category": "guarded", "file": "x.s"}]',
    ENTRY % ('"guarded"', '"missing.s"', "[]"),     # file does not exist
    ENTRY % ('"guarded"', "5", "[]"),               # file is not a string
    ENTRY % ('"guarded"', '"."', "[]"),             # file is a directory
    ENTRY % ('"guarded"', '"x.s"', "5"),            # pairs not a list
    ENTRY % ('"guarded"', '"x.s"', '[["label"]]'),  # pair lacks its string
    ENTRY % ('"guarded"', '"x.s"', '"ab"'),         # pairs is a string
    ENTRY % ('["guarded"]', '"x.s"', "[]"),         # category is a list
])
def test_malformed_manifest_rejected(tmp_path, manifest):
    (tmp_path / "x.s").write_text('.rom s "a\\0"\n.ram 8\n  HALT\n')
    if manifest is not None:
        (tmp_path / "manifest.json").write_text(manifest)
    with pytest.raises(ScenarioValidationError):
        load_corpus(tmp_path)
