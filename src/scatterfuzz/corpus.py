"""Bundled scenario corpus: loading, ground truth, validation.

Each scenario ships as assembly text plus a manifest entry naming the
comparison call sites (by label) and the string each one checks for.
The loader resolves labels to static call-site ids and verifies the
declared strings against the program's ROM, so reports can never count
a "solved" string that the scenario does not actually contain.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .asm import parse_scenario
from .errors import ScenarioValidationError
from .program import TargetProgram
from .vm import read_target

CATEGORIES = frozenset({
    "guarded", "console", "interleaved", "scattered", "substring",
    "contraction", "false_positive", "no_strings",
})


@dataclass(frozen=True)
class ExpectedString:
    label: str
    cmp_id: int
    ideal: bytes


@dataclass
class Scenario:
    name: str
    category: str
    program: TargetProgram
    expected_strings: list[ExpectedString]
    source_path: str = ""


def label_to_cmp_id(program: TargetProgram, label: str) -> int:
    """Static id of the first CALL at or after the labeled instruction."""
    if label not in program.blocks:
        raise ScenarioValidationError(
            f"{program.name}: no label {label!r}")
    for idx in range(program.blocks[label], len(program.instructions)):
        if program.instructions[idx].opcode == "CALL":
            return idx
    raise ScenarioValidationError(
        f"{program.name}: no CALL after label {label!r}")


def resolve_expected(program: TargetProgram, pairs) -> list[ExpectedString]:
    """Resolve (label, string) ground truth against the program.

    Validates that the labeled CALL really carries a ROM pointer whose
    C string, as a builtin reads it, equals the declared one.
    """
    out = []
    for label, text in pairs:
        cmp_id = label_to_cmp_id(program, label)
        ins = program.instructions[cmp_id]
        rom_reads = [read_target(program, None, o[1])
                     for o in ins.operands[1:]
                     if o[0] == "imm" and program.in_rom(o[1])]
        want = text.encode() if isinstance(text, str) else bytes(text)
        if not any(s.partition(b"\0")[0] == want for s in rom_reads):
            raise ScenarioValidationError(
                f"{program.name}: CALL at {label!r} does not compare "
                f"against {want!r}")
        out.append(ExpectedString(label=label, cmp_id=cmp_id, ideal=want))
    return out


def _load_manifest_dir(root: Path) -> list[Scenario]:
    where = root / "manifest.json"
    try:
        manifest = json.loads(where.read_text())
    except (OSError, ValueError) as exc:
        raise ScenarioValidationError(f"{where}: {exc}") from None
    if not (isinstance(manifest, list)
            and all(isinstance(item, dict) for item in manifest)):
        raise ScenarioValidationError(f"{where}: not a list of objects")
    scenarios = []
    for item in manifest:
        missing = [k for k in ("name", "category", "file",
                               "expected_strings") if k not in item]
        if missing:
            raise ScenarioValidationError(
                f"{where}: entry {item} lacks {', '.join(missing)}")
        if not all(isinstance(item[k], str)
                   for k in ("name", "category", "file")):
            raise ScenarioValidationError(
                f"{where}: entry {item}: name, category and file must be "
                f"strings")
        if item["category"] not in CATEGORIES:
            raise ScenarioValidationError(
                f"{item['name']}: unknown category {item['category']!r}")
        pairs = item["expected_strings"]
        if not (isinstance(pairs, list)
                and all(isinstance(pair, list) and len(pair) == 2
                        and all(isinstance(x, str) for x in pair)
                        for pair in pairs)):
            raise ScenarioValidationError(
                f"{item['name']}: expected_strings must be a list of "
                f"[label, string] pairs")
        path = root / item["file"]
        try:
            text = path.read_text()
        except (OSError, ValueError) as exc:
            raise ScenarioValidationError(f"{path}: {exc}") from None
        program = parse_scenario(text, name=item["name"])
        scenarios.append(Scenario(
            name=item["name"],
            category=item["category"],
            program=program,
            expected_strings=resolve_expected(program, pairs),
            source_path=str(path),
        ))
    return scenarios


def bundled_dir() -> Path:
    return Path(resources.files("scatterfuzz") / "scenarios")


def load_corpus(corpus_dir=None) -> list[Scenario]:
    """Load all scenarios from a directory (bundled corpus by default)."""
    root = Path(corpus_dir) if corpus_dir is not None else bundled_dir()
    return _load_manifest_dir(root)


def load_scenario(name_or_path, corpus_dir=None) -> Scenario:
    """Load one scenario by bundled name or by .s file path.

    An ad-hoc .s file has no manifest entry, so its category is empty.
    """
    text = str(name_or_path)
    if text.endswith(".s") and Path(text).exists():
        path = Path(text)
        program = parse_scenario(path.read_text(), name=path.stem)
        return Scenario(name=path.stem, category="",
                        program=program, expected_strings=[],
                        source_path=str(path))
    for scenario in load_corpus(corpus_dir):
        if scenario.name == text:
            return scenario
    raise ScenarioValidationError(f"no such scenario {text!r}")
