"""Command-line front end.

Subcommands: ``fuzz`` runs one campaign, ``bench`` runs the trial
matrix, ``solve`` runs one search-and-replace attempt against a single
labeled comparison (debugging aid), ``report`` renders a previously
written campaign or benchmark directory.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import bench as bench_mod
from .cmplog import CmpKey, find_record
from .corpus import label_to_cmp_id, load_corpus, load_scenario
from .engine import CampaignConfig, run_campaign
from .errors import ConfigError
from .program import FuzzInput
from .solver import solve_with_alignments
from .vm import execute


def _add_switches(p):
    p.add_argument("--seed", type=int, default=0, help="campaign RNG seed")
    p.add_argument("--execs", type=int, default=100_000,
                   help="execution budget")
    p.add_argument("--no-solver", action="store_true",
                   help="disable the comparison solver stage")
    p.add_argument("--no-color", action="store_true",
                   help="disable colorization before solving")
    p.add_argument("--no-lenfb", action="store_true",
                   help="disable string-length feedback bits")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="scatterfuzz",
        description="Greybox fuzzer with feedback-guided string solving "
                    "for a stream-input virtual target.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fuzz", help="run one fuzzing campaign")
    p.add_argument("scenario", help="bundled scenario name or .s file path")
    _add_switches(p)
    p.add_argument("--out", default=None, help="campaign output directory")

    p = sub.add_parser("bench", help="run the benchmark trial matrix")
    p.add_argument("--corpus", default=None,
                   help="scenario directory (bundled corpus by default)")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--matrix", default=None,
                   help="JSON file: list of switch objects")
    p.add_argument("--out", default=None, help="report output directory")

    p = sub.add_parser("solve", help="one-shot solve of a labeled comparison")
    p.add_argument("scenario")
    p.add_argument("input_file")
    p.add_argument("--cmp", required=True, help="comparison label")

    p = sub.add_parser("report", help="render a written output directory")
    p.add_argument("dir")
    return parser


def _load(path, parse):
    """parse(the bytes of file path), raising ConfigError naming path when
    the file cannot be read or parsed."""
    try:
        return parse(Path(path).read_bytes())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def cmd_fuzz(args):
    scenario = load_scenario(args.scenario)
    config = CampaignConfig(
        rng_seed=args.seed,
        max_executions=args.execs,
        solver_enabled=not args.no_solver,
        colorization_enabled=not args.no_color,
        length_feedback_enabled=not args.no_lenfb,
    )
    t0 = time.monotonic()
    stats = run_campaign(scenario.program, config, out_dir=args.out)
    dt = time.monotonic() - t0
    print(f"scenario {scenario.name}: {stats.executions} executions "
          f"in {dt:.1f}s ({stats.executions / max(dt, 1e-9):.0f}/s)")
    print(f"  queue {stats.queue_len}, blocks {stats.unique_blocks}, "
          f"edges {stats.edges_covered}, crashes {stats.unique_crashes}")
    print(f"  comparisons solved: {len(stats.solved_comparisons)} "
          f"(solver attempts {stats.solver_attempts}, "
          f"solved by stage {stats.solver_solved})")
    return 0


def cmd_bench(args):
    scenarios = load_corpus(args.corpus)
    if args.matrix:
        matrix = _load(args.matrix, json.loads)
    else:
        matrix = [{"solver": True}, {"solver": False}]
    reports = bench_mod.run_bench(scenarios, args.trials, matrix)
    text, machine = bench_mod.report(reports)
    print(text, end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.txt").write_text(text)
        (out / "report.json").write_text(
            json.dumps(machine, indent=2) + "\n")
    return 0


def cmd_solve(args):
    scenario = load_scenario(args.scenario)
    program = scenario.program
    cmp_id = label_to_cmp_id(program, args.cmp)
    base = _load(args.input_file, FuzzInput)
    rec = find_record(execute(program, base), CmpKey(cmp_id, 0))
    if rec is None:
        print(f"input does not reach comparison {args.cmp!r} "
              f"(call site {cmp_id})", file=sys.stderr)
        return 1

    events = []
    result = solve_with_alignments(
        rec, base, lambda fi: execute(program, fi), log=events.append)
    for ev in events:
        print(json.dumps(ev))
    print(f"status: {result.status.value}")
    print(f"executions: {result.executions_used}")
    print(f"mapped positions: {result.mapped}")
    if result.solved_input is not None:
        print(f"solved input (hex): {result.solved_input.bytes.hex()}")
    return 0 if result.solved_input is not None else 2


def cmd_report(args):
    root = Path(args.dir)
    if (root / "report.json").exists():
        machine = _load(root / "report.json", json.loads)
        if (root / "report.txt").exists():
            print((root / "report.txt").read_text(), end="")
        else:
            print(json.dumps(machine, indent=2))
        return 0
    if (root / "summary.json").exists():
        summary = _load(root / "summary.json", json.loads)
        print(f"campaign {root}")
        for key, val in summary.items():
            print(f"  {key}: {val}")
        return 0
    print(f"{root}: no report.json or summary.json found", file=sys.stderr)
    return 1


def main(argv=None):
    args = build_parser().parse_args(argv)
    handler = {
        "fuzz": cmd_fuzz,
        "bench": cmd_bench,
        "solve": cmd_solve,
        "report": cmd_report,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
