#!/usr/bin/env python3
"""Print one deterministic line per campaign of the bundled corpus.

Covers every bundled scenario x solver on/off x seeds 1-3 at 20k
executions.  Each line holds the scenario, the solver arm, the seed, the
campaign's CampaignStats, a SHA-256 of the scenario's parsed program
(instructions, ROM, RAM size, peripherals, labels and block starts), the
coverage bit count, a SHA-256 of the queue, one SHA-256 each over the
campaign's stats.jsonl and solver.jsonl lines, a SHA-256 of the
coverage bitmap as bitmap.bin stores it, and a SHA-256 over the
(execution id, input) pairs the crashes/ directory stores.  Two
checkouts that behave the same print the same text, so a change meant
to keep behaviour is checked by diffing this output before and after
it.  Run from the repository root:

    python tools/campaign_digest.py > digest.txt
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from scatterfuzz import Campaign, CampaignConfig, load_corpus  # noqa: E402

EXECUTIONS = 20_000
SEEDS = (1, 2, 3)


def digest_line(scenario, solver, seed):
    config = CampaignConfig(rng_seed=seed, max_executions=EXECUTIONS,
                            solver_enabled=solver)
    campaign = Campaign(scenario.program, config)
    stats = campaign.run()
    queue = hashlib.sha256()
    for entry in campaign.queue:
        queue.update(len(entry.data).to_bytes(4, "little") + entry.data)
    arm = "solver-on" if solver else "solver-off"
    return (f"{scenario.name} {arm} seed{seed} "
            f"{json.dumps(dataclasses.asdict(stats), sort_keys=True)} "
            f"program={program_digest(scenario.program)} "
            f"bits={campaign.cov.bit_count()} queue={queue.hexdigest()} "
            f"stats={lines_digest(campaign._stats_lines)} "
            f"solver={lines_digest(campaign._solver_lines)} "
            f"bitmap={hashlib.sha256(campaign.cov.to_bytes()).hexdigest()} "
            f"crashes={crashes_digest(campaign._crash_blobs)}")


def program_digest(program):
    """SHA-256 of what the assembler and validator made of a scenario."""
    parsed = (program.instructions, program.rom, program.ram_size,
              program.periphs, program.blocks, program.block_starts)
    return hashlib.sha256(repr(parsed).encode()).hexdigest()


def lines_digest(lines):
    """SHA-256 of a line stream as the campaign directory stores it."""
    return hashlib.sha256("".join(f"{line}\n" for line in lines)
                          .encode()).hexdigest()


def crashes_digest(blobs):
    """SHA-256 of the crashes/ directory: each file's exec id and bytes."""
    h = hashlib.sha256()
    for exec_id, blob in blobs:
        h.update(exec_id.to_bytes(8, "little")
                 + len(blob).to_bytes(4, "little") + blob)
    return h.hexdigest()


def main():
    for scenario in load_corpus():
        for solver in (True, False):
            for seed in SEEDS:
                print(digest_line(scenario, solver, seed), flush=True)


if __name__ == "__main__":
    main()
