"""Benchmark runner: executions-to-solve tables across config ablations.

For every scenario and configuration the runner fuzzes `trials`
campaigns with RNG seeds 1..trials and records, per expected string,
the execution count at which the campaign first satisfied that
comparison.  Trials that exhaust the budget first are censored: they
render as ">budget" and never enter a numeric aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .engine import CampaignConfig, run_campaign
from .errors import ConfigError
from .mwu import mann_whitney_u

DEFAULT_BENCH_EXECS = 20_000

# A matrix entry toggles these switches; anything unset keeps defaults.
SWITCH_KEYS = ("solver", "color", "lenfb", "execs")


@dataclass
class TrialOutcome:
    seed: int
    solves: dict            # label -> execution index or None (censored)
    unique_blocks: int
    crashes: int


@dataclass
class TrialReport:
    scenario: str
    category: str
    config_digest: str
    budget: int
    trials: list[TrialOutcome] = field(default_factory=list)

    def per_string(self):
        """label -> list of (execution index | None), one per trial."""
        labels = {}
        for t in self.trials:
            for label, val in t.solves.items():
                labels.setdefault(label, []).append(val)
        return labels

    def aggregates(self):
        """label -> dict with min/median/max, censored rendered ">N"."""
        out = {}
        for label, vals in self.per_string().items():
            out[label] = {
                "min": _render(_cmin(vals), self.budget),
                "median": _render(_cmedian(vals), self.budget),
                "max": _render(_cmax(vals), self.budget),
                "solved_trials": sum(v is not None for v in vals),
                "total_trials": len(vals),
            }
        return out

    def block_counts(self):
        return [t.unique_blocks for t in self.trials]


def _cmin(vals):
    finite = [v for v in vals if v is not None]
    return min(finite) if finite else None


def _cmax(vals):
    # A single censored trial makes the maximum censored.
    return None if any(v is None for v in vals) else max(vals)


def _cmedian(vals):
    # Censored values sort as +infinity.
    ordered = sorted(vals, key=lambda v: (v is None, v))
    n = len(ordered)
    if n % 2 == 1:
        return ordered[n // 2]
    a, b = ordered[n // 2 - 1], ordered[n // 2]
    if a is None or b is None:
        return None
    return (a + b) / 2


def _render(value, budget):
    return f">{budget}" if value is None else value


def config_from_switches(switches: dict, seed: int) -> CampaignConfig:
    """One matrix entry as a campaign config; ConfigError if malformed."""
    if not isinstance(switches, dict):
        raise ConfigError(f"matrix entry {switches!r} is not an object")
    unknown = sorted(set(switches) - set(SWITCH_KEYS))
    if unknown:
        raise ConfigError(f"unknown matrix switches {unknown}")
    for key in ("solver", "color", "lenfb"):
        if not isinstance(switches.get(key, True), bool):
            raise ConfigError(f"matrix switch {key!r} must be true or false")
    execs = switches.get("execs", DEFAULT_BENCH_EXECS)
    if isinstance(execs, bool) or not isinstance(execs, int):
        raise ConfigError("matrix switch 'execs' must be an integer")
    return CampaignConfig(
        rng_seed=seed,
        max_executions=execs,
        solver_enabled=switches.get("solver", True),
        colorization_enabled=switches.get("color", True),
        length_feedback_enabled=switches.get("lenfb", True),
    )


def run_trial(scenario, switches: dict, seed: int) -> TrialOutcome:
    config = config_from_switches(switches, seed)
    stats = run_campaign(scenario.program, config)
    solves = {}
    for exp in scenario.expected_strings:
        solves[exp.label] = stats.solved_comparisons.get(exp.cmp_id)
    return TrialOutcome(seed=seed, solves=solves,
                        unique_blocks=stats.unique_blocks,
                        crashes=stats.unique_crashes)


def run_bench(scenarios, trials: int, config_matrix) -> list[TrialReport]:
    """Run trials x configs campaigns per scenario, RNG seeds 1..trials."""
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    # The whole matrix is checked before the first campaign runs.
    if not isinstance(config_matrix, list):
        raise ConfigError("config matrix must be a list of switch objects")
    arms = [(switches, config_from_switches(switches, 0))
            for switches in config_matrix]
    reports = []
    for scenario in scenarios:
        for switches, config in arms:
            report_obj = TrialReport(
                scenario=scenario.name,
                category=scenario.category,
                config_digest=config.digest(),
                budget=config.max_executions)
            for seed in range(1, trials + 1):
                report_obj.trials.append(run_trial(scenario, switches, seed))
            reports.append(report_obj)
    return reports


def report(reports) -> tuple[str, dict]:
    """Render benchmark reports as text tables plus mirroring JSON."""
    lines = []
    machine = {"reports": []}
    for rep in reports:
        lines.append(f"scenario {rep.scenario} [{rep.category}] "
                     f"config {rep.config_digest} "
                     f"budget {rep.budget} trials {len(rep.trials)}")
        aggs = rep.aggregates()
        if aggs:
            width = max(len(label) for label in aggs)
            lines.append(f"  {'string':<{width}}  {'min':>10}  "
                         f"{'median':>10}  {'max':>10}  solved")
            for label, agg in sorted(aggs.items()):
                lines.append(
                    f"  {label:<{width}}  {agg['min']:>10}  "
                    f"{agg['median']:>10}  {agg['max']:>10}  "
                    f"{agg['solved_trials']}/{agg['total_trials']}")
        else:
            lines.append("  (no expected strings)")
        blocks = rep.block_counts()
        lines.append(f"  blocks per trial: {blocks}")
        lines.append("")
        machine["reports"].append({
            "scenario": rep.scenario,
            "category": rep.category,
            "config": rep.config_digest,
            "budget": rep.budget,
            "aggregates": aggs,
            "per_string": {k: [_render(v, rep.budget) for v in vals]
                           for k, vals in rep.per_string().items()},
            "blocks": blocks,
            "crashes": [t.crashes for t in rep.trials],
        })

    # Pairwise ablation deltas: same scenario, different switch sets,
    # Mann-Whitney U on the final block counts.
    by_scenario = {}
    for rep in reports:
        by_scenario.setdefault(rep.scenario, []).append(rep)
    for name, group in by_scenario.items():
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                res = mann_whitney_u(group[i].block_counts(),
                                     group[j].block_counts())
                lines.append(
                    f"mwu {name}: {group[i].config_digest} vs "
                    f"{group[j].config_digest}: U={res.u} "
                    f"p={res.p_value:.4f} ({res.method}"
                    f"{', degenerate' if res.degenerate else ''})")
                machine["reports"].append({
                    "scenario": name, "kind": "mwu",
                    "a": group[i].config_digest,
                    "b": group[j].config_digest,
                    "u": res.u, "p": res.p_value, "method": res.method,
                    "degenerate": res.degenerate,
                })
    return "\n".join(lines) + "\n", machine
