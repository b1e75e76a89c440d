"""Greybox fuzzer that solves scattered multi-byte string comparisons.

The target is a small deterministic virtual microcontroller whose
firmware-style programs consume the fuzz input as a byte stream, one
byte per peripheral register read.  String comparison call sites are
classified when the program is compiled (immediate pointer operands) or
when the call runs (register operands); a feedback-guided search maps
each observed string byte back to the input byte that produced it and
replaces it with the character the program wants.
"""

from .cmplog import CmpKey, ComparisonRecord
from .corpus import Scenario, load_corpus, load_scenario
from .coverage import CoverageMap
from .engine import Campaign, CampaignConfig, CampaignStats, run_campaign
from .errors import (ConfigError, InconsistentBaseline, MalformedProgram,
                     ParseError, ScatterFuzzError, ScenarioValidationError)
from .mwu import MannWhitneyResult, mann_whitney_u
from .program import FuzzInput, Instruction, TargetProgram
from .solver import (SolveResult, SolveStatus, colorize, naive_search, solve,
                     solve_with_alignments)
from .vm import ExecutionTrace, ExitReason, execute

__all__ = [
    "Campaign", "CampaignConfig", "CampaignStats", "CmpKey",
    "ComparisonRecord", "ConfigError", "CoverageMap", "ExecutionTrace",
    "ExitReason", "FuzzInput", "InconsistentBaseline", "Instruction",
    "MalformedProgram", "MannWhitneyResult", "ParseError", "ScatterFuzzError",
    "Scenario", "ScenarioValidationError", "SolveResult", "SolveStatus",
    "TargetProgram", "colorize", "execute", "load_corpus", "load_scenario",
    "mann_whitney_u", "naive_search", "run_campaign", "solve",
    "solve_with_alignments",
]

__version__ = "1.0.0"
