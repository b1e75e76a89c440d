"""Mann-Whitney U test for comparing benchmark trial outcomes.

Small samples (both sides at most 7 observations) get an exact
two-sided p-value by enumerating every group assignment; larger samples
use the tie-corrected normal approximation with continuity correction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

EXACT_LIMIT = 7


@dataclass(frozen=True)
class MannWhitneyResult:
    u: float
    p_value: float
    method: str          # "exact" or "normal"
    degenerate: bool


def _u_statistic(a, b):
    """U for sample a, counting ties as half wins."""
    u = 0.0
    for x in a:
        for y in b:
            if x > y:
                u += 1.0
            elif x == y:
                u += 0.5
    return u


def mann_whitney_u(a, b) -> MannWhitneyResult:
    """Two-sided Mann-Whitney U test on two independent samples."""
    a = [float(x) for x in a]
    b = [float(x) for x in b]
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        raise ValueError("both samples must be non-empty")

    u_obs = _u_statistic(a, b)
    pooled = a + b
    if len(set(pooled)) == 1:
        return MannWhitneyResult(u=u_obs, p_value=1.0, method="exact",
                                 degenerate=True)

    if n <= EXACT_LIMIT and m <= EXACT_LIMIT:
        mean = n * m / 2
        d_obs = abs(u_obs - mean)
        total = math.comb(n + m, n)
        hits = 0
        idx = list(range(n + m))
        for combo in itertools.combinations(idx, n):
            in_a = set(combo)
            ga = [pooled[i] for i in combo]
            gb = [pooled[i] for i in idx if i not in in_a]
            if abs(_u_statistic(ga, gb) - mean) >= d_obs - 1e-12:
                hits += 1
        return MannWhitneyResult(u=u_obs, p_value=hits / total,
                                 method="exact", degenerate=False)

    # Normal approximation with tie correction.
    nm = n + m
    tie_term = 0.0
    seen = {}
    for v in pooled:
        seen[v] = seen.get(v, 0) + 1
    for t in seen.values():
        tie_term += t ** 3 - t
    var = n * m / 12 * (nm + 1 - tie_term / (nm * (nm - 1)))
    if var <= 0:
        return MannWhitneyResult(u=u_obs, p_value=1.0, method="normal",
                                 degenerate=True)
    mean = n * m / 2
    z = (abs(u_obs - mean) - 0.5) / math.sqrt(var)
    z = max(z, 0.0)
    p = 2 * (1 - 0.5 * (1 + math.erf(z / math.sqrt(2))))
    return MannWhitneyResult(u=u_obs, p_value=min(p, 1.0), method="normal",
                             degenerate=False)
