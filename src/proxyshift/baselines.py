"""Comparison estimators: oracle frequency, no adjustment, proxy adjustment.

Each baseline reads a ``(k_y, k_x, k_w)`` cell table: the pooled variants
the source counts summed over domains, the target variants the hidden target
cell counts, which exist only on counts simulated in benchmark mode (that
information is unavailable in practice, so these serve as references, not
competing methods).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError, ZeroDenominatorError
from .reduced import check_alpha, normal_quantile
from .scm import ContingencyCounts

POOLED = "pooled"
TARGET_SCOPE = "target"


def oracle_estimate(y_counts, y: int) -> float:
    """Empirical frequency of ``y`` in the ``(k_y,)`` outcome counts of draws
    from the intervention distribution itself."""
    counts = np.asarray(y_counts, dtype=np.int64).reshape(-1)
    total = int(counts.sum())
    if total == 0 or np.any(counts < 0):
        raise ValidationError("oracle_estimate requires non-negative counts of at least one draw")
    return float(counts[y] / total)


def _scope_table(counts: ContingencyCounts, scope: str) -> np.ndarray:
    """The ``(k_y, k_x, k_w)`` cell counts a baseline reads in ``scope``."""
    if scope == POOLED:
        return counts.n_yxwe.sum(axis=3)
    if scope == TARGET_SCOPE:
        if counts.n_yxw_target is None:
            raise ValidationError(
                "target-scope baselines need benchmark-mode counts carrying "
                "the hidden target treatment/outcome cells")
        return counts.n_yxw_target
    raise ValidationError(f"unknown scope {scope!r}, expected 'pooled' or 'target'")


def no_adjustment(counts: ContingencyCounts, x: int, y: int, scope: str = POOLED) -> float:
    """Conditional frequency of ``y`` given ``x``, ignoring confounding."""
    at_x = _scope_table(counts, scope)[:, x]
    denom = int(at_x.sum())
    if denom == 0:
        raise ZeroDenominatorError(f"no {scope} records with the requested treatment")
    return float(at_x[y].sum() / denom)


def w_adjustment(counts: ContingencyCounts, x: int, y: int, scope: str = POOLED) -> float:
    """Adjustment formula evaluated with the proxy in place of the
    confounder.

    Proxy cells with zero marginal mass are skipped (their mixture weight is
    zero); a cell with positive weight but no treated records raises
    :class:`ZeroDenominatorError`.
    """
    table = _scope_table(counts, scope)
    n = int(table.sum())
    if n == 0:
        raise ZeroDenominatorError(f"no {scope} records")
    total = 0.0
    for wj in range(table.shape[2]):
        weight = table[:, :, wj].sum() / n
        if weight == 0.0:
            continue
        denom = int(table[:, x, wj].sum())
        if denom == 0:
            raise ZeroDenominatorError(
                f"no {scope} records with the requested treatment and proxy cell {wj}")
        total += float(table[y, x, wj] / denom) * weight
    return total


def wald_interval(p_hat: float, n: int, alpha: float = 0.05) -> tuple[float, float]:
    """Normal-approximation interval for a binomial frequency, clipped to
    [0, 1]."""
    if n < 1:
        raise ValidationError("n must be positive")
    check_alpha(alpha)
    half = normal_quantile(1.0 - alpha / 2.0) * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n)
    return max(p_hat - half, 0.0), min(p_hat + half, 1.0)
