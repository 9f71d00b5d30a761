"""Comparison estimators: oracle frequency, no adjustment, proxy adjustment.

The pooled variants use the source records; the target variants use the
treatment/outcome columns of target records, which exist only on datasets
simulated in benchmark mode (that information is unavailable in practice, so
these serve as references, not competing methods).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError, ZeroDenominatorError
from .reduced import normal_quantile
from .scm import TARGET, Dataset

POOLED = "pooled"
TARGET_SCOPE = "target"


def oracle_estimate(y_draws, y: int) -> float:
    """Empirical frequency of ``y`` among draws from the intervention
    distribution itself."""
    draws = np.asarray(y_draws, dtype=np.int64).reshape(-1)
    if draws.size == 0:
        raise ValidationError("oracle_estimate requires at least one draw")
    return float(np.mean(draws == y))


def _scope_arrays(ds: Dataset, scope: str):
    if scope == POOLED:
        src = ds.domain != TARGET
        return ds.w[src], ds.x[src], ds.y[src]
    if scope == TARGET_SCOPE:
        if ds.target_xy is None:
            raise ValidationError(
                "target-scope baselines need a benchmark-mode dataset carrying "
                "the hidden target treatment/outcome columns")
        tgt = ds.domain == TARGET
        tx, ty = ds.target_xy
        return ds.w[tgt], tx, ty
    raise ValidationError(f"unknown scope {scope!r}, expected 'pooled' or 'target'")


def no_adjustment(ds: Dataset, x: int, y: int, scope: str = POOLED) -> float:
    """Conditional frequency of ``y`` given ``x``, ignoring confounding."""
    _, xs, ys = _scope_arrays(ds, scope)
    at_x = xs == x
    denom = int(at_x.sum())
    if denom == 0:
        raise ZeroDenominatorError(f"no {scope} records with the requested treatment")
    return float(np.mean(ys[at_x] == y))


def w_adjustment(ds: Dataset, x: int, y: int, scope: str = POOLED) -> float:
    """Adjustment formula evaluated with the proxy in place of the
    confounder.

    Proxy cells with zero marginal mass are skipped (their mixture weight is
    zero); a cell with positive weight but no treated records raises
    :class:`ZeroDenominatorError`.
    """
    ws, xs, ys = _scope_arrays(ds, scope)
    n = ws.size
    if n == 0:
        raise ZeroDenominatorError(f"no {scope} records")
    total = 0.0
    for wj in range(ds.dims.k_w):
        at_w = ws == wj
        weight = at_w.sum() / n
        if weight == 0.0:
            continue
        at_wx = at_w & (xs == x)
        denom = int(at_wx.sum())
        if denom == 0:
            raise ZeroDenominatorError(
                f"no {scope} records with the requested treatment and proxy cell {wj}")
        total += float(np.mean(ys[at_wx] == y)) * weight
    return total


def wald_interval(p_hat: float, n: int, alpha: float = 0.05) -> tuple[float, float]:
    """Normal-approximation interval for a binomial frequency, clipped to
    [0, 1]."""
    if n < 1:
        raise ValidationError("n must be positive")
    half = normal_quantile(1.0 - alpha / 2.0) * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n)
    return max(p_hat - half, 0.0), min(p_hat + half, 1.0)
