"""Plug-in estimator over the observable statistic vector, with confidence
intervals.

For a fixed ``(x, y)`` the estimator summarises the sample by a vector of
empirical cell probabilities (the mean of per-record indicator vectors),
rebuilds the three pieces of the identification formula from it by ratios
and complements, and applies the pseudo-inverse adjustment.  Asymptotic
normality of the indicator means propagates through the map by the delta
method, giving closed-form standard errors; a normal-approximation bootstrap
is available as an alternative interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .categorical import (RANK_REL_TOL, condition_number, stacked_right_pseudoinverse,
                          stacked_row_rank)
from .errors import BootstrapError, EmptyCellError, ProxyShiftError, ValidationError
from .scm import ContingencyCounts, Dataset, contingency_counts

#: Additive perturbation applied to the proxy-cell components when the
#: estimated proxy conditional matrix is rank-deficient (keeps the
#: pseudo-inverse defined on a vanishing-probability event).
RANK_PERTURBATION_EPS = 1e-9

_FD_STEP = 1e-6


def normal_quantile(beta: float) -> float:
    """Standard-normal quantile (inverse cdf)."""
    # imported here so that starting the CLI does not load scipy
    from scipy.special import ndtri

    return float(ndtri(beta))


@dataclass(frozen=True)
class EstimateFlags:
    """Diagnostic flags attached to an effect estimate."""

    rank_perturbed: bool = False
    clipped_point: bool = False
    clipped_ci: bool = False
    empty_cell: bool = False


@dataclass(frozen=True)
class EffectEstimate:
    """A point estimate of the target-domain causal effect with diagnostics.

    ``point`` is clipped to [0, 1]; the unclipped value and, when a
    confidence interval was computed, both clipped and unclipped interval
    bounds are retained.  ``kappa_hat`` is the condition number of the
    estimated proxy conditional matrix (before any rank perturbation).
    """

    point: float
    point_unclipped: float
    n: int
    alpha: float | None = None
    sigma_hat: float | None = None
    ci_lower: float | None = None
    ci_upper: float | None = None
    ci_lower_unclipped: float | None = None
    ci_upper_unclipped: float | None = None
    kappa_hat: float | None = None
    flags: EstimateFlags = EstimateFlags()

    def to_dict(self) -> dict:
        out = {
            "point": self.point,
            "point_unclipped": self.point_unclipped,
            "n": self.n,
            "alpha": self.alpha,
            "sigma_hat": self.sigma_hat,
            "ci_lower": self.ci_lower,
            "ci_upper": self.ci_upper,
            "ci_lower_unclipped": self.ci_lower_unclipped,
            "ci_upper_unclipped": self.ci_upper_unclipped,
            "kappa_hat": self.kappa_hat,
            "flags": {
                "rank_perturbed": self.flags.rank_perturbed,
                "clipped_point": self.flags.clipped_point,
                "clipped_ci": self.flags.clipped_ci,
                "empty_cell": self.flags.empty_cell,
            },
        }
        return out


@dataclass(frozen=True, eq=False)
class EtaVector:
    """Empirical cell-probability vector for one ``(x, y)`` with its sample
    covariance.

    Layout (length ``k_w + (k_w + 1) * k_e``):
    target proxy cells ``q(w_j, e_T)`` for ``j < k_w - 1``; the target mass
    ``q(e_T)``; proxy-treatment cells ``p(w_j, x, e_l)`` for ``j < k_w - 1``
    grouped by domain; outcome cells ``p(y, x, e_l)``; treatment cells
    ``p(x, e_l)``.  The last proxy category is implicit (complements).
    """

    values: np.ndarray
    cov: np.ndarray
    n: int
    k_w: int
    k_e: int

    def __post_init__(self):
        k_eta = self.k_w + (self.k_w + 1) * self.k_e
        v = np.asarray(self.values, dtype=float)
        c = np.asarray(self.cov, dtype=float)
        if v.shape != (k_eta,) or c.shape != (k_eta, k_eta):
            raise ValidationError(
                f"eta vector/covariance shapes {v.shape}/{c.shape} do not match "
                f"k_eta={k_eta}")
        v = v.copy()
        c = c.copy()
        v.flags.writeable = False
        c.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "cov", c)

    @property
    def k_eta(self) -> int:
        return self.values.size

    @property
    def kappa_hat(self) -> float:
        """Condition number of the estimated proxy conditional matrix."""
        return condition_number(_proxy_matrix(_split_eta(self.values, self.k_w, self.k_e)))


class _EtaParts(NamedTuple):
    """The pieces of a statistic vector (or of a batch, along leading axes)."""

    q_w_t: np.ndarray   # (..., k_w - 1) target proxy cells
    q_t: np.ndarray     # (...) target mass
    p_wxe: np.ndarray   # (..., k_e, k_w - 1) proxy-treatment cells by domain
    p_yxe: np.ndarray   # (..., k_e) outcome cells
    p_xe: np.ndarray    # (..., k_e) treatment cells


def _split_eta(values: np.ndarray, k_w: int, k_e: int) -> _EtaParts:
    kw1 = k_w - 1
    b = k_w + kw1 * k_e
    p_wxe = values[..., k_w:b].reshape(values.shape[:-1] + (k_e, kw1))
    return _EtaParts(values[..., :kw1], values[..., kw1], p_wxe,
                     values[..., b:b + k_e], values[..., b + k_e:b + 2 * k_e])


class _CellTable(NamedTuple):
    """Record profiles aggregated by cell: counts plus the 0/1 indicator
    matrix mapping cells to eta components."""

    counts: np.ndarray      # (n_cells,)
    profiles: np.ndarray    # (n_cells, k_eta)
    n: int


def _cell_table(counts: ContingencyCounts, x: int, y: int,
                k_w: int, k_e: int) -> _CellTable:
    """One row per non-empty cell: source cells in ``(y, x, w, e)`` order,
    then target proxy cells in ``w`` order."""
    k_eta = k_w + (k_w + 1) * k_e
    kw1 = k_w - 1
    t = counts.n_yxwe
    yi, xi, wi, ei = np.nonzero(t)
    wt = np.flatnonzero(counts.n_w_target)
    if yi.size + wt.size == 0:
        raise EmptyCellError("dataset is empty", cell="all")
    profiles = np.zeros((yi.size + wt.size, k_eta))
    treated = np.flatnonzero(xi == x)
    w, e = wi[treated], ei[treated]
    proxy = w < kw1
    profiles[treated[proxy], k_w + e[proxy] * kw1 + w[proxy]] = 1.0
    hit = yi[treated] == y
    profiles[treated[hit], k_w + kw1 * k_e + e[hit]] = 1.0
    profiles[treated, k_w + (kw1 + 1) * k_e + e] = 1.0
    target = yi.size + np.arange(wt.size)
    profiles[target[wt < kw1], wt[wt < kw1]] = 1.0
    profiles[target, kw1] = 1.0
    cell_counts = np.concatenate([t[yi, xi, wi, ei], counts.n_w_target[wt]])
    return _CellTable(cell_counts, profiles, counts.n)


def eta_from_counts(counts: ContingencyCounts, x: int, y: int) -> EtaVector:
    """Build the statistic vector and its unbiased sample covariance from the
    sufficient-statistic tables.

    The covariance is computed in closed form from the cell counts (mean of
    indicator outer products minus the outer product of means, scaled by
    ``n / (n - 1)``); no per-record vectors are materialised.
    """
    k_w = counts.n_yxwe.shape[2]
    k_e = counts.n_yxwe.shape[3]
    table = _cell_table(counts, x, y, k_w, k_e)
    n = table.n
    weights = table.counts / n
    mean = table.profiles.T @ weights
    second = (table.profiles * weights[:, None]).T @ table.profiles
    centred = second - np.outer(mean, mean)
    factor = n / (n - 1) if n > 1 else 0.0
    cov = factor * centred
    cov = 0.5 * (cov + cov.T)
    return EtaVector(mean, cov, n, k_w, k_e)


def eta_from_dataset(ds: Dataset, x: int, y: int) -> EtaVector:
    """Statistic vector for one ``(x, y)`` computed from raw records."""
    if ds.n == 0:
        raise EmptyCellError("dataset is empty", cell="all")
    return eta_from_counts(contingency_counts(ds), x, y)


def _proxy_matrix(parts: _EtaParts) -> np.ndarray:
    """Estimated proxy conditional matrix ``(..., k_w, k_e)``, last row by
    complement."""
    with np.errstate(divide="ignore", invalid="ignore"):
        top = parts.p_wxe / parts.p_xe[..., None]
    columns = np.concatenate([top, 1.0 - top.sum(axis=-1, keepdims=True)], axis=-1)
    return np.swapaxes(columns, -1, -2)


def _checked_matrices(values: np.ndarray, k_w: int, k_e: int):
    """Split a ``(B, k_eta)`` batch, check its cells and build its proxy
    matrices.  Returns ``(parts, matrices, errors)``; ``errors`` maps each row
    with a target or treatment cell without mass to its
    :class:`EmptyCellError` (naming the first empty domain).  Those rows'
    matrices are zeroed so that one stacked SVD can take the whole batch."""
    parts = _split_eta(values, k_w, k_e)
    errors: dict[int, ProxyShiftError] = {
        int(i): EmptyCellError("no target-domain records", cell="target")
        for i in np.flatnonzero(parts.q_t <= 0.0)}
    for i, e in zip(*np.nonzero(parts.p_xe <= 0.0)):
        errors.setdefault(int(i), EmptyCellError(
            f"no source records with the requested treatment in domain {e}",
            cell=f"(x, e={e})"))
    matrices = _proxy_matrix(parts)
    matrices[list(errors)] = 0.0
    return parts, matrices, errors


def _h_batch(values: np.ndarray, k_w: int, k_e: int,
             rank_tol=RANK_REL_TOL) -> tuple[np.ndarray, dict[int, ProxyShiftError]]:
    """The identification map on a ``(B, k_eta)`` batch of statistic vectors.

    Reconstructs each row's target proxy marginal (last entry by complement),
    proxy conditional matrix and outcome conditional (ratios), and applies the
    pseudo-inverse adjustment through one stacked SVD.  ``rank_tol`` is a
    scalar or one tolerance per row.  Returns the ``(B,)`` values (NaN where a
    row fails) and, keyed by row, the :class:`EmptyCellError` or
    :class:`SingularMatrixError` each failing row raises on its own.
    """
    parts, matrices, errors = _checked_matrices(values, k_w, k_e)
    pinv, singular = stacked_right_pseudoinverse(matrices, rank_tol)
    errors = {**singular, **errors}
    with np.errstate(divide="ignore", invalid="ignore"):
        q_w_top = parts.q_w_t / parts.q_t[:, None]
        q_w = np.concatenate([q_w_top, 1.0 - q_w_top.sum(axis=1, keepdims=True)], axis=1)
        p_y_ex = parts.p_yxe / parts.p_xe
        h = (p_y_ex[:, None, :] @ pinv @ q_w[:, :, None])[:, 0, 0]
    h[list(errors)] = np.nan
    return h, errors


def _h_raw(values: np.ndarray, k_w: int, k_e: int,
           rank_tol: float = RANK_REL_TOL) -> float:
    h, errors = _h_batch(np.asarray(values, dtype=float)[None], k_w, k_e, rank_tol)
    if errors:
        raise errors[0]
    return float(h[0])


def h_of_eta(eta: EtaVector, rank_tol: float = RANK_REL_TOL) -> float:
    """Evaluate the identification map on a statistic vector.

    Reconstructs the target proxy marginal (last entry by complement), the
    proxy conditional matrix (ratios, last row by complement) and the outcome
    conditional (ratios), then applies the pseudo-inverse adjustment.  Raises
    :class:`EmptyCellError` when a denominator cell has no mass.
    """
    return _h_raw(eta.values, eta.k_w, eta.k_e, rank_tol)


def grad_h(eta: EtaVector, rank_tol: float = RANK_REL_TOL) -> np.ndarray:
    """Central finite-difference gradient of the identification map.

    Uses per-coordinate steps ``max(1e-6, 1e-6 * |eta_i|)`` on the plain
    (unperturbed) map.  All ``2 * k_eta`` difference points are evaluated as
    one batch, each exactly as :func:`h_of_eta` would evaluate it alone; the
    error of the first failing point (in coordinate order, the ``+`` point
    before the ``-`` point) propagates.
    """
    base = np.asarray(eta.values, dtype=float)
    steps = np.maximum(_FD_STEP, _FD_STEP * np.abs(base))
    coord = np.arange(base.size)
    points = np.repeat(base[None, :], 2 * base.size, axis=0)
    points[2 * coord, coord] += steps
    points[2 * coord + 1, coord] -= steps
    h, errors = _h_batch(points, eta.k_w, eta.k_e, rank_tol)
    if errors:
        raise errors[min(errors)]
    return (h[0::2] - h[1::2]) / (2.0 * steps)


def _perturb_values(values: np.ndarray, k_w: int, k_e: int,
                    eps: float = RANK_PERTURBATION_EPS) -> np.ndarray:
    """Deterministic rank repair: add ``eps`` to every proxy-treatment cell
    and renormalise the affected ratios by growing the treatment cells by
    ``k_w * eps`` (the implicit complement row receives ``eps`` as well)."""
    out = values.copy()
    kw1 = k_w - 1
    out[..., k_w:k_w + kw1 * k_e] += eps
    b = k_w + (kw1 + 1) * k_e
    out[..., b:b + k_e] += k_w * eps
    return out


# Pseudo-inverse tolerance used after a deliberate rank perturbation: the
# perturbation exists to make the estimate defined, so only genuine
# singularity (ties the perturbation cannot break) is refused.
_PERTURBED_RANK_TOL = 1e-13


def _rank_repair(values: np.ndarray, k_w: int, k_e: int,
                 rank_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank test and repair of a ``(B, k_eta)`` batch.

    Rows whose proxy matrix has numeric row rank below ``k_w`` at
    ``rank_tol`` are perturbed.  Returns (values, perturbed mask, per-row
    evaluation tolerance for the pseudo-inverse).  Rows that fail their cell
    check are left alone: :func:`_h_batch` reports them.
    """
    _, matrices, errors = _checked_matrices(values, k_w, k_e)
    perturbed = stacked_row_rank(matrices, rank_tol) < k_w
    perturbed[list(errors)] = False
    out = np.where(perturbed[:, None], _perturb_values(values, k_w, k_e), values)
    return out, perturbed, np.where(perturbed, _PERTURBED_RANK_TOL, rank_tol)


def _clip01(v: float) -> float:
    return min(max(v, 0.0), 1.0)


def reduced_estimate(ds: Dataset, x: int, y: int, alpha: float = 0.05,
                     rank_tol: float = RANK_REL_TOL) -> EffectEstimate:
    """Point estimate with a delta-method confidence interval.

    Requires at least one target record and at least one source record with
    the requested treatment in every source domain (otherwise
    :class:`EmptyCellError`).  The point and interval are clipped to [0, 1];
    unclipped values are retained.  When the estimated proxy conditional
    matrix is rank-deficient at ``rank_tol``, a deterministic perturbation is
    applied and recorded in the flags.  The delta-method gradient is one
    batched evaluation of the map (see :func:`grad_h`).
    """
    eta = eta_from_dataset(ds, x, y)
    values, perturbed, eval_tol = _rank_repair(eta.values[None], eta.k_w, eta.k_e, rank_tol)
    work = EtaVector(values[0], eta.cov, eta.n, eta.k_w, eta.k_e)
    point_u = h_of_eta(work, eval_tol[0])
    kappa_hat = eta.kappa_hat
    grad = grad_h(work, eval_tol[0])
    sigma2 = float(grad @ work.cov @ grad)
    sigma_hat = math.sqrt(max(sigma2, 0.0))
    half = sigma_hat / math.sqrt(eta.n) * normal_quantile(1.0 - alpha / 2.0)
    lo_u, hi_u = point_u - half, point_u + half
    point = _clip01(point_u)
    lo, hi = _clip01(lo_u), _clip01(hi_u)
    flags = EstimateFlags(
        rank_perturbed=bool(perturbed[0]),
        clipped_point=point != point_u,
        clipped_ci=(lo != lo_u) or (hi != hi_u),
    )
    return EffectEstimate(
        point=point, point_unclipped=point_u, n=eta.n, alpha=alpha,
        sigma_hat=sigma_hat, ci_lower=lo, ci_upper=hi,
        ci_lower_unclipped=lo_u, ci_upper_unclipped=hi_u,
        kappa_hat=kappa_hat, flags=flags)


class BootstrapCI(NamedTuple):
    """A bootstrap interval.  ``failed`` counts resamples without an
    estimate, ``perturbed`` the resamples the rank repair was applied to."""

    ci_lower: float
    ci_upper: float
    sigma_boot: float
    failed: int = 0
    perturbed: int = 0


def bootstrap_ci(ds: Dataset, x: int, y: int, n_boot: int, alpha: float = 0.05,
                 rng: np.random.Generator | int | None = None,
                 rank_tol: float = RANK_REL_TOL,
                 failure_budget: float = 0.1) -> BootstrapCI:
    """Normal-approximation bootstrap interval for the plug-in estimator.

    Each resample redraws the ``n`` records with replacement (realised as a
    multinomial redraw of the cell counts, which is equivalent and avoids
    touching individual records); the interval is centred at the full-sample
    estimate with half-width ``sigma_boot`` times the normal quantile, then
    clipped to [0, 1].  Resamples are keyed by their index, so any parallel
    execution order reproduces the same draws.

    All resamples are evaluated as one batch: their statistic vectors come
    from one matrix product, the rank test and repair act as a mask, and the
    map takes one stacked SVD.  A resample fails only when it has an empty
    cell (:class:`EmptyCellError`) or a singular proxy matrix
    (:class:`SingularMatrixError`); any other error propagates.  More than
    ``failure_budget * n_boot`` failed resamples abort with
    :class:`BootstrapError`.
    """
    if n_boot < 2:
        raise ValidationError("n_boot must be at least 2")
    counts = contingency_counts(ds)
    k_w, k_e = counts.n_yxwe.shape[2], counts.n_yxwe.shape[3]
    table = _cell_table(counts, x, y, k_w, k_e)
    probs = table.counts / table.n

    centre_values, _, centre_tol = _rank_repair((table.profiles.T @ probs)[None],
                                                k_w, k_e, rank_tol)
    centre = _h_raw(centre_values[0], k_w, k_e, centre_tol[0])

    if rng is None or isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    base = int(rng.integers(2 ** 62))
    draws = np.array([np.random.default_rng([base, b]).multinomial(table.n, probs)
                      for b in range(n_boot)])
    values, perturbed, tol = _rank_repair((draws / table.n) @ table.profiles, k_w, k_e, rank_tol)
    estimates, errors = _h_batch(values, k_w, k_e, tol)
    failures = len(errors)
    if failures > failure_budget * n_boot:
        raise BootstrapError(
            f"{failures}/{n_boot} bootstrap resamples failed to produce an estimate")
    sigma_boot = float(np.std(np.delete(estimates, list(errors)), ddof=1))
    half = sigma_boot * normal_quantile(1.0 - alpha / 2.0)
    return BootstrapCI(_clip01(centre - half), _clip01(centre + half), sigma_boot,
                       failures, int(perturbed.sum()))
