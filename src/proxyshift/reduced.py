"""Plug-in estimator over the observable statistic vector, with confidence
intervals.

For a fixed ``(x, y)`` the estimator summarises the sample's counts by a
vector of empirical cell probabilities (the mean of per-record indicators),
rebuilds the three pieces of the identification formula from it by ratios
and complements, and applies the pseudo-inverse adjustment.  Asymptotic
normality of the indicator means propagates through the map by the delta
method, giving closed-form standard errors; a normal-approximation bootstrap
is available as an alternative interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .categorical import RANK_REL_TOL, _freeze, condition_number, stacked_svd
from .errors import BootstrapError, EmptyCellError, ProxyShiftError, ValidationError
from .scm import ContingencyCounts

if TYPE_CHECKING:
    from .causal import FitDiagnostics

#: Additive perturbation applied to the proxy-cell components when the
#: estimated proxy conditional matrix is rank-deficient (keeps the
#: pseudo-inverse defined on a vanishing-probability event).
RANK_PERTURBATION_EPS = 1e-9


# Cephes ndtri (Moshier, Methods and Programs for Mathematical Functions,
# 1989): a rational approximation about the centre for
# |p - 1/2| <= 1/2 - exp(-2), and in z = 1/sqrt(-2 log p) for the tails.  Coefficients run from the highest power down; the Q
# polynomials' leading 1 (implied in Cephes p1evl) is written out, which
# evaluates bit-identically because 1.0 * x is exact.
_S2PI = 2.50662827463100050242E0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
# tail, 2 <= sqrt(-2 log p) < 8
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
# far tail, sqrt(-2 log p) >= 8
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _polevl(x: float, coef: tuple) -> float:
    """Horner's rule, highest power first (Cephes ``polevl``)."""
    acc = coef[0]
    for c in coef[1:]:
        acc = acc * x + c
    return acc


def normal_quantile(beta: float) -> float:
    """Standard-normal quantile (inverse cdf): a port of Cephes ``ndtri``
    that keeps every operation of the original in order, so it returns the
    compiled routine's results bit for bit.  0 gives -inf, 1 gives +inf, and
    NaN or a value outside [0, 1] gives NaN."""
    if beta == 0.0:
        return -math.inf
    if beta == 1.0:
        return math.inf
    if not 0.0 < beta < 1.0:
        return math.nan
    upper = beta > 1.0 - _EXP_M2
    p = 1.0 - beta if upper else beta
    if p > _EXP_M2:
        p -= 0.5
        p2 = p * p
        return (p + p * (p2 * _polevl(p2, _P0) / _polevl(p2, _Q0))) * _S2PI
    t = math.sqrt(-2.0 * math.log(p))
    z = 1.0 / t
    num, den = (_P1, _Q1) if t < 8.0 else (_P2, _Q2)
    x = (t - math.log(t) / t) - z * _polevl(z, num) / _polevl(z, den)
    return x if upper else -x


def check_alpha(alpha: float) -> None:
    """Refuse a confidence level ``alpha`` outside (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha!r}")


@dataclass(frozen=True)
class EstimateFlags:
    """Diagnostic flags attached to an effect estimate."""

    rank_perturbed: bool = False
    clipped_point: bool = False
    clipped_ci: bool = False


@dataclass(frozen=True)
class EffectEstimate:
    """A point estimate of the target-domain causal effect with diagnostics.

    ``point`` is clipped to [0, 1]; the unclipped value and, when a
    confidence interval was computed, both clipped and unclipped interval
    bounds are retained.  ``kappa_hat`` is the condition number of the
    estimated proxy conditional matrix (before any rank perturbation).
    ``fit`` is the mechanism fit behind a ``causal`` estimate.
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
    fit: FitDiagnostics | None = None

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
            },
        }
        if self.fit is not None:
            out["fit"] = {"converged": self.fit.converged,
                          "iterations": self.fit.iterations,
                          "log_likelihood": self.fit.log_likelihood}
        return out


@dataclass(frozen=True, eq=False)
class EtaVector:
    """Empirical cell-probability vector for one ``(x, y)``.

    Layout (length ``k_w + (k_w + 1) * k_e``):
    target proxy cells ``q(w_j, e_T)`` for ``j < k_w - 1``; the target mass
    ``q(e_T)``; proxy-treatment cells ``p(w_j, x, e_l)`` for ``j < k_w - 1``
    grouped by domain; outcome cells ``p(y, x, e_l)``; treatment cells
    ``p(x, e_l)``.  The last proxy category is implicit (complements).
    """

    values: np.ndarray
    k_w: int
    k_e: int

    def __post_init__(self):
        k_eta = self.k_w + (self.k_w + 1) * self.k_e
        v = np.asarray(self.values, dtype=float)
        if v.shape != (k_eta,):
            raise ValidationError(f"eta vector shape {v.shape} does not match k_eta={k_eta}")
        _freeze(self, "values", v.copy())

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
    """The sample as its profile categories: records grouped by their 0/1
    profile row (the indicators of the eta components they enter), each
    category's count and row, and their mean, the statistic vector."""

    counts: np.ndarray      # (n_categories,)
    profiles: np.ndarray    # (n_categories, k_eta)
    n: int
    eta: EtaVector


def _cell_table(counts: ContingencyCounts, x: int, y: int,
                k_w: int, k_e: int) -> _CellTable:
    """The non-empty profile categories, at most ``2 k_w k_e + k_w + 1``, in
    ascending lexicographic order of their rows, so that the order depends on
    the counts only: the zero row (the untreated records); treated records in
    the last proxy cell, without and then with the outcome, each by
    descending domain; the other treated records by descending domain, then
    descending proxy cell, then without and then with the outcome; target
    records by descending proxy cell."""
    k_eta = k_w + (k_w + 1) * k_e
    kw1 = k_w - 1
    treated = counts.n_yxwe[:, x]
    hit = treated[y]

    def ordered(a: np.ndarray) -> np.ndarray:
        """A ``(2, k_w, k_e)`` array over (outcome, proxy cell, domain) in
        the treated categories' order."""
        return np.concatenate([a[:, kw1, ::-1].ravel(),
                               a[:, :kw1].transpose(2, 1, 0)[::-1, ::-1].ravel()])

    o, w, e = (ordered(g) for g in np.indices((2, k_w, k_e)))
    wt = np.arange(k_w)[::-1]
    cat_counts = np.concatenate([[counts.n_src - treated.sum()],
                                 ordered(np.stack([treated.sum(axis=0) - hit, hit])),
                                 counts.n_w_target[::-1]])
    # each category's columns with a one, -1 for none
    columns = np.concatenate([
        np.full((1, 3), -1),
        np.column_stack([np.where(w < kw1, k_w + e * kw1 + w, -1),
                         np.where(o == 1, k_w + kw1 * k_e + e, -1), k_w + k_w * k_e + e]),
        np.column_stack([np.where(wt < kw1, wt, -1), np.full(k_w, kw1), np.full(k_w, -1)])])
    keep = cat_counts != 0
    if not keep.any():
        raise EmptyCellError("dataset is empty", cell="all")
    cat_counts, columns = cat_counts[keep], columns[keep]
    profiles = np.zeros((cat_counts.size, k_eta))
    rows, slots = np.nonzero(columns >= 0)
    profiles[rows, columns[rows, slots]] = 1.0
    eta = EtaVector(profiles.T @ (cat_counts / counts.n), k_w, k_e)
    return _CellTable(cat_counts, profiles, counts.n, eta)


def eta_from_counts(counts: ContingencyCounts, x: int, y: int) -> EtaVector:
    """Build the statistic vector from the sufficient-statistic tables."""
    return _cell_table(counts, x, y, *counts.n_yxwe.shape[2:]).eta


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


class _Map(NamedTuple):
    """The identification map ``h = p_y^T A^+ q`` on a ``(B, k_eta)`` batch,
    with the pieces it is built from."""

    values: np.ndarray     # the batch, after any rank repair
    parts: _EtaParts
    matrices: np.ndarray   # (B, k_w, k_e) proxy matrices A
    pinv: np.ndarray       # (B, k_e, k_w) A^+
    q_w: np.ndarray        # (B, k_w) target proxy marginals, last by complement
    p_y_ex: np.ndarray     # (B, k_e) outcome conditionals
    h: np.ndarray          # (B,) the map, NaN where a row fails
    errors: dict[int, ProxyShiftError]
    perturbed: np.ndarray  # (B,) rows the rank repair was applied to
    tol: np.ndarray        # (B,) each row's pseudo-inverse tolerance


def _evaluate(values: np.ndarray, k_w: int, k_e: int, rank_tol=RANK_REL_TOL,
              repair: bool = False) -> _Map:
    """The map on a ``(B, k_eta)`` batch, from one stacked SVD of its proxy
    matrices.  ``rank_tol`` is a scalar or one tolerance per row.

    With ``repair``, the same SVD gives the rank test: rows without an empty
    cell whose proxy matrix has numeric row rank below ``k_w`` at
    ``rank_tol`` are perturbed (:func:`_perturb_values`), decomposed again
    and evaluated at ``_PERTURBED_RANK_TOL``.  ``errors`` maps each failing
    row to its :class:`EmptyCellError` or :class:`SingularMatrixError`.
    """
    parts, matrices, errors = _checked_matrices(values, k_w, k_e)
    svd = stacked_svd(matrices)
    perturbed = np.zeros(len(values), dtype=bool)
    if repair:
        perturbed = svd.row_rank(rank_tol) < k_w
        perturbed[list(errors)] = False
        if perturbed.any():
            values = values.copy()
            values[perturbed] = _perturb_values(values[perturbed], k_w, k_e)
            parts, matrices, errors = _checked_matrices(values, k_w, k_e)
            for whole, rows in zip(svd, stacked_svd(matrices[perturbed])):
                whole[perturbed] = rows
    tol = np.where(perturbed, _PERTURBED_RANK_TOL, rank_tol)
    pinv, singular = svd.right_pseudoinverse(tol)
    errors = {**singular, **errors}
    with np.errstate(divide="ignore", invalid="ignore"):
        q_w_top = parts.q_w_t / parts.q_t[:, None]
        q_w = np.concatenate([q_w_top, 1.0 - q_w_top.sum(axis=1, keepdims=True)], axis=1)
        p_y_ex = parts.p_yxe / parts.p_xe
        h = (p_y_ex[:, None, :] @ pinv @ q_w[:, :, None])[:, 0, 0]
    h[list(errors)] = np.nan
    return _Map(values, parts, matrices, pinv, q_w, p_y_ex, h, errors, perturbed, tol)


def h_of_eta(eta: EtaVector, rank_tol: float = RANK_REL_TOL) -> float:
    """Evaluate the identification map on a statistic vector.

    Reconstructs the target proxy marginal (last entry by complement), the
    proxy conditional matrix (ratios, last row by complement) and the outcome
    conditional (ratios), then applies the pseudo-inverse adjustment.  Raises
    :class:`EmptyCellError` when a denominator cell has no mass.
    """
    ev = _evaluate(eta.values[None], eta.k_w, eta.k_e, rank_tol)
    if ev.errors:
        raise ev.errors[0]
    return float(ev.h[0])


def _h_raw(values: np.ndarray, k_w: int, k_e: int,
           rank_tol: float = RANK_REL_TOL) -> float:
    """:func:`h_of_eta` on a raw value vector; the acceptance suite's
    gradient check (criterion 9) imports it under this name."""
    return h_of_eta(EtaVector(values, k_w, k_e), rank_tol)


def grad_h(eta: EtaVector, rank_tol: float = RANK_REL_TOL) -> np.ndarray:
    """Exact gradient of the identification map ``h = p_y^T A^+ q``.

    For a full-row-rank ``A``, ``dA^+ = -A^+ dA A^+ + (I - A^+ A) dA^T
    (A A^T)^-1`` (Golub & Pereyra, SIAM J. Numer. Anal. 1973).  With ``a =
    A^+T p_y``, ``b = A^+ q``, ``r = p_y - A^+ A p_y`` and ``(A A^T)^-1 =
    A^+T A^+``, this gives ``dh/dq = a``, ``dh/dp_y = b`` and ``dh/dA =
    (A^+T b) r^T - a b^T``, chained back through the complements and ratios
    that build ``q``, ``A`` and ``p_y``.  Raises what :func:`h_of_eta` raises.
    """
    ev = _evaluate(eta.values[None], eta.k_w, eta.k_e, rank_tol)
    if ev.errors:
        raise ev.errors[0]
    q_t, p_xe, m = ev.parts.q_t[0], ev.parts.p_xe[0], ev.matrices[0]
    pinv, q, p = ev.pinv[0], ev.q_w[0], ev.p_y_ex[0]
    a, b = pinv.T @ p, pinv @ q
    g_m = np.outer(pinv.T @ b, p - pinv @ (m @ p)) - np.outer(a, b)
    g_wxe = (g_m[:-1] - g_m[-1]).T / p_xe[:, None]
    g_q = (a[:-1] - a[-1]) / q_t
    g_yxe = b / p_xe
    g_xe = -(g_wxe * m[:-1].T).sum(axis=1) - g_yxe * p
    return np.concatenate([g_q, [-g_q @ q[:-1]], g_wxe.ravel(), g_yxe, g_xe])


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


class _Centre(NamedTuple):
    """The full-sample estimate that both intervals are centred on."""

    table: _CellTable
    work: EtaVector      # the statistic vector after the rank test and repair
    perturbed: bool
    tol: float           # the pseudo-inverse tolerance at ``work``
    point: float         # the unclipped estimate, the map at ``work``


def _centre(counts: ContingencyCounts, x: int, y: int, rank_tol: float) -> _Centre:
    k_w, k_e = counts.n_yxwe.shape[2:]
    table = _cell_table(counts, x, y, k_w, k_e)
    ev = _evaluate(table.eta.values[None], k_w, k_e, rank_tol, repair=True)
    if ev.errors:
        raise ev.errors[0]
    return _Centre(table, EtaVector(ev.values[0], k_w, k_e), bool(ev.perturbed[0]), ev.tol[0],
                   float(ev.h[0]))


def _clip01(v: float) -> float:
    return min(max(v, 0.0), 1.0)


def reduced_estimate(counts: ContingencyCounts, x: int, y: int, alpha: float = 0.05,
                     rank_tol: float = RANK_REL_TOL) -> EffectEstimate:
    """Point estimate with a delta-method confidence interval.

    Requires at least one target record and at least one source record with
    the requested treatment in every source domain (otherwise
    :class:`EmptyCellError`).  The point and interval are clipped to [0, 1];
    unclipped values are retained.  When the estimated proxy conditional
    matrix is rank-deficient at ``rank_tol``, a deterministic perturbation is
    applied and recorded in the flags.  The delta-method variance ``g^T
    Sigma g`` is the sample variance of the records' scores ``profile @ g``
    (``g`` from :func:`grad_h`), summed over the profile categories with
    their counts.
    """
    check_alpha(alpha)
    centre = _centre(counts, x, y, rank_tol)
    point_u, n = centre.point, centre.table.n
    kappa_hat = centre.table.eta.kappa_hat
    scores = centre.table.profiles @ grad_h(centre.work, centre.tol)
    weights = centre.table.counts / n
    sigma_hat = math.sqrt(n / (n - 1) * float(weights @ (scores - weights @ scores) ** 2))
    half = sigma_hat / math.sqrt(n) * normal_quantile(1.0 - alpha / 2.0)
    lo_u, hi_u = point_u - half, point_u + half
    point = _clip01(point_u)
    lo, hi = _clip01(lo_u), _clip01(hi_u)
    flags = EstimateFlags(
        rank_perturbed=centre.perturbed,
        clipped_point=point != point_u,
        clipped_ci=(lo != lo_u) or (hi != hi_u),
    )
    return EffectEstimate(
        point=point, point_unclipped=point_u, n=n, alpha=alpha,
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


def bootstrap_ci(counts: ContingencyCounts, x: int, y: int, n_boot: int,
                 alpha: float = 0.05, rng: np.random.Generator | int | None = None,
                 rank_tol: float = RANK_REL_TOL,
                 failure_budget: float = 0.1) -> BootstrapCI:
    """Normal-approximation bootstrap interval for the plug-in estimator.

    Each resample redraws the ``n`` records with replacement, realised as a
    multinomial redraw over the profile categories of :func:`_cell_table`: a
    record enters a resample's statistic vector only through its profile
    row, so this is exact in distribution and touches no record.  The
    interval is centred at the full-sample estimate with half-width
    ``sigma_boot`` times the normal quantile, then clipped to [0, 1].
    Resamples are keyed by their index, so any parallel execution
    order reproduces the same draws.

    All resamples are evaluated as one batch: their statistic vectors come
    from one matrix product, and one stacked SVD gives both the rank test
    (the repair acts as a mask) and the pseudo-inverses.  A resample fails
    only when it has an empty cell (:class:`EmptyCellError`) or a singular
    proxy matrix (:class:`SingularMatrixError`); any other error propagates.
    More than ``failure_budget * n_boot`` failed resamples, or fewer than two
    estimates, abort with :class:`BootstrapError`.
    """
    if n_boot < 2:
        raise ValidationError("n_boot must be at least 2")
    check_alpha(alpha)
    centre = _centre(counts, x, y, rank_tol)
    table, k_w, k_e = centre.table, centre.work.k_w, centre.work.k_e
    probs = table.counts / table.n
    if rng is None or isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    base = int(rng.integers(2 ** 62))
    draws = np.array([np.random.default_rng([base, b]).multinomial(table.n, probs)
                      for b in range(n_boot)])
    ev = _evaluate((draws / table.n) @ table.profiles, k_w, k_e, rank_tol, repair=True)
    failures = len(ev.errors)
    if failures > failure_budget * n_boot or n_boot - failures < 2:
        raise BootstrapError(
            f"{failures}/{n_boot} bootstrap resamples failed to produce an estimate"
            + ("; the interval needs at least two" if n_boot - failures < 2 else ""))
    sigma_boot = float(np.std(np.delete(ev.h, list(ev.errors)), ddof=1))
    half = sigma_boot * normal_quantile(1.0 - alpha / 2.0)
    return BootstrapCI(_clip01(centre.point - half), _clip01(centre.point + half), sigma_boot,
                       failures, int(ev.perturbed.sum()))
