"""Maximum-likelihood estimation of the full latent mechanism.

The model parameters are the entries of the five structural conditionals,
optimised as unconstrained logits and mapped to strictly positive pmfs by a
column-wise softmax.  The observed-data likelihood mixes over the hidden
confounder; fitting uses a quasi-Newton optimiser with an analytic gradient
(the parameter count grows like ``k_u * k_w * k_x * k_y``, so finite
differences would dominate the runtime).  The causal effect is then read off
the fitted mechanism by the decomposition ``sum_u q_u sum_w p(y|u,w,x) p(w|u)``
(:func:`proxyshift.scm.effect_given_u`); unlike the plug-in estimator it is a
convex combination of probabilities, so no clipping is ever needed.  The fit
and :func:`log_likelihood` evaluate the one likelihood, :func:`_objective`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .reduced import EffectEstimate
from .scm import ContingencyCounts, effect_given_u


@dataclass(frozen=True)
class FitOptions:
    """Optimiser settings for the mechanism fit."""

    max_iterations: int = 50_000
    restarts: int = 1
    gradient_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be at least 1")
        if self.restarts < 1:
            raise ValidationError("restarts must be at least 1")
        if not (math.isfinite(self.gradient_tol) and self.gradient_tol > 0):
            raise ValidationError("gradient_tol must be finite and positive")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")


@dataclass(frozen=True, eq=False)
class ThetaParams:
    """Raw logit blocks mirroring the five structural conditionals.  Every
    logit is finite, so each softmax is a strictly positive pmf."""

    u_e: np.ndarray
    q_u: np.ndarray
    w_u: np.ndarray
    x_u: np.ndarray
    y_uwx: np.ndarray

    def __post_init__(self):
        for name in ("u_e", "q_u", "w_u", "x_u", "y_uwx"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if not np.isfinite(arr).all():
                raise ValidationError(f"non-finite logits in block {name}")
            object.__setattr__(self, name, arr)
        if self.y_uwx.ndim != 4:
            raise ValidationError("logit blocks have wrong dimensionality")
        k_y, k_u, k_w, k_x = self.y_uwx.shape
        if (self.u_e.ndim != 2 or self.u_e.shape[0] != k_u or self.q_u.shape != (k_u,)
                or self.w_u.shape != (k_w, k_u) or self.x_u.shape != (k_x, k_u)):
            raise ValidationError("logit blocks disagree on their cardinalities")

    @property
    def k_u(self) -> int:
        return self.u_e.shape[0]

    def flatten(self) -> np.ndarray:
        return np.concatenate([self.u_e.ravel(), self.q_u.ravel(),
                               self.w_u.ravel(), self.x_u.ravel(),
                               self.y_uwx.ravel()])

    @classmethod
    def from_flat(cls, flat: np.ndarray, k_u: int, k_e: int, k_w: int,
                  k_x: int, k_y: int) -> "ThetaParams":
        sizes = [k_u * k_e, k_u, k_w * k_u, k_x * k_u, k_y * k_u * k_w * k_x]
        if flat.size != sum(sizes):
            raise ValidationError(f"flat parameter vector has size {flat.size}, "
                                  f"expected {sum(sizes)}")
        parts = np.split(np.asarray(flat, dtype=float), np.cumsum(sizes)[:-1])
        return cls(parts[0].reshape(k_u, k_e), parts[1],
                   parts[2].reshape(k_w, k_u), parts[3].reshape(k_x, k_u),
                   parts[4].reshape(k_y, k_u, k_w, k_x))


def _softmax0(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=0, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=0, keepdims=True)


def _objective(counts: ContingencyCounts, k_u: int):
    """The negative log-likelihood and its gradient as ``f(flat) -> (nll, grad)``
    over the flat logit vector (the layout of :meth:`ThetaParams.flatten`).

    Everything that depends only on the counts and the dimensions is built
    here, once per fit.  Each block is a ``(k_out, k_cols)`` matrix whose
    columns are softmaxed, so a gather permutation lays every column out as
    one contiguous group; in that order a block reads as the transpose of its
    probability matrix.  Only non-empty cells enter the likelihood, so
    ``0 * log 0`` is 0.
    """
    k_y, k_x, k_w, k_e = counts.n_yxwe.shape
    n_cells = k_w * k_x * k_y
    blocks = ((k_u, k_e), (k_u, 1), (k_w, k_u), (k_x, k_u), (k_y, k_u * k_w * k_x))
    offsets = np.cumsum([0] + [k_out * k_cols for k_out, k_cols in blocks])
    dim = int(offsets[-1])
    perm = np.concatenate([off + np.arange(k_out * k_cols).reshape(k_out, k_cols).T.ravel()
                           for off, (k_out, k_cols) in zip(offsets, blocks)])
    group_sizes = np.concatenate([np.full(k_cols, k_out) for k_out, k_cols in blocks])
    starts = np.concatenate([[0], np.cumsum(group_sizes)[:-1]])
    group = np.repeat(np.arange(group_sizes.size), group_sizes)
    # source cells in (w, x, y, e) order, then the target proxy cells
    observed = np.concatenate([counts.n_yxwe.transpose(2, 1, 0, 3).ravel(),
                               counts.n_w_target]).astype(float)
    cells = np.flatnonzero(observed)
    weights = observed[cells]
    probs = np.empty(observed.size)
    ratios = np.zeros(observed.size)
    m, q_w = probs[:-k_w].reshape(n_cells, k_e), probs[-k_w:]
    r_m, r_w = ratios[:-k_w].reshape(n_cells, k_e), ratios[-k_w:]
    names = ("u_e", "q_u", "w_u", "x_u", "y_uwx")
    sl_a, sl_q, sl_w, sl_x, sl_y = (slice(lo, hi) for lo, hi in zip(offsets[:-1], offsets[1:]))

    def f(flat: np.ndarray) -> tuple[float, np.ndarray]:
        if flat.shape != (dim,):
            raise ValidationError(f"flat parameter vector has size {flat.size}, "
                                  f"expected {dim}")
        if not np.isfinite(flat).all():
            first = np.flatnonzero(~np.isfinite(flat))[0]
            block = names[np.searchsorted(offsets, first, side="right") - 1]
            raise ValidationError(f"non-finite logits in block {block}")
        z = flat[perm]
        z -= np.maximum.reduceat(z, starts)[group]
        p = np.exp(z)
        p /= np.add.reduceat(p, starts)[group]
        a_t, q_u = p[sl_a].reshape(k_e, k_u), p[sl_q]
        w_t, x_t = p[sl_w].reshape(k_u, k_w), p[sl_x].reshape(k_u, k_x)
        y_t = p[sl_y].reshape(k_u, k_w, k_x, k_y)
        # t[u, (w, x, y)] = p(y | u, w, x) p(w | u) p(x | u); m = tᵀ p(u | e)
        wx = w_t[:, :, None, None] * x_t[:, None, :, None]
        t = (y_t * wx).reshape(k_u, n_cells)
        np.matmul(t.T, a_t.T, out=m)
        np.matmul(w_t.T, q_u, out=q_w)
        seen = probs[cells]
        with np.errstate(divide="ignore", invalid="ignore"):
            ll = float(weights @ np.log(seen))
            ratios[cells] = weights / seen
        g_a = r_m.T @ t.T                                   # (k_e, k_u)
        g_t = (a_t.T @ r_m.T).reshape(k_u, k_w, k_x, k_y)
        g_wx = (g_t * y_t).sum(axis=3)                      # (k_u, k_w, k_x)
        g_w = (g_wx * x_t[:, None, :]).sum(axis=2) + q_u[:, None] * r_w
        g_x = (g_wx * w_t[:, :, None]).sum(axis=1)
        g = np.concatenate([g_a.ravel(), w_t @ r_w, g_w.ravel(), g_x.ravel(),
                            (g_t * wx).ravel()])
        # softmax backprop per column, negated for the minimiser
        g = p * (np.add.reduceat(p * g, starts)[group] - g)
        grad = np.empty(dim)
        grad[perm] = g
        return -ll, grad

    return f


def _evaluate(theta: ThetaParams, counts: ContingencyCounts) -> tuple[float, np.ndarray]:
    k_y, k_x, k_w, k_e = counts.n_yxwe.shape
    if theta.u_e.shape[1] != k_e or theta.y_uwx.shape != (k_y, theta.k_u, k_w, k_x):
        raise ValidationError("logit blocks do not match the count table's dimensions")
    return _objective(counts, theta.k_u)(theta.flatten())


def log_likelihood(theta: ThetaParams, counts: ContingencyCounts) -> float:
    """Observed-data log-likelihood, conditional on the domain labels; empty
    cells contribute nothing (``0 * log 0`` is 0)."""
    return -_evaluate(theta, counts)[0]


def likelihood_gradient(theta: ThetaParams, counts: ContingencyCounts) -> np.ndarray:
    """Analytic gradient of the log-likelihood with respect to the logits."""
    return -_evaluate(theta, counts)[1]


@dataclass(frozen=True)
class FitDiagnostics:
    """The best restart's log-likelihood, its optimiser iterations and
    whether the optimiser reported convergence."""

    log_likelihood: float
    iterations: int
    converged: bool


def fit_causal(counts: ContingencyCounts, opts: FitOptions | None = None,
               k_u: int | None = None) -> tuple[ThetaParams, FitDiagnostics]:
    """Maximise the observed-data likelihood over the mechanism logits.

    ``k_u`` is the fitted confounder cardinality and must be supplied (it is
    not derivable from the observables).  Runs ``opts.restarts`` independent
    optimisations from uniform [0, 1] initial logits and keeps the best; the
    returned likelihood is never below that of any starting point.
    """
    if counts.n < 1:
        raise ValidationError("counts must describe at least one record")
    if k_u is None:
        raise ValidationError("k_u (the fitted confounder cardinality) is required")
    # imported here so that starting the CLI does not load scipy
    from scipy.optimize import minimize

    opts = opts or FitOptions()
    k_y, k_x, k_w, k_e = counts.n_yxwe.shape
    dim = k_u * k_e + k_u + k_w * k_u + k_x * k_u + k_y * k_u * k_w * k_x
    objective = _objective(counts, k_u)

    best: tuple[float, np.ndarray, object] | None = None
    for restart in range(opts.restarts):
        rng = np.random.default_rng([opts.seed, restart])
        x0 = rng.uniform(0.0, 1.0, size=dim)
        f0, _ = objective(x0)
        res = minimize(
            objective, x0, method="L-BFGS-B", jac=True,
            options={"maxiter": opts.max_iterations, "maxfun": 10 * opts.max_iterations,
                     "gtol": opts.gradient_tol, "ftol": 1e-15})
        x_hat, f_hat = res.x, float(res.fun)
        if f_hat > f0:  # paranoid guard: never return worse than the start
            x_hat, f_hat = x0, f0
        if best is None or f_hat < best[0]:
            best = (f_hat, x_hat, res)
    f_best, x_best, res_best = best
    theta = ThetaParams.from_flat(x_best, k_u, k_e, k_w, k_x, k_y)
    diag = FitDiagnostics(
        log_likelihood=-f_best,
        iterations=int(getattr(res_best, "nit", 0)),
        converged=bool(getattr(res_best, "success", False)))
    return theta, diag


def g_of_theta(theta: ThetaParams, x: int, y: int) -> float:
    """Causal effect implied by a mechanism parameter (plug-in value)."""
    q_u = _softmax0(theta.q_u[:, None])[:, 0]
    inner = effect_given_u(_softmax0(theta.y_uwx), _softmax0(theta.w_u), x, y)
    return float(inner @ q_u)


def causal_estimate(counts: ContingencyCounts, x: int, y: int,
                    opts: FitOptions | None = None, *, k_u: int) -> EffectEstimate:
    """Fit a mechanism with ``k_u`` confounder levels and read off the effect.

    ``k_u`` is not derivable from the counts; a value other than the true
    cardinality fits a deliberately misspecified mechanism.  The point is
    already a probability, so no clipping is applied and no confidence
    interval is produced.  The fit's diagnostics ride along in ``fit``, so a
    fit that did not converge is visible in the estimate.
    """
    theta, diag = fit_causal(counts, opts, k_u=k_u)
    point = g_of_theta(theta, x, y)
    return EffectEstimate(point=point, point_unclipped=point, n=counts.n, fit=diag)
