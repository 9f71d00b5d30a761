"""Maximum-likelihood estimation of the full latent mechanism.

The model parameters are the entries of the five structural conditionals,
optimised as unconstrained logits and mapped to strictly positive pmfs by a
column-wise softmax.  The observed-data likelihood mixes over the hidden
confounder; fitting uses a quasi-Newton optimiser with an analytic gradient
(the parameter count grows like ``k_u * k_w * k_x * k_y``, so finite
differences would dominate the runtime).  The causal effect is then read off
the fitted mechanism by the decomposition
``diag(p_y_uw @ p_w_u) @ q_u``; unlike the plug-in estimator it is a convex
combination of probabilities, so no clipping is ever needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .reduced import EffectEstimate, EstimateFlags
from .scm import ContingencyCounts


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


class ThetaProbs(NamedTuple):
    """Softmax view of the mechanism logits: strictly positive,
    column-stochastic probability arrays."""

    p_u_given_e: np.ndarray   # (k_u, k_e)
    q_u: np.ndarray           # (k_u,)
    p_w_given_u: np.ndarray   # (k_w, k_u)
    p_x_given_u: np.ndarray   # (k_x, k_u)
    p_y_given_uwx: np.ndarray  # (k_y, k_u, k_w, k_x)


@dataclass(frozen=True, eq=False)
class ThetaParams:
    """Raw logit blocks mirroring the five structural conditionals."""

    u_e: np.ndarray
    q_u: np.ndarray
    w_u: np.ndarray
    x_u: np.ndarray
    y_uwx: np.ndarray

    def __post_init__(self):
        for name in ("u_e", "q_u", "w_u", "x_u", "y_uwx"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
        if self.u_e.ndim != 2 or self.q_u.ndim != 1 or self.w_u.ndim != 2 \
                or self.x_u.ndim != 2 or self.y_uwx.ndim != 4:
            raise ValidationError("logit blocks have wrong dimensionality")
        k_u = self.u_e.shape[0]
        if (self.q_u.shape[0] != k_u or self.w_u.shape[1] != k_u
                or self.x_u.shape[1] != k_u or self.y_uwx.shape[1] != k_u):
            raise ValidationError("logit blocks disagree on the confounder cardinality")

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


def logits_to_theta(theta: ThetaParams) -> ThetaProbs:
    """Column-wise softmax of every logit block (over the outcome axis)."""
    for name in ("u_e", "q_u", "w_u", "x_u", "y_uwx"):
        if not np.all(np.isfinite(getattr(theta, name))):
            raise ValidationError(f"non-finite logits in block {name}")
    return ThetaProbs(
        _softmax0(theta.u_e),
        _softmax0(theta.q_u[:, None])[:, 0],
        _softmax0(theta.w_u),
        _softmax0(theta.x_u),
        _softmax0(theta.y_uwx),
    )


def _observable_probs(probs: ThetaProbs) -> tuple[np.ndarray, np.ndarray]:
    """Mixture probabilities of the observables: the source cell table
    ``p(y, x, w | e)`` and the target proxy marginal ``q(w)``."""
    t = np.einsum("yuwx,wu,xu->yxwu", probs.p_y_given_uwx,
                  probs.p_w_given_u, probs.p_x_given_u)
    m = np.einsum("yxwu,ue->yxwe", t, probs.p_u_given_e)
    q_w = probs.p_w_given_u @ probs.q_u
    return m, q_w


def log_likelihood(theta: ThetaParams | ThetaProbs,
                   counts: ContingencyCounts) -> float:
    """Observed-data log-likelihood, conditional on the domain labels.

    ``0 * log 0`` is taken as 0, so empty cells contribute nothing.
    """
    probs = logits_to_theta(theta) if isinstance(theta, ThetaParams) else theta
    m, q_w = _observable_probs(probs)
    n = counts.n_yxwe.astype(float)
    nw = counts.n_w_target.astype(float)
    with np.errstate(divide="ignore"):
        src = np.where(n > 0, n * np.log(np.where(n > 0, m, 1.0)), 0.0).sum()
        tgt = np.where(nw > 0, nw * np.log(np.where(nw > 0, q_w, 1.0)), 0.0).sum()
    return float(src + tgt)


def _softmax_backprop(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    inner = (p * g).sum(axis=0, keepdims=True)
    return p * (g - inner)


def _negative_loglik_and_grad(flat: np.ndarray, counts: ContingencyCounts,
                              k_u: int, k_e: int, k_w: int, k_x: int,
                              k_y: int) -> tuple[float, np.ndarray]:
    theta = ThetaParams.from_flat(flat, k_u, k_e, k_w, k_x, k_y)
    probs = logits_to_theta(theta)
    a, qu, wm, xm, ym = probs
    t = np.einsum("yuwx,wu,xu->yxwu", ym, wm, xm)
    m = np.einsum("yxwu,ue->yxwe", t, a)
    q_w = wm @ qu

    n = counts.n_yxwe.astype(float)
    nw = counts.n_w_target.astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ll = float(np.where(n > 0, n * np.log(np.where(n > 0, m, 1.0)), 0.0).sum()
                   + np.where(nw > 0, nw * np.log(np.where(nw > 0, q_w, 1.0)), 0.0).sum())
        r = np.where(n > 0, n / m, 0.0)
        rw = np.where(nw > 0, nw / q_w, 0.0)

    g_a = np.einsum("yxwe,yxwu->ue", r, t)
    g_t = np.einsum("yxwe,ue->yxwu", r, a)
    g_ym = np.einsum("yxwu,wu,xu->yuwx", g_t, wm, xm)
    g_wm = np.einsum("yxwu,yuwx,xu->wu", g_t, ym, xm) + rw[:, None] * qu[None, :]
    g_xm = np.einsum("yxwu,yuwx,wu->xu", g_t, ym, wm)
    g_qu = wm.T @ rw

    grad = ThetaParams(
        _softmax_backprop(a, g_a),
        _softmax_backprop(qu[:, None], g_qu[:, None])[:, 0],
        _softmax_backprop(wm, g_wm),
        _softmax_backprop(xm, g_xm),
        _softmax_backprop(ym, g_ym),
    ).flatten()
    return -ll, -grad


def likelihood_gradient(theta: ThetaParams, counts: ContingencyCounts) -> np.ndarray:
    """Analytic gradient of the log-likelihood with respect to the logits."""
    k_y, k_x, k_w, k_e = counts.n_yxwe.shape
    _, neg = _negative_loglik_and_grad(theta.flatten(), counts, theta.k_u,
                                       k_e, k_w, k_x, k_y)
    return -neg


@dataclass(frozen=True)
class FitDiagnostics:
    log_likelihood: float
    iterations: int
    converged: bool
    restart: int
    improved: bool
    message: str = ""


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

    best: tuple[float, np.ndarray, int, object] | None = None
    improved = False
    for restart in range(opts.restarts):
        rng = np.random.default_rng([opts.seed, restart])
        x0 = rng.uniform(0.0, 1.0, size=dim)
        f0, _ = _negative_loglik_and_grad(x0, counts, k_u, k_e, k_w, k_x, k_y)
        res = minimize(
            _negative_loglik_and_grad, x0,
            args=(counts, k_u, k_e, k_w, k_x, k_y),
            method="L-BFGS-B", jac=True,
            options={"maxiter": opts.max_iterations, "maxfun": 10 * opts.max_iterations,
                     "gtol": opts.gradient_tol, "ftol": 1e-15})
        x_hat, f_hat = res.x, float(res.fun)
        if f_hat > f0:  # paranoid guard: never return worse than the start
            x_hat, f_hat = x0, f0
        else:
            improved = improved or f_hat < f0
        if best is None or f_hat < best[0]:
            best = (f_hat, x_hat, restart, res)
    f_best, x_best, restart_best, res_best = best
    theta = ThetaParams.from_flat(x_best, k_u, k_e, k_w, k_x, k_y)
    diag = FitDiagnostics(
        log_likelihood=-f_best,
        iterations=int(getattr(res_best, "nit", 0)),
        converged=bool(getattr(res_best, "success", False)),
        restart=restart_best,
        improved=improved,
        message="" if improved else "no restart improved on its starting point")
    return theta, diag


def g_of_theta(theta: ThetaParams | ThetaProbs, x: int, y: int) -> float:
    """Causal effect implied by a mechanism parameter (plug-in value)."""
    probs = logits_to_theta(theta) if isinstance(theta, ThetaParams) else theta
    p_y_uw = probs.p_y_given_uwx[y, :, :, x]
    inner = np.einsum("uw,wu->u", p_y_uw, probs.p_w_given_u)
    return float(inner @ probs.q_u)


def causal_estimate(counts: ContingencyCounts, x: int, y: int,
                    opts: FitOptions | None = None, *, k_u: int) -> EffectEstimate:
    """Fit a mechanism with ``k_u`` confounder levels and read off the effect.

    ``k_u`` is not derivable from the counts; a value other than the true
    cardinality fits a deliberately misspecified mechanism.  The point is
    already a probability, so no clipping is applied and no confidence
    interval is produced.
    """
    theta, _ = fit_causal(counts, opts, k_u=k_u)
    point = g_of_theta(theta, x, y)
    return EffectEstimate(point=point, point_unclipped=point, n=counts.n,
                          flags=EstimateFlags())
