"""Maximum-likelihood estimation of the full latent mechanism.

The model parameters are the entries of the five structural conditionals,
optimised as unconstrained logits and mapped to strictly positive pmfs by a
column-wise softmax.  The observed-data likelihood mixes over the hidden
confounder.  The fit is an exact trust-region iteration on the analytic
gradient, the expected information ``I = Jᵀ diag(N/p) J`` and the Hessian
(``J`` is the Jacobian of the observed cell probabilities ``p`` with respect
to the logits, ``N`` the size of each cell's multinomial); each step takes
whichever of ``I`` and the Hessian modelled the last step better.  The
causal effect is then read off the fitted mechanism by the decomposition
``sum_u q_u sum_w p(y|u,w,x) p(w|u)`` (:func:`proxyshift.scm.effect_given_u`);
unlike the plug-in estimator it is a convex combination of probabilities, so
no clipping is ever needed.  The fit and :func:`log_likelihood` evaluate the
one likelihood, :func:`_objective`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .reduced import EffectEstimate
from .scm import ContingencyCounts, effect_given_u


@dataclass(frozen=True)
class FitOptions:
    """Settings for the mechanism fit.

    ``max_iterations`` caps the trust-region steps tried per start, accepted
    or not.  Each costs one evaluation of the likelihood, its gradient, the
    expected information and the Hessian, and at most one symmetric
    eigendecomposition: O(dim³) time in the number of logits and O(dim²)
    memory.
    A start has converged when the largest gradient entry of the negative
    log-likelihood is at most ``gradient_tol``, or when the next step's
    predicted decrease is below the rounding error of the negative
    log-likelihood itself.
    """

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


_BLOCK_NAMES = ("u_e", "q_u", "w_u", "x_u", "y_uwx")


class _Layout(NamedTuple):
    """The index arrays that depend only on the dimensions (all read-only)."""

    offsets: np.ndarray      # start of each block in the flat logit vector
    perm: np.ndarray         # flat index of each logit, softmax groups contiguous
    starts: np.ndarray       # start of each softmax group in ``perm`` order
    group: np.ndarray        # softmax group of each position in ``perm`` order
    jacobian: np.ndarray     # (cell row, ``perm`` column) of each Jacobian entry, raveled
    mixed: np.ndarray        # (``perm``, ``perm``) of each mixed second derivative, raveled
    shift: np.ndarray        # (flat, flat) of each pair within one softmax group, raveled
    shift_weight: np.ndarray  # 1 / size of that pair's group

    @property
    def dim(self) -> int:
        return int(self.offsets[-1])


@functools.lru_cache
def _layout(k_y: int, k_x: int, k_w: int, k_e: int, k_u: int) -> _Layout:
    """Each block is a ``(k_out, k_cols)`` matrix whose columns are softmaxed,
    so a gather permutation lays every column out as one contiguous group; in
    that order a block reads as the transpose of its probability matrix.

    The rows of ``J`` are the source cells in (w, x, y, e) order, then the
    target proxy cells.  A source cell is a sum over u of products of four
    softmax outputs and a target cell of two; ``jacobian`` lists the cells'
    first derivatives by those outputs, and ``mixed`` the pairs of outputs
    that share a product, block pair by block pair, in the order
    :func:`_objective` lays out their values.
    """
    blocks = ((k_u, k_e), (k_u, 1), (k_w, k_u), (k_x, k_u), (k_y, k_u * k_w * k_x))
    offsets = np.cumsum([0] + [k_out * k_cols for k_out, k_cols in blocks])
    dim = int(offsets[-1])
    perm = np.concatenate([off + np.arange(k_out * k_cols).reshape(k_out, k_cols).T.ravel()
                           for off, (k_out, k_cols) in zip(offsets, blocks)])
    group_sizes = np.concatenate([np.full(k_cols, k_out) for k_out, k_cols in blocks])
    starts = np.concatenate([[0], np.cumsum(group_sizes)[:-1]])
    group = np.repeat(np.arange(group_sizes.size), group_sizes)

    # the position in ``perm`` order of p(u|e), q_u, p(w|u), p(x|u) and p(y|u,w,x)
    o_a, o_q, o_w, o_x, o_y = offsets[:5]
    w, x, y, e, u = np.ix_(*(np.arange(k) for k in (k_w, k_x, k_y, k_e, k_u)))
    at_a, at_q = o_a + e * k_u + u, o_q + u
    at_w, at_x = o_w + u * k_w + w, o_x + u * k_x + x
    at_y = o_y + ((u * k_w + w) * k_x + x) * k_y + y
    row = ((w * k_x + x) * k_y + y) * k_e + e
    row_t = k_w * k_x * k_y * k_e + w
    jacobian = [row * dim + col for col in (at_a, at_y, at_w, at_x)]
    jacobian += [row_t * dim + col for col in (at_q, at_w)]
    # each pair broadcasts over the (w, x, y, e, u) axes its two outputs use
    mixed = [i * dim + j for i, j in ((at_a, at_w), (at_a, at_x), (at_a, at_y), (at_w, at_x),
                                      (at_w, at_y), (at_x, at_y), (at_q, at_w))]

    members = np.split(perm, starts[1:])
    shift = np.concatenate([np.add.outer(m * dim, m).ravel() for m in members])
    shift_weight = np.repeat(1.0 / group_sizes, group_sizes ** 2)
    layout = _Layout(offsets, perm, starts, group,
                     np.concatenate([j.ravel() for j in jacobian]),
                     np.concatenate([m.ravel() for m in mixed]), shift, shift_weight)
    for arr in layout:
        arr.flags.writeable = False
    return layout


def _objective(counts: ContingencyCounts, k_u: int, curvature: bool = False):
    """The negative log-likelihood and its gradient as ``f(flat) -> (nll, grad)``
    over the flat logit vector (the layout of :meth:`ThetaParams.flatten`);
    with ``curvature`` it returns ``(nll, grad, I, H)``: the expected
    information ``I = Jᵀ diag(N/p) J`` and the Hessian ``H`` of ``nll``.

    ``J`` is the Jacobian of the cell probabilities ``p`` by the logits and
    ``N`` the size of each cell's multinomial (``n_e`` for a source cell of
    domain e, ``n_T`` for a target cell).  ``H`` is ``Jᵀ diag(n/p²) J`` less
    the cells' second derivatives weighted by ``n/p``; it equals ``I`` where
    the fit reproduces the observed counts ``n``.

    Everything that depends only on the counts is built here, once per fit,
    and the index arrays of the dimensions once per process.  Only non-empty
    cells enter the likelihood, so ``0 * log 0`` is 0.  At a point where a
    non-empty cell's probability underflows to 0 the likelihood is 0: ``nll``
    is ``+inf`` and the derivatives are NaN.
    """
    k_y, k_x, k_w, k_e = counts.n_yxwe.shape
    n_cells = k_w * k_x * k_y
    layout = _layout(k_y, k_x, k_w, k_e, k_u)
    offsets, perm, starts, group = layout.offsets, layout.perm, layout.starts, layout.group
    dim = layout.dim
    # source cells in (w, x, y, e) order, then the target proxy cells
    observed = np.concatenate([counts.n_yxwe.transpose(2, 1, 0, 3).ravel(),
                               counts.n_w_target]).astype(float)
    cells = np.flatnonzero(observed)
    weights = observed[cells]
    sizes = np.concatenate([np.tile(counts.n_yxwe.sum(axis=(0, 1, 2)), n_cells),
                            np.full(k_w, counts.n_w_target.sum())]).astype(float)
    probs = np.empty(observed.size)
    ratios = np.zeros(observed.size)
    m, q_w = probs[:-k_w].reshape(n_cells, k_e), probs[-k_w:]
    r_m, r_w = ratios[:-k_w].reshape(n_cells, k_e), ratios[-k_w:]
    r_4 = r_m.reshape(k_w, k_x, k_y, k_e)
    sl_a, sl_q, sl_w, sl_x, sl_y = (slice(lo, hi) for lo, hi in zip(offsets[:-1], offsets[1:]))
    shift_rows, shift_cols = np.divmod(layout.shift, dim)
    unperm = np.argsort(perm)

    def chain(rows: np.ndarray, p: np.ndarray) -> np.ndarray:
        """``rows`` (derivatives by the softmax outputs) times the softmax
        Jacobian, one group at a time."""
        return p * (rows - np.add.reduceat(rows * p, starts, axis=-1)[..., group])

    def to_flat(matrix: np.ndarray) -> np.ndarray:
        return matrix.take(unperm, axis=0).take(unperm, axis=1)

    def f(flat: np.ndarray):
        if flat.shape != (dim,):
            raise ValidationError(f"flat parameter vector has size {flat.size}, "
                                  f"expected {dim}")
        if not np.isfinite(flat).all():
            first = np.flatnonzero(~np.isfinite(flat))[0]
            block = _BLOCK_NAMES[np.searchsorted(offsets, first, side="right") - 1]
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
        if not seen.all():
            nan = np.full((dim, dim), np.nan)
            return (math.inf, nan[0], nan, nan) if curvature else (math.inf, nan[0])
        ll = float(weights @ np.log(seen))
        ratios[cells] = weights / seen
        g_a = r_m.T @ t.T                                   # (k_e, k_u)
        g_t = (a_t.T @ r_m.T).reshape(k_u, k_w, k_x, k_y)
        g_wx = (g_t * y_t).sum(axis=3)                      # (k_u, k_w, k_x)
        g_w = (g_wx * x_t[:, None, :]).sum(axis=2) + q_u[:, None] * r_w
        g_x = (g_wx * w_t[:, :, None]).sum(axis=1)
        g = np.concatenate([g_a.ravel(), w_t @ r_w, g_w.ravel(), g_x.ravel(),
                            (g_t * wx).ravel()])
        grad = np.empty(dim)
        grad[perm] = -chain(g, p)
        if not curvature:
            return -ll, grad
        # the cells' derivatives by the softmax outputs, in the order of
        # ``layout.jacobian``: a source cell (w, x, y, e) by p(u | e),
        # p(y | u, w, x), p(w | u) and p(x | u); a target cell w by q_u and p(w | u)
        y_x, y_w = y_t * x_t[:, None, :, None], y_t * w_t[:, :, None, None]
        by_ywx = np.concatenate([np.repeat(wx, k_y, axis=3), y_x, y_w]).reshape(3, k_u, n_cells)
        values = np.concatenate([
            np.repeat(t.T, k_e, axis=0).ravel(),
            (by_ywx.transpose(0, 2, 1)[:, :, None, :] * a_t).ravel(),
            w_t.T.ravel(), np.tile(q_u, k_w)])
        jac = np.zeros(probs.size * dim)
        jac[layout.jacobian] = values
        jac = chain(jac.reshape(probs.size, dim), p)
        expected = jac * np.sqrt(np.divide(sizes, probs, out=np.zeros(probs.size),
                                           where=probs > 0))[:, None]
        empirical = jac * np.sqrt(np.divide(ratios, probs, out=np.zeros(probs.size),
                                            where=ratios > 0))[:, None]
        # the cells' mixed second derivatives by pairs of softmax outputs,
        # weighted by n/p and summed, in the order of ``layout.mixed``
        u_last = (1, 2, 3, 0)
        values = np.concatenate([
            np.einsum("wxye,uwxy->weu", r_4, y_x).ravel(),
            np.einsum("wxye,uwxy->xeu", r_4, y_w).ravel(),
            (r_4[..., None] * wx[..., 0].transpose(1, 2, 0)[:, :, None, None]).ravel(),
            g_wx.transpose(1, 2, 0).ravel(),
            (g_t * x_t[:, None, :, None]).transpose(u_last).ravel(),
            (g_t * w_t[:, :, None, None]).transpose(u_last).ravel(),
            np.repeat(r_w, k_u)])
        mixed = np.zeros(dim * dim)
        mixed[layout.mixed] = values
        mixed = chain(chain(mixed.reshape(dim, dim), p).T, p)
        hess = to_flat(empirical.T @ empirical - mixed - mixed.T)
        # the softmax's own curvature, within each group
        p_flat = np.empty(dim)
        p_flat[perm] = p
        hess.flat[layout.shift] -= (grad[shift_rows] * p_flat[shift_cols]
                                    + p_flat[shift_rows] * grad[shift_cols])
        hess.flat[::dim + 1] += grad
        return -ll, grad, to_flat(expected.T @ expected), hess

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


def _saturated_log_likelihood(counts: ContingencyCounts) -> float:
    """The log-likelihood of the empirical cell frequencies: ``Σ n log(n / n_e)``
    over the non-empty source cells plus ``Σ n_w log(n_w / n_T)`` over the
    non-empty target proxy cells."""
    total = 0.0
    for table, size in ((counts.n_yxwe, counts.n_yxwe.sum(axis=(0, 1, 2))),
                        (counts.n_w_target, counts.n_w_target.sum())):
        n = table.astype(float)
        share = np.divide(n, size, out=np.ones_like(n), where=n > 0)
        total += float((n * np.log(share)).sum())
    return total


def _trust_region(objective, x: np.ndarray, start: tuple, layout: _Layout,
                  max_iterations: int, gradient_tol: float,
                  callback=None) -> tuple[np.ndarray, float, int, bool]:
    """Minimise ``objective(x) -> (f, grad, I, H)`` from ``x``, where it is
    ``start``, by an exact trust-region iteration; returns the last accepted
    point, its value, the steps tried and whether it converged.

    The model is ``f + gᵀs + sᵀBs / 2``, with ``B`` the expected information
    ``I`` at first.  After a trial step that achieved less than a quarter of
    its predicted decrease, the next model is whichever of ``I`` and the
    Hessian ``H`` predicted that step's actual decrease more closely, after
    the adaptive choice of NL2SOL (Dennis, Gay and Welsch, 1981): ``I`` is
    positive semi-definite and the better model far from a fit, and ``H``
    has the curvature that ``I`` lacks where the fit does not reproduce the
    counts.  Both are singular along the softmax shift directions, where
    the gradient has no component, so the shift projector (scaled to ``I``) is
    added before the eigendecomposition; what stays numerically singular is
    dropped, as a pseudo-inverse would.  A step is accepted when it decreases
    ``f``, so the accepted values never increase; a trial whose value or
    derivatives are not finite is rejected and the radius shrunk.
    ``callback(x, f)`` sees each accepted point.
    """
    eps = np.finfo(float).eps
    f, g, info, hess = start
    if not all(np.isfinite(v).all() for v in start):
        return x, f, 0, False
    radius = 1.0
    expected = fresh = True
    iterations = 0
    while True:
        if fresh:
            h = (info if expected else hess).copy()
            h.flat[layout.shift] += np.trace(info) / x.size * layout.shift_weight
            lam, vec = np.linalg.eigh(h)
            keep = np.abs(lam) > x.size * eps * np.abs(lam).max()
            lam = np.where(keep, lam, 1.0)
            g_eig = np.where(keep, vec.T @ g, 0.0)
            fresh = False
        step = _step(lam, g_eig, radius)
        predicted = -(g_eig @ step + 0.5 * (lam * step) @ step)
        if np.max(np.abs(g)) <= gradient_tol or predicted <= eps * max(f, 1.0):
            return x, f, iterations, True
        if iterations == max_iterations:
            return x, f, iterations, False
        iterations += 1
        length = math.sqrt(step @ step)
        s = vec @ step
        trial = objective(x + s)
        decrease = f - trial[0]
        if math.isfinite(decrease) and decrease < 0.25 * predicted:
            other = -(g @ s + 0.5 * s @ ((hess if expected else info) @ s))
            if abs(decrease - other) < abs(decrease - predicted):
                expected, fresh = not expected, True
        if decrease > 0 and all(np.isfinite(v).all() for v in trial[1:]):
            ratio = decrease / predicted
            x, (f, g, info, hess), fresh = x + s, trial, True
            if callback is not None:
                callback(x, f)
        else:
            ratio = -math.inf
        if ratio < 0.25:
            radius = 0.25 * length
        elif ratio > 0.75 and length > 0.99 * radius:
            radius *= 2.0


def _step(lam: np.ndarray, g: np.ndarray, radius: float) -> np.ndarray:
    """The minimiser of ``gᵀs + Σ lam s² / 2`` over ``‖s‖ ≤ radius`` (Moré and
    Sorensen, 1983): the Newton step when every ``lam > 0`` and it fits, else
    ``s(μ) = -g / (lam + μ)`` with ``μ > max(0, -min lam)`` and
    ``‖s(μ)‖ = radius``, found by Newton's method on ``1/‖s(μ)‖ - 1/radius``.
    That function is concave and increasing there, so the iteration from the
    left rises monotonically to the root.  In the hard case ``g`` has no
    component along the lowest eigenvector, ``‖s(μ)‖`` stays inside the
    radius, and the step is completed along that eigenvector."""
    low = int(np.argmin(lam))
    if lam[low] > 0:
        step = -g / lam
        if step @ step <= radius * radius:
            return step
        mu = 0.0
    else:
        mu = np.finfo(float).eps * np.abs(lam).max() - lam[low]
        step = -g / (lam + mu)
        if step @ step <= radius * radius:
            step[low] = 0.0
            step[low] = -math.copysign(math.sqrt(radius * radius - step @ step), g[low])
            return step
    while True:
        shifted = lam + mu
        step = -g / shifted
        norm2 = float(step @ step)
        if norm2 <= radius * radius:
            return step
        norm = math.sqrt(norm2)
        # stepᵀ (step / shifted) = Σ g² / (lam + μ)³ = -‖s‖ d‖s‖/dμ
        mu_next = mu + (norm / radius - 1.0) * norm2 / float(step @ (step / shifted))
        if not mu_next > mu:
            return step * (radius / norm)
        mu = mu_next


@dataclass(frozen=True)
class FitDiagnostics:
    """The best restart's log-likelihood, its trust-region steps, whether it
    converged, and its deviance ``2(ℓ_sat − ℓ̂)`` from the saturated model of
    the observed cells (up to rounding, non-negative; near 0 when the
    mechanism reproduces the empirical cell frequencies)."""

    log_likelihood: float
    iterations: int
    converged: bool
    deviance: float


def fit_causal(counts: ContingencyCounts, opts: FitOptions | None = None,
               k_u: int | None = None) -> tuple[ThetaParams, FitDiagnostics]:
    """Maximise the observed-data likelihood over the mechanism logits.

    ``k_u`` is the fitted confounder cardinality and must be supplied (it is
    not derivable from the observables).  Runs ``opts.restarts`` independent
    trust-region fits from uniform [0, 1] initial logits and keeps the best;
    the returned likelihood is never below that of any starting point.
    """
    if counts.n < 1:
        raise ValidationError("counts must describe at least one record")
    if k_u is None:
        raise ValidationError("k_u (the fitted confounder cardinality) is required")

    opts = opts or FitOptions()
    k_y, k_x, k_w, k_e = counts.n_yxwe.shape
    layout = _layout(k_y, k_x, k_w, k_e, k_u)
    objective = _objective(counts, k_u, curvature=True)

    best: tuple[float, np.ndarray, int, bool] | None = None
    for restart in range(opts.restarts):
        rng = np.random.default_rng([opts.seed, restart])
        x0 = rng.uniform(0.0, 1.0, size=layout.dim)
        start = objective(x0)
        x_hat, f_hat, iterations, converged = _trust_region(
            objective, x0, start, layout, opts.max_iterations, opts.gradient_tol)
        if f_hat > start[0]:  # paranoid guard: never return worse than the start
            x_hat, f_hat = x0, start[0]
        if best is None or f_hat < best[0]:
            best = (f_hat, x_hat, iterations, converged)
    f_best, x_best, iterations, converged = best
    theta = ThetaParams.from_flat(x_best, k_u, k_e, k_w, k_x, k_y)
    diag = FitDiagnostics(log_likelihood=-f_best, iterations=iterations,
                          converged=converged,
                          deviance=2.0 * (_saturated_log_likelihood(counts) + f_best))
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
    fit that did not converge, or that stopped at a poor local optimum (a
    large deviance), is visible in the estimate.
    """
    theta, diag = fit_causal(counts, opts, k_u=k_u)
    point = g_of_theta(theta, x, y)
    return EffectEstimate(point=point, point_unclipped=point, n=counts.n, fit=diag)
