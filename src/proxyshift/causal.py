"""Maximum-likelihood estimation of the full latent mechanism.

The model parameters are the entries of the five structural conditionals,
optimised as unconstrained logits and mapped to strictly positive pmfs by a
column-wise softmax.  The observed-data likelihood mixes over the hidden
confounder.  Where the mechanism is saturated (``k_u = k_w = k_e`` and
``k_x = 2``) and the closed-form solution of its moment equations is a valid
mechanism, that solution reproduces every observed cell and is the fit
(:func:`_saturated_start`); elsewhere the fit runs from uniform random
starts.  The fit is an exact trust-region iteration on the analytic
gradient, the expected information ``I = Jᵀ diag(N/p) J`` and the Hessian
(``J`` is the Jacobian of the observed cell probabilities ``p`` with respect
to the logits, ``N`` the size of each cell's multinomial); each step takes
whichever of ``I`` and the Hessian modelled the last step better.  A trial
step costs one evaluation of the likelihood; the derivatives are built at
accepted points only, and the model is eigendecomposed on the logit
directions that move the softmax outputs, ``dim`` minus the number of
softmax groups of them.  The causal effect is then read off the fitted
mechanism by the decomposition ``sum_u q_u sum_w p(y|u,w,x) p(w|u)``
(:func:`proxyshift.scm.effect_given_u`); unlike the plug-in estimator it is
a convex combination of probabilities, so no clipping is ever needed.  The
fit and :func:`log_likelihood` evaluate the one likelihood,
:func:`_objective`, whose points also give ``I`` at the fitted logits.
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
    or not.  Each trial costs one evaluation of the likelihood.  An accepted
    step adds the gradient, the one curvature matrix (expected information
    or Hessian) that the model uses, and one symmetric eigendecomposition of
    size ``dim`` minus the number of softmax groups; the other matrix is
    built only when a poor step asks which of the two modelled it better.
    That is O(dim³) time in the number of logits and O(dim²) memory.
    A start has converged when the largest gradient entry of the negative
    log-likelihood is at most ``gradient_tol``, or when the next step's
    predicted decrease is below the rounding error of the negative
    log-likelihood itself.

    ``restarts`` and ``seed`` choose the uniform random starts, and act only
    where the closed form of a saturated mechanism is not the fit (see
    :func:`fit_causal`); ``max_iterations`` and ``gradient_tol`` also bound
    the trust region run from the closed form.
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
    unperm: np.ndarray       # the inverse of ``perm``
    starts: np.ndarray       # start of each softmax group in ``perm`` order
    group: np.ndarray        # softmax group of each position in ``perm`` order
    jacobian: np.ndarray     # (cell row, ``perm`` column) of each Jacobian entry, raveled
    mixed: np.ndarray        # (``perm``, ``perm``) of each mixed second derivative, raveled
    pairs: np.ndarray        # (``perm``, ``perm``) of each pair within one softmax group, raveled
    basis: np.ndarray        # (flat, contrast): orthonormal, orthogonal to every softmax shift

    @property
    def dim(self) -> int:
        return int(self.offsets[-1])


def _helmert(k: int) -> np.ndarray:
    """The ``(k, k - 1)`` Helmert contrasts: orthonormal columns that each sum to 0."""
    i, j = np.arange(k)[:, None], np.arange(1, k)
    return ((i < j) - j * (i == j)) / np.sqrt(j * (j + 1.0))


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
    :class:`_Point` lays out their values.

    Adding a constant to one group's logits leaves every softmax output
    unchanged, so the likelihood is flat along those shift directions, one
    per group.  ``basis`` spans the rest: the Helmert contrasts of each group,
    ``dim`` minus the number of groups columns in all.
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
    pairs = np.concatenate([np.add.outer(i * dim, i).ravel()
                            for i in np.split(np.arange(dim), starts[1:])])
    basis = np.zeros((dim, dim - group_sizes.size))
    columns = np.cumsum([0] + [k - 1 for k in group_sizes])
    for m, lo, hi in zip(members, columns[:-1], columns[1:]):
        basis[m, lo:hi] = _helmert(m.size)
    layout = _Layout(offsets, perm, np.argsort(perm), starts, group,
                     np.concatenate([j.ravel() for j in jacobian]),
                     np.concatenate([m.ravel() for m in mixed]), pairs, basis)
    for arr in layout:
        arr.flags.writeable = False
    return layout


class _Cells(NamedTuple):
    """What the likelihood reads of one count table, built once per fit: the
    observed cells are the source cells in (w, x, y, e) order, then the target
    proxy cells."""

    layout: _Layout
    dims: tuple[int, int, int, int, int]  # k_y, k_x, k_w, k_e, k_u
    nonempty: np.ndarray  # the index of each non-empty cell
    weights: np.ndarray   # its count
    sizes: np.ndarray     # the size N of every cell's multinomial


def _objective(counts: ContingencyCounts, k_u: int):
    """The negative log-likelihood as ``f(flat) -> _Point`` over the flat
    logit vector (the layout of :meth:`ThetaParams.flatten`).

    Everything that depends only on the counts is built here, once per fit,
    and the index arrays of the dimensions once per process.
    """
    k_y, k_x, k_w, k_e = counts.n_yxwe.shape
    observed = np.concatenate([counts.n_yxwe.transpose(2, 1, 0, 3).ravel(),
                               counts.n_w_target]).astype(float)
    nonempty = np.flatnonzero(observed)
    sizes = np.concatenate([np.tile(counts.n_yxwe.sum(axis=(0, 1, 2)), k_w * k_x * k_y),
                            np.full(k_w, counts.n_w_target.sum())]).astype(float)
    cells = _Cells(_layout(k_y, k_x, k_w, k_e, k_u), (k_y, k_x, k_w, k_e, k_u),
                   nonempty, observed[nonempty], sizes)
    return functools.partial(_Point, cells)


class _Point:
    """The objective at the flat logits ``x``.

    ``value``, the negative log-likelihood, is computed on construction.  The
    gradient ``grad``, the expected information ``info = Jᵀ diag(N/p) J`` and
    the Hessian ``hess`` are each computed on first read, from the softmax
    outputs and cell probabilities kept from the value.  ``J`` is the Jacobian
    of the cell probabilities ``p`` by the logits and ``N`` the size of each
    cell's multinomial (``n_e`` for a source cell of domain e, ``n_T`` for a
    target cell).  ``hess`` is ``Jᵀ diag(n/p²) J`` less the cells' second
    derivatives weighted by ``n/p``; it equals ``info`` where the fit
    reproduces the observed counts ``n``.

    Only non-empty cells enter the likelihood, so ``0 * log 0`` is 0.  At a
    point where a non-empty cell's probability underflows to 0 the likelihood
    is 0: ``value`` is ``+inf`` and the derivatives are NaN.
    """

    def __init__(self, cells: _Cells, x: np.ndarray):
        layout = cells.layout
        offsets, starts, group = layout.offsets, layout.starts, layout.group
        if x.shape != (layout.dim,):
            raise ValidationError(f"flat parameter vector has size {x.size}, "
                                  f"expected {layout.dim}")
        if not np.isfinite(x).all():
            first = np.flatnonzero(~np.isfinite(x))[0]
            block = _BLOCK_NAMES[np.searchsorted(offsets, first, side="right") - 1]
            raise ValidationError(f"non-finite logits in block {block}")
        k_y, k_x, k_w, k_e, k_u = cells.dims
        z = x[layout.perm]
        z -= np.maximum.reduceat(z, starts)[group]
        p = np.exp(z)
        p /= np.add.reduceat(p, starts)[group]
        a_t, q_u, w_t, x_t, y_t = (p[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:]))
        a_t, w_t, x_t = a_t.reshape(k_e, k_u), w_t.reshape(k_u, k_w), x_t.reshape(k_u, k_x)
        y_t = y_t.reshape(k_u, k_w, k_x, k_y)
        # t[u, (w, x, y)] = p(y | u, w, x) p(w | u) p(x | u); m = tᵀ p(u | e)
        wx = w_t[:, :, None, None] * x_t[:, None, :, None]
        t = (y_t * wx).reshape(k_u, -1)
        probs = np.empty(cells.sizes.size)
        np.matmul(t.T, a_t.T, out=probs[:-k_w].reshape(-1, k_e))
        np.matmul(w_t.T, q_u, out=probs[-k_w:])
        seen = probs[cells.nonempty]
        self.value = -float(cells.weights @ np.log(seen)) if seen.all() else math.inf
        self.x, self._cells, self._p, self._probs = x, cells, p, probs
        self._blocks = a_t, q_u, w_t, x_t, y_t, wx, t

    @functools.cached_property
    def _softmax(self) -> np.ndarray:
        """The softmax Jacobian by the logits, in ``perm`` order: ``diag(p) - p pᵀ``
        within each group, so that derivatives by the softmax outputs times it
        are derivatives by the logits."""
        pairs, p = self._cells.layout.pairs, self._p
        jacobian = np.zeros((p.size, p.size))
        jacobian.flat[pairs] = -np.outer(p, p).flat[pairs]
        jacobian.flat[::p.size + 1] += p
        return jacobian

    def _to_flat(self, matrix: np.ndarray) -> np.ndarray:
        unperm = self._cells.layout.unperm
        return matrix.take(unperm, axis=0).take(unperm, axis=1)

    @functools.cached_property
    def grad(self) -> np.ndarray:
        cells, layout, p = self._cells, self._cells.layout, self._p
        k_y, k_x, k_w, k_e, k_u = cells.dims
        if self.value == math.inf:
            return np.full(layout.dim, np.nan)
        a_t, q_u, w_t, x_t, y_t, wx, t = self._blocks
        ratios = np.zeros(self._probs.size)
        ratios[cells.nonempty] = cells.weights / self._probs[cells.nonempty]
        r_m, r_w = ratios[:-k_w].reshape(-1, k_e), ratios[-k_w:]
        g_a = r_m.T @ t.T                                   # (k_e, k_u)
        g_t = (a_t.T @ r_m.T).reshape(k_u, k_w, k_x, k_y)
        g_wx = (g_t * y_t).sum(axis=3)                      # (k_u, k_w, k_x)
        g_w = (g_wx * x_t[:, None, :]).sum(axis=2) + q_u[:, None] * r_w
        g_x = (g_wx * w_t[:, :, None]).sum(axis=1)
        g = np.concatenate([g_a.ravel(), w_t @ r_w, g_w.ravel(), g_x.ravel(),
                            (g_t * wx).ravel()])
        # times the softmax Jacobian, one group at a time: for one vector
        # that is cheaper than building ``_softmax``
        grad = np.empty(layout.dim)
        grad[layout.perm] = -p * (g - np.add.reduceat(g * p, layout.starts)[layout.group])
        self._ratios, self._g_t, self._g_wx = ratios, g_t, g_wx  # for the Hessian
        return grad

    @functools.cached_property
    def _jacobian(self) -> np.ndarray:
        """``J`` with its columns in ``perm`` order."""
        layout = self._cells.layout
        k_y, k_x, k_w, k_e, k_u = self._cells.dims
        a_t, q_u, w_t, x_t, y_t, wx, t = self._blocks
        # the cells' derivatives by the softmax outputs, in the order of
        # ``layout.jacobian``: a source cell (w, x, y, e) by p(u | e),
        # p(y | u, w, x), p(w | u) and p(x | u); a target cell w by q_u and p(w | u)
        y_x, y_w = y_t * x_t[:, None, :, None], y_t * w_t[:, :, None, None]
        by_ywx = np.concatenate([np.repeat(wx, k_y, axis=3), y_x, y_w]).reshape(3, k_u, -1)
        values = np.concatenate([
            np.repeat(t.T, k_e, axis=0).ravel(),
            (by_ywx.transpose(0, 2, 1)[:, :, None, :] * a_t).ravel(),
            w_t.T.ravel(), np.tile(q_u, k_w)])
        jac = np.zeros(self._probs.size * layout.dim)
        jac[layout.jacobian] = values
        return jac.reshape(self._probs.size, layout.dim) @ self._softmax

    @functools.cached_property
    def info(self) -> np.ndarray:
        dim, probs = self._cells.layout.dim, self._probs
        if self.value == math.inf:
            return np.full((dim, dim), np.nan)
        expected = self._jacobian * np.sqrt(np.divide(
            self._cells.sizes, probs, out=np.zeros(probs.size), where=probs > 0))[:, None]
        return self._to_flat(expected.T @ expected)

    @functools.cached_property
    def hess(self) -> np.ndarray:
        layout, probs = self._cells.layout, self._probs
        dim = layout.dim
        if self.value == math.inf:
            return np.full((dim, dim), np.nan)
        k_y, k_x, k_w, k_e, k_u = self._cells.dims
        a_t, q_u, w_t, x_t, y_t, wx, t = self._blocks
        grad = self.grad
        ratios, g_t, g_wx = self._ratios, self._g_t, self._g_wx
        r_4, r_w = ratios[:-k_w].reshape(k_w, k_x, k_y, k_e), ratios[-k_w:]
        empirical = self._jacobian * np.sqrt(np.divide(
            ratios, probs, out=np.zeros(probs.size), where=ratios > 0))[:, None]
        # the cells' mixed second derivatives by pairs of softmax outputs,
        # weighted by n/p and summed, in the order of ``layout.mixed``
        y_x, y_w = y_t * x_t[:, None, :, None], y_t * w_t[:, :, None, None]
        u_last = (1, 2, 3, 0)
        values = np.concatenate([
            np.einsum("wxye,uwxy->weu", r_4, y_x).ravel(),
            np.einsum("wxye,uwxy->xeu", r_4, y_w).ravel(),
            (r_4[..., None] * wx[..., 0].transpose(1, 2, 0)[:, :, None, None]).ravel(),
            g_wx.transpose(1, 2, 0).ravel(),
            (g_t * x_t[:, None, :, None]).transpose(u_last).ravel(),
            (g_t * w_t[:, :, None, None]).transpose(u_last).ravel(),
            np.repeat(r_w, k_u)])
        mixed = np.zeros((dim, dim))
        mixed.flat[layout.mixed] = values
        mixed = self._softmax @ mixed.T @ self._softmax  # by the logits
        hess = empirical.T @ empirical - (mixed + mixed.T)
        # the softmax's own curvature, within each group
        g_perm = grad[layout.perm]
        curvature = np.outer(g_perm, self._p)
        hess.flat[layout.pairs] -= (curvature + curvature.T).flat[layout.pairs]
        hess.flat[::dim + 1] += g_perm
        return self._to_flat(hess)


def _evaluate(theta: ThetaParams, counts: ContingencyCounts) -> _Point:
    k_y, k_x, k_w, k_e = counts.n_yxwe.shape
    if theta.u_e.shape[1] != k_e or theta.y_uwx.shape != (k_y, theta.k_u, k_w, k_x):
        raise ValidationError("logit blocks do not match the count table's dimensions")
    return _objective(counts, theta.k_u)(theta.flatten())


def log_likelihood(theta: ThetaParams, counts: ContingencyCounts) -> float:
    """Observed-data log-likelihood, conditional on the domain labels; empty
    cells contribute nothing (``0 * log 0`` is 0)."""
    return -_evaluate(theta, counts).value


def likelihood_gradient(theta: ThetaParams, counts: ContingencyCounts) -> np.ndarray:
    """Analytic gradient of the log-likelihood with respect to the logits."""
    return -_evaluate(theta, counts).grad


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


def _trust_region(objective, point: _Point, layout: _Layout, max_iterations: int,
                  gradient_tol: float, callback=None) -> tuple[_Point, int, bool]:
    """Minimise ``objective(x) -> _Point`` from ``point`` by an exact
    trust-region iteration; returns the last accepted point, the steps tried
    and whether it converged.

    The model is ``f + gᵀs + sᵀBs / 2``, with ``B`` the expected information
    ``I`` at first.  After a trial step that achieved less than a quarter of
    its predicted decrease, the next model is whichever of ``I`` and the
    Hessian ``H`` predicted that step's actual decrease more closely, after
    the adaptive choice of NL2SOL (Dennis, Gay and Welsch, 1981): ``I`` is
    positive semi-definite and the better model far from a fit, and ``H``
    has the curvature that ``I`` lacks where the fit does not reproduce the
    counts.  Both are singular along the softmax shift directions, where
    the gradient has no component, so the model lives on the contrast basis
    ``Q = layout.basis`` of the rest: :func:`_eigenmodel` eigendecomposes
    ``Qᵀ B Q``, of size ``dim`` minus the number of softmax groups.

    A trial step costs one evaluation of ``f``.  A step is accepted when it
    decreases ``f``, so the accepted values never increase.  An accepted
    point adds its gradient and the matrix the model uses; the other matrix
    is built only where a poor step needs the comparison.  A trial whose
    value, gradient or model matrix is not finite is rejected and the radius
    shrunk.  ``callback(x, f)`` sees each accepted point.
    """
    eps = np.finfo(float).eps

    def finite(p: _Point, expected: bool) -> bool:
        return (math.isfinite(p.value) and np.isfinite(p.grad).all()
                and np.isfinite(p.info if expected else p.hess).all())

    if not finite(point, True):
        return point, 0, False
    radius = 1.0
    expected = fresh = True
    iterations = 0
    while True:
        g = point.grad
        if np.max(np.abs(g)) <= gradient_tol:
            return point, iterations, True
        if fresh:
            lam, vec, g_eig = _eigenmodel(point.info if expected else point.hess, g,
                                          layout.basis)
            fresh = False
        step = _step(lam, g_eig, radius)
        predicted = -(g_eig @ step + 0.5 * (lam * step) @ step)
        if predicted <= eps * max(point.value, 1.0):
            return point, iterations, True
        if iterations == max_iterations:
            return point, iterations, False
        iterations += 1
        length = math.sqrt(step @ step)
        s = vec @ step
        trial = objective(point.x + s)
        decrease = point.value - trial.value
        if math.isfinite(decrease) and decrease < 0.25 * predicted:
            other = -(g @ s + 0.5 * s @ ((point.hess if expected else point.info) @ s))
            if abs(decrease - other) < abs(decrease - predicted):
                expected, fresh = not expected, True
        if decrease > 0 and finite(trial, expected):
            ratio = decrease / predicted
            point, fresh = trial, True
            if callback is not None:
                callback(point.x, point.value)
        else:
            ratio = -math.inf
        if ratio < 0.25:
            radius = 0.25 * length
        elif ratio > 0.75 and length > 0.99 * radius:
            radius *= 2.0


def _eigenmodel(matrix: np.ndarray, g: np.ndarray, basis: np.ndarray):
    """The model ``gᵀs + sᵀ matrix s / 2`` on the span of the orthonormal
    ``basis``, in the eigenbasis of ``basisᵀ matrix basis``: ``(lam, vec,
    g_eig)``, with ``s = vec @ t`` for a step ``t`` in that eigenbasis.  An
    eigenvalue at most ``dim · eps`` times the largest in magnitude is
    numerically 0, and its direction is dropped, as a pseudo-inverse would."""
    lam, vec = np.linalg.eigh(basis.T @ matrix @ basis)
    keep = np.abs(lam) > basis.shape[0] * np.finfo(float).eps * np.abs(lam).max()
    vec = basis @ vec[:, keep]
    return lam[keep], vec, vec.T @ g


def _step(lam: np.ndarray, g: np.ndarray, radius: float) -> np.ndarray:
    """The minimiser of ``gᵀs + Σ lam s² / 2`` over ``‖s‖ ≤ radius`` (Moré and
    Sorensen, 1983): the Newton step when every ``lam > 0`` and it fits, else
    ``s(μ) = -g / (lam + μ)`` with ``μ > max(0, -min lam)`` and
    ``‖s(μ)‖ = radius``, found by Newton's method on ``1/‖s(μ)‖ - 1/radius``.
    That function is concave and increasing there, so the iteration from the
    left rises monotonically to the root.

    When some ``lam ≤ 0`` the minimiser lies on the sphere.  In the hard case
    ``g`` has no component along the lowest eigenvector and ``‖s(μ)‖`` stays
    inside the radius, so the step is completed along that eigenvector.  Near
    the hard case μ ends at the pole of the lowest eigenvalue, where the
    rounding of ``g`` and of μ decides that component, and the step is
    completed in the same way."""
    low = int(np.argmin(lam))
    if lam[low] > 0:
        step = -g / lam
        if step @ step <= radius * radius:
            return step
        mu = 0.0
    else:
        mu = np.finfo(float).eps * np.abs(lam).max() - lam[low]
    while True:
        shifted = lam + mu
        step = -g / shifted
        norm2 = float(step @ step)
        if norm2 <= radius * radius:
            break
        # stepᵀ (step / shifted) = Σ g² / (lam + μ)³ = -‖s‖ d‖s‖/dμ
        mu_next = mu + (math.sqrt(norm2) / radius - 1.0) * norm2 / float(step @ (step / shifted))
        if not mu_next > mu:
            break
        mu = mu_next
    if lam[low] <= 0:
        rest = step.copy()
        rest[low] = 0.0
        room = radius * radius - rest @ rest
        if room >= 0:
            rest[low] = -math.copysign(math.sqrt(room), g[low])
            return rest
    return step if norm2 <= radius * radius else step * (radius / math.sqrt(norm2))


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


def _saturated_start(counts: ContingencyCounts, k_u: int) -> ThetaParams | None:
    """The mechanism that reproduces every observed cell, in closed form, or
    ``None`` where the moment equations give no such mechanism.

    When ``k_u = k_w = k_e = k`` and ``k_x = 2`` the mechanism is saturated:
    it has as many contrast parameters as the table has free cells, so the
    moment equations are exactly determined.  (E, W, X) are three views of
    U, so the slices ``M_x[w, e] = P̂(w, x | e)`` are ``B diag(c_x) A`` with
    ``B = p(w | u)``, ``c_x = p(x | u)`` and ``A = p(u | e)``, and
    ``M_0 M_1⁻¹ = B diag(c_0 / c_1) B⁻¹`` (Jennrich's simultaneous
    diagonalisation; Anandkumar et al., *JMLR* 2014): its eigenvectors, each
    scaled to sum to 1, are the columns of ``B``, and an eigenvalue λ gives
    ``p(x = 0 | u) = λ / (1 + λ)``.  Then ``A = B⁻¹ (M_0 + M_1)``,
    ``q_u = B⁻¹ q̂_w``, and ``p(y | u, w, x)`` follows from one batched
    ``k × k`` solve of ``P̂(y, x, w | e) = Σ_u A[u, e] B[w, u] c_x[u] p(y | u, w, x)``
    over all (y, x, w).  The logits are the logs of these probabilities.

    ``None`` when the dimensions are not these, a domain or the target is
    empty, ``M_1`` or ``B`` is singular, an eigenpair is complex, or a
    probability is not finite and positive.  No random number is drawn.
    """
    k_y, k_x, k_w, k_e = counts.n_yxwe.shape
    n_e = counts.n_yxwe.sum(axis=(0, 1, 2))
    if not (k_u == k_w == k_e and k_x == 2 and n_e.all() and counts.n_tgt):
        return None
    cells = counts.n_yxwe / n_e
    m_0, m_1 = cells.sum(axis=0)
    with np.errstate(all="ignore"):
        try:
            lam, vec = np.linalg.eig(np.linalg.solve(m_1.T, m_0.T).T)
            if np.iscomplexobj(lam):
                return None
            b = vec / vec.sum(axis=0)
            b_inv = np.linalg.inv(b)
            a = b_inv @ (m_0 + m_1)
            z = np.linalg.solve(a.T, cells.reshape(-1, k_e).T).T.reshape(k_y, k_x, k_w, k_u)
        except np.linalg.LinAlgError:
            return None
        p_x = np.stack([lam, np.ones(k_u)]) / (1.0 + lam)
        q_u = b_inv @ (counts.n_w_target / counts.n_tgt)
        p_y = (z / (p_x[:, None, :] * b)).transpose(0, 3, 2, 1)
        probs = (a, q_u, b, p_x, p_y)
        if not all(np.isfinite(p).all() and (p > 0).all() for p in probs):
            return None
    return ThetaParams(*map(np.log, probs))


#: The deviance below which a closed-form fit reproduces the observed cells.
_EXACT_DEVIANCE = 1e-6


def fit_causal(counts: ContingencyCounts, opts: FitOptions | None = None,
               k_u: int | None = None) -> tuple[ThetaParams, FitDiagnostics]:
    """Maximise the observed-data likelihood over the mechanism logits.

    ``k_u`` is the fitted confounder cardinality and must be supplied as a
    positive integer (it is not derivable from the observables).

    Where :func:`_saturated_start` gives a mechanism, one trust region is
    run from it; if that converges at a deviance of at most 1e-6 it is the
    fit, since no mechanism has a higher likelihood than one that reproduces
    every observed cell, and ``iterations`` counts its polish steps (0 when
    the closed form was exact).  Otherwise, and wherever the closed form
    does not apply, ``opts.restarts`` independent trust-region fits run from
    uniform [0, 1] initial logits drawn from ``opts.seed``, and the best is
    kept; ``restarts`` and ``seed`` act only there.  The returned likelihood
    is never below that of any starting point.
    """
    if counts.n < 1:
        raise ValidationError("counts must describe at least one record")
    if k_u is None:
        raise ValidationError("k_u (the fitted confounder cardinality) is required")
    if not isinstance(k_u, (int, np.integer)) or k_u < 1:
        raise ValidationError(f"k_u must be a positive integer, got {k_u!r}")

    opts = opts or FitOptions()
    k_y, k_x, k_w, k_e = counts.n_yxwe.shape
    layout = _layout(k_y, k_x, k_w, k_e, k_u)
    objective = _objective(counts, k_u)
    ll_sat = _saturated_log_likelihood(counts)

    best: tuple[_Point, int, bool] | None = None
    closed = _saturated_start(counts, k_u)
    if closed is not None:
        polished = _trust_region(objective, objective(closed.flatten()), layout,
                                 opts.max_iterations, opts.gradient_tol)
        if polished[2] and 2.0 * (ll_sat + polished[0].value) <= _EXACT_DEVIANCE:
            best = polished
    if best is None:
        for restart in range(opts.restarts):
            rng = np.random.default_rng([opts.seed, restart])
            start = objective(rng.uniform(0.0, 1.0, size=layout.dim))
            end, iterations, converged = _trust_region(
                objective, start, layout, opts.max_iterations, opts.gradient_tol)
            if end.value > start.value:  # paranoid guard: never return worse than the start
                end = start
            if best is None or end.value < best[0].value:
                best = (end, iterations, converged)
    end, iterations, converged = best
    theta = ThetaParams.from_flat(end.x, k_u, k_e, k_w, k_x, k_y)
    diag = FitDiagnostics(log_likelihood=-end.value, iterations=iterations,
                          converged=converged, deviance=2.0 * (ll_sat + end.value))
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
