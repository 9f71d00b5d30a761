"""Discrete structural causal model: representation, sampling, exact population laws.

The generative story is ``E -> U -> (W, X) -> Y`` with ``Y`` depending on
``(U, W, X)``.  The target domain replaces the distribution of the hidden
confounder ``U`` by ``q_u``; only ``W`` is observed there.  Category indices
are 0-based in memory (file formats are 1-based, see :mod:`proxyshift.fileio`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .categorical import CategorySpec, validate_stochastic, _freeze
from .errors import ValidationError

#: Domain code for target-domain records in :class:`Dataset` arrays.
TARGET = -1

#: Sentinel for x/y values that are unobserved (target-domain records).
MISSING = -1


def _coerce(a, shape, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.shape != shape:
        raise ValidationError(f"{name} has shape {arr.shape}, expected {shape}")
    return arr


@dataclass(frozen=True, eq=False)
class ScmSpec:
    """A fully specified generative model.

    ``p_y_given_uwx`` has shape ``(k_y, k_u, k_w, k_x)``; the leading axis is
    the outcome and sums to one for every ``(u, w, x)``.  ``domain_prior``
    has ``k_e + 1`` entries, the target domain last.  All components must be
    strictly positive (full support); ``strict_support=False`` admits
    degenerate conditionals for forward simulation only (estimators assume
    full support).
    """

    dims: CategorySpec
    p_u_given_e: np.ndarray
    q_u: np.ndarray
    p_w_given_u: np.ndarray
    p_x_given_u: np.ndarray
    p_y_given_uwx: np.ndarray
    domain_prior: np.ndarray
    strict_support: bool = True

    def __post_init__(self):
        d = self.dims
        strict = self.strict_support
        fields = {
            "p_u_given_e": _coerce(self.p_u_given_e, (d.k_u, d.k_e), "p_u_given_e"),
            "q_u": _coerce(self.q_u, (d.k_u,), "q_u"),
            "p_w_given_u": _coerce(self.p_w_given_u, (d.k_w, d.k_u), "p_w_given_u"),
            "p_x_given_u": _coerce(self.p_x_given_u, (d.k_x, d.k_u), "p_x_given_u"),
            "p_y_given_uwx": _coerce(self.p_y_given_uwx, (d.k_y, d.k_u, d.k_w, d.k_x),
                                     "p_y_given_uwx"),
            "domain_prior": _coerce(self.domain_prior, (d.k_e + 1,), "domain_prior"),
        }
        for name in ("p_u_given_e", "p_w_given_u", "p_x_given_u"):
            report = validate_stochastic(fields[name], strict_positive=strict)
            if report is not None:
                raise ValidationError(f"{name}: {report}")
        for name in ("q_u", "domain_prior"):
            report = validate_stochastic(fields[name][:, None], strict_positive=strict)
            if report is not None:
                raise ValidationError(f"{name}: {report}")
        y_cols = fields["p_y_given_uwx"].reshape(d.k_y, -1)
        report = validate_stochastic(y_cols, strict_positive=strict)
        if report is not None:
            raise ValidationError(f"p_y_given_uwx: {report}")
        for name, arr in fields.items():
            _freeze(self, name, arr.copy())


@dataclass(frozen=True, eq=False)
class Dataset:
    """Unit records ``(domain, w, x, y)`` stored as parallel index arrays.

    ``domain`` is a 0-based source index or :data:`TARGET`; ``x`` and ``y``
    are :data:`MISSING` exactly on target records.  ``target_xy`` carries the
    hidden treatment/outcome columns of target records and is only populated
    by the simulator in benchmark mode, so the estimation pipeline can never
    silently use information that is unavailable in practice.
    """

    dims: CategorySpec
    domain: np.ndarray
    w: np.ndarray
    x: np.ndarray
    y: np.ndarray
    target_xy: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        d = self.dims
        arrays = {}
        n = None
        for name in ("domain", "w", "x", "y"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            if arr.ndim != 1:
                raise ValidationError(f"{name} must be 1-d")
            if n is None:
                n = arr.size
            elif arr.size != n:
                raise ValidationError("record arrays must have equal length")
            arrays[name] = arr
        src = arrays["domain"] != TARGET
        if np.any((arrays["domain"][src] < 0) | (arrays["domain"][src] >= d.k_e)):
            raise ValidationError("source domain index out of range")
        if np.any((arrays["w"] < 0) | (arrays["w"] >= d.k_w)):
            raise ValidationError("w index out of range")
        for name, k in (("x", d.k_x), ("y", d.k_y)):
            arr = arrays[name]
            if np.any(arr[~src] != MISSING):
                raise ValidationError(f"target records must not carry {name}")
            if np.any((arr[src] < 0) | (arr[src] >= k)):
                raise ValidationError(f"{name} missing or out of range on a source record")
        for name, arr in arrays.items():
            _freeze(self, name, arr.copy())
        if self.target_xy is not None:
            tx = np.asarray(self.target_xy[0], dtype=np.int64)
            ty = np.asarray(self.target_xy[1], dtype=np.int64)
            n_tgt = int(np.count_nonzero(~src))
            if tx.size != n_tgt or ty.size != n_tgt:
                raise ValidationError("target_xy length must match the target record count")
            tx.flags.writeable = False
            ty.flags.writeable = False
            object.__setattr__(self, "target_xy", (tx, ty))

    @property
    def n(self) -> int:
        return self.domain.size

    @property
    def n_src(self) -> int:
        return int(np.count_nonzero(self.domain != TARGET))

    @property
    def n_tgt(self) -> int:
        return self.n - self.n_src

    @classmethod
    def from_records(cls, records, dims: CategorySpec) -> "Dataset":
        """Build a dataset from ``(domain, w, x, y)`` tuples (0-based, or
        ``TARGET``/``None`` markers for target rows)."""
        domain, w, x, y = [], [], [], []
        for rec in records:
            dom, wi, xi, yi = rec
            domain.append(TARGET if dom == TARGET else int(dom))
            w.append(int(wi))
            x.append(MISSING if xi is None else int(xi))
            y.append(MISSING if yi is None else int(yi))
        return cls(dims, np.array(domain, dtype=np.int64), np.array(w, dtype=np.int64),
                   np.array(x, dtype=np.int64), np.array(y, dtype=np.int64))


@dataclass(frozen=True, eq=False)
class ContingencyCounts:
    """Sufficient statistics: a ``(k_y, k_x, k_w, k_e)`` source count tensor
    plus the target proxy counts."""

    n_yxwe: np.ndarray
    n_w_target: np.ndarray
    n: int
    n_src: int
    n_tgt: int

    def __post_init__(self):
        t = np.asarray(self.n_yxwe, dtype=np.int64)
        v = np.asarray(self.n_w_target, dtype=np.int64)
        if t.ndim != 4 or v.ndim != 1:
            raise ValidationError("count tensor must be 4-d and target counts 1-d")
        if int(t.sum()) != self.n_src:
            raise ValidationError("source count tensor does not sum to n_src")
        if int(v.sum()) != self.n_tgt:
            raise ValidationError("target counts do not sum to n_tgt")
        if self.n != self.n_src + self.n_tgt:
            raise ValidationError("n must equal n_src + n_tgt")
        _freeze(self, "n_yxwe", t.copy())
        _freeze(self, "n_w_target", v.copy())


def contingency_counts(ds: Dataset) -> ContingencyCounts:
    """Aggregate a dataset into its sufficient-statistic count tables."""
    d = ds.dims
    src = ds.domain != TARGET
    key = ((ds.y[src] * d.k_x + ds.x[src]) * d.k_w + ds.w[src]) * d.k_e + ds.domain[src]
    n_yxwe = np.bincount(key, minlength=d.k_y * d.k_x * d.k_w * d.k_e)
    n_yxwe = n_yxwe.reshape(d.k_y, d.k_x, d.k_w, d.k_e)
    n_w_target = np.bincount(ds.w[~src], minlength=d.k_w)
    return ContingencyCounts(n_yxwe, n_w_target, ds.n, int(src.sum()),
                             int((~src).sum()))


def sample_scm_spec(dims: CategorySpec, rng: np.random.Generator) -> ScmSpec:
    """Draw a random model: every conditional column is a flat-Dirichlet draw
    (uniform on the simplex) and the domain prior is uniform over the
    ``k_e`` source domains plus the target."""
    def columns(k_out: int, k_cond: int) -> np.ndarray:
        return rng.dirichlet(np.ones(k_out), size=k_cond).T

    p_u_given_e = columns(dims.k_u, dims.k_e)
    q_u = rng.dirichlet(np.ones(dims.k_u))
    p_w_given_u = columns(dims.k_w, dims.k_u)
    p_x_given_u = columns(dims.k_x, dims.k_u)
    draws = rng.dirichlet(np.ones(dims.k_y), size=(dims.k_u, dims.k_w, dims.k_x))
    p_y_given_uwx = np.moveaxis(draws, -1, 0)
    domain_prior = np.full(dims.k_e + 1, 1.0 / (dims.k_e + 1))
    return ScmSpec(dims, p_u_given_e, q_u, p_w_given_u, p_x_given_u,
                   p_y_given_uwx, domain_prior)


def _draw_categorical(rng: np.random.Generator, prob_cols: np.ndarray,
                      col_index: np.ndarray) -> np.ndarray:
    """Vectorised inverse-cdf draw: record ``i`` samples from column
    ``col_index[i]`` of ``prob_cols``."""
    cdf = np.cumsum(prob_cols, axis=0)
    cdf[-1, :] = 1.0
    rows = cdf.T[col_index]
    r = rng.random(col_index.size)
    return np.sum(rows < r[:, None], axis=1).astype(np.int64)


def simulate_dataset(spec: ScmSpec, n: int, rng: np.random.Generator,
                     benchmark_mode: bool = False) -> Dataset:
    """Ancestral forward sampling of ``n`` i.i.d. records.

    Each record draws ``E`` from the domain prior, ``U`` from its domain's
    confounder law (the target law when ``E`` is the target), then ``W``,
    ``X``, ``Y`` from their structural conditionals; ``U`` is discarded and
    ``X, Y`` are dropped for target records.  With ``benchmark_mode`` the
    dropped target treatment/outcome values are kept in ``target_xy`` for
    baseline estimators that deliberately peek at them.
    """
    d = spec.dims
    if n < 0:
        raise ValidationError("n must be non-negative")
    e_raw = _draw_categorical(rng, spec.domain_prior[:, None],
                              np.zeros(n, dtype=np.int64))
    u_cols = np.column_stack([spec.p_u_given_e, spec.q_u])
    u = _draw_categorical(rng, u_cols, e_raw)
    w = _draw_categorical(rng, spec.p_w_given_u, u)
    x = _draw_categorical(rng, spec.p_x_given_u, u)
    y_cols = spec.p_y_given_uwx.reshape(d.k_y, -1)
    y = _draw_categorical(rng, y_cols, (u * d.k_w + w) * d.k_x + x)

    is_tgt = e_raw == d.k_e
    domain = np.where(is_tgt, TARGET, e_raw)
    x_obs = np.where(is_tgt, MISSING, x)
    y_obs = np.where(is_tgt, MISSING, y)
    target_xy = (x[is_tgt], y[is_tgt]) if benchmark_mode else None
    return Dataset(d, domain, w, x_obs, y_obs, target_xy=target_xy)


def interventional_sample(spec: ScmSpec, x: int, n: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` outcomes from the target-domain intervention distribution:
    ``U`` from the target confounder law, ``W`` from the proxy mechanism,
    ``X`` forced to ``x``, ``Y`` from its structural conditional."""
    d = spec.dims
    u = _draw_categorical(rng, spec.q_u[:, None], np.zeros(n, dtype=np.int64))
    w = _draw_categorical(rng, spec.p_w_given_u, u)
    y_cols = spec.p_y_given_uwx.reshape(d.k_y, -1)
    return _draw_categorical(rng, y_cols, (u * d.k_w + w) * d.k_x + x)


def true_effect(spec: ScmSpec, x: int, y: int) -> float:
    """Exact interventional probability of ``y`` under forcing ``X := x`` in
    the target domain, marginalised over the hidden confounder."""
    p_y_uw = spec.p_y_given_uwx[y, :, :, x]
    p_y_u = np.einsum("uw,wu->u", p_y_uw, spec.p_w_given_u)
    return float(p_y_u @ spec.q_u)


@dataclass(frozen=True, eq=False)
class PopulationViews:
    """Exact population quantities entering the identification formula.

    ``p_y_ex`` is the row vector of ``p(y | e, x)`` over source domains,
    ``p_w_ex`` the column-stochastic ``(k_w, k_e)`` matrix of
    ``p(w | e, x)``, ``q_w`` the target proxy marginal, and
    ``p_yxw_given_e`` the full ``(k_y, k_x, k_w, k_e)`` table of source cell
    probabilities ``p(y, x, w | e)``.
    """

    p_y_ex: np.ndarray
    p_w_ex: np.ndarray
    q_w: np.ndarray
    p_yxw_given_e: np.ndarray


def population_views(spec: ScmSpec, x: int, y: int) -> PopulationViews:
    """Exact observable distributions implied by a model, for one ``(x, y)``."""
    px = spec.p_x_given_u[x, :]
    unnorm = px[:, None] * spec.p_u_given_e
    p_u_ex = unnorm / unnorm.sum(axis=0, keepdims=True)
    p_w_ex = spec.p_w_given_u @ p_u_ex
    p_y_uw = spec.p_y_given_uwx[y, :, :, x]
    p_y_ux = np.einsum("uw,wu->u", p_y_uw, spec.p_w_given_u)
    p_y_ex = p_y_ux @ p_u_ex
    q_w = spec.p_w_given_u @ spec.q_u
    p_yxw_given_e = np.einsum("yuwx,wu,xu,ue->yxwe", spec.p_y_given_uwx,
                              spec.p_w_given_u, spec.p_x_given_u,
                              spec.p_u_given_e)
    return PopulationViews(p_y_ex, p_w_ex, q_w, p_yxw_given_e)


def target_conditional(spec: ScmSpec, x: int, y: int) -> float:
    """Exact target-domain conditional ``q(y | x)`` (not the causal effect)."""
    unnorm = spec.p_x_given_u[x, :] * spec.q_u
    q_u_x = unnorm / unnorm.sum()
    p_y_uw = spec.p_y_given_uwx[y, :, :, x]
    p_y_ux = np.einsum("uw,wu->u", p_y_uw, spec.p_w_given_u)
    return float(p_y_ux @ q_u_x)
