"""Discrete structural causal model: representation, sampling, exact population laws.

The generative story is ``E -> U -> (W, X) -> Y`` with ``Y`` depending on
``(U, W, X)``.  The target domain replaces the distribution of the hidden
confounder ``U`` by ``q_u``; only ``W`` is observed there.  Category indices
are 0-based in memory (file formats are 1-based, see :mod:`proxyshift.fileio`).

Estimators read :class:`ContingencyCounts`.  Unit :class:`Records` exist only
at the file boundary, between :func:`simulate_records` and
:func:`~proxyshift.fileio.save_dataset` on the CLI ``simulate`` path.

Every effect averages :func:`effect_given_u` over a confounder law: ``q_u`` in
:func:`true_effect`, ``q(u | x)`` in :func:`target_conditional` and
``p(u | e, x)`` in :func:`population_views`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .categorical import CategorySpec, validate_stochastic, _freeze
from .errors import ValidationError

#: Target domain code in :class:`Records`, held only by ``simulate`` and ``save_dataset``.
TARGET = -1

#: Sentinel for x/y values that are unobserved (target-domain records).
MISSING = -1


def _coerce(a, shape, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.shape != shape:
        raise ValidationError(f"{name} has shape {arr.shape}, expected {shape}")
    return arr


def record_key(dims: CategorySpec, domain, w, x, y) -> np.ndarray:
    """Each record's cell in the ``(k_y+1, k_x+1, k_w, k_e+1)`` table indexed by
    ``(y+1, x+1, w, domain+1)``.  The shift maps :data:`TARGET`/:data:`MISSING`
    to 0, so a source record's index is its 1-based file coding and a target
    record's is ``(0, 0, w, 0)``.  Indices must already lie in their ranges."""
    return (((y + 1) * (dims.k_x + 1) + x + 1) * dims.k_w + w) * (dims.k_e + 1) + domain + 1


def _in_range(arr: np.ndarray, lo: int, hi: int) -> bool:
    return arr.size == 0 or (arr.min() >= lo and arr.max() < hi)


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
class ContingencyCounts:
    """Sufficient statistics: a ``(k_y, k_x, k_w, k_e)`` source count tensor,
    the target proxy counts and, only for counts drawn by
    :func:`simulate_counts`, the hidden ``(k_y, k_x, k_w)``
    target cell counts that the target-scope baselines read.  The counts of
    disjoint record sets add."""

    n_yxwe: np.ndarray
    n_w_target: np.ndarray
    n_yxw_target: np.ndarray | None = None

    def __post_init__(self):
        t = np.asarray(self.n_yxwe, dtype=np.int64)
        v = np.asarray(self.n_w_target, dtype=np.int64)
        if t.ndim != 4 or v.shape != t.shape[2:3]:
            raise ValidationError("count tensor must be 4-d and target counts of length k_w")
        _freeze(self, "n_yxwe", t.copy())
        _freeze(self, "n_w_target", v.copy())
        if self.n_yxw_target is not None:
            h = np.asarray(self.n_yxw_target, dtype=np.int64)
            if h.shape != t.shape[:3] or not np.array_equal(h.sum(axis=(0, 1)), v):
                raise ValidationError("hidden target counts must be (k_y, k_x, k_w) "
                                      "and sum to the target proxy counts")
            _freeze(self, "n_yxw_target", h.copy())

    @property
    def n_src(self) -> int:
        return int(self.n_yxwe.sum())

    @property
    def n_tgt(self) -> int:
        return int(self.n_w_target.sum())

    @property
    def n(self) -> int:
        return self.n_src + self.n_tgt


class Records(NamedTuple):
    """Unit records ``(domain, w, x, y)`` as parallel 1-d index arrays.

    ``domain`` is a 0-based source index or :data:`TARGET`; ``x`` and ``y``
    are :data:`MISSING` exactly on target records.
    """

    dims: CategorySpec
    domain: np.ndarray
    w: np.ndarray
    x: np.ndarray
    y: np.ndarray


def count_records(records: Records) -> ContingencyCounts:
    """Validate records and count them into the source tensor and the target
    proxy counts, with one ``bincount`` and no copy of the record arrays."""
    d = records.dims
    arrays = [np.asarray(arr, dtype=np.int64) for arr in records[1:]]
    if any(arr.ndim != 1 for arr in arrays):
        raise ValidationError("record arrays must be 1-d")
    if len({arr.size for arr in arrays}) > 1:
        raise ValidationError("record arrays must have equal length")
    domain, w, x, y = arrays
    if not _in_range(domain, TARGET, d.k_e):
        raise ValidationError("source domain index out of range")
    if not _in_range(w, 0, d.k_w):
        raise ValidationError("w index out of range")
    for name, arr, k in (("x", x, d.k_x), ("y", y, d.k_y)):
        if not _in_range(arr, MISSING, k):
            carried = np.any((domain == TARGET) & (arr != MISSING))
            raise ValidationError(f"target records must not carry {name}" if carried else
                                  f"{name} missing or out of range on a source record")
    # Each index is in range, so every record has a cell of the shifted table.  The
    # valid ones fill its source block and its target row; counts anywhere else
    # are target records carrying x/y or source records missing them.
    shape = (d.k_y + 1, d.k_x + 1, d.k_w, d.k_e + 1)
    table = np.bincount(record_key(d, domain, w, x, y), minlength=math.prod(shape))
    table = table.reshape(shape)
    tgt, src = table[..., 0], table[..., 1:]
    for name, carried, missing in (("x", tgt[:, 1:], src[:, 0]), ("y", tgt[1:], src[0])):
        if carried.any():
            raise ValidationError(f"target records must not carry {name}")
        if missing.any():
            raise ValidationError(f"{name} missing or out of range on a source record")
    return ContingencyCounts(src[1:, 1:], tgt[0, 0])


class _Draw(NamedTuple):
    """The arrays of one drawn model, named and ordered as the fields of
    :class:`ScmSpec` after ``dims``, each C-contiguous as a spec stores it,
    and not yet validated.  :func:`true_effect` and
    :func:`target_conditional` read them as they read a spec."""

    p_u_given_e: np.ndarray
    q_u: np.ndarray
    p_w_given_u: np.ndarray
    p_x_given_u: np.ndarray
    p_y_given_uwx: np.ndarray
    domain_prior: np.ndarray


def _draw_spec(dims: CategorySpec, rng: np.random.Generator) -> _Draw:
    """The draws of :func:`sample_scm_spec`, without building the spec."""
    def columns(k_out: int, k_cond: int) -> np.ndarray:
        return np.ascontiguousarray(rng.dirichlet(np.ones(k_out), size=k_cond).T)

    p_u_given_e = columns(dims.k_u, dims.k_e)
    q_u = rng.dirichlet(np.ones(dims.k_u))
    p_w_given_u = columns(dims.k_w, dims.k_u)
    p_x_given_u = columns(dims.k_x, dims.k_u)
    draws = rng.dirichlet(np.ones(dims.k_y), size=(dims.k_u, dims.k_w, dims.k_x))
    p_y_given_uwx = np.ascontiguousarray(np.moveaxis(draws, -1, 0))
    domain_prior = np.full(dims.k_e + 1, 1.0 / (dims.k_e + 1))
    return _Draw(p_u_given_e, q_u, p_w_given_u, p_x_given_u, p_y_given_uwx, domain_prior)


def sample_scm_spec(dims: CategorySpec, rng: np.random.Generator) -> ScmSpec:
    """Draw a random model: every conditional column is a flat-Dirichlet draw
    (uniform on the simplex) and the domain prior is uniform over the
    ``k_e`` source domains plus the target."""
    return ScmSpec(dims, *_draw_spec(dims, rng))


def _draw_categorical(rng: np.random.Generator, prob_cols: np.ndarray,
                      col_index: np.ndarray) -> np.ndarray:
    """Vectorised inverse-cdf draw: record ``i`` samples from column
    ``col_index[i]`` of ``prob_cols``.  The draw is the number of cdf rows
    below one uniform ``r`` in [0, 1), counted one row at a time.  The last
    row, the total mass, counts as exactly 1, so it is never compared."""
    cdf = np.cumsum(prob_cols[:-1], axis=0)
    r = rng.random(col_index.size)
    out = np.zeros(col_index.size, dtype=np.int64)
    for row in cdf:
        out += row[col_index] < r
    return out


def _uwx_column(dims: CategorySpec, u: np.ndarray, w: np.ndarray, x) -> np.ndarray:
    """Each record's column ``(u * k_w + w) * k_x + x`` of the flattened
    ``p(y | u, w, x)``, computed in ``u``'s buffer, which it overwrites.  At
    10^5-10^6 records a whole-array temporary is fresh memory from the
    allocator, and its page faults cost more than the arithmetic."""
    u *= dims.k_w
    u += w
    u *= dims.k_x
    u += x
    return u


def simulate_records(spec: ScmSpec, n: int, rng: np.random.Generator) -> Records:
    """Ancestral forward sampling of ``n`` i.i.d. records.

    Each record draws ``E`` from the domain prior, ``U`` from its domain's
    confounder law (the target law when ``E`` is the target), then ``W``,
    ``X``, ``Y`` from their structural conditionals; ``U`` is discarded and
    ``X, Y`` are dropped for target records.  :func:`simulate_counts` keeps
    their hidden cells for the target-scope baselines.
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
    y = _draw_categorical(rng, y_cols, _uwx_column(d, u, w, x))
    del u

    # hide the target records' domain, treatment and outcome in place, for
    # the same reason as in _uwx_column
    is_tgt = e_raw == d.k_e
    e_raw[is_tgt] = TARGET
    x[is_tgt] = MISSING
    y[is_tgt] = MISSING
    return Records(d, e_raw, w, x, y)


def simulate_dataset(spec: ScmSpec, n: int, rng: np.random.Generator) -> ContingencyCounts:
    """The counts of :func:`simulate_records`, the same draws for every seed."""
    return count_records(simulate_records(spec, n, rng))


def _cell_law(spec: ScmSpec) -> np.ndarray:
    """The ``(k_y, k_x, k_w, k_e + 1)`` table of joint record probabilities
    ``prior[e] sum_u p(u | e) p(w | u) p(x | u) p(y | u, w, x)``, the target
    domain last with ``q_u`` as its confounder law: the law of one record of
    :func:`simulate_records` before the target's ``x, y`` are hidden."""
    u_cols = np.column_stack([spec.p_u_given_e, spec.q_u])
    return np.einsum("yuwx,wu,xu,ue,e->yxwe", spec.p_y_given_uwx, spec.p_w_given_u,
                     spec.p_x_given_u, u_cols, spec.domain_prior)


def simulate_counts(spec: ScmSpec, n: int, rng: np.random.Generator) -> ContingencyCounts:
    """The counts of ``n`` i.i.d. records of :func:`simulate_records`, drawn
    as one multinomial over the cells of :func:`_cell_law` without building
    the records.  The target's hidden ``(y, x, w)`` cells are kept, for the
    target-scope baselines."""
    if n < 0:
        raise ValidationError("n must be non-negative")
    law = _cell_law(spec)
    table = rng.multinomial(n, law.reshape(-1)).reshape(law.shape)
    target = table[..., -1]
    return ContingencyCounts(table[..., :-1], target.sum(axis=(0, 1)), target)


def interventional_counts(spec: ScmSpec, x: int, n: int,
                          rng: np.random.Generator) -> np.ndarray:
    """The ``(k_y,)`` outcome counts of ``n`` draws from the target-domain
    intervention distribution ``true_effect(spec, x, .)``, as one
    multinomial."""
    return rng.multinomial(n, [true_effect(spec, x, y) for y in range(spec.dims.k_y)])


def effect_given_u(p_y_given_uwx: np.ndarray, p_w_given_u: np.ndarray,
                   x: int, y: int) -> np.ndarray:
    """``sum_w p(y | u, w, x) p(w | u)`` for each confounder level ``u``: the
    effect of forcing ``X := x`` within one stratum of ``U``."""
    return np.einsum("uw,wu->u", p_y_given_uwx[y, :, :, x], p_w_given_u)


def true_effect(spec: ScmSpec | _Draw, x: int, y: int) -> float:
    """Exact interventional probability of ``y`` under forcing ``X := x`` in
    the target domain, marginalised over the hidden confounder."""
    return float(effect_given_u(spec.p_y_given_uwx, spec.p_w_given_u, x, y) @ spec.q_u)


@dataclass(frozen=True, eq=False)
class PopulationViews:
    """Exact population quantities entering the identification formula.

    ``p_y_ex`` is the row vector of ``p(y | e, x)`` over source domains,
    ``p_w_ex`` the column-stochastic ``(k_w, k_e)`` matrix of
    ``p(w | e, x)`` and ``q_w`` the target proxy marginal.
    """

    p_y_ex: np.ndarray
    p_w_ex: np.ndarray
    q_w: np.ndarray


def population_views(spec: ScmSpec, x: int, y: int) -> PopulationViews:
    """Exact observable distributions implied by a model, for one ``(x, y)``."""
    px = spec.p_x_given_u[x, :]
    unnorm = px[:, None] * spec.p_u_given_e
    p_u_ex = unnorm / unnorm.sum(axis=0, keepdims=True)
    p_w_ex = spec.p_w_given_u @ p_u_ex
    p_y_ex = effect_given_u(spec.p_y_given_uwx, spec.p_w_given_u, x, y) @ p_u_ex
    q_w = spec.p_w_given_u @ spec.q_u
    return PopulationViews(p_y_ex, p_w_ex, q_w)


def target_conditional(spec: ScmSpec | _Draw, x: int, y: int) -> float:
    """Exact target-domain conditional ``q(y | x)`` (not the causal effect)."""
    unnorm = spec.p_x_given_u[x, :] * spec.q_u
    q_u_x = unnorm / unnorm.sum()
    return float(effect_given_u(spec.p_y_given_uwx, spec.p_w_given_u, x, y) @ q_u_x)
