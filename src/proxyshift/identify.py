"""Population-level identification of the target-domain causal effect.

The core formula expresses the interventional probability as
``p_y_ex @ pinv(p_w_ex) @ q_w`` where ``p_w_ex`` is the proxy conditional
matrix across source domains.  It is valid only when that matrix has full
row rank; rank-deficient inputs are refused rather than regularised, because
the effect is then genuinely not determined by the observable distributions.
This module also provides the proxy category reduction that restores full
row rank when the proxy has redundant categories, a binning path for
continuous proxies, and the extension to an additional observed confounder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .categorical import (RANK_REL_TOL, _as_matrix, _row_ranks, condition_number,
                          numeric_row_rank, right_pseudoinverse)
from .errors import (NoValidPartitionError, OutOfSupportError,
                     RankDeficiencyError, ValidationError)


def identify_effect(p_y_ex, p_w_ex, q_w, rank_tol: float = RANK_REL_TOL) -> float:
    """Causal effect from population (or plug-in) observables.

    ``p_y_ex``: outcome conditional over source domains, length ``k_e``.
    ``p_w_ex``: proxy conditional matrix, shape ``(k_w, k_e)``.
    ``q_w``: target proxy marginal, length ``k_w``.

    Raises :class:`RankDeficiencyError` when ``p_w_ex`` does not have full
    row rank at ``rank_tol``.
    """
    a = _as_matrix(p_w_ex)
    p_y = np.asarray(p_y_ex, dtype=float).reshape(-1)
    q = np.asarray(q_w, dtype=float).reshape(-1)
    if p_y.size != a.shape[1] or q.size != a.shape[0]:
        raise ValidationError(
            f"inconsistent shapes: p_y_ex {p_y.size}, p_w_ex {a.shape}, q_w {q.size}")
    if numeric_row_rank(a, rank_tol) < a.shape[0]:
        kappa = condition_number(a)
        raise RankDeficiencyError(
            f"proxy conditional matrix is row-rank deficient "
            f"(condition number {kappa:.3e}); the effect is not identified "
            f"from these observables", kappa=kappa)
    return float(p_y @ right_pseudoinverse(a, rank_tol) @ q)


def causal_decomposition_effect(p_y_uw, p_w_u, q_u) -> float:
    """Effect via the mechanism decomposition
    ``diag(p_y_uw @ p_w_u) @ q_u``.

    ``p_y_uw`` holds ``p(y | u, w, x)`` for the fixed ``(x, y)`` as a
    ``(k_u, k_w)`` array; ``p_w_u`` is the ``(k_w, k_u)`` proxy mechanism.
    """
    m = np.asarray(p_y_uw, dtype=float) @ _as_matrix(p_w_u)
    return float(np.diag(m) @ np.asarray(q_u, dtype=float))


@dataclass(frozen=True)
class MergeStep:
    """One proxy-category merge: category ``merged`` absorbed into ``into``.

    ``coefficient`` is the weight of the absorbing row in the linear
    expansion of the merged row (recorded for diagnostics; it is the value
    checked against -1 when picking the absorber).
    """

    merged: int
    into: int
    coefficient: float


@dataclass(frozen=True, eq=False)
class ProxyMapping:
    """A surjective relabelling of proxy categories onto a reduced support."""

    k_w: int
    k_w_reduced: int
    assignment: np.ndarray
    merges: tuple[MergeStep, ...]

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=np.int64)
        if a.size != self.k_w:
            raise ValidationError("assignment length must equal k_w")
        if set(a.tolist()) != set(range(self.k_w_reduced)):
            raise ValidationError("assignment must be surjective onto the reduced support")
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "assignment", a)

    def apply_to_matrix(self, matrix) -> np.ndarray:
        """Row-merge a ``(k_w, ...)`` array according to the assignment."""
        m = np.asarray(matrix, dtype=float)
        out = np.zeros((self.k_w_reduced,) + m.shape[1:])
        np.add.at(out, self.assignment, m)
        return out


def _identity_mapping(k_w: int) -> ProxyMapping:
    return ProxyMapping(k_w, k_w, np.arange(k_w), ())


def reduce_proxy(p_w_ex, rel_tol: float = RANK_REL_TOL) -> ProxyMapping:
    """Merge redundant proxy categories until the conditional matrix has full
    row rank.

    Dependent rows are processed in ascending index order.  Each step
    expresses the first dependent row over the independent rows preceding it,
    picks the smallest-index coefficient different from -1 (one always exists
    because the entries are non-negative), and adds the dependent row into
    that row.  Every step removes one row and preserves the numeric rank, so
    the procedure terminates with a matrix of full row rank equal to the
    input's numeric rank.
    """
    a = _as_matrix(p_w_ex)
    k_w = a.shape[0]
    target_rank = numeric_row_rank(a, rel_tol)
    if target_rank == k_w:
        return _identity_mapping(k_w)

    rows = a.copy()
    orig = list(range(k_w))
    merges: list[MergeStep] = []
    while len(orig) > target_rank:
        kept: list[int] = []
        dep = None
        for i in range(len(orig)):
            trial = rows[kept + [i], :]
            if numeric_row_rank(trial, rel_tol) == len(kept) + 1:
                kept.append(i)
            else:
                dep = i
                break
        if dep is None:  # numerically borderline input: rank estimate disagreed
            break
        basis = rows[kept, :]
        lam, *_ = np.linalg.lstsq(basis.T, rows[dep], rcond=None)
        choices = np.nonzero(np.abs(lam + 1.0) > 1e-9)[0]
        if choices.size == 0:
            raise ValidationError(
                "all expansion coefficients are -1; input rows are not non-negative")
        k_pos = int(choices[0])
        absorber = kept[k_pos]
        merges.append(MergeStep(orig[dep], orig[absorber], float(lam[k_pos])))
        rows[absorber] += rows[dep]
        rows = np.delete(rows, dep, axis=0)
        del orig[dep]

    owner = {i: i for i in range(k_w)}
    for step in merges:
        owner[step.merged] = step.into
    def resolve(i: int) -> int:
        while owner[i] != i:
            i = owner[i]
        return i
    new_index = {o: pos for pos, o in enumerate(orig)}
    assignment = np.array([new_index[resolve(i)] for i in range(k_w)], dtype=np.int64)
    return ProxyMapping(k_w, len(orig), assignment, tuple(merges))


@dataclass(frozen=True, eq=False)
class Partition:
    """A binning of a continuous proxy into ``len(edges) + 1`` categories.

    Bins are right-closed: value ``v`` maps to bin ``i`` (1-based) when
    ``edges[i-2] < v <= edges[i-1]``, with the outer bins extending to the
    declared support bounds.
    """

    edges: tuple[float, ...]
    lower: float = float("-inf")
    upper: float = float("inf")

    def __post_init__(self):
        edges = tuple(float(e) for e in self.edges)
        object.__setattr__(self, "edges", edges)
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValidationError("partition edges must be strictly increasing")
        if edges and not (self.lower < edges[0] and edges[-1] < self.upper):
            raise ValidationError("partition edges must lie inside the declared support")

    @property
    def m(self) -> int:
        return len(self.edges) + 1


def discretize_proxy(values, partition: Partition) -> np.ndarray:
    """Map continuous proxy readings to 1-based bin codes.

    Raises :class:`OutOfSupportError` naming the first value outside the
    partition's declared support.
    """
    v = np.asarray(values, dtype=float).reshape(-1)
    outside = (v < partition.lower) | (v > partition.upper) | ~np.isfinite(v)
    if outside.any():
        bad = v[outside][0]
        raise OutOfSupportError(f"value {float(bad)!r} is outside the declared proxy support")
    return np.searchsorted(np.asarray(partition.edges), v, side="left") + 1


def _binned_conditionals(codes: np.ndarray, x_codes: np.ndarray,
                         e_codes: np.ndarray, m: int, k_x: int,
                         k_e: int) -> list[tuple[np.ndarray, int]] | None:
    """Estimated binned-proxy conditional matrices with their smallest
    per-column sample size, one pair per treatment value.

    Returns ``None`` when some ``(x, e)`` cell has no observations, which
    makes the candidate partition unratable.
    """
    out = []
    for x in range(k_x):
        sel = x_codes == x
        key = codes[sel] * k_e + e_codes[sel]
        counts = np.bincount(key, minlength=m * k_e).reshape(m, k_e).astype(float)
        col_tot = counts.sum(axis=0)
        if np.any(col_tot == 0):
            return None
        out.append((counts / col_tot, int(col_tot.min())))
    return out


def _quantile_cuts(w: np.ndarray, m: int) -> tuple[float, ...]:
    """Equal-mass cut points snapped to midpoints between distinct values, so
    ties (discrete or heavily rounded proxies) fall entirely on one side."""
    vals, counts = np.unique(w, return_counts=True)
    if vals.size < 2:
        return ()
    below = np.cumsum(counts)[:-1]          # records at or below each cut
    mids = 0.5 * (vals[:-1] + vals[1:])
    edges = []
    for i in range(1, m):
        target = i * w.size / m
        j = int(np.searchsorted(below, target))
        j = min(j, below.size - 1)
        if j > 0 and abs(below[j - 1] - target) <= abs(below[j] - target):
            j -= 1
        edges.append(float(mids[j]))
    return tuple(sorted(set(edges)))


def search_partition(w_values, x_codes, e_codes, k_u: int, m_max: int,
                     k_x: int | None = None, k_e: int | None = None,
                     rel_tol: float = RANK_REL_TOL) -> Partition:
    """Search quantile binnings of a continuous proxy for one that makes the
    binned conditional matrices well-ranked.

    Candidates use ``m`` equal-mass bins for ``m`` between ``k_u`` and
    ``m_max``.  A candidate is valid when, for every treatment value, the
    estimated binned conditional matrix has numeric rank at least ``k_u``
    with its ``k_u``-th singular value above a sampling-noise floor of
    ``2 * sqrt(m / n_min)`` (``n_min`` the smallest per-column sample size);
    without the floor, estimation noise would make any matrix look
    full-rank.  The returned partition maximises the smallest singular value
    minimised over treatment values.  Raises :class:`NoValidPartitionError`
    when no candidate qualifies.
    """
    w = np.asarray(w_values, dtype=float).reshape(-1)
    xs = np.asarray(x_codes, dtype=np.int64).reshape(-1)
    es = np.asarray(e_codes, dtype=np.int64).reshape(-1)
    if not (w.size == xs.size == es.size) or w.size == 0:
        raise ValidationError("w_values, x_codes, e_codes must be equal-length and non-empty")
    if m_max < k_u:
        raise ValidationError("m_max must be at least k_u")
    k_x = int(xs.max()) + 1 if k_x is None else k_x
    k_e = int(es.max()) + 1 if k_e is None else k_e

    best: tuple[float, Partition] | None = None
    for m in range(k_u, m_max + 1):
        edges = _quantile_cuts(w, m)
        if len(edges) + 1 < k_u:
            continue
        part = Partition(edges)
        codes = discretize_proxy(w, part) - 1
        mats = _binned_conditionals(codes, xs, es, part.m, k_x, k_e)
        if mats is None:
            continue
        valid = True
        score = float("inf")
        for mat, n_min in mats:
            s = np.linalg.svd(mat, compute_uv=False)
            floor = 2.0 * np.sqrt(part.m / n_min)
            if _row_ranks(s[None], rel_tol)[0] < k_u or s[min(k_u, s.size) - 1] < floor:
                valid = False
                break
            score = min(score, float(s[-1]))
        if not valid:
            continue
        if best is None or score > best[0]:
            best = (score, part)
    if best is None:
        raise NoValidPartitionError(
            f"no quantile partition with {k_u} <= m <= {m_max} reaches numeric "
            f"rank {k_u} for every treatment value")
    return best[1]


def identify_conditional_effect(p_y_exz, p_w_exz, q_w_given_z,
                                rank_tol: float = RANK_REL_TOL,
                                z: int | None = None) -> float:
    """Stratum-level effect given an observed confounder value.

    Identical to :func:`identify_effect` on the per-stratum conditionals;
    ``z`` is only used to label rank-deficiency errors.
    """
    try:
        return identify_effect(p_y_exz, p_w_exz, q_w_given_z, rank_tol=rank_tol)
    except RankDeficiencyError as exc:
        if z is None:
            raise
        raise RankDeficiencyError(f"stratum z={z}: {exc}", kappa=exc.kappa) from exc


def identify_total_effect_with_covariate(per_z: Sequence[tuple], q_z,
                                         rank_tol: float = RANK_REL_TOL) -> float:
    """Total effect as the covariate-weighted sum of stratum effects.

    ``per_z`` holds one ``(p_y_exz, p_w_exz, q_w_given_z)`` triple per
    stratum; ``q_z`` is the target covariate marginal.
    """
    weights = np.asarray(q_z, dtype=float).reshape(-1)
    if len(per_z) != weights.size:
        raise ValidationError("per_z and q_z must have matching lengths")
    total = 0.0
    for z, (p_y, p_w, q_w) in enumerate(per_z):
        total += weights[z] * identify_conditional_effect(
            p_y, p_w, q_w, rank_tol=rank_tol, z=z)
    return float(total)
