"""Population-level identification of the target-domain causal effect.

The core formula expresses the interventional probability as
``p_y_ex @ pinv(p_w_ex) @ q_w`` where ``p_w_ex`` is the proxy conditional
matrix across source domains.  It is valid only when that matrix has full
row rank; rank-deficient inputs are refused rather than regularised, because
the effect is then genuinely not determined by the observable distributions.
This module also provides the mechanism decomposition of the same effect,
the proxy category reduction that restores full row rank when the proxy has
redundant categories, the binning of continuous proxy readings by a
user-given partition, and the extension to an additional observed
confounder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .categorical import (RANK_REL_TOL, _as_matrix, condition_number, numeric_row_rank,
                          right_pseudoinverse)
from .errors import (OutOfSupportError, RankDeficiencyError, SingularMatrixError,
                     ValidationError)


def identify_effect(p_y_ex, p_w_ex, q_w, rank_tol: float = RANK_REL_TOL) -> float:
    """Causal effect from population (or plug-in) observables.

    ``p_y_ex``: outcome conditional over source domains, length ``k_e``.
    ``p_w_ex``: proxy conditional matrix, shape ``(k_w, k_e)``.
    ``q_w``: target proxy marginal, length ``k_w``.

    Raises :class:`RankDeficiencyError` when ``p_w_ex`` does not have full
    row rank at ``rank_tol``.  One SVD decides the rank and gives the
    pseudo-inverse; a refusal takes a second one for the condition number.
    """
    a = _as_matrix(p_w_ex)
    p_y = np.asarray(p_y_ex, dtype=float).reshape(-1)
    q = np.asarray(q_w, dtype=float).reshape(-1)
    if p_y.size != a.shape[1] or q.size != a.shape[0]:
        raise ValidationError(
            f"inconsistent shapes: p_y_ex {p_y.size}, p_w_ex {a.shape}, q_w {q.size}")
    # A thin SVD of a tall matrix has only k_e singular values, so its ratio
    # test cannot see that the k_w > k_e rows are dependent.
    if a.shape[0] <= a.shape[1]:
        try:
            return float(p_y @ right_pseudoinverse(a, rank_tol) @ q)
        except SingularMatrixError:
            pass
    kappa = condition_number(a)
    raise RankDeficiencyError(
        f"proxy conditional matrix is row-rank deficient "
        f"(condition number {kappa:.3e}); the effect is not identified "
        f"from these observables", kappa=kappa)


def causal_decomposition_effect(p_y_uw, p_w_u, q_u) -> float:
    """Effect via the mechanism decomposition
    ``sum_u q(u) sum_w p(y | u, w, x) p(w | u)``.

    ``p_y_uw`` holds ``p(y | u, w, x)`` for the fixed ``(x, y)`` as a
    ``(k_u, k_w)`` array; ``p_w_u`` is the ``(k_w, k_u)`` proxy mechanism.
    """
    per_u = np.einsum("uw,wu->u", np.asarray(p_y_uw, dtype=float), _as_matrix(p_w_u))
    return float(per_u @ np.asarray(q_u, dtype=float))


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
        chain = (self.lower, *edges, self.upper)
        if not all(a < b for a, b in zip(chain, chain[1:])):
            raise ValidationError(
                "partition needs lower < edges[0] < ... < edges[-1] < upper, got "
                f"lower={self.lower!r}, edges={list(edges)}, upper={self.upper!r}")

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
