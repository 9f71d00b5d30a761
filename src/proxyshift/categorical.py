"""Categorical probability objects and dense linear-algebra primitives.

Conditional pmfs are stored as column-stochastic matrices: entry ``(i, j)``
is the probability of outcome ``i`` given conditioning value ``j``, so every
column sums to one.  All matrices in this problem are tiny (tens of
categories per axis), so everything is dense.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SingularMatrixError, ValidationError

COLUMN_SUM_TOL = 1e-12
RANK_REL_TOL = 1e-9

# Relative singular-value cutoff below which a matrix is treated as exactly
# singular; comfortably above double-precision noise for entries in [0, 1].
_SINGULAR_REL_CUTOFF = 1e-12


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValidationError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if m.size == 0:
        raise ValidationError("expected a non-empty matrix")
    return m


def validate_stochastic(matrix, tol: float = COLUMN_SUM_TOL,
                        strict_positive: bool = False) -> str | None:
    """Check that ``matrix`` is column-stochastic.

    Returns ``None`` when every entry is non-negative (strictly positive when
    ``strict_positive``) and every column sums to one within ``tol``;
    otherwise returns a report naming the first offending entry or column.
    """
    m = _as_matrix(matrix)
    sums = m.sum(axis=0)
    low = m.min()
    # a valid matrix returns here; the report is built only for a failure (a
    # NaN fails every comparison, so it takes the checks below)
    if (low > 0.0 if strict_positive else low >= 0.0) and np.abs(sums - 1.0).max() <= tol:
        return None
    if strict_positive:
        bad = np.argwhere(m <= 0.0)
        if bad.size:
            i, j = bad[0]
            return f"entry ({i}, {j}) is {float(m[i, j])!r}, must be strictly positive"
    else:
        bad = np.argwhere(m < 0.0)
        if bad.size:
            i, j = bad[0]
            return f"entry ({i}, {j}) is {float(m[i, j])!r}, must be non-negative"
    off = np.abs(sums - 1.0) > tol
    if off.any():
        j = int(np.argmax(off))
        return f"column {j} sums to {float(sums[j])!r}, expected 1 within {tol}"
    return None


def _freeze(obj, name: str, value: np.ndarray) -> None:
    value.flags.writeable = False
    object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class CategorySpec:
    """Cardinalities of the five categorical axes, with optional labels."""

    k_e: int
    k_u: int
    k_w: int
    k_x: int
    k_y: int
    labels_e: tuple[str, ...] | None = None
    labels_u: tuple[str, ...] | None = None
    labels_w: tuple[str, ...] | None = None
    labels_x: tuple[str, ...] | None = None
    labels_y: tuple[str, ...] | None = None

    def __post_init__(self):
        for axis in ("e", "u", "w", "x", "y"):
            k = getattr(self, f"k_{axis}")
            if not isinstance(k, (int, np.integer)) or k < 1:
                shown = k.item() if isinstance(k, np.generic) else k
                raise ValidationError(f"k_{axis} must be a positive integer, got {shown!r}")
            labels = getattr(self, f"labels_{axis}")
            if labels is not None:
                labels = tuple(labels)
                object.__setattr__(self, f"labels_{axis}", labels)
                if len(labels) != k:
                    raise ValidationError(
                        f"labels_{axis} has {len(labels)} entries for cardinality {k}")
                if len(set(labels)) != len(labels):
                    raise ValidationError(f"labels_{axis} contains duplicates")


def right_pseudoinverse(a, rank_tol: float = RANK_REL_TOL) -> np.ndarray:
    """Right pseudo-inverse of ``a`` computed through the SVD.

    For a matrix with linearly independent rows this satisfies
    ``a @ right_pseudoinverse(a) == I`` up to rounding.  Callers should check
    :func:`numeric_row_rank` first; a numerically singular system (smallest
    over largest singular value below ``rank_tol``) raises
    :class:`SingularMatrixError`.
    """
    pinv, singular = stacked_svd(_as_matrix(a)[None]).right_pseudoinverse(rank_tol)
    if singular:
        raise singular[0]
    return pinv[0]


def _row_ranks(s: np.ndarray, rel_tol) -> np.ndarray:
    """Ranks from the ``(B, k)`` singular values of a stack; ``rel_tol`` is a
    scalar or one tolerance per matrix."""
    ranks = np.count_nonzero(s >= np.reshape(rel_tol, (-1, 1)) * s[:, :1], axis=1)
    ranks[s[:, 0] <= 0.0] = 0
    return ranks


class StackedSvd(NamedTuple):
    """Thin SVDs of a ``(B, m, n)`` stack, ``a[i] = u[i] diag(s[i]) vt[i]``:
    one decomposition serves both the rank test and the pseudo-inverses."""

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray

    def row_rank(self, rel_tol=RANK_REL_TOL) -> np.ndarray:
        """:func:`numeric_row_rank` of every matrix of the stack."""
        return _row_ranks(self.s, rel_tol)

    def right_pseudoinverse(self, rank_tol=RANK_REL_TOL
                            ) -> tuple[np.ndarray, dict[int, SingularMatrixError]]:
        """The ``(B, n, m)`` right pseudo-inverses and, keyed by stack index,
        the :class:`SingularMatrixError` that :func:`right_pseudoinverse`
        raises for each numerically singular matrix; those matrices'
        pseudo-inverses are meaningless.  ``rank_tol`` is a scalar or one
        tolerance per matrix."""
        u, s, vt = self
        tol = np.broadcast_to(rank_tol, s.shape[:1])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = s[:, -1] / s[:, 0]
            pinv = (np.swapaxes(vt, 1, 2) / s[:, None, :]) @ np.swapaxes(u, 1, 2)
        # a zero matrix (ratio 0/0) and an infinite entry (NaN singular
        # values) fail the comparison, so they count as singular too
        singular = {
            int(i): SingularMatrixError(
                f"singular system: singular-value ratio {ratio[i] if s[i, 0] > 0 else 0.0:.3e} "
                f"below tolerance {tol[i]:.1e}")
            for i in np.flatnonzero(~(ratio >= tol))}
        return pinv, singular


def stacked_svd(a: np.ndarray) -> StackedSvd:
    """The thin SVD of every matrix in a ``(B, m, n)`` stack, as one call."""
    return StackedSvd(*np.linalg.svd(a, full_matrices=False))


def condition_number(a) -> float:
    """Ratio of the extreme singular values of ``a``.

    ``sigma_min`` is the smallest of the first ``min(rows, cols)`` singular
    values.  Returns ``inf`` when the matrix is numerically rank-deficient
    (``sigma_min`` below an absolute floor of 1e-300 or a relative cutoff of
    1e-12 times ``sigma_max``), so exactly-dependent rows or columns report
    an infinite condition number rather than a rounding artefact.
    """
    m = _as_matrix(a)
    s = np.linalg.svd(m, compute_uv=False)
    s_max, s_min = float(s[0]), float(s[-1])
    if s_min < max(1e-300, _SINGULAR_REL_CUTOFF * s_max):
        return float("inf")
    return s_max / s_min


def numeric_row_rank(a, rel_tol: float = RANK_REL_TOL) -> int:
    """Number of singular values of ``a`` at least ``rel_tol * sigma_max``."""
    return int(_row_ranks(np.linalg.svd(_as_matrix(a), compute_uv=False)[None], rel_tol)[0])
