"""Shared fixtures: hand-built models with known exact effects."""

from __future__ import annotations

import os
from typing import NamedTuple

# One BLAS thread, set before numpy loads: the mechanism fit makes many small
# BLAS and LAPACK calls, which stall when threaded on a busy machine, and the
# CLI tests' child processes inherit the setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from proxyshift.categorical import CategorySpec
from proxyshift.scm import MISSING, ContingencyCounts, Records, ScmSpec, count_records


class Mechanism(NamedTuple):
    """The five structural conditionals, named as on :class:`ScmSpec`."""

    p_u_given_e: np.ndarray
    q_u: np.ndarray
    p_w_given_u: np.ndarray
    p_x_given_u: np.ndarray
    p_y_given_uwx: np.ndarray


def softmax_mechanism(theta) -> Mechanism:
    """The probabilities of a ``ThetaParams``: every logit block softmaxed
    over its leading (outcome) axis."""
    def softmax(logits):
        e = np.exp(logits - logits.max(axis=0, keepdims=True))
        return e / e.sum(axis=0, keepdims=True)

    return Mechanism(*map(softmax, (theta.u_e, theta.q_u, theta.w_u, theta.x_u,
                                    theta.y_uwx)))


def source_cells(mechanism) -> np.ndarray:
    """The ``(k_y, k_x, k_w, k_e)`` table of source cell probabilities
    ``p(y, x, w | e)`` of a model or a :class:`Mechanism`, as one einsum: the
    reference for the likelihood's mixture."""
    return np.einsum("yuwx,wu,xu,ue->yxwe", mechanism.p_y_given_uwx,
                     mechanism.p_w_given_u, mechanism.p_x_given_u,
                     mechanism.p_u_given_e)


def count_rows(rows, dims: CategorySpec) -> ContingencyCounts:
    """The counts of ``(domain, w, x, y)`` tuples: 0-based indices, with
    ``TARGET`` as the domain and ``None`` as the x and y of a target row."""
    cols = np.array([[MISSING if v is None else v for v in row] for row in rows],
                    dtype=np.int64).reshape(-1, 4)
    return count_records(Records(dims, *cols.T))


def constant_outcome_tensor(p_y1_given_ux: np.ndarray, k_w: int) -> np.ndarray:
    """Outcome tensor with no direct proxy effect: ``p(y|u,w,x) = p(y|u,x)``.

    ``p_y1_given_ux`` has shape ``(k_u, k_x)`` and holds the probability of
    the first outcome; the second outcome takes the complement (binary y).
    """
    k_u, k_x = p_y1_given_ux.shape
    tensor = np.empty((2, k_u, k_w, k_x))
    for u in range(k_u):
        for xv in range(k_x):
            tensor[0, u, :, xv] = p_y1_given_ux[u, xv]
            tensor[1, u, :, xv] = 1.0 - p_y1_given_ux[u, xv]
    return tensor


def nonidentified_spec(variant: int) -> ScmSpec:
    """A model whose proxy matrix has dependent columns, so the effect is not
    recoverable from the observables.

    The two variants share every mechanism except the target confounder law;
    they induce identical observable distributions yet different effects
    (0.39 versus 0.367), which makes them the canonical refusal fixture.
    """
    dims = CategorySpec(k_e=3, k_u=3, k_w=3, k_x=2, k_y=2)
    p_w_given_u = np.array([
        [0.23, 0.3, 0.2],
        [0.46, 0.6, 0.4],
        [0.31, 0.1, 0.4],
    ])
    p_y1_given_ux = np.array([
        [0.5, 0.45],
        [0.2, 0.35],
        [0.3, 0.55],
    ])
    p_u_given_e = np.array([
        [0.5, 0.2, 0.3],
        [0.3, 0.5, 0.3],
        [0.2, 0.3, 0.4],
    ])
    p_x_given_u = np.array([
        [0.6, 0.4, 0.5],
        [0.4, 0.6, 0.5],
    ])
    q_u = {1: np.array([0.6, 0.3, 0.1]), 2: np.array([0.5, 0.33, 0.17])}[variant]
    domain_prior = np.full(4, 0.25)
    return ScmSpec(dims, p_u_given_e, q_u, p_w_given_u, p_x_given_u,
                   constant_outcome_tensor(p_y1_given_ux, k_w=3), domain_prior)


def well_conditioned_spec() -> ScmSpec:
    """A fixed binary model whose proxy conditional matrix has a small
    condition number; used for consistency and coverage studies."""
    dims = CategorySpec(k_e=2, k_u=2, k_w=2, k_x=2, k_y=2)
    p_u_given_e = np.array([[0.85, 0.25], [0.15, 0.75]])
    q_u = np.array([0.4, 0.6])
    p_w_given_u = np.array([[0.9, 0.2], [0.1, 0.8]])
    p_x_given_u = np.array([[0.7, 0.35], [0.3, 0.65]])
    p_y1 = np.array([
        [[0.75, 0.5], [0.6, 0.45]],   # u = 0: w rows, x columns
        [[0.35, 0.7], [0.15, 0.8]],   # u = 1
    ])
    tensor = np.empty((2, 2, 2, 2))
    tensor[0] = p_y1
    tensor[1] = 1.0 - p_y1
    domain_prior = np.full(3, 1.0 / 3.0)
    return ScmSpec(dims, p_u_given_e, q_u, p_w_given_u, p_x_given_u, tensor,
                   domain_prior)


@pytest.fixture(scope="session")
def nonidentified_variant_1() -> ScmSpec:
    return nonidentified_spec(1)


@pytest.fixture(scope="session")
def nonidentified_variant_2() -> ScmSpec:
    return nonidentified_spec(2)


@pytest.fixture(scope="session")
def stable_spec() -> ScmSpec:
    return well_conditioned_spec()
