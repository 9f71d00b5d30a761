"""Mechanism MLE: softmax parametrisation, likelihood, gradient, fit, plug-in."""

import math

import numpy as np
import pytest

from proxyshift.categorical import CategorySpec
from proxyshift.causal import (FitOptions, ThetaParams, _observable_probs,
                               causal_estimate, fit_causal, g_of_theta,
                               likelihood_gradient, log_likelihood,
                               logits_to_theta)
from proxyshift.errors import ValidationError
from proxyshift.identify import causal_decomposition_effect
from proxyshift.scm import (ContingencyCounts, sample_scm_spec, simulate_dataset,
                            true_effect)

from conftest import nonidentified_spec, well_conditioned_spec


def theta_from_spec(spec) -> ThetaParams:
    """Logits whose softmax reproduces the model's probabilities exactly."""
    return ThetaParams(np.log(spec.p_u_given_e), np.log(spec.q_u),
                       np.log(spec.p_w_given_u), np.log(spec.p_x_given_u),
                       np.log(spec.p_y_given_uwx))


def random_counts(rng, dims) -> ContingencyCounts:
    spec = sample_scm_spec(dims, rng)
    ds = simulate_dataset(spec, int(rng.integers(200, 3000)), rng)
    return ds


def random_theta(rng, k_u, k_e, k_w, k_x, k_y) -> ThetaParams:
    return ThetaParams(rng.normal(size=(k_u, k_e)), rng.normal(size=k_u),
                       rng.normal(size=(k_w, k_u)), rng.normal(size=(k_x, k_u)),
                       rng.normal(size=(k_y, k_u, k_w, k_x)))


class TestLogitsToTheta:
    def test_zero_logits_are_uniform(self):
        theta = ThetaParams(np.zeros((3, 2)), np.zeros(3), np.zeros((2, 3)),
                            np.zeros((2, 3)), np.zeros((2, 3, 2, 2)))
        probs = logits_to_theta(theta)
        np.testing.assert_allclose(probs.p_u_given_e, 1.0 / 3.0)
        np.testing.assert_allclose(probs.q_u, 1.0 / 3.0)
        np.testing.assert_allclose(probs.p_y_given_uwx, 0.5)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        theta = random_theta(rng, 2, 2, 2, 2, 2)
        shifted = ThetaParams(theta.u_e + 3.7, theta.q_u - 1.2, theta.w_u + 0.5,
                              theta.x_u, theta.y_uwx + 9.0)
        a, b = logits_to_theta(theta), logits_to_theta(shifted)
        for pa, pb in zip(a, b):
            np.testing.assert_allclose(pa, pb, atol=1e-14)

    def test_log_two_logit(self):
        theta = ThetaParams(np.array([[math.log(2.0)], [0.0]]), np.zeros(2),
                            np.zeros((1, 2)), np.zeros((1, 2)),
                            np.zeros((1, 2, 1, 1)))
        probs = logits_to_theta(theta)
        np.testing.assert_allclose(probs.p_u_given_e[:, 0], [2 / 3, 1 / 3],
                                   atol=1e-15)

    def test_rejects_non_finite(self):
        theta = ThetaParams(np.array([[np.inf], [0.0]]), np.zeros(2),
                            np.zeros((1, 2)), np.zeros((1, 2)),
                            np.zeros((1, 2, 1, 1)))
        with pytest.raises(ValidationError):
            logits_to_theta(theta)

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(1)
        probs = logits_to_theta(random_theta(rng, 3, 2, 4, 2, 3))
        np.testing.assert_allclose(probs.p_w_given_u.sum(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(probs.p_y_given_uwx.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(probs.p_w_given_u > 0)


class TestLogLikelihood:
    def test_empty_counts(self):
        counts = ContingencyCounts(np.zeros((2, 2, 2, 2), dtype=int),
                                   np.zeros(2, dtype=int))
        theta = random_theta(np.random.default_rng(2), 2, 2, 2, 2, 2)
        assert log_likelihood(theta, counts) == 0.0

    def test_all_singleton_axes(self):
        counts = ContingencyCounts(np.full((1, 1, 1, 1), 5), np.array([3]))
        theta = random_theta(np.random.default_rng(3), 1, 1, 1, 1, 1)
        assert log_likelihood(theta, counts) == pytest.approx(0.0, abs=1e-12)

    def test_single_record_uniform_parameters(self):
        tensor = np.zeros((2, 2, 2, 1), dtype=int)
        tensor[0, 0, 0, 0] = 1
        counts = ContingencyCounts(tensor, np.zeros(2, dtype=int))
        theta = ThetaParams(np.zeros((2, 1)), np.zeros(2), np.zeros((2, 2)),
                            np.zeros((2, 2)), np.zeros((2, 2, 2, 2)))
        # mixture of two confounder levels, each contributing (1/2)^4
        assert log_likelihood(theta, counts) == pytest.approx(math.log(1 / 8),
                                                              abs=1e-12)

    def test_truth_logits_reproduce_model_probabilities(self):
        spec = well_conditioned_spec()
        probs = logits_to_theta(theta_from_spec(spec))
        np.testing.assert_allclose(probs.p_u_given_e, spec.p_u_given_e, atol=1e-12)
        m, q_w = _observable_probs(probs)
        np.testing.assert_allclose(q_w, spec.p_w_given_u @ spec.q_u, atol=1e-12)


class TestLikelihoodGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        dims = CategorySpec(2, 2, 2, 2, 2)
        for _ in range(20):
            counts = random_counts(rng, dims)
            theta = random_theta(rng, 2, 2, 2, 2, 2)
            analytic = likelihood_gradient(theta, counts)
            flat = theta.flatten()
            fd = np.empty_like(flat)
            step = 1e-6
            for i in range(flat.size):
                hi, lo = flat.copy(), flat.copy()
                hi[i] += step
                lo[i] -= step
                th = ThetaParams.from_flat(hi, 2, 2, 2, 2, 2)
                tl = ThetaParams.from_flat(lo, 2, 2, 2, 2, 2)
                fd[i] = (log_likelihood(th, counts)
                         - log_likelihood(tl, counts)) / (2 * step)
            denom = max(np.linalg.norm(fd), 1e-12)
            assert np.linalg.norm(analytic - fd) / denom < 1e-5


class TestFitCausal:
    def test_deterministic_given_seed(self):
        ds = simulate_dataset(well_conditioned_spec(), 3000,
                              np.random.default_rng(5))
        counts = ds
        a, _ = fit_causal(counts, FitOptions(seed=9), k_u=2)
        b, _ = fit_causal(counts, FitOptions(seed=9), k_u=2)
        assert np.array_equal(a.flatten(), b.flatten())

    def test_fit_beats_truth_logits_on_large_sample(self):
        spec = well_conditioned_spec()
        ds = simulate_dataset(spec, 200_000, np.random.default_rng(6))
        counts = ds
        theta, diag = fit_causal(counts, FitOptions(seed=2), k_u=2)
        assert diag.log_likelihood >= log_likelihood(theta_from_spec(spec), counts)
        assert diag.improved

    def test_restarts_return_best(self):
        ds = simulate_dataset(well_conditioned_spec(), 2000,
                              np.random.default_rng(7))
        counts = ds
        _, diag1 = fit_causal(counts, FitOptions(seed=3, restarts=1), k_u=2)
        _, diag3 = fit_causal(counts, FitOptions(seed=3, restarts=3), k_u=2)
        assert diag3.log_likelihood >= diag1.log_likelihood - 1e-9

    def test_saturated_single_confounder_fit(self):
        # with one confounder level the observable model factorises and the
        # fitted cell table converges to the empirical one
        dims = CategorySpec(k_e=1, k_u=1, k_w=2, k_x=2, k_y=2)
        spec = sample_scm_spec(dims, np.random.default_rng(31))
        ds = simulate_dataset(spec, 2_000_000, np.random.default_rng(32))
        counts = ds
        theta, _ = fit_causal(counts, FitOptions(seed=1), k_u=1)
        m, _ = _observable_probs(logits_to_theta(theta))
        empirical = counts.n_yxwe[:, :, :, 0] / counts.n_src
        tv = 0.5 * np.abs(m[:, :, :, 0] - empirical).sum()
        assert tv < 1e-3

        # and the plug-in point matches the empirical conditional (there is
        # no confounding to correct)
        point = g_of_theta(theta, 0, 0)
        src_yx = counts.n_yxwe[0, 0, :, 0].sum()
        src_x = counts.n_yxwe[:, 0, :, 0].sum()
        assert abs(point - src_yx / src_x) < 1e-3

    def test_requires_k_u(self):
        ds = simulate_dataset(well_conditioned_spec(), 100, np.random.default_rng(8))
        with pytest.raises(ValidationError):
            fit_causal(ds, FitOptions())

    def test_large_sample_fit_matches_domain_tables(self):
        spec = well_conditioned_spec()
        ds = simulate_dataset(spec, 400_000, np.random.default_rng(16))
        counts = ds
        theta, _ = fit_causal(counts, FitOptions(seed=7), k_u=2)
        m, _ = _observable_probs(logits_to_theta(theta))
        for e in range(2):
            empirical = counts.n_yxwe[:, :, :, e] / counts.n_yxwe[:, :, :, e].sum()
            tv = 0.5 * np.abs(m[:, :, :, e] - empirical).sum()
            assert tv < 0.01

    def test_accepted_steps_never_decrease_likelihood(self):
        from scipy.optimize import minimize
        from proxyshift.causal import _negative_loglik_and_grad

        ds = simulate_dataset(well_conditioned_spec(), 5000,
                              np.random.default_rng(17))
        counts = ds
        rng = np.random.default_rng([3, 0])  # same init law as the fitter
        x0 = rng.uniform(0.0, 1.0, size=30)
        trace = [-_negative_loglik_and_grad(x0, counts, 2, 2, 2, 2, 2)[0]]
        minimize(_negative_loglik_and_grad, x0, args=(counts, 2, 2, 2, 2, 2),
                 method="L-BFGS-B", jac=True,
                 callback=lambda xk: trace.append(
                     -_negative_loglik_and_grad(xk, counts, 2, 2, 2, 2, 2)[0]))
        diffs = np.diff(trace)
        assert np.all(diffs >= -1e-9 * (1 + np.abs(trace[:-1])))


class TestGOfTheta:
    def test_fixture_effect(self):
        spec = nonidentified_spec(1)
        assert g_of_theta(theta_from_spec(spec), 0, 0) == pytest.approx(0.39,
                                                                        abs=1e-12)

    def test_constant_outcome(self):
        rng = np.random.default_rng(9)
        spec = sample_scm_spec(CategorySpec(2, 3, 2, 2, 2), rng)
        c = 0.41
        tensor = np.empty_like(spec.p_y_given_uwx)
        tensor[0] = c
        tensor[1] = 1 - c
        theta = ThetaParams(np.log(spec.p_u_given_e), np.log(spec.q_u),
                            np.log(spec.p_w_given_u), np.log(spec.p_x_given_u),
                            np.log(tensor))
        assert g_of_theta(theta, 0, 0) == pytest.approx(c, abs=1e-12)

    def test_matches_decomposition(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            theta = random_theta(rng, 3, 2, 3, 2, 2)
            probs = logits_to_theta(theta)
            expected = causal_decomposition_effect(
                probs.p_y_given_uwx[1][:, :, 0], probs.p_w_given_u, probs.q_u)
            assert g_of_theta(theta, 0, 1) == pytest.approx(expected, abs=1e-14)

    def test_value_in_unit_interval(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            theta = random_theta(rng, 2, 2, 3, 2, 2)
            assert 0.0 <= g_of_theta(theta, 0, 0) <= 1.0

    def test_latent_label_permutation_invariance(self):
        rng = np.random.default_rng(12)
        theta = random_theta(rng, 3, 2, 3, 2, 2)
        perm = [2, 0, 1]
        permuted = ThetaParams(theta.u_e[perm, :], theta.q_u[perm],
                               theta.w_u[:, perm], theta.x_u[:, perm],
                               theta.y_uwx[:, perm, :, :])
        counts = random_counts(np.random.default_rng(13), CategorySpec(2, 3, 3, 2, 2))
        assert log_likelihood(permuted, counts) == pytest.approx(
            log_likelihood(theta, counts), abs=1e-12 * max(1, abs(log_likelihood(theta, counts))))
        assert g_of_theta(permuted, 0, 0) == pytest.approx(
            g_of_theta(theta, 0, 0), abs=1e-12)


class TestCausalEstimate:
    def test_large_sample_accuracy(self):
        spec = well_conditioned_spec()
        ds = simulate_dataset(spec, 100_000, np.random.default_rng(14))
        est = causal_estimate(ds, 0, 0, FitOptions(seed=4), k_u=2)
        assert abs(est.point - true_effect(spec, 0, 0)) < 0.03
        assert est.ci_lower is None
        assert 0.0 <= est.point <= 1.0

    def test_same_seed_same_point(self):
        ds = simulate_dataset(well_conditioned_spec(), 5000,
                              np.random.default_rng(15))
        a = causal_estimate(ds, 0, 0, FitOptions(seed=6), k_u=2)
        b = causal_estimate(ds, 0, 0, FitOptions(seed=6), k_u=2)
        assert a.point == b.point
