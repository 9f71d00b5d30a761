"""Identification formula, proxy reduction, discretisation, covariate extension."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from proxyshift.categorical import (CategorySpec, condition_number, numeric_row_rank,
                                    right_pseudoinverse)
from proxyshift.errors import OutOfSupportError, RankDeficiencyError, ValidationError
from proxyshift.identify import (Partition, causal_decomposition_effect,
                                 discretize_proxy, identify_conditional_effect,
                                 identify_effect,
                                 identify_total_effect_with_covariate,
                                 reduce_proxy)
from proxyshift.scm import (population_views, sample_scm_spec, target_conditional,
                            true_effect)

from conftest import nonidentified_spec


def brute_force_effect(spec, x, y):
    """Independent oracle: plain adjustment sum over the hidden confounder."""
    d = spec.dims
    total = 0.0
    for u in range(d.k_u):
        p_y_ux = sum(spec.p_y_given_uwx[y, u, w, x] * spec.p_w_given_u[w, u]
                     for w in range(d.k_w))
        total += p_y_ux * spec.q_u[u]
    return total


def brute_force_target_conditional(spec, x, y):
    """Independent oracle for ``q(y | x)``: the same sum over ``u`` and ``w``,
    weighted by ``q(u, x)`` and normalised by ``q(x)``."""
    d = spec.dims
    joint = q_x = 0.0
    for u in range(d.k_u):
        q_ux = spec.q_u[u] * spec.p_x_given_u[x, u]
        for w in range(d.k_w):
            joint += q_ux * spec.p_w_given_u[w, u] * spec.p_y_given_uwx[y, u, w, x]
        q_x += q_ux
    return joint / q_x


class TestIdentifyEffect:
    def test_two_domain_worked_example(self):
        # Constructed so the proxy equals the confounder; the adjustment
        # value is 0.2 * 0.5 + 0.8 * 0.5 = 0.5.
        p_w_ex = np.array([[0.3, 0.6], [0.7, 0.4]])
        p_y_ex = np.array([0.62, 0.44])
        q_w = np.array([0.5, 0.5])
        assert identify_effect(p_y_ex, p_w_ex, q_w) == pytest.approx(0.5, abs=1e-12)

    def test_all_singleton(self):
        assert identify_effect(np.array([0.37]), np.array([[1.0]]),
                               np.array([1.0])) == pytest.approx(0.37, abs=1e-15)

    def test_matches_truth_on_random_specs(self):
        rng = np.random.default_rng(100)
        checked = 0
        while checked < 40:
            dims = CategorySpec(k_e=int(rng.integers(2, 5)), k_u=2, k_w=2,
                                k_x=2, k_y=2)
            spec = sample_scm_spec(dims, rng)
            views = population_views(spec, 0, 0)
            if condition_number(views.p_w_ex) > 1e6:
                continue
            value = identify_effect(views.p_y_ex, views.p_w_ex, views.q_w)
            assert value == pytest.approx(brute_force_effect(spec, 0, 0), abs=1e-10)
            checked += 1

    def test_refuses_rank_deficient_fixture(self):
        for variant in (1, 2):
            views = population_views(nonidentified_spec(variant), 0, 0)
            with pytest.raises(RankDeficiencyError) as excinfo:
                identify_effect(views.p_y_ex, views.p_w_ex, views.q_w)
            assert "condition number" in str(excinfo.value)

    def test_one_svd_decides_rank_and_pseudo_inverse(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(args)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        p_w_ex = np.array([[0.3, 0.6, 0.5], [0.7, 0.4, 0.5]])
        identify_effect(np.array([0.62, 0.44, 0.5]), p_w_ex, np.array([0.5, 0.5]))
        assert len(calls) == 1

    def test_refuses_more_proxy_categories_than_domains(self):
        # three independent-looking rows over two domains: a thin SVD has only
        # two singular values, whose ratio alone would pass
        p_w_ex = np.array([[0.2, 0.5], [0.3, 0.3], [0.5, 0.2]])
        assert right_pseudoinverse(p_w_ex).shape == (2, 3)
        message = (r"^proxy conditional matrix is row-rank deficient \(condition number "
                   r"[0-9.e+]+\); the effect is not identified from these observables$")
        with pytest.raises(RankDeficiencyError, match=message) as excinfo:
            identify_effect(np.array([0.4, 0.6]), p_w_ex, np.array([0.3, 0.3, 0.4]))
        assert excinfo.value.kappa == condition_number(p_w_ex)

    def test_refuses_an_infinite_entry(self):
        p_w_ex = np.array([[np.inf, 0.6], [0.7, 0.4]])
        with pytest.raises(RankDeficiencyError, match="condition number nan"):
            identify_effect(np.array([0.62, 0.44]), p_w_ex, np.array([0.5, 0.5]))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 31), st.sampled_from([(2, 2, 2, 2, 2), (3, 2, 2, 2, 2),
                                                      (4, 3, 3, 2, 2), (5, 3, 3, 2, 2)]),
           st.sampled_from(["domains", "proxies"]), st.randoms(use_true_random=False))
    def test_relabelling_leaves_the_effect_unchanged(self, seed, dims, axis, random):
        views = population_views(sample_scm_spec(CategorySpec(*dims),
                                                 np.random.default_rng(seed)), 0, 0)
        p_y, a, q = views.p_y_ex, views.p_w_ex, views.q_w
        kappa = condition_number(a)
        assume(kappa < 1e6)
        if axis == "domains":
            perm = random.sample(range(a.shape[1]), a.shape[1])
            relabelled = identify_effect(p_y[perm], a[:, perm], q)
        else:
            perm = random.sample(range(a.shape[0]), a.shape[0])
            relabelled = identify_effect(p_y, a[perm], q[perm])
        # the permuted SVD rounds differently, by up to a few kappa * eps
        tol = 1e-12 + 8 * np.finfo(float).eps * kappa
        assert relabelled == pytest.approx(identify_effect(p_y, a, q), abs=tol)


class TestCausalDecomposition:
    def test_fixture_value(self):
        spec = nonidentified_spec(1)
        value = causal_decomposition_effect(spec.p_y_given_uwx[0][:, :, 0],
                                            spec.p_w_given_u, spec.q_u)
        assert value == pytest.approx(0.39, abs=1e-12)

    def test_constant_outcome_collapses(self):
        k_u, k_w = 3, 4
        rng = np.random.default_rng(7)
        p_w_u = rng.random((k_w, k_u)) + 0.1
        p_w_u /= p_w_u.sum(axis=0, keepdims=True)
        q_u = rng.dirichlet(np.ones(k_u))
        c = 0.317
        value = causal_decomposition_effect(np.full((k_u, k_w), c), p_w_u, q_u)
        assert value == pytest.approx(c, abs=1e-14)

    def test_agrees_with_true_effect(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            spec = sample_scm_spec(CategorySpec(2, 3, 3, 2, 2), rng)
            for x in range(2):
                for y in range(2):
                    a = causal_decomposition_effect(
                        spec.p_y_given_uwx[y][:, :, x], spec.p_w_given_u, spec.q_u)
                    assert a == pytest.approx(true_effect(spec, x, y), abs=1e-14)
                    assert true_effect(spec, x, y) == pytest.approx(
                        brute_force_effect(spec, x, y), abs=1e-14)
                    assert target_conditional(spec, x, y) == pytest.approx(
                        brute_force_target_conditional(spec, x, y), abs=1e-14)


def rank_limited_stochastic(rng, k_rows: int, rank: int, k_cols: int) -> np.ndarray:
    """Column-stochastic matrix of numeric rank at most ``rank``, built by
    mixing the rows of a full-rank matrix with column-stochastic weights."""
    base = rng.random((rank, k_cols)) + 0.1
    base /= base.sum(axis=0, keepdims=True)
    mix = rng.random((k_rows, rank)) + 0.1
    mix /= mix.sum(axis=0, keepdims=True)
    return mix @ base


class TestReduceProxy:
    def test_full_rank_is_identity(self):
        a = np.array([[0.3, 0.6], [0.7, 0.4]])
        mapping = reduce_proxy(a)
        assert mapping.k_w_reduced == 2
        assert mapping.merges == ()
        np.testing.assert_array_equal(mapping.assignment, [0, 1])
        np.testing.assert_array_equal(mapping.apply_to_matrix(a), a)

    def test_three_row_worked_example(self):
        # row 2 = (2/3) row 0 + (2/3) row 1, so it is absorbed into row 0
        a = np.array([[0.2, 0.4], [0.4, 0.2], [0.4, 0.4]])
        mapping = reduce_proxy(a)
        assert mapping.k_w_reduced == 2
        assert len(mapping.merges) == 1
        step = mapping.merges[0]
        assert (step.merged, step.into) == (2, 0)
        assert step.coefficient == pytest.approx(2.0 / 3.0, abs=1e-10)
        merged = mapping.apply_to_matrix(a)
        np.testing.assert_allclose(merged, [[0.6, 0.8], [0.4, 0.2]], atol=1e-12)
        assert numeric_row_rank(merged) == 2

    def test_rank_two_proxy_reduces_to_two_categories(self):
        views = population_views(nonidentified_spec(1), 0, 0)
        mapping = reduce_proxy(views.p_w_ex)
        assert mapping.k_w_reduced == 2

    def test_soundness_on_random_rank_deficient_matrices(self):
        rng = np.random.default_rng(55)
        for _ in range(40):
            k_rows = int(rng.integers(3, 7))
            rank = int(rng.integers(1, k_rows))
            k_cols = int(rng.integers(rank, 6))
            a = rank_limited_stochastic(rng, k_rows, rank, k_cols)
            input_rank = numeric_row_rank(a)
            mapping = reduce_proxy(a)
            merged = mapping.apply_to_matrix(a)
            assert mapping.k_w_reduced == input_rank
            assert numeric_row_rank(merged) == input_rank
            np.testing.assert_allclose(merged.sum(axis=0), 1.0, atol=1e-12)

    def test_merge_log_replays_to_assignment(self):
        rng = np.random.default_rng(56)
        a = rank_limited_stochastic(rng, 5, 2, 4)
        mapping = reduce_proxy(a)
        owner = list(range(5))
        for step in mapping.merges:
            owner[step.merged] = step.into
        def resolve(i):
            while owner[i] != i:
                i = owner[i]
            return i
        survivors = sorted({resolve(i) for i in range(5)})
        replayed = [survivors.index(resolve(i)) for i in range(5)]
        np.testing.assert_array_equal(mapping.assignment, replayed)

    def test_identify_after_reduction_matches_truth(self):
        rng = np.random.default_rng(57)
        checked = 0
        while checked < 10:
            dims = CategorySpec(k_e=3, k_u=2, k_w=4, k_x=2, k_y=2)
            spec = sample_scm_spec(dims, rng)
            # overwrite the proxy mechanism with a rank-2 mixture so the raw
            # proxy has redundant categories
            p_w_u = rank_limited_stochastic(rng, 4, 2, 2)
            spec = type(spec)(dims, spec.p_u_given_e, spec.q_u, p_w_u,
                              spec.p_x_given_u, spec.p_y_given_uwx,
                              spec.domain_prior)
            views = population_views(spec, 0, 0)
            mapping = reduce_proxy(views.p_w_ex)
            merged_pw = mapping.apply_to_matrix(views.p_w_ex)
            if condition_number(merged_pw) > 1e6:
                continue
            merged_qw = mapping.apply_to_matrix(views.q_w[:, None])[:, 0]
            value = identify_effect(views.p_y_ex, merged_pw, merged_qw)
            assert value == pytest.approx(brute_force_effect(spec, 0, 0), abs=1e-8)
            checked += 1

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(58)
        dims = CategorySpec(k_e=3, k_u=2, k_w=4, k_x=2, k_y=2)
        spec = sample_scm_spec(dims, rng)
        p_w_u = rank_limited_stochastic(rng, 4, 2, 2)
        spec = type(spec)(dims, spec.p_u_given_e, spec.q_u, p_w_u,
                          spec.p_x_given_u, spec.p_y_given_uwx, spec.domain_prior)
        views = population_views(spec, 0, 0)

        def reduced_value(p_w_ex, q_w):
            mapping = reduce_proxy(p_w_ex)
            return identify_effect(views.p_y_ex, mapping.apply_to_matrix(p_w_ex),
                                   mapping.apply_to_matrix(q_w[:, None])[:, 0])

        base = reduced_value(views.p_w_ex, views.q_w)
        perm = np.array([2, 0, 3, 1])
        permuted = reduced_value(views.p_w_ex[perm, :], views.q_w[perm])
        assert permuted == pytest.approx(base, abs=1e-12)


class TestDiscretize:
    def test_price_style_bins(self):
        part = Partition((75.0, 125.0, 175.0, 225.0))
        codes = discretize_proxy([50.0, 100.0, 300.0], part)
        np.testing.assert_array_equal(codes, [1, 2, 5])

    def test_single_bin(self):
        part = Partition(())
        np.testing.assert_array_equal(discretize_proxy([1.0, -3.0, 9.9], part),
                                      [1, 1, 1])

    def test_singleton_bins_identity_coding(self):
        part = Partition((1.0, 2.0, 3.0))
        values = [1.0, 2.0, 3.0, 4.0, 2.0]
        np.testing.assert_array_equal(discretize_proxy(values, part),
                                      [1, 2, 3, 4, 2])

    def test_out_of_support(self):
        part = Partition((0.5,), lower=0.0, upper=1.0)
        with pytest.raises(OutOfSupportError):
            discretize_proxy([0.2, 1.5], part)

    def test_out_of_support_message_prints_a_plain_float(self):
        part = Partition((0.5,), lower=0.0, upper=1.0)
        for value, shown in ((np.nan, "nan"), (1.5, "1.5")):
            with pytest.raises(OutOfSupportError, match=(
                    rf"^value {shown} is outside the declared proxy support$")):
                discretize_proxy(np.array([0.2, value]), part)

    @pytest.mark.parametrize("edges, lower, upper", [
        ((), float("nan"), float("inf")),
        ((), float("-inf"), float("nan")),
        ((), 2.0, 1.0),
        ((), 1.0, 1.0),
        ((0.5, float("nan")), 0.0, 1.0),
        ((0.5, 0.5), 0.0, 1.0),
        ((0.5,), 0.5, 1.0),
        ((0.5,), 0.0, 0.5),
    ])
    def test_refuses_bounds_and_edges_out_of_order(self, edges, lower, upper):
        # one chain lower < edges[0] < ... < edges[-1] < upper; NaN fails every link
        with pytest.raises(ValidationError, match=r"^partition needs lower < edges\[0\]"):
            Partition(edges, lower=lower, upper=upper)

    def test_right_closed_boundaries(self):
        part = Partition((75.0, 125.0))
        np.testing.assert_array_equal(
            discretize_proxy([75.0, 75.0000001, 125.0], part), [1, 2, 2])


# -- Covariate extension ------------------------------------------------------

class CovariateModel:
    """Random model with an observed confounder Z: E -> (U, Z, X),
    U -> (Z, W, X, Y), Z -> (W, X, Y), W -> Y, X -> Y."""

    def __init__(self, rng, k_e=3, k_u=2, k_w=2, k_x=2, k_y=2, k_z=2,
                 z_independent=False):
        def cols(k_out, *cond):
            m = rng.random((k_out,) + cond) + 0.1
            return m / m.sum(axis=0, keepdims=True)

        self.k = (k_e, k_u, k_w, k_x, k_y, k_z)
        self.p_u_e = cols(k_u, k_e)
        self.q_u = rng.dirichlet(np.ones(k_u))
        if z_independent:
            z_marg = rng.dirichlet(np.ones(k_z))
            self.p_z_ue = np.broadcast_to(z_marg[:, None, None], (k_z, k_u, k_e)).copy()
            self.q_z_u = np.broadcast_to(z_marg[:, None], (k_z, k_u)).copy()
            self.p_w_uz = np.repeat(cols(k_w, k_u)[:, :, None], k_z, axis=2)
            self.p_x_uze = np.repeat(cols(k_x, k_u, k_e)[:, :, None, :], k_z, axis=2)
            base_y = cols(k_y, k_u, k_w, k_x)
            self.p_y_uwxz = np.repeat(base_y[..., None], k_z, axis=4)
        else:
            self.p_z_ue = cols(k_z, k_u, k_e)
            self.q_z_u = cols(k_z, k_u)
            self.p_w_uz = cols(k_w, k_u, k_z)
            self.p_x_uze = cols(k_x, k_u, k_z, k_e)
            self.p_y_uwxz = cols(k_y, k_u, k_w, k_x, k_z)

    def stratum_views(self, x, y, z):
        k_e, k_u = self.k[0], self.k[1]
        # p(u | e, x, z) up to normalisation: p(x|u,z,e) p(z|u,e) p(u|e)
        unnorm = (self.p_x_uze[x, :, z, :] * self.p_z_ue[z, :, :] * self.p_u_e)
        p_u_exz = unnorm / unnorm.sum(axis=0, keepdims=True)
        p_w_exz = self.p_w_uz[:, :, z] @ p_u_exz
        p_y_uxz = np.einsum("uw,wu->u", self.p_y_uwxz[y, :, :, x, z],
                            self.p_w_uz[:, :, z])
        p_y_exz = p_y_uxz @ p_u_exz
        q_u_z = self.q_z_u[z, :] * self.q_u
        q_z = q_u_z.sum()
        q_u_z = q_u_z / q_z
        q_w_z = self.p_w_uz[:, :, z] @ q_u_z
        return p_y_exz, p_w_exz, q_w_z, q_z

    def brute_force_conditional(self, x, y, z):
        p_y_uxz = np.einsum("uw,wu->u", self.p_y_uwxz[y, :, :, x, z],
                            self.p_w_uz[:, :, z])
        q_u_z = self.q_z_u[z, :] * self.q_u
        q_u_z = q_u_z / q_u_z.sum()
        return float(p_y_uxz @ q_u_z)

    def brute_force_total(self, x, y):
        total = 0.0
        for z in range(self.k[5]):
            q_z = float((self.q_z_u[z, :] * self.q_u).sum())
            total += self.brute_force_conditional(x, y, z) * q_z
        return total


class TestCovariateExtension:
    def test_single_stratum_reduces_to_identify_effect(self):
        rng = np.random.default_rng(70)
        model = CovariateModel(rng, k_z=1)
        p_y, p_w, q_w, q_z = model.stratum_views(0, 0, 0)
        total = identify_total_effect_with_covariate([(p_y, p_w, q_w)], [1.0])
        assert total == identify_effect(p_y, p_w, q_w)

    def test_independent_covariate_gives_constant_strata(self):
        rng = np.random.default_rng(71)
        model = CovariateModel(rng, z_independent=True)
        values = []
        for z in range(2):
            p_y, p_w, q_w, _ = model.stratum_views(0, 0, z)
            values.append(identify_conditional_effect(p_y, p_w, q_w, z=z))
        assert values[0] == pytest.approx(values[1], abs=1e-10)
        # and each stratum matches the covariate-free identification value
        # computed on the same conditional pieces
        assert values[0] == pytest.approx(model.brute_force_conditional(0, 0, 0),
                                          abs=1e-10)

    def test_total_effect_matches_brute_force(self):
        rng = np.random.default_rng(72)
        checked = 0
        while checked < 15:
            model = CovariateModel(rng)
            pieces = []
            q_zs = []
            ok = True
            for z in range(2):
                p_y, p_w, q_w, q_z = model.stratum_views(0, 0, z)
                if condition_number(p_w) > 1e6:
                    ok = False
                    break
                pieces.append((p_y, p_w, q_w))
                q_zs.append(q_z)
            if not ok:
                continue
            total = identify_total_effect_with_covariate(pieces, q_zs)
            assert total == pytest.approx(model.brute_force_total(0, 0), abs=1e-10)
            checked += 1

    def test_stratum_error_names_z(self):
        views = population_views(nonidentified_spec(1), 0, 0)
        with pytest.raises(RankDeficiencyError) as excinfo:
            identify_conditional_effect(views.p_y_ex, views.p_w_ex, views.q_w, z=3)
        assert "z=3" in str(excinfo.value)
