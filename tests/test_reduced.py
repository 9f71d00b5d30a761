"""Statistic vector, identification map, delta-method and bootstrap intervals."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import proxyshift.reduced as reduced
from proxyshift.baselines import no_adjustment, w_adjustment
from proxyshift.categorical import CategorySpec, condition_number, numeric_row_rank
from proxyshift.errors import BootstrapError, EmptyCellError, ProxyShiftError, ValidationError
from proxyshift.reduced import (EtaVector, _cell_table, _evaluate, _perturb_values,
                                _proxy_matrix, _split_eta, bootstrap_ci, eta_from_counts,
                                grad_h, h_of_eta, normal_quantile, reduced_estimate)
from proxyshift.scm import (TARGET, ContingencyCounts, Records, count_records,
                            population_views, sample_scm_spec, simulate_dataset,
                            simulate_records, true_effect)

from conftest import count_rows, source_cells, well_conditioned_spec


def population_eta(spec, x, y) -> EtaVector:
    """Exact population value of the statistic vector."""
    views = population_views(spec, x, y)
    prior = spec.domain_prior
    cells = source_cells(spec)
    k_w, k_e = spec.dims.k_w, spec.dims.k_e
    values = [prior[-1] * views.q_w[j] for j in range(k_w - 1)]
    values.append(prior[-1])
    p_wxe = cells[:, x, :, :].sum(axis=0) * prior[None, :k_e]
    for l in range(k_e):
        values.extend(p_wxe[j, l] for j in range(k_w - 1))
    values.extend(cells[y, x, :, :].sum(axis=0) * prior[:k_e])
    values.extend(cells[:, x, :, :].sum(axis=(0, 1)) * prior[:k_e])
    return EtaVector(np.array(values), k_w, k_e)


def four_record_dataset() -> ContingencyCounts:
    dims = CategorySpec(k_e=1, k_u=2, k_w=2, k_x=2, k_y=2)
    return count_rows([
        (TARGET, 0, None, None),
        (TARGET, 1, None, None),
        (0, 0, 0, 0),
        (0, 1, 0, 1),
    ], dims)


def ratio_dataset() -> ContingencyCounts:
    """Twelve records with a single proxy category: the map reduces to the
    ratio p(y, x, e) / p(x, e) = (4/12) / (6/12)."""
    dims = CategorySpec(k_e=1, k_u=1, k_w=1, k_x=2, k_y=2)
    recs = [(TARGET, 0, None, None)] * 4
    recs += [(0, 0, 0, 0)] * 4 + [(0, 0, 0, 1)] * 2 + [(0, 0, 1, 0)] * 2
    return count_rows(recs, dims)


class TestEtaFromDataset:
    def test_four_record_hand_count(self):
        eta = eta_from_counts(four_record_dataset(), 0, 0)
        # layout: q(w0, target), q(target), p(w0, x, e0), p(y, x, e0), p(x, e0)
        np.testing.assert_allclose(eta.values, [0.25, 0.5, 0.25, 0.25, 0.5])

    def test_all_target(self):
        dims = CategorySpec(k_e=1, k_u=2, k_w=2, k_x=2, k_y=2)
        ds = count_rows([(TARGET, 0, None, None), (TARGET, 1, None, None)], dims)
        eta = eta_from_counts(ds, 0, 0)
        np.testing.assert_allclose(eta.values, [0.5, 1.0, 0.0, 0.0, 0.0])

    def test_duplication_keeps_mean_and_scales_covariance(self):
        spec = well_conditioned_spec()
        records = simulate_records(spec, 400, np.random.default_rng(3))
        ds = count_records(records)
        doubled = count_records(Records(records.dims,
                                        *(np.concatenate([a, a]) for a in records[1:])))
        eta = eta_from_counts(ds, 0, 0)
        eta2 = eta_from_counts(doubled, 0, 0)
        np.testing.assert_allclose(eta2.values, eta.values, atol=1e-15)
        n = ds.n
        factor = 2.0 * (n - 1) / (2 * n - 1)
        est, est2 = reduced_estimate(ds, 0, 0), reduced_estimate(doubled, 0, 0)
        assert est2.point == est.point
        assert est2.sigma_hat ** 2 == pytest.approx(est.sigma_hat ** 2 * factor, rel=1e-12)

    def test_component_bounds_and_psd(self):
        rng = np.random.default_rng(7)
        spec = sample_scm_spec(CategorySpec(3, 2, 3, 2, 2), rng)
        ds = simulate_dataset(spec, 5000, rng)
        eta = eta_from_counts(ds, 0, 0)
        v = eta.values
        assert np.all((v >= 0.0) & (v <= 1.0))
        k_w, k_e = eta.k_w, eta.k_e
        q_t = v[k_w - 1]
        assert np.all(v[:k_w - 1] <= q_t)
        p_xe = v[-k_e:]
        p_yxe = v[-2 * k_e:-k_e]
        assert np.all(p_yxe <= p_xe + 1e-15)
        p_wxe = v[k_w:k_w + (k_w - 1) * k_e].reshape(k_e, k_w - 1)
        assert np.all(p_wxe <= p_xe[:, None] + 1e-15)

    def test_covariance_matches_materialised_records(self):
        # oracle: build the full n x k_eta indicator matrix record by record;
        # the delta-method variance g^T Sigma g is the sample variance of the
        # records' scores
        spec = well_conditioned_spec()
        rec = simulate_records(spec, 300, np.random.default_rng(19))
        ds = count_records(rec)
        x, y = 0, 0
        k_w, k_e = rec.dims.k_w, rec.dims.k_e
        k_eta = k_w + (k_w + 1) * k_e
        rows = np.zeros((ds.n, k_eta))
        for i in range(ds.n):
            if rec.domain[i] == TARGET:
                if rec.w[i] < k_w - 1:
                    rows[i, rec.w[i]] = 1.0
                rows[i, k_w - 1] = 1.0
            elif rec.x[i] == x:
                e = rec.domain[i]
                if rec.w[i] < k_w - 1:
                    rows[i, k_w + e * (k_w - 1) + rec.w[i]] = 1.0
                if rec.y[i] == y:
                    rows[i, k_w + (k_w - 1) * k_e + e] = 1.0
                rows[i, k_w + k_w * k_e + e] = 1.0
        eta = eta_from_counts(ds, x, y)
        np.testing.assert_allclose(eta.values, rows.mean(axis=0), atol=1e-14)
        est = reduced_estimate(ds, x, y)
        assert not est.flags.rank_perturbed
        assert est.sigma_hat ** 2 == pytest.approx(np.var(rows @ grad_h(eta), ddof=1),
                                                   rel=1e-12)

    def test_record_order_invariance_bit_for_bit(self):
        spec = well_conditioned_spec()
        records = simulate_records(spec, 2000, np.random.default_rng(5))
        ds = count_records(records)
        perm = np.random.default_rng(6).permutation(ds.n)
        shuffled = count_records(Records(records.dims, *(a[perm] for a in records[1:])))
        eta_a = eta_from_counts(ds, 0, 0)
        eta_b = eta_from_counts(shuffled, 0, 0)
        assert np.array_equal(eta_a.values, eta_b.values)
        est_a = reduced_estimate(ds, 0, 0)
        est_b = reduced_estimate(shuffled, 0, 0)
        assert est_a.point == est_b.point
        assert est_a.sigma_hat == est_b.sigma_hat


class TestHOfEta:
    def test_population_eta_recovers_truth(self):
        spec = well_conditioned_spec()
        for x in range(2):
            for y in range(2):
                eta = population_eta(spec, x, y)
                assert h_of_eta(eta) == pytest.approx(true_effect(spec, x, y),
                                                      abs=1e-10)

    def test_single_proxy_single_domain_is_a_ratio(self):
        eta = eta_from_counts(ratio_dataset(), 0, 0)
        assert h_of_eta(eta) == pytest.approx((4 / 12) / (6 / 12), abs=1e-14)

    def test_four_record_hand_value(self):
        # proxy column (0.5, 0.5) with one domain: the adjustment collapses
        # to p(y | e, x) = 0.5
        eta = eta_from_counts(four_record_dataset(), 0, 0)
        assert h_of_eta(eta) == pytest.approx(0.5, abs=1e-14)

    def test_empty_cell_errors(self):
        dims = CategorySpec(k_e=2, k_u=2, k_w=2, k_x=2, k_y=2)
        no_target = count_rows([(0, 0, 0, 0), (1, 1, 1, 1)], dims)
        with pytest.raises(EmptyCellError, match="target"):
            h_of_eta(eta_from_counts(no_target, 0, 0))
        missing_x_in_domain_1 = count_rows(
            [(0, 0, 0, 0), (1, 1, 1, 1), (TARGET, 0, None, None)], dims)
        with pytest.raises(EmptyCellError, match="domain 1"):
            h_of_eta(eta_from_counts(missing_x_in_domain_1, 0, 0))


class TestGradH:
    def test_ratio_case_matches_analytic(self):
        eta = eta_from_counts(ratio_dataset(), 0, 0)
        a, b = eta.values[1], eta.values[2]
        grad = grad_h(eta)
        assert grad[0] == pytest.approx(0.0, abs=1e-8)  # locally constant in q(e_T)
        assert grad[1] == pytest.approx(1.0 / b, rel=1e-6)
        assert grad[2] == pytest.approx(-a / b ** 2, rel=1e-6)

    def test_step_halving_agreement(self):
        spec = well_conditioned_spec()
        ds = simulate_dataset(spec, 20_000, np.random.default_rng(11))
        eta = eta_from_counts(ds, 0, 0)
        g_full = grad_h(eta)

        # re-evaluate with a half-size finite-difference step
        base = eta.values.copy()
        g_half = np.empty_like(g_full)
        for i in range(base.size):
            step = 0.5 * max(1e-6, 1e-6 * abs(base[i]))
            hi, lo = base.copy(), base.copy()
            hi[i] += step
            lo[i] -= step
            g_half[i] = (h_of_eta(EtaVector(hi, eta.k_w, eta.k_e))
                         - h_of_eta(EtaVector(lo, eta.k_w, eta.k_e))) / (2 * step)
        denom = max(np.linalg.norm(g_half), 1e-12)
        assert np.linalg.norm(g_full - g_half) / denom < 1e-5


class TestReducedEstimate:
    def test_large_sample_accuracy(self):
        spec = well_conditioned_spec()
        ds = simulate_dataset(spec, 100_000, np.random.default_rng(23))
        est = reduced_estimate(ds, 0, 0)
        assert abs(est.point - true_effect(spec, 0, 0)) < 0.02

    def test_clipping_sets_flags(self):
        dims = CategorySpec(k_e=2, k_u=2, k_w=2, k_x=2, k_y=2)
        spec = sample_scm_spec(dims, np.random.default_rng(12))
        ds = simulate_dataset(spec, 120, np.random.default_rng(1012))
        est = reduced_estimate(ds, 0, 0)
        assert est.point_unclipped > 1.0
        assert est.point == 1.0
        assert est.flags.clipped_point
        assert est.ci_lower <= est.point <= est.ci_upper
        assert 0.0 <= est.ci_lower <= est.ci_upper <= 1.0

    def test_rank_perturbation_repairs_tied_ratios(self):
        dims = CategorySpec(k_e=2, k_u=2, k_w=2, k_x=2, k_y=2)
        recs = [(0, 0, 0, 0)] * 3 + [(0, 1, 0, 0)]
        recs += [(1, 0, 0, 0)] * 6 + [(1, 1, 0, 1)] * 2
        recs += [(0, 0, 1, 0), (1, 1, 1, 1)]
        recs += [(TARGET, 0, None, None)] * 3 + [(TARGET, 1, None, None)] * 2
        ds = count_rows(recs, dims)
        est = reduced_estimate(ds, 0, 0)
        assert est.flags.rank_perturbed
        assert np.isfinite(est.point_unclipped)
        assert np.isinf(est.kappa_hat)
        # the exact gradient of the repaired map is huge but finite, so the
        # interval is clipped to all of [0, 1]
        assert np.isfinite(est.sigma_hat)
        assert est.flags.clipped_ci
        assert (est.ci_lower, est.ci_upper) == (0.0, 1.0)

    def test_missing_treatment_cell_is_an_error(self):
        dims = CategorySpec(k_e=2, k_u=2, k_w=2, k_x=2, k_y=2)
        ds = count_rows(
            [(0, 0, 0, 0), (1, 0, 1, 0), (TARGET, 0, None, None)], dims)
        with pytest.raises(EmptyCellError) as excinfo:
            reduced_estimate(ds, 0, 0)
        assert excinfo.value.cell == "(x, e=1)"

    def test_interval_contains_point_after_clipping(self):
        spec = well_conditioned_spec()
        for seed in range(5):
            ds = simulate_dataset(spec, 1500, np.random.default_rng(seed))
            est = reduced_estimate(ds, 0, 0)
            assert 0.0 <= est.ci_lower <= est.point <= est.ci_upper <= 1.0


class TestNormalQuantile:
    def test_reference_values(self):
        assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-9)
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
        assert normal_quantile(0.995) == pytest.approx(2.5758293035489004, abs=1e-9)

    def test_bit_identical_to_scipy_ndtri(self):
        from scipy.special import ndtri

        rng = np.random.default_rng(20261018)
        grid = np.concatenate([
            np.linspace(0.0, 1.0, 200_001),
            rng.random(200_000),
            10.0 ** rng.uniform(-300.0, np.log10(0.14), 50_000),    # lower tail
            1.0 - 10.0 ** rng.uniform(-16.0, np.log10(0.14), 50_000),  # upper tail
            1.0 - np.array([0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.001]) / 2.0,
            # the branch boundaries at exp(-2), 1 - exp(-2) and exp(-32)
            [np.exp(-2.0), np.nextafter(np.exp(-2.0), 0.0), 1.0 - np.exp(-2.0),
             np.nextafter(1.0 - np.exp(-2.0), 1.0), np.exp(-32.0),
             np.nextafter(np.exp(-32.0), 0.0), 5e-324, np.nextafter(1.0, 0.0)],
        ])
        ours = np.array([normal_quantile(float(p)) for p in grid])
        mismatched = grid[ours != ndtri(grid)]
        assert mismatched.size == 0, mismatched[:5]

    @pytest.mark.parametrize("beta, expected", [
        (0.0, -np.inf), (1.0, np.inf), (-0.1, np.nan), (1.1, np.nan), (np.nan, np.nan)])
    def test_edge_values(self, beta, expected):
        got = normal_quantile(beta)
        assert got == expected or (np.isnan(got) and np.isnan(expected))


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1, float("nan")])
def test_interval_level_outside_unit_interval_is_refused(alpha):
    ds = simulate_dataset(well_conditioned_spec(), 1500, np.random.default_rng(0))
    with pytest.raises(ValidationError, match="alpha"):
        reduced_estimate(ds, 0, 0, alpha=alpha)
    with pytest.raises(ValidationError, match="alpha"):
        bootstrap_ci(ds, 0, 0, 20, alpha=alpha, rng=0)


class TestBootstrap:
    def test_degenerate_resamples_give_zero_width(self):
        # every source record sits in one cell, so each resample yields the
        # same ratio and the bootstrap spread collapses
        dims = CategorySpec(k_e=1, k_u=1, k_w=1, k_x=1, k_y=1)
        recs = [(0, 0, 0, 0)] * 30 + [(TARGET, 0, None, None)] * 10
        ds = count_rows(recs, dims)
        boot = bootstrap_ci(ds, 0, 0, 64, rng=0)
        assert boot.sigma_boot == 0.0
        assert boot.ci_lower == boot.ci_upper == 1.0

    def test_same_seed_reproduces_interval(self):
        spec = well_conditioned_spec()
        ds = simulate_dataset(spec, 4000, np.random.default_rng(2))
        a = bootstrap_ci(ds, 0, 0, 100, rng=42)
        b = bootstrap_ci(ds, 0, 0, 100, rng=42)
        assert a == b

    def test_requires_two_resamples(self):
        ds = simulate_dataset(well_conditioned_spec(), 100, np.random.default_rng(1))
        with pytest.raises(ValidationError):
            bootstrap_ci(ds, 0, 0, 1)

    def test_interval_is_clipped_and_ordered(self):
        spec = well_conditioned_spec()
        ds = simulate_dataset(spec, 800, np.random.default_rng(9))
        boot = bootstrap_ci(ds, 0, 0, 100, rng=7)
        assert 0.0 <= boot.ci_lower <= boot.ci_upper <= 1.0
        assert boot.sigma_boot > 0.0


def complex_step_grad(eta: EtaVector, eps: float = 1e-30) -> np.ndarray:
    """The gradient of ``h = p_y^T A^T (A A^T)^-1 q``, written with
    ``np.linalg.solve``, as ``Im h(eta + i eps e_k) / eps`` for each
    coordinate ``k``: exact to rounding, with no step error."""
    k_w, k_e = eta.k_w, eta.k_e
    kw1, b = k_w - 1, k_w + (k_w - 1) * k_e

    def h(v):
        p_xe = v[b + k_e:]
        q_top = v[:kw1] / v[kw1]
        q = np.append(q_top, 1.0 - q_top.sum())
        top = v[k_w:b].reshape(k_e, kw1) / p_xe[:, None]
        a = np.hstack([top, 1.0 - top.sum(axis=1, keepdims=True)]).T
        return v[b:b + k_e] / p_xe @ a.T @ np.linalg.solve(a @ a.T, q)

    steps = eta.values + 1j * eps * np.eye(eta.k_eta)
    return np.array([h(v).imag / eps for v in steps])


def assert_matches_complex_step(eta: EtaVector):
    want = complex_step_grad(eta)
    np.testing.assert_allclose(grad_h(eta), want, rtol=1e-10,
                               atol=1e-10 * np.abs(want).max())


def reference_categories(cells) -> tuple[np.ndarray, np.ndarray]:
    """The ``(counts, profiles)`` cells of :func:`loop_cell_table` merged by
    identical profile rows, through a dict keyed by the row tuples, in
    lexicographic order of the rows."""
    merged: dict[tuple, int] = {}
    for count, row in zip(*cells):
        merged[tuple(row)] = merged.get(tuple(row), 0) + int(count)
    rows = sorted(merged)
    return np.array([merged[r] for r in rows]), np.array(rows)


def reference_bootstrap(ds, x, y, n_boot, seed, alpha=0.05):
    """The bootstrap one resample at a time: keyed draws over the merged
    categories of :func:`reference_categories`, the cell check and rank
    repair per resample, one map call each."""
    k_w, k_e = ds.n_yxwe.shape[2:]
    category_counts, profiles = reference_categories(loop_cell_table(ds, x, y, k_w, k_e))
    probs = category_counts / ds.n
    base = int(np.random.default_rng(seed).integers(2 ** 62))
    draws = np.array([np.random.default_rng([base, b]).multinomial(ds.n, probs)
                      for b in range(n_boot)])
    estimates, failures, perturbed = [], [], 0
    for values in (draws / ds.n) @ profiles:
        parts = _split_eta(values, k_w, k_e)
        tol = reduced.RANK_REL_TOL
        if (parts.q_t > 0.0 and np.all(parts.p_xe > 0.0)
                and numeric_row_rank(_proxy_matrix(parts)) < k_w):
            values, tol = _perturb_values(values, k_w, k_e), reduced._PERTURBED_RANK_TOL
            perturbed += 1
        try:
            estimates.append(h_of_eta(EtaVector(values, k_w, k_e), tol))
        except ProxyShiftError as exc:
            failures.append(type(exc))
    centre = reduced_estimate(ds, x, y).point_unclipped
    sigma = float(np.std(estimates, ddof=1))
    half = sigma * normal_quantile(1.0 - alpha / 2.0)
    bounds = (min(max(centre - half, 0.0), 1.0), min(max(centre + half, 0.0), 1.0))
    return bounds, sigma, failures, perturbed


def tied_and_sparse_dataset() -> ContingencyCounts:
    """Few records per treated cell: resamples often tie the two domains'
    proxy ratios (rank repair) or lose domain 1's treated records (an empty
    cell)."""
    dims = CategorySpec(k_e=2, k_u=2, k_w=2, k_x=2, k_y=2)
    recs = [(0, 0, 0, 0)] * 3 + [(0, 1, 0, 1), (0, 0, 0, 1)]
    recs += [(1, 0, 0, 0), (1, 1, 0, 1)] + [(1, 0, 1, 0)] * 6 + [(0, 1, 1, 1)] * 4
    recs += [(TARGET, 0, None, None)] * 3 + [(TARGET, 1, None, None)] * 2
    return count_rows(recs, dims)


def loop_cell_table(counts: ContingencyCounts, x: int, y: int, k_w: int, k_e: int):
    """The cell table built cell by cell."""
    k_eta = k_w + (k_w + 1) * k_e
    kw1 = k_w - 1
    rows, cell_counts = [], []
    t = counts.n_yxwe
    for yi in range(t.shape[0]):
        for xi in range(t.shape[1]):
            for wi in range(k_w):
                for ei in range(k_e):
                    if t[yi, xi, wi, ei] == 0:
                        continue
                    profile = np.zeros(k_eta)
                    if xi == x:
                        if wi < kw1:
                            profile[k_w + ei * kw1 + wi] = 1.0
                        if yi == y:
                            profile[k_w + kw1 * k_e + ei] = 1.0
                        profile[k_w + (kw1 + 1) * k_e + ei] = 1.0
                    rows.append(profile)
                    cell_counts.append(t[yi, xi, wi, ei])
    for wi in range(k_w):
        if counts.n_w_target[wi] == 0:
            continue
        profile = np.zeros(k_eta)
        if wi < kw1:
            profile[wi] = 1.0
        profile[kw1] = 1.0
        rows.append(profile)
        cell_counts.append(counts.n_w_target[wi])
    return np.array(cell_counts, dtype=np.int64), np.array(rows)


@st.composite
def eta_batches(draw):
    """A batch of statistic vectors with some empty cells and, optionally, a
    row whose first two domains are tied (a singular proxy matrix)."""
    k_w = draw(st.integers(1, 3))
    k_e = draw(st.integers(1, 4))
    k_eta = k_w + (k_w + 1) * k_e
    n_rows = draw(st.integers(1, 6))
    row = st.lists(st.floats(1e-3, 1.0), min_size=k_eta, max_size=k_eta)
    values = np.array(draw(st.lists(row, min_size=n_rows, max_size=n_rows)))
    for i, j in draw(st.lists(st.tuples(st.integers(0, n_rows - 1),
                                        st.integers(0, k_eta - 1)), max_size=4)):
        values[i, j] = 0.0
    if k_e >= 2 and draw(st.booleans()):
        row = values[draw(st.integers(0, n_rows - 1))]
        kw1 = k_w - 1
        row[k_w + kw1:k_w + 2 * kw1] = row[k_w:k_w + kw1]
        p_xe = k_w + kw1 * k_e + k_e
        row[p_xe + 1] = row[p_xe]
    tols = np.array(draw(st.lists(st.sampled_from([1e-9, 1e-13]),
                                  min_size=n_rows, max_size=n_rows)))
    return values, k_w, k_e, tols


@st.composite
def rank_deficient_batches(draw):
    """A batch from :func:`eta_batches` (``k_w >= 2``) behind a first row
    without empty cells whose domains' proxy and treatment cells are
    power-of-two multiples of domain 0's: its proxy matrix has identical
    columns, so rank 1.  The rank repair breaks the tie when the multiples
    differ and leaves it singular when they are all equal."""
    values, k_w, k_e, tols = draw(eta_batches())
    assume(k_w >= 2)
    kw1 = k_w - 1
    row = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=values.shape[1],
                                 max_size=values.shape[1])))
    scales = np.array(draw(st.lists(st.sampled_from([1.0, 0.5, 0.25, 2.0]),
                                    min_size=k_e, max_size=k_e)))
    proxy = row[k_w:k_w + kw1 * k_e].reshape(k_e, kw1)
    row[k_w:k_w + kw1 * k_e] = (proxy[0] * scales[:, None]).ravel()
    p_xe = k_w + kw1 * k_e + k_e
    row[p_xe:] = row[p_xe] * scales
    return np.vstack([row, values]), k_w, k_e, np.append(draw(st.sampled_from([1e-9, 1e-6])), tols)


class TestStackedMap:
    @pytest.mark.parametrize("dims", [(2, 2, 2, 2, 2), (3, 3, 3, 2, 2),
                                      (12, 6, 6, 2, 2), (30, 10, 10, 2, 2),
                                      (3, 2, 1, 2, 2)])
    def test_grad_matches_complex_step(self, dims):
        spec = sample_scm_spec(CategorySpec(*dims), np.random.default_rng(sum(dims)))
        ds = simulate_dataset(spec, 20_000, np.random.default_rng(1))
        assert_matches_complex_step(eta_from_counts(ds, 0, 0))

    def test_single_proxy_category(self):
        # k_w = 1: no proxy-treatment cells, the proxy matrix is a row of ones
        spec = sample_scm_spec(CategorySpec(3, 2, 1, 2, 2), np.random.default_rng(4))
        ds = simulate_dataset(spec, 3000, np.random.default_rng(5))
        eta = eta_from_counts(ds, 0, 0)
        assert_matches_complex_step(eta)
        batch = np.stack([eta.values, eta.values * 0.5])
        ev = _evaluate(batch, 1, 3)
        assert not ev.errors
        assert ev.h[0] == h_of_eta(eta) == h_of_eta(EtaVector(batch[1], 1, 3))
        boot = bootstrap_ci(ds, 0, 0, 50, rng=1)
        assert boot.failed == 0 and boot.perturbed == 0
        assert boot.ci_lower <= boot.ci_upper

    @pytest.mark.parametrize("case", ["simulated", "tied_and_sparse"])
    def test_bootstrap_matches_reference_loop(self, case):
        if case == "simulated":
            ds = simulate_dataset(well_conditioned_spec(), 3000, np.random.default_rng(8))
        else:
            ds = tied_and_sparse_dataset()
        got = bootstrap_ci(ds, 0, 0, 64, rng=5, failure_budget=1.0)
        bounds, sigma, failures, perturbed = reference_bootstrap(ds, 0, 0, 64, 5)
        assert got.failed == len(failures)
        assert got.perturbed == perturbed
        assert got.sigma_boot == pytest.approx(sigma, rel=1e-12, abs=1e-12)
        assert got.ci_lower == pytest.approx(bounds[0], abs=1e-12)
        assert got.ci_upper == pytest.approx(bounds[1], abs=1e-12)
        if case == "tied_and_sparse":
            assert EmptyCellError in failures
            assert perturbed > 0
        else:
            assert got.failed == 0 and 0.0 < got.ci_lower < got.ci_upper < 1.0

    @settings(max_examples=200, deadline=None)
    @given(eta_batches())
    def test_batch_equals_rows_one_by_one(self, batch):
        values, k_w, k_e, tols = batch
        ev = _evaluate(values, k_w, k_e, tols)
        h, errors = ev.h, ev.errors
        assert not ev.perturbed.any() and np.array_equal(ev.values, values)
        for i, row in enumerate(values):
            try:
                want = h_of_eta(EtaVector(row, k_w, k_e), tols[i])
            except ProxyShiftError as exc:
                assert type(errors[i]) is type(exc)
                assert str(errors[i]) == str(exc)
                assert np.isnan(h[i])
            else:
                assert i not in errors
                assert h[i] == want

    @settings(max_examples=200, deadline=None)
    @given(rank_deficient_batches())
    def test_repaired_batch_equals_rows_one_by_one(self, batch):
        # one SVD gives the rank test and the pseudo-inverses; the reference
        # takes numeric_row_rank, then perturbs and maps each row on its own
        values, k_w, k_e, tols = batch
        ev = _evaluate(values, k_w, k_e, tols, repair=True)
        assert ev.perturbed[0]
        for i, row in enumerate(values):
            parts, tol = _split_eta(row, k_w, k_e), tols[i]
            repair = bool(parts.q_t > 0.0 and np.all(parts.p_xe > 0.0)
                          and numeric_row_rank(_proxy_matrix(parts), tol) < k_w)
            if repair:
                row, tol = _perturb_values(row, k_w, k_e), reduced._PERTURBED_RANK_TOL
            assert ev.perturbed[i] == repair
            assert ev.tol[i] == tol
            assert np.array_equal(ev.values[i], row)
            try:
                want = h_of_eta(EtaVector(row, k_w, k_e), tol)
            except ProxyShiftError as exc:
                assert type(ev.errors[i]) is type(exc)
                assert str(ev.errors[i]) == str(exc)
                assert np.isnan(ev.h[i])
            else:
                assert i not in ev.errors
                assert ev.h[i] == want


def random_counts(rng, k_y, k_x, k_w, k_e, high=4) -> ContingencyCounts:
    """A count table with many empty and many repeated cells."""
    return ContingencyCounts(rng.integers(0, high, size=(k_y, k_x, k_w, k_e)),
                             rng.integers(0, high, size=k_w))


class TestMergedCategories:
    """The cell table is the sample's profile categories: the cells merged
    by identical profile rows, enumerated from the counts."""

    @staticmethod
    def check_categories(counts: ContingencyCounts, x: int, y: int):
        """``_cell_table`` equals the cell loop merged by the reference,
        bit for bit, and its statistic vector is the cells' mean profile."""
        k_w, k_e = counts.n_yxwe.shape[2:]
        table = _cell_table(counts, x, y, k_w, k_e)
        cells = loop_cell_table(counts, x, y, k_w, k_e)
        want_counts, want_profiles = reference_categories(cells)
        assert table.counts.dtype == want_counts.dtype
        assert np.array_equal(table.counts, want_counts)
        assert np.array_equal(table.profiles, want_profiles)
        assert table.n == counts.n == table.counts.sum()
        np.testing.assert_allclose(table.eta.values, cells[1].T @ (cells[0] / counts.n),
                                   rtol=1e-14, atol=1e-16)
        return table

    @pytest.mark.parametrize("dims", [(2, 2, 2, 2), (3, 2, 1, 3), (2, 3, 4, 2), (3, 3, 3, 5)])
    def test_merge_is_exact(self, dims):
        rng = np.random.default_rng(sum(dims))
        k_y, k_x, k_w, k_e = dims
        tables = [random_counts(rng, *dims) for _ in range(10)]
        t, v = tables[0].n_yxwe, tables[0].n_w_target
        untreated = t.copy()
        untreated[:, 0] = 0
        tables += [ContingencyCounts(t, np.zeros(k_w)),        # no target records
                   ContingencyCounts(untreated, v),            # no treated records
                   ContingencyCounts(untreated, np.zeros(k_w))]  # all records untreated
        for counts in tables:
            if counts.n == 0:
                continue
            for x in range(k_x):
                for y in range(k_y):
                    self.check_categories(counts, x, y)

    def test_empty_counts_are_refused(self):
        empty = ContingencyCounts(np.zeros((2, 2, 3, 2), dtype=np.int64), np.zeros(3))
        with pytest.raises(EmptyCellError, match="dataset is empty"):
            _cell_table(empty, 0, 0, 3, 2)

    def test_coverage_wide_dims(self):
        spec = sample_scm_spec(CategorySpec(30, 2, 10, 2, 2), np.random.default_rng(3))
        ds = simulate_dataset(spec, 20_000, np.random.default_rng(4))
        table = self.check_categories(ds, 0, 0)
        assert len(table.counts) <= 2 * 10 * 30 + 10 + 1
        n_cells = np.count_nonzero(ds.n_yxwe) + np.count_nonzero(ds.n_w_target)
        assert len(table.counts) < n_cells / 1.5
        assert not table.profiles[0].any()   # the untreated records, first in order


class TestBootstrapFailures:
    def test_fewer_than_two_estimates_is_an_error(self):
        # one treated record per domain and one target record: most
        # resamples lose one of them, so with failure_budget=1.0 some seeds
        # leave fewer than two estimates for the spread
        dims = CategorySpec(k_e=2, k_u=2, k_w=2, k_x=2, k_y=2)
        recs = [(0, 0, 0, 0), (1, 1, 0, 1)] + [(0, 0, 1, 0)] * 3 + [(1, 1, 1, 1)] * 3
        ds = count_rows(recs + [(TARGET, 0, None, None)], dims)
        outcomes = set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in range(20):
                try:
                    boot = bootstrap_ci(ds, 0, 0, 4, rng=seed, failure_budget=1.0)
                except BootstrapError as exc:
                    assert "at least two" in str(exc)
                    outcomes.add("refused")
                else:
                    assert boot.failed <= 2 and np.isfinite(boot.sigma_boot)
                    outcomes.add("interval")
        assert outcomes == {"refused", "interval"}

    def test_programming_errors_propagate(self, monkeypatch):
        real = reduced.stacked_svd

        def broken_for_resamples(matrices):
            if len(matrices) > 1:
                raise TypeError("injected")
            return real(matrices)

        monkeypatch.setattr(reduced, "stacked_svd", broken_for_resamples)
        ds = simulate_dataset(well_conditioned_spec(), 800, np.random.default_rng(9))
        with pytest.raises(TypeError, match="injected"):
            bootstrap_ci(ds, 0, 0, 20, rng=7, failure_budget=1.0)

    def test_counts_default_to_zero(self):
        boot = reduced.BootstrapCI(0.1, 0.2, 0.05)
        assert boot.failed == 0 and boot.perturbed == 0


def outcome(fn, *args, **kwargs) -> str:
    """The repr of a call's result, or its error type and text: equal
    strings mean bit-for-bit equal results."""
    try:
        return repr(fn(*args, **kwargs))
    except ProxyShiftError as exc:
        return f"{type(exc).__name__}: {exc}"


def shard(records: Records, stop: int, start: int = 0) -> ContingencyCounts:
    """The counts of records ``start:stop``."""
    return count_records(Records(records.dims, *(a[start:stop] for a in records[1:])))


def well_conditioned_draw(dims: CategorySpec, seed: int, max_kappa: float = 8.0):
    """The first model drawn from ``seed`` whose population proxy matrix has a
    condition number below ``max_kappa``."""
    rng = np.random.default_rng(seed)
    while True:
        spec = sample_scm_spec(dims, rng)
        if condition_number(population_views(spec, 0, 0).p_w_ex) < max_kappa:
            return spec


class TestCountsCurrency:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31), st.sampled_from([(2, 2, 2, 2, 2), (3, 2, 2, 2, 3),
                                                      (3, 3, 3, 3, 2)]),
           st.integers(20, 3000), st.floats(0.0, 1.0))
    def test_counts_add_across_shards(self, seed, dims, n, cut):
        spec = sample_scm_spec(CategorySpec(*dims), np.random.default_rng(seed))
        records = simulate_records(spec, n, np.random.default_rng(seed + 1))
        ds = count_records(records)
        stop = int(cut * n)
        a, b = shard(records, stop), shard(records, n, stop)
        merged = ContingencyCounts(a.n_yxwe + b.n_yxwe, a.n_w_target + b.n_w_target)
        calls = [(reduced_estimate, (), {}), (bootstrap_ci, (40,), {"rng": seed})]
        calls += [(fn, (), {"scope": "pooled"}) for fn in (no_adjustment, w_adjustment)]
        for fn, args, kw in calls:
            assert outcome(fn, merged, 0, 0, *args, **kw) == outcome(fn, ds, 0, 0, *args, **kw)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31), st.sampled_from([(2, 2, 2, 2, 2), (3, 2, 2, 2, 2),
                                                      (4, 3, 3, 2, 2)]),
           st.sampled_from(["domains", "proxies"]), st.randoms(use_true_random=False))
    def test_relabelling_leaves_the_estimate_unchanged(self, seed, dims, axis, random):
        dims = CategorySpec(*dims)
        spec = well_conditioned_draw(dims, seed)
        rec = simulate_records(spec, 20_000, np.random.default_rng(seed + 1))
        ds = count_records(rec)
        src = rec.domain != TARGET
        if axis == "domains":
            perm = np.array(random.sample(range(dims.k_e), dims.k_e))
            domain, w = np.where(src, perm[np.maximum(rec.domain, 0)], TARGET), rec.w
        else:
            perm = np.array(random.sample(range(dims.k_w), dims.k_w))
            domain, w = rec.domain, perm[rec.w]
        relabelled = count_records(Records(dims, domain, w, rec.x, rec.y))
        est, est_r = reduced_estimate(ds, 0, 0), reduced_estimate(relabelled, 0, 0)
        assert not est.flags.rank_perturbed and not est_r.flags.rank_perturbed
        assert est_r.point == pytest.approx(est.point, rel=1e-9, abs=1e-15)
        assert est_r.sigma_hat == pytest.approx(est.sigma_hat, rel=1e-9)
