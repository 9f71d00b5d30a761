"""Model sampling, forward simulation, and exact population quantities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import proxyshift.scm as scm
from proxyshift.baselines import no_adjustment, w_adjustment
from proxyshift.categorical import CategorySpec
from proxyshift.errors import ValidationError
from proxyshift.scm import (MISSING, TARGET, ContingencyCounts, Dataset, ScmSpec,
                            interventional_counts, population_views,
                            sample_scm_spec, simulate_counts, simulate_dataset,
                            target_conditional, true_effect)

from conftest import Mechanism, nonidentified_spec, source_cells


def point_mass_spec() -> ScmSpec:
    """Degenerate model: every conditional is a point mass, so sampling is
    forced to (u=0, w=1, x=0, y=1)."""
    dims = CategorySpec(k_e=2, k_u=2, k_w=2, k_x=2, k_y=2)
    one_hot = np.array([[1.0, 1.0], [0.0, 0.0]])
    tensor = np.zeros((2, 2, 2, 2))
    tensor[1] = 1.0  # y = 1 always
    return ScmSpec(
        dims,
        p_u_given_e=one_hot,
        q_u=np.array([1.0, 0.0]),
        p_w_given_u=np.array([[0.0, 0.0], [1.0, 1.0]]),  # w = 1 always
        p_x_given_u=one_hot,                             # x = 0 always
        p_y_given_uwx=tensor,
        domain_prior=np.array([0.4, 0.4, 0.2]),
        strict_support=False,
    )


def reference_draw_categorical(rng, prob_cols, col_index):
    """Inverse-cdf draw through the ``(n, k)`` gather of each record's cdf
    column: the reference for ``scm._draw_categorical``."""
    cdf = np.cumsum(prob_cols, axis=0)
    cdf[-1, :] = 1.0
    rows = cdf.T[col_index]
    r = rng.random(col_index.size)
    return np.sum(rows < r[:, None], axis=1).astype(np.int64)


class TestDrawCategorical:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 31), st.integers(1, 6), st.integers(0, 2000),
           st.booleans(), st.integers(0, 2 ** 32 - 1))
    def test_matches_the_gather_reference_bit_for_bit(self, k, n_cols, n, zeros, seed):
        rng = np.random.default_rng(seed)
        prob_cols = rng.dirichlet(np.ones(k), size=n_cols).T
        if zeros:
            # zero-probability categories, as strict_support=False admits;
            # every column keeps at least one category with mass
            keep = rng.random((k, n_cols)) < 0.5
            keep[rng.integers(0, k, size=n_cols), np.arange(n_cols)] = True
            prob_cols = np.where(keep, prob_cols, 0.0)
            prob_cols /= prob_cols.sum(axis=0)
        col_index = rng.integers(0, n_cols, size=n)
        expected = reference_draw_categorical(np.random.default_rng(seed), prob_cols, col_index)
        drawn = scm._draw_categorical(np.random.default_rng(seed), prob_cols, col_index)
        assert drawn.dtype == expected.dtype
        assert np.array_equal(drawn, expected)

    def test_simulation_with_the_reference_sampler_is_unchanged(self, monkeypatch):
        spec = sample_scm_spec(CategorySpec(3, 3, 3, 2, 2), np.random.default_rng(23))
        ours = simulate_dataset(spec, 5000, np.random.default_rng(24))
        degenerate = simulate_dataset(point_mass_spec(), 500, np.random.default_rng(25))
        monkeypatch.setattr(scm, "_draw_categorical", reference_draw_categorical)
        ref = simulate_dataset(spec, 5000, np.random.default_rng(24))
        ref_degenerate = simulate_dataset(point_mass_spec(), 500, np.random.default_rng(25))
        for a, b in ((ours, ref), (degenerate, ref_degenerate)):
            for name in ("domain", "w", "x", "y"):
                assert np.array_equal(getattr(a, name), getattr(b, name))


class TestSampleScmSpec:
    def test_all_singleton_axes(self):
        dims = CategorySpec(k_e=1, k_u=1, k_w=1, k_x=1, k_y=1)
        spec = sample_scm_spec(dims, np.random.default_rng(0))
        assert spec.p_u_given_e.shape == (1, 1)
        assert spec.p_u_given_e[0, 0] == pytest.approx(1.0)
        assert spec.q_u[0] == pytest.approx(1.0)
        assert spec.p_y_given_uwx[0, 0, 0, 0] == pytest.approx(1.0)

    def test_columns_are_pmfs(self):
        dims = CategorySpec(k_e=3, k_u=2, k_w=4, k_x=2, k_y=3)
        spec = sample_scm_spec(dims, np.random.default_rng(11))
        assert np.all(spec.p_u_given_e > 0)
        np.testing.assert_allclose(spec.p_u_given_e.sum(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(
            spec.p_y_given_uwx.sum(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(spec.domain_prior, 0.25)

    def test_same_seed_reproduces_bit_for_bit(self):
        dims = CategorySpec(k_e=2, k_u=2, k_w=3, k_x=2, k_y=2)
        a = sample_scm_spec(dims, np.random.default_rng(42))
        b = sample_scm_spec(dims, np.random.default_rng(42))
        for name in ("p_u_given_e", "q_u", "p_w_given_u", "p_x_given_u",
                     "p_y_given_uwx", "domain_prior"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


class TestSimulateDataset:
    def test_empty(self):
        spec = sample_scm_spec(CategorySpec(2, 2, 2, 2, 2), np.random.default_rng(0))
        ds = simulate_dataset(spec, 0, np.random.default_rng(0))
        assert ds.n == 0

    def test_point_masses_force_all_records(self):
        ds = simulate_dataset(point_mass_spec(), 200, np.random.default_rng(5))
        src = ds.domain != TARGET
        assert np.all(ds.w == 1)
        assert np.all(ds.x[src] == 0)
        assert np.all(ds.y[src] == 1)
        assert np.all(ds.x[~src] == MISSING)
        assert np.all(ds.y[~src] == MISSING)

    def test_reproducible_bit_for_bit(self):
        spec = sample_scm_spec(CategorySpec(2, 2, 2, 2, 2), np.random.default_rng(1))
        a = simulate_dataset(spec, 1000, np.random.default_rng(9))
        b = simulate_dataset(spec, 1000, np.random.default_rng(9))
        for name in ("domain", "w", "x", "y"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_cell_frequencies_match_population(self):
        spec = sample_scm_spec(CategorySpec(2, 2, 2, 2, 2), np.random.default_rng(3))
        n = 100_000
        counts = simulate_dataset(spec, n, np.random.default_rng(17))
        cells = source_cells(spec)
        d = spec.dims
        for yv in range(d.k_y):
            for xv in range(d.k_x):
                for wv in range(d.k_w):
                    for ev in range(d.k_e):
                        p = cells[yv, xv, wv, ev] * spec.domain_prior[ev]
                        se = np.sqrt(p * (1 - p) / n)
                        freq = counts.n_yxwe[yv, xv, wv, ev] / n
                        assert abs(freq - p) < 4 * se

    def test_benchmark_mode_keeps_hidden_columns(self):
        # the hidden target cells come from benchmark-mode counts; a record
        # dataset never carries them
        spec = sample_scm_spec(CategorySpec(2, 2, 2, 2, 2), np.random.default_rng(4))
        counts = simulate_counts(spec, 500, np.random.default_rng(6), benchmark_mode=True)
        hidden = counts.n_yxw_target
        assert hidden.shape == (2, 2, 2)
        assert hidden.sum() == counts.n_tgt
        assert np.array_equal(hidden.sum(axis=(0, 1)), counts.n_w_target)
        plain = simulate_dataset(spec, 500, np.random.default_rng(6))
        assert plain.n_yxw_target is None
        for fn in (no_adjustment, w_adjustment):
            with pytest.raises(ValidationError):
                fn(plain, 0, 0, scope="target")


def full_table(counts: ContingencyCounts) -> np.ndarray:
    """The ``(k_y, k_x, k_w, k_e + 1)`` counts of benchmark-mode counts, the
    hidden target cells last, as :func:`scm._cell_law` orders them."""
    return np.concatenate([counts.n_yxwe, counts.n_yxw_target[..., None]], axis=3)


def observed_table(full: np.ndarray) -> np.ndarray:
    """A full table's source cells and its target column summed over the
    hidden ``(y, x)``, flattened: what a record dataset's counts carry."""
    return np.concatenate([full[..., :-1].ravel(), full[..., -1].sum(axis=(0, 1))])


class TestSimulateCounts:
    SPECS = [(CategorySpec(2, 2, 2, 2, 2), 3), (CategorySpec(3, 2, 3, 2, 2), 14),
             (CategorySpec(4, 3, 2, 3, 3), 15), (CategorySpec(1, 1, 1, 1, 1), 16)]

    @pytest.mark.parametrize("dims, seed", SPECS)
    def test_cell_law_is_the_record_law(self, dims, seed):
        # source cells p(y, x, w | e) times the domain prior, and the target
        # column the same mixture under q_u
        spec = sample_scm_spec(dims, np.random.default_rng(seed))
        target = Mechanism(spec.q_u[:, None], spec.q_u, spec.p_w_given_u,
                           spec.p_x_given_u, spec.p_y_given_uwx)
        expected = np.concatenate([source_cells(spec) * spec.domain_prior[:-1],
                                   source_cells(target) * spec.domain_prior[-1]], axis=3)
        law = scm._cell_law(spec)
        assert law.shape == expected.shape
        np.testing.assert_allclose(law, expected, rtol=0, atol=1e-14)
        assert law.sum() == pytest.approx(1.0, abs=1e-14)

    def test_mean_counts_agree_with_the_record_sampler(self):
        # R datasets of n records from each sampler: every observed cell's
        # mean count differs by less than 5 standard errors of the difference
        spec = sample_scm_spec(CategorySpec(2, 2, 2, 2, 3), np.random.default_rng(7))
        reps, n = 400, 1000
        rng_counts, rng_records = np.random.default_rng(70), np.random.default_rng(71)
        full = np.array([full_table(simulate_counts(spec, n, rng_counts, True))
                         for _ in range(reps)])
        drawn = np.array([observed_table(t) for t in full])
        recorded = np.array([np.concatenate([ds.n_yxwe.ravel(), ds.n_w_target]) for ds in
                             (simulate_dataset(spec, n, rng_records) for _ in range(reps))])
        se = np.sqrt((drawn.var(axis=0, ddof=1) + recorded.var(axis=0, ddof=1)) / reps)
        diff = np.abs(drawn.mean(axis=0) - recorded.mean(axis=0))
        assert np.all(diff <= 5 * se)
        # both agree with the exact expectation, and so do the hidden target
        # cells, each a binomial(n, p) count
        law = scm._cell_law(spec)
        for table in (drawn, recorded):
            assert np.all(np.abs(table.mean(axis=0) - observed_table(n * law)) <= 5 * se)
        se_full = np.sqrt(n * law * (1 - law) / reps)
        assert np.all(np.abs(full.mean(axis=0) - n * law) <= 5 * se_full)

    def test_benchmark_mode_only_keeps_the_hidden_table(self):
        spec = sample_scm_spec(CategorySpec(3, 2, 3, 2, 2), np.random.default_rng(4))
        plain = simulate_counts(spec, 5000, np.random.default_rng(6))
        kept = simulate_counts(spec, 5000, np.random.default_rng(6), benchmark_mode=True)
        assert np.array_equal(plain.n_yxwe, kept.n_yxwe)
        assert np.array_equal(plain.n_w_target, kept.n_w_target)
        assert plain.n_yxw_target is None
        assert np.array_equal(kept.n_yxw_target.sum(axis=(0, 1)), kept.n_w_target)
        assert kept.n == plain.n == 5000
        for fn in (no_adjustment, w_adjustment):
            with pytest.raises(ValidationError):
                fn(plain, 0, 0, scope="target")

    def test_empty_and_negative_sizes(self):
        spec = sample_scm_spec(CategorySpec(2, 2, 2, 2, 2), np.random.default_rng(0))
        counts = simulate_counts(spec, 0, np.random.default_rng(0), benchmark_mode=True)
        assert counts.n == 0 and counts.n_yxw_target.sum() == 0
        assert counts.n_yxwe.shape == (2, 2, 2, 2)
        with pytest.raises(ValidationError):
            simulate_counts(spec, -1, np.random.default_rng(0))

    def test_point_masses_force_every_count(self):
        counts = simulate_counts(point_mass_spec(), 200, np.random.default_rng(5),
                                 benchmark_mode=True)
        src = counts.n_yxwe[1, 0, 1]
        assert src.sum() == counts.n_src and counts.n_src > 0
        assert counts.n_w_target.tolist() == [0, counts.n_tgt]
        assert counts.n_yxw_target[1, 0, 1] == counts.n_tgt > 0
        assert counts.n == 200

    def test_reproducible_bit_for_bit(self):
        spec = sample_scm_spec(CategorySpec(2, 2, 2, 2, 2), np.random.default_rng(1))
        a = simulate_counts(spec, 1000, np.random.default_rng(9), benchmark_mode=True)
        b = simulate_counts(spec, 1000, np.random.default_rng(9), benchmark_mode=True)
        assert np.array_equal(full_table(a), full_table(b))


class TestDatasetInvariants:
    def test_target_rows_must_not_carry_xy(self):
        dims = CategorySpec(1, 1, 2, 2, 2)
        with pytest.raises(ValidationError, match="^target records must not carry x$"):
            Dataset(dims, np.array([TARGET]), np.array([0]),
                    np.array([1]), np.array([MISSING]))
        with pytest.raises(ValidationError, match="^target records must not carry y$"):
            Dataset(dims, np.array([0, TARGET]), np.array([0, 1]),
                    np.array([1, MISSING]), np.array([0, 1]))

    def test_source_rows_must_carry_xy(self):
        dims = CategorySpec(1, 1, 2, 2, 2)
        with pytest.raises(ValidationError,
                           match="^x missing or out of range on a source record$"):
            Dataset(dims, np.array([0]), np.array([0]),
                    np.array([MISSING]), np.array([0]))
        with pytest.raises(ValidationError,
                           match="^y missing or out of range on a source record$"):
            Dataset(dims, np.array([TARGET, 0]), np.array([1, 0]),
                    np.array([MISSING, 1]), np.array([MISSING, MISSING]))

    def test_out_of_range_index(self):
        dims = CategorySpec(1, 1, 2, 2, 2)
        with pytest.raises(ValidationError, match="^w index out of range$"):
            Dataset(dims, np.array([0]), np.array([5]),
                    np.array([0]), np.array([0]))
        for domain in (1, -2):
            with pytest.raises(ValidationError, match="^source domain index out of range$"):
                Dataset(dims, np.array([0, domain]), np.array([0, 0]),
                        np.array([0, 0]), np.array([0, 0]))
        for y in (2, -3):
            with pytest.raises(ValidationError,
                               match="^y missing or out of range on a source record$"):
                Dataset(dims, np.array([0, 0]), np.array([0, 1]),
                        np.array([0, 1]), np.array([1, y]))
        with pytest.raises(ValidationError, match="^target records must not carry x$"):
            Dataset(dims, np.array([TARGET]), np.array([0]),
                    np.array([-7]), np.array([MISSING]))

    def test_counts_invariants(self):
        spec = sample_scm_spec(CategorySpec(2, 2, 2, 2, 2), np.random.default_rng(8))
        ds = simulate_dataset(spec, 2000, np.random.default_rng(8))
        counts = ContingencyCounts(ds.n_yxwe, ds.n_w_target)
        assert counts.n_yxwe.sum() == counts.n_src == np.count_nonzero(ds.domain != TARGET)
        assert counts.n_w_target.sum() == counts.n_tgt == np.count_nonzero(ds.domain == TARGET)
        assert counts.n == ds.n == ds.domain.size

    def test_counts_reject_inconsistent_tensors(self):
        t = np.ones((2, 2, 3, 2), dtype=np.int64)
        with pytest.raises(ValidationError):
            ContingencyCounts(t, np.ones(2))
        hidden = np.ones((2, 2, 3), dtype=np.int64)
        assert ContingencyCounts(t, np.full(3, 4), hidden).n_tgt == 12
        with pytest.raises(ValidationError):
            ContingencyCounts(t, np.full(3, 5), hidden)


class TestTrueEffect:
    def test_nonidentified_fixture_values_exact(self):
        assert true_effect(nonidentified_spec(1), 0, 0) == pytest.approx(0.39, abs=1e-12)
        assert true_effect(nonidentified_spec(2), 0, 0) == pytest.approx(0.367, abs=1e-12)

    def test_effect_gap_is_fixed(self):
        gap = true_effect(nonidentified_spec(1), 0, 0) - true_effect(
            nonidentified_spec(2), 0, 0)
        assert gap == pytest.approx(0.023, abs=1e-12)

    def test_single_confounder_level_equals_target_conditional(self):
        dims = CategorySpec(k_e=2, k_u=1, k_w=3, k_x=2, k_y=2)
        spec = sample_scm_spec(dims, np.random.default_rng(12))
        for x in range(2):
            for y in range(2):
                assert true_effect(spec, x, y) == pytest.approx(
                    target_conditional(spec, x, y), abs=1e-14)


class TestPopulationViews:
    def test_shared_target_proxy_marginal(self):
        expected = np.array([0.248, 0.496, 0.256])
        for variant in (1, 2):
            views = population_views(nonidentified_spec(variant), 0, 0)
            np.testing.assert_allclose(views.q_w, expected, atol=1e-12)

    def test_nonidentified_variants_share_observables(self):
        v1 = population_views(nonidentified_spec(1), 0, 0)
        v2 = population_views(nonidentified_spec(2), 0, 0)
        np.testing.assert_allclose(v1.p_y_ex, v2.p_y_ex, atol=1e-12)
        np.testing.assert_allclose(v1.p_w_ex, v2.p_w_ex, atol=1e-12)
        np.testing.assert_allclose(v1.q_w, v2.q_w, atol=1e-12)

    def test_uniform_treatment_leaves_confounder_law(self):
        # When x is independent of u, conditioning on x changes nothing:
        # p(w | e, x) reduces to p(w | e).
        dims = CategorySpec(k_e=2, k_u=2, k_w=2, k_x=2, k_y=2)
        rng = np.random.default_rng(13)
        spec = sample_scm_spec(dims, rng)
        uniform_x = np.full((2, 2), 0.5)
        spec = ScmSpec(dims, spec.p_u_given_e, spec.q_u, spec.p_w_given_u,
                       uniform_x, spec.p_y_given_uwx, spec.domain_prior)
        views = population_views(spec, 0, 0)
        expected = spec.p_w_given_u @ spec.p_u_given_e
        np.testing.assert_allclose(views.p_w_ex, expected, atol=1e-14)

    def test_cells_sum_to_one_per_domain(self):
        spec = sample_scm_spec(CategorySpec(3, 2, 3, 2, 2), np.random.default_rng(14))
        views = population_views(spec, 0, 0)
        np.testing.assert_allclose(source_cells(spec).sum(axis=(0, 1, 2)), 1.0,
                                   atol=1e-12)
        np.testing.assert_allclose(views.p_w_ex.sum(axis=0), 1.0, atol=1e-12)
        assert views.q_w.sum() == pytest.approx(1.0, abs=1e-12)


class TestInterventionalSample:
    """A sample from the target intervention law, drawn as its outcome counts."""

    def test_point_mass(self):
        counts = interventional_counts(point_mass_spec(), 0, 50, np.random.default_rng(2))
        assert counts.tolist() == [0, 50]

    def test_empty(self):
        spec = sample_scm_spec(CategorySpec(2, 2, 2, 2, 3), np.random.default_rng(0))
        counts = interventional_counts(spec, 0, 0, np.random.default_rng(0))
        assert counts.tolist() == [0, 0, 0]

    def test_frequency_matches_known_effect(self):
        counts = interventional_counts(nonidentified_spec(1), 0, 200_000,
                                       np.random.default_rng(21))
        assert counts.sum() == 200_000
        assert abs(counts[0] / 200_000 - 0.39) < 0.005
