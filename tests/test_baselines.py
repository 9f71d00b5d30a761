"""Reference estimators: counting rules and qualitative behaviour."""

import numpy as np
import pytest

from proxyshift.baselines import (no_adjustment, oracle_estimate, w_adjustment,
                                  wald_interval)
from proxyshift.categorical import CategorySpec
from proxyshift.errors import ValidationError, ZeroDenominatorError
from proxyshift.reduced import reduced_estimate
from proxyshift.scm import (TARGET, Dataset, interventional_counts,
                            sample_scm_spec, simulate_counts, simulate_dataset,
                            target_conditional, true_effect)

from conftest import nonidentified_spec


class TestOracle:
    def test_counting(self):
        assert oracle_estimate([3, 1], 0) == pytest.approx(0.75)

    def test_all_hits(self):
        assert oracle_estimate([0, 3], 1) == 1.0

    def test_empty_raises(self):
        for counts in ([], [0, 0]):
            with pytest.raises(ValidationError):
                oracle_estimate(counts, 0)

    def test_negative_counts_raise(self):
        with pytest.raises(ValidationError):
            oracle_estimate([2, -1], 0)

    def test_matches_known_effect(self):
        counts = interventional_counts(nonidentified_spec(1), 0, 200_000,
                                       np.random.default_rng(40))
        assert abs(oracle_estimate(counts, 0) - 0.39) < 0.005


def tiny_dims():
    return CategorySpec(k_e=1, k_u=1, k_w=2, k_x=2, k_y=2)


class TestNoAdjustment:
    def test_counting(self):
        ds = Dataset.from_records(
            [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0)], tiny_dims())
        assert no_adjustment(ds, 0, 0) == pytest.approx(2 / 3)

    def test_single_record(self):
        ds = Dataset.from_records([(0, 0, 0, 0)], tiny_dims())
        assert no_adjustment(ds, 0, 0) == 1.0

    def test_zero_denominator(self):
        ds = Dataset.from_records([(0, 0, 1, 0)], tiny_dims())
        with pytest.raises(ZeroDenominatorError):
            no_adjustment(ds, 0, 0)

    def test_target_scope_requires_benchmark_columns(self):
        ds = Dataset.from_records([(TARGET, 0, None, None)], tiny_dims())
        with pytest.raises(ValidationError):
            no_adjustment(ds, 0, 0, scope="target")

    def test_target_scope_estimates_target_conditional(self):
        spec = sample_scm_spec(CategorySpec(2, 2, 2, 2, 2),
                               np.random.default_rng(41))
        counts = simulate_counts(spec, 100_000, np.random.default_rng(42),
                                 benchmark_mode=True)
        est = no_adjustment(counts, 0, 0, scope="target")
        assert abs(est - target_conditional(spec, 0, 0)) < 0.02


class TestWAdjustment:
    def test_single_proxy_level_equals_no_adjustment(self):
        dims = CategorySpec(k_e=1, k_u=1, k_w=1, k_x=2, k_y=2)
        ds = Dataset.from_records(
            [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 0, 0)], dims)
        assert w_adjustment(ds, 0, 0) == no_adjustment(ds, 0, 0)

    def test_six_record_hand_count(self):
        # proxy cell 0: 1 of 2 treated records has the outcome; cell 1: 2 of
        # 2; both cells hold half the records, so 0.5 * 0.5 + 1.0 * 0.5
        ds = Dataset.from_records([
            (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0),
            (0, 1, 0, 0), (0, 1, 0, 0), (0, 1, 1, 1),
        ], tiny_dims())
        assert w_adjustment(ds, 0, 0) == pytest.approx(0.75)

    def test_zero_weight_cells_are_skipped(self):
        ds = Dataset.from_records([(0, 0, 0, 0), (0, 0, 0, 1)], tiny_dims())
        assert w_adjustment(ds, 0, 0) == pytest.approx(0.5)

    def test_zero_denominator_names_cell(self):
        ds = Dataset.from_records([(0, 0, 0, 0), (0, 1, 1, 0)], tiny_dims())
        with pytest.raises(ZeroDenominatorError, match="proxy cell 1"):
            w_adjustment(ds, 0, 0)

    def test_identity_proxy_is_a_valid_adjustment(self):
        # when the proxy equals the confounder, adjusting for it in the
        # target domain recovers the effect
        dims = CategorySpec(k_e=2, k_u=2, k_w=2, k_x=2, k_y=2)
        spec = sample_scm_spec(dims, np.random.default_rng(43))
        identity = np.array([[1.0, 0.0], [0.0, 1.0]])
        spec = type(spec)(dims, spec.p_u_given_e, spec.q_u, identity,
                          spec.p_x_given_u, spec.p_y_given_uwx,
                          spec.domain_prior, strict_support=False)
        counts = simulate_counts(spec, 200_000, np.random.default_rng(44),
                                 benchmark_mode=True)
        est = w_adjustment(counts, 0, 0, scope="target")
        assert abs(est - true_effect(spec, 0, 0)) < 0.01


class TestDistributionProperties:
    def test_estimates_sum_to_one_over_outcomes(self):
        spec = sample_scm_spec(CategorySpec(2, 2, 3, 2, 3),
                               np.random.default_rng(45))
        counts = simulate_counts(spec, 5000, np.random.default_rng(46), benchmark_mode=True)
        for fn in (no_adjustment, w_adjustment):
            for scope in ("pooled", "target"):
                total = sum(fn(counts, 0, y, scope) for y in range(3))
                assert total == pytest.approx(1.0, abs=1e-12)
        y_counts = interventional_counts(spec, 0, 2000, np.random.default_rng(47))
        assert sum(oracle_estimate(y_counts, y) for y in range(3)) == pytest.approx(1.0)

    def test_confounded_spec_favors_adjusted_estimator(self):
        # median error of the naive conditional exceeds the plug-in
        # estimator's on clearly confounded models
        rng_scan = np.random.default_rng(48)
        dims = CategorySpec(k_e=3, k_u=2, k_w=2, k_x=2, k_y=2)
        spec = None
        while spec is None:
            candidate = sample_scm_spec(dims, rng_scan)
            if abs(true_effect(candidate, 0, 0)
                   - target_conditional(candidate, 0, 0)) > 0.1:
                spec = candidate
        truth = true_effect(spec, 0, 0)
        naive_err, reduced_err = [], []
        for rep in range(25):
            ds = simulate_dataset(spec, 20_000, np.random.default_rng(100 + rep))
            naive_err.append(abs(no_adjustment(ds, 0, 0) - truth))
            reduced_err.append(abs(reduced_estimate(ds, 0, 0).point - truth))
        assert np.median(naive_err) > np.median(reduced_err)


class TestWaldInterval:
    def test_contains_point_and_clips(self):
        lo, hi = wald_interval(0.5, 100)
        assert lo < 0.5 < hi
        lo, hi = wald_interval(0.01, 50)
        assert lo == 0.0
        assert hi > 0.01

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, float("nan")])
    def test_level_outside_unit_interval_is_refused(self, alpha):
        with pytest.raises(ValidationError, match="alpha"):
            wald_interval(0.5, 100, alpha)
