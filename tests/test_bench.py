"""Benchmark harness: record completeness, determinism, filter, summaries."""

import numpy as np
import pytest

import proxyshift.bench as bench
import proxyshift.scm as scm
from proxyshift.bench import (ALL_ESTIMATORS, CSV_HEADER, ExperimentConfig,
                              ReplicateRecord, _accepted_models, derive_rng,
                              run_baseline_comparison, run_coverage,
                              run_point_error, run_runtime, write_records_csv)
from proxyshift.categorical import CategorySpec
from proxyshift.errors import (BootstrapError, EmptyCellError,
                               FilterExhaustedError, ValidationError)


def small_config(**overrides):
    defaults = dict(dims=CategorySpec(2, 2, 2, 2, 2), n_models=2, n_datasets=2,
                    n_samples=1500, master_seed=11, estimators=("reduced",))
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestConfig:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValidationError):
            small_config(n_models=0)

    def test_rejects_unknown_estimator(self):
        with pytest.raises(ValidationError):
            small_config(estimators=("reduced", "magic"))

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5])
    def test_rejects_alpha_outside_unit_interval(self, alpha):
        with pytest.raises(ValidationError, match="alpha"):
            small_config(alpha=alpha)

    @pytest.mark.parametrize("overrides, message", [
        ({"x": 2}, "x must be in 0..1, got 2"),
        ({"x": -1}, "x must be in 0..1, got -1"),
        ({"y": -1}, "y must be in 0..1, got -1"),
        ({"y": 3, "dims": CategorySpec(2, 2, 2, 2, 3)}, "y must be in 0..2, got 3"),
        ({"bootstrap_b": 1}, "bootstrap_b must be >= 2, got 1"),
        ({"n_sweep": (800, 0)}, r"n_sweep entries must be >= 1, got \[800, 0\]"),
        ({"n_sweep": (-5,)}, r"n_sweep entries must be >= 1, got \[-5\]"),
        ({"repetitions": 0}, "repetitions must be >= 1, got 0"),
        ({"master_seed": -1}, "master_seed must be >= 0, got -1"),
        ({"confound_threshold": float("nan")}, "confound_threshold must be non-negative"),
    ])
    def test_rejects_values_that_would_mislead(self, overrides, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            small_config(**overrides)

    def test_accepts_the_edges_of_each_range(self):
        config = small_config(x=1, y=1, bootstrap_b=2, n_sweep=(1,), repetitions=1,
                              master_seed=0)
        assert config.sweep == (1,)
        assert small_config(n_sweep=()).sweep == (1500,)


class TestPointError:
    def test_single_replicate_record_count(self):
        config = small_config(n_models=1, n_datasets=1,
                              estimators=("reduced", "causal"))
        records = run_point_error(config)
        assert len(records) == 2
        assert sorted(r.estimator for r in records) == ["causal", "reduced"]

    def test_record_fields_are_consistent(self):
        records = run_point_error(small_config())
        assert len(records) == 4
        for r in records:
            assert r.error is None
            assert r.abs_error == abs(r.estimate - r.truth)
            assert r.kappa_true > 0
            assert r.kappa_hat is not None

    def test_every_triple_appears_once(self):
        config = small_config(n_models=3, n_datasets=2,
                              estimators=("reduced", "causal"))
        records = run_point_error(config)
        triples = [(r.model, r.dataset, r.estimator) for r in records]
        assert len(triples) == len(set(triples)) == 12

    def test_worker_count_does_not_change_estimates(self):
        serial = run_point_error(small_config())
        parallel = run_point_error(small_config(workers=2))
        assert [r.estimate for r in serial] == [r.estimate for r in parallel]

    def test_rerun_is_bit_for_bit(self):
        a = run_point_error(small_config())
        b = run_point_error(small_config())
        assert [r.estimate for r in a] == [r.estimate for r in b]


class TestBaselineComparison:
    def test_all_estimators_present(self):
        config = small_config(n_models=1, n_datasets=1)
        records = run_baseline_comparison(config)
        assert sorted(r.estimator for r in records) == sorted(ALL_ESTIMATORS)

    def test_filter_accepts_only_confounded_models(self):
        config = small_config(n_models=3, confound_threshold=0.1)
        from proxyshift.scm import target_conditional, true_effect
        for _, spec in _accepted_models(config):
            gap = abs(true_effect(spec, 0, 0) - target_conditional(spec, 0, 0))
            assert gap > 0.1

    def test_zero_threshold_accepts_immediately(self):
        config = small_config(n_models=2, confound_threshold=0.0)
        assert [candidate for candidate, _ in _accepted_models(config)] == [0, 1]

    @pytest.mark.parametrize("master_seed", [1, 19, 1234])
    def test_filter_accepts_the_specs_of_the_unfiltered_draws(self, master_seed):
        # the filter reads the gap off the raw draws and builds a spec only
        # for an accepted one: the same candidates, and field for field the
        # specs _model_for builds for them, as when it built every draw
        config = small_config(n_models=4, master_seed=master_seed)
        from proxyshift.scm import target_conditional, true_effect
        expected = []
        for candidate in range(config.model_draw_budget):
            spec = bench._model_for(config, candidate)
            if abs(true_effect(spec, 0, 0) - target_conditional(spec, 0, 0)) > 0.1:
                expected.append((candidate, spec))
                if len(expected) == config.n_models:
                    break
        accepted = _accepted_models(config)
        assert [c for c, _ in accepted] == [c for c, _ in expected]
        for (_, got), (_, want) in zip(accepted, expected):
            assert isinstance(got, scm.ScmSpec) and got.dims == want.dims
            for name in ("p_u_given_e", "q_u", "p_w_given_u", "p_x_given_u",
                         "p_y_given_uwx", "domain_prior"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_impossible_filter_exhausts_budget(self):
        config = small_config(confound_threshold=2.0, model_draw_budget=50)
        with pytest.raises(FilterExhaustedError):
            _accepted_models(config)


class TestKappaHat:
    """Each replicate row carries the estimated condition number, built once."""

    def test_taken_from_the_reduced_estimate(self, monkeypatch):
        expected = run_baseline_comparison(small_config(n_models=1, n_datasets=2))

        def counted(*args, **kwargs):
            raise AssertionError("eta_from_counts called although reduced succeeded")

        monkeypatch.setattr(bench, "eta_from_counts", counted)
        records = run_baseline_comparison(small_config(n_models=1, n_datasets=2))
        assert [r.kappa_hat for r in records] == [r.kappa_hat for r in expected]
        assert all(r.kappa_hat is not None for r in records)

    def test_built_from_the_counts_without_a_reduced_row(self):
        reduced = run_point_error(small_config(estimators=("reduced",)))
        noadj = run_point_error(small_config(estimators=("noadj",)))
        assert [r.kappa_hat for r in noadj] == [r.kappa_hat for r in reduced]

    def test_built_from_the_counts_when_reduced_fails(self, monkeypatch):
        expected = run_point_error(small_config(estimators=("reduced", "noadj")))

        def failing(*args, **kwargs):
            raise EmptyCellError("no target-domain records", cell="target")

        monkeypatch.setattr(bench, "reduced_estimate", failing)
        records = run_point_error(small_config(estimators=("reduced", "noadj")))
        assert [r.kappa_hat for r in records] == [r.kappa_hat for r in expected]
        assert all(r.error for r in records if r.estimator == "reduced")


class TestCoverage:
    def test_summary_structure(self):
        config = small_config(n_models=2, n_datasets=3, n_samples=2000,
                              bootstrap_b=24)
        records, summary = run_coverage(config)
        assert set(summary) == {2000}
        block = summary[2000]
        for method in ("reduced_asym", "reduced_boot"):
            assert 0.0 <= block[method]["coverage"] <= 1.0
            assert block[method]["median_length"] >= 0.0
            assert block[method]["n_replicates"] == 6
        assert len(records) == 12

    def test_sweep_runs_each_size(self):
        config = small_config(n_models=1, n_datasets=2, bootstrap_b=16,
                              n_sweep=(800, 1600))
        _, summary = run_coverage(config)
        assert set(summary) == {800, 1600}

    def test_boot_rows_carry_resample_counts(self, monkeypatch, tmp_path):
        real = bench.bootstrap_ci
        monkeypatch.setattr(bench, "bootstrap_ci",
                            lambda *a, **k: real(*a, **k)._replace(failed=3, perturbed=2))
        records, _ = run_coverage(small_config(n_models=1, bootstrap_b=16))
        for r in records:
            want = (3, 2) if r.estimator == "reduced_boot" else (None, None)
            assert (r.boot_failed, r.boot_perturbed) == want
        path = tmp_path / "r.csv"
        write_records_csv(records, path)
        header, *rows = [line.split(",") for line in path.read_text().splitlines()]
        columns = [dict(zip(header, row)) for row in rows]
        assert [(c["estimator"], c["boot_failed"], c["boot_perturbed"]) for c in columns] == [
            ("reduced_asym", "", ""), ("reduced_boot", "3", "2")] * 2

    def test_bootstrap_failure_is_the_boot_row(self, monkeypatch):
        def failing(*args, **kwargs):
            raise BootstrapError("9/16 bootstrap resamples failed")
        monkeypatch.setattr(bench, "bootstrap_ci", failing)
        records, summary = run_coverage(small_config(n_models=1, bootstrap_b=16))
        assert [(r.model, r.dataset, r.estimator) for r in records] == [
            (0, d, m) for d in range(2) for m in ("reduced_asym", "reduced_boot")]
        for r in records:
            if r.estimator == "reduced_asym":
                assert r.error is None and r.covered is not None
            else:
                assert r.error == "BootstrapError: 9/16 bootstrap resamples failed"
                assert r.estimate is None and r.kappa_hat is not None
        assert "reduced_boot" not in summary[1500]
        assert summary[1500]["failures"] == 2

    def test_estimate_failure_fails_both_rows(self, monkeypatch):
        def failing(*args, **kwargs):
            raise EmptyCellError("no target-domain records", cell="target")
        monkeypatch.setattr(bench, "reduced_estimate", failing)
        records, _ = run_coverage(small_config(n_models=1, bootstrap_b=16))
        assert [(r.model, r.dataset, r.estimator) for r in records] == [
            (0, d, m) for d in range(2) for m in ("reduced_asym", "reduced_boot")]
        assert all(r.error == "EmptyCellError: no target-domain records"
                   and r.estimate is None for r in records)


# The bench attribute each estimator calls, and the scope argument that
# singles it out where two estimators share a function.
ESTIMATOR_CALLS = {
    "oracle": ("oracle_estimate", None),
    "reduced": ("reduced_estimate", None),
    "causal": ("causal_estimate", None),
    "noadj": ("no_adjustment", "pooled"),
    "noadj*": ("no_adjustment", "target"),
    "wadj": ("w_adjustment", "pooled"),
    "wadj*": ("w_adjustment", "target"),
}


def inject_bug(monkeypatch, attr, scope=None):
    """Make ``proxyshift.bench.<attr>`` raise a TypeError (only for calls
    with the given scope argument, if one is given)."""
    original = getattr(bench, attr)

    def buggy(*args, **kwargs):
        if scope is None or args[3:] == (scope,):
            raise TypeError("injected bug")
        return original(*args, **kwargs)

    monkeypatch.setattr(bench, attr, buggy)


class TestBugsPropagate:
    """Only estimation errors become failure rows, and the estimators are
    looked up on the module at call time, so a patched attribute is seen."""

    @pytest.mark.parametrize("estimator", ALL_ESTIMATORS)
    def test_from_baseline_comparison(self, monkeypatch, estimator):
        inject_bug(monkeypatch, *ESTIMATOR_CALLS[estimator])
        with pytest.raises(TypeError, match="injected bug"):
            run_baseline_comparison(small_config(n_models=1, n_datasets=1))

    @pytest.mark.parametrize("attr", ["reduced_estimate", "bootstrap_ci"])
    def test_from_coverage(self, monkeypatch, attr):
        inject_bug(monkeypatch, attr)
        with pytest.raises(TypeError, match="injected bug"):
            run_coverage(small_config(n_models=1, n_datasets=1, bootstrap_b=16))


class TestRuntime:
    def test_ordering_and_determinism(self):
        config = small_config(
            n_samples=1000, repetitions=5,
            estimators=("noadj", "wadj", "reduced", "causal"))
        table = run_runtime(config)
        block = table[1000]
        assert block["noadj"]["total_seconds"] <= block["reduced"]["total_seconds"]
        assert block["reduced"]["total_seconds"] < block["causal"]["total_seconds"]
        rerun = run_runtime(config)
        for name in block:
            assert rerun[1000][name]["estimate"] == block[name]["estimate"]


class TestCountSpace:
    """The studies simulate each replicate as counts: none builds records."""

    @pytest.mark.parametrize("study", [
        lambda: run_point_error(small_config(n_models=1, n_datasets=1,
                                             estimators=("reduced", "causal"))),
        lambda: run_baseline_comparison(small_config(n_models=1, n_datasets=1)),
        lambda: run_coverage(small_config(n_models=1, n_datasets=1, bootstrap_b=16)),
        lambda: run_runtime(small_config(n_samples=500, repetitions=1,
                                         estimators=ALL_ESTIMATORS)),
    ], ids=["point_error", "baseline_comparison", "coverage", "runtime"])
    def test_no_study_builds_a_dataset(self, monkeypatch, study):
        def refuse(*args):
            raise AssertionError("a study drew or counted records")

        monkeypatch.setattr(scm, "simulate_records", refuse)
        monkeypatch.setattr(scm, "count_records", refuse)
        study()


class TestCsvFormat:
    """The records CSV is built from the fields of ReplicateRecord; these
    literals pin the format that existing files have."""

    def test_header(self):
        assert CSV_HEADER == ("model,dataset,estimator,x,y,estimate,truth,abs_error,"
                              "kappa_true,kappa_hat,ci_lower,ci_upper,covered,boot_failed,"
                              "boot_perturbed,wall_time_s,error")

    def test_row(self):
        record = ReplicateRecord(
            model=3, dataset=1, estimator="reduced_boot", x=0, y=0, estimate=0.25,
            truth=0.5, abs_error=None, kappa_true=12.5, kappa_hat=None, ci_lower=0.1,
            ci_upper=0.4, covered=True, boot_failed=2, boot_perturbed=0,
            wall_time_s=0.001, error="EmptyCellError: no records, at all\nin (x, e=1)")
        assert record.to_csv_row() == ("3,1,reduced_boot,1,1,0.25,0.5,,12.5,,0.1,0.4,true,"
                                       "2,0,0.001,EmptyCellError: no records; at all in "
                                       "(x; e=1)")


class TestRngDerivation:
    def test_keyed_streams_are_stable_and_distinct(self):
        a = derive_rng(3, 1, 2).random(4)
        b = derive_rng(3, 1, 2).random(4)
        c = derive_rng(3, 2, 1).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
