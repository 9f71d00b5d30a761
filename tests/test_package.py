"""The package namespace: every public name resolves lazily to its module's
object, and ``import proxyshift`` loads no submodule."""

import importlib
import subprocess
import sys

import pytest

import proxyshift

# the public names of the package, by the module that defines them
PUBLIC = {
    "baselines": ["no_adjustment", "oracle_estimate", "w_adjustment", "wald_interval"],
    "bench": ["ExperimentConfig", "ReplicateRecord", "run_baseline_comparison",
              "run_coverage", "run_point_error", "run_runtime"],
    "categorical": ["CategorySpec", "condition_number", "numeric_row_rank",
                    "right_pseudoinverse", "validate_stochastic"],
    "causal": ["FitOptions", "ThetaParams", "causal_estimate", "fit_causal", "g_of_theta",
               "log_likelihood"],
    "errors": ["BootstrapError", "DatasetFormatError", "EmptyCellError",
               "FilterExhaustedError", "OutOfSupportError", "ProxyShiftError",
               "RankDeficiencyError", "SingularMatrixError", "ValidationError",
               "ZeroDenominatorError"],
    "identify": ["Partition", "ProxyMapping", "causal_decomposition_effect",
                 "discretize_proxy", "identify_conditional_effect", "identify_effect",
                 "identify_total_effect_with_covariate", "reduce_proxy"],
    "reduced": ["BootstrapCI", "EffectEstimate", "EstimateFlags", "EtaVector",
                "bootstrap_ci", "eta_from_counts", "grad_h", "h_of_eta", "normal_quantile",
                "reduced_estimate"],
    "scm": ["MISSING", "TARGET", "ContingencyCounts", "Records", "ScmSpec", "count_records",
            "population_views", "sample_scm_spec", "simulate_counts", "simulate_dataset",
            "simulate_records", "target_conditional", "true_effect"],
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]


def in_fresh_process(code: str) -> str:
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return res.stdout.strip()


def test_import_loads_no_submodule():
    assert in_fresh_process(
        "import sys, proxyshift; "
        "print([m for m in sys.modules if m.startswith('proxyshift.')])") == "[]"


def test_a_name_loads_only_its_module_and_what_that_imports():
    assert in_fresh_process(
        "import sys; from proxyshift import identify_effect; "
        "print(sorted(m for m in sys.modules if m.startswith('proxyshift.')))") == (
        "['proxyshift.categorical', 'proxyshift.errors', 'proxyshift.identify']")


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_every_public_name_is_its_modules_object(module, name):
    defining = importlib.import_module(f"proxyshift.{module}")
    assert getattr(proxyshift, name) is getattr(defining, name)


def test_the_namespace_lists_every_public_name():
    names = {name for _, name in NAMES}
    assert len(names) == 62
    assert set(proxyshift.__all__) == names
    assert names <= set(dir(proxyshift))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'proxyshift' has no attribute 'nonsense'"):
        proxyshift.nonsense
    assert not hasattr(proxyshift, "_nonsense")
    with pytest.raises(ImportError):
        from proxyshift import nonsense  # noqa: F401
