"""Causal effect estimation in unseen target domains from confounder proxies.

The library covers the full workflow: a discrete structural causal model
with a hidden confounder whose distribution shifts across domains
(:mod:`proxyshift.scm`), the pseudo-inverse identification of the
target-domain interventional distribution (:mod:`proxyshift.identify`), a
plug-in estimator with delta-method and bootstrap confidence intervals
(:mod:`proxyshift.reduced`), a maximum-likelihood mechanism estimator
(:mod:`proxyshift.causal`), reference baselines
(:mod:`proxyshift.baselines`), a reproducible benchmark harness
(:mod:`proxyshift.bench`) and file formats plus a CLI
(:mod:`proxyshift.fileio`, :mod:`proxyshift.cli`).

``import proxyshift`` loads no submodule.  Each public name below resolves
on first access (PEP 562) by importing the module that defines it, so
``from proxyshift import reduced_estimate`` loads ``reduced`` and what it
imports, and nothing else.  The CLI relies on this: each command loads only
the modules it runs (see :mod:`proxyshift.cli`).
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "baselines": ("no_adjustment", "oracle_estimate", "w_adjustment", "wald_interval"),
    "bench": ("ExperimentConfig", "ReplicateRecord", "run_baseline_comparison",
              "run_coverage", "run_point_error", "run_runtime"),
    "categorical": ("CategorySpec", "condition_number", "numeric_row_rank",
                    "right_pseudoinverse", "validate_stochastic"),
    "causal": ("FitOptions", "ThetaParams", "causal_estimate", "fit_causal",
               "g_of_theta", "log_likelihood"),
    "errors": ("BootstrapError", "DatasetFormatError", "EmptyCellError",
               "FilterExhaustedError", "OutOfSupportError", "ProxyShiftError",
               "RankDeficiencyError", "SingularMatrixError", "ValidationError",
               "ZeroDenominatorError"),
    "identify": ("Partition", "ProxyMapping", "causal_decomposition_effect",
                 "discretize_proxy", "identify_conditional_effect", "identify_effect",
                 "identify_total_effect_with_covariate", "reduce_proxy"),
    "reduced": ("BootstrapCI", "EffectEstimate", "EstimateFlags", "EtaVector",
                "bootstrap_ci", "eta_from_counts", "grad_h", "h_of_eta",
                "normal_quantile", "reduced_estimate"),
    "scm": ("MISSING", "TARGET", "ContingencyCounts", "Records", "ScmSpec",
            "count_records", "population_views", "sample_scm_spec", "simulate_counts",
            "simulate_dataset", "simulate_records", "target_conditional", "true_effect"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
