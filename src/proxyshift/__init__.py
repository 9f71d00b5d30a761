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
"""

__version__ = "0.1.0"

from .baselines import no_adjustment, oracle_estimate, w_adjustment, wald_interval
from .bench import (ExperimentConfig, ReplicateRecord, run_baseline_comparison,
                    run_coverage, run_point_error, run_runtime)
from .categorical import (CategorySpec, condition_number, numeric_row_rank,
                          right_pseudoinverse, validate_stochastic)
from .causal import (FitOptions, ThetaParams, causal_estimate, fit_causal,
                     g_of_theta, log_likelihood)
from .errors import (BootstrapError, DatasetFormatError, EmptyCellError,
                     FilterExhaustedError, NoValidPartitionError,
                     OutOfSupportError, ProxyShiftError, RankDeficiencyError,
                     SingularMatrixError, ValidationError, ZeroDenominatorError)
from .identify import (Partition, ProxyMapping, causal_decomposition_effect,
                       discretize_proxy, identify_conditional_effect,
                       identify_effect, identify_total_effect_with_covariate,
                       reduce_proxy, search_partition)
from .reduced import (BootstrapCI, EffectEstimate, EstimateFlags, EtaVector,
                      bootstrap_ci, eta_from_counts, grad_h, h_of_eta,
                      normal_quantile, reduced_estimate)
from .scm import (MISSING, TARGET, ContingencyCounts, Dataset, ScmSpec,
                  population_views, sample_scm_spec, simulate_counts,
                  simulate_dataset, target_conditional, true_effect)
