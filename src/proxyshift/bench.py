"""Simulation-study harness: point error, baseline comparison, interval
coverage, runtime.

Every replicate's random stream is derived from the master seed together
with the model and dataset indices, so results are a pure function of the
configuration and are identical for any worker count or scheduling order.
An estimation error in a replicate (a :class:`ProxyShiftError` or a
``LinAlgError``) is recorded as an explicit failure row, never dropped; any
other exception is a bug and aborts the study.
"""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from .baselines import (POOLED, TARGET_SCOPE, no_adjustment, oracle_estimate,
                        w_adjustment)
from .categorical import CategorySpec, condition_number
from .causal import FitOptions, causal_estimate
from .errors import FilterExhaustedError, ProxyShiftError, ValidationError
from .fileio import atomic_write_text
from .reduced import (EffectEstimate, bootstrap_ci, check_alpha, eta_from_counts,
                      reduced_estimate)
from .scm import (ScmSpec, _draw_spec, interventional_counts, population_views,
                  sample_scm_spec, simulate_counts, target_conditional,
                  true_effect)

# Purpose salts for stream derivation, so the same (model, dataset) replicate
# uses independent randomness for data, oracle counts, and bootstrap.
_SALT_MODEL = 1
_SALT_DATA = 2
_SALT_ORACLE = 3
_SALT_BOOT = 4

# Each estimator as a call on (counts, config, oracle outcome counts).  The
# lambdas look their functions up on this module when they run, so a wrapper
# set on a module attribute (a tracer, a test's patch) sees every call.
_ESTIMATORS = {
    "oracle": lambda ds, c, y_counts: oracle_estimate(y_counts, c.y),
    "reduced": lambda ds, c, y_counts: reduced_estimate(ds, c.x, c.y, alpha=c.alpha),
    "causal": lambda ds, c, y_counts: causal_estimate(ds, c.x, c.y, c.fit_options,
                                                      k_u=c.dims.k_u),
    "noadj": lambda ds, c, y_counts: no_adjustment(ds, c.x, c.y, POOLED),
    "noadj*": lambda ds, c, y_counts: no_adjustment(ds, c.x, c.y, TARGET_SCOPE),
    "wadj": lambda ds, c, y_counts: w_adjustment(ds, c.x, c.y, POOLED),
    "wadj*": lambda ds, c, y_counts: w_adjustment(ds, c.x, c.y, TARGET_SCOPE),
}
ALL_ESTIMATORS = tuple(_ESTIMATORS)

_COVERAGE_METHODS = ("reduced_asym", "reduced_boot")

# What a replicate records as a failure row; any other exception is a bug
# and propagates out of the study.
_ESTIMATION_ERRORS = (ProxyShiftError, np.linalg.LinAlgError)


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Stream keyed by (master seed, indices); scheduling-independent."""
    return np.random.default_rng([master_seed, *key])


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for one simulation study."""

    dims: CategorySpec
    n_models: int = 10            # independent model draws
    n_datasets: int = 5           # datasets per model
    n_samples: int = 20_000       # records per dataset
    n_sweep: tuple[int, ...] | None = None  # sample sizes for coverage/runtime
    estimators: tuple[str, ...] = ("reduced", "causal")
    alpha: float = 0.05
    bootstrap_b: int = 200
    confound_threshold: float = 0.1
    master_seed: int = 0
    workers: int = 1
    x: int = 0
    y: int = 0
    repetitions: int = 50         # timed repetitions in the runtime study
    model_draw_budget: int = 10_000
    fit_options: FitOptions = field(default_factory=FitOptions)

    def __post_init__(self):
        if min(self.n_models, self.n_datasets, self.n_samples) < 1:
            raise ValidationError("n_models, n_datasets, n_samples must be >= 1")
        for name, k in (("x", self.dims.k_x), ("y", self.dims.k_y)):
            if not 0 <= getattr(self, name) < k:
                raise ValidationError(f"{name} must be in 0..{k - 1}, got {getattr(self, name)}")
        if min(self.n_sweep or (1,)) < 1:
            raise ValidationError(f"n_sweep entries must be >= 1, got {list(self.n_sweep)}")
        for name, low in (("bootstrap_b", 2), ("repetitions", 1), ("master_seed", 0)):
            if getattr(self, name) < low:
                raise ValidationError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not self.confound_threshold >= 0:
            raise ValidationError("confound_threshold must be non-negative")
        check_alpha(self.alpha)
        unknown = set(self.estimators) - set(ALL_ESTIMATORS)
        if unknown:
            raise ValidationError(f"unknown estimators: {sorted(unknown)}")

    @property
    def sweep(self) -> tuple[int, ...]:
        return self.n_sweep if self.n_sweep else (self.n_samples,)


@dataclass(frozen=True)
class ReplicateRecord:
    """One estimator evaluation on one simulated dataset.  ``boot_failed``
    and ``boot_perturbed`` are a ``reduced_boot`` interval's failed and
    rank-repaired resamples."""

    model: int
    dataset: int
    estimator: str
    x: int
    y: int
    estimate: float | None
    truth: float
    abs_error: float | None
    kappa_true: float
    kappa_hat: float | None = None
    ci_lower: float | None = None
    ci_upper: float | None = None
    covered: bool | None = None
    boot_failed: int | None = None
    boot_perturbed: int | None = None
    wall_time_s: float = 0.0
    error: str | None = None

    def to_csv_row(self) -> str:
        """The fields in :data:`CSV_HEADER` order."""
        def fmt(v):
            if v is None:
                return ""
            if isinstance(v, bool):
                return "true" if v else "false"
            if isinstance(v, float):
                return repr(v)
            return str(v)
        # x, y are written 1-based like every file format in this package;
        # error text is flattened so rows stay single-line comma-separated
        row = replace(self, x=self.x + 1, y=self.y + 1,
                      error=(self.error or "").replace(",", ";").replace("\n", " "))
        return ",".join(fmt(v) for v in astuple(row))


CSV_HEADER = ",".join(f.name for f in fields(ReplicateRecord))


def write_records_csv(records, path) -> None:
    """Write ``records`` as a CSV under :data:`CSV_HEADER`, atomically."""
    lines = [CSV_HEADER] + [r.to_csv_row() for r in records]
    atomic_write_text(path, "\n".join(lines) + "\n")


def _model_for(config: ExperimentConfig, candidate: int) -> ScmSpec:
    rng = derive_rng(config.master_seed, _SALT_MODEL, candidate)
    return sample_scm_spec(config.dims, rng)


def _kappa_hat_from_data(ds, x: int, y: int) -> float | None:
    try:
        return eta_from_counts(ds, x, y).kappa_hat
    except _ESTIMATION_ERRORS:
        return None


def _run_one_estimator(name: str, ds, spec: ScmSpec, config: ExperimentConfig,
                       candidate: int, dataset_idx: int):
    """Returns (estimator result, wall_time): an :class:`EffectEstimate` or a
    bare point.  Timing wraps only the estimator call, not data generation
    (the oracle's outcome counts, drawn from the intervention law, included)."""
    y_counts = None
    if name == "oracle":
        y_counts = interventional_counts(
            spec, config.x, config.n_samples,
            derive_rng(config.master_seed, _SALT_ORACLE, candidate, dataset_idx))
    t0 = time.perf_counter()
    result = _ESTIMATORS[name](ds, config, y_counts)
    return result, time.perf_counter() - t0


def _shared_fields(config: ExperimentConfig, spec: ScmSpec, model_idx: int,
                   dataset_idx: int) -> dict:
    """The fields every record of one (model, dataset) replicate carries."""
    x, y = config.x, config.y
    return dict(model=model_idx, dataset=dataset_idx, x=x, y=y,
                truth=true_effect(spec, x, y),
                kappa_true=condition_number(population_views(spec, x, y).p_w_ex))


def _row(shared: dict, estimator: str, kappa_hat: float | None,
         estimate: float | EffectEstimate | None = None, ci: tuple = (None, None),
         wall: float = 0.0, error: Exception | None = None) -> ReplicateRecord:
    """One record: a failure row carrying ``error`` when it is given, else the
    estimate with its interval, if any, and whether that covers the truth.
    An :class:`EffectEstimate` carries its own interval."""
    if error is not None:
        return ReplicateRecord(**shared, estimator=estimator, estimate=None,
                               abs_error=None, kappa_hat=kappa_hat,
                               error=f"{type(error).__name__}: {error}")
    if isinstance(estimate, EffectEstimate):
        estimate, ci = estimate.point, (estimate.ci_lower, estimate.ci_upper)
    lo, hi = ci
    truth = shared["truth"]
    return ReplicateRecord(
        **shared, estimator=estimator, estimate=estimate,
        abs_error=abs(estimate - truth), kappa_hat=kappa_hat, ci_lower=lo,
        ci_upper=hi, covered=(lo <= truth <= hi) if lo is not None else None,
        wall_time_s=wall)


def _replicate_task(args) -> list[ReplicateRecord]:
    config, model_idx, candidate, spec, dataset_idx = args
    shared = _shared_fields(config, spec, model_idx, dataset_idx)
    ds = simulate_counts(spec, config.n_samples,
                         derive_rng(config.master_seed, _SALT_DATA, candidate, dataset_idx))
    results = {}
    for name in config.estimators:
        try:
            results[name] = _run_one_estimator(name, ds, spec, config, candidate, dataset_idx)
        except _ESTIMATION_ERRORS as exc:
            results[name] = exc
    # a reduced estimate has already built the statistic vector kappa_hat reads
    reduced = results.get("reduced")
    kappa_hat = (reduced[0].kappa_hat if isinstance(reduced, tuple)
                 else _kappa_hat_from_data(ds, config.x, config.y))
    return [_row(shared, name, kappa_hat, error=result) if isinstance(result, Exception)
            else _row(shared, name, kappa_hat, result[0], wall=result[1])
            for name, result in results.items()]


def _run_tasks(config: ExperimentConfig, task_fn, tasks) -> list[ReplicateRecord]:
    """Map ``task_fn`` over ``tasks``, in a pool of ``config.workers``
    processes when there is more than one, and return every task's records
    sorted by (model, dataset, estimator)."""
    if config.workers > 1:
        # imported here so that starting the CLI does not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            chunks = list(pool.map(task_fn, tasks))
    else:
        chunks = [task_fn(t) for t in tasks]
    records = [r for chunk in chunks for r in chunk]
    records.sort(key=lambda r: (r.model, r.dataset, r.estimator))
    return records


def run_point_error(config: ExperimentConfig) -> list[ReplicateRecord]:
    """Estimation error study across random models and datasets, with true
    and estimated condition numbers per replicate."""
    specs = [_model_for(config, m) for m in range(config.n_models)]
    tasks = [(config, m, m, spec, d)
             for m, spec in enumerate(specs) for d in range(config.n_datasets)]
    return _run_tasks(config, _replicate_task, tasks)


def _accepted_models(config: ExperimentConfig) -> list[tuple[int, ScmSpec]]:
    """The model draws passing the confounding filter
    ``|q(y|do(x)) - q(y|x)| > threshold`` (an exact model property), each with
    its candidate index.  The gap is read off the raw draws, and only an
    accepted draw is built and validated as the spec :func:`_model_for`
    returns."""
    accepted = []
    for candidate in range(config.model_draw_budget):
        draw = _draw_spec(config.dims, derive_rng(config.master_seed, _SALT_MODEL, candidate))
        gap = abs(true_effect(draw, config.x, config.y)
                  - target_conditional(draw, config.x, config.y))
        if gap > config.confound_threshold:
            accepted.append((candidate, ScmSpec(config.dims, *draw)))
            if len(accepted) == config.n_models:
                return accepted
    raise FilterExhaustedError(
        f"only {len(accepted)}/{config.n_models} model draws passed the "
        f"confounding filter within the budget of {config.model_draw_budget}")


def run_baseline_comparison(config: ExperimentConfig) -> list[ReplicateRecord]:
    """All seven estimators on confounded model draws.

    Model draws are rejection-sampled until ``n_models`` pass the confounding
    filter; the filter uses exact population quantities, not estimates.
    """
    cfg = replace(config, estimators=ALL_ESTIMATORS)
    tasks = [(cfg, m, c, spec, d) for m, (c, spec) in enumerate(_accepted_models(cfg))
             for d in range(cfg.n_datasets)]
    return _run_tasks(cfg, _replicate_task, tasks)


def _coverage_task(args) -> list[ReplicateRecord]:
    config, n, model_idx, dataset_idx = args
    x, y = config.x, config.y
    spec = _model_for(config, model_idx)
    shared = _shared_fields(config, spec, model_idx, dataset_idx)
    key = (model_idx, dataset_idx, n)
    ds = simulate_counts(spec, n, derive_rng(config.master_seed, _SALT_DATA, *key))
    try:
        est = reduced_estimate(ds, x, y, alpha=config.alpha)
    except _ESTIMATION_ERRORS as exc:
        return [_row(shared, method, None, error=exc) for method in _COVERAGE_METHODS]
    asym = _row(shared, "reduced_asym", est.kappa_hat, est)
    try:
        boot = bootstrap_ci(ds, x, y, config.bootstrap_b, alpha=config.alpha,
                            rng=derive_rng(config.master_seed, _SALT_BOOT, *key))
    except _ESTIMATION_ERRORS as exc:
        return [asym, _row(shared, "reduced_boot", est.kappa_hat, error=exc)]
    boot_row = _row(shared, "reduced_boot", est.kappa_hat, est.point,
                    (boot.ci_lower, boot.ci_upper))
    return [asym, replace(boot_row, boot_failed=boot.failed, boot_perturbed=boot.perturbed)]


def run_coverage(config: ExperimentConfig) -> tuple[list[ReplicateRecord], dict]:
    """Interval coverage and length for the delta-method and bootstrap
    intervals, on identical datasets, for every sample size in the sweep.

    The summary reports, per sample size and method, the fraction of
    replicates whose interval contains the truth and the median clipped
    interval length.
    """
    records: list[ReplicateRecord] = []
    summary: dict = {}
    for n in config.sweep:
        tasks = [(config, n, m, d)
                 for m in range(config.n_models) for d in range(config.n_datasets)]
        n_records = _run_tasks(config, _coverage_task, tasks)
        records.extend(n_records)
        per_n = {}
        for method in _COVERAGE_METHODS:
            rows = [r for r in n_records if r.estimator == method and r.error is None]
            if rows:
                per_n[method] = {
                    "coverage": float(np.mean([r.covered for r in rows])),
                    "median_length": float(np.median([r.ci_upper - r.ci_lower
                                                      for r in rows])),
                    "n_replicates": len(rows),
                }
        per_n["failures"] = sum(1 for r in n_records if r.error is not None)
        summary[n] = per_n
    return records, summary


def run_runtime(config: ExperimentConfig) -> dict:
    """Total wall time of repeated estimator calls on a fixed dataset, per
    sample size.

    Returns ``{n: {estimator: {"total_seconds": ..., "estimate": ...}}}``;
    the estimate values are reported so reruns can be checked for
    reproducibility (times naturally vary).
    """
    out: dict = {}
    for n in config.sweep:
        cfg_n = replace(config, n_samples=n)
        spec = _model_for(cfg_n, 0)
        ds = simulate_counts(spec, n, derive_rng(cfg_n.master_seed, _SALT_DATA, 0, 0, n))
        per_est = {}
        for name in cfg_n.estimators:
            value = None
            total = 0.0
            for _ in range(cfg_n.repetitions):
                value, wall = _run_one_estimator(name, ds, spec, cfg_n, 0, 0)
                total += wall
            if isinstance(value, EffectEstimate):
                value = value.point
            per_est[name] = {"total_seconds": total, "estimate": value}
        out[n] = per_est
    return out
