"""The in-process simulation studies, from config to summary, and their
statistical output checks."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

COVERAGE_ESTIMATORS = ("reduced_asym", "reduced_boot")
ORACLE_SE_MULTIPLE = 4.0


@dataclass(frozen=True)
class StudySpec:
    """One study call: which study, its size, and the output bound.

    ``max_median_abs_error`` bounds the median |reduced - truth| of one call;
    it was fixed from the spread seen over many seeds when the benchmark was
    defined, so a change that breaks the estimator fails the check.
    """

    kind: str                                  # "coverage" or "baselines"
    dims: tuple[int, int, int, int, int]       # (k_e, k_u, k_w, k_x, k_y)
    n: int
    n_models: int
    n_datasets: int
    bootstrap_b: int
    max_median_abs_error: float

    def config(self, master_seed: int):
        from proxyshift import CategorySpec, ExperimentConfig

        return ExperimentConfig(dims=CategorySpec(*self.dims), n_models=self.n_models,
                                n_datasets=self.n_datasets, n_samples=self.n,
                                bootstrap_b=self.bootstrap_b, master_seed=master_seed,
                                workers=1)

    @property
    def replicates(self) -> int:
        return self.n_models * self.n_datasets


@dataclass(frozen=True)
class StudyResult:
    records: list
    summary: dict
    seconds: float


def run_study(spec: StudySpec, master_seed: int, tracer=None) -> StudyResult:
    """Config to summary: build the config, run the study, summarise the
    records as ``proxyshift bench`` does.  The timed region is all of it."""
    from proxyshift import bench

    start = time.perf_counter()
    index = tracer.open("bench.study") if tracer else None
    try:
        config = spec.config(master_seed)
        if spec.kind == "coverage":
            records, _ = bench.run_coverage(config)
        else:
            records = bench.run_baseline_comparison(config)
        errors: dict[str, list[float]] = {}
        for r in records:
            if r.error is None:
                errors.setdefault(r.estimator, []).append(r.abs_error)
        summary = {"median_abs_error": {k: float(np.median(v)) for k, v in errors.items()},
                   "failures": sum(1 for r in records if r.error is not None)}
    finally:
        if tracer:
            tracer.close(index)
    return StudyResult(records, summary, time.perf_counter() - start)


def check_study(spec: StudySpec, result: StudyResult) -> list[str]:
    """Problems with one study call's output; empty when it is correct."""
    from proxyshift.bench import ALL_ESTIMATORS

    problems = []
    records = result.records
    failed = [r for r in records if r.error is not None]
    if failed:
        problems.append(f"{len(failed)} failure rows, first: {failed[0].error}")
    names = COVERAGE_ESTIMATORS if spec.kind == "coverage" else ALL_ESTIMATORS
    expected = {(m, d, e) for m in range(spec.n_models)
                for d in range(spec.n_datasets) for e in names}
    keys = [(r.model, r.dataset, r.estimator) for r in records]
    if len(keys) != len(set(keys)) or set(keys) != expected:
        problems.append(f"records do not cover each (model, dataset, estimator) "
                        f"exactly once: {len(keys)} rows, {len(expected)} expected")
    for r in records:
        if r.estimator == "oracle" and r.error is None:
            se = math.sqrt(r.truth * (1.0 - r.truth) / spec.n)
            if abs(r.estimate - r.truth) > ORACLE_SE_MULTIPLE * se + 1.0 / spec.n:
                problems.append(f"oracle off by {abs(r.estimate - r.truth):.3g} "
                                f"(> {ORACLE_SE_MULTIPLE:g} SE) on model {r.model}")
    reduced = "reduced_asym" if spec.kind == "coverage" else "reduced"
    median = result.summary["median_abs_error"].get(reduced)
    if median is None or not median <= spec.max_median_abs_error:
        problems.append(f"median |reduced - truth| = {median}, bound "
                        f"{spec.max_median_abs_error}")
    return problems
