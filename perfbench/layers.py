"""Per-layer metrics from the traced spans.

Times are medians per call; counts are per op (a CLI cycle) or per
replicate (a study).  A layer is read from the workload's own traced ops
when it ran there and from the probes otherwise.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from perfbench.tracer import END, INFO, NAME, PARENT, START, SVD

# Counts that must repeat exactly between traced ops on the same inputs.
EXACT_COUNTS = (SVD, "scm.contingency_counts", "reduced.eta_from_counts",
                "causal.lbfgs_iterations", "bench.model_draw")

TIMED_LAYERS = {
    "fileio.load_dataset_s": "fileio.load_dataset",
    "fileio.save_dataset_s": "fileio.save_dataset",
    "scm.simulate_dataset_s": "scm.simulate_dataset",
    "scm.interventional_sample_s": "scm.interventional_sample",
    "scm.contingency_counts_s": "scm.contingency_counts",
    "reduced.eta_from_counts_s": "reduced.eta_from_counts",
    "reduced.reduced_estimate_s": "reduced.reduced_estimate",
    "reduced.grad_h_s": "reduced.grad_h",
    "reduced.bootstrap_ci_s": "reduced.bootstrap_ci",
    "categorical.svd_s": SVD,
    "causal.fit_causal_s": "causal.fit_causal",
    "baselines.no_adjustment_s": "baselines.no_adjustment",
    "baselines.w_adjustment_s": "baselines.w_adjustment",
    "baselines.oracle_estimate_s": "baselines.oracle_estimate",
    "identify.identify_effect_s": "identify.identify_effect",
}

COUNTED_LAYERS = {
    "scm.contingency_counts_calls": "scm.contingency_counts",
    "reduced.eta_from_counts_calls": "reduced.eta_from_counts",
    "categorical.svd_calls": SVD,
    "causal.lbfgs_iterations": "causal.lbfgs_iterations",
    "bench.model_draws": "bench.model_draw",
}


@dataclass(frozen=True)
class Root:
    """One traced op: its root span, whether it is the workload's own op or
    a probe, what kind of op it is, and how many replicates it ran."""

    index: int
    group: str          # "op" or "probe"
    kind: str           # "cli" or "study"
    replicates: int
    failures: int       # failure rows, or every replicate when the op raised


def _count(spans, indices, name: str) -> int:
    if name == "causal.lbfgs_iterations":
        return sum(spans[i][INFO]["iterations"] for i in indices
                   if spans[i][NAME] == "causal.fit_causal")
    return sum(1 for i in indices if spans[i][NAME] == name)


def exact_counts(tracer, root: Root) -> dict[str, int]:
    under = tracer.descendants(root.index, tracer.children())
    return {name: _count(tracer.spans, under, name) for name in EXACT_COUNTS}


def layer_metrics(tracer, roots: list[Root], import_s: float, untraced_op_s: float) -> dict:
    spans = tracer.spans
    kids = tracer.children()
    under = {r.index: tracer.descendants(r.index, kids) for r in roots}

    def duration(i: int) -> float:
        return spans[i][END] - spans[i][START]

    def chosen(name: str | None = None, kind: str | None = None) -> list[Root]:
        """Own ops that ran the layer (or are of the kind), else probes."""
        for group in ("op", "probe"):
            picked = [r for r in roots if r.group == group
                      and (kind is None or r.kind == kind)
                      and (name is None or any(spans[i][NAME] == name for i in under[r.index]))]
            if picked:
                return picked
        return []

    def calls(name: str) -> list[int]:
        return [i for r in chosen(name) for i in under[r.index] if spans[i][NAME] == name]

    def median_call(name: str) -> float:
        found = calls(name)
        return statistics.median(duration(i) for i in found) if found else 0.0

    def per_replicate(values_by_root) -> float:
        values = [value / r.replicates for r, value in values_by_root]
        return statistics.median(values) if values else 0.0

    def study_span(r: Root) -> int:
        return next(i for i in under[r.index] if spans[i][NAME] == "bench.study")

    metrics = {"cli.import_s": (import_s, "s")}
    for metric, name in TIMED_LAYERS.items():
        metrics[metric] = (median_call(name), "s")
    for metric, name in COUNTED_LAYERS.items():
        span_name = "causal.fit_causal" if name == "causal.lbfgs_iterations" else name
        metrics[metric] = (per_replicate((r, _count(spans, under[r.index], name))
                                         for r in chosen(span_name)), "count")

    fits = calls("causal.fit_causal")
    metrics["causal.converged_ratio"] = (
        sum(spans[i][INFO]["converged"] for i in fits) / len(fits) if fits else 0.0, "1")

    filters = calls("bench.accepted_model_candidates")
    drawn = sum(1 for f in filters for i in tracer.descendants(f, kids)
                if spans[i][NAME] == "bench.model_draw")
    accepted = sum(spans[f][INFO]["accepted"] for f in filters)
    metrics["bench.filter_accept_ratio"] = (accepted / drawn if drawn else 0.0, "1")

    studies = chosen(kind="study")
    metrics["bench.replicate_s"] = (
        per_replicate((r, duration(study_span(r))) for r in studies), "s")
    metrics["bench.self_s"] = (
        per_replicate((r, tracer.self_time(study_span(r), kids)) for r in studies), "s")
    metrics["bench.failed_replicates"] = (
        per_replicate((r, r.failures) for r in studies), "count")

    # Shares that test the reasons the workloads were chosen.
    estimate = median_call("cli.estimate")
    metrics["share.import_load_of_estimate"] = (
        (import_s + metrics["fileio.load_dataset_s"][0]) / (import_s + estimate), "1")

    def reduced_share(r: Root) -> float:
        study = study_span(r)
        top = [i for i in under[r.index] if spans[i][NAME].startswith("reduced.")
               and not _inside_reduced(spans, i)]
        return sum(duration(i) for i in top) / duration(study)

    shares = [reduced_share(r) for r in studies]
    metrics["share.reduced_of_replicate"] = (
        statistics.median(shares) if shares else 0.0, "1")

    own = [duration(r.index) for r in roots if r.group == "op"]
    metrics["trace.overhead_ratio"] = (statistics.median(own) / untraced_op_s, "1")
    return metrics


def _inside_reduced(spans, index: int) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME].startswith("reduced."):
            return True
        parent = spans[parent][PARENT]
    return False
