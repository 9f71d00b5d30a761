"""Command-line front end.

Subcommands: ``simulate`` (draw a model and dataset), ``estimate`` (one
estimator on a dataset file), ``identify`` (population-level effect from a
model file), ``bench`` (the simulation studies), ``reduce-proxy`` and
``discretize``.  Results go to stdout or ``--out``; diagnostics go to
stderr.  Exit codes: 0 success, 1 usage error, 2 data or estimation error.
All randomness is controlled by explicit ``--seed`` flags; there is
deliberately no environment-variable fallback.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace

import numpy as np

from . import __version__
from .baselines import no_adjustment, w_adjustment, wald_interval
from .bench import (ExperimentConfig, run_baseline_comparison, run_coverage,
                    run_point_error, run_runtime)
from .categorical import CategorySpec, condition_number
from .causal import FitOptions, causal_estimate
from .errors import DatasetFormatError, ProxyShiftError
from .fileio import (atomic_write_text, dims_from_dict, load_dataset, load_dims,
                     load_model, save_dataset, save_dims, save_model, write_json,
                     write_records_csv)
from .identify import Partition, discretize_proxy, identify_effect, reduce_proxy
from .reduced import bootstrap_ci, reduced_estimate
from .scm import population_views, sample_scm_spec, simulate_dataset

USAGE_ERROR = 1
DATA_ERROR = 2


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for
    data errors, so remap."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        atomic_write_text(out_path, text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _emit_json(obj, out_path: str | None) -> None:
    _emit(json.dumps(obj, indent=2, sort_keys=True), out_path)


def _dims_from_args(args) -> CategorySpec:
    if args.dims:
        return load_dims(args.dims)
    values = {k: getattr(args, k) for k in ("k_e", "k_u", "k_w", "k_x", "k_y")}
    if any(v is None for v in values.values()):
        missing = [k for k, v in values.items() if v is None]
        raise ProxyShiftError(
            f"dimensions required: pass --dims FILE or all of "
            f"{', '.join('--' + k.replace('_', '-') for k in missing)}")
    return CategorySpec(**values)


def _add_dims_flags(parser) -> None:
    parser.add_argument("--dims", help="dimensions sidecar JSON")
    for axis in ("e", "u", "w", "x", "y"):
        parser.add_argument(f"--k-{axis}", type=int, dest=f"k_{axis}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="proxyshift",
                     description="Causal effect estimation in unseen target domains "
                                 "from confounder proxies")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw a random model and simulate a dataset")
    _add_dims_flags(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="number of records")
    p.add_argument("--out-model", help="write the drawn model JSON here")
    p.add_argument("--out-data", help="write the dataset CSV here")
    p.add_argument("--out-dims", help="write the dimensions sidecar here")

    p = sub.add_parser("estimate", help="estimate the effect from a dataset file")
    p.add_argument("--data", required=True)
    p.add_argument("--dims", required=True)
    p.add_argument("--x", type=int, required=True, help="treatment category (1-based)")
    p.add_argument("--y", type=int, required=True, help="outcome category (1-based)")
    p.add_argument("--method", choices=["reduced", "causal", "noadj", "wadj"],
                   default="reduced")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--bootstrap", type=int, metavar="B",
                   help="also compute a bootstrap interval with B resamples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k-u-fit", type=int,
                   help="confounder cardinality for the mechanism fit "
                        "(defaults to the declared k_u)")
    p.add_argument("--out")

    p = sub.add_parser("identify", help="population-level effect from a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--out")

    p = sub.add_parser("bench", help="run a simulation study")
    p.add_argument("study", choices=["point-error", "baselines", "coverage", "runtime"])
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out-csv", help="replicate records CSV")
    p.add_argument("--out-json", help="summary JSON")
    p.add_argument("--workers", type=int, help="override the configured worker count")

    p = sub.add_parser("reduce-proxy",
                       help="merge redundant proxy categories of a model's "
                            "proxy conditional matrix")
    p.add_argument("--model", required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--out")

    p = sub.add_parser("discretize", help="bin continuous proxy readings")
    p.add_argument("--values", required=True,
                   help="file with one numeric reading per line")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--edges",
                       help="comma-separated interior bin edges, ascending")
    group.add_argument("--partition",
                       help="partition JSON with 'edges' and optional "
                            "'lower'/'upper' support bounds")
    p.add_argument("--out")
    return parser


def _cmd_simulate(args) -> int:
    from .fileio import model_to_dict

    dims = _dims_from_args(args)
    rng = np.random.default_rng(args.seed)
    spec = sample_scm_spec(dims, rng)
    ds = simulate_dataset(spec, args.n, rng)
    wrote = False
    if args.out_model:
        save_model(spec, args.out_model)
        wrote = True
    if args.out_data:
        save_dataset(ds, args.out_data)
        wrote = True
    if args.out_dims:
        save_dims(dims, args.out_dims)
        wrote = True
    if not wrote:
        # no output paths: print the drawn model (datasets need --out-data)
        _emit_json(model_to_dict(spec), None)
    return 0


def _check_xy(dims: CategorySpec, x: int, y: int | None = None) -> None:
    if not 0 <= x < dims.k_x or (y is not None and not 0 <= y < dims.k_y):
        raise ProxyShiftError(
            f"x/y out of range: x in 1..{dims.k_x}, y in 1..{dims.k_y}")


def _cmd_estimate(args) -> int:
    dims = load_dims(args.dims)
    ds = load_dataset(args.data, dims)
    x, y = args.x - 1, args.y - 1
    _check_xy(dims, x, y)
    out: dict = {"method": args.method, "x": args.x, "y": args.y}
    if args.method == "reduced":
        est = reduced_estimate(ds, x, y, alpha=args.alpha)
        out.update(est.to_dict())
        if args.bootstrap:
            boot = bootstrap_ci(ds, x, y, args.bootstrap, alpha=args.alpha,
                                rng=args.seed)
            out["bootstrap"] = {"ci_lower": boot.ci_lower, "ci_upper": boot.ci_upper,
                                "sigma_boot": boot.sigma_boot, "b": args.bootstrap,
                                "failed": boot.failed, "perturbed": boot.perturbed}
    elif args.method == "causal":
        k_u = dims.k_u if args.k_u_fit is None else args.k_u_fit
        est = causal_estimate(ds, x, y, FitOptions(seed=args.seed), k_u=k_u)
        out.update(est.to_dict())
        if k_u != dims.k_u:
            out["k_u_fit"] = k_u
            out["k_u_overridden"] = True
    elif args.method == "noadj":
        point = no_adjustment(ds, x, y)
        lo, hi = wald_interval(point, int(ds.n_yxwe[:, x].sum()), args.alpha)
        out.update({"point": point, "ci_lower": lo, "ci_upper": hi,
                    "alpha": args.alpha, "n": ds.n})
    else:  # wadj
        out.update({"point": w_adjustment(ds, x, y), "n": ds.n})
    _emit_json(out, args.out)
    return 0


def _cmd_identify(args) -> int:
    spec = load_model(args.model)
    x, y = args.x - 1, args.y - 1
    _check_xy(spec.dims, x, y)
    views = population_views(spec, x, y)
    effect = identify_effect(views.p_y_ex, views.p_w_ex, views.q_w)
    _emit_json({"effect": effect, "x": args.x, "y": args.y,
                "kappa": condition_number(views.p_w_ex)}, args.out)
    return 0


def _check_keys(doc: dict, what: str, required=(), cls=None) -> None:
    """Refuse a missing ``required`` key, or a key not a field of ``cls``."""
    for key in required:
        if key not in doc:
            raise DatasetFormatError(f"{what} is missing key {key!r}")
    unknown = sorted(set(doc) - {f.name for f in fields(cls)}) if cls else []
    if unknown:
        raise DatasetFormatError(f"{what} has unknown keys: {', '.join(unknown)}")


def _config_from_file(path) -> ExperimentConfig:
    with open(path) as handle:
        doc = json.load(handle)
    _check_keys(doc, "config file", ("dims",), ExperimentConfig)
    dims = dims_from_dict(doc.pop("dims"))
    fit_doc = doc.pop("fit_options", {})
    _check_keys(fit_doc, "config fit_options", cls=FitOptions)
    if "n_sweep" in doc and doc["n_sweep"] is not None:
        doc["n_sweep"] = tuple(doc["n_sweep"])
    if "estimators" in doc:
        doc["estimators"] = tuple(doc["estimators"])
    return ExperimentConfig(dims=dims, fit_options=FitOptions(**fit_doc), **doc)


def _cmd_bench(args) -> int:
    config = _config_from_file(args.config)
    if args.workers is not None:
        config = replace(config, workers=args.workers)
    summary: dict = {"study": args.study, "master_seed": config.master_seed}
    records = None
    if args.study == "point-error":
        records = run_point_error(config)
    elif args.study == "baselines":
        records = run_baseline_comparison(config)
    elif args.study == "coverage":
        records, coverage = run_coverage(config)
        summary["coverage"] = {str(n): v for n, v in coverage.items()}
    else:
        timing = run_runtime(config)
        summary["runtime"] = {str(n): v for n, v in timing.items()}
    if records is not None:
        by_est: dict = {}
        for r in records:
            if r.error is None:
                by_est.setdefault(r.estimator, []).append(r.abs_error)
        summary["median_abs_error"] = {k: float(np.median(v)) for k, v in by_est.items()}
        summary["failures"] = sum(1 for r in records if r.error is not None)
        if args.out_csv:
            write_records_csv(records, args.out_csv)
    if args.out_json:
        write_json(args.out_json, summary)
    if not args.out_json and not args.out_csv:
        _emit_json(summary, None)
    return 0


def _cmd_reduce_proxy(args) -> int:
    spec = load_model(args.model)
    _check_xy(spec.dims, args.x - 1)
    views = population_views(spec, args.x - 1, 0)
    mapping = reduce_proxy(views.p_w_ex)
    _emit_json({
        "k_w": mapping.k_w,
        "k_w_reduced": mapping.k_w_reduced,
        "assignment": [int(a) + 1 for a in mapping.assignment],
        "merges": [{"merged": s.merged + 1, "into": s.into + 1,
                    "coefficient": s.coefficient} for s in mapping.merges],
    }, args.out)
    return 0


def _cmd_discretize(args) -> int:
    if args.edges:
        partition = Partition(tuple(float(v) for v in args.edges.split(",")))
    else:
        with open(args.partition) as handle:
            doc = json.load(handle)
        _check_keys(doc, "partition file", ("edges",))
        partition = Partition(tuple(doc["edges"]),
                              lower=doc.get("lower", float("-inf")),
                              upper=doc.get("upper", float("inf")))
    with open(args.values) as handle:
        values = [float(line) for line in handle if line.strip()]
    codes = discretize_proxy(values, partition)
    _emit("\n".join(str(int(c)) for c in codes), args.out)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "identify": _cmd_identify,
    "bench": _cmd_bench,
    "reduce-proxy": _cmd_reduce_proxy,
    "discretize": _cmd_discretize,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return _COMMANDS[args.command](args)
    except (ProxyShiftError, FileNotFoundError, json.JSONDecodeError, ValueError) as exc:
        print(f"proxyshift: error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
