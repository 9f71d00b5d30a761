"""proxyshift benchmark: one workload per invocation, from a repository checkout.

    python3 perfbench/run.py --workload cli-file --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` is a separate pass that wraps the library's public functions
and reports the per-layer metrics.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; a readable
summary and the machine record go to standard error, and the full result
(samples, problems, environment) plus the traced spans are written under
``.perfbench/results/``.  ``--size tiny`` runs the same workloads at toy
sizes for the smoke tests.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3      # set-up runs per invocation; setup_s is their median
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_REPEATS = 3     # subprocess imports timed for cli.import_s
WARMUP_MASTER_SEED = 0  # master seed of the one-replicate study warm-up
MIN_TRACED_OPS = 2     # exact counts must repeat between traced ops


@dataclass(frozen=True)
class Workload:
    """The CLI cycle (the main op of ``cli-file``; a control after the study
    loop otherwise) and the study, if any, whose calls are the main op."""

    cli_dims: tuple[int, int, int, int, int]
    cli_n: int
    warm_n: int | None = None          # size of the CLI warm-up cycle
    study: StudySpec | None = None     # from perfbench.studies


def workloads(size: str) -> dict[str, Workload]:
    from perfbench.studies import StudySpec

    wide, small = (30, 10, 10, 2, 2), (2, 2, 2, 2, 2)
    if size == "tiny":
        wide_tiny = (4, 3, 3, 2, 2)
        return {
            "cli-file": Workload((3, 3, 3, 2, 2), 3_000, warm_n=1_000),
            "coverage-wide": Workload(wide_tiny, 4_000, study=StudySpec(
                "coverage", wide_tiny, 4_000, 1, 1, 50, max_median_abs_error=0.5)),
            "baselines-large-n": Workload(small, 4_000, study=StudySpec(
                "baselines", small, 4_000, 1, 1, 50, max_median_abs_error=0.9)),
        }
    return {
        "cli-file": Workload((3, 3, 3, 2, 2), 1_000_000, warm_n=10_000),
        "coverage-wide": Workload(wide, 20_000, study=StudySpec(
            "coverage", wide, 20_000, 4, 2, 200, max_median_abs_error=0.2)),
        "baselines-large-n": Workload(small, 200_000, study=StudySpec(
            "baselines", small, 200_000, 4, 1, 200, max_median_abs_error=0.5)),
    }


def derive(seed: int, *key: int) -> int:
    """A 32-bit seed for one input, derived from the workload seed."""
    import numpy as np

    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


class Run:
    """Counts attempted and failed ops; an op fails on a raised error or a
    failed output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, label: str, fn, checker=None):
        self.attempted += 1
        try:
            result = fn()
        except Exception:
            self.fail(f"{label}: raised\n{traceback.format_exc()}")
            return None
        problems = checker(result) if checker else []
        if problems:
            self.fail(f"{label}: " + "; ".join(problems))
        return result

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)
        print(f"perfbench: FAILED {message}", file=sys.stderr)


def cli_command(run: Run, case, ref, command: str, env=None, tracer=None):
    """One CLI command, as a child when ``env`` is given, else in process;
    ``None`` when it raised or failed its output check."""
    from perfbench.cli_ops import check, run_child, run_in_process

    if env is not None:
        fn = lambda: run_child(case, command, env)  # noqa: E731
    else:
        fn = lambda: run_in_process(case, command, tracer)  # noqa: E731
    return run.op(f"{case.tag} {command}", fn,
                  lambda r: check(command, r.code, r.doc, ref, case))


def cli_cycle(run: Run, case, ref, env=None, tracer=None):
    """simulate -> estimate -> identify.  Returns ``{command: CommandResult}``
    or ``None``."""
    from perfbench.cli_ops import COMMANDS

    results = {}
    for command in COMMANDS:
        result = cli_command(run, case, ref, command, env, tracer)
        if result is None:
            return None
        results[command] = result
    return results


def study_op(run: Run, spec, master_seed: int, tracer=None):
    from perfbench.studies import check_study, run_study

    return run.op(f"{spec.kind} study (master_seed={master_seed})",
                  lambda: run_study(spec, master_seed, tracer),
                  lambda r: check_study(spec, r))


def warm_up(run: Run, wl: Workload, case, env=None) -> None:
    """One small cycle of the workload's own op: a CLI cycle at ``warm_n``
    records, or a one-replicate study with a fixed master seed (so set-up
    time does not follow the model draw).  One replicate says nothing about
    accuracy, so only the structural checks apply to it."""
    from perfbench.cli_ops import reference

    if wl.study is None:
        warm = replace(case, n=wl.warm_n, tag="warm")
        warm_ref = run.op("warm-up fixture", lambda: reference(warm))
        if warm_ref is not None:
            cli_cycle(run, warm, warm_ref, env)
    else:
        spec = replace(wl.study, n_models=1, n_datasets=1, max_median_abs_error=1.0)
        study_op(run, spec, WARMUP_MASTER_SEED)


def main_case(wl: Workload, seed: int, workdir: Path, tag: str = "main"):
    from perfbench.cli_ops import CliCase

    return CliCase(wl.cli_dims, wl.cli_n, derive(seed, 1), derive(seed, 2), workdir, tag)


def median(values) -> float:
    return float(statistics.median(values))


# -- end-to-end pass ---------------------------------------------------------

def measure(run: Run, wl: Workload, seed: int, seconds: float, workdir: Path):
    from perfbench.cli_ops import COMMANDS, child_env, reference

    env = child_env(ROOT)
    case = main_case(wl, seed, workdir)
    setups = []
    ref = None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ref = run.op("fixture", lambda: reference(case))
        warm_up(run, wl, case, env)
        setups.append(time.perf_counter() - start)
    if ref is None:
        return None, {}

    commands = {c: [] for c in COMMANDS}
    studies = []
    start = time.perf_counter()
    if wl.study is None:
        while not commands["identify"] or time.perf_counter() - start < seconds:
            result = cli_cycle(run, case, ref, env)
            if result is None:
                break
            for command, r in result.items():
                commands[command].append(r)
    else:
        # Rounds of one study call and one control command (simulate, then
        # estimate, then identify, in turn), so both streams are sampled
        # over the whole run.  Each call draws fresh models (master seed
        # keyed by the call index), so a run averages the mechanism-fit cost
        # over many model draws.
        index = 0
        while not commands["identify"] or time.perf_counter() - start < seconds:
            study = study_op(run, wl.study, derive(seed, 3, index))
            command = cli_command(run, case, ref, COMMANDS[index % len(COMMANDS)], env)
            index += 1
            if study is None or command is None:
                break
            studies.append(study)
            commands[command.command].append(command)
    if not commands["identify"]:
        return None, {}

    latency = {c: [r.seconds for r in rs] for c, rs in commands.items()}
    if wl.study is None:
        replicates_per_s = len(latency["identify"]) / sum(sum(v) for v in latency.values())
        peak_rss_mb = max(r.rss_mb for rs in commands.values() for r in rs)
    else:
        # Total over total: the fit's cost varies several-fold between model
        # draws, and the run's throughput is what those draws cost together.
        replicates_per_s = (len(studies) * wl.study.replicates
                            / sum(s.seconds for s in studies))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (median(setups), "s"),
        "estimate_latency_s": (median(latency["estimate"]), "s"),
        "simulate_latency_s": (median(latency["simulate"]), "s"),
        "identify_latency_s": (median(latency["identify"]), "s"),
        "replicates_per_s": (replicates_per_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    samples = {"setup_s": setups, **{f"{c}_latency_s": v for c, v in latency.items()},
               "study_s": [s.seconds for s in studies],
               "cli_child_rss_mb": [r.rss_mb for rs in commands.values() for r in rs]}
    return metrics, samples


# -- traced pass ---------------------------------------------------------------

def import_seconds(env) -> float:
    """Median wall time of a fresh ``python -c "import proxyshift.cli"``."""
    times = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import proxyshift.cli"], env=env,
                       cwd=ROOT, check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return median(times)


def trace(run: Run, name: str, size: str, seed: int, seconds: float, workdir: Path,
          spans_path: Path):
    from perfbench import layers
    from perfbench.cli_ops import child_env, reference
    from perfbench.tracer import Tracer

    wl = workloads(size)[name]
    case = main_case(wl, seed, workdir)
    ref = run.op("fixture", lambda: reference(case))
    import_s = run.op("import proxyshift.cli", lambda: import_seconds(child_env(ROOT)))
    if ref is None or import_s is None:
        return None, {}

    # An op returns its failure rows: 0 for a CLI cycle that passed its
    # checks, every replicate when the op raised.
    def cli_op(c, r):
        return lambda tracer: 0 if cli_cycle(run, c, r, tracer=tracer) is not None else 1

    def study_call(spec, master_seed):
        def op(tracer):
            result = study_op(run, spec, master_seed, tracer)
            return spec.replicates if result is None else result.summary["failures"]
        return op

    if wl.study is None:
        own = ("cli", 1, cli_op(case, ref))
    else:
        own = ("study", wl.study.replicates, study_call(wl.study, derive(seed, 3, 0)))

    # Probes: one tiny op of every other workload, so a layer this workload
    # bypasses is still timed (on the probe's inputs).
    probes = []
    for other_name, other in workloads("tiny").items():
        if other_name == name:
            continue
        if other.study is None:
            probe_case = main_case(other, seed, workdir, tag="probe")
            probe_ref = run.op("probe fixture", lambda: reference(probe_case))
            if probe_ref is not None:
                probes.append(("cli", 1, cli_op(probe_case, probe_ref)))
        else:
            probes.append(("study", other.study.replicates,
                           study_call(other.study, derive(seed, 5))))

    # Warm up as the end-to-end set-up does (in process), then time one
    # untraced op: the base of trace.overhead_ratio.
    warm_up(run, wl, case)
    start = time.perf_counter()
    own[2](None)
    untraced_s = time.perf_counter() - start

    tracer = Tracer()
    tracer.install()
    roots = []

    def traced_op(group, kind, replicates, op):
        index = tracer.open(group)
        try:
            failures = op(tracer)
        finally:
            tracer.close(index)
        roots.append(layers.Root(index, group, kind, replicates, failures))

    try:
        start = time.perf_counter()
        while len(roots) < MIN_TRACED_OPS or time.perf_counter() - start < seconds:
            traced_op("op", *own)
        for probe in probes:
            traced_op("probe", *probe)
    finally:
        tracer.uninstall()
    tracer.write(spans_path)

    counts = [layers.exact_counts(tracer, r) for r in roots if r.group == "op"]
    run.attempted += 1
    if any(c != counts[0] for c in counts):
        run.fail(f"exact counts differ between traced ops on the same inputs: {counts}")
    metrics = layers.layer_metrics(tracer, roots, import_s, untraced_s)
    return metrics, {"untraced_op_s": untraced_s, "exact_counts": counts,
                     "missing_trace_targets": tracer.missing}


# -- entry point -----------------------------------------------------------------

def run_workload(args) -> int:
    from perfbench.envinfo import environment

    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    workdir = ROOT / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    run = Run()
    try:
        if args.trace:
            metrics, detail = trace(run, args.workload, args.size, args.seed, args.seconds,
                                    workdir, results_dir / f"{stem}-spans.json")
        else:
            metrics, detail = measure(run, workloads(args.size)[args.workload],
                                      args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if metrics is None:
        print("perfbench: no op completed; no result", file=sys.stderr)
        return 1

    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    env = environment(ROOT)
    with open(results_dir / f"{stem}.json", "w") as handle:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "size": args.size, "trace": args.trace, "result": result,
                   "detail": detail, "problems": run.problems, "environment": env},
                  handle, indent=1)
    print(f"perfbench: {args.workload} seed={args.seed} trace={args.trace} "
          f"environment {json.dumps(env)}", file=sys.stderr)
    for key, sample in (detail.items() if not args.trace else ()):
        if isinstance(sample, list) and sample:
            print(f"perfbench:   {key}: n={len(sample)} median={median(sample):.6g} "
                  f"max={max(sample):.6g}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one table of metrics and units."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads(args.size):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited {proc.returncode} without a result",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        print(f"{name:18s} {'failed_ratio':32s} "
              f"{result['failed'] / result['attempted']:.6g} 1")
        for metric, entry in result["metrics"].items():
            print(f"{name:18s} {metric:32s} {entry['value']:.6g} {entry['unit']}")
            total["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cli-file", "coverage-wide", "baselines-large-n", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    args = parser.parse_args(argv)

    # One BLAS thread in this process and in every CLI child, which inherit
    # the environment: on a small shared host a second BLAS thread measures
    # the neighbours, not the program.  Set before numpy is first imported.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "proxyshift" / "__init__.py").is_file():
        print(f"perfbench: {src}/proxyshift not found; run from a checkout of the "
              f"repository", file=sys.stderr)
        return 2
    # The package is imported as ``perfbench.*`` from the root, never as
    # loose modules from this script's directory.
    sys.path[:] = [str(src), str(ROOT)] + [p for p in sys.path
                                          if Path(p or ".").resolve() != Path(__file__).resolve().parent]
    import proxyshift

    if Path(proxyshift.__file__).resolve().parent != (src / "proxyshift").resolve():
        print(f"perfbench: imported proxyshift from {proxyshift.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
