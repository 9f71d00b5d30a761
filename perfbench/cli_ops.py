"""The analyst's command-line cycle: ``simulate`` writes a CSV, ``estimate``
reads it back, ``identify`` evaluates the drawn model.

A cycle runs either as three child processes (the end-to-end numbers, timed
from spawn to parsed JSON, with each child's peak RSS from ``wait4``) or as
three in-process ``proxyshift.cli.main`` calls (the traced run).  Every
output is checked against an in-process reference computed from the same
seeds, which also checks the CSV round trip.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

X, Y = 1, 1               # 1-based, as on the command line
ALPHA = 0.05
BOOTSTRAP_B = 200
ESTIMATE_TOL = 1e-12      # CLI estimate vs in-process estimate on the same records
IDENTIFY_TOL = 1e-8       # identify effect vs scm.true_effect
CHILD_TIMEOUT_S = 150.0
COMMANDS = ("simulate", "estimate", "identify")


@dataclass(frozen=True)
class CliCase:
    """Inputs of one cycle: dimensions, record count, seeds and file paths."""

    dims: tuple[int, int, int, int, int]   # (k_e, k_u, k_w, k_x, k_y)
    n: int
    sim_seed: int
    boot_seed: int
    workdir: Path
    tag: str

    def path(self, kind: str) -> Path:
        suffix = "csv" if kind == "data" else "json"
        return self.workdir / f"{self.tag}-{kind}.{suffix}"

    def argv(self, command: str) -> list[str]:
        model, data, dims = (str(self.path(k)) for k in ("model", "data", "dims"))
        if command == "simulate":
            flags = []
            for axis, k in zip("euwxy", self.dims):
                flags += [f"--k-{axis}", str(k)]
            return ["simulate", *flags, "--seed", str(self.sim_seed), "--n", str(self.n),
                    "--out-model", model, "--out-data", data, "--out-dims", dims]
        if command == "estimate":
            return ["estimate", "--data", data, "--dims", dims, "--x", str(X), "--y", str(Y),
                    "--method", "reduced", "--alpha", str(ALPHA),
                    "--bootstrap", str(BOOTSTRAP_B), "--seed", str(self.boot_seed)]
        return ["identify", "--model", model, "--x", str(X), "--y", str(Y)]


@dataclass(frozen=True)
class Reference:
    point: float
    ci_lower: float
    ci_upper: float
    boot_lower: float
    boot_upper: float
    truth: float


def reference(case: CliCase) -> Reference:
    """Draw the model and records exactly as ``proxyshift simulate`` does and
    estimate in process.  This is the cycle's fixture."""
    from proxyshift import (CategorySpec, bootstrap_ci, reduced_estimate,
                            sample_scm_spec, simulate_dataset, true_effect)

    rng = np.random.default_rng(case.sim_seed)
    spec = sample_scm_spec(CategorySpec(*case.dims), rng)
    ds = simulate_dataset(spec, case.n, rng)
    est = reduced_estimate(ds, X - 1, Y - 1, alpha=ALPHA)
    boot = bootstrap_ci(ds, X - 1, Y - 1, BOOTSTRAP_B, alpha=ALPHA, rng=case.boot_seed)
    return Reference(est.point, est.ci_lower, est.ci_upper, boot.ci_lower,
                     boot.ci_upper, true_effect(spec, X - 1, Y - 1))


def check(command: str, code: int, doc, ref: Reference, case: CliCase) -> list[str]:
    """Problems with one command's result; empty when it is correct."""
    if code != 0:
        return [f"{command}: exit code {code}"]
    problems = []
    try:
        if command == "simulate":
            with open(case.path("dims")) as handle:
                declared = json.load(handle)
            if tuple(declared[f"k_{a}"] for a in "euwxy") != case.dims:
                problems.append(f"simulate: dims sidecar {declared} != {case.dims}")
        elif command == "estimate":
            if doc["n"] != case.n:
                problems.append(f"estimate: n={doc['n']}, expected {case.n}")
            pairs = [("point", doc["point"], ref.point),
                     ("ci_lower", doc["ci_lower"], ref.ci_lower),
                     ("ci_upper", doc["ci_upper"], ref.ci_upper),
                     ("bootstrap.ci_lower", doc["bootstrap"]["ci_lower"], ref.boot_lower),
                     ("bootstrap.ci_upper", doc["bootstrap"]["ci_upper"], ref.boot_upper)]
            for key, got, want in pairs:
                if not abs(got - want) <= ESTIMATE_TOL:
                    problems.append(f"estimate: {key}={got!r}, in-process {want!r}")
        elif abs(doc["effect"] - ref.truth) > IDENTIFY_TOL:
            problems.append(f"identify: effect={doc['effect']!r}, truth {ref.truth!r}")
    except (KeyError, TypeError, OSError, ValueError) as exc:
        problems.append(f"{command}: malformed output ({type(exc).__name__}: {exc})")
    return problems


@dataclass(frozen=True)
class CommandResult:
    command: str
    code: int
    doc: object
    seconds: float
    rss_mb: float | None
    stderr: str


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(case: CliCase, command: str, env: dict) -> CommandResult:
    """Run one command as ``python -m proxyshift``; time it from spawn to
    parsed JSON and read its peak RSS from its own rusage."""
    out_path = case.workdir / f"{case.tag}-{command}.out"
    err_path = case.workdir / f"{case.tag}-{command}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "proxyshift", *case.argv(command)],
                                stdout=out, stderr=err, env=env, cwd=case.workdir)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    text = out_path.read_text()
    doc = json.loads(text) if text.strip() else None
    seconds = time.perf_counter() - start
    return CommandResult(command, proc.returncode, doc, seconds,
                         usage.ru_maxrss / 1024.0, err_path.read_text())


def run_in_process(case: CliCase, command: str, tracer=None) -> CommandResult:
    """Run one command through ``proxyshift.cli.main`` in this process,
    inside a ``cli.<command>`` span when a tracer is given."""
    from proxyshift import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        if tracer is None:
            code = cli.main(case.argv(command))
        else:
            code = tracer.traced(f"cli.{command}", cli.main, case.argv(command))
    text = stdout.getvalue()
    doc = json.loads(text) if text.strip() else None
    return CommandResult(command, code, doc, time.perf_counter() - start, None,
                         stderr.getvalue())
