"""In-memory span tracer installed from outside the library.

Each wrapper replaces a function on the module attribute through which its
caller looks it up (``proxyshift.reduced.grad_h``, ``proxyshift.cli.load_dataset``,
...), so the library runs unmodified and the wrappers come off again with
:meth:`Tracer.uninstall`.  Spans are kept as ``[name, start, end, parent,
info]`` lists, ``info`` holding values read off the result (or ``None``),
and written out only when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# Every public function the traced runs time, by the module through which
# the library (or the CLI) calls it.  The span name is the layer metric
# prefix.  Targets missing from a module are skipped and reported, so a
# later refactor that moves a call shows up as an absent span, not a crash.
SVD = "categorical.svd"
TARGETS = {
    "proxyshift.cli": {
        "load_dataset": "fileio.load_dataset",
        "save_dataset": "fileio.save_dataset",
        "sample_scm_spec": "scm.sample_scm_spec",
        "simulate_dataset": "scm.simulate_dataset",
        "reduced_estimate": "reduced.reduced_estimate",
        "bootstrap_ci": "reduced.bootstrap_ci",
        "identify_effect": "identify.identify_effect",
        "condition_number": SVD,
    },
    "proxyshift.reduced": {
        "contingency_counts": "scm.contingency_counts",
        "eta_from_counts": "reduced.eta_from_counts",
        "grad_h": "reduced.grad_h",
        "right_pseudoinverse": SVD,
        "numeric_row_rank": SVD,
        "condition_number": SVD,
    },
    "proxyshift.identify": {
        "right_pseudoinverse": SVD,
        "numeric_row_rank": SVD,
        "condition_number": SVD,
    },
    "proxyshift.causal": {
        "contingency_counts": "scm.contingency_counts",
        "fit_causal": "causal.fit_causal",
    },
    "proxyshift.bench": {
        "sample_scm_spec": "bench.model_draw",
        "accepted_model_candidates": "bench.accepted_model_candidates",
        "simulate_dataset": "scm.simulate_dataset",
        "interventional_sample": "scm.interventional_sample",
        "eta_from_dataset": "reduced.eta_from_dataset",
        "reduced_estimate": "reduced.reduced_estimate",
        "bootstrap_ci": "reduced.bootstrap_ci",
        "causal_estimate": "causal.causal_estimate",
        "no_adjustment": "baselines.no_adjustment",
        "w_adjustment": "baselines.w_adjustment",
        "oracle_estimate": "baselines.oracle_estimate",
        "condition_number": SVD,
    },
}

NAME, START, END, PARENT, INFO = range(5)


class Tracer:
    """Records nested spans around wrapped calls."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    # -- spans ---------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][NAME]} closed out of order")

    def traced(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    # -- wrappers ------------------------------------------------------
    def _wrap(self, original, name: str):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if name == "causal.fit_causal":
                diag = result[1]
                tracer.spans[index][INFO] = {"iterations": int(diag.iterations),
                                             "converged": bool(diag.converged)}
            elif name == "bench.accepted_model_candidates":
                tracer.spans[index][INFO] = {"accepted": len(result)}
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attrs in TARGETS.items():
            module = importlib.import_module(module_name)
            for attr, name in attrs.items():
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                setattr(module, attr, self._wrap(original, name))
                self._installed.append((module, attr, original))
        if self.missing:
            print(f"perfbench: trace targets not found: {', '.join(self.missing)}",
                  file=sys.stderr)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    # -- queries -------------------------------------------------------
    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = {}
        for index, span in enumerate(self.spans):
            kids.setdefault(span[PARENT], []).append(index)
        return kids

    def self_time(self, index: int, kids: dict[int, list[int]]) -> float:
        """Duration minus the time covered by child spans (children of one
        span never overlap: the program is single-threaded)."""
        span = self.spans[index]
        covered = sum(self.spans[k][END] - self.spans[k][START]
                      for k in kids.get(index, ()))
        return (span[END] - span[START]) - covered

    def descendants(self, root: int, kids: dict[int, list[int]]) -> list[int]:
        out, todo = [], list(kids.get(root, ()))
        while todo:
            index = todo.pop()
            out.append(index)
            todo.extend(kids.get(index, ()))
        return out

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"columns": ["name", "start", "end", "parent", "info"],
                       "spans": self.spans, "missing_targets": self.missing}, handle)
