"""Spans around the public functions of exprk, recorded from outside the package.

`Tracer.installed()` replaces each function in TARGETS, in every exprk
module that holds a reference to it, by a wrapper that records a span
(name, start, end, parent, operation) in memory, plus a few counts computed
from the arguments. Leaving the context puts the originals back. Nothing in
exprk itself changes, so outputs are the same with tracing on and off.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import statistics
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional

import numpy as np

from exprk import (cli, convergence, discretize, matfuncs, orderconditions, probes,
                   stepping, tableaus)

_PADE13_BOUND = 5.37  # expm's scaling threshold on the 1-norm (see matfuncs.expm)
_PHI_TAYLOR_CUTOFF = 0.1  # phi_values uses its Taylor branch below this |z|


def _steps(T, tau):
    return int(round(T / tau))


def _count_solve(c, a):
    c["stepping.steps"] += _steps(a["T"], a["tau"])


def _count_rk4(c, a):
    c["stepping.rk4_steps"] += _steps(a["T"], a["tau_ref"])


def _count_expm(c, a):
    norm1 = float(np.linalg.norm(np.asarray(a["M"], dtype=float), 1))
    if norm1 > _PADE13_BOUND:
        c["matfuncs.expm.squarings"] += max(0, math.ceil(math.log2(norm1 / _PADE13_BOUND)))


def _count_phi_values(c, a):
    if a["k"] >= 1:
        z = np.abs(np.asarray(a["z"], dtype=float))
        c["phi_values.args"] += z.size
        c["phi_values.taylor_args"] += int((z < _PHI_TAYLOR_CUTOFF).sum())


def _count_fourier(c, a):
    c["probes.fourier_terms"] += int(a["x_grid"]) * max(int(N) for N in a["N_list"])


# (span name, owner, attribute, counter); owner is a module or a class.
TARGETS = (
    ("discretize.build_operators", discretize, "build_operators", None),
    ("discretize.discrete_norms", discretize, "discrete_norms", None),
    ("matfuncs.expm", matfuncs, "expm", _count_expm),
    ("matfuncs.phi_values", matfuncs, "phi_values", _count_phi_values),
    ("matfuncs.phi_combination", matfuncs, "phi_combination", None),
    ("matfuncs.phi_matrix", matfuncs, "phi_matrix", None),
    ("matfuncs.sym_eigen", matfuncs, "sym_eigen", None),
    ("matfuncs.frac_power", matfuncs, "frac_power", None),
    ("linalg.eigh", np.linalg, "eigh", None),
    ("tableaus.PhiCombo.eval_matrix", tableaus.PhiCombo, "eval_matrix", None),
    ("stepping.Stepper", stepping.Stepper, "__init__", None),
    ("stepping.solve", stepping, "solve", _count_solve),
    ("stepping.solve_reference_rk4", stepping, "solve_reference_rk4", _count_rk4),
    ("stepping.default_reference_step", stepping, "default_reference_step", None),
    ("stepping.spectral_radius_estimate", stepping, "spectral_radius_estimate", None),
    ("convergence.run_experiment", convergence, "run_experiment", None),
    ("convergence.fit_order", convergence, "fit_order", None),
    ("convergence.render_csv", convergence, "render_csv", None),
    ("probes.smoothing_probe", probes, "smoothing_probe", None),
    ("probes.relative_boundedness_probe", probes, "relative_boundedness_probe", None),
    ("probes.fourier_beta_probe", probes, "fourier_beta_probe", _count_fourier),
    ("probes.operator_2norm", probes, "operator_2norm", None),
    ("orderconditions.full_report", orderconditions, "full_report", None),
    ("orderconditions.check_condition", orderconditions, "check_condition", None),
    ("cli.main", cli, "main", None),
)

COUNTS = ("stepping.steps", "stepping.rk4_steps", "matfuncs.expm.squarings",
          "probes.fourier_terms")


def layer_metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for name, *_ in TARGETS:
        out += [(f"{name}.s", "s"), (f"{name}.self_s", "s"), (f"{name}.calls", "count")]
    out += [(c, "count") for c in COUNTS]
    out += [("stepping.step_us", "us"), ("matfuncs.phi_values.taylor_share", "share"),
            ("cli.import_s", "s"), ("trace.spans", "count"), ("trace.overhead", "share")]
    return out


class Tracer:
    """In-memory spans and counts for the calls made while installed."""

    def __init__(self):
        self.spans: List[tuple] = []  # (name, start, end, parent index, op)
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []
        self._op: Optional[str] = None

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self._op)

    @contextlib.contextmanager
    def operation(self, op: str):
        """Root span of one benchmark operation; its descendants share `op`."""
        self._op = op
        try:
            with self.span(f"op.{op}"):
                yield
        finally:
            self._op = None

    def _wrap(self, name, fn, counter):
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self.counts, bound.arguments)
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target in every exprk module that refers to it."""
        undo = []
        try:
            for name, owner, attr, counter in TARGETS:
                orig = getattr(owner, attr)
                wrapped = self._wrap(name, orig, counter)
                holders = [owner] + [m for key, m in list(sys.modules.items())
                                     if key.startswith("exprk") and m is not owner]
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is orig:
                            setattr(holder, key, wrapped)
                            undo.append((holder, key, orig))
            yield self
        finally:
            for holder, key, orig in reversed(undo):
                setattr(holder, key, orig)

    def layer_totals(self) -> Dict[str, float]:
        """Per-target total time, self time and calls; self excludes child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for name, *_ in TARGETS:
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.calls"] = 0
        for (name, start, end, _, _), covered in zip(self.spans, child):
            if f"{name}.calls" in out:
                out[f"{name}.s"] += end - start
                out[f"{name}.self_s"] += end - start - covered
                out[f"{name}.calls"] += 1
        for key in COUNTS:
            out[key] = self.counts.get(key, 0)
        steps = out["stepping.steps"]
        out["stepping.step_us"] = out["stepping.solve.self_s"] / steps * 1e6 if steps else 0.0
        args = self.counts.get("phi_values.args", 0)
        out["matfuncs.phi_values.taylor_share"] = (
            self.counts.get("phi_values.taylor_args", 0) / args if args else 0.0)
        out["trace.spans"] = len(self.spans)
        return out

    def columns(self) -> Dict[str, list]:
        """Spans as columns: name, start and end (s from the first span), parent index, op."""
        t0 = self.spans[0][1] if self.spans else 0.0
        cols = {"name": [], "start": [], "end": [], "parent": [], "op": []}
        for name, start, end, parent, op in self.spans:
            cols["name"].append(name)
            cols["start"].append(round(start - t0, 9))
            cols["end"].append(round(end - t0, 9))
            cols["parent"].append(parent)
            cols["op"].append(op)
        return cols


def median_totals(passes: List[Dict[str, float]]) -> Dict[str, float]:
    """Median of each per-layer value over traced passes."""
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}
