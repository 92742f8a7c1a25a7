"""Spans around the public functions of each bsdelab module, recorded from outside.

The modules bind each other's functions with ``from .x import f``, so a
function is wrapped where it is looked up: ``bsdelab.cli.make_grid``, not
``bsdelab.coefficients.make_grid``.  Every wrapped call records a span (name,
start, end, parent span, whether it raised); the hottest functions only count
their calls.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Optional

MB = 1e6


def _bundle_sizes(grid, dim, n_paths, *args, **kwargs) -> dict:
    steps = n_paths * (grid.n_points - 1) * dim
    levels = n_paths * grid.n_points * dim
    return {"paths.draws": steps, "paths.bundle_mb": (steps + levels) * 8 / MB}


def _design_size(basis, w, *args, **kwargs) -> dict:
    rows = len(w)
    cols = basis.design(w[:1]).shape[1]
    return {"lipschitz_solver.fit.design_mb": rows * cols * 8 / MB}


# (module, attribute at the call site, span name, group, hook computing sizes)
SPAN_SITES = (
    ("bsdelab.cli", "make_grid", "coefficients.make_grid", "coefficients.make_grid", None),
    ("bsdelab.cli", "simulate_paths", "paths.simulate_paths", "paths.simulate_paths",
     _bundle_sizes),
    ("bsdelab.lipschitz_solver", "fit_conditional", "lipschitz_solver.fit_conditional",
     "lipschitz_solver.fit", None),
    ("bsdelab.lipschitz_solver", "fit_coefficients", "lipschitz_solver.fit_coefficients",
     "lipschitz_solver.fit", _design_size),
    ("bsdelab.singular_scheme", "fit_coefficients", "lipschitz_solver.fit_coefficients",
     "lipschitz_solver.fit", _design_size),
    ("bsdelab.singular_scheme", "solve_regression_mc", "lipschitz_solver.solve_regression_mc",
     "lipschitz_solver.solve_regression_mc", None),
    ("bsdelab.singular_scheme", "solve_ode_mode", "lipschitz_solver.solve_ode_mode",
     "lipschitz_solver.solve_ode_mode", None),
    ("bsdelab.diagnostics", "solve_ode_mode", "lipschitz_solver.solve_ode_mode",
     "lipschitz_solver.solve_ode_mode", None),
    ("bsdelab.cli", "run_scheme", "singular_scheme.run_scheme", "singular_scheme.run_scheme",
     None),
    ("bsdelab.singular_scheme", "estimate_bmo", "singular_scheme.estimate_bmo",
     "singular_scheme.estimate_bmo", None),
    ("bsdelab.singular_scheme", "estimate_lambda_f_integral",
     "singular_scheme.estimate_lambda_f_integral",
     "singular_scheme.estimate_lambda_f_integral", None),
    ("bsdelab.cli", "solve_affine_plus", "affine.solve_affine_plus", "affine", None),
    ("bsdelab.affine", "classify_ode", "affine.classify_ode", "affine", None),
    ("bsdelab.diagnostics", "classify_ode", "affine.classify_ode", "affine", None),
    ("bsdelab.diagnostics", "fundamental_family", "affine.fundamental_family", "affine", None),
    ("bsdelab.diagnostics", "ode_family_member", "affine.ode_family_member", "affine", None),
    ("bsdelab.cli", "certify_nonexistence", "diagnostics.certify_nonexistence",
     "diagnostics.certify", None),
    ("bsdelab.cli", "certify_nonuniqueness", "diagnostics.certify_nonuniqueness",
     "diagnostics.certify", None),
    ("bsdelab.diagnostics", "residual_check", "diagnostics.residual_check",
     "diagnostics.residual_check", None),
)

# called up to ~10^5 times per run: count calls and errors, record no span
COUNT_SITES = (
    ("bsdelab.coefficients", "IntensityModel.cumulative", "coefficients.cumulative.calls"),
    ("bsdelab.coefficients", "IntensityModel.mass_inverse", "coefficients.mass_inverse.calls"),
    ("bsdelab.affine", "quad", "affine.quad_calls"),
)

GROUPS = sorted({site[3] for site in SPAN_SITES} | {"cli"})
LAYERS = ("coefficients", "paths", "lipschitz_solver", "singular_scheme", "affine",
          "diagnostics", "cli")


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    group: str
    start: float
    end: float = 0.0
    error: bool = False


class Tracer:
    """Records spans and counts for the wrapped call sites while installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo = []
        self.missing = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, fn, name: str, group: str, hook=None):
        """Wrap ``fn`` so that every call records a span (and the sizes ``hook`` computes)."""
        tracer = self

        def traced(*args, **kwargs):
            if hook is not None:
                tracer.counts.update(hook(*args, **kwargs))
            stack = tracer._stack()
            span = Span(next(tracer._ids), stack[-1] if stack else None, name, group,
                        time.perf_counter())
            stack.append(span.id)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)

        return traced

    def counter(self, fn, name: str):
        """Wrap ``fn`` so that every call and every exception it raises is counted."""
        tracer = self
        errors = name.split(".")[0] + ".errors"

        def counted(*args, **kwargs):
            tracer.counts[name] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.counts[errors] += 1
                raise

        return counted

    def install(self) -> None:
        """Replace every call site by its wrapper; sites that no longer exist are listed
        in ``missing`` and read as zero."""
        self.missing = []
        for module_name, attr, *rest in SPAN_SITES + COUNT_SITES:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, leaf, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if len(rest) == 3:
                wrapper = self.span(original, *rest)
            else:
                wrapper = self.counter(original, *rest)
            setattr(owner, leaf, wrapper)
            self._undo.append((owner, leaf, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, leaf, original = self._undo.pop()
            setattr(owner, leaf, original)

    def take(self) -> tuple:
        """Return and clear the spans and counts recorded so far."""
        spans, counts = self.spans, self.counts
        self.spans = []
        self.counts = Counter()
        return spans, counts


def layer_metrics(spans: list, counts: Counter) -> dict:
    """Per-layer numbers of one run of a workload.

    ``<group>.s`` sums the spans of a group that no span of the same group
    encloses; ``<group>.self_s`` sums each span's duration minus that of its
    child spans; ``<group>.calls`` counts the outermost spans of the group.
    """
    by_id = {s.id: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = Counter()
    errors = Counter()
    for s in spans:
        duration = s.end - s.start
        self_time[s.group] += duration - child_time[s.id]
        errors[s.name.split(".")[0]] += s.error
        parent = by_id.get(s.parent)
        while parent is not None and parent.group != s.group:
            parent = by_id.get(parent.parent)
        if parent is None:
            total[s.group] += duration
            calls[s.group] += 1
    out = {}
    for group in GROUPS:
        out[f"{group}.s"] = total[group]
        out[f"{group}.self_s"] = self_time[group]
        out[f"{group}.calls"] = calls[group]
    for layer in LAYERS:
        out[f"{layer}.errors"] = errors[layer] + counts.get(f"{layer}.errors", 0)
    for name in ("coefficients.cumulative.calls", "coefficients.mass_inverse.calls",
                 "affine.quad_calls", "paths.draws", "paths.bundle_mb",
                 "lipschitz_solver.fit.design_mb"):
        out[name] = counts.get(name, 0)
    return out
