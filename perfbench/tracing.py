"""In-memory spans recorded around arcscat's layer boundaries.

The benchmark never edits the package: it replaces, for the length of a
traced run, the module attributes that callers look up at call time
(``scattering.gmres``, ``operators.t0_values``, ...) with wrappers that
open a span, and it views the stored N x N matrices as an ndarray
subclass whose ``@`` opens a ``linalg.matvec`` span.  A span has a name,
a start, an end and a parent; its self time is its duration minus the
part of it that its child spans cover.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict

import numpy as np


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int = -1  # index into Tracer.spans, -1 for a root span


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> list[float]:
    """Per span: duration minus the time its direct children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - covered(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def uncovered(spans, lo: float, hi: float) -> float:
    """Wall time in [lo, hi] that no root span covers."""
    return hi - lo - covered([(s.start, s.end) for s in spans if s.parent < 0], lo, hi)


class Tracer:
    """Span recorder plus the counters kept at the same boundaries."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self.build_keys: set = set()
        self.solve_matrix_bytes = 0
        self._stack: list[int] = []
        self._restore: list = []
        self.missing: list[str] = []
        self.matrix_class = _timed_matrix_class(self)

    # -- spans -------------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    # -- wrapping module attributes ----------------------------------------
    def wrap(self, module, attr: str, name: str, before=None, after=None) -> None:
        """Route ``module.attr`` through a span named ``name``.

        ``before(args, kwargs)`` runs first (for counters); ``after(args,
        kwargs, result)`` may return a replacement result.  A missing
        attribute is noted and skipped, so its span reports zero calls.
        """
        if not hasattr(module, attr):
            self.missing.append(f"{module.__name__}.{attr}")
            return
        orig = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = tracer.open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.close(idx)
            return after(args, kwargs, result) if after is not None else result

        self._restore.append((module, attr, orig))
        setattr(module, attr, wrapper)

    def unwrap(self) -> None:
        while self._restore:
            module, attr, orig = self._restore.pop()
            setattr(module, attr, orig)

    # -- summaries ---------------------------------------------------------
    def totals(self):
        """name -> (calls, total seconds, self seconds)."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for s, own in zip(self.spans, self_times(self.spans)):
            row = out[s.name]
            row[0] += 1
            row[1] += s.end - s.start
            row[2] += own
        return out


def _timed_matrix_class(tracer: Tracer):
    class TimedMatrix(np.ndarray):
        """N x N operator entries whose ``@`` is a ``linalg.matvec`` span."""

        def __matmul__(self, other):
            plain = self.view(np.ndarray)
            if self.ndim != 2:
                return plain @ other
            idx = tracer.open("linalg.matvec")
            try:
                return plain @ other
            finally:
                tracer.close(idx)
                tracer.counts["linalg.matvec.bytes"] += self.nbytes

    return TimedMatrix


def instrument(tracer: Tracer, arcscat_modules) -> None:
    """Install every layer wrapper used by the traced run."""
    grids, operators, scattering = (arcscat_modules[m] for m in ("grids", "operators", "scattering"))
    t = tracer

    def count_size(key, pos):
        def before(args, kwargs):
            t.counts[key] += np.size(args[pos])
        return before

    def timed_matrix(args, kwargs, result):
        t.solve_matrix_bytes += result.entries.nbytes
        return dataclasses.replace(result, entries=result.entries.view(t.matrix_class))

    def after_build_s(args, kwargs, result):
        t.build_keys.add((result.arc.kind, result.arc.params, float(result.k), result.n))
        return timed_matrix(args, kwargs, result)

    def after_gmres(args, kwargs, result):
        n = np.shape(args[1])[0]
        maxit = kwargs.get("maxit", args[3] if len(args) > 3 else 2000)
        t.peaks["linalg.basis_bytes"] = max(t.peaks["linalg.basis_bytes"],
                                            (min(maxit, n) + 1) * n * 16)
        report = result[1]
        if report.residuals and report.residuals[-1] > 0.0:
            t.peaks["linalg.residual_ratio"] = max(t.peaks["linalg.residual_ratio"],
                                                   report.final_residual / report.residuals[-1])
        return result

    def before_near_field(args, kwargs):
        t.counts["scattering.near_field.points"] += len(np.atleast_2d(args[1]))

    def before_solve(args, kwargs):
        t.solve_matrix_bytes = 0

    def after_solve(args, kwargs, result):
        t.peaks["operators.matrix_bytes"] = max(t.peaks["operators.matrix_bytes"],
                                                t.solve_matrix_bytes)
        return result

    t.wrap(scattering, "solve", "scattering.solve", before=before_solve, after=after_solve)
    t.wrap(scattering, "far_field", "scattering.far_field")
    t.wrap(scattering, "near_field", "scattering.near_field", before=before_near_field)
    t.wrap(scattering, "build_S_matrix", "operators.build_S", after=after_build_s)
    t.wrap(scattering, "build_Ng_matrix", "operators.build_Ng", after=timed_matrix)
    t.wrap(scattering, "gmres", "linalg.gmres", after=after_gmres)
    t.wrap(scattering, "n_apply_values", "operators.n_apply")
    t.wrap(scattering, "eval_arc", "geometry.frames")
    t.wrap(scattering, "hankel1_0", "specfun.hankel", before=count_size("specfun.hankel.evals", 0))
    t.wrap(scattering, "hankel1_1", "specfun.hankel", before=count_size("specfun.hankel.evals", 0))
    t.wrap(operators, "eval_arc", "geometry.frames")
    t.wrap(operators, "build_log_quad", "operators.log_quad")
    t.wrap(operators, "_a1a2_offdiag", "specfun.a1a2", before=count_size("specfun.a1a2.evals", 1))
    t.wrap(operators, "_a2_diagonal", "specfun.a1a2", before=count_size("specfun.a1a2.evals", 1))
    t.wrap(operators, "t0_values", "grids.t0")
    t.wrap(operators, "d0_values", "grids.d0")
    t.wrap(grids, "speed", "geometry.frames")
