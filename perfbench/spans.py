"""Spans around the names through which one orliczfrac layer calls the next.

A Tracer replaces, for the duration of a ``with`` block, the module-level
names and methods listed in ``targets()`` by wrappers that record one span
per call: name, start, end, parent span and job id. Spans live in compact
in-memory arrays and are written out once, after the run. Counters (points
evaluated, solver iterations, evaluations) are taken at the same wrappers.
Nothing in the package is edited; leaving the block restores every name.
"""

from __future__ import annotations

from array import array
from collections import Counter
from importlib import import_module
from time import perf_counter

import numpy as np

# Layer groups for inclusive shares: a span counts toward its group's share
# only when no enclosing span belongs to the same group.
GROUPS = {
    "fractional": ("fractional.value", "fractional.value_grad"),
    "orlicz": ("orlicz.G", "orlicz.dG"),
    "limit_density": ("limit_density.value", "limit_density.deriv",
                      "limit_density.quadrature"),
    "grid": ("grid.luxemburg_norm", "grid.modular"),
    "solver": ("solver.solve",),
}


def _core_label(args, kwargs):
    want_grad = kwargs["want_grad"] if "want_grad" in kwargs else args[4]
    return "fractional.value_grad" if want_grad else "fractional.value"


def _count_points(key):
    def tally(counts, args, result):
        counts[key] += int(np.size(args[1]))
    return tally


def _count_solve(counts, args, result):
    counts["solver.iterations"] += result.iterations
    counts["solver.converged"] += int(result.converged)


def _count_eval(counts, args, result):
    counts["solver.evals"] += 1


def targets():
    """(owner, attribute, span name or labeller, tally) for every wrapped name.

    The owners are the modules and classes whose attribute the caller looks
    up at call time: ``cli`` and ``solver`` import ``solve``, ``_core`` and
    ``modular`` by name, so those copies are the ones that must be wrapped.
    """
    # import_module, because the package re-exports a function named
    # limit_density that shadows the submodule as a package attribute.
    cli, grid, limit_density, limits, orlicz, solver = (
        import_module(f"orliczfrac.{name}") for name in
        ("cli", "grid", "limit_density", "limits", "orlicz", "solver"))
    LimitDensity = limit_density.LimitDensity
    OrliczFunction = orlicz.OrliczFunction

    return [
        (cli, "run", "cli.run", None),
        (cli, "bbm_curve", "limits.bbm_curve", None),
        (cli, "solve", "solver.solve", _count_solve),
        (solver, "solve", "solver.solve", _count_solve),
        (limits, "fractional_modular", "fractional.value", None),
        (solver, "_core", _core_label, _count_eval),
        (OrliczFunction, "__call__", "orlicz.G", _count_points("orlicz.G.points")),
        (OrliczFunction, "deriv", "orlicz.dG", _count_points("orlicz.dG.points")),
        (LimitDensity, "value", "limit_density.value", None),
        (LimitDensity, "deriv", "limit_density.deriv", None),
        (limit_density, "tilde_eval", "limit_density.quadrature", None),
        (grid, "luxemburg_norm", "grid.luxemburg_norm", None),
        (solver, "modular", "grid.modular", None),
    ]


class Tracer:
    """Context manager that wraps ``targets()`` and records their spans."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job = array("q")
        self.counts = Counter()
        self.job_id = -1
        self._stack = [-1]
        self._saved = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, label, tally):
        fixed = self._id(label) if isinstance(label, str) else None
        stack = self._stack

        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else self._id(label(args, kwargs))
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.job.append(self.job_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if tally is not None:
                tally(self.counts, args, result)
            return result

        return wrapper

    def __enter__(self):
        for owner, attr, label, tally in targets():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, label, tally))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def arrays(self):
        """Spans as numpy arrays: name id, start, end, parent, job."""
        return (np.frombuffer(self.name, dtype=np.uint16),
                np.frombuffer(self.start), np.frombuffer(self.end),
                np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.job, dtype=np.int64))

    def save(self, path):
        name, start, end, parent, job = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            start=start, end=end, parent=parent, job=job)

    def layer_metrics(self):
        """Per-layer metrics of everything recorded so far."""
        name, start, end, parent, _ = self.arrays()
        dur = end - start
        own = self_times(dur, parent)
        metrics = {}
        for nid, label in enumerate(self.names):
            mask = name == nid
            metrics[f"{label}.calls"] = int(np.count_nonzero(mask))
            metrics[f"{label}.self_s"] = float(own[mask].sum())
        job_s = float(dur[(parent < 0)].sum())
        for group, members in GROUPS.items():
            ids = [self._ids[m] for m in members if m in self._ids]
            incl = inclusive_time(dur, parent, np.isin(name, ids))
            metrics[f"{group}.share"] = incl / job_s if job_s > 0 else 0.0
        metrics.update(self.counts)
        return metrics


def self_times(dur, parent):
    """Span duration minus the part covered by its direct children.

    Spans come from one thread and nest properly, so the children of a span
    cover disjoint parts of it and their durations add.
    """
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=dur.size)
    return dur - covered


def inclusive_time(dur, parent, member):
    """Total duration of member spans that no member span encloses."""
    enclosed = np.zeros(dur.size, dtype=bool)
    up = parent.copy()
    while np.any(up >= 0):
        live = up >= 0
        enclosed[live] |= member[up[live]]
        up[live] = parent[up[live]]
    return float(dur[member & ~enclosed].sum())
