"""The benchmark's tracer (perfbench/spans.py) against the package's names.

The tracer wraps module-level names that the package looks up at call time
and reads ``want_grad`` from the solver's ``_core`` call. A renamed name or
a changed call would break traced benchmark runs, whose own tests run
outside this suite.
"""

import importlib.util
from pathlib import Path

from orliczfrac import DirichletProblem, make_power, make_power_log
from orliczfrac import solver

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced(run):
    """(run's result, the tracer's layer metrics) of one traced call of
    ``run``, after checking that leaving the tracer restores every name."""
    spans = load_spans()
    names = [(owner, attr) for owner, attr, _, _ in spans.targets()]
    assert all(attr in vars(owner) for owner, attr in names)
    before = [vars(owner)[attr] for owner, attr in names]
    with spans.Tracer() as tracer:
        out = run()
    assert all(vars(owner)[attr] is f
               for (owner, attr), f in zip(names, before))
    return out, tracer.layer_metrics()


def test_traced_fractional_solve_records_and_restores():
    prob = DirichletProblem(omega=(0.0, 1.0), rhs=1.0, G=make_power(3.0),
                            s=0.5, mesh_nodes=5)
    res, metrics = traced(lambda: solver.solve(prob))
    assert metrics["solver.solve.calls"] == 1
    assert metrics["fractional.value_grad.calls"] == res.evaluations > 0
    assert metrics["solver.evals"] == res.evaluations


def test_traced_ladder_counts_one_evaluation_per_round():
    # the local s = 1 solve is the one `solve` call and makes no `_core`
    # call; the lockstep ladder makes one per round
    tmpl = DirichletProblem(omega=(-1.0, 1.0), rhs=1.0,
                            G=make_power_log(3.0), s=0.6, mesh_nodes=17)
    report, metrics = traced(lambda: solver.gamma_run(tmpl, [0.6, 0.9]))
    rounds = max(e.result.evaluations for e in report.entries)
    assert metrics["solver.evals"] == rounds
    assert metrics["fractional.value_grad.calls"] == rounds
    assert metrics["solver.solve.calls"] == 1
