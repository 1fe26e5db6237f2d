"""Acceptance suite: every criterion at its stated scale and tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one status line per
criterion. The whole suite is deterministic (fixed seeds).
"""

import time

import numpy as np
import pytest

from orliczfrac import (
    DirichletProblem,
    GridFunction,
    bbm_curve,
    energy,
    energy_gradient,
    fractional_modular,
    gamma_run,
    make_combination,
    make_power,
    make_power_abslog,
    poincare_check,
    solve,
    tilde_closed_form,
    tilde_eval,
)
from orliczfrac.properties import (
    builtin_suite_functions,
    inequality_suite,
    random_zero_trace,
    transform_suite,
)

from conftest import brute_force_seminorm


def _report(criterion, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\n[{status}] criterion {criterion}: {description}{suffix}")
    assert passed, f"criterion {criterion} failed: {description} {detail}"


def test_criterion_1_closed_forms():
    """Limit-density closed forms match quadrature to 1e-6 relative."""
    t0 = time.time()
    worst = 0.0
    cases = []
    for p in (1.5, 2.0, 3.0):
        cases.append(("power", (p,), make_power(p)))
        cases.append(("power_log", (p,), make_power_abslog(p)))
    cases.append(("max_powers", (2.0, 3.0),
                  make_combination("max", [make_power(2.0), make_power(3.0)])))
    count = 0
    for kind, params, G in cases:
        for n in (1, 2, 3):
            for a in (0.25, 0.5, 1.0, 2.0, 4.0):
                quad = tilde_eval(G, n, a)
                closed = tilde_closed_form(kind, params, n, a)
                worst = max(worst, abs(quad - closed) / abs(closed))
                count += 1
    elapsed = time.time() - t0
    _report(1, "limit-density closed forms vs quadrature",
            worst <= 1e-6 and elapsed < 10.0,
            f"{count} cases, worst rel diff {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_bbm_limit():
    """Scaled-seminorm limit of the unit tent reaches its local target."""
    u = GridFunction.hat(-1.0, 1.0, 1025)
    results = []
    ok = True
    for G, tol in ((make_power(2.0), 0.02),
                   (make_power(3.0), 0.05),
                   (make_combination("max",
                                     [make_power(2.0), make_power(3.0)]),
                    0.05)):
        t0 = time.time()
        curve = bbm_curve(G, u, [0.9, 0.95, 0.99])
        elapsed = time.time() - t0
        ok &= curve.rel_gap <= tol and elapsed < 120.0
        results.append(f"{G.label}: gap {curve.rel_gap:.4f} "
                       f"(tol {tol:g}, {elapsed:.0f}s)")
    _report(2, "nonlocal-to-local limit of the scaled modular", ok,
            "; ".join(results))


def test_criterion_3_inequality_suite():
    """Scalar inequality battery: zero violations on 1000 draws per G."""
    failures = []
    total = 0
    for G in builtin_suite_functions():
        for res in inequality_suite(G, n_samples=1000, seed=11):
            total += 1
            if not res.passed:
                failures.append(f"{G.label}/{res.name}: "
                                f"{res.violations} violations "
                                f"(worst {res.worst_margin:.2e})")
    _report(3, "randomized inequality suite", not failures,
            f"{total} (G, inequality) combinations"
            + ("; " + "; ".join(failures) if failures else ""))


def test_criterion_4_transform_bounds():
    """Mollify/truncate/translate/compare bounds on 50 random functions."""
    t0 = time.time()
    results = transform_suite(make_power(2.0), s_values=(0.3, 0.6, 0.9),
                              n_functions=50, node_count=257, seed=5)
    elapsed = time.time() - t0
    bad = [r for r in results if not r.passed]
    detail = ", ".join(f"{r.name}: {r.samples} checks" for r in results)
    _report(4, "modular transform bounds", not bad and elapsed < 300.0,
            f"{detail}; {elapsed:.0f}s"
            + ("; FAILURES: " + ", ".join(r.name for r in bad) if bad else ""))


def test_criterion_5_oracle_equivalence():
    """Seminorm quadrature agrees with a dense Riemann oracle within 1%."""
    rng = np.random.default_rng(17)
    G = make_power(2.0)
    worst = 0.0
    t0 = time.time()
    functions = [GridFunction.hat(-1.0, 1.0, 129)]
    functions += [random_zero_trace(rng, node_count=129,
                                    amplitude=rng.uniform(0.3, 1.5))
                  for _ in range(9)]
    for u in functions:
        for s in (0.25, 0.5, 0.75):
            val = fractional_modular(G, s, u)
            ref = brute_force_seminorm(G, s, u)
            worst = max(worst, abs(val - ref) / abs(ref))
    elapsed = time.time() - t0
    _report(5, "dense brute-force oracle equivalence", worst <= 1e-2,
            f"10 functions x 3 orders, worst rel diff {worst:.2e}, "
            f"{elapsed:.0f}s")


def test_criterion_6_gradient_check():
    """Energy gradient matches central differences to 1e-5 relative."""
    rng = np.random.default_rng(23)
    worst = 0.0
    states = 0
    combos = [(G, s) for G in (make_power(2.0), make_power(3.0))
              for s in (0.5, 0.9)]
    for k in range(50):
        G, s = combos[k % len(combos)]
        n = 65 if k % 8 == 0 else 33
        prob = DirichletProblem(omega=(0.0, 1.0), rhs=1.0, G=G, s=s,
                                mesh_nodes=n)
        v = np.concatenate([[0.0], rng.normal(size=n - 2) * 0.4, [0.0]])
        u = GridFunction(0.0, 1.0, v)
        g = energy_gradient(prob, u)
        eps = 1e-6
        for i in range(n):
            vp = v.copy()
            vm = v.copy()
            vp[i] += eps
            vm[i] -= eps
            fd = (energy(prob, u.with_values(vp))
                  - energy(prob, u.with_values(vm))) / (2.0 * eps)
            scale = max(abs(fd), abs(g[i]), 1e-10)
            worst = max(worst, abs(g[i] - fd) / scale)
        states += 1
    _report(6, "gradient vs central finite differences", worst <= 1e-5,
            f"{states} states, max rel error {worst:.2e}")


@pytest.fixture(scope="module")
def gamma_ladder():
    t0 = time.time()
    template = DirichletProblem(omega=(0.0, 1.0), rhs=1.0,
                                G=make_power(2.0), s=0.5,
                                scaling="bbm_scaled", mesh_nodes=513)
    report = gamma_run(template, [0.6, 0.8, 0.9, 0.99])
    return report, time.time() - t0


def test_criterion_7_solver_local_limit(gamma_ladder):
    """Fractional minimizers converge to the local minimizer as s -> 1."""
    report, elapsed = gamma_ladder
    mid_ok = abs(report.local_midpoint - 0.0625) <= 1e-4
    gaps = [e.lux_gap for e in report.entries]
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    final_mid = report.entries[-1].midpoint
    final_ok = abs(final_mid - 0.0625) <= 0.1 * 0.0625
    _report(7, "solver local limit",
            mid_ok and decreasing and final_ok and elapsed < 600.0,
            f"local mid {report.local_midpoint:.6f}, gaps "
            + " > ".join(f"{g:.5f}" for g in gaps)
            + f", s=0.99 mid {final_mid:.6f}, {elapsed:.0f}s")


def test_criterion_8_weak_form_residual(gamma_ladder):
    """Returned minimizers satisfy the discrete weak form to 10x tol."""
    report, _ = gamma_ladder
    solves = [report.local] + [e.result for e in report.entries]
    extra = solve(DirichletProblem(omega=(-1.0, 1.0), rhs=1.0,
                                   G=make_power(3.0), s=0.7, mesh_nodes=129))
    solves.append(extra)
    budgets = []
    ok = True
    for res in solves:
        tol = 1e-8 * max(1.0, abs(res.energy))
        ok &= res.weak_residual <= 10.0 * tol
        budgets.append(f"{res.weak_residual:.1e}")
    _report(8, "optimality equals weak form", ok,
            f"residuals {', '.join(budgets)} vs 1e-07")


def test_criterion_9_poincare():
    """Scale-free ratio stays under the explicit budget, zero violations."""
    rng = np.random.default_rng(31)
    G = make_power(2.0)
    violations = 0
    worst = 0.0
    for _ in range(100):
        u = random_zero_trace(rng, node_count=129,
                              amplitude=rng.uniform(0.1, 3.0))
        for s in (0.3, 0.6, 0.9):
            rep = poincare_check(G, s, u)
            worst = max(worst, rep.ratio / rep.budget)
            if not rep.within_budget:
                violations += 1
    _report(9, "explicit Poincare budget", violations == 0,
            f"100 functions x 3 orders, worst ratio/budget {worst:.3f}")
