"""Tests of the benchmark itself (not part of the package's test suite).

    python -m pytest -q perfbench
"""

import json
import os
import re
import mpmath as mp
import numpy as np
import pytest
from scipy import integrate
from scipy.optimize import brentq

import run
import worker

worker.import_package()

import jobs as J  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from orliczfrac import cli, limit_density, make_power_log  # noqa: E402
import orliczfrac.solver as solver  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


# ------------------------------------------------------------- references

def _fourier_p2(s):
    """(1-s) Phi_s(hat) for G = t^2 through Plancherel, in closed form.

    Phi = (4/pi) K_s int_0^inf xi^(2s) |hat^(xi)|^2 dxi with
    K_s = int_0^inf (1 - cos t) t^(-1-2s) dt = -Gamma(-2s) cos(pi s) and
    hat^(xi) = 4 sin^2(xi/2) / xi^2; the xi-integral is a Mellin transform
    of sin^4.
    """
    s = mp.mpf(s)
    mu = 2 * s - 3
    mellin_sin4 = (mp.gamma(mu) * mp.cos(mp.pi * mu / 2)
                   * (-4 * 2 ** (-mu) + 4 ** (-mu)) / 8)
    k_s = -mp.gamma(-2 * s) * mp.cos(mp.pi * s)
    return (1 - s) * (4 / mp.pi) * k_s * 2 ** (2 * s + 1) * mellin_sin4


@pytest.mark.parametrize("s", ["0.3", "0.9", "0.95", "0.995"])
def test_power2_reference_matches_fourier(s):
    with mp.workdps(40):
        value, rel = reference.scaled_modular_hat(2, s)
        assert rel <= 1e-9
        assert abs(value - _fourier_p2(s)) <= mp.mpf(10) ** -30 * value


@pytest.mark.parametrize("r", [0.05, 0.4, 1.0, 1.3, 1.9, 2.5])
@pytest.mark.parametrize("spec", list(reference.BBM_EXPONENT))
def test_separation_form_matches_direct_integral(spec, r):
    """J(r) by direct quadrature in x equals r^(-sp) M_p(r), also for max."""
    s = 0.95
    G = cli.parse_growth(spec)
    p = reference.BBM_EXPONENT[spec]

    def hat(x):
        return max(0.0, 1.0 - abs(x))

    def integrand(x):
        return float(G(abs(hat(x + r) - hat(x)) / r ** s))

    kinks = sorted({-1 - r, -r, 1 - r, -1.0, 0.0, 1.0, -r / 2})
    direct = sum(integrate.quad(integrand, a, b, epsabs=0, epsrel=1e-13)[0]
                 for a, b in zip(kinks[:-1], kinks[1:]))
    exact = r ** (-s * p) * reference.separation_moment(p, r)
    assert direct == pytest.approx(exact, rel=1e-11)


def test_stored_table():
    table = reference.load()
    assert table["rel_error_estimate"] <= 1e-9
    for spec, p in reference.BBM_EXPONENT.items():
        assert list(table["values"][spec]) == list(reference.S_GRID)
        for s in ("0.900", "0.960", "0.995"):
            value, _ = reference.scaled_modular_hat(p, s)
            assert table["values"][spec][s] == float(value)


@pytest.mark.parametrize("c", [0.5, 1.0, 1.7])
def test_gamma_midpoint_matches_flux_integral(c):
    """a_c - tilde_G(a_c)/c equals int_0^1 A(c x) dx by quadrature."""
    G = make_power_log(3.0)
    density = limit_density(G, 1)

    def inverse(y):
        return brentq(lambda a: density.deriv(a) - y, 1e-14, 10.0,
                      xtol=1e-15, rtol=1e-14)

    kink = density.deriv(1.0) / c      # c x crosses tilde_G'(1)
    pieces = [0.0, 1.0] if kink >= 1.0 else [0.0, kink, 1.0]
    direct = sum(integrate.quad(lambda x: inverse(c * x), a, b,
                                epsrel=1e-12)[0]
                 for a, b in zip(pieces[:-1], pieces[1:]))
    assert J.gamma_local_midpoint(c) == pytest.approx(direct, rel=1e-9)


# ------------------------------------------------------------------ jobs

@pytest.mark.parametrize("workload", J.WORKLOADS)
def test_jobs_come_from_the_seed(workload):
    first = J.make_jobs(workload, 7, 20)
    assert first == J.make_jobs(workload, 7, 20)
    assert first != J.make_jobs(workload, 8, 20)
    assert sum(j.cost for j in first) == pytest.approx(20, rel=0.5)


def test_bbm_keys_are_distinct_and_referenced():
    jobs = J.make_jobs("bbm", 3, 60)
    keys = [(j.params["G"], j.params["nodes"], s)
            for j in jobs for s in j.params["s_list"]]
    assert len(keys) == len(set(keys))
    table = reference.load()["values"]
    assert all(s in table[g] for g, _, s in keys)


def test_bad_job_is_counted_not_fatal(tmp_path):
    bad = J.Job("bad", "solve", "command = solve\nG = power(2)\nnodes = 9\n",
                0.0, {"G": "power(2)", "nodes": 9, "c": 1.0, "s": None})
    good = J.Job("good", "bbm",
                 "command = bbm\nG = power(3)\nnodes = 65\n"
                 "s_list = 0.900, 0.950\n", 0.0,
                 {"G": "power(3)", "nodes": 65, "s_list": ("0.900", "0.950")})
    outcomes = J.run_jobs(cli, [bad, good], tmp_path)
    assert "InvalidParameterError" in outcomes[0].error
    assert outcomes[1].error is None and len(outcomes[1].rel_errs) == 2
    attempted, failed, _, _, _ = J.summary(outcomes)
    assert (attempted, failed) == (2, 1)


def test_scaled_time_is_the_time_at_nominal_kernel_speed():
    job = J.make_jobs("bbm", 0, 1)[0]
    slow = J.Outcome(job, seconds=3.0, kernel_s=1.5 * speed.NOMINAL_S)
    assert J.scaled_seconds(slow) == pytest.approx(2.0, rel=1e-12)


def test_hash_mismatch_fails_the_job(tmp_path):
    job = J.make_jobs("bbm", 0, 1)[0]
    first = J.run_jobs(cli, [job], tmp_path / "a")
    other = [J.Outcome(job, hashes={"bbm.csv": "0"})]
    J.mark_mismatches(first, other, "rerun")
    assert first[0].error == "rerun: output hashes differ"


# ----------------------------------------------------------------- metrics

def test_metric_and_workload_names():
    e2e, layers = run.units("end_to_end"), run.units("per_layer")
    for name in [*e2e, *layers, *(w["name"] for w in BENCHMARK["workloads"])]:
        assert NAME.fullmatch(name) and len(name) <= 64
    assert set(J.WORKLOADS) == {w["name"] for w in BENCHMARK["workloads"]}


# ------------------------------------------------------------------ spans

def test_self_time_of_nested_spans():
    #   0 solver.solve [0, 10]
    #   1   orlicz.G [1, 7]
    #   2     limit_density.value [2, 6]
    #   3       orlicz.G [3, 4]
    #   4   orlicz.G [8, 9]
    start = np.array([0.0, 1.0, 2.0, 3.0, 8.0])
    end = np.array([10.0, 7.0, 6.0, 4.0, 9.0])
    parent = np.array([-1, 0, 1, 2, 0])
    own = spans.self_times(end - start, parent)
    assert own.tolist() == [3.0, 2.0, 3.0, 1.0, 1.0]
    is_g = np.array([False, True, False, True, True])
    assert spans.inclusive_time(end - start, parent, is_g) == 7.0


def _originals():
    return [(owner, attr, vars(owner)[attr])
            for owner, attr, _, _ in spans.targets()]


def test_traced_local_solve_nests_and_restores():
    before = _originals()
    tilde = limit_density(make_power_log(3.0), 1).as_orlicz()
    problem = solver.DirichletProblem(omega=(-1.0, 1.0), rhs=1.0, G=tilde, s=1.0,
                               mesh_nodes=5)
    with spans.Tracer() as tracer:
        assert all(vars(o)[a] is not f for o, a, f in before)
        solver.solve(problem)   # looked up on the module, so traced
    assert all(vars(o)[a] is f for o, a, f in before)

    name, start, end, parent, _ = tracer.arrays()
    labels = [tracer.names[i] for i in name]

    def chain(i):
        out = []
        while i >= 0:
            out.append(labels[i])
            i = parent[i]
        return out

    chains = {tuple(chain(i)) for i in range(len(labels))}
    assert ("orlicz.G", "limit_density.quadrature", "limit_density.value",
            "orlicz.G", "solver.solve") in chains
    dur = end - start
    own = spans.self_times(dur, parent)
    assert np.all(own >= -1e-9)
    assert own.sum() == pytest.approx(dur[parent < 0].sum(), rel=1e-9)
    metrics = tracer.layer_metrics()
    assert metrics["solver.solve.calls"] == 1
    assert metrics["orlicz.G.points"] >= metrics["orlicz.G.calls"]


def test_exception_inside_tracer_still_restores():
    before = _originals()
    with pytest.raises(RuntimeError):
        with spans.Tracer():
            raise RuntimeError("boom")
    assert all(vars(o)[a] is f for o, a, f in before)


def test_tiny_traced_run_reports_every_layer(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(J, "make_jobs",
                        lambda w, seed, seconds: [J.Job(
                            "bbm-00", "bbm",
                            "command = bbm\nG = power(3)\nnodes = 33\n"
                            "s_list = 0.900, 0.995\n", 0.1,
                            {"G": "power(3)", "nodes": 33,
                             "s_list": ("0.900", "0.995")})])
    for trace in ("0", "1"):
        assert run.main(["--workload", "bbm", "--seed", "1", "--seconds",
                         "1", "--trace", trace]) == 0
        result = json.loads((tmp_path / "bbm-seed1"
                             / "metrics.json").read_text())
        kind = "per_layer" if trace == "1" else "end_to_end"
        assert result["correct"]
        assert set(result["metrics"]) == set(run.units(kind))
        # Every pass ran in a fresh process of its own.
        second = "traced" if trace == "1" else "pass2"
        pids = {json.loads((tmp_path / "bbm-seed1" / d
                            / "pass.json").read_text())["pid"]
                for d in ("pass1", second)}
        assert len(pids) == 2 and os.getpid() not in pids
