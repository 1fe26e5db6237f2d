import numpy as np
import pytest

from orliczfrac import (
    DirichletProblem,
    GridFunction,
    InvalidInputError,
    InvalidParameterError,
    StopReason,
    UniquenessWarning,
    apply_pointwise_eps,
    energy,
    energy_gradient,
    fractional_modular,
    gamma_run,
    limit_density,
    make_combination,
    make_custom,
    make_power,
    make_power_log,
    pairing_abs,
    solve,
    weak_residual,
)
from orliczfrac import solver
from orliczfrac.solver import _seminorm_value_grad

G2 = make_power(2.0)
G3 = make_power(3.0)
G15 = make_power(1.5)


def problem(s, n=65, rhs=1.0, G=G2, scaling="bbm_scaled"):
    return DirichletProblem(omega=(0.0, 1.0), rhs=rhs, G=G, s=s,
                            scaling=scaling, mesh_nodes=n)


def random_state(prob, rng, amplitude=0.3):
    v = np.concatenate([[0.0],
                        rng.normal(size=prob.mesh_nodes - 2) * amplitude,
                        [0.0]])
    return GridFunction(*prob.omega, v)


class TestEnergy:
    def test_zero_state(self):
        prob = problem(0.5)
        assert energy(prob, prob.zero_state()) == 0.0

    def test_positive_without_forcing(self, rng):
        prob = problem(0.5, rhs=0.0)
        u = random_state(prob, rng)
        assert energy(prob, u) > 0.0

    def test_local_parabola_value(self):
        # sigma = 1 at s = 1: int ((1-2x)/4)^2 - int x(1-x)/4 = 1/48 - 1/24
        prob = problem(1.0, n=2049)
        u = GridFunction.from_callable(lambda x: x * (1.0 - x) / 4.0,
                                       0.0, 1.0, 2049)
        assert energy(prob, u) == pytest.approx(-1.0 / 48.0, abs=1e-5)

    def test_mesh_mismatch_rejected(self):
        prob = problem(0.5, n=65)
        with pytest.raises(InvalidInputError):
            energy(prob, GridFunction.zeros(0.0, 1.0, 33))

    def test_convexity_along_segments(self, rng):
        prob = problem(0.5, n=33)
        for _ in range(10):
            u = random_state(prob, rng)
            v = random_state(prob, rng)
            t = rng.uniform(0.0, 1.0)
            mix = u * t + v * (1.0 - t)
            assert energy(prob, mix) <= (t * energy(prob, u)
                                         + (1.0 - t) * energy(prob, v)
                                         + 1e-10)


class TestGradient:
    def test_zero_state_is_minus_load(self):
        prob = problem(0.5, n=33)
        g = energy_gradient(prob, prob.zero_state())
        assert g == pytest.approx(-prob.load_vector())

    @pytest.mark.parametrize("G", [G2, G3])
    @pytest.mark.parametrize("s", [0.5, 0.9])
    def test_finite_difference_match(self, G, s, rng):
        prob = problem(s, n=33, G=G)
        u = random_state(prob, rng)
        g = energy_gradient(prob, u)
        eps = 1e-6
        for i in range(0, prob.mesh_nodes, 3):
            vp = u.values.copy()
            vm = u.values.copy()
            vp[i] += eps
            vm[i] -= eps
            fd = (energy(prob, u.with_values(vp))
                  - energy(prob, u.with_values(vm))) / (2 * eps)
            assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_symmetry(self, rng):
        # even data about the midpoint gives an even gradient
        prob = problem(0.6, n=33)
        half = rng.normal(size=15) * 0.2
        v = np.concatenate([[0.0], half, [rng.normal() * 0.2],
                            half[::-1], [0.0]])
        u = GridFunction(*prob.omega, v)
        g = energy_gradient(prob, u)
        assert g == pytest.approx(g[::-1], abs=1e-12)


class TestSolve:
    def test_zero_forcing_gives_zero(self):
        res = solve(problem(0.5, rhs=0.0))
        assert not np.any(res.u.values)
        assert res.energy == 0.0
        assert res.converged

    def test_local_poisson_midpoint(self):
        res = solve(problem(1.0, n=1025))
        assert res.converged
        assert float(res.u(0.5)) == pytest.approx(0.0625, abs=1e-4)

    def test_fractional_solution_near_local(self):
        res = solve(problem(0.99, n=129))
        assert abs(float(res.u(0.5)) - 0.0625) <= 0.1 * 0.0625

    def test_monotone_descent(self):
        res = solve(problem(0.7, n=65))
        hist = np.array(res.energy_history)
        assert np.all(np.diff(hist) <= 1e-14)

    def test_weak_residual_at_minimizer(self):
        res = solve(problem(0.7, n=65))
        assert res.weak_residual <= 10.0 * 1e-8

    @pytest.mark.parametrize("case,stop", [
        (dict(s=0.5, n=33), StopReason.TOLERANCE),
        (dict(s=0.7, n=33, G=G15), StopReason.FLOOR),
    ], ids=["case0-gradient tolerance", "case1-gradient floor"])
    def test_reported_weak_residual_matches_fresh_evaluation(self, case, stop):
        # the result reports the gradient it kept, not a fresh evaluation
        prob = problem(**case)
        res = solve(prob)
        assert res.stop_reason is stop
        assert res.weak_residual == weak_residual(prob, res.u)

    def test_boundary_stays_zero(self):
        res = solve(problem(0.5, n=65))
        assert res.u.values[0] == 0.0 and res.u.values[-1] == 0.0

    def test_budget_exhaustion_flagged(self, monkeypatch):
        monkeypatch.setattr(solver, "_MAX_ITER", 1)
        res = solve(problem(0.5, n=65, G=G15))
        assert not res.converged
        assert res.iterations == 1
        assert res.stop_reason is StopReason.BUDGET

    def test_message_renders_stop_reason(self):
        res = solve(problem(0.5, n=33))
        assert res.stop_reason is StopReason.TOLERANCE and res.converged
        assert res.message == (f"{StopReason.TOLERANCE.value} in "
                               f"{res.iterations} iterations")
        res = solve(problem(0.5, rhs=0.0))
        assert res.stop_reason is StopReason.INITIAL and res.converged
        assert res.message == StopReason.INITIAL.value

    def test_unscaled_mode_rescales_quadratic_minimizer(self):
        # for the quadratic kernel the scaled and unscaled minimizers are
        # exact multiples: (1-s) grad Phi(u') = F  <=>  u' = u / (1-s)
        s = 0.5
        res_u = solve(problem(s, n=65, scaling="unscaled"))
        res_b = solve(problem(s, n=65, scaling="bbm_scaled"))
        assert res_b.u.values == pytest.approx(
            res_u.u.values / (1.0 - s), abs=1e-7)

    def test_sine_forcing_local(self):
        # -2u'' = sin(pi x) on (0,1): u = sin(pi x) / (2 pi^2)
        prob = DirichletProblem(
            omega=(0.0, 1.0), rhs=lambda x: np.sin(np.pi * x),
            G=G2, s=1.0, mesh_nodes=513)
        res = solve(prob)
        assert float(res.u(0.5)) == pytest.approx(
            1.0 / (2.0 * np.pi ** 2), abs=1e-5)

    def test_nonconvex_screening_warns(self, monkeypatch):
        flat = make_custom(
            lambda x: np.asarray(x, float) ** 2,
            dfn=lambda x: 2.0 * np.minimum(np.asarray(x, float), 1.0),
            constants=(4.0, 2.5, 2.0, 1.0), label="flattened-derivative")
        prob = problem(0.5, n=17, G=flat)
        monkeypatch.setattr(solver, "_MAX_ITER", 2)
        with pytest.warns(UniquenessWarning):
            solve(prob)


class TestNewton:
    # The direction solves with the exact Hessian, so a quadratic energy
    # is minimized by one full step: the zero state (with the Hessian) and
    # the accepted step.
    def test_square_solves_in_one_step(self):
        res = solve(problem(0.5, n=257))
        assert res.converged and res.iterations == 1
        assert res.evaluations == 2
        assert res.hessians == 1

    def test_cube_solve_assemblies(self):
        # the solve workload's power(3) case
        prob = DirichletProblem(omega=(-1.0, 1.0), rhs=1.0, G=G3, s=0.7,
                                mesh_nodes=129)
        res = solve(prob)
        assert res.converged
        assert res.evaluations <= 8
        assert res.hessians <= 5

    def test_local_hessian_matches_central_difference(self, rng):
        # the s = 1 path: tridiagonal G''(|m|) / h
        for G in (G3, make_power_log(3.0)):
            prob = problem(1.0, n=33, G=G)
            u = random_state(prob, rng)
            _, grad, hess = _seminorm_value_grad(prob, u, want_grad=True,
                                                 want_hess=True)
            assert np.array_equal(hess, hess.T)
            assert np.count_nonzero(np.triu(hess, 2)) == 0
            eps = 1e-6
            fd = np.empty_like(hess)
            for i in range(prob.mesh_nodes):
                vp = u.values.copy()
                vm = u.values.copy()
                vp[i] += eps
                vm[i] -= eps
                fd[:, i] = (
                    _seminorm_value_grad(prob, u.with_values(vp), True)[1]
                    - _seminorm_value_grad(prob, u.with_values(vm), True)[1]
                ) / (2.0 * eps)
            assert np.max(np.abs(hess - fd)) <= 1e-6 * np.max(np.abs(hess))

    def test_newton_and_ncg_reach_the_same_minimizer(self):
        # G''(0) = 0 for t^3: the first step is a stiffness-preconditioned
        # gradient step, the rest Newton; the minimizer satisfies the weak
        # form
        prob = problem(0.6, n=65, G=G3, rhs=2.0)
        res = solve(prob)
        assert res.converged and res.hessians >= 1
        assert res.evaluations > res.hessians
        assert weak_residual(prob, res.u) <= 1e-8 * max(1.0, abs(res.energy))

    # The preconditioned gradient direction takes the zero start, where
    # G''(0) is 0 or infinite, and any iterate whose Hessian Cholesky
    # rejects (power(1.5)); p < 2 solves end at the gradient floor.
    @pytest.mark.parametrize("G,s,omega,stop", [
        (make_power(1.2), 0.5, (0.0, 1.0), StopReason.FLOOR),
        (G15, 0.7, (0.0, 1.0), StopReason.FLOOR),
        (make_power_log(3.0), 0.6, (-1.0, 1.0), StopReason.TOLERANCE),
        (limit_density(make_power_log(3.0), 1).as_orlicz(), 1.0,
         (-1.0, 1.0), StopReason.TOLERANCE),
    ], ids=["power1.2", "power1.5", "power_log3", "tilde_power_log3"])
    def test_gradient_fallback_descends(self, G, s, omega, stop):
        prob = DirichletProblem(omega=omega, rhs=1.0, G=G, s=s,
                                mesh_nodes=33)
        res = solve(prob)
        E = np.array(res.energy_history)
        eps = 8.0 * np.finfo(float).eps
        assert np.all(np.diff(E) <= eps * np.maximum(1.0, np.abs(E[:-1])))
        assert res.stop_reason is stop
        assert res.weak_residual == weak_residual(prob, res.u)


class TestPairingBound:
    @pytest.mark.parametrize("s", [0.4, 0.7])
    def test_young_bound(self, s, rng):
        # |<A u, v>| with absolute values <= (p-1) Phi_s(u) + Phi_s(v)
        prob = problem(s, n=33)
        p = G2.upper_exponent
        for _ in range(5):
            u = random_state(prob, rng)
            v = random_state(prob, rng)
            lhs = pairing_abs(G2, s, u, v)
            rhs = (p - 1.0) * fractional_modular(G2, s, u) \
                + fractional_modular(G2, s, v)
            assert lhs <= rhs * (1.0 + 1e-9)


class TestPairingSharesTheModularRule:
    # For G = t^p, g(a) a = p G(a) at every quadrature value, and the far
    # field's profile I(w) = w^p / p has w I'(w) = p I(w); so a pairing that
    # uses the modular's own rule gives exactly p Phi_s(u) for v = u.
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("n", [9, 33, 129])
    def test_self_pairing_of_a_power(self, p, n):
        G = make_power(p)
        u = GridFunction.hat(-1.0, 1.0, n)
        for s in (0.1, 0.5, 0.9, 0.99):
            assert pairing_abs(G, s, u, u) == pytest.approx(
                p * fractional_modular(G, s, u), rel=1e-12)

    # Young's inequality g(a) b <= (p-1) G(a) + G(b) holds at every
    # quadrature value, so it holds for the computed numbers up to roundoff.
    @pytest.mark.parametrize("G", [
        make_power_log(3.0),
        make_combination("max", [make_power(2.0), make_power(3.0)]),
        make_power(1.5),
    ], ids=lambda G: G.label)
    @pytest.mark.parametrize("s", [0.4, 0.7, 0.95])
    def test_young_bound_to_roundoff(self, G, s, rng):
        prob = problem(s, n=33)
        p = G.upper_exponent
        for _ in range(3):
            u = random_state(prob, rng)
            for v in (random_state(prob, rng), u):
                lhs = pairing_abs(G, s, u, v)
                rhs = (p - 1.0) * fractional_modular(G, s, u) \
                    + fractional_modular(G, s, v)
                assert lhs <= rhs * (1.0 + 1e-12)


class TestPointwiseOperator:
    def test_zero_function(self):
        z = GridFunction.zeros(-1.0, 1.0, 33)
        assert apply_pointwise_eps(G2, 0.5, z, 0.1, 0.05) == 0.0

    def test_odd_symmetry_cancels(self):
        u = GridFunction.hat(-1.0, 1.0, 129)
        # about the peak the hat is even, so differences are antisymmetric
        # in sign only through u(x)-u(y) >= 0; use an odd profile instead
        odd = GridFunction.from_callable(
            lambda x: np.sin(np.pi * x) * (1.0 - np.abs(x)),
            -1.0, 1.0, 257)
        val = apply_pointwise_eps(G2, 0.5, odd, 0.0, 0.05)
        assert val == pytest.approx(0.0, abs=1e-8)

    def test_cauchy_in_epsilon_at_hat_peak(self):
        # at the corner the truncated values behave like C - c*eps^(1-2s),
        # so successive differences shrink for s < 1/2 (at s = 1/2 exactly
        # the corner makes the pointwise principal value log-divergent)
        u = GridFunction.hat(-1.0, 1.0, 513)
        vals = [apply_pointwise_eps(G2, 0.4, u, 0.0, e)
                for e in (0.1, 0.05, 0.025)]
        d1 = abs(vals[1] - vals[0])
        d2 = abs(vals[2] - vals[1])
        assert d2 < d1

    def test_cauchy_in_epsilon_on_smooth_stretch(self):
        # away from corners the integrand is locally antisymmetric and the
        # truncation converges quickly even at s = 1/2
        u = GridFunction.hat(-1.0, 1.0, 513)
        vals = [apply_pointwise_eps(G2, 0.5, u, 0.25, e)
                for e in (0.1, 0.05, 0.025)]
        d1 = abs(vals[1] - vals[0])
        d2 = abs(vals[2] - vals[1])
        assert d2 < d1


class TestGammaRun:
    def test_zero_forcing_trivial(self):
        tmpl = problem(0.5, n=33, rhs=0.0)
        report = gamma_run(tmpl, [0.5, 0.9])
        assert report.local_midpoint == 0.0
        for e in report.entries:
            assert e.lux_gap == 0.0
            assert e.energy_gap == 0.0

    def test_gaps_shrink_toward_local(self):
        tmpl = problem(0.5, n=129)
        report = gamma_run(tmpl, [0.6, 0.9])
        gaps = [e.lux_gap for e in report.entries]
        assert gaps[1] < gaps[0]
        assert report.local_midpoint == pytest.approx(0.0625, abs=1e-6)

    def test_empty_s_list_rejected(self):
        with pytest.raises(InvalidParameterError):
            gamma_run(problem(0.5, n=17), [])
