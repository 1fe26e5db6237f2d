from dataclasses import replace

import numpy as np
import pytest

from orliczfrac import (
    DirichletProblem,
    GridFunction,
    InvalidInputError,
    InvalidParameterError,
    OrliczFunction,
    StopReason,
    UniquenessWarning,
    energy,
    energy_gradient,
    fractional_modular,
    fractional_modular_with_gradient,
    gamma_run,
    limit_density,
    make_combination,
    make_custom,
    make_power,
    make_power_log,
    solve,
    weak_residual,
)
from orliczfrac import fractional, solver
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
        zero = GridFunction.zeros(*prob.omega, prob.mesh_nodes)
        assert energy(prob, zero) == 0.0

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

    def test_grid_rhs_on_the_mesh_is_sampled_exactly(self, rng):
        # a GridFunction is sampled at its own nodes, where it interpolates
        # its stored values exactly
        f = GridFunction(0.0, 1.0, rng.normal(size=33))
        assert np.array_equal(problem(0.5, n=33, rhs=f).rhs_grid().values,
                              f.values)

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
        zero = GridFunction.zeros(*prob.omega, prob.mesh_nodes)
        g = energy_gradient(prob, zero)
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

    # case0's id names the nodal gradient test that used to stop it; it
    # now stops on the decrement, as case1 does.
    @pytest.mark.parametrize("case,stop", [
        (dict(s=0.5, n=33), StopReason.TOLERANCE),
        (dict(s=0.7, n=33, G=G15), StopReason.TOLERANCE),
    ], ids=["case0-gradient tolerance", "case1-power1.5"])
    def test_reported_weak_residual_matches_fresh_evaluation(self, case, stop):
        # the result reports the gradient it kept, not a fresh evaluation
        prob = problem(**case)
        res = solve(prob)
        assert res.stop_reason is stop
        assert res.weak_residual == weak_residual(prob, res.u)
        assert res.energy == energy(prob, res.u)

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
            constants=(4.0, 2.5, 2.0), label="flattened-derivative")
        prob = problem(0.5, n=17, G=flat)
        monkeypatch.setattr(solver, "_MAX_ITER", 2)
        with pytest.warns(UniquenessWarning):
            solve(prob)

    def test_line_search_stop(self):
        # G' = -2t makes the energy's slope along the gradient step never
        # rise: all 12 secant probes see it fall, the step is refused and
        # the solve stops at the start, unconverged (G' is not increasing,
        # which the start's screen reports)
        G = make_custom(lambda t: np.asarray(t, float) ** 2,
                        dfn=lambda t: -2.0 * np.asarray(t, float),
                        d2fn=lambda t: np.full(np.shape(t), -2.0),
                        constants=(4.0, 2.0, 2.0), label="falling-slope")
        with pytest.warns(UniquenessWarning):
            res = solve(problem(1.0, n=17, G=G))
        assert res.stop_reason is StopReason.LINE_SEARCH
        assert res.converged is False
        assert (res.iterations, res.evaluations, res.hessians) == (0, 13, 0)
        assert not np.any(res.u.values)

    def test_start_reads_one_jet(self, monkeypatch):
        # the convexity screen's G' and the zero state's G''(0) come from
        # one jet of G, not from deriv; the solve keeps its bits
        prob = problem(0.5, n=33, G=G15)
        want = solve(prob)

        def refused(self, x):
            raise AssertionError("the solver read G through deriv")

        monkeypatch.setattr(OrliczFunction, "deriv", refused)
        got = solve(prob)
        assert np.array_equal(got.u.values, want.u.values)
        assert (got.iterations, got.evaluations, got.hessians) == (
            want.iterations, want.evaluations, want.hessians)


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

    # The decrement g.H^{-1}g does not scale with the mesh as the nodal
    # gradient does, so the stop means the same on every mesh.
    def test_decrement_stop_is_mesh_independent(self):
        results = [solve(DirichletProblem(omega=(-1.0, 1.0), rhs=1.0, G=G3,
                                          s=0.7, mesh_nodes=n))
                   for n in (129, 513, 1025)]
        for res in results:
            assert res.stop_reason is StopReason.TOLERANCE
            assert res.decrement <= solver._DECREMENT * max(1.0,
                                                            abs(res.energy))
        counts = [res.iterations for res in results]
        assert max(counts) - min(counts) <= 1

    # The Newton stop is relative to |E|: a small load is solved as a unit
    # one. t^2 is linear in the load, and t^3 scales it by sqrt(c).
    @pytest.mark.parametrize("s", [0.5, 1.0])
    def test_small_load_square(self, s):
        def at(c):
            return solve(DirichletProblem(omega=(-1.0, 1.0), rhs=c, G=G2,
                                          s=s, mesh_nodes=65))

        ref = at(1.0).u.values
        for c in (1e-5, 1e-7, 1e-12):
            res = at(c)
            assert res.stop_reason is StopReason.TOLERANCE
            np.testing.assert_allclose(res.u.values / c, ref, rtol=1e-12,
                                       atol=1e-12 * np.max(ref))

    @pytest.mark.parametrize("s", [0.5, 1.0])
    def test_small_load_cube(self, s):
        def midpoint(c):
            res = solve(DirichletProblem(omega=(-1.0, 1.0), rhs=c, G=G3,
                                         s=s, mesh_nodes=65))
            return float(res.u(0.0)) / np.sqrt(c)

        for c in (1e-5, 1e-7):
            assert midpoint(c) == pytest.approx(midpoint(1.0), abs=1e-8)

    # a tiny load starts on a gradient direction (G''(0) = 0) whose
    # decrement lies below the gradient floor; that first step is taken
    @pytest.mark.parametrize("s", [0.5, 1.0])
    def test_tiny_load_cube(self, s):
        def at(c):
            return solve(DirichletProblem(omega=(-1.0, 1.0), rhs=c, G=G3,
                                          s=s, mesh_nodes=65))

        ref = float(at(1.0).u(0.0))
        for c in (1e-12, 1e-20):
            res = at(c)
            assert res.stop_reason is StopReason.TOLERANCE
            assert float(res.u(0.0)) / np.sqrt(c) == pytest.approx(ref,
                                                                   abs=1e-8)
        assert at(0.0).stop_reason is StopReason.INITIAL

    @pytest.mark.parametrize("n", [3, 4, 33, 129])
    def test_local_gradient_scatter_bits(self, n, rng):
        # the s = 1 gradient goes through `fractional._add_element_terms`;
        # the oracle is the nodal difference it replaced
        for G in (G3, make_power_log(3.0)):
            prob = problem(1.0, n=n, G=G)
            u = random_state(prob, rng)
            dm = G.deriv(np.abs(u.slopes)) * np.sign(u.slopes)
            ref = np.zeros(n)
            ref[:-1] -= dm
            ref[1:] += dm
            _, grad = _seminorm_value_grad(prob, u, want_grad=True)
            assert np.array_equal(grad, ref)

    def test_local_hessian_matches_central_difference(self, rng):
        # the s = 1 path returns the element curvatures k = G''(|m|) / h of
        # the chain B^T diag(k) B, B the element differences
        for G in (G3, make_power_log(3.0)):
            prob = problem(1.0, n=33, G=G)
            u = random_state(prob, rng)
            _, grad, k = _seminorm_value_grad(prob, u, want_grad=True,
                                              want_hess=True)
            assert k.shape == (prob.mesh_nodes - 1,)
            B = np.diff(np.eye(prob.mesh_nodes), axis=0)
            hess = B.T @ (k[:, None] * B)
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
    # G''(0) is 0 or infinite, and any iterate whose Newton direction is
    # not finite (power(1.5)); p < 2 solves also end at the decrement
    # tolerance.
    @pytest.mark.parametrize("G,s,omega,stop", [
        (make_power(1.2), 0.5, (0.0, 1.0), StopReason.TOLERANCE),
        (G15, 0.7, (0.0, 1.0), StopReason.TOLERANCE),
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
        assert res.energy == energy(prob, res.u)

    # One weight of 0, x1e-14 or x1e14 (a rigid element, as G'' gives for
    # p < 2 near a zero slope) against a 60-digit solve: the flux form
    # about the smallest weight keeps full accuracy where a dense LU loses
    # digits.
    @pytest.mark.parametrize("scale", [0.0, 1e-14, 1e14])
    def test_chain_solve_matches_mpmath(self, scale, rng):
        mpmath = pytest.importorskip("mpmath")
        for _ in range(30):
            n = int(rng.integers(1, 25))
            k = 10.0 ** rng.uniform(-2.0, 2.0, size=n + 1)
            k[rng.integers(n + 1)] *= scale
            r = rng.normal(size=n)
            with mpmath.workdps(60):
                K = mpmath.zeros(n, n)
                for e, ke in enumerate(k):
                    for a, b in ((e - 1, e - 1), (e, e), (e - 1, e),
                                 (e, e - 1)):
                        if 0 <= min(a, b) and max(a, b) < n:
                            K[a, b] += (1 if a == b else -1) * mpmath.mpf(ke)
                ref = np.array(mpmath.lu_solve(K, mpmath.matrix(r.tolist())),
                               dtype=float).ravel()
            x = solver._chain_solve(k, r)
            assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [1, 2, 127, 1023])
    def test_stiffness_solve_matches_dense(self, n, rng):
        h = 1.0 / (n + 1)
        K = (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / h
        r = rng.normal(size=n)
        ref = np.linalg.solve(K, r)
        x = solver._stiffness_solve(r, h)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_singular_hessian_takes_the_gradient_direction(self, monkeypatch):
        # G'' = 0 makes every assembled s = 1 Hessian exactly zero, so its
        # chain solve gives a non-finite direction and every step is a
        # preconditioned gradient step; the last solve is the decrement at
        # the returned iterate
        G = make_custom(lambda t: t ** 3, lambda t: 3.0 * t ** 2,
                        d2fn=np.zeros_like)
        stiffness_solve = solver._stiffness_solve
        steps = []

        def counted(r, h):
            steps.append(r)
            return stiffness_solve(r, h)

        monkeypatch.setattr(solver, "_stiffness_solve", counted)
        prob = problem(1.0, n=9, G=G)
        res = solve(prob)
        assert res.converged and res.hessians >= 1
        assert len(steps) == res.iterations + 1
        E = np.array(res.energy_history)
        eps = 8.0 * np.finfo(float).eps
        assert np.all(np.diff(E) <= eps * np.maximum(1.0, np.abs(E[:-1])))
        ref = solve(problem(1.0, n=9, G=G3))
        assert np.max(np.abs(res.u.values - ref.u.values)) <= 1e-8


class TestEulerIdentity:
    # For G = t^p the computed modular is homogeneous of degree p in u (every
    # piece takes |u| to the p-th power, or I(w) = w^p / p in the far field)
    # and the gradient is its exact derivative, so grad . u = p Phi_s(u).
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("n", [9, 33, 129, 257, 1025])
    def test_gradient_pairs_with_the_state(self, p, n, rng):
        G = make_power(p)
        hat = GridFunction.hat(-1.0, 1.0, n)
        for u in (hat, random_state(problem(0.5, n=n), rng)):
            for s in (0.1, 0.5, 0.9, 0.99):
                val, grad = fractional_modular_with_gradient(G, s, u)
                assert grad @ u.values == pytest.approx(p * val, rel=1e-12)
                assert val == fractional_modular(G, s, u)

    # The value pass sums the pairs in value blocks, the gradient and the
    # Hessian passes in their sub-blocks, whose rows they pad to the value
    # block's length: at 257 and 1025 nodes most value blocks hold two
    # sub-blocks. Every entry point gives the value the same bits. The
    # state of seed 1 pins the padding: summed at their own length, the
    # sub-blocks' rows move its power_log(3) value at s = 0.1 by an ulp at
    # 129 and 257 nodes.
    @pytest.mark.parametrize("G", [G15, G2, G3, make_power(4.0),
                                   make_power_log(3.0)],
                             ids=lambda G: G.label)
    @pytest.mark.parametrize("n", [9, 129, 257, 1025])
    def test_entry_points_share_the_value_bits(self, G, n, rng):
        hat = GridFunction.hat(-1.0, 1.0, n)
        for u in (hat, random_state(problem(0.5, n=n), rng),
                  random_state(problem(0.5, n=n), np.random.default_rng(1))):
            for s in (0.1, 0.9, 0.99):
                val = fractional_modular(G, s, u)
                assert fractional_modular_with_gradient(G, s, u)[0] == val
                with np.errstate(invalid="ignore"):  # G''(0) = inf
                    assert fractional._core(G, s, u, True, True)[0] == val


class TestYoungBound:
    # The weak form pairs the gradient with a direction v:
    # grad . v = iint g(|Du|) sgn(Du) Dv. Young's inequality
    # g(a) b <= (p-1) G(a) + G(b), p the upper exponent, holds at every
    # quadrature value, and the gradient is the exact derivative of the
    # computed modular, so |grad . v| <= (p-1) Phi_s(u) + Phi_s(v) holds for
    # the computed numbers up to roundoff.
    @pytest.mark.parametrize("s", [0.4, 0.7])
    def test_young_bound(self, s, rng):
        prob = problem(s, n=33)
        p = G2.upper_exponent
        for _ in range(5):
            u = random_state(prob, rng)
            v = random_state(prob, rng)
            _, grad = fractional_modular_with_gradient(G2, s, u)
            rhs = (p - 1.0) * fractional_modular(G2, s, u) \
                + fractional_modular(G2, s, v)
            assert abs(grad @ v.values) <= rhs * (1.0 + 1e-9)

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
            val, grad = fractional_modular_with_gradient(G, s, u)
            for v in (random_state(prob, rng), u):
                rhs = (p - 1.0) * val + fractional_modular(G, s, v)
                assert abs(grad @ v.values) <= rhs * (1.0 + 1e-12)


class TestWarmStart:
    def test_start_at_the_minimizer_stops_at_once(self):
        prob = DirichletProblem(omega=(-1.0, 1.0), rhs=1.0, G=G3, s=0.7,
                                mesh_nodes=129)
        res = solve(prob)
        warm = solve(prob, start=res.u)
        assert warm.stop_reason is StopReason.INITIAL
        assert warm.evaluations == 1 and warm.iterations == 0
        assert np.array_equal(warm.u.values, res.u.values)

    def test_start_on_another_mesh_rejected(self):
        with pytest.raises(InvalidInputError):
            solve(problem(0.5, n=33), start=GridFunction.zeros(0.0, 1.0, 17))
        with pytest.raises(InvalidInputError):
            solve(problem(0.5, n=17), start=GridFunction.zeros(0.0, 2.0, 17))

    # the criterion 7/8 ladder (rhs 1 on (0, 1), 513 nodes, s = 0.6 ...
    # 0.99) warm-started from the local minimizer; power(2) is quadratic, so
    # every solve is one Newton step from any start, and power(3) shows
    # the saving
    @pytest.mark.parametrize("G,saving", [(G2, 0.0), (G3, 0.3)],
                             ids=["power2", "power3"])
    def test_ladder_warm_start_saves_evaluations(self, G, saving):
        tmpl = problem(0.5, n=513, G=G)
        s_list = [0.6, 0.8, 0.9, 0.99]
        report = gamma_run(tmpl, s_list)
        cold = [solve(problem(s, n=513, G=G)) for s in s_list]
        warm = [e.result for e in report.entries]
        assert all(r.stop_reason is StopReason.TOLERANCE for r in warm)
        assert (sum(r.evaluations for r in warm)
                <= (1.0 - saving) * sum(r.evaluations for r in cold))
        for w, c in zip(warm, cold):
            assert w.energy == pytest.approx(c.energy, rel=1e-9, abs=0.0)

    # p < 2: the symmetric minimizer has equal pairs, where G'' is
    # infinite; from zero each solve crawls by gradient steps
    def test_power_1_5_ladder_warm_start_converges_faster(self):
        s_list = [0.8, 0.9]
        report = gamma_run(problem(0.5, n=129, G=G15), s_list)
        cold = [solve(problem(s, n=129, G=G15)) for s in s_list]
        warm = [e.result for e in report.entries]
        assert all(r.converged for r in warm + cold)
        assert (2 * sum(r.iterations for r in warm)
                < sum(r.iterations for r in cold))


class TestLockstepLadder:
    """`gamma_run` solves its s < 1 orders in lockstep: one `_core` call per
    round, with a state per order still running, and each order's result
    is field by field that of its own warm-started `solve`."""

    @pytest.mark.parametrize("G,n,s_list,omega", [
        (make_power_log(3.0), 17, [0.6, 0.9], (-1.0, 1.0)),
        (make_power_log(3.0), 33, [0.59, 0.91], (-1.0, 1.0)),
        (G3, 129, [0.6, 0.8, 0.9, 0.99], (-1.0, 1.0)),
        # p < 2: secant probes (no Hessian) share rounds with trial steps
        # that carry one
        (G15, 129, [0.8, 0.9], (0.0, 1.0)),
    ], ids=["power_log3-17", "power_log3-33", "power3-129", "power1.5-129"])
    def test_orders_match_sequential_solves(self, G, n, s_list, omega,
                                            monkeypatch):
        tmpl = DirichletProblem(omega=omega, rhs=1.0, G=G, s=s_list[0],
                                mesh_nodes=n)
        calls = []
        core = solver._core

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return core(*args, **kwargs)

        monkeypatch.setattr(solver, "_core", counted)
        report = gamma_run(tmpl, s_list)
        monkeypatch.undo()
        for entry in report.entries:
            res = entry.result
            ref = solve(replace(tmpl, s=entry.s), start=report.local.u)
            assert np.array_equal(res.u.values, ref.u.values)
            assert (res.energy, res.iterations, res.evaluations,
                    res.hessians, res.stop_reason, res.energy_history) == \
                (ref.energy, ref.iterations, ref.evaluations, ref.hessians,
                 ref.stop_reason, ref.energy_history)
            assert res.energy == energy(replace(tmpl, s=entry.s), res.u)
        local = replace(tmpl, s=1.0, G=limit_density(G, 1).as_orlicz())
        assert report.local.energy == energy(local, report.local.u)
        # the local s = 1 solve makes no `_core` call
        rounds = max(e.result.evaluations for e in report.entries)
        assert len(calls) == rounds
        assert all("want_grad" in kw and "want_hess" in kw for kw in calls)

    def test_a_round_assembles_hessians_only_if_asked(self, monkeypatch):
        asked, stack = [], solver._energy_stack

        def recorded(problems, F, requests):
            if problems[0].s < 1.0:  # not the local solve's rounds
                asked.append([w for _, w in requests])
            return stack(problems, F, requests)

        monkeypatch.setattr(solver, "_energy_stack", recorded)
        report = gamma_run(problem(0.5, n=129, G=G15), [0.8, 0.9])
        assert any(len(set(flags)) > 1 for flags in asked)
        assert [e.result.hessians for e in report.entries] == \
            [sum(flags[i] for flags in asked if len(flags) > i)
             for i in range(2)]

    def test_band_tables_built_once_per_set_of_orders(self, monkeypatch):
        keys, stack = [], solver._energy_stack

        def recorded(problems, F, requests):
            if problems[0].s < 1.0:  # not the local solve's rounds
                keys.append(tuple(p.s for p in problems))
            return stack(problems, F, requests)

        monkeypatch.setattr(solver, "_energy_stack", recorded)
        tables = fractional._band_tables
        tables.cache_clear()
        gamma_run(DirichletProblem(omega=(-1.0, 1.0), rhs=1.0, G=G3, s=0.6,
                                   mesh_nodes=129), [0.6, 0.8, 0.9, 0.99])
        info = tables.cache_info()
        assert len(set(keys)) > 1  # orders leave the stack as they finish
        assert info.misses == len(set(keys))
        assert info.hits + info.misses == len(keys)


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
