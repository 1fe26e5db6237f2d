"""Variational solver for the nonlocal g-Laplacian Dirichlet problem (n = 1).

The discrete energy is the source of truth:

    E(u) = sigma * Phi_s(u) - int f u,     sigma = (1-s) or 1 per scaling,

minimized over piecewise-linear functions vanishing at the boundary. The
weak form is the derivative of this same discrete energy, so optimality and
weak residual agree exactly at the discrete level. For s = 1 the seminorm
term is the modular of the slope.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Tuple, Union

import numpy as np

from ._quadrature import gauss_rule_01
from .errors import (
    InvalidInputError,
    InvalidParameterError,
    UniquenessWarning,
)
from .fractional import _add_slope_blocks, _check_s, _core
from .grid import GridFunction, gradient_modular, modular
from .limit_density import limit_density
from .limits import _validate_s_list
from .orlicz import OrliczFunction

RhsSpec = Union[float, Callable[[np.ndarray], np.ndarray], GridFunction]

_ARMIJO = 1e-4     # sufficient-decrease constant of the line search
_BACKTRACK = 0.5   # step reduction per rejected trial
_MAX_ITER = 500    # iteration budget of one solve


@dataclass(frozen=True)
class DirichletProblem:
    """Zero-boundary problem data on the interval omega."""

    omega: Tuple[float, float]
    rhs: RhsSpec
    G: OrliczFunction
    s: float
    scaling: str = "bbm_scaled"
    mesh_nodes: int = 257

    def __post_init__(self):
        a, b = self.omega
        if not (np.isfinite(a) and np.isfinite(b) and a < b):
            raise InvalidParameterError("omega must be a finite interval")
        if not (0.0 < self.s <= 1.0):
            raise InvalidParameterError(f"s must be in (0, 1], got {self.s}")
        if self.mesh_nodes < 3:
            raise InvalidParameterError("need at least 3 mesh nodes")
        if self.scaling not in ("bbm_scaled", "unscaled"):
            raise InvalidParameterError(f"unknown scaling {self.scaling!r}")

    @property
    def sigma(self):
        if self.scaling == "bbm_scaled" and self.s < 1.0:
            return 1.0 - self.s
        return 1.0

    def zero_state(self) -> GridFunction:
        return GridFunction.zeros(*self.omega, self.mesh_nodes)

    def rhs_grid(self) -> GridFunction:
        """Right-hand side sampled to the mesh as a piecewise-linear function."""
        a, b = self.omega
        if isinstance(self.rhs, GridFunction):
            if (self.rhs.left == a and self.rhs.right == b
                    and self.rhs.node_count == self.mesh_nodes):
                return self.rhs
            return GridFunction.from_callable(self.rhs, a, b, self.mesh_nodes)
        if callable(self.rhs):
            return GridFunction.from_callable(self.rhs, a, b, self.mesh_nodes)
        c = float(self.rhs)
        return GridFunction(a, b, np.full(self.mesh_nodes, c))

    def load_vector(self) -> np.ndarray:
        """F_i = int f phi_i, exact for the piecewise-linear rhs sample."""
        f = self.rhs_grid().values
        h = (self.omega[1] - self.omega[0]) / (self.mesh_nodes - 1)
        F = np.zeros(self.mesh_nodes)
        F[:-1] += h * (f[:-1] / 3.0 + f[1:] / 6.0)
        F[1:] += h * (f[:-1] / 6.0 + f[1:] / 3.0)
        return F

    def _check_state(self, u: GridFunction):
        a, b = self.omega
        if (u.left != a or u.right != b or u.node_count != self.mesh_nodes):
            raise InvalidInputError("state is not on the problem mesh")


class StopReason(enum.Enum):
    """Why `solve` stopped; the first two mean converged. LINE_SEARCH: no
    halved step passed the Armijo test, or the gradient step's probes never
    saw the directional derivative rise. FLOOR: E no longer ranks the
    iterates (two steps without progress, or a Newton step predicted below
    the roundoff of E that does not reduce the gradient)."""

    INITIAL = "converged at initial iterate"
    TOLERANCE = "gradient tolerance reached"
    LINE_SEARCH = "line search failed to decrease the energy"
    FLOOR = "energy progress below roundoff; gradient floor"
    BUDGET = "iteration budget exhausted"


@dataclass(frozen=True)
class SolveResult:
    """A solve's last iterate and how it got there: `evaluations` counts
    the value+gradient assemblies, `hessians` those that also assembled
    the Hessian."""

    u: GridFunction
    energy: float
    iterations: int
    grad_norm: float
    stop_reason: StopReason
    evaluations: int = 0
    hessians: int = 0
    energy_history: Tuple[float, ...] = ()

    @property
    def converged(self) -> bool:
        return self.stop_reason in (StopReason.INITIAL, StopReason.TOLERANCE)

    @property
    def message(self) -> str:
        """`stop_reason` as a sentence."""
        if self.stop_reason is StopReason.TOLERANCE:
            return f"{self.stop_reason.value} in {self.iterations} iterations"
        return self.stop_reason.value

    @property
    def weak_residual(self) -> float:
        """`weak_residual(problem, u)` at the returned iterate.

        Equal to `grad_norm`: the solver keeps the interior gradient of the
        energy at its current iterate, and that gradient is the discrete
        weak form, so recomputing it would give the same number.
        """
        return self.grad_norm


def _seminorm_value_grad(problem, u, want_grad, want_hess=False):
    """(value, gradient[, Hessian]) of the seminorm term; the Hessian (a
    dense nodal matrix) only with ``want_hess``."""
    if problem.s >= 1.0:
        val = gradient_modular(problem.G, u)
        if not want_grad:
            return val, None
        m = u.slopes
        dm = problem.G.deriv(np.abs(m)) * np.sign(m)
        grad = np.zeros(u.node_count)
        grad[:-1] -= dm
        grad[1:] += dm
        if not want_hess:
            return val, grad
        hess = np.zeros((u.node_count, u.node_count))
        _add_slope_blocks(hess, problem.G.d2(np.abs(m)) / u.spacing)
        hess += np.triu(hess, 1).T
        return val, grad, hess
    if want_hess:
        return _core(problem.G, problem.s, u, want_grad=True, want_hess=True)
    return _core(problem.G, problem.s, u, want_grad=want_grad)


def energy(problem: DirichletProblem, u: GridFunction) -> float:
    """Discrete energy sigma * Phi_s(u) - int f u."""
    problem._check_state(u)
    val, _ = _seminorm_value_grad(problem, u, want_grad=False)
    return problem.sigma * val - float(problem.load_vector() @ u.values)


def energy_gradient(problem: DirichletProblem, u: GridFunction) -> np.ndarray:
    """Nodal derivative of the discrete energy (all nodes)."""
    problem._check_state(u)
    _, grad = _seminorm_value_grad(problem, u, want_grad=True)
    return problem.sigma * grad - problem.load_vector()


def weak_residual(problem: DirichletProblem, u: GridFunction) -> float:
    """sup over interior hat functions of |<A_s u, phi_i> - int f phi_i|.

    The pairing is the derivative of the scaled seminorm, recomputed fresh at
    u, so this is the discrete weak form of the Euler-Lagrange equation.
    """
    g = energy_gradient(problem, u)
    return float(np.max(np.abs(g[1:-1]))) if len(g) > 2 else 0.0


def _screen_strict_convexity(G):
    xs = np.logspace(-6, 3, 64)
    d = G.deriv(xs)
    if np.any(np.diff(d) <= 0.0):
        warnings.warn(
            "derivative is not strictly increasing on the screening grid; "
            "the minimizer may not be unique", UniquenessWarning)


class _Energy:
    """The energy and its derivatives at interior values, with counts."""

    def __init__(self, problem):
        self.problem = problem
        self.F = problem.load_vector()
        self.evaluations = 0
        self.hessians = 0

    def state(self, interior):
        return self.problem.zero_state().with_values(
            np.concatenate([[0.0], interior, [0.0]]))

    def __call__(self, interior, want_hess=False):
        """(E, interior gradient, interior Hessian or None) at the state
        with these interior values."""
        prob = self.problem
        u = self.state(interior)
        self.evaluations += 1
        self.hessians += int(want_hess)
        out = _seminorm_value_grad(prob, u, want_grad=True,
                                   want_hess=want_hess)
        E = prob.sigma * out[0] - float(self.F @ u.values)
        g = (prob.sigma * out[1] - self.F)[1:-1]
        H = prob.sigma * out[2][1:-1, 1:-1] if want_hess else None
        return E, g, H


def _spd_solve(A, b):
    """A^{-1} b for a symmetric A, or None where A is not positive definite
    (its Cholesky factorization fails) or the solution is not finite."""
    try:
        np.linalg.cholesky(A)
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        return None
    return x if np.all(np.isfinite(x)) else None


def _secant_step(energy_at, v, d, gd):
    """Step along the descent direction d (gd = g.d < 0) where the secant
    of the directional derivative vanishes, from the first of the probes
    1, 4, 16, ... at which it rises; None if it never rises."""
    probe = 1.0
    for _ in range(12):
        gd_try = float(energy_at(v + probe * d)[1] @ d)
        if gd_try > gd * (1.0 - 1e-9):
            step = probe * gd / (gd - gd_try)
            return min(max(step, 1e-14 * probe), 1e6 * probe)
        probe *= 4.0
    return None


def solve(problem: DirichletProblem) -> SolveResult:
    """Minimize the discrete energy over the zero-boundary cone.

    Damped Newton on the exact discrete Hessian: the direction solves
    sigma H d = -g on the interior nodes and the step starts at 1. Where
    the Hessian is not positive definite (its Cholesky factorization fails)
    or the direction not finite (the zero start when G''(0) is 0 or
    infinite, as for t^p with p != 2), the direction is the gradient
    preconditioned by the tridiagonal local stiffness K, d = -K^{-1} g, and
    the step starts at a secant guess. Either step is halved until the
    Armijo test holds, which keeps the descent monotone (up to the roundoff
    of E, once Newton's predicted decrease is below it). Stops when the
    sup-norm of the interior gradient falls below 1e-8 * max(1, |E|);
    `stop_reason` says why it stopped.
    """
    _screen_strict_convexity(problem.G)
    # Tridiagonal 1D stiffness on interior nodes as preconditioner.
    ni = problem.mesh_nodes - 2
    h = (problem.omega[1] - problem.omega[0]) / (ni + 1)
    K = (2.0 * np.eye(ni) - np.eye(ni, k=1) - np.eye(ni, k=-1)) / h

    energy_at = _Energy(problem)
    # For t^2 the energy is quadratic: its Hessian is assembled once.
    quadratic = problem.G.kind == "power" and problem.G.params[0] == 2.0
    v = np.zeros(ni)
    # G''(0) of 0 or infinity makes the Hessian at the zero state singular
    # or infinite, so it is not assembled there.
    E, g, H = energy_at(v, want_hess=0.0 < float(problem.G.d2(0.0)) < np.inf)
    history = [E]

    def tol_for(E_now):
        return 1e-8 * max(1.0, abs(E_now))

    contraction = None
    iterations = 0
    no_progress = 0
    eps_E = 8.0 * np.finfo(float).eps
    stop = None
    if not ni or float(np.max(np.abs(g))) <= tol_for(E):
        stop = StopReason.INITIAL

    while stop is None and iterations < _MAX_ITER:
        d = None if H is None else _spd_solve(H, -g)
        newton = d is not None
        if not newton:
            d = _spd_solve(K, -g)
        gd = float(g @ d)
        step = 1.0 if newton else _secant_step(energy_at, v, d, gd)
        if step is None:
            stop = StopReason.LINE_SEARCH
            break
        # The first trial carries the next Hessian, unless the contraction
        # |g_new| = K |g|^2 of the last full Newton step predicts
        # convergence. Where Newton's model decrease -gd/2 is below the
        # roundoff of E, E cannot rank the points: the full step is taken
        # if it reduces the gradient without raising E beyond roundoff,
        # else the solve is at its floor.
        noise = eps_E * max(1.0, abs(E))
        blind = newton and -0.5 * gd <= noise
        last = newton and (contraction is not None and contraction
                           * float(np.max(np.abs(g))) ** 2
                           <= 0.1 * tol_for(E))
        accepted = None
        for trial_no in range(60):
            trial = v + step * d
            E_try, g_try, H_try = energy_at(
                trial, want_hess=trial_no == 0 and not (quadratic or last))
            if E_try <= E + _ARMIJO * step * gd or (
                    blind and E_try <= E + noise
                    and np.max(np.abs(g_try)) < np.max(np.abs(g))):
                accepted = (trial, E_try, g_try, H if quadratic else H_try)
                break
            if blind:
                break
            step *= _BACKTRACK
        if accepted is None:
            stop = StopReason.FLOOR if blind else StopReason.LINE_SEARCH
            break
        E_prev, g_norm_prev = E, float(np.max(np.abs(g)))
        v, E, g, H = accepted
        history.append(E)
        iterations += 1
        g_norm = float(np.max(np.abs(g)))
        full_newton = newton and trial_no == 0
        contraction = g_norm / g_norm_prev ** 2 if full_newton else None
        if g_norm <= tol_for(E):
            stop = StopReason.TOLERANCE
            break
        if (E_prev - E <= eps_E * max(1.0, abs(E_prev))
                and g_norm >= 0.9 * g_norm_prev):
            no_progress += 1
            if no_progress >= 2:
                stop = StopReason.FLOOR
                break
        else:
            no_progress = 0
        # Only a damped step or a mispredicted last step lacks the Hessian.
        if H is None and iterations < _MAX_ITER:
            E, g, H = energy_at(v, want_hess=True)

    return SolveResult(
        u=energy_at.state(v),
        energy=E,
        iterations=iterations,
        grad_norm=float(np.max(np.abs(g))) if ni else 0.0,
        stop_reason=stop or StopReason.BUDGET,
        evaluations=energy_at.evaluations,
        hessians=energy_at.hessians,
        energy_history=tuple(history),
    )


def apply_pointwise_eps(G: OrliczFunction, s: float, u: GridFunction,
                        x: float, eps: float) -> float:
    """Truncated principal-value application of the nonlocal operator at x.

    Integrates g(|u(x)-u(y)| / |x-y|^s) sign(u(x)-u(y)) |x-y|^(-1-s) over
    |x-y| >= eps, with the zero extension of u; the part beyond the support
    is reduced exactly to a growth-function evaluation.
    """
    if eps <= 0.0:
        raise InvalidParameterError("truncation radius must be positive")
    if not (u.left < x < u.right):
        raise InvalidParameterError("evaluation point must lie in the domain")
    _check_s(s)
    ux = float(u(x))
    xq, wq = gauss_rule_01(16)

    def interior(lo, hi):
        # integrate over y in (lo, hi) per mesh-element piece
        if hi <= lo:
            return 0.0
        cuts = np.unique(np.clip(
            np.concatenate([[lo, hi], u.nodes]), lo, hi))
        total = 0.0
        for a, b in zip(cuts[:-1], cuts[1:]):
            if b <= a:
                continue
            y = a + (b - a) * xq
            du = ux - u(y)
            r = np.abs(x - y)
            total += (b - a) * float(wq @ (
                G.deriv(np.abs(du) * r ** (-s)) * np.sign(du)
                * r ** (-1.0 - s)))
        return total

    val = interior(u.left, x - eps) + interior(x + eps, u.right)

    def tail(r0):
        if ux == 0.0:
            return 0.0
        c = abs(ux)
        return math.copysign(float(G(c * r0 ** (-s))) / (s * c), ux)

    val += tail(max(eps, u.right - x))   # y beyond the right end
    val += tail(max(eps, x - u.left))    # y beyond the left end
    return val


@dataclass(frozen=True)
class GammaEntry:
    s: float
    lux_gap: float
    energy_gap: float
    midpoint: float
    result: SolveResult


@dataclass(frozen=True)
class GammaReport:
    entries: Tuple[GammaEntry, ...]
    local: SolveResult
    local_midpoint: float


def gamma_run(problem_template: DirichletProblem, s_list) -> GammaReport:
    """Solve the scaled problems along s_list and the local limit problem.

    The limit problem replaces the growth function by its limit density and
    sets s = 1; gaps are reported in the gauge norm of the plain modular and
    as energy differences.
    """
    s_list = _validate_s_list(s_list)
    tilde = limit_density(problem_template.G, 1).as_orlicz()
    local_problem = replace(problem_template, s=1.0, G=tilde)
    local = solve(local_problem)
    mid = 0.5 * (problem_template.omega[0] + problem_template.omega[1])
    local_mid = float(local.u(mid))

    entries = []
    for s in s_list:
        prob = replace(problem_template, s=s, scaling="bbm_scaled")
        res = solve(prob)
        diff = res.u - local.u
        gap = 0.0
        if np.any(diff.values):
            gap = _lux_gap(problem_template.G, diff)
        entries.append(GammaEntry(
            s=s,
            lux_gap=gap,
            energy_gap=abs(res.energy - local.energy),
            midpoint=float(res.u(mid)),
            result=res,
        ))
    return GammaReport(entries=tuple(entries), local=local,
                       local_midpoint=local_mid)


def _lux_gap(G, diff):
    # imported at call time, so that a patched grid.luxemburg_norm (the
    # perfbench tracer wraps it) is the one that runs
    from .grid import luxemburg_norm
    return luxemburg_norm(lambda f: modular(G, f), diff)
