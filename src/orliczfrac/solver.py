"""Variational solver for the nonlocal g-Laplacian Dirichlet problem (n = 1).

The discrete energy is the source of truth:

    E(u) = sigma * Phi_s(u) - int f u,     sigma = (1-s) or 1 per scaling,

minimized over piecewise-linear functions vanishing at the boundary. The
weak form is the derivative of this same discrete energy, so optimality and
weak residual agree exactly at the discrete level. For s = 1 the seminorm
term is the modular of the slope.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Tuple, Union

import numpy as np
from scipy.linalg import solve_banded

from ._quadrature import gauss_rule_01
from .errors import (
    InvalidInputError,
    InvalidParameterError,
    UniquenessWarning,
)
from .fractional import _check_s, _core
from .grid import GridFunction, modular
from .limit_density import limit_density
from .orlicz import OrliczFunction

RhsSpec = Union[float, Callable[[np.ndarray], np.ndarray], GridFunction]

_ARMIJO = 1e-4     # sufficient-decrease constant of the line search
_BACKTRACK = 0.5   # step reduction per rejected trial


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


@dataclass(frozen=True)
class SolveResult:
    u: GridFunction
    energy: float
    iterations: int
    grad_norm: float
    weak_residual: float
    converged: bool
    message: str = ""
    energy_history: Tuple[float, ...] = ()


@dataclass(frozen=True)
class SolveOptions:
    max_iter: int = 500


def _seminorm_value_grad(problem, u, want_grad):
    if problem.s >= 1.0:
        h = u.spacing
        m = u.slopes
        val = h * float(np.sum(problem.G(np.abs(m))))
        if not want_grad:
            return val, None
        dm = problem.G.deriv(np.abs(m)) * np.sign(m)
        grad = np.zeros(u.node_count)
        grad[:-1] -= dm
        grad[1:] += dm
        return val, grad
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


def _energy_and_gradient(problem, u, F):
    val, grad = _seminorm_value_grad(problem, u, want_grad=True)
    return problem.sigma * val - float(F @ u.values), problem.sigma * grad - F


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


def solve(problem: DirichletProblem,
          opts: SolveOptions | None = None) -> SolveResult:
    """Minimize the discrete energy over the zero-boundary cone.

    Preconditioned nonlinear conjugate gradients (Polak-Ribiere with
    restarts, tridiagonal local-stiffness preconditioner) with a
    secant-initialized backtracking line search; descent is monotone by the
    sufficient-decrease test. Stops when the sup-norm of the interior
    gradient falls below 1e-8 * max(1, |E|).
    """
    opts = opts or SolveOptions()
    _screen_strict_convexity(problem.G)
    F = problem.load_vector()
    n = problem.mesh_nodes
    h = (problem.omega[1] - problem.omega[0]) / (n - 1)

    # Tridiagonal 1D stiffness on interior nodes as preconditioner.
    ni = n - 2
    band = np.zeros((3, ni))
    band[0, 1:] = -1.0 / h
    band[1, :] = 2.0 / h
    band[2, :-1] = -1.0 / h

    u = problem.zero_state()
    E, g_full = _energy_and_gradient(problem, u, F)
    g = g_full[1:-1]
    history = [E]

    def tol_for(E_now):
        return 1e-8 * max(1.0, abs(E_now))

    d = None
    z_old = None
    g_old = None
    alpha = 1.0
    iterations = 0
    no_progress = 0
    eps_E = 8.0 * np.finfo(float).eps
    converged = float(np.max(np.abs(g))) <= tol_for(E) if ni else True
    message = "converged at initial iterate" if converged else ""

    while not converged and iterations < opts.max_iter:
        z = solve_banded((1, 1), band, g)
        if d is None:
            d = -z
        else:
            beta = float(g @ (z - z_old)) / float(g_old @ z_old)
            d = -z + max(beta, 0.0) * d
        gd = float(g @ d)
        if gd >= 0.0:
            d = -z
            gd = float(g @ d)
        g_old, z_old = g, z

        # Secant guess for the step from the directional derivative, then
        # Armijo backtracking as the monotonicity safeguard.
        probe = min(max(alpha, 1e-12), 1e12)
        flat = False
        for _ in range(12):
            u_try = u.with_values(
                np.concatenate([[0.0], u.values[1:-1] + probe * d, [0.0]]))
            E_try, g_try_full = _energy_and_gradient(problem, u_try, F)
            gd_try = float(g_try_full[1:-1] @ d)
            if gd_try > gd * (1.0 - 1e-9):
                flat = abs(gd_try - gd) <= 1e-9 * abs(gd)
                break
            probe *= 4.0
        else:
            flat = True
        if flat:
            message = "directional derivative flat at roundoff scale"
            break
        step = probe * gd / (gd - gd_try)
        step = min(max(step, 1e-14 * probe), 1e6 * probe)

        accepted = None
        for _ in range(60):
            if step == probe and E_try <= E + _ARMIJO * step * gd:
                accepted = (u_try, E_try, g_try_full)
                break
            u_new = u.with_values(
                np.concatenate([[0.0], u.values[1:-1] + step * d, [0.0]]))
            E_new, g_new_full = _energy_and_gradient(problem, u_new, F)
            if E_new <= E + _ARMIJO * step * gd:
                accepted = (u_new, E_new, g_new_full)
                break
            step *= _BACKTRACK
        if accepted is None:
            message = "line search failed to decrease the energy"
            break
        E_prev = E
        u, E, g_full = accepted
        g = g_full[1:-1]
        history.append(E)
        alpha = step
        iterations += 1
        g_norm_prev = float(np.max(np.abs(g_old)))
        g_norm = float(np.max(np.abs(g)))
        if g_norm <= tol_for(E):
            converged = True
            message = f"gradient tolerance reached in {iterations} iterations"
            break
        if (E_prev - E <= eps_E * max(1.0, abs(E_prev))
                and g_norm >= 0.9 * g_norm_prev):
            no_progress += 1
            if no_progress >= 2:
                message = "energy progress below roundoff; gradient floor"
                break
        else:
            no_progress = 0

    if not converged and not message:
        message = "iteration budget exhausted"
    grad_norm = float(np.max(np.abs(g))) if ni else 0.0
    return SolveResult(
        u=u,
        energy=E,
        iterations=iterations,
        grad_norm=grad_norm,
        weak_residual=weak_residual(problem, u),
        converged=converged,
        message=message,
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


def gamma_run(problem_template: DirichletProblem, s_list,
              opts: SolveOptions | None = None) -> GammaReport:
    """Solve the scaled problems along s_list and the local limit problem.

    The limit problem replaces the growth function by its limit density and
    sets s = 1; gaps are reported in the gauge norm of the plain modular and
    as energy differences.
    """
    s_list = [float(s) for s in s_list]
    if any(not 0.0 < s < 1.0 for s in s_list) or \
            any(b <= a for a, b in zip(s_list, s_list[1:])):
        raise InvalidParameterError("s_list must increase strictly in (0,1)")

    tilde = limit_density(problem_template.G, 1).as_orlicz()
    local_problem = replace(problem_template, s=1.0, G=tilde)
    local = solve(local_problem, opts)
    mid = 0.5 * (problem_template.omega[0] + problem_template.omega[1])
    local_mid = float(local.u(mid))

    entries = []
    for s in s_list:
        prob = replace(problem_template, s=s, scaling="bbm_scaled")
        res = solve(prob, opts)
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
    from .grid import luxemburg_norm
    return luxemburg_norm(lambda f: modular(G, f), diff)
