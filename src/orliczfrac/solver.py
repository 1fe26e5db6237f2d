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
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple, Union

import numpy as np

from . import grid
from .errors import (
    InvalidInputError,
    InvalidParameterError,
    UniquenessWarning,
)
from .fractional import _SLOPE, _add_element_terms, _core
from .grid import GridFunction, gradient_modular, modular
from .limit_density import limit_density
from .limits import _validate_s_list
from .orlicz import OrliczFunction

RhsSpec = Union[float, Callable[[np.ndarray], np.ndarray], GridFunction]

_ARMIJO = 1e-4     # sufficient-decrease constant of the line search
_BACKTRACK = 0.5   # step reduction per rejected trial
_MAX_ITER = 500    # iteration budget of one solve
_DECREMENT = 1e-10  # Newton stop: lambda^2 <= _DECREMENT * |E|
_ROUNDOFF = 8.0 * np.finfo(float).eps  # relative roundoff of E


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
    """Why `solve` stopped; the first two mean converged: at the start the
    gradient is 0 or the Newton decrement is below its tolerance
    (INITIAL), or later the squared decrement lambda^2 fell below its
    tolerance (TOLERANCE). LINE_SEARCH: no halved step passed the Armijo
    test, or the gradient step's probes never saw the directional
    derivative rise."""

    INITIAL = "converged at initial iterate"
    TOLERANCE = "decrement tolerance reached"
    LINE_SEARCH = "line search failed to decrease the energy"
    BUDGET = "iteration budget exhausted"


@dataclass(frozen=True)
class SolveResult:
    """A solve's last iterate and how it got there: `decrement` is the
    squared decrement lambda^2 of the last direction `solve` took (see
    there); `evaluations` counts the value+gradient assemblies, `hessians`
    those that also assembled the Hessian."""

    u: GridFunction
    energy: float
    iterations: int
    grad_norm: float
    stop_reason: StopReason
    decrement: float
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
    """(value, gradient[, Hessian]) of the seminorm term; with ``want_hess``
    the Hessian: dense for s < 1, at s = 1 the chain weights G''(|m|) / h."""
    if problem.s >= 1.0:
        if not want_grad:
            return gradient_modular(problem.G, u), None
        # one jet of G on |m| gives the value and the chain's weights
        m = u.slopes
        g = problem.G(np.abs(m), 2 + want_hess)
        val = u.spacing * float(np.sum(g[0]))
        grad = np.zeros(u.node_count)
        _add_element_terms(grad, None, *_SLOPE, (g[1] * np.sign(m))[None])
        if not want_hess:
            return val, grad
        return val, grad, g[2] / u.spacing
    return _core(problem.G, problem.s, u, want_grad=want_grad,
                 want_hess=want_hess)


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


class _Energy:
    """The energy and its derivatives at interior values, with counts."""

    def __init__(self, problem):
        self.problem = problem
        self.F = problem.load_vector()
        self.evaluations = 0
        self.hessians = 0

    def state(self, interior):
        return GridFunction(*self.problem.omega,
                            np.concatenate([[0.0], interior, [0.0]]))

    def take(self, u, want_hess, val, grad, hess=None):
        """(E, interior gradient, sigma times the seminorm's Hessian (scaled
        in place) or None) at the state u, from the seminorm's value,
        gradient and Hessian there; counts one evaluation, and one Hessian
        if asked for (a Hessian assembled for other states of a stacked
        call is not)."""
        sigma = self.problem.sigma
        self.evaluations += 1
        self.hessians += int(want_hess)
        E = sigma * val - float(self.F @ u.values)
        g = (sigma * grad - self.F)[1:-1]
        H = np.multiply(hess, sigma, out=hess) if want_hess else None
        return E, g, H


def _energy_stack(energies, requests):
    """Answer one request (interior values, want_hess) of each `_Energy` by
    one seminorm call: `_core` with each order and its state on a states
    axis, with the Hessian assembled if any request asks for one; a lone
    problem, which may have s = 1, through `_seminorm_value_grad`, as the
    one state of its answer. Each answer has the bits of its lone call."""
    states = [e.state(v) for e, (v, _) in zip(energies, requests)]
    want_hess = any(w for _, w in requests)
    if len(energies) == 1:
        out = [[o] for o in _seminorm_value_grad(
            energies[0].problem, states[0], True, want_hess)]
    else:
        out = _core(energies[0].problem.G,
                    np.array([e.problem.s for e in energies]), states,
                    want_grad=True, want_hess=want_hess)
    return [e.take(u, w, *(o[i] for o in out)) for i, (e, u, (_, w))
            in enumerate(zip(energies, states, requests))]


def _newton_direction(H, g):
    """-H^{-1} g: a chain solve at s = 1, an LU below; None where the LU
    finds H singular or d is not finite or not downhill (g.d >= 0)."""
    try:
        d = (-_chain_solve(H, g) if H.ndim == 1
             else np.linalg.solve(H[1:-1, 1:-1], -g))
    except np.linalg.LinAlgError:
        return None
    return d if np.all(np.isfinite(d)) and g @ d < 0.0 else None


@np.errstate(divide="ignore", invalid="ignore")
def _chain_solve(k, r):
    """x with B^T diag(k) B x = r, B the n + 1 element differences, in O(n):
    fluxes k_e dx_e = q - R_e, R = (0, cumsum(r)); sum(dx) = 0 fixes q. Taken
    about j = argmin k, so a weight of 0, tiny or infinite keeps accuracy."""
    R = np.concatenate([[0.0], np.cumsum(r)])
    j = int(np.argmin(k))
    w, dR = 1.0 / np.delete(k, j), np.delete(R, j) - R[j]
    jump = (w @ dR) / (1.0 + k[j] * w.sum())
    return np.cumsum(np.insert(w * (k[j] * jump - dR), j, jump)[:-1])


def _stiffness_solve(r, h):
    """K^{-1} r for the interior stiffness K = tridiag(-1, 2, -1) / h."""
    return _chain_solve(np.full(r.size + 1, 1.0 / h), r)


def _secant_step(v, d, gd):
    """Step along the descent direction d (gd = g.d < 0) where the secant
    of the directional derivative vanishes, from the first of the probes
    1, 4, 16, ... at which it rises; None if it never rises. A generator
    that yields its probes as `_descent` does."""
    probe = 1.0
    for _ in range(12):
        _, g_try, _ = yield v + probe * d, False
        gd_try = float(g_try @ d)
        if gd_try > gd * (1.0 - 1e-9):
            step = probe * gd / (gd - gd_try)
            return min(max(step, 1e-14 * probe), 1e6 * probe)
        probe *= 4.0
    return None


def _descent(energy_at, start):
    """The Newton loop of `solve` (see there) for the problem of the
    `_Energy` ``energy_at``, as a generator: it yields each evaluation it
    needs as (interior values, want_hess), is sent back (E, interior
    gradient, H or None), and returns the SolveResult. It evaluates
    nothing itself: ``energy_at`` gives its states and counts, and the
    loop that runs it, `_solve_stack`, answers its requests, in the same
    rounds as those of other problems."""
    problem = energy_at.problem
    # one jet of G: G' on a screening grid, and G''(0)
    _, d1, d2 = problem.G(np.append(np.logspace(-6, 3, 64), 0.0), 3)
    if np.any(np.diff(d1[:-1]) <= 0.0):
        warnings.warn(
            "derivative is not strictly increasing on the screening grid; "
            "the minimizer may not be unique", UniquenessWarning)
    ni = problem.mesh_nodes - 2
    h = (problem.omega[1] - problem.omega[0]) / (ni + 1)
    # For t^2 the energy is quadratic: one Newton step minimizes it.
    quadratic = problem.G.kind == "power" and problem.G.params[0] == 2.0
    if start is None:
        v = np.zeros(ni)
        # G''(0) of 0 or infinity makes the Hessian at the zero state
        # singular or infinite, so it is not assembled there.
        want_hess = 0.0 < float(d2[-1]) < np.inf
    else:
        problem._check_state(start)
        v = start.values[1:-1]
        want_hess = True
    E, g, H = yield v, want_hess
    history = [E]
    iterations = 0
    stop = None

    while iterations < _MAX_ITER:
        d = None if H is None else _newton_direction(H, g)
        newton = d is not None
        if not newton:
            d = _stiffness_solve(-g, h)
        decrement = -float(g @ d)
        if newton:
            tol = _DECREMENT * abs(E)
        elif iterations:
            tol = _DECREMENT * (_DECREMENT * max(1.0, abs(E)))
        else:
            tol = 0.0  # a first gradient step is taken unless g = 0
        small = decrement <= tol
        if small and not iterations:
            stop = StopReason.INITIAL
            break
        if small and not newton:
            stop = StopReason.TOLERANCE
            break
        if newton and (small or quadratic):
            E_try, g_try, _ = yield v + d, False
            kept = E_try <= E + _ROUNDOFF * abs(E)
            if kept:
                v, E, g = v + d, E_try, g_try
                history.append(E)
                iterations += 1
            stop = (StopReason.TOLERANCE if kept or small
                    else StopReason.LINE_SEARCH)
            break
        step = 1.0 if newton else (yield from _secant_step(v, d, -decrement))
        if step is None:
            stop = StopReason.LINE_SEARCH
            break
        # The first trial carries the next Hessian; a halved step that
        # passes is assembled again with its Hessian.
        for trial_no in range(60):
            trial = v + step * d
            E_try, g_try, H = yield trial, trial_no == 0
            if E_try <= E - _ARMIJO * step * decrement:
                break
            step *= _BACKTRACK
        else:
            stop = StopReason.LINE_SEARCH
            break
        v, E, g = trial, E_try, g_try
        history.append(E)
        iterations += 1
        if H is None and iterations < _MAX_ITER:
            E, g, H = yield v, True

    return SolveResult(
        u=energy_at.state(v),
        energy=E,
        iterations=iterations,
        grad_norm=float(np.max(np.abs(g))),
        stop_reason=stop or StopReason.BUDGET,
        decrement=decrement,
        evaluations=energy_at.evaluations,
        hessians=energy_at.hessians,
        energy_history=tuple(history),
    )


def solve(problem: DirichletProblem,
          start: Optional[GridFunction] = None) -> SolveResult:
    """Minimize the discrete energy over the zero-boundary cone.

    The first iterate is the interior of ``start``, a state on the problem
    mesh such as a nearby problem's minimizer, or zero if none is given.
    Damped Newton on the exact discrete Hessian: the direction solves
    sigma H d = -g on the interior nodes and the step starts at 1. Where
    that solve finds H singular, or the direction is not finite (the zero
    start when G''(0) is 0 or infinite, as for t^p with p != 2; equal
    pairs or slopes for p < 2) or not downhill, the direction is the
    gradient preconditioned by the tridiagonal local stiffness K,
    d = -K^{-1} g, and the step starts at a secant guess. K, and H at
    s = 1, are chains solved in O(n). Either step is halved until the
    Armijo test holds, so the descent is monotone.

    Stops on the squared decrement lambda^2 = -g.d, which is g.H^{-1}g on
    a Newton direction and the dual norm g.K^{-1}g on a gradient one;
    unlike the nodal gradient it does not scale with the mesh
    (Boyd-Vandenberghe, Convex Optimization, 9.5.1). Once lambda^2 <=
    tol = 1e-10 |E| on a Newton direction, its step is the last one: this
    near the minimizer the full step squares the decrement, so it is taken
    without backtracking or a new Hessian, and kept unless E rises beyond
    its roundoff. So is the first Newton step for t^2, which minimizes
    that quadratic energy exactly. Both tests are relative to |E|, so a
    small load is solved as accurately as a unit one. A gradient step only
    shrinks the decrement by a factor, so a gradient direction ends the
    solve where it is once lambda^2 <= 1e-20 max(1, |E|), the decrement a
    last Newton step leaves; that floor stays absolute below |E| = 1,
    since this decrement is in the stiffness metric, not in energy units.
    The first direction is exempt from that floor: a gradient direction
    at the start is always taken unless g = 0, so a tiny load is solved,
    not returned as u = 0. `StopReason.INITIAL` thus means g = 0, or a
    Newton decrement under its relative tolerance. Every Newton step
    before the last has lambda^2 far above the roundoff of E, so the
    Armijo test ranks it. `stop_reason` says why the solve stopped;
    `decrement` is the lambda^2 of the last direction, below its
    tolerance unless that was the exact step for t^2.

    The loop is the generator `_descent`, driven by `_solve_stack` for
    this one problem: one seminorm call per evaluation.
    """
    return _solve_stack([problem], start)[0]


def _solve_stack(problems, start):
    """[solve(p, start) for p in problems], bit for bit, in lockstep.

    The problems share G, mesh, rhs and scaling, and each has s < 1, or
    there is one problem, whose s may be 1. Each round answers the
    pending request of every problem still running with one seminorm call
    (`_energy_stack`): a stacked `_core` call, its states on a leading
    axis, or the lone problem's own call; a problem leaves the stack when
    its `_descent` returns. This is vectorization, not concurrency: the
    rounds run one after another.
    """
    energies = [_Energy(p) for p in problems]
    runs = [_descent(e, start) for e in energies]
    requests = [next(r) for r in runs]
    results = [None] * len(runs)
    live = list(range(len(runs)))
    while live:
        answers = _energy_stack([energies[i] for i in live],
                                [requests[i] for i in live])
        for i, answer in zip(live, answers):
            try:
                requests[i] = runs[i].send(answer)
            except StopIteration as done:
                results[i] = done.value
        live = [i for i in live if results[i] is None]
    return results


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
    sets s = 1. It is solved first, by `solve`, and its minimizer u starts
    every s < 1 solve: the minimizers u_s tend to u as s -> 1, so the
    ladder warm-starts Newton near each u_s. The s < 1 solves run in
    lockstep in the same loop (`_solve_stack`): each round of their
    Newton loops is one `_core` call with one state per order still
    running, and each result is bit for bit that of its own
    `solve(problem, start=u)`, a stack of one. Gaps are reported as energy
    differences and as the gauge norm of u_s - u for the plain modular,
    which is 0 where u_s = u.
    """
    s_list = _validate_s_list(s_list)
    tilde = limit_density(problem_template.G, 1).as_orlicz()
    local_problem = replace(problem_template, s=1.0, G=tilde)
    local = solve(local_problem)
    mid = 0.5 * (problem_template.omega[0] + problem_template.omega[1])
    local_mid = float(local.u(mid))

    entries = []
    problems = [replace(problem_template, s=s, scaling="bbm_scaled")
                for s in s_list]
    for s, res in zip(s_list, _solve_stack(problems, local.u)):
        # looked up at call time, so a wrapped copy of either name runs
        gap = grid.luxemburg_norm(lambda f: modular(problem_template.G, f),
                                  res.u - local.u)
        entries.append(GammaEntry(
            s=s,
            lux_gap=gap,
            energy_gap=abs(res.energy - local.energy),
            midpoint=float(res.u(mid)),
            result=res,
        ))
    return GammaReport(entries=tuple(entries), local=local,
                       local_midpoint=local_mid)

