"""Experiment drivers for the nonlocal-to-local limit of scaled modulars.

The central object is the curve s -> (1-s) * Phi_s(u), whose s->1 limit is
the slope modular taken with the limit density of the growth function. The
drivers here sample that curve, extrapolate it, check the scale-free
Poincare ratio against its explicit budget, and exercise the
limit-of-a-sequence inequality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import InvalidParameterError, UndefinedRatioError
from .fractional import _check_s, fractional_modular
from .grid import GridFunction, gradient_modular, modular
from .limit_density import limit_density, sphere_surface
from .orlicz import OrliczFunction


@dataclass(frozen=True)
class LimitCurve:
    """Sampled scaled modulars, their extrapolation, and the local target."""

    entries: Tuple[Tuple[float, float], ...]
    extrapolated_limit: float
    target: float

    @property
    def rel_gap(self):
        if self.target == 0.0:
            return abs(self.extrapolated_limit)
        return abs(self.extrapolated_limit - self.target) / abs(self.target)


def _validate_s_list(s_list):
    """`_check_s`'s orders as a list (a scalar is one order), increasing."""
    orders = np.atleast_1d(_check_s(s_list))
    if np.any(orders[1:] <= orders[:-1]):
        raise InvalidParameterError("fractional orders must increase strictly")
    return orders.tolist()


def bbm_curve(G: OrliczFunction, u: GridFunction,
              s_list: Sequence[float]) -> LimitCurve:
    """Sample (1-s) Phi_s(u) along s_list and extrapolate to s = 1.

    All orders come from one multi-order `fractional_modular` call, so the
    distinct-element pairs are swept once for the whole curve; except for
    a pure power, or a max of pure powers whose arguments stay in [0, 1],
    its temporaries grow linearly with len(s_list), about 0.2 MB per order
    at 1025 nodes. Each sample is bit-identical to a one-order evaluation.
    Extrapolation is linear in (1-s) through the last two samples; the
    target is the slope modular with the limit density in dimension 1.
    """
    s_list = _validate_s_list(s_list)
    if not u.in_zero_trace_cone:
        raise InvalidParameterError(
            "curve input must vanish at the boundary nodes")

    orders = np.array(s_list)
    scaled = (1.0 - orders) * fractional_modular(G, orders, u)
    entries = list(zip(s_list, scaled.tolist()))

    if len(entries) >= 2:
        (s1, y1), (s2, y2) = entries[-2], entries[-1]
        sig1, sig2 = 1.0 - s1, 1.0 - s2
        extrapolated = (y2 * sig1 - y1 * sig2) / (sig1 - sig2)
    else:
        extrapolated = entries[-1][1]

    tilde = limit_density(G, 1).as_orlicz()
    target = gradient_modular(tilde, u)
    return LimitCurve(entries=tuple(entries),
                      extrapolated_limit=float(extrapolated),
                      target=float(target))


@dataclass(frozen=True)
class PoincareReport:
    s: float
    ratio: float
    budget: float

    @property
    def within_budget(self):
        return self.ratio <= self.budget


def poincare_budget(G: OrliczFunction, s: float, diameter: float) -> float:
    """Explicit admissible bound for the scale-free Poincare ratio.

    Reading the constants off the far-field lower bound for functions
    supported on a set of the given diameter d:

        ratio <= 2*q*s*(d+1)^(2*q*s) / (n*omega_n*(1-s)),  n = 1.
    """
    q = G.lower_exponent
    return 2.0 * q * s * (diameter + 1.0) ** (2.0 * q * s) \
        / (sphere_surface(1) * (1.0 - s))


def poincare_check(G: OrliczFunction, s, u: GridFunction):
    """ratio Phi_G(u) / ((1-s) Phi_s(u)) against the explicit budget.

    A 1-D sequence of orders gives a tuple of reports, one per order, from
    one `modular` and one multi-order `fractional_modular` call.
    """
    orders = _check_s(s)
    if not np.any(u.values):
        raise UndefinedRatioError("Poincare ratio undefined for zero input")
    num = modular(G, u)
    phi = np.atleast_1d(fractional_modular(G, orders, u))
    reports = tuple(
        PoincareReport(s=o, ratio=num / ((1.0 - o) * p),
                       budget=poincare_budget(G, o, u.right - u.left))
        for o, p in zip(np.ravel(orders).tolist(), phi.tolist()))
    return reports if orders.ndim else reports[0]


@dataclass(frozen=True)
class SequenceLimitReport:
    """Uniform-bound and lower-semicontinuity diagnostics along a sequence."""

    entries: Tuple[Tuple[float, float], ...]  # (s_k, (1-s_k) Phi_{s_k}(u_k))
    target: float                             # slope modular of the base
    sup_scaled: float
    tail_min: float

    @property
    def liminf_margin(self):
        return self.tail_min - self.target


def sequence_limit_demo(G: OrliczFunction, base: GridFunction,
                        s_list: Sequence[float],
                        perturbation: GridFunction | None = None
                        ) -> SequenceLimitReport:
    """Evaluate (1-s_k) Phi_{s_k}(u_k) for u_k = base + perturbation/k.

    Reports the uniform bound sup_k of the scaled modulars and the minimum
    over the tail (second half of the sampled k), whose comparison with the
    slope modular of the base function is the sampled lower-semicontinuity
    inequality.
    """
    s_list = _validate_s_list(s_list)
    if perturbation is None:
        perturbation = GridFunction.zeros(base.left, base.right,
                                          base.node_count)

    entries = []
    for k, s in enumerate(s_list, start=1):
        u_k = base + perturbation * (1.0 / k)
        entries.append((s, (1.0 - s) * fractional_modular(G, s, u_k)))

    tilde = limit_density(G, 1).as_orlicz()
    target = gradient_modular(tilde, base)
    scaled = [y for _, y in entries]
    tail = scaled[len(scaled) // 2:]
    return SequenceLimitReport(entries=tuple(entries), target=float(target),
                               sup_scaled=float(max(scaled)),
                               tail_min=float(min(tail)))
