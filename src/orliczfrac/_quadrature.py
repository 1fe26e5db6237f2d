"""Small shared quadrature helpers (cached Gauss-Legendre and tanh-sinh
rules)."""

import math
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=64)
def gauss_rule_01(order):
    """Gauss-Legendre nodes/weights on the reference interval (0, 1).

    Weights sum to 1, so ``h * w @ f(a + h * x)`` integrates f over (a, a+h).
    """
    x, w = np.polynomial.legendre.leggauss(order)
    nodes = 0.5 * (x + 1.0)
    weights = 0.5 * w
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@lru_cache(maxsize=8)
def tanh_sinh_rule_01(steps, span):
    """Tanh-sinh (double-exponential) nodes/weights on (0, 1).

    x(t) = (1 + tanh(pi/2 sinh t)) / 2 sampled at t = k*span/steps,
    |k| <= steps (Takahasi-Mori 1974): 2*steps+1 nodes that crowd
    double-exponentially toward both ends, so the rule keeps its accuracy
    for integrands with algebraic or logarithmic endpoint behaviour. Nodes
    in the left half are computed as distances from 0 without cancellation
    (down to ~exp(-pi sinh(span))), so ``a + h * x`` resolves the left end;
    right-half nodes near 1 may round to 1. Weights sum to 1 up to the
    truncation.
    """
    h = span / steps
    t = h * np.arange(-steps, steps + 1)
    u = 0.5 * math.pi * np.sinh(t)
    d = 1.0 / (1.0 + np.exp(2.0 * np.abs(u)))
    nodes = np.where(t <= 0.0, d, 1.0 - d)
    weights = 0.25 * math.pi * h * np.cosh(t) / np.cosh(u) ** 2
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def gauss_integrate(f, a, b, order=32):
    """Fixed-order Gauss-Legendre integral of a vectorized f over (a, b)."""
    x, w = gauss_rule_01(order)
    return (b - a) * float(w @ f(a + (b - a) * x))
