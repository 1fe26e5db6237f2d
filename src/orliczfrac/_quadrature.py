"""Small shared quadrature helpers (cached Gauss-Legendre and tanh-sinh
rules)."""

import math
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=64)
def gauss_rule_01(order):
    """Gauss-Legendre nodes/weights on the reference interval (0, 1).

    Weights sum to 1, so ``h * w @ f(a + h * x)`` integrates f over (a, a+h).
    The rule on (-1, 1) takes the steps of numpy's ``leggauss``, and has
    its bits, without importing ``numpy.polynomial``: the eigenvalues of
    the symmetric (Golub-Welsch) companion matrix of P_order, one Newton
    step on them, weights from P_(order-1) and P'_order, and the
    symmetrization of both.
    """
    n = order
    p = [0.0] * n + [1.0]  # P_n in the Legendre basis
    # P_n' = sum of (2k + 1) P_k over k = n-1, n-3, ...
    dp = [2.0 * k + 1.0 if (n - 1 - k) % 2 == 0 else 0.0 for k in range(n)]
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    companion = np.zeros((n, n))
    flat = companion.reshape(-1)
    flat[1::n + 1] = flat[n::n + 1] = np.arange(1, n) * scl[:-1] * scl[1:]
    x = np.linalg.eigvalsh(companion)
    df = _legendre_series(x, dp)
    x -= _legendre_series(x, p) / df
    fm = _legendre_series(x, p[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    nodes = 0.5 * (x + 1.0)
    weights = 0.5 * w
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _legendre_series(x, c):
    """sum_k c[k] P_k(x) by Clenshaw's recurrence, in the operations of
    numpy's ``legval``."""
    c0, c1 = (c[0], 0.0) if len(c) == 1 else (c[-2], c[-1])
    nd = len(c)
    for i in range(3, len(c) + 1):
        nd -= 1
        c0, c1 = (c[-i] - c1 * ((nd - 1) / nd),
                  c0 + c1 * x * ((2 * nd - 1) / nd))
    return c0 + c1 * x


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

