"""Shared oracles for the test suite.

The brute-force seminorm oracle deliberately uses a decomposition unrelated
to the implementation's element blocks: midpoint Riemann in the position
variable and log-midpoint Riemann in the separation variable, with the
far-field handled by its own log grid. The exact t^2 modular of a P1 state
is a Toeplitz quadratic form in the nodal values, with no quadrature.
"""

import numpy as np
import pytest


def brute_force_seminorm(G, s, u, nx=2000, nt=2400, tmin=1e-7, tmax=1e6):
    """Dense double Riemann sum for the fractional modular (n = 1)."""
    left, right = u.left, u.right
    xs = np.linspace(left, right, nx + 1)
    xs = 0.5 * (xs[:-1] + xs[1:])
    dx = (right - left) / nx

    log_t = np.linspace(np.log(tmin), np.log(tmax), nt + 1)
    t_mid = np.exp(0.5 * (log_t[:-1] + log_t[1:]))
    dlog_t = np.diff(log_t)

    ux = u(xs)
    total = 0.0
    # x inside the support, the partner anywhere
    for sign in (1.0, -1.0):
        diff = np.abs(ux[:, None] - u(xs[:, None] + sign * t_mid[None, :]))
        total += float(np.sum(G(diff * t_mid[None, :] ** (-s))
                              * dlog_t[None, :] * dx))
    # partner inside the support, x beyond either end
    log_r = np.linspace(0.0, np.log(1e8), nt + 1)
    r_mid = np.exp(0.5 * (log_r[:-1] + log_r[1:]))
    dlog_r = np.diff(log_r)
    for dist in (right - xs, xs - left):
        r = dist[:, None] * r_mid[None, :]
        total += float(np.sum(G(np.abs(ux)[:, None] * r ** (-s))
                              * dlog_r[None, :] * dx))
    return total


def square_kernel(s, size, dps=40):
    """q(0), ..., q(size - 1) as mpmath numbers at ``dps`` digits:
    q(k) = D4 f(k) / (s (2-2s) (3-2s)), with D4 the central fourth
    difference f(k+2) - 4 f(k+1) + 6 f(k) - 4 f(k-1) + f(k-2) and
    f(k) = k^2 expm1((1-2s) log|k|) / (1-2s), f(0) = 0. As D4 k^2 = 0, this
    is D4 |k|^(3-2s) / (s (1-2s) (2-2s) (3-2s)), whose s = 1/2 is a
    removable singularity: there f(k) = k^2 log|k|, the limit, and expm1
    keeps the orders near 1/2 accurate.

    The fourth difference cancels in float64 (to 0.42 relative at
    s = 0.999 and k ~ 1000), hence mpmath.
    """
    import mpmath as mp

    with mp.workdps(dps):
        s = mp.mpf(s)
        e = 1 - 2 * s

        def f(k):
            if k == 0:
                return mp.mpf(0)
            log = mp.log(abs(k))
            return k * k * (log if e == 0 else mp.expm1(e * log) / e)

        f = [f(k) for k in range(-2, size + 2)]
        den = s * (2 - 2 * s) * (3 - 2 * s)
        return [(f[k + 4] - 4 * f[k + 3] + 6 * f[k + 2] - 4 * f[k + 1]
                 + f[k]) / den for k in range(size)]


def exact_square_modular(u, s, dps=40):
    """Phi_s(u) for G = t^2 and a P1 state u on a uniform mesh, zero
    outside its interval, as an mpmath number:

        Phi_s(u) = h^(1-2s) sum_ij c_i c_j q(i-j)    (`square_kernel`),

    since Phi_s = 4 int_0^inf (R(0) - R(r)) r^(-1-2s) dr for u's
    autocorrelation R, a hat's autocorrelation is the cubic B-spline
    (1/12) D4 |t|^3, and the kernel maps |t|^3 to a multiple of
    |t|^(3-2s). The double sum is taken over the nodal autocorrelation
    a(k) = sum_i c_i c_(i+k) (float64; exact for dyadic nodal values such
    as the hat's), so the mpmath part is O(N).
    """
    import mpmath as mp

    c = u.values
    a = np.correlate(c, c, "full")[c.size - 1:]
    with mp.workdps(dps):
        q = square_kernel(s, c.size, dps)
        form = q[0] * a[0] + 2 * mp.fsum(qk * ak for qk, ak
                                         in zip(q[1:], a[1:]))
        return +(mp.mpf(u.spacing) ** (1 - 2 * mp.mpf(s)) * form)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
