"""Randomized property sweeps for growth functions and grid transforms.

Each check returns a PropertyResult with the violation count and the worst
margin (positive margin = worst violation size). The sweeps are shared by
the `check` CLI command and the acceptance suite; the inequality and
transform sweeps take their sample counts as parameters, so callers pick
their own cost/coverage tradeoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .fractional import fractional_modular
from .grid import (
    GridFunction,
    gradient_modular,
    luxemburg_norm,
    modular,
    mollify,
    translate,
    truncate,
)
from .limit_density import sphere_surface
from .orlicz import OrliczFunction, conjugate

_ATOL = 1e-12
_RTOL = 1e-12  # roundoff slack scales with the magnitude of the bound
_REL_SLACK = 1e-3  # transform bounds: relative slack for quadrature noise
_SMOOTHING_PASSES = 2
_GAUGE_SAMPLES, _GAUGE_NODES = 10, 129


@dataclass(frozen=True)
class PropertyResult:
    name: str
    samples: int
    violations: int
    worst_margin: float

    @property
    def passed(self):
        return self.violations == 0


def _tally(name, lhs, rhs):
    """Count lhs <= rhs failures beyond roundoff slack."""
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    margin = lhs - (rhs + _ATOL + _RTOL * np.abs(rhs))
    bad = margin > 0.0
    worst = float(np.max(margin)) if margin.size else 0.0
    return PropertyResult(name=name, samples=int(lhs.size),
                          violations=int(np.sum(bad)), worst_margin=worst)


def inequality_suite(G: OrliczFunction, n_samples: int = 1000,
                     seed: int = 0) -> List[PropertyResult]:
    """The scalar inequality battery for one growth function.

    Covers the rescaling bound G(ab) <= a^p G(b), the split triangle
    inequality, the lower scaling t^(2q) G(a) <= G(at), the conjugate bound
    G*(G'(t)) <= (p-1) G(t), the Young inequality, subadditivity, the
    contraction property, and the two-sided floor min(a, a^(2q)) <= G(a).
    """
    rng = np.random.default_rng(seed)
    C = G.doubling_constant
    p = G.upper_exponent
    q = G.lower_exponent
    out = []

    a = rng.uniform(0.0, 100.0, n_samples)
    b = rng.uniform(0.0, 100.0, n_samples)
    out.append(_tally("subadditivity", G(a + b), 0.5 * C * (G(a) + G(b))))

    a = rng.uniform(1e-8, 100.0, n_samples)
    b = rng.uniform(1e-12, 1.0, n_samples)
    out.append(_tally("contraction", G(a * b), b * G(a)))

    a = 1.0 + rng.uniform(0.0, 9.0, n_samples)
    b = rng.uniform(0.0, 10.0, n_samples)
    out.append(_tally("rescaling upper", G(a * b), a ** p * G(b)))

    a = rng.uniform(1e-8, 100.0, n_samples)
    t = rng.uniform(0.0, 1.0, n_samples)
    out.append(_tally("rescaling lower", t ** (2.0 * q) * G(a), G(a * t)))

    for delta in (0.1, 1.0, 10.0):
        kappa = math.ceil(math.log2(1.0 + 1.0 / delta))
        a = rng.uniform(0.0, 50.0, n_samples)
        b = rng.uniform(0.0, 50.0, n_samples)
        out.append(_tally(
            f"split triangle (delta={delta:g})",
            G(a + b), C ** kappa * G(a) + (1.0 + delta) ** p * G(b)))

    a = rng.uniform(0.0, 50.0, n_samples)
    out.append(_tally("floor", np.minimum(a, a ** (2.0 * q)), G(a)))

    t = rng.uniform(1e-6, 20.0, n_samples)
    a = rng.uniform(0.0, 20.0, n_samples)
    conj_at_a = np.array([conjugate(G, float(v)) for v in a])
    out.append(_tally("young", a * t, G(t) + conj_at_a))

    t = rng.uniform(1e-6, 20.0, n_samples)
    conj_of_slope = np.array([conjugate(G, float(d)) for d in G(t, 2)[1]])
    out.append(_tally("conjugate of derivative", conj_of_slope,
                      (p - 1.0) * G(t)))
    return out


def random_zero_trace(rng, left=-1.0, right=1.0, node_count=257,
                      amplitude=1.0) -> GridFunction:
    """Random piecewise-linear function vanishing at the boundary: normal
    nodal noise under `_SMOOTHING_PASSES` passes of the (1/4, 1/2, 1/4)
    filter."""
    v = rng.normal(size=node_count)
    for _ in range(_SMOOTHING_PASSES):
        v[1:-1] = 0.25 * v[:-2] + 0.5 * v[1:-1] + 0.25 * v[2:]
    v[0] = v[-1] = 0.0
    peak = np.max(np.abs(v))
    if peak > 0:
        v *= amplitude / peak
    return GridFunction(left, right, v)


def transform_suite(G: OrliczFunction, s_values: Sequence[float] = (0.3, 0.6, 0.9),
                    n_functions: int = 50, node_count: int = 257,
                    seed: int = 0) -> List[PropertyResult]:
    """Modular transform bounds on random zero-trace grid functions.

    Checks, per sampled function and fractional order: the mollification
    bound, the truncation bound, the translation bound, the local-to-
    nonlocal upper bound, and the two-order comparison; each bound gets
    `_REL_SLACK` relative slack for quadrature noise and is counted by
    `_tally`. Phi_s of each function and of its mollified and truncated
    versions is one multi-order `fractional_modular` call over ``s_values``.
    """
    rng = np.random.default_rng(seed)
    C = G.doubling_constant
    surface = sphere_surface(1)
    gaps = {name: [] for name in
            ("mollification", "truncation", "translation",
             "nonlocal upper bound", "two-order comparison")}

    def record(name, lhs, rhs):
        gaps[name].append(lhs - rhs * (1.0 + _REL_SLACK))

    s_values = list(s_values)
    for _ in range(n_functions):
        u = random_zero_trace(rng, node_count=node_count,
                              amplitude=rng.uniform(0.2, 2.0))
        h_mesh = u.spacing
        phi_plain = modular(G, u)
        phi_slope = gradient_modular(G, u)
        phi_s = fractional_modular(G, s_values, u).tolist()

        eps = rng.uniform(2.0 * h_mesh, max(0.15, 3.0 * h_mesh))
        u_eps = mollify(u, eps)
        k = rng.uniform(0.25, 0.9)
        u_k = truncate(u, k)
        shift = rng.uniform(0.05, 0.45) * rng.choice([-1.0, 1.0])
        shifted = translate(u, shift)
        diff = shifted - u.embed(shifted.left, shifted.right)
        phi_eps = fractional_modular(G, s_values, u_eps).tolist()
        phi_k = fractional_modular(G, s_values, u_k).tolist()
        phi_diff = modular(G, diff)

        for s, phi, phi_e, phi_t in zip(s_values, phi_s, phi_eps, phi_k):
            record("mollification", phi_e, phi)
            record("truncation", phi_t,
                   phi + 0.5 * C ** 2 * surface
                   * (1.0 / s + 1.0 / (k * (1.0 - s))) * phi_plain)
            record("translation", phi_diff,
                   2.0 ** (2.0 + s) * C / 2.0 * abs(shift) ** s * phi)
            record("nonlocal upper bound", phi,
                   surface / (1.0 - s) * phi_slope
                   + 2.0 * C * surface / s * phi_plain)
        for s1, s2, phi1, phi2 in zip(s_values, s_values[1:],
                                      phi_s, phi_s[1:]):
            record("two-order comparison",
                   (1.0 - s1) * phi1,
                   2.0 ** (1.0 - s1) * (1.0 - s2) * phi2
                   + 2.0 * C * surface * (1.0 - s1) / s1 * phi_plain)

    return [_tally(name, lhs, 0.0) for name, lhs in gaps.items()]


def luxemburg_consistency(G: OrliczFunction, seed: int = 1
                          ) -> List[PropertyResult]:
    """At the gauge norm, the modular brackets 1 from both sides, for
    `_GAUGE_SAMPLES` random zero-trace functions on `_GAUGE_NODES` nodes."""
    rng = np.random.default_rng(seed)
    bad = 0
    worst = 0.0
    for _ in range(_GAUGE_SAMPLES):
        u = random_zero_trace(rng, node_count=_GAUGE_NODES,
                              amplitude=rng.uniform(0.5, 3.0))
        lam = luxemburg_norm(lambda f: modular(G, f), u)
        delta = 1e-6 * lam
        above = modular(G, u * (1.0 / (lam + delta)))
        below = modular(G, u * (1.0 / (lam - delta)))
        if not (above <= 1.0 + 1e-6 <= below + 2e-6):
            bad += 1
            worst = max(worst, abs(above - 1.0), abs(below - 1.0))
    return [PropertyResult("gauge bracket", _GAUGE_SAMPLES, bad,
                           worst)]


def builtin_suite_functions():
    """The growth functions every randomized battery runs against."""
    from .orlicz import make_combination, make_power, make_power_log

    return [
        make_power(1.5),
        make_power(2.0),
        make_power(3.0),
        make_power_log(2.0),
        make_power_log(3.0),
        make_combination("max", [make_power(2.0), make_power(3.0)]),
        make_combination("sum", [make_power(2.0), make_power(3.0)],
                         [0.5, 2.0]),
    ]
