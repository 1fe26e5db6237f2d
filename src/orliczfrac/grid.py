"""Piecewise-linear functions on uniform 1D meshes and their modulars.

A GridFunction lives on a uniform mesh over a support interval and is
extended by zero to the rest of the line. It is the discrete stand-in for a
member of the zero-trace fractional class; membership in the discrete
zero-trace cone just means both boundary nodal values vanish.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._quadrature import gauss_rule_01
from .errors import (
    DegenerateMollifierWarning,
    DivergentModularError,
    InvalidInputError,
    InvalidParameterError,
)
from .orlicz import OrliczFunction

_MODULAR_ORDER = 8  # Gauss points per element for plain modulars


@dataclass(frozen=True)
class GridFunction:
    """Nodal values on a uniform mesh over (left, right), zero outside."""

    left: float
    right: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 2:
            raise InvalidParameterError("need at least 2 nodal values")
        if not (np.isfinite(self.left) and np.isfinite(self.right)
                and self.left < self.right):
            raise InvalidParameterError("need finite left < right")
        if not np.all(np.isfinite(vals)):
            raise InvalidParameterError("nodal values must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def node_count(self):
        return self.values.size

    @property
    def spacing(self):
        return (self.right - self.left) / (self.node_count - 1)

    @property
    def nodes(self):
        return np.linspace(self.left, self.right, self.node_count)

    @property
    def slopes(self):
        return np.diff(self.values) / self.spacing

    @property
    def in_zero_trace_cone(self):
        return self.values[0] == 0.0 and self.values[-1] == 0.0

    def __call__(self, x):
        return np.interp(np.asarray(x, dtype=float), self.nodes, self.values,
                         left=0.0, right=0.0)

    def with_values(self, values):
        return GridFunction(self.left, self.right, values)

    def _binary(self, other, op):
        if not isinstance(other, GridFunction):
            return NotImplemented
        if (other.left != self.left or other.right != self.right
                or other.node_count != self.node_count):
            raise InvalidInputError("mesh mismatch in grid arithmetic")
        return self.with_values(op(self.values, other.values))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, c):
        return self.with_values(self.values * float(c))

    __rmul__ = __mul__

    def embed(self, left, right):
        """Re-express on a larger aligned mesh with the same spacing."""
        h = self.spacing
        kl = (self.left - left) / h
        kr = (right - self.right) / h
        if kl < -1e-9 or kr < -1e-9 or abs(kl - round(kl)) > 1e-9 * max(1, abs(kl)) \
                or abs(kr - round(kr)) > 1e-9 * max(1, abs(kr)):
            raise InvalidInputError("embedding mesh is not aligned")
        kl, kr = int(round(kl)), int(round(kr))
        vals = np.concatenate([np.zeros(kl), self.values, np.zeros(kr)])
        return GridFunction(self.left - kl * h, self.right + kr * h, vals)

    @staticmethod
    def from_callable(f, left, right, node_count):
        x = np.linspace(left, right, node_count)
        return GridFunction(left, right, np.asarray(f(x), dtype=float))

    @staticmethod
    def zeros(left, right, node_count):
        return GridFunction(left, right, np.zeros(node_count))

    @staticmethod
    def hat(left=-1.0, right=1.0, node_count=129, peak=1.0):
        """Tent profile: `peak` at the midpoint, zero at the endpoints."""
        mid = 0.5 * (left + right)
        half = 0.5 * (right - left)

        def f(x):
            return peak * np.maximum(0.0, 1.0 - np.abs(x - mid) / half)

        return GridFunction.from_callable(f, left, right, node_count)

    def to_csv(self):
        buf = io.StringIO()
        buf.write("x,u\n")
        for x, v in zip(self.nodes, self.values):
            buf.write(f"{x:.17g},{v:.17g}\n")
        return buf.getvalue()

    @staticmethod
    def from_csv(text):
        rows = [ln for ln in text.strip().splitlines()[1:] if ln]
        xs, vs = zip(*(map(float, ln.split(",")) for ln in rows))
        return GridFunction(xs[0], xs[-1], np.asarray(vs))


def modular(G: OrliczFunction, u: GridFunction) -> float:
    """Plain modular: integral of G(|u|) via per-element Gauss quadrature."""
    x, w = gauss_rule_01(_MODULAR_ORDER)
    v = u.values
    vals = v[:-1, None] * (1.0 - x)[None, :] + v[1:, None] * x[None, :]
    return u.spacing * float(np.sum(w[None, :] * G(np.abs(vals))))


def gradient_modular(G: OrliczFunction, u: GridFunction) -> float:
    """Modular of the slope: sum over elements of h * G(|slope|)."""
    return u.spacing * float(np.sum(G(np.abs(u.slopes))))


def luxemburg_norm(modular_evaluator: Callable[[GridFunction], float],
                   u: GridFunction) -> float:
    """Gauge norm inf{lam > 0 : Phi(u/lam) <= 1} by monotone bisection.

    The bracket is grown/shrunk by factors of 2 from lam = 1; the bisection
    runs to an absolute tolerance of 1e-10 times the initial bracket width.
    """
    if not np.any(u.values):
        return 0.0

    def phi(lam):
        return modular_evaluator(u * (1.0 / lam))

    hi = 1.0
    grow = 0
    while phi(hi) > 1.0:
        hi *= 2.0
        grow += 1
        if grow > 64:
            raise DivergentModularError(
                "modular stays above 1 for scalings up to 2^64")
    lo = hi / 2.0
    while lo > 2.0 ** -64 and phi(lo) <= 1.0:
        hi = lo
        lo /= 2.0
    if phi(lo) <= 1.0:
        return 0.0

    tol = 1e-10 * (hi - lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if phi(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def translate(u: GridFunction, shift: float) -> GridFunction:
    """Shifted function x -> u(x + shift), resampled on a covering mesh.

    The output mesh keeps the spacing of u and covers the union of the
    original and shifted supports; shifts that are whole multiples of the
    spacing reproduce nodal values exactly.
    """
    if abs(shift) >= u.right - u.left:
        raise InvalidParameterError("shift must be smaller than the support")
    if shift == 0.0:
        return u
    h = u.spacing
    k = int(math.ceil(abs(shift) / h - 1e-12))
    if shift > 0:
        left, right = u.left - k * h, u.right
    else:
        left, right = u.left, u.right + k * h
    n = u.node_count + k
    xs = np.linspace(left, right, n)
    return GridFunction(left, right, u(xs + shift))


def _bump(x):
    out = np.zeros_like(x)
    m = np.abs(x) < 1.0
    out[m] = np.exp(-1.0 / (1.0 - x[m] ** 2))
    return out


def mollify(u: GridFunction, eps: float) -> GridFunction:
    """Convolution with the standard bump of width eps, mesh-renormalized.

    The kernel is sampled on the mesh and rescaled so its discrete mass is
    exactly 1, which preserves the trapezoid integral of nonnegative inputs
    to roundoff. Widths below one mesh spacing are degenerate: a warning is
    issued and u is returned unchanged.
    """
    if eps <= 0.0:
        raise InvalidParameterError("mollification width must be positive")
    h = u.spacing
    if eps < h:
        warnings.warn("mollifier width below one mesh spacing; "
                      "returning input unchanged", DegenerateMollifierWarning)
        return u
    k = int(math.ceil(eps / h - 1e-12))
    w = _bump(np.arange(-k, k + 1) * h / eps)
    w /= w.sum()
    padded = u.embed(u.left - k * h, u.right + k * h)
    vals = np.convolve(padded.values, w, mode="same")
    return padded.with_values(vals)


def truncate(u: GridFunction, k: float) -> GridFunction:
    """Multiply by the plateau cutoff: 1 on |x| <= k, 0 beyond |x| >= 2k.

    The ramp is linear, so the cutoff slope is exactly 1/k.
    """
    if k <= 0.0:
        raise InvalidParameterError("truncation radius must be positive")
    eta = np.clip((2.0 * k - np.abs(u.nodes)) / k, 0.0, 1.0)
    return u.with_values(u.values * eta)
