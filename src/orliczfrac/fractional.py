"""The fractional modular on grid functions (n = 1) and its nodal gradient.

The double integral

    Phi_s(u) = iint G(|u(x) - u(y)| / |x-y|^s) dx dy / |x-y|

is split into three pieces:

  (i)  same-element blocks, integrated in the difference variable, where the
       kernel singularity lives; pure powers get the explicit antiderivative,
       everything else a fixed Gauss rule after the substitution
       xi = t^(1-s) that flattens the singularity;
  (ii) distinct-element blocks by tensor Gauss quadrature, looped over the
       element offset j: the pairs at one offset share their distances, so
       the kernel tables dist**(-s) and 2 h^2 w_a w_b / dist are built once
       per offset (and per call). Offsets 1 and 2 use order 5 (`_ORDER`);
       a further offset j gets the smallest order q >= 2 whose Gauss error
       bound rho_j**(-2q), with rho_j = (2j-1) + sqrt((2j-1)**2 - 1) the
       Bernstein-ellipse radius of the kernel singularity, is no larger
       than the order-5 bound at offset 2 (on 1024 elements: 2 offsets at
       order 5, 3 at 4, 16 at 3, the rest at 2);
  (iii) the far field (one point outside the support), which reduces exactly
       to the radial profile I(w) = int_0^w G(v)/v dv -- no cutoff is
       needed. I is half the n = 1 limit density: the closed form where
       G has one (`tilde_closed_form(..., 1, w) / 2`), otherwise the shared
       kink-split tanh-sinh rule `limit_density.radial_profile`, at the
       order-5 Gauss points of every element. Its derivative is the exact
       I'(w) = G(w)/w.

The gradient returned by the *_with_gradient entry point is the exact
derivative of the computed discrete value (same rules, same nodes) in
pieces (i) and (ii), and the exact derivative of the profile in (iii), which
is what makes finite-difference checks of the energy meaningful. The
absolute pairing `pairing_abs` is built from the same three pieces.

Evaluation is sequential with a fixed reduction order, so results are
bit-identical from run to run; element-pair blocks are independent and could
be farmed out, provided the reduction order is preserved.
"""

from __future__ import annotations

import numpy as np

from ._quadrature import gauss_rule_01
from .errors import InvalidInputError, InvalidParameterError
from .grid import GridFunction
from .limit_density import _closed_form_spec, radial_profile, tilde_closed_form
from .orlicz import OrliczFunction

_SAME_ELEMENT_ORDER = 48
_ORDER = 5  # Gauss order of the far field and of the pairs at offsets 1, 2


def _same_element(G, s, h, slopes, want_grad):
    """Sum over elements of 2*int_0^h (h-t) G(|m| t^(1-s)) dt/t (+ d/dm).

    Pure powers get the explicit antiderivative. Otherwise the substitution
    xi = t^(1-s) flattens the kernel and a fixed Gauss rule integrates each
    panel between the (per-element) preimages of G's derivative kinks, which
    keeps the rule's accuracy for kinked growth functions.
    """
    m = np.abs(slopes)
    sgn = np.sign(slopes)
    if G.kind == "power":
        p = G.params[0]
        beta = (1.0 - s) * p
        coef = 2.0 * h ** (beta + 1.0) / (beta * (beta + 1.0))
        vals = coef * m ** p
        ders = coef * p * m ** (p - 1.0) * sgn if want_grad else None
        return float(np.sum(vals)), ders

    x, w = gauss_rule_01(_SAME_ELEMENT_ORDER)
    H = h ** (1.0 - s)
    with np.errstate(divide="ignore"):
        cuts = [np.clip(np.where(m > 0.0, k / np.maximum(m, 1e-300), H),
                        0.0, H)
                for k in sorted(G.kinks)]
    edges = [np.zeros_like(m)] + cuts + [np.full_like(m, H)]

    scale = 2.0 / (1.0 - s)
    vals = np.zeros_like(m)
    ders = np.zeros_like(m) if want_grad else None
    for lo, hi in zip(edges[:-1], edges[1:]):
        width = np.maximum(hi - lo, 0.0)
        xi = lo[:, None] + width[:, None] * x[None, :]
        with np.errstate(under="ignore", divide="ignore", invalid="ignore"):
            back = xi ** (1.0 / (1.0 - s))
            outer = width[:, None] * w[None, :] * (h - back)
            core = np.where(xi > 0.0, G(m[:, None] * xi) / np.where(
                xi > 0.0, xi, 1.0), 0.0)
        vals += scale * np.sum(outer * core, axis=1)
        if want_grad:
            ders += scale * np.sum(outer * G.deriv(m[:, None] * xi), axis=1)
    if want_grad:
        ders *= sgn
    return float(np.sum(vals)), ders


def _at_gauss_points(v, x):
    """Piecewise-linear nodal values v at the points x (in (0, 1)) of
    every element: an (elements, points) array."""
    return v[:-1, None] * (1.0 - x)[None, :] + v[1:, None] * x[None, :]


def _pair_orders(ne, order):
    """Gauss order of the distinct-element pairs at offsets 1 .. ne-1.

    Offsets 1 and 2 keep ``order``. A pair at offset j >= 3 gets the
    smallest q >= 2 with rho_j**(-2q) <= rho_2**(-2*order), where
    rho_j = (2j-1) + sqrt((2j-1)**2 - 1) is the Bernstein-ellipse radius of
    the kernel singularity seen from the pair: the Gauss error bound of a
    separated pair is then no larger than that of offset 2.
    """
    c = 2.0 * np.arange(1, ne) - 1.0
    log_rho = np.log(c + np.sqrt(c * c - 1.0))
    q = np.full(ne - 1, order)
    q[2:] = np.maximum(2.0, np.ceil(order * log_rho[1:2] / log_rho[2:]))
    return q


def _pair_bands(s, h, order, *nodal):
    """Distinct-element pairs of the uniform mesh, one band per Gauss order.

    Yields ``(x, band)`` per band of offsets sharing an order q: the band's
    Gauss nodes on (0, 1) and an iterator over its offsets j. The iterator
    yields ``(j, kern, block, diffs)``. Row a*q + b stands for node a of
    the right element and node b of the left one, at distance
    dist = h (j + x_a - x_b): ``kern`` is the (q*q, 1) column dist**(-s),
    ``block`` is 2 h^2 w_a w_b / dist, and ``diffs`` holds, for each nodal
    vector, the (q*q, ne - j) differences right minus left over the pairs.
    Elements run along the last axis, so every array operation on a pair
    row is a long contiguous loop. The tables are built once per band and
    live for one call only.
    """
    ne = len(nodal[0]) - 1
    if ne < 2:
        return
    q = _pair_orders(ne, order)
    cuts = list(np.flatnonzero(np.diff(q)) + 1)
    for lo, hi in zip([0] + cuts, cuts + [ne - 1]):
        x, w = gauss_rule_01(int(q[lo]))
        offsets = np.arange(lo + 1, hi + 1)
        dist = h * (offsets[:, None, None]
                    + np.subtract.outer(x, x).reshape(-1, 1))
        kern = dist ** (-s)
        block = 2.0 * h * h * np.outer(w, w).reshape(-1, 1) / dist
        rows = []
        for v in nodal:
            V = _at_gauss_points(v, x).T
            rows.append((np.repeat(V, x.size, axis=0),
                         np.tile(V, (x.size, 1))))
        yield x, _band(offsets, kern, block, rows)


def _band(offsets, kern, block, rows):
    for j, kj, bj in zip(offsets, kern, block):
        yield j, kj, bj, [R[:, j:] - L[:, :-j] for R, L in rows]


def _distinct_pairs(G, s, u, order, want_grad):
    """(ii): value (and nodal gradient) of the distinct-element blocks.

    The gradient is accumulated per element and Gauss point of a band and
    scattered to the nodes once per band.
    """
    val = 0.0
    grad = np.zeros(u.node_count) if want_grad else None
    for x, band in _pair_bands(s, u.spacing, order, u.values):
        q = x.size
        if want_grad:
            gU = np.zeros((q, u.node_count - 1))
        for j, kern, block, (du,) in band:
            arg = np.abs(du) * kern
            val += float(np.sum(block * G(arg)))
            if want_grad:
                coef = ((block * kern) * G.deriv(arg)
                        * np.sign(du)).reshape(q, q, -1)
                gU[:, j:] += np.sum(coef, axis=1)
                gU[:, :-j] -= np.sum(coef, axis=0)
        if want_grad:
            grad[:-1] += (1.0 - x) @ gU
            grad[1:] += x @ gU
    return val, grad


def _far_points(s, u, order):
    """Gauss points of the far field: the rule (xg, wg) on (0, 1), u at the
    points of every element (U, elements x points) and the kernel
    dist**(-s) to the right and the left end of the support (kern,
    2 x elements x points)."""
    h = u.spacing
    ne = u.node_count - 1
    xg, wg = gauss_rule_01(order)
    starts = u.left + h * np.arange(ne)
    X = starts[:, None] + h * xg[None, :]
    kern = np.stack([u.right - X, X - u.left]) ** (-s)
    return xg, wg, _at_gauss_points(u.values, xg), kern


def _far_flux(G, s, h, wg, U, kern):
    """Derivative of the far-field value with respect to U, per element
    Gauss point: both sides through the exact I'(w) = G(w)/w."""
    warg = np.abs(U) * kern
    dprof = G(warg) / np.where(warg > 0.0, warg, 1.0)
    return (2.0 * h / s) * wg * np.sum(dprof * kern, axis=0) * np.sign(U)


def _far_field(G, s, u, order, want_grad):
    """(iii): value (and nodal gradient) of the far field.

    Both sides (partner beyond the right end, beyond the left end) go
    through one profile evaluation.
    """
    h = u.spacing
    xg, wg, U, kern = _far_points(s, u, order)
    warg = np.abs(U) * kern
    spec = _closed_form_spec(G)
    if spec is None:
        prof = radial_profile(G, warg)
    else:
        prof = tilde_closed_form(*spec, 1, warg) / 2.0
    val = (2.0 * h / s) * float(np.sum(wg * prof))
    if not want_grad:
        return val, None
    dc = _far_flux(G, s, h, wg, U, kern)
    grad = np.zeros(u.node_count)
    grad[:-1] += dc @ (1.0 - xg)
    grad[1:] += dc @ xg
    return val, grad


def _core(G, s, u, want_grad):
    h = u.spacing
    val, ders = _same_element(G, s, h, u.slopes, want_grad)
    pairs, pair_grad = _distinct_pairs(G, s, u, _ORDER, want_grad)
    far, far_grad = _far_field(G, s, u, _ORDER, want_grad)
    val += pairs + far
    if not want_grad:
        return val, None
    grad = pair_grad + far_grad
    grad[:-1] -= ders / h
    grad[1:] += ders / h
    return val, grad


def _check_s(s):
    if not (0.0 < s < 1.0):
        raise InvalidParameterError(f"fractional order must be in (0,1): {s}")


def fractional_modular(G: OrliczFunction, s: float, u: GridFunction) -> float:
    """Fractional modular of a grid function for s in (0, 1)."""
    _check_s(s)
    return _core(G, s, u, want_grad=False)[0]


def fractional_modular_with_gradient(G: OrliczFunction, s: float,
                                     u: GridFunction):
    """(value, nodal gradient) of the discrete fractional modular."""
    _check_s(s)
    return _core(G, s, u, want_grad=True)


def pairing_abs(G: OrliczFunction, s: float, u: GridFunction,
                v: GridFunction) -> float:
    """Absolute-value dual pairing iint g(|D_s u|) |D_s v| dmu.

    This majorizes the weak-form pairing and is the quantity bounded by
    (p - 1) Phi_s(u) + Phi_s(v) through the Young inequality. Each piece of
    the modular's rule contributes |d Phi_s(u)| times |v| at its own
    quadrature values: the element slopes, the pair differences and the
    far-field Gauss points. The pairing and the modular thus share one rule:
    the Young bound holds node by node, and for v = u and G = t^p the
    pairing is p Phi_s(u) up to roundoff.
    """
    _check_s(s)
    if (u.left, u.right, u.node_count) != (v.left, v.right, v.node_count):
        raise InvalidInputError("u and v must share a mesh")
    h = u.spacing
    _, ders = _same_element(G, s, h, u.slopes, want_grad=True)
    val = float(np.sum(np.abs(ders) * np.abs(v.slopes)))
    for _, band in _pair_bands(s, h, _ORDER, u.values, v.values):
        for _, kern, block, (du, dv) in band:
            val += float(np.sum(block * G.deriv(np.abs(du) * kern)
                                * np.abs(dv) * kern))
    xg, wg, U, kern = _far_points(s, u, _ORDER)
    flux = _far_flux(G, s, h, wg, U, kern)
    val += float(np.sum(np.abs(flux) * np.abs(_at_gauss_points(v.values, xg))))
    return val
