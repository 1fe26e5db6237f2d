"""The fractional modular on grid functions (n = 1) and its nodal gradient.

The double integral

    Phi_s(u) = iint G(|u(x) - u(y)| / |x-y|^s) dx dy / |x-y|

is split into three pieces:

  (i)  same-element blocks, integrated in the difference variable, where the
       kernel singularity lives; pure powers get the explicit antiderivative,
       everything else a fixed Gauss rule after the substitution
       xi = t^(1-s) that flattens the singularity;
  (ii) distinct-element blocks by tensor Gauss quadrature, grouped by the
       element offset j: the pairs at one offset share their distances, so
       the kernel tables dist**(-s) and 2 h^2 w_a w_b / dist are built once
       per band of offsets of one Gauss order (and per call). Offsets 1
       and 2 use order 5 (`_ORDER`); a further offset j gets the smallest
       order q >= 2 whose Gauss error bound rho_j**(-2q), with
       rho_j = (2j-1) + sqrt((2j-1)**2 - 1) the Bernstein-ellipse radius of
       the kernel singularity, is no larger than the order-5 bound at
       offset 2 (on 1024 elements: 2 offsets at order 5, 3 at 4, 16 at 3,
       the rest at 2). A band is walked in blocks of consecutive offsets,
       about `_BLOCK_POINTS` pair points each (309 blocks for the 1023
       offsets of 1024 elements), with one G, G', G'' call per block;
       a block's rows are padded to its first offset's length and the
       padding is set to 0 before any sum;
  (iii) the far field (one point outside the support), which reduces exactly
       to the radial profile I(w) = int_0^w G(v)/v dv -- no cutoff is
       needed. I is half the n = 1 limit density, so I, I' and I'' are
       `limit_density(G, 1).value`, `.deriv` and `.deriv2` halved, at the
       order-5 Gauss points of every element: the closed form or the
       shared quadrature for I, as `LimitDensity` chooses, and the exact
       derivatives of the profile, which need no quadrature.

The value alone may be asked for several orders s at once. Nothing in
piece (ii) but the kernel table depends on s, so the pairs of all orders
share one pass: the table dist**(-s) gets a leading axis over the orders,
and each block forms |u(x) - u(y)| once and makes one G call on the
stacked (orders, pairs, offsets, elements) argument. The blocks do not
depend on the number of orders. Pieces (i) and (iii) are evaluated per
order.

The gradient returned by the *_with_gradient entry point is the exact
derivative of the computed discrete value (same rules, same nodes) in
pieces (i) and (ii), and the exact derivative of the profile in (iii), which
is what makes finite-difference checks of the energy meaningful. With
``want_hess`` the same passes also assemble the exact Hessian of the
computed value (of the profile's exact derivative in (iii)), for the
solver's Newton steps; these take one order. The absolute pairing
`pairing_abs` is built from the same three pieces.

Evaluation is sequential with a fixed reduction order, so results are
bit-identical from run to run. In a block, each pair row G(arg) of each
offset is first summed over its elements (one contiguous reduction per row
and offset), then the row sums are weighted by ``block`` and summed over
the rows and offsets of their order: numpy reductions on each order's own
rows, the same as when that order is evaluated alone, so every entry of a
multi-order value is bit-identical to the one-order value. The gradient
and the Hessian sum a block's offsets per element, the right elements
along the diagonals of a strided view (`_skew_sum`). Blocks are
independent and could be farmed out, provided the reduction order is
preserved.
"""

from __future__ import annotations

from contextlib import nullcontext
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._quadrature import gauss_rule_01
from .errors import InvalidInputError, InvalidParameterError
from .grid import GridFunction, _at_gauss_points
from .limit_density import limit_density
from .orlicz import OrliczFunction

_SAME_ELEMENT_ORDER = 48
_ORDER = 5  # Gauss order of the far field and of the pairs at offsets 1, 2
_BLOCK_POINTS = 2 ** 13  # pair points (rows x elements) of a block of offsets


def _same_element(G, s, h, slopes, want_grad, want_hess=False):
    """Sum over elements of 2*int_0^h (h-t) G(|m| t^(1-s)) dt/t, and its
    derivative in m per element (or None); with ``want_hess`` also the
    second derivative per element, as a third entry.

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
        vals = coef * G(m)
        ders = coef * G.deriv(m) * sgn if want_grad else None
        if want_hess:
            return float(np.sum(vals)), ders, coef * G.d2(m)
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
    curv = np.zeros_like(m) if want_hess else None
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
        if want_hess:
            curv += scale * np.sum(outer * xi * G.d2(m[:, None] * xi), axis=1)
    if want_hess:
        # G' jumps by J at a kink k, which moves with m: the cut xi = k/m
        # adds scale (h - xi^(1/(1-s))) J k / m^2 while it lies inside.
        for k, cut in zip(sorted(G.kinks), cuts):
            jump = float(G.deriv(k * (1.0 + 1e-9)) - G.deriv(k * (1.0 - 1e-9)))
            inside = (cut > 0.0) & (cut < H)
            msafe = np.where(inside, m, 1.0)
            curv += np.where(inside, scale * (h - cut ** (1.0 / (1.0 - s)))
                             * jump * k / (msafe * msafe), 0.0)
    if want_grad:
        ders *= sgn
    if want_hess:
        return float(np.sum(vals)), ders, curv
    return float(np.sum(vals)), ders


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


def _offset_blocks(first, last, ne, q):
    """(j0, nj) of the blocks of consecutive offsets first .. last of a band
    of order q on ne elements: a block at j0 takes the nj offsets
    j0 .. j0+nj-1, as many as keep q*q*(ne - j0)*nj within
    `_BLOCK_POINTS`, and at least one."""
    j0 = first
    while j0 <= last:
        nj = max(1, min(last - j0 + 1, _BLOCK_POINTS // (q * q * (ne - j0))))
        yield j0, nj
        j0 += nj


def _pair_bands(s, h, *nodal):
    """Distinct-element pairs of the uniform mesh, one band per Gauss order.

    Yields ``(x, blocks)`` per band of offsets sharing an order q: the
    band's Gauss nodes on (0, 1) and an iterator over its blocks of
    consecutive offsets (`_offset_blocks`). A block of the nj offsets
    j0 .. j0+nj-1 yields ``(j0, kern, block, diffs)``. Row a*q + b
    stands for node a of the right element and node b of the left one, at
    distance dist = h (j + x_a - x_b): ``kern`` is the (q*q, nj, 1) table
    dist**(-s) (for a 1-D array of orders ``s``, the (orders, q*q, nj, 1)
    stack of those tables), ``block`` is 2 h^2 w_a w_b / dist, and
    ``diffs`` holds, for each nodal vector, the (q*q, nj, L) differences
    right minus left, L = ne - j0: entry [r, k, e] pairs left element e
    with right element e + j0 + k. Entries with e >= L - k are padding,
    which `_drop_padding` sets to 0. The differences are read through a
    sliding window of the right rows, without index gathers, and elements
    run along the last axis, so every array operation on a pair row is a
    long contiguous loop. The tables are built once per band and live for
    one call only.
    """
    ne = len(nodal[0]) - 1
    if ne < 2:
        return
    q = _pair_orders(ne, _ORDER)
    cuts = list(np.flatnonzero(np.diff(q)) + 1)
    for lo, hi in zip([0] + cuts, cuts + [ne - 1]):
        x, w = gauss_rule_01(int(q[lo]))
        dist = h * (np.arange(lo + 1, hi + 1)[:, None]
                    + np.subtract.outer(x, x).reshape(-1, 1, 1))
        kern = dist ** -np.reshape(s, np.shape(s) + (1, 1, 1))
        block = 2.0 * h * h * np.outer(w, w).reshape(-1, 1, 1) / dist
        rows = []
        for v in nodal:
            V = _at_gauss_points(v, x).T
            R = np.repeat(V, x.size, axis=0)
            rows.append((sliding_window_view(np.pad(R, ((0, 0), (0, ne))),
                                             ne, axis=-1),
                         np.tile(V, (x.size, 1))))
        first = lo + 1
        yield x, ((j0, kern[..., j0 - first:j0 - first + nj, :],
                   block[:, j0 - first:j0 - first + nj],
                   [W[:, j0:j0 + nj, :ne - j0] - L[:, None, :ne - j0]
                    for W, L in rows])
                  for j0, nj in _offset_blocks(first, hi, ne, x.size))


@lru_cache(maxsize=64)
def _padding(nj):
    """The padding of a block of nj >= 2 offsets, all on its last nj - 1
    columns, as an (nj, nj - 1) mask there: row k (offset j0 + k) is k
    pairs shorter than row 0. Read-only."""
    pad = np.add.outer(np.arange(nj), np.arange(1, nj)) >= nj
    pad.flags.writeable = False
    return pad


def _drop_padding(a):
    """``a``, a block's (..., nj, L) array, with its padding entries set to
    0 in place: an assignment, not a product with a mask, so that an inf
    there (G''(0) for p < 2) leaves no NaN."""
    nj = a.shape[-2]
    if nj > 1:
        np.copyto(a[..., 1 - nj:], 0.0, where=_padding(nj))
    return a


def _skew_sum(C):
    """S[..., m] = sum_k C[..., k, m - k] for m < L, for C of shape
    (..., nj, L): the sums per right element of a block, whose row k is
    offset j0 + k. C is copied into a buffer with nj zero columns per row;
    read with rows of L + nj - 1, the buffer holds row k of C shifted right
    by k."""
    *lead, nj, L = C.shape
    buf = np.zeros((*lead, nj, L + nj))
    buf[..., :L] = C
    skew = buf.reshape(*lead, -1)[..., :nj * (L + nj - 1)]
    return skew.reshape(*lead, nj, L + nj - 1)[..., :L].sum(axis=-2)


@lru_cache(maxsize=8)
def _hessian_fold(q):
    """The (2q + 4, q*q) matrix that folds the pair rows a*q + b of order q:
    rows :q sum over b per right node a, rows q:2q over a per left node b,
    and row 2q + 2r + l weighs the pair with the hat functions r of the
    right and l of the left element. Read-only."""
    x, _ = gauss_rule_01(q)
    hat = np.stack([1.0 - x, x])
    fold = np.vstack([np.kron(np.eye(q), np.ones((1, q))),
                      np.kron(np.ones((1, q)), np.eye(q)),
                      np.kron(hat, hat)])
    fold.flags.writeable = False
    return fold


def _distinct_pairs(G, s, u, want_grad, hess=None):
    """(ii): value (and nodal gradient) of the distinct-element blocks.

    The value has the shape of ``s``: one order, or for the value alone a
    1-D array of orders, whose pairs share one G call per block of
    offsets. In a block, G(arg) is summed over the elements of each pair
    row and offset first and each row sum then takes its weight ``block``,
    so no weighted copy of the (orders, pairs, offsets, elements) stack is
    made; each order's sums are its own reductions, as for one order.

    The gradient is accumulated per element and Gauss point of a band and
    scattered to the nodes once per band; a block's left elements take a
    sum over its offsets, its right elements a skewed one (`_skew_sum`).
    Given ``hess`` (the upper triangle of a nodal matrix), the Hessian is
    added to it: a pair contributes c = block kern^2 G''(arg) times the
    outer product of its difference's nodal weights. One matrix product per
    block (`_hessian_fold`) folds c into its sums per right and per left
    Gauss point, which are accumulated per element like the gradient and
    land on diagonals 0 and 1 once per band, and into its four hat-weight
    moments, the cross part, which lands on diagonals j-1, j and j+1 of
    each offset j of the block through one strided view per moment.
    """
    val = np.zeros(np.shape(s))[()]  # a float64 for one order
    grad = np.zeros(u.node_count) if want_grad else None
    ne = u.node_count - 1
    for x, blocks in _pair_bands(s, u.spacing, u.values):
        q = x.size
        if want_grad:
            gU = np.zeros((q, ne))
        if hess is not None:
            hU = np.zeros((q, ne))
            fold = _hessian_fold(q)
        for j0, kern, block, (du,) in blocks:
            nj, L = du.shape[1:]
            arg = np.abs(du) * kern
            val += (_drop_padding(G(arg)).sum(axis=-1)
                    * block[..., 0]).sum(axis=(-2, -1))
            if want_grad:
                coef = ((block * kern) * _drop_padding(G.deriv(arg))
                        * np.sign(du)).reshape(q, q, nj, L)
                gU[:, j0:] += _skew_sum(coef.sum(axis=1))
                gU[:, :L] -= coef.sum(axis=(0, 2))
            if hess is not None:
                c = block * kern * kern * _drop_padding(G.d2(arg))
                folded = (fold @ c.reshape(q * q, -1)).reshape(-1, nj, L)
                hU[:, j0:] += _skew_sum(folded[:q])
                hU[:, :L] += folded[q:2 * q].sum(axis=1)
                # row 2 r + l of cross pairs node r of the right element
                # with node l of the left one
                cross = -folded[2 * q:]
                _add_diagonals(hess, j0, 0, cross[0])
                _add_diagonals(hess, j0, 1, cross[3])
                _add_diagonals(hess, j0 + 1, 0, cross[2])
                if j0 == 1:
                    # at j = 1 this term and its transpose share the diagonal
                    cross[1, 0] *= 2.0
                _add_diagonals(hess, j0 - 1, 1, cross[1])
        if want_grad:
            grad[:-1] += (1.0 - x) @ gU
            grad[1:] += x @ gU
        if hess is not None:
            _add_element_blocks(hess, x, hU)
    return val, grad


def _add_diagonals(hess, k, row, vals):
    """hess[row + e, row + k + i + e] += vals[i, e]: row i of ``vals`` goes
    to diagonal k + i, from row ``row`` on; a 1-D ``vals`` is one diagonal.
    The strided view of ``hess`` (C-contiguous) that takes them holds
    distinct entries, and numpy checks that it lies inside ``hess``."""
    n = hess.shape[0]
    vals = np.atleast_2d(vals)
    size = hess.itemsize
    view = np.ndarray(vals.shape, hess.dtype, hess, (row * (n + 1) + k) * size,
                      (size, (n + 1) * size))
    view += vals


def _add_element_blocks(hess, x, W):
    """Add, per element e, sum_g W[g, e] phi_g phi_g^T on the nodes
    (e, e+1) to the upper triangle, with the hat weights
    phi_g = (1 - x_g, x_g) of the points x on (0, 1)."""
    _add_diagonals(hess, 0, 0, (1.0 - x) ** 2 @ W)
    _add_diagonals(hess, 1, 0, ((1.0 - x) * x) @ W)
    _add_diagonals(hess, 0, 1, x ** 2 @ W)


def _far_points(s, u):
    """Gauss points of the far field: the rule (xg, wg) on (0, 1), u at the
    points of every element (U, elements x points) and the kernel
    dist**(-s) to the right and the left end of the support (kern,
    2 x elements x points)."""
    h = u.spacing
    ne = u.node_count - 1
    xg, wg = gauss_rule_01(_ORDER)
    starts = u.left + h * np.arange(ne)
    X = starts[:, None] + h * xg[None, :]
    kern = np.stack([u.right - X, X - u.left]) ** (-s)
    return xg, wg, _at_gauss_points(u.values, xg), kern


def _far_flux(tilde, s, h, wg, U, kern):
    """Derivative of the far-field value with respect to U, per element
    Gauss point: both sides through I' = tilde_G' / 2, for the n = 1 limit
    density ``tilde``."""
    dprof = tilde.deriv(np.abs(U) * kern) / 2.0
    return (2.0 * h / s) * wg * np.sum(dprof * kern, axis=0) * np.sign(U)


def _far_curvature(tilde, s, h, wg, U, kern):
    """Second derivative of the far-field value with respect to U, per
    element Gauss point, through I'' = tilde_G'' / 2."""
    curv = tilde.deriv2(np.abs(U) * kern) / 2.0
    return (2.0 * h / s) * wg * np.sum(curv * kern * kern, axis=0)


def _far_field(G, s, u, want_grad, hess=None):
    """(iii): value (and nodal gradient) of the far field; given ``hess``,
    its Hessian is added there.

    Both sides (partner beyond the right end, beyond the left end) go
    through one profile evaluation.
    """
    h = u.spacing
    xg, wg, U, kern = _far_points(s, u)
    tilde = limit_density(G, 1)
    prof = tilde.value(np.abs(U) * kern) / 2.0
    val = (2.0 * h / s) * float(np.sum(wg * prof))
    if not want_grad:
        return val, None
    dc = _far_flux(tilde, s, h, wg, U, kern)
    grad = np.zeros(u.node_count)
    grad[:-1] += dc @ (1.0 - xg)
    grad[1:] += dc @ xg
    if hess is not None:
        _add_element_blocks(hess, xg,
                            _far_curvature(tilde, s, h, wg, U, kern).T)
    return val, grad


def _core(G, s, u, want_grad, want_hess=False):
    """(value, nodal gradient or None) of the discrete modular; with
    ``want_hess`` (which needs ``want_grad``) also its nodal Hessian, a
    dense symmetric matrix, assembled in the same passes.

    For the value alone, ``s`` may be a 1-D array of orders: the value is
    then a float array with one entry per order.
    """
    h = u.spacing
    if not want_grad:
        pairs, _ = _distinct_pairs(G, s, u, False)
        vals = [_same_element(G, o, h, u.slopes, False)[0]
                + (p + _far_field(G, o, u, False)[0])
                for o, p in zip(np.ravel(s).tolist(), np.ravel(pairs))]
        return (np.array(vals) if np.ndim(s) else vals[0]), None
    hess = np.zeros((u.node_count, u.node_count)) if want_hess else None
    # G''(0) = inf (t^p, p < 2) gives inf - inf = nan Hessian entries,
    # which the solver reads as "no Newton step here".
    with np.errstate(invalid="ignore") if want_hess else nullcontext():
        val, ders, *curv = _same_element(G, s, h, u.slopes, want_grad,
                                         want_hess)
        pairs, pair_grad = _distinct_pairs(G, s, u, want_grad, hess)
        far, far_grad = _far_field(G, s, u, want_grad, hess)
        if want_hess:
            _add_slope_blocks(hess, curv[0] / (h * h))
    val += pairs + far
    grad = pair_grad + far_grad
    grad[:-1] -= ders / h
    grad[1:] += ders / h
    if not want_hess:
        return val, grad
    hess += np.triu(hess, 1).T
    return val, grad, hess


def _add_slope_blocks(hess, k):
    """Add k[e] [[1, -1], [-1, 1]] on the nodes (e, e+1) to the upper
    triangle: the Hessian of a sum of functions of the element slopes."""
    _add_diagonals(hess, 0, 0, k)
    _add_diagonals(hess, 1, 0, -k)
    _add_diagonals(hess, 0, 1, k)


def _check_s(s):
    """``s`` as a float array: one order (0-D), or a non-empty 1-D sequence
    of orders, each in (0, 1)."""
    orders = np.asarray(s, dtype=float)
    if orders.ndim > 1 or orders.size == 0:
        raise InvalidParameterError(
            f"need one fractional order or a non-empty 1-D sequence: {s}")
    if not np.all((0.0 < orders) & (orders < 1.0)):
        raise InvalidParameterError(f"fractional order must be in (0,1): {s}")
    return orders


def fractional_modular(G: OrliczFunction, s, u: GridFunction):
    """Fractional modular of a grid function for s in (0, 1).

    A scalar ``s`` gives a float. A 1-D sequence of orders gives a float
    array with one entry per order, in the given order (repeats allowed),
    each bit-identical to the one-order value: the distinct-element pairs
    of all orders share one pass, whose temporaries grow linearly with the
    number of orders (about 0.2 MB per order and array at 1025 nodes; the
    pair weights are applied to the row sums, not to that stack).
    """
    orders = _check_s(s)
    val = _core(G, orders, u, want_grad=False)[0]
    return float(val) if orders.ndim == 0 else val


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
    for _, blocks in _pair_bands(s, h, u.values, v.values):
        for _, kern, block, (du, dv) in blocks:
            dG = _drop_padding(G.deriv(np.abs(du) * kern))
            val += float(np.sum(block * dG * np.abs(dv) * kern))
    xg, wg, U, kern = _far_points(s, u)
    flux = _far_flux(limit_density(G, 1), s, h, wg, U, kern)
    val += float(np.sum(np.abs(flux) * np.abs(_at_gauss_points(v.values, xg))))
    return val
