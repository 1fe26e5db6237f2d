"""The fractional modular on grid functions (n = 1) and its nodal gradient.

The double integral

    Phi_s(u) = iint G(|u(x) - u(y)| / |x-y|^s) dx dy / |x-y|

is split into three pieces:

  (i)  same-element blocks, where the kernel singularity lives: the n = 1
       limit density `limit_density(G, 1)` at the scaled slope, minus a
       smooth integral by the profile's kink-split tanh-sinh rule
       (`_same_element`); where G is t^p on the range of the scaled
       slopes (`_power_on`), all three outputs take t^p's closed form;
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
       padding is set to 0 before any sum. Where G is t^p on [0, T]
       (`_power_on`), G(|du| kern) = kern^p G(|du|): a block whose
       arguments all lie there takes G on |du|, weighed by kern^p, for the
       value, the gradient and the Hessian alike (`_pair_rule`); any other
       block takes G's own rule, order by order if its orders differ;
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
stacked (orders, pairs, offsets, elements) argument, or, where t^p's rule
serves, on |du|, which has no orders axis (only its weights have one). The
blocks do not depend on the number of orders. Pieces (i) and (iii) are
evaluated per order.

The gradient returned by the *_with_gradient entry point is the exact
derivative of the computed value (same rules, same nodes) in piece (ii),
and in (i) and (iii) the exact derivative of tilde_G and of the smooth
integrand (for G without kinks, the rule's own to rounding), which makes
finite-difference checks of the energy meaningful. With ``want_hess`` the
same passes assemble the Hessian likewise, for the solver's Newton steps
(one order). The absolute pairing `pairing_abs` uses the same pieces.

Evaluation is sequential with a fixed reduction order, so results are
bit-identical from run to run. In a block, each pair row of each offset is
summed over its elements first (one contiguous reduction), then the row
sums are weighted and summed over the rows and offsets of their order:
reductions on each order's own rows, as when that order is evaluated
alone, so every entry of a multi-order value is bit-identical to the
one-order value. The gradient and the Hessian sum a block's offsets per
element, the right elements along the diagonals of a strided view
(`_skew_sum`). Blocks are independent and could be farmed out, provided
the reduction order is preserved.
"""

from __future__ import annotations

from contextlib import nullcontext
from functools import lru_cache
from itertools import accumulate

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._quadrature import gauss_rule_01
from .errors import InvalidInputError, InvalidParameterError
from .grid import GridFunction, _at_gauss_points
from .limit_density import _kink_cuts, limit_density, split_nodes
from .orlicz import OrliczFunction

_ORDER = 5  # Gauss order of the far field and of the pairs at offsets 1, 2
_BLOCK_POINTS = 2 ** 13  # pair points (rows x elements) of a block of offsets


def _same_element(G, s, h, slopes, want_grad, want_hess=False):
    """Sum over elements of 2*int_0^h (h-t) G(|m| t^(1-s)) dt/t, and its
    derivative in m per element (or None); with ``want_hess`` also the
    second derivative per element, as a third entry.

    With e = 1 - s, H = h^e and c = |m| H, t = h r gives a block
    (h/e) tilde_G(c) - 2h B(c), B(c) = int_0^1 G(c r^e) dr, and tilde_G
    the n = 1 limit density. Where G is t^p on [0, T] (`_power_on`) and
    every c is <= T (< T with the derivatives), all three outputs are
    t^p's closed form, coef |m|^p. Otherwise B and A(c) = B'(c) =
    int_0^1 G'(c r^e) r^e dr take the profile's rule, cut where c r^e
    crosses a kink. The m-derivative is (2hH/e) (G(c)/c - e A(c)); the
    second one follows from c A'(c) = (G'(c) - (1+e) A(c)) / e, which
    holds across kinks too.
    """
    m = np.abs(slopes)
    sgn = np.sign(slopes)
    e = 1.0 - s
    H = h ** e
    F, T = _power_on(G) or (None, -np.inf)  # -inf: no c takes t^p's form
    if (np.less if want_grad else np.less_equal)(np.max(m) * H, T):
        beta = e * F.params[0]
        coef = 2.0 * h ** (beta + 1.0) / (beta * (beta + 1.0))
        vals = coef * F(m)
        ders = coef * F.deriv(m) * sgn if want_grad else None
        if want_hess:
            return float(np.sum(vals)), ders, coef * F.d2(m)
        return float(np.sum(vals)), ders

    c = m * H
    tilde = limit_density(G, 1)
    cuts = [t ** (1.0 / e) for t in _kink_cuts(c, G.kinks)]
    r, width, w = split_nodes(c.shape, cuts, 1.0)
    re = r ** e
    arg = c[:, None, None] * re
    smooth = np.sum(width * (G(arg) @ w), axis=-1)
    val = float(np.sum((h / e) * tilde.value(c) - 2.0 * h * smooth))
    if not want_grad:
        return val, None
    flux = tilde.deriv(c) / 2.0  # G(c)/c, 0 at c = 0
    A = np.sum(width * ((G.deriv(arg) * re) @ w), axis=-1)
    ders = (2.0 * h * H / e) * (flux - e * A) * sgn
    if not want_hess:
        return val, ders
    pos = c > 0.0
    curv = np.where(pos, (2.0 * h * H * H / e) * ((1.0 + e) * A - flux)
                    / np.where(pos, c, 1.0),
                    h * H * H * float(G.d2(0.0)) / (e * (1.0 + 2.0 * e)))
    return val, ders, curv


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


def _power_on(G):
    """(t^p, T) with G = t^p on [0, T], or None: a pure power is itself on
    [0, inf); a pointwise max of pure powers is its least power on [0, 1],
    where all its children cross. The only reader of ``G.kind`` here."""
    if G.kind == "power":
        return G, np.inf
    if G.kind == "pointwise_max" and all(
            c.kind == "power" for c in G.children):
        return min(G.children, key=lambda c: c.params[0]), 1.0
    return None


def _weighed(g, w):
    """A block's sum of w g per order, g without its padding: each pair row
    summed over its elements first, then weighed by w (rows x offsets x 1)."""
    return (g.sum(axis=-1) * w[..., 0]).sum(axis=(-2, -1))


def _pair_rule(G, on, du, kern, block, n=1):
    """(val, F, arg, w): a block's value per order and, for one order, its
    term in G^(i), i < n, which is w[i] F^(i)(arg).

    ``on`` is `_power_on(G)`. Where G is t^p on [0, T], F = t^p and
    G^(i)(|du| kern) kern^i = kern^p F^(i)(|du|): arg = |du| for all
    orders, w[i] = block kern^p. A block takes this rule if each of its
    arguments |du| kern is <= T, and for n > 1 if each is < T, since a
    max's G' and G'' take the steeper branch at T. Otherwise one order
    takes G's own rule, F = G, arg = |du| kern and w[i] = block kern^i;
    several orders take their rules one by one, as when each is evaluated
    alone, and give their values only.
    """
    arg = np.abs(du)
    if on is not None:
        F, T = on
        if T == np.inf or (np.less if n > 1 else np.less_equal)(
                kern[..., 0] * _drop_padding(arg).max(axis=-1), T).all():
            w = [block * kern ** F.params[0]] * n
            return _weighed(_drop_padding(F(arg)), w[0]), F, arg, w
        if np.ndim(kern) > 3:
            return np.array([_pair_rule(G, on, du, k, block)[0]
                             for k in kern]), None, None, None
    arg = arg * kern
    w = list(accumulate([block] + [kern] * (n - 1), np.multiply))
    return _weighed(_drop_padding(G(arg)), w[0]), G, arg, w


def _distinct_pairs(G, s, u, want_grad, hess=None):
    """(ii): value (and nodal gradient) of the distinct-element blocks.

    The value has the shape of ``s``: one order, or for the value alone a
    1-D array of orders, whose pairs share one G call per block of
    offsets. `_power_on` is read once per call, and `_pair_rule` gives each
    block and order t^p's rule or G's own, for every output. F(arg) is
    summed over the elements of each pair row and offset before the row
    sums take their weight w[0]: no weighted copy of the stack is made,
    and each order's sums are its own reductions, as for one order.

    The gradient is accumulated per element and Gauss point of a band and
    scattered to the nodes once per band; a block's left elements take a
    sum over its offsets, its right elements a skewed one (`_skew_sum`).
    Given ``hess`` (the upper triangle of a nodal matrix), the Hessian is
    added to it: a pair contributes c = w[2] F''(arg) times the outer
    product of its difference's nodal weights. One matrix product per
    block (`_hessian_fold`) folds c into its sums per right and per left
    Gauss point, which are accumulated per element like the gradient and
    land on diagonals 0 and 1 once per band, and into its four hat-weight
    moments, the cross part, which lands on diagonals j-1, j and j+1 of
    each offset j of the block through one strided view per moment.
    """
    val = np.zeros(np.shape(s))[()]  # a float64 for one order
    grad = np.zeros(u.node_count) if want_grad else None
    ne = u.node_count - 1
    on = _power_on(G)
    n = 1 + want_grad + (hess is not None)
    for x, blocks in _pair_bands(s, u.spacing, u.values):
        q = x.size
        if want_grad:
            gU = np.zeros((q, ne))
        if hess is not None:
            hU = np.zeros((q, ne))
            fold = _hessian_fold(q)
        for j0, kern, block, (du,) in blocks:
            block_val, F, arg, w = _pair_rule(G, on, du, kern, block, n)
            val += block_val
            if not want_grad:
                continue
            nj, L = du.shape[1:]
            coef = (w[1] * _drop_padding(F.deriv(arg))
                    * np.sign(du)).reshape(q, q, nj, L)
            gU[:, j0:] += _skew_sum(coef.sum(axis=1))
            gU[:, :L] -= coef.sum(axis=(0, 2))
            if hess is not None:
                c = w[2] * _drop_padding(F.d2(arg))
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
            _add_element_blocks(hess, 1.0 - x, x, hU)
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


def _add_element_blocks(hess, a, b, W):
    """Add, per element e, sum_g W[g, e] phi_g phi_g^T on the nodes
    (e, e+1) to the upper triangle, with phi_g = (a_g, b_g): the hat
    weights (1 - x, x) at points x on (0, 1), or (-1, 1) for a function
    of the element slope."""
    _add_diagonals(hess, 0, 0, (a * a) @ W)
    _add_diagonals(hess, 1, 0, (a * b) @ W)
    _add_diagonals(hess, 0, 1, (b * b) @ W)


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
        _add_element_blocks(hess, 1.0 - xg, xg,
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
            _add_element_blocks(hess, -np.ones(1), np.ones(1),
                                curv[0][None] / (h * h))
    val += pairs + far
    grad = pair_grad + far_grad
    grad[:-1] -= ders / h
    grad[1:] += ders / h
    if not want_hess:
        return val, grad
    hess += np.triu(hess, 1).T
    return val, grad, hess


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


def _check_one_s(s):
    """`_check_s` for the paths that take one order only."""
    if _check_s(s).ndim:
        raise InvalidParameterError(f"need one fractional order, got {s}")


def fractional_modular(G: OrliczFunction, s, u: GridFunction):
    """Fractional modular of a grid function for s in (0, 1).

    A scalar ``s`` gives a float. A 1-D sequence of orders gives a float
    array with one entry per order, in the given order (repeats allowed),
    each bit-identical to the one-order value: the distinct-element pairs
    of all orders share one pass, whose temporaries grow linearly with the
    number of orders (about 0.2 MB per order and array at 1025 nodes; the
    pair weights are applied to the row sums), except where G is t^p on a
    range (`_power_on`): a block then evaluates t^p once for all orders, or
    each order alone.
    """
    orders = _check_s(s)
    val = _core(G, orders, u, want_grad=False)[0]
    return float(val) if orders.ndim == 0 else val


def fractional_modular_with_gradient(G: OrliczFunction, s: float,
                                     u: GridFunction):
    """(value, nodal gradient) of the discrete fractional modular."""
    _check_one_s(s)
    return _core(G, s, u, want_grad=True)


def pairing_abs(G: OrliczFunction, s: float, u: GridFunction,
                v: GridFunction) -> float:
    """Absolute-value dual pairing iint g(|D_s u|) |D_s v| dmu.

    This majorizes the weak-form pairing and is the quantity bounded by
    (p - 1) Phi_s(u) + Phi_s(v) through the Young inequality. Each piece of
    the modular's rule contributes |d Phi_s(u)| times |v| at its own
    quadrature values: the element slopes, the pair differences (by the
    gradient's `_pair_rule`) and the far-field Gauss points. The pairing
    and the modular thus share one rule: the Young bound holds node by
    node, and for v = u and G = t^p the pairing is p Phi_s(u) up to roundoff.
    """
    _check_one_s(s)
    if (u.left, u.right, u.node_count) != (v.left, v.right, v.node_count):
        raise InvalidInputError("u and v must share a mesh")
    h = u.spacing
    _, ders = _same_element(G, s, h, u.slopes, want_grad=True)
    val = float(np.sum(np.abs(ders) * np.abs(v.slopes)))
    on = _power_on(G)
    for _, blocks in _pair_bands(s, h, u.values, v.values):
        for _, kern, block, (du, dv) in blocks:
            _, F, arg, w = _pair_rule(G, on, du, kern, block, 2)
            val += float(np.sum(w[1] * _drop_padding(F.deriv(arg))
                                * np.abs(dv)))
    xg, wg, U, kern = _far_points(s, u)
    flux = _far_flux(limit_density(G, 1), s, h, wg, U, kern)
    val += float(np.sum(np.abs(flux) * np.abs(_at_gauss_points(v.values, xg))))
    return val
