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
       element offset j. Offsets 1 and 2 use order 5 (`_ORDER`); a further
       offset j gets the smallest order q >= 2 whose Gauss error bound
       rho_j**(-2q), with rho_j = (2j-1) + sqrt((2j-1)**2 - 1) the
       Bernstein-ellipse radius of the kernel singularity, is no larger
       than the order-5 bound at offset 2 (on 1024 elements: 2 offsets at
       order 5, 3 at 4, 16 at 3, the rest at 2). A band of one order is
       cut into blocks of consecutive offsets, about `_BLOCK_POINTS` =
       2^13 pair points each (309 for the 1023 offsets of 1024 elements),
       and runs of those into value blocks of at most `_VALUE_POINTS` =
       2^14 points, or of one block (168 at 1024 elements). The value of
       each pair row is one BLAS ``ddot`` of two operands (`_row_dots`,
       `_value_operands`), and no product array: G's values at the value
       block's arguments and a ones row, one jet G(t, 1) per value block,
       or, for t^p with p = 2, 3 or 4 (`_DOTS`), (du, du), (du^2, |du|) or
       (du^2, du^2), which call no jet at all. The gradient (n = 2) and the
       Hessian (n = 3) take blocks of the smaller size, whose derivative
       temporaries (coefficients, the Hessian fold) would outgrow the cache
       at the larger one: G's own rule one jet G(t, n) per block, with the
       signs of du, and t^p of `_DOTS` none, nor any sign: G' sign(du) and
       G'' are p and p (p - 1) times du, du |du| or du^3 and 1, |du| or
       du^2, from the value's operands, and the constants go on the weight
       table. t^2's curvature is constant, so its Hessian folds the weight
       table per offset, not its pairs. A block's rows are padded to its
       first offset's length and the padding is set to 0 before any sum;
       a derivative pass zero-pads its blocks' operands to their value
       block's row length, so every pass gives the value the same bits.
       Where G is t^p on [0, T] (`_power_on`), G(|du| kern) = kern^p
       G(|du|): a block whose arguments all lie there takes t^p on du,
       weighed by block kern^p, for the value, the gradient and the
       Hessian alike (`_pair_rule`). For T finite (a max of powers) a
       bound from u's oscillation and Lipschitz constant decides that
       range per value block, and only a block it leaves open is scanned.
       Any other block takes G's own rule, state by state if its states
       differ. What does not read u is built in one pass per key (s, h, ne,
       p), p the exponent of t^p's rule or None for G's own, and kept per
       key, read-only, for the last two keys (`_band_tables`): the kernel
       table dist**(-s), the weights 2 h^2 w_a w_b / dist and t^p's weights
       block kern^p of each value block, the bounds of its blocks of
       `_BLOCK_POINTS` (one walk over the offsets, `_runs`), and the largest
       dist**(-s) and dist**(1-s) of each value block;
  (iii) the far field (one point outside the support), which reduces exactly
       to the radial profile I(w) = int_0^w G(v)/v dv -- no cutoff is
       needed. I is half the n = 1 limit density, so I and I' (or I' and
       I'', from one jet of G) are `limit_density(G, 1).value` and
       `.deriv` halved, at the order-5 Gauss points of every element: the
       closed form or the shared quadrature for I, as `LimitDensity`
       chooses, and the exact derivatives of the profile, which need no
       quadrature. Where G is t^p on the range of a state's arguments
       |U| dist**(-s), I(|U| kern) = kern^p I_p(|U|), as in (ii): t^p's
       profile at |U| serves every order and both ends, times dist**(-s p)
       per order, for the value, the gradient and the Hessian alike. All
       of it is one function, `_far_field`; `_core` builds the density
       once for pieces (i) and (iii).

Every piece has one shape: a 1-D array of k orders s and nodal rows on one
mesh (`_nodal`), one row per order (the solver's lockstep ladder) or one
row that all orders share (the multi-order value of `fractional_modular`),
and it gives the value, the gradient and the Hessian per state, on a
leading states axis. One order at one vector is the state k = 1; only
`_core` takes a lone order, and it drops the axis again on return. Nothing
in piece (ii) but the kernel table depends on s, so the pairs of all
states share one pass: the table dist**(-s) has a leading axis over the
orders, and each block forms |u(x) - u(y)| once per row and asks one jet
of G on the stacked (states, pairs, offsets, elements) argument, or, where
t^p's rule serves, takes du, one row per row, for every order. Pieces (i)
and (iii) evaluate their arrays with the states axis in front. The blocks
do not depend on the number of states, and each state keeps the bits of
its lone call: a power whose exponent depends on the order takes that
order's Python float exponent (`_pow`), and each piece splits a stack in
one place, by one rule:

  (i)   `_same_element`, one state at a time (`_one_by_one`) where the
        states' rules differ (t^p's closed form on some, or numbers of
        kink cuts, `_kink_cuts`, which change the BLAS kernel of the
        rule's matrix-vector product);
  (ii)  `_pair_block`, one state at a time where `_pair_rule` gives
        them rules of their own (a max whose states lie on both sides of
        T in a block); a stack of any size is otherwise one call;
  (iii) `_far_field`, one state at a time (`_one_by_one`) only where a
        max's states lie on both sides of T; a stack of any size is
        otherwise one call, and a shared row takes t^p's profile once for
        every order. Its quadrature profile, per-point work on (points,
        pieces, nodes) arrays, is taken state by state.

The gradient returned by the *_with_gradient entry point is the exact
derivative of the computed value (same rules, same nodes) in piece (ii),
and in (i) and (iii) the exact derivative of tilde_G and of the smooth
integrand (for G without kinks, the rule's own to rounding), which makes
finite-difference checks of the energy meaningful. With ``want_hess`` the
same passes assemble the Hessian likewise, for the solver's Newton steps.
Each piece gives its derivatives in variables a u_e + b u_(e+1) of single
elements e: h times the slope of e in (i), u at a Gauss point of e in
(iii) and, summed per band, in (ii). One scatter, `_add_element_terms`,
adds them all to the nodal gradient and Hessian, per state; only the
pairs' cross terms, which couple two elements, go to the Hessian
directly (`_add_diagonals`).

Evaluation is sequential with a fixed reduction order, so results are
bit-identical from run to run. In a block, each pair row of each offset is
summed over its elements first, as one ``ddot`` of two C-contiguous rows
zero-padded to the value block's width, then the row sums are weighted and
summed over the rows and offsets of their state. A row's ``ddot`` does not
depend on its neighbours, so a row alone, in a block, in a sub-block or in
a stack of states gives the same bits, and every state's value, gradient
and Hessian are bit-identical to its one-state call. The layout matters:
`np.vecdot` leaves BLAS on a zero-stride or strided operand (a broadcast
ones row), and its sums then differ in the last bits, so the ones row is a
real array (`_ones`). The gradient and the Hessian sum a block's offsets
per element, the right elements along the diagonals of a strided view
(`_skew_sum`). Blocks are independent and could be farmed out, provided
the reduction order is preserved.
"""

from __future__ import annotations

from contextlib import nullcontext
from functools import lru_cache
from itertools import accumulate

import numpy as np

from ._quadrature import gauss_rule_01
from .errors import InvalidInputError, InvalidParameterError
from .grid import GridFunction, _at_gauss_points
from .limit_density import _kink_cuts, limit_density, split_nodes
from .orlicz import OrliczFunction

_ORDER = 5  # Gauss order of the far field and of the pairs at offsets 1, 2
_VALUE_POINTS = 2 ** 14  # pair points (rows x elements) of a value block
_BLOCK_POINTS = 2 ** 13  # ... of a derivative pass's sub-block
_SLOPE = (np.broadcast_to(-1.0, 1), np.broadcast_to(1.0, 1))  # (a, b) of h*m
_DOTS = (2.0, 3.0, 4.0)  # p of the t^p whose pair values call no jet


def _pow(x, s, f):
    """x ** f(o) per order o of ``s`` along x's states axis, of one entry
    per order or one for all. Each state's power takes a Python float
    exponent, as in its lone call: numpy takes a lone exponent of 0.5, 2
    or -1 by sqrt, square or reciprocal, but an array of exponents by pow,
    which can differ in the last bit."""
    exps = [f(o) for o in s.tolist()]
    if len(exps) == 1:  # one state: no copy
        return x ** exps[0]
    return np.stack([a ** p for a, p in zip(
        x if len(x) > 1 else [x[0]] * len(exps), exps)])


def _one_by_one(piece, G, s, at, rows, *rest):
    """The outputs of ``piece`` (`_same_element` or `_far_field`) on the
    k orders ``s`` and their ``rows`` (one per order, or one that serves
    each), for states whose rules differ: taken one state at a time and
    joined along the states axis."""
    parts = zip(*(piece(G, s[i:i + 1], at,
                        rows if len(rows) == 1 else rows[i:i + 1], *rest)
                  for i in range(len(s))))
    # np.concatenate keeps its inputs' strides: the parts' transposed
    # derivatives stack into the layout of a lone call's
    return tuple(None if p[0] is None else np.concatenate(p) for p in parts)


def _same_element(G, s, h, slopes, want_grad, want_hess=False, tilde=None):
    """Sum over elements of 2*int_0^h (h-t) G(|m| t^(1-s)) dt/t, and its
    derivative in m per element (or None); with ``want_hess`` also the
    second derivative per element, as a third entry. ``s`` holds k orders
    and ``slopes`` one row of slopes per order or one for all: every
    output has the states axis of k, and each state's entries are those
    of its lone call. ``tilde`` is `limit_density(G, 1)`, built here if
    not given.

    With e = 1 - s, H = h^e and c = |m| H, t = h r gives a block
    (h/e) tilde_G(c) - 2h B(c), B(c) = int_0^1 G(c r^e) dr, and tilde_G
    the n = 1 limit density. Where G is t^p on [0, T] (`_power_on`) and
    every c of a state is <= T (< T with the derivatives), all three
    outputs are t^p's closed form, coef |m|^p, from one jet of t^p on |m|.
    Otherwise B and A(c) = B'(c) = int_0^1 G'(c r^e) r^e dr take the
    profile's rule, cut where c r^e crosses a kink, from one jet of G on
    its nodes. The m-derivative is (2hH/e) (G(c)/c - e A(c)); the second
    one follows from c A'(c) = (G'(c) - (1+e) A(c)) / e, which holds across
    kinks too. States whose rules differ (t^p's form on one, or different
    numbers of kink cuts) are evaluated one by one.
    """
    m = np.abs(slopes)
    F, T = _power_on(G) or (None, -np.inf)  # -inf: no c takes t^p's form

    def factors(o):  # H, e, 1 + e, the factors of the outputs, t^p's coef
        e = 1.0 - o
        H = h ** e
        beta = e * (F.params[0] if F else 1.0)
        return (H, e, 1.0 + e, h / e, 2.0 * h * H / e, 2.0 * h * H * H / e,
                h * H * H, e * (1.0 + 2.0 * e),
                2.0 * h ** (beta + 1.0) / (beta * (beta + 1.0)))

    # per order in Python floats, a (k, 1) array each: powers and products
    # taken here have the bits of a lone order's
    H, e, e1, fv, f1, f2, f0, e2, coef = np.array(
        [factors(o) for o in s.tolist()]).T[..., None]
    c = m * H
    top = c.max(axis=-1)  # max |m| H, as H > 0
    closed = (np.less if want_grad else np.less_equal)(top, T)
    # per state: t^p's closed form (-1), or the number of kinks of G in
    # (0, max c), the cuts `_kink_cuts` makes: stacked states share a rule,
    # and so the bits of their lone calls, only where they share this
    if len(s) > 1 and len(set(np.where(closed, -1, sum(
            top > k for k in set(G.kinks) if k > 0.0)).tolist())) > 1:
        return _one_by_one(_same_element, G, s, h, slopes, want_grad,
                           want_hess, tilde)
    if closed[0]:
        g = F(m, 1 + want_grad + want_hess)
        vals = coef * g[0]
        ders = coef * g[1] * np.sign(slopes) if want_grad else None
        if want_hess:
            return np.sum(vals, axis=-1), ders, coef * g[2]
        return np.sum(vals, axis=-1), ders

    tilde = tilde or limit_density(G, 1)
    cuts = [_pow(t, s, lambda o: 1.0 / (1.0 - o))
            for t in _kink_cuts(c, G.kinks)]
    r, width, w = split_nodes(c.shape, cuts, 1.0)
    re = _pow(r, s, lambda o: 1.0 - o)
    arg = c[..., None, None] * re
    g = G(arg, 1 + want_grad)
    smooth = np.sum(width * (g[0] @ w), axis=-1)
    val = np.sum(fv * tilde.value(c) - 2.0 * h * smooth, axis=-1)
    if not want_grad:
        return val, None
    flux = tilde.deriv(c) / 2.0  # G(c)/c, 0 at c = 0
    A = np.sum(width * ((g[1] * re) @ w), axis=-1)
    ders = f1 * (flux - e * A) * np.sign(slopes)
    if not want_hess:
        return val, ders
    pos = c > 0.0
    curv = f2 * (e1 * A - flux) / np.where(pos, c, 1.0)
    if not pos.all():  # the limit at c = 0, from G''(0)
        curv = np.where(pos, curv, f0 * float(G(0.0, 3)[2]) / e2)
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


def _runs(rows, width, count):
    """The value blocks (a, b, parts) of a band's consecutive offsets
    0 .. count-1, whose rows at offset i are ``width - i`` elements long,
    from one greedy walk. The walk cuts blocks: from its first offset a, a
    block takes the most offsets that keep rows * (width - a) * (b - a)
    within `_BLOCK_POINTS`, and at least one. A block joins the current
    value block if the joined one, so measured from its own first offset,
    stays within `_VALUE_POINTS`; else it starts one. ``parts`` holds a
    value block's blocks, as bounds from its a: the blocks of a derivative
    pass."""
    runs, a = [], 0
    while a < count:
        b = a + max(1, min(count - a, _BLOCK_POINTS // (rows * (width - a))))
        start = runs[-1][0] if runs else a
        if runs and rows * (width - start) * (b - start) <= _VALUE_POINTS:
            runs[-1] = (start, b, runs[-1][2] + ((a - start, b - start),))
        else:
            runs.append((a, b, ((0, b - a),)))
        a = b
    return runs


@lru_cache(maxsize=2)
def _band_tables(s, h, ne, p):
    """What `_pair_bands` yields but the differences, on ne elements of width
    h, for the orders ``s`` (a tuple) and t^p's exponent ``p`` (None for
    G's own rule): per band of order q, (x, blocks, peak). ``x`` holds its
    Gauss nodes; ``blocks`` its value blocks (j0, nj, kern, block, weight,
    parts) of the offsets j0 .. j0 + nj - 1 (`_runs`), with ``weight``
    t^p's pair weights block * kern**p (`_pair_rule`), or None, taken on
    the band's whole tables and sliced like ``kern`` and ``block``; and
    ``peak`` the u-independent factors of the blocks' bound
    (`_pair_bands`), a (2, k, blocks) array of the largest dist**(-s) and
    dist**(1-s) per order and value block. Built once per key (s, h, ne,
    p), whatever else G is; the last two keys are kept. Read-only."""
    q = _pair_orders(ne, _ORDER)
    ends = np.flatnonzero(np.diff(q, prepend=0, append=0)).tolist()
    bands = []
    for lo, hi in zip(ends[:-1], ends[1:]):  # none for ne = 1
        x, w = gauss_rule_01(int(q[lo]))
        dist = h * (np.arange(lo + 1, hi + 1)[:, None]
                    + np.subtract.outer(x, x).reshape(-1, 1, 1))
        kern = dist ** -np.reshape(s, (-1, 1, 1, 1))
        block = 2.0 * h * h * np.outer(w, w).reshape(-1, 1, 1) / dist
        weight = None if p is None else block * kern ** p
        runs = _runs(x.size ** 2, ne - lo - 1, hi - lo)
        # per offset, then per block of offsets: (2, orders, blocks)
        peak = np.maximum.reduceat(np.stack(
            [kern.max(axis=(1, 3)), (dist * kern).max(axis=(1, 3))]),
            [a for a, _, _ in runs], axis=-1)
        for table in (kern, block, weight, peak):
            if table is not None:
                table.flags.writeable = False
        blocks = tuple((lo + 1 + a, b - a, kern[:, :, a:b], block[:, a:b],
                        None if weight is None else weight[:, :, a:b], parts)
                       for a, b, parts in runs)
        bands.append((x, blocks, peak))
    return tuple(bands)


def _pair_bands(s, h, rows, on=None, n=1):
    """Distinct-element pairs of the uniform mesh, one band per Gauss order.

    Yields ``(x, blocks)`` per band of order q: its Gauss nodes on (0, 1)
    and an iterator over its value blocks (`_band_tables`) of the offsets
    j0 .. j0+nj-1, each ``(j0, kern, block, weight, du, reach)``. Row
    a*q + b pairs node a of the right element with node b of the left one,
    at dist = h (j + x_a - x_b). ``kern`` and ``block`` are the read-only
    tables dist**(-s), (k, q*q, nj, 1) for the k orders ``s``, and
    2 h^2 w_a w_b / dist, (q*q, nj, 1), of `_band_tables`; ``weight`` is
    block kern**p, (k, q*q, nj, 1), for ``on`` = `_power_on(G)` = (t^p,
    T), of the tables keyed by that p, and None for ``on`` None.
    ``du`` holds, for the nodal ``rows`` (rows x nodes), the (rows, q*q,
    nj, L) differences right minus left, L = ne - j0: entry [i, r, k, e]
    pairs left element e with right element e + j0 + k, and is padding
    (`_drop_padding`) if e >= L - k. They are read from one zero-padded
    (q, 2 ne) buffer of Gauss-point values per row and band, so every
    operation on a pair row is a long contiguous loop. For a derivative
    pass (``n`` > 1) ``kern``, ``block``, ``weight`` and ``du`` are tuples,
    one entry per block of `_BLOCK_POINTS` in the value block (its
    ``parts`` in `_band_tables`), on that block's offsets: a view of the
    value block's differences would make every elementwise operation on it
    a loop per row.

    For T finite (a max of powers), ``reach`` is a float no smaller than
    any |du| kern of the block's pairs in any state, the product as
    computed: per state the least of u's oscillation times the largest
    kern and u's Lipschitz constant times the largest dist**(1-s), plus 16
    ulp of max |u| (the rounding of a difference of two Gauss-point
    values) times the largest kern, and 1e-12 relative above that for the
    rounding of the products. Otherwise ``reach`` is inf.
    """
    ne = rows.shape[-1] - 1
    bound = on is not None and on[1] < np.inf
    if bound:  # per row, as a column
        osc = np.ptp(rows, axis=-1, keepdims=True)
        lip = np.abs(np.diff(rows)).max(axis=-1, keepdims=True) / h
        slack = 2.0 ** -48 * np.abs(rows).max(axis=-1, keepdims=True)
    for x, blocks, (kmax, lmax) in _band_tables(
            tuple(s.tolist()), float(h), ne,
            None if on is None else on[0].params[0]):
        q = x.size
        buf = np.zeros((len(rows), q, 2 * ne))
        buf[:, :, :ne] = _at_gauss_points(rows, x).swapaxes(1, 2)
        # view row (a, j) starts at node a's element j
        W = np.ndarray(buf.shape[:-1] + (ne, ne), float, buf, 0,
                       buf.strides + buf.strides[-1:])
        reach = ((np.minimum(osc * kmax, lip * lmax) + slack * kmax)
                 * (1.0 + 1e-12)).max(axis=0).tolist() if bound else \
            [np.inf] * len(blocks)

        def diff(j0, nj):  # (q, 1, nj, L) - (1, q, 1, L) per row
            return (W[:, :, None, j0:j0 + nj, :ne - j0]
                    - W[:, None, :, :1, :ne - j0]).reshape(
                        len(W), q * q, nj, ne - j0)

        yield x, ((j0, kern, block, w, diff(j0, nj), r) if n == 1 else (
                   j0, *zip(*((kern[:, :, a:b], block[:, a:b],
                               None if w is None else w[:, :, a:b],
                               diff(j0 + a, b - a)) for a, b in parts)), r)
                  for (j0, nj, kern, block, w, parts), r in zip(
                      blocks, reach))


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


@lru_cache(maxsize=16)
def _ones(size):
    """A read-only ones row of ``size``, a power of two, of which a value
    row sum of G's values takes a C-contiguous slice (`_value_operands`):
    a real array, since a zero-stride one takes `np.vecdot` off BLAS, and
    a few rows serve every width."""
    ones = np.ones(size)
    ones.flags.writeable = False
    return ones


def _value_operands(p, arg, g, width, n=1):
    """The operands (x, y) of a block's value row sums (`_row_dots`) under
    the rule F at ``arg``, and for ``n`` > 1 the factors d1 and d2 (n = 3)
    of its first and second derivatives: (x, y, d1[, d2]), all without
    their padding.

    For F = t^p with p = 2, 3 or 4 (``p``, in `_DOTS`; None for any other
    F), the padding of ``arg`` is set to 0 and no jet ``g`` of F is
    needed: x y = F(arg) from (arg, arg), (arg^2, |arg|) or (arg^2,
    arg^2), |arg| taken in place, and F'(arg) sign(arg) = p d1, F''(arg)
    = p (p - 1) d2 from d1 = arg, arg |arg| or arg^3 and d2 = 1 (None),
    |arg| or arg^2, the operands' own arrays where they serve. Else x is
    F's values g[0], y a ones row of ``width``, and d1, d2 are g[1], g[2],
    F' and F''."""
    if p not in _DOTS:
        ones = _ones(1 << (width - 1).bit_length())
        return (_drop_padding(g[0]), ones[:width],
                *map(_drop_padding, g[1:n]))
    arg = _drop_padding(arg)
    if p == 2.0:
        return (arg, arg, arg, None)[:n + 1]
    sq = arg * arg
    if p == 4.0:
        return (sq, sq) if n == 1 else (sq, sq, arg * sq, sq)[:n + 1]
    # arg |arg| with arg's sign, before |arg| is taken in place
    d1 = np.copysign(sq, arg) if n > 1 else None
    return (sq, np.abs(arg, out=arg), d1, arg)[:n + 1]


def _row_dots(x, y, width, w):
    """The weighed row sums of a block, (..., rows, offsets): the dot
    product of each pair row of x and y (..., rows, offsets, L), zero
    padded to ``width`` >= L, weighed by w (rows x offsets x 1); y may be
    one row of ``width`` for all. Each row is one BLAS ``ddot`` of
    C-contiguous rows, with no product array, whose bits do not depend on
    the row's neighbours: summed at one width, the rows of a value block
    and of its derivative sub-blocks, of a stack of states and of each
    state alone give the same bits."""
    def padded(a):
        if a.shape[-1] == width:
            return a
        rows = np.zeros(a.shape[:-1] + (width,))
        rows[..., :a.shape[-1]] = a
        return rows

    X = padded(x)
    return np.vecdot(X, X if y is x else padded(y)) * w[..., 0]


def _pair_rule(G, on, du, kern, block, weight, n=1):
    """A block's rule (F, arg, w) for all its states, with no F evaluated:
    its term in G^(i), i < n, is w[i] F^(i)(arg), its value per state the
    sum of w[0] F(arg); or None where its states take rules of their own.
    |du| is taken here, in place of ``du`` (with its padding set to 0 for
    the range test), wherever G's own rule or a range test needs it; else
    by t^p's jet, which is even, or, for p in `_DOTS`, by t^3's operands
    (`_value_operands`, in place; t^2's and t^4's take none).

    ``on`` is `_power_on(G)`. Where G is t^p on [0, T], F = t^p and
    G^(i)(|du| kern) kern^i = kern^p F^(i)(|du|): arg = du for all orders,
    w[i] = ``weight``, the table block kern^p. A block takes this rule if
    each of its arguments |du| kern is <= T, and for n > 1 if each is < T,
    since a max's G' and G'' take the steeper branch at T. Otherwise one
    state takes G's own rule, F = G, arg = |du| kern and w[i] = block
    kern^i, and several states (the orders of ``kern``, with a row of
    ``du`` each or one for all) take their rules one by one, as when each
    is evaluated alone.
    """
    if on is not None:
        F, T = on
        below = T == np.inf or (np.less if n > 1 else np.less_equal)(
            kern[..., 0] * _drop_padding(np.abs(du, out=du)).max(axis=-1),
            T)
        if below is True or below.all():
            return F, du, (weight,) * n
        if len(below) > 1:
            return None
    return (G, np.abs(du, out=du) * kern,
            list(accumulate([block] + [kern] * (n - 1), np.multiply)))


def _distinct_pairs(G, s, mesh, rows, want_grad, hess=None):
    """(ii): value (and nodal gradient) of the distinct-element blocks, per
    state of the k orders ``s`` and the nodal ``rows`` on ``mesh``
    (`_nodal`).

    `_power_on` is read once per call. Where t^p serves on [0, T] with T
    finite (a max of powers), a value block whose bound on |du| kern
    (`_pair_bands`) lies in that range takes t^p's rule without a scan of
    its arguments; any other block leaves the choice to `_pair_rule`.

    Each part of a value block is one `_pair_block` call, which splits
    its states: the value takes the value block whole, the gradient and
    the Hessian each of its blocks of `_BLOCK_POINTS` (`_pair_bands`),
    under the value block's bound, and they sum their value rows at the
    value block's row length (`_row_dots`) before they weigh them and sum
    the block, so that the value keeps the value pass's bits. The gradient is
    accumulated per element and Gauss point of a band and scattered to the
    nodes once per band (`_add_element_terms`); a block's left elements
    take a sum over its offsets, its right elements a skewed one
    (`_skew_sum`). Given ``hess`` (the upper triangle of a nodal matrix per
    state), the Hessian is added to it.
    """
    k, ne = len(s), mesh.node_count - 1
    val = np.zeros(k)
    grad = np.zeros((k, ne + 1)) if want_grad else None
    on = _power_on(G)
    n = 1 + want_grad + (hess is not None)
    gU = hU = fold = None
    for x, blocks in _pair_bands(s, mesh.spacing, rows, on, n):
        q = x.size
        if want_grad:
            gU = np.zeros((k, q, ne))
        if hess is not None:
            hU = np.zeros((k, q, ne))
            fold = _hessian_fold(q)
        for j0, kern, block, weight, du, reach in blocks:
            # where the bound puts every |du| kern in t^p's range, t^p
            # serves the block with no scan of its arguments
            fits = on is not None and (reach < on[1] if n > 1
                                       else reach <= on[1])
            rule = (on[0], np.inf) if fits else on
            if n == 1:  # the value block whole
                sums = _pair_block(G, rule, ne - j0, n, fold, block, kern,
                                   weight, du)
            else:  # each of its blocks, at the value block's width
                sums = [_pair_block(G, rule, ne - j0, n, fold, *part, gU=gU,
                                    hU=hU, hess=hess)
                        for part in zip(block, kern, weight, du)]
                sums = sums[0] if len(sums) == 1 else np.concatenate(
                    sums, axis=-1)
            val += np.add.reduce(sums, (-2, -1))
        if want_grad:
            _add_element_terms(grad, hess, 1.0 - x, x, gU, hU)
    return val, grad


def _state_views(i, kern, weight, du, sign, *outs):
    """The arguments of `_pair_block`, from ``kern`` on, of state i, as
    views of one state: a ``du`` (and ``sign``) of one row serves all
    states."""
    at = slice(i, i + 1)
    row = slice(None) if len(du) == 1 else at
    return (kern[at], None if weight is None else weight[at], du[row],
            None if sign is None else sign[row],
            *(None if a is None else a[at] for a in outs))


def _pair_block(G, on, width, n, fold, block, kern, weight, du, sign=None,
                gU=None, hU=None, hess=None):
    """The weighed row sums (states x rows x offsets) of one block of the
    offsets j0, j0 + 1, ..., whose rows of ``du`` are L = ne - j0 long, and
    whose sum is its value, per state of their leading axis; given ``gU``
    (which needs ``n`` >= 2), its per-element first derivatives are added
    to it, and given ``hess`` its second ones.

    The states are split here alone, one at a time (`_state_views`) where
    `_pair_rule` gives them rules of their own. Orders that share a row
    share the block's G call. A derivative pass whose rule takes |du|
    (G's own, a range-scanned max or t^p with p not in `_DOTS`) takes the
    signs of ``du`` once, before `_pair_rule` takes |du| in place, and
    splits them with it; t^p with p in `_DOTS` on [0, inf) takes none.

    The rule takes one jet of order n on its argument, none at all for t^p
    with p in `_DOTS`, whose value and derivative factors are products of
    du (`_value_operands`). F(arg) is summed over the elements of each pair
    row and offset as one dot product of two operands, rows of ``width``,
    its value block's (with zeros after the block's own rows: `_row_dots`),
    before the row sums take their weight w[0]: no product or weighted copy
    of the stack is made, and each state's sums are its own, as for one
    state. A pair's gradient term is w[1] d1 sign(du), and t^p's constants
    p and p (p - 1) of d1 and d2 go on its weight table, not on its pairs.
    A pair contributes c = w[2] d2 times the outer product of its
    difference's nodal weights to the Hessian. One matrix product per state
    (`_hessian_fold`) folds c into its sums per right and per left Gauss
    point, accumulated per element in ``hU`` like the gradient in ``gU``,
    and into its four hat-weight moments, the cross part, which lands on
    diagonals j-1, j and j+1 of each offset j of the block through one
    strided view per moment (`_add_diagonals`). t^2's c is w[2] on every
    pair of an offset: the fold of w[2] alone, one column per offset,
    stands for each of its elements.
    """
    if n > 1 and sign is None and not (
            on is not None and on[1] == np.inf and on[0].params[0] in _DOTS):
        sign = np.sign(du)
    rule = _pair_rule(G, on, du, kern, block, weight, n)
    if rule is None:
        return np.concatenate([
            _pair_block(G, on, width, n, fold, block, *_state_views(
                i, kern, weight, du, sign, gU, hU, hess))
            for i in range(len(kern))])
    F, arg, w = rule
    # t^p's exponent, or None for G's own rule
    p = F.params[0] if on is not None and F is on[0] else None
    g = None if p in _DOTS else F(arg, n)
    ops = _value_operands(p, arg, g, width, n)
    sums = _row_dots(ops[0], ops[1], width, w[0])
    if gU is None:
        return sums
    if p in _DOTS:  # F' = p d1 sign, F'' = p (p - 1) d2
        w = (w[0], *(c * a for c, a in zip((p, p * (p - 1.0)), w[1:])))
    q, lead = gU.shape[-2], gU.shape[:-2]
    nj, L = du.shape[-2:]
    j0 = gU.shape[-1] - L
    coef = w[1] * ops[2]
    if sign is not None:
        coef *= sign
    coef = coef.reshape(lead + (q, q, nj, L))
    gU[..., j0:] += _skew_sum(coef.sum(axis=-3))
    gU[..., :L] -= coef.sum(axis=(-4, -2))
    if hess is None:
        return sums
    if ops[3] is None:  # t^2: per offset, broadcast over its elements
        folded = _drop_padding(np.repeat(
            (fold @ w[2][..., 0])[..., None], L, axis=-1))
    else:
        folded = (fold @ (w[2] * ops[3]).reshape(lead + (q * q, -1))).reshape(
            lead + (-1, nj, L))
    hU[..., j0:] += _skew_sum(folded[..., :q, :, :])
    hU[..., :L] += folded[..., q:2 * q, :, :].sum(axis=-2)
    # moment 2 r + l of cross pairs node r of the right element with node l
    # of the left one
    cross = -folded[..., 2 * q:, :, :]
    _add_diagonals(hess, j0, 0, cross[..., 0, :, :])
    _add_diagonals(hess, j0, 1, cross[..., 3, :, :])
    _add_diagonals(hess, j0 + 1, 0, cross[..., 2, :, :])
    if j0 == 1:
        # at j = 1 this term and its transpose share the diagonal
        cross[..., 1, 0, :] *= 2.0
    _add_diagonals(hess, j0 - 1, 1, cross[..., 1, :, :])
    return sums


def _add_diagonals(hess, k, row, vals):
    """hess[..., row + e, row + k + i + e] += vals[..., i, e]: row i of
    ``vals`` goes to diagonal k + i, from row ``row`` on, per state of
    ``hess``'s leading axes; without its second-to-last axis ``vals`` is
    one diagonal. The strided view of ``hess`` (C-contiguous) that takes
    them holds distinct entries, and numpy checks that it lies inside
    ``hess``."""
    n = hess.shape[-1]
    if vals.ndim < hess.ndim:
        vals = vals[..., None, :]
    size = hess.itemsize
    view = np.ndarray(vals.shape, hess.dtype, hess, (row * (n + 1) + k) * size,
                      hess.strides[:-2] + (size, (n + 1) * size))
    view += vals


def _add_element_terms(grad, hess, a, b, d1, d2=None):
    """Add d1[..., g, e], a first derivative in a_g u_e + b_g u_(e+1), to
    the nodal gradient and, given d2, d2[..., g, e] (a_g, b_g)^T (a_g, b_g)
    on the nodes (e, e+1) to the upper triangle of ``hess``, per state of
    their leading axes: (a, b) = (1 - x, x) at points x of the elements,
    or (-1, 1) for h times the slope."""
    grad[..., :-1] += a @ d1
    grad[..., 1:] += b @ d1
    if d2 is not None:
        _add_diagonals(hess, 0, 0, (a * a) @ d2)
        _add_diagonals(hess, 1, 0, (a * b) @ d2)
        _add_diagonals(hess, 0, 1, (b * b) @ d2)


def _far_field(G, s, mesh, rows, want_grad, want_hess=False, tilde=None):
    """(iii) as `_same_element` gives (i), per state of the k orders ``s``
    and the nodal ``rows`` on ``mesh`` (`_nodal`): the value, its
    derivative in U, u at the order-5 Gauss points (states x points x
    elements), or None, and with ``want_hess`` the second one. Both sides
    (partner beyond either end) take one evaluation of I = tilde_G / 2,
    ``tilde`` = `limit_density(G, 1)` (built here if not given), and one
    of its exact derivatives, I' or both I' and I'' from one jet of G, as
    (elements x points) arrays, returned transposed (views: same bits).

    Where G is t^p on [0, T] (`_power_on`) and every argument
    |U| dist**(-s) of a state lies there (below T for the derivatives),
    I(|U| kern) kern^i = kern^p I_p^(i)(|U|), I_p t^p's profile: one
    profile of t^p at |U| serves every order and both ends, times the sum
    over the two ends of dist**(-s p), taken per order (`_pow`). For T
    finite (a max of powers) the range is checked first, on the nearer
    end's kernel with 1e-12 relative above the products. Any other state
    takes G's own profile at |U| kern. Both rules are one expression: the
    profile's argument has an end axis, of length 1 for t^p's, and I, I'
    and I'' take the factors k0, k1 and k1 k2 on it before the sum over
    the ends, k0 = k1 = the ends' sum of dist**(-s p) and k2 = 1 for
    t^p's, k0 = 1 and k1 = k2 = dist**(-s) for G's own.

    The states are split here alone, one at a time (`_one_by_one`) where
    a max's states lie on both sides of T; any other stack is one call,
    and a shared row's t^p profile serves every order."""
    tilde = tilde or limit_density(G, 1)
    on = _power_on(G)
    h = mesh.spacing
    xg, wg = gauss_rule_01(_ORDER)
    X = (mesh.left + h * np.arange(mesh.node_count - 1))[:, None] \
        + h * xg[None, :]
    dist = np.abs(np.subtract.outer([mesh.right, mesh.left], X))
    U = _at_gauss_points(rows, xg)
    fits = on is not None
    if fits and on[1] < np.inf:
        # the nearer end has the larger kernel
        top = (np.abs(U) * dist.min(axis=0) ** -s[:, None, None]).max(
            axis=(-2, -1)) * (1.0 + 1e-12)
        fits = (np.less if want_grad else np.less_equal)(top, on[1])
        if fits.any() and not fits.all():
            return _one_by_one(_far_field, G, s, mesh, rows, want_grad,
                               want_hess, tilde)
        fits = fits.all()
    # per end (or, for t^p, one axis of length 1 for both) and point, the
    # output factors k0, k1, k2 of I, I' and I'': kern^p I_p(|U|) or
    # I(|U| kern)
    if fits:
        F = on[0]
        p = F.params[0]
        tilde = tilde if tilde.base is F else limit_density(F, 1)
        arg = np.abs(U)[:, None]
        k0 = k1 = _pow(dist[None], s, lambda o: -o * p).sum(
            axis=-3, keepdims=True)
        k2 = 1.0
    else:
        # -s lies in (-1, 0), where numpy takes no exponent by sqrt, square
        # or reciprocal: an array of them has the bits of each alone
        # (`_pow`)
        k0, k1 = 1.0, dist ** -s[:, None, None, None]
        k2 = k1
        arg = np.abs(U)[:, None] * k1
    if tilde.backing == "quadrature" and len(arg) > 1:
        # the profile's rule is per-point work on (points, pieces, nodes)
        # arrays: taken state by state, each cut at its own kinks
        profile = np.stack([tilde.value(a) for a in arg])
    else:
        profile = tilde.value(arg)
    scale = 2.0 * h / s
    val = scale * np.sum(wg * (profile / 2.0 * k0), axis=(-3, -2, -1))
    if not want_grad:
        return val, None
    scale = scale[:, None, None]
    d1, *d2 = tilde.deriv(arg, 2) if want_hess else (tilde.deriv(arg),)
    d1 = scale * wg * np.sum(d1 / 2.0 * k1, axis=-3) * np.sign(U)
    d2 = [scale * wg * np.sum(d / 2.0 * k1 * k2, axis=-3) for d in d2]
    return (val, *(d.swapaxes(-1, -2) for d in [d1, *d2]))


def _nodal(u, k):
    """(mesh, nodal rows) of ``u`` for k orders: a GridFunction, or a
    sequence of one, gives one row, which every order shares; a sequence
    of k GridFunctions on one mesh, the states, one row each (states x
    nodes)."""
    if isinstance(u, GridFunction):
        return u, u.values[None]
    if len(u) not in (1, k):
        raise InvalidInputError(
            f"need one state or one per order ({k}), got {len(u)}")
    mesh = u[0]
    if any((v.left, v.right, v.node_count)
           != (mesh.left, mesh.right, mesh.node_count) for v in u):
        raise InvalidInputError("states must share a mesh")
    return mesh, np.stack([v.values for v in u])


def _core(G, s, u, want_grad, want_hess=False):
    """(value, nodal gradient or None) of the discrete modular; with
    ``want_hess`` (which needs ``want_grad``) also its nodal Hessian, a
    dense symmetric matrix, assembled in the same passes: pairs, far
    field, same element, each scattered by `_add_element_terms`.

    ``s`` is a 1-D array of k orders, and ``u`` one GridFunction, shared
    by all orders, or a sequence of states on one mesh: k, one per order,
    or one, shared (`_nodal`). Every output then has a states axis of k,
    in front, and each state's entries are bit-identical to its one-state
    call. One order (0-D ``s``) at one GridFunction is the state k = 1,
    returned without the axis.
    """
    orders = np.asarray(s, dtype=float)
    lone, s = orders.ndim == 0, orders.reshape(-1)
    mesh, rows = _nodal(u, len(s))
    h = mesh.spacing
    hess = (np.zeros((len(s),) + (mesh.node_count,) * 2)
            if want_hess else None)
    xg, _ = gauss_rule_01(_ORDER)
    tilde = limit_density(G, 1)
    # G''(0) = inf (t^p, p < 2) gives inf - inf = nan Hessian entries,
    # which the solver reads as "no Newton step here".
    with np.errstate(invalid="ignore") if want_hess else nullcontext():
        val, ders, *curv = _same_element(
            G, s, h, (rows[:, 1:] - rows[:, :-1]) / h, want_grad, want_hess,
            tilde)
        pairs, grad = _distinct_pairs(G, s, mesh, rows, want_grad, hess)
        far, *far_ders = _far_field(G, s, mesh, rows, want_grad, want_hess,
                                    tilde)
        if want_grad:
            # a node adds its far-field sum to the pairs'
            far_grad = np.zeros(grad.shape)
            _add_element_terms(far_grad, hess, 1.0 - xg, xg, *far_ders)
            grad += far_grad
            _add_element_terms(grad, hess, *_SLOPE, ders[:, None, :] / h,
                               *(c[:, None, :] / (h * h) for c in curv))
    at = 0 if lone else slice(None)  # one order drops the states axis
    val = val[at] + (pairs[at] + far[at])
    if not want_grad:
        return val, None
    if not want_hess:
        return val, grad[at]
    hess += np.swapaxes(np.triu(hess, 1), -1, -2)
    return val, grad[at], hess[at]


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
    of all orders share one pass, in value blocks of at most 2^14 pair
    points or of one offset, whose temporaries grow linearly with the
    number of orders (per order and array at most 128 KB, or one offset's
    points: 0.2 MB at 1025 nodes; the pair weights are applied to the row
    sums), except where G is t^p on a range (`_power_on`): a block then
    evaluates t^p once for all orders, or each order alone. The value has
    the bits of the value that `fractional_modular_with_gradient` gives.
    """
    orders = _check_s(s)
    val = _core(G, orders, u, want_grad=False)[0]
    return float(val) if orders.ndim == 0 else val


def fractional_modular_with_gradient(G: OrliczFunction, s: float,
                                     u: GridFunction):
    """(value, nodal gradient) of the discrete fractional modular."""
    if _check_s(s).ndim:
        raise InvalidParameterError(f"need one fractional order, got {s}")
    return _core(G, s, u, want_grad=True)

