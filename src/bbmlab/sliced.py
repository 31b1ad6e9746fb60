"""The sliced route of 2D/3D energies (Davila's slicing).

With h = r sigma and x = y + t sigma, y in sigma's complement,

    E = int_S int rho r^(d-1-p) G(r sigma) dr dsigma,
    G(r sigma) = int_{sigma-perp} int |u(y + (t + r) sigma) - u(y + t sigma)|^p dt dy,

and G is even in sigma, so half the directions are summed, twice.  Each
line is a 1D lag integral, smooth but for a few points: where the
difference changes sign (a kink of |.|^p, found between neighbouring
nodes and refined by ``quadrature.illinois``, the Illinois variant of
regula falsi, which tells it from a jump by its last value) and, for a
field that is not negligible at its support radius, where the line
crosses the support sphere.  The panels holding them are summed again
between the cuts (by ``quadrature.gauss_jacobi`` in the weight
|t - t*|^p at a root t* for a non-integer p), so the rest of each line
is fixed Gauss panels whose nodes every lag shares.  The lags are the
nodes of the kernel's shared radial row: 8 for the indicator and the
power law, 64 for the gaussian.  ``functionals.energy`` takes this route for
every 2D/3D analytic field at p != 2 (``energy_route``), once
``functionals._x_region`` has refused an unbounded support or a
declared point singularity; ``_sliced_energy`` returns the energy and
an estimate of its error.
"""

from __future__ import annotations

import math
import mmap
from typing import Optional

import numpy as np

from . import quadrature
from .errors import DomainError, EvaluationError
from .fields import AnalyticField
from .quadrature import _abs_power

# the sliced route: Gauss nodes a panel and the fewest panels a line; the
# default 2D direction count on [0, pi) and 3D product-rule order; the
# default lag level per kernel family (G is smooth in r: one panel of 8
# lags, Gauss in the power law's own weight, or 64 for the gaussian's
# measure); the field points a block of lines takes, and the
# panel sums a batch keeps for one Illinois pass; and the fraction
# of the largest |u| seen above which a support crossing is a jump to
# cut at
_SLICED_NODES = 8
_SLICED_MIN_PANELS = 8
_SLICED_SPHERE_ORDER = {2: 16, 3: 10}
_SLICED_X_RESOLUTION = {2: 96, 3: 48}
_SLICED_RADIAL_LEVEL = {"indicator": 0, "gaussian": 3, "powerlaw": 0}
_SLICED_BLOCK = 32768
_SLICED_SUMS = 2 ** 17
_EDGE_RTOL = 2.0 ** -48


def _sliced_directions(d: int, order: Optional[int]):
    """(sigma (K, d), w (K,), basis (K, d-1, d)): the directions of half
    the sphere, their weights in the whole sphere's rule, and an
    orthonormal basis of each sigma's complement.  In 2D they are the K =
    order midpoints of [0, pi), each of weight pi / K.  In 3D they are
    the upper half of the product of Gauss-Legendre in sigma_3 on [-1, 1]
    with 2 ceil(order/2) nodes and 2 order uniform azimuths, azimuth
    fastest: 2 order ceil(order/2) directions, order^2 at an even order.  G is even,
    so its average over an azimuth circle is even in sigma_3, and the
    half of an unsplit Gauss rule integrates it to twice the degree of
    a rule split at the equator (``quadrature.sphere_rule``)."""
    order = order or _SLICED_SPHERE_ORDER[d]
    if d == 2:
        theta = math.pi * (np.arange(order) + 0.5) / order
        cos, sin = np.cos(theta), np.sin(theta)
        return (np.column_stack([cos, sin]), np.full(order, math.pi / order),
                np.column_stack([-sin, cos])[:, None, :])
    half = -(-order // 2)
    z, wz = quadrature._gl(2 * half)
    m = 2 * order
    psi = 2.0 * math.pi * (np.arange(m) + 0.5) / m
    z, wz = np.repeat(z[half:], m), np.repeat(wz[half:], m)
    cos, sin = np.tile(np.cos(psi), half), np.tile(np.sin(psi), half)
    s = np.sqrt(1.0 - z * z)
    sig = np.column_stack([s * cos, s * sin, z])
    e1 = np.column_stack([-sin, cos, np.zeros_like(s)])
    e2 = np.column_stack([-z * cos, -z * sin, s])
    return sig, wz * (2.0 * math.pi / m), np.stack([e1, e2], axis=1)


def _line_values(field, o, s, c, t, store: list) -> np.ndarray:
    """u(o_l + t s_l) at t (..., b, k) on the b lines (o, s) whose chords
    in the support ball are [-c, c], and 0 where |t| > c.

    The points are built coordinate-major in the flat buffer store[0],
    which grows to (d + 2) t.size floats when it is smaller, and is
    reused by every call that passes the same list; the field gets a
    read-only (N, d) view of them and skips its own support mask, which
    |t| <= c replaces.  The values are a view into the buffer, valid until
    its next use; the points' part of it, before them, is then free."""
    d, size = o.shape[1], t.size
    if store[0].size < (d + 2) * size:
        store[0] = np.empty((d + 2) * size)
    pts = store[0][:d * size].reshape((d,) + t.shape)
    for i in range(d):
        np.multiply(t, s[:, i, None], out=pts[i])
        pts[i] += o[:, i, None]
    view, = quadrature._read_only(pts.reshape(d, -1).T)
    vals = store[0][d * size:(d + 1) * size].reshape(t.shape)
    vals.fill(0.0)
    np.copyto(vals, field.eval_many(view, _unmasked=True).reshape(t.shape),
              where=np.abs(t) <= c[:, None])
    return vals


def _odd(p: float) -> bool:
    return p == int(p) and int(p) % 2 == 1


def _signed_power(D: np.ndarray, p: float) -> np.ndarray:
    """D |D|^(p-1): D^p, smooth in D, for an odd integer p."""
    return D if p == 1.0 else D * _abs_power(D, p - 1.0)


def _sliced_panels(field, p, r, o, s, c, a, pw, panels, store):
    """(S, P, brackets, umax) of b lines (o, s) with panels of width pw
    from a: the panel sums S (nr, b, panels) of |D|^p, D = u(o + (t + r)
    s) - u(o + t s); at an odd p those of D^p, P, else None; the sign
    changes of D between neighbouring nodes, where |D|^p has a kink
    (none at an even p), as (j, l, t_i, t_i+1, D_i, D_i+1); and the
    largest |u(o + t s)|.  Row 0 of the values holds the nodes t, row j
    the lag r_j: one ``_line_values`` call for all of them."""
    q = _SLICED_NODES
    x, w = quadrature._gl(q)
    t = a[:, None] + pw[:, None] * (np.arange(panels)[:, None] + 0.5 * (x + 1.0)).ravel()
    U = _line_values(field, o, s, c, t + np.concatenate([[0.0], r])[:, None, None], store)
    umax = float(np.abs(U[0]).max(initial=0.0))
    D = U[1:]
    with np.errstate(invalid="ignore", over="ignore"):
        D -= U[0]
        F = _abs_power(D, p)

    def panel_sums(f):
        return (f.reshape(r.size, o.shape[0], panels, q) @ w) * (0.5 * pw)[:, None]
    S = panel_sums(F)
    _check_sliced(S, F, o, s, t, r)
    P = panel_sums(_signed_power(D, p)) if _odd(p) else None
    i = np.empty(0, dtype=np.int64)
    if p != int(p) or _odd(p):
        # on the flat rows, dropping the pairs where one line ends and
        # the next begins
        flat = D.reshape(-1)
        prod = np.multiply(flat[:-1], flat[1:], out=store[0][:flat.size - 1])
        i = np.flatnonzero(prod < 0.0)
        i = i[(i + 1) % t.shape[1] != 0]
    j, l, i = np.unravel_index(i, D.shape)
    return S, P, (j, l, t[l, i], t[l, i + 1], D[j, l, i], D[j, l, i + 1]), umax


def _sliced_sums(field, p, r, o, s, c, r_max, panels, step, scale):
    """(S, scale): the panel sums S (nr, b, panels) of b lines, each panel
    that holds a cut summed again between its cuts, and the largest |u|
    seen so far.  The nodes go in blocks of ``step`` lines, which share
    one buffer; then one Illinois pass refines every bracket of every
    block."""
    a = -c - r_max
    pw = (c - a) / panels
    S = np.empty((r.size, o.shape[0], panels))
    P = np.empty(S.shape) if _odd(p) else None
    # one buffer for the blocks' nodes, values and products and for the
    # pieces summed again (1 MiB in 2D), an anonymous mapping of its own
    # that goes back to the system with the batch: as a heap buffer it
    # left the process heap grown, with ~2 MB free inside it, after each
    # energy-nd cycle of the benchmark
    size = (o.shape[1] + 2) * max(_SLICED_BLOCK, step * (r.size + 1) * panels * _SLICED_NODES)
    store = [np.frombuffer(mmap.mmap(-1, 8 * size), dtype=float)]
    brackets = []
    for start in range(0, o.shape[0], step):
        blk = slice(start, start + step)
        S[:, blk], Pb, (j, l, *rest), umax = _sliced_panels(
            field, p, r, o[blk], s[blk], c[blk], a[blk], pw[blk], panels, store)
        if P is not None:
            P[:, blk] = Pb
        brackets.append((j, l + start, *rest))
        scale = max(scale, umax)
    j, l, ta, tb, fa, fb = (np.concatenate(v) for v in zip(*brackets))
    # a root off by e moves a Gauss piece by about |D'|^p e^(p+1), but a
    # Gauss-Jacobi piece (non-integer p) by p e over its nearest node's
    # distance: only those roots are refined to the last bits
    tol = 2.0 ** -30 * pw[l]
    if p != int(p):
        tol = np.maximum(4.0 * np.spacing(np.maximum(np.abs(ta), np.abs(tb))), tol * 2.0 ** -18)
    def gap(t, o, s, c, lag):
        both = _line_values(field, o, s, c, np.column_stack([t + lag, t]), store)
        return both[:, 0] - both[:, 1]
    # a bracket where D jumps instead keeps a last value above 2^-10 of its larger end's
    root, last = quadrature.illinois(gap, ta, tb, fa, fb, tol, o[l], s[l], c[l], r[j])
    cuts = [(j, l, root, np.abs(last) > 2.0 ** -10 * np.maximum(np.abs(fa), np.abs(fb)))]
    # the support crossings, where a field that is not negligible there
    # jumps to 0: t = -c for u(o + t s), t = -c - r and c - r for u(o + (t + r) s)
    edge = np.abs(_line_values(field, o, s, c, np.column_stack([-c, c]), store)).max(axis=1)
    lags = np.arange(r.size)
    for line in np.flatnonzero(edge > _EDGE_RTOL * scale):
        cuts += [(lags, np.full(r.size, line), np.broadcast_to(where, r.shape), True)
                 for where in (-c[line], -c[line] - r, c[line] - r)]
    j, l, t, jump = (np.concatenate([np.broadcast_to(v, cut[0].shape) for v, cut in zip(col, cuts)])
                     for col in zip(*cuts))
    if t.size:
        _resum_cut_panels(field, p, r, o, s, c, a, pw, S, P, j, l, t, jump, store)
    return S, scale


def _resum_cut_panels(field, p, r, o, s, c, a, pw, S, P, j, l, t, jump, store) -> None:
    """Sum again every region of panels that holds cuts t, as the pieces
    between them.

    At an integer p a region is the panel of its cuts, and each piece one
    Gauss panel of _SLICED_NODES nodes: |D|^p is smooth between them.  At
    a non-integer p, |D|^p = |t - t*|^p times a smooth function near a
    root t*, and (-D)^p has a branch point there that slows Gauss on the
    neighbouring panels too: a region is the panel of a root and one
    either side (regions that touch merge), and a piece takes 3
    _SLICED_NODES nodes of the Gauss-Jacobi rule whose weight is |t -
    t*|^p at each end that is a root (``quadrature.gauss_jacobi``).  The
    region's sum goes into its first panel and its other panels are
    zeroed.

    At an odd p, D^p is smooth across a root, so in a panel whose cuts
    are all roots (no ``jump``) the last piece is not evaluated: its
    integral of D^p is the panel's, P, less the other pieces'.  Each
    piece's |integral of D^p| is its integral of |D|^p."""
    nr, b, panels = S.shape
    h = 0 if p == int(p) else 1
    row = j * b + l
    order = np.lexsort((t, row))
    row, j, l, t, jump = (v[order] for v in (row, j, l, t, jump))
    k = np.clip(np.floor((t - a[l]) / pw[l]).astype(np.int64), 0, panels - 1)
    first = np.ones(t.size, dtype=bool)
    first[1:] = (row[1:] != row[:-1]) | (k[1:] - k[:-1] > 2 * h)
    last = np.ones(t.size, dtype=bool)
    last[:-1] = first[1:]
    group = np.cumsum(first) - 1
    lg = l[first]
    k_lo, k_hi = np.maximum(k[first] - h, 0), np.minimum(k[last] + h, panels - 1)
    lo_g, hi_g = a[lg] + k_lo * pw[lg], a[lg] + (k_hi + 1) * pw[lg]
    t = np.clip(t, lo_g[group], hi_g[group])
    # the pieces: one ending at each cut, and the last of each region;
    # an end is singular where it is a root at a non-integer p
    lo = np.concatenate([np.where(first, lo_g[group], np.roll(t, 1)), t[last]])
    hi = np.concatenate([t, hi_g])
    root = ~jump & bool(h)
    left = np.concatenate([~first & np.roll(root, 1), root[last]])
    right = np.concatenate([root, np.zeros(lg.size, dtype=bool)])
    jj, ll, gg = (np.concatenate([v, v[last]]) for v in (j, l, group))
    keep = hi - lo > 2.0 ** -40 * pw[ll]
    if P is not None:
        smooth = np.bincount(group, jump, lg.size) == 0
        keep[t.size:] &= ~smooth
    lo, hi, left, right, jj, ll, gg = (v[keep] for v in (lo, hi, left, right, jj, ll, gg))
    q = _SLICED_NODES * (2 * h + 1)
    rules = [quadrature.gauss_jacobi(q, e * h * p, f * h * p) for e in (0, 1) for f in (0, 1)]
    pick = 2 * left + right
    x, w = (np.stack(v) for v in zip(*rules))
    # the pieces go in blocks of at most _SLICED_BLOCK points
    sums = np.empty(lo.size)
    rows = max(1, _SLICED_BLOCK // (2 * q))
    for start in range(0, lo.size, rows):
        at = slice(start, start + rows)
        half = 0.5 * (hi[at] - lo[at])[:, None]
        nodes = lo[at, None] + half * (x[pick[at]] + 1.0)
        ol, sl, rl = o[ll[at]], s[ll[at]], r[jj[at]]
        U = _line_values(field, ol, sl, c[ll[at]], np.stack([nodes + rl[:, None], nodes]),
                         store)
        D = U[0]
        with np.errstate(invalid="ignore", over="ignore"):
            D -= U[1]
            F = _signed_power(D, p) if P is not None else _abs_power(D, p)
        sums[at] = np.einsum("ij,ij->i", half * w[pick[at]], F)
        _check_sliced(sums[at], F, ol, sl, nodes, rl)
    total = np.bincount(gg, np.abs(sums), lg.size)
    at = (j[first] * b + lg) * panels + k_lo
    if P is not None:
        rest = P.reshape(-1)[at] - np.bincount(gg, sums, lg.size)
        total[smooth] += np.abs(rest[smooth])
    span = k_hi - k_lo + 1
    flat = S.reshape(-1)
    flat[np.repeat(at - np.cumsum(span) + span, span) + np.arange(span.sum())] = 0.0
    flat[at] = total


def _check_sliced(sums, F, o, s, t, r) -> None:
    """Refuse a NaN or infinite sum of the integrand F >= 0 at the nodes
    t (..., b, k) of the lines (o, s), with the lag r (one a leading row,
    or one a line): it names the first node where F is not finite."""
    if np.isfinite(sums).all():
        return
    if np.isfinite(F).all():
        raise EvaluationError(f"a line sum is {sums.max()!r}", stage="sliced")
    idx = np.unravel_index(int(np.argmin(np.isfinite(F))), F.shape)
    line = idx[-2]
    tt = np.broadcast_to(t, F.shape)[idx]
    lag = r[idx[0]] if F.ndim == 3 else r[line]
    raise EvaluationError.at_node(float(F[idx]), o[line] + tt * s[line], float(lag),
                                  s[line].copy(), "sliced")


def _sliced_energy(field, mollifier, p, scheme):
    """(E, estimate): the energy of a 2D/3D analytic field by slicing,
    and an estimate of its error.

    With h = r sigma and x = y + t sigma, y in sigma's complement,

        E = int_S int rho r^(d-1-p) G(r sigma) dr dsigma,
        G(r sigma) = int int |u(y + (t + r) sigma) - u(y + t sigma)|^p dt dy,

    and G is even in sigma, so half the directions are summed, twice
    (``_sliced_directions``).  The lags r are the nodes of the shared
    kernel row of ``radial_level`` (by default _SLICED_RADIAL_LEVEL of
    the kernel's family).  The lines y are the midpoints of n cells a
    side over [-R, R]^(d-1) (n = x_resolution, by default
    _SLICED_X_RESOLUTION), R the support radius, that meet the support
    ball; line l runs over t in [-c_l - r_max, c_l], the only t where
    u(y + t sigma) or u(y + (t + r) sigma) can be nonzero,
    c_l = sqrt(R^2 - |y_l|^2).  It is cut into max(8, ceil(n/3)) fixed
    Gauss panels of _SLICED_NODES nodes, shared by every lag: u is
    evaluated once a line at the nodes t and once a lag at t + r.  A sign
    change of the difference between neighbouring nodes brackets a kink
    of |.|^p, which one Illinois pass over every bracket of a batch
    refines (a bracket where the difference jumps instead is cut as a
    jump); a support crossing where the field exceeds _EDGE_RTOL of the
    largest value seen is a jump, cut at t = -c, -c - r and c - r.  The
    panels that hold cuts are summed again as the pieces between them
    (``_resum_cut_panels``), with ``quadrature.gauss_jacobi`` pieces
    at a non-integer p.  Lines go in blocks of about _SLICED_BLOCK
    field points, and in batches whose panel sums (nr per panel) number
    about _SLICED_SUMS.

    At x_resolution 24 with the 2D bump and indicator(1/8), p = 1, that
    is 16 directions x 24 lines x 64 nodes at 8 lags and the line's own
    nodes, 221,184 points, plus 3,072 roots: about 0.36M evaluations.

    The estimate sums the same line integrals over every other direction
    and, apart, over every other line of the first axis of the complement
    (each with doubled weights), and is the larger of the two changes,
    plus sqrt(lines) units of rounding of the sum.  It does not see the
    panels' error or the lag rule's: at the defaults both lie below the
    other two on smooth fields, but x_resolution 24 leaves 2.7e-11 of
    panel error on the 2D bump at p = 1.

    Raises
    ------
    DomainError
        For a field that is not analytic (a grid field).
    EvaluationError
        If the integrand is NaN or infinite at some node; it carries
        stage "sliced", the node's point as ``centre``, the lag as ``r``
        and the line's direction as ``sigma``.
    """
    r_max = mollifier.quadrature_radius()
    if not isinstance(field, AnalyticField):
        raise DomainError(
            f"the sliced route integrates analytic fields; a {field.dimension}D "
            f"{type(field).__name__} energy has no route")
    d, R = field.dimension, float(field.support_radius)
    level = scheme.radial_level
    row = quadrature.kernel_radial_rule(
        mollifier, _SLICED_RADIAL_LEVEL[mollifier.kind] if level is None else level)
    r, wr = row.nodes, row.weights / row.nodes ** p
    sig, w, basis = _sliced_directions(d, scheme.sphere_order)
    n = scheme.x_resolution or _SLICED_X_RESOLUTION[d]
    h = 2.0 * R / n
    mid = -R + h * (np.arange(n) + 0.5)
    grid = np.stack(np.meshgrid(*[mid] * (d - 1), indexing="ij"), -1).reshape(-1, d - 1)
    first_axis = np.repeat(np.arange(n), n ** (d - 2))
    rsq = np.einsum("ij,ij->i", grid, grid)
    keep = rsq < R * R
    grid, first_axis = grid[keep], first_axis[keep]
    K, m = sig.shape[0], grid.shape[0]
    origin = np.einsum("ma,kad->kmd", grid, basis).reshape(-1, d)
    dirs = np.repeat(sig, m, axis=0)
    chord = np.tile(np.sqrt(R * R - rsq[keep]), K)
    panels = max(_SLICED_MIN_PANELS, -(-n // 3))
    nodes = panels * _SLICED_NODES
    step = max(1, _SLICED_BLOCK // ((r.size + 1) * nodes))
    batch = max(step, _SLICED_SUMS // (r.size * panels))
    totals = np.empty(K * m)
    scale = 0.0
    for start in range(0, K * m, batch):
        lines = slice(start, start + batch)
        S, scale = _sliced_sums(field, p, r, origin[lines], dirs[lines], chord[lines],
                                r_max, panels, step, scale)
        totals[lines] = wr @ S.sum(axis=2)
    weight = np.repeat(2.0 * w * h ** (d - 1), m)
    value = float(np.dot(weight, totals))
    every_other_dir = np.repeat(np.arange(K) % 2 == 0, m)
    every_other_line = np.tile(first_axis % 2 == 0, K)
    estimate = max(abs(value - 2.0 * float(np.dot(weight[mask], totals[mask])))
                   for mask in (every_other_dir, every_other_line))
    # and the rounding of a sum of K m line totals
    rounding = 2.0 ** -52 * math.sqrt(K * m) * float(np.dot(weight, np.abs(totals)))
    return value, estimate + rounding
