"""Polynomials given by their roots, evaluated in log space, with boundary
L^q norms and the oscillation factor M_q = |p'|_q / |p|_q.

Everything works at degrees in the thousands: absolute values go through
sums of logs, derivatives through the logarithmic derivative, and norms
through shifted exponentials, so nothing overflows before the final
exponentiation (which may legitimately return inf while M stays finite).

One kernel computes every root-to-node sum: for a chunk of points it forms
z - r_j against the whole root axis, takes |z - r_j| once, and reduces it
to log|p| and, for the derivative, the nearest-root distance and
sum 1/(z - r_j).
A chunk holds about 2^16 (point, root) pairs, roughly 1 MB of complex
temporaries, so the working set stays inside a 2 MB per-core L2 cache.
Because the roots axis is never split, a point's value does not depend on
the batch it arrives in.  `_log_norms` gives the norms of p and p' as a
pair: sup norms from one pruned pass over a dense mesh, L^q norms from one
panel tree.  Both follow the mass, not the mesh, through the same
zeroth-order bound of |p| and |p'| on a disc (`_disc_log_bounds`).  The
quadrature settles a panel whose bound makes it negligible against the
integral so far, and so refines only where |p|^q is large.  The sup mesh
is cut into large blocks first, and only the blocks whose bound reaches
the top tier of the centre values seen so far are cut again, down to
blocks of 16 points whose points the kernel evaluates; that gives the
full mesh's result bit for bit.  The sup norms polish up to 16 top-tier
peaks of the cyclic mesh within one mesh step (`_mesh_sup`); the grid
maximizers of the audits and the covering polish their grid argmax between
its grid neighbours, so on a segment or an arc the result never leaves it
(`_grid_max`).  Both run one batched golden-section search, which stops as
soon as its brackets cycle, with the result of the full 80 steps.  Its
probes depend on f only through the outcomes of its comparisons (Kiefer,
Proc. AMS 4, 1953), so one f call evaluates every probe the next few steps
could need, up to _SPEC_POINTS points and _SPEC_PAIRS (point, root)
pairs, and serves all those steps, with the one-step search's result bit
for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import QuadratureLimit, SingularPoint, ZeroNorm
from .geometry import ConvexDomain

# (point, root) pairs per kernel chunk: about 1 MB of complex temporaries,
# which stays inside a 2 MB per-core L2 cache
_CHUNK_PAIRS = 1 << 16

# 16-node Gauss-Legendre rule on [-1, 1]
_XG, _WG = np.polynomial.legendre.leggauss(16)

# threshold (relative to the root spread) below which a point counts as
# sitting on a root
_NEAR_ROOT = 1e-12
_SINGULAR = 1e-14


@dataclass(frozen=True)
class RootPolynomial:
    """p(z) = lead * prod (z - root_j).  Degree n = len(roots); n = 0 is a
    constant."""

    lead: complex
    roots: tuple

    def __post_init__(self):
        object.__setattr__(self, "roots",
                           tuple(complex(r) for r in self.roots))
        object.__setattr__(self, "lead", complex(self.lead))
        # the kernels' copy of the roots, built once; not a dataclass field,
        # so equality, hashing and to_json see only the tuple
        arr = np.array(self.roots, dtype=complex)
        arr.flags.writeable = False
        object.__setattr__(self, "_root_array", arr)

    @property
    def n(self) -> int:
        return len(self.roots)

    @cached_property
    def _scale(self) -> float:
        return max(1.0, float(np.abs(self._root_array).max(initial=0.0)))

    def scale(self) -> float:
        """max(1, max_j |root_j|), the reference for the near-root tests,
        computed on first use."""
        return self._scale

    def monic(self) -> "RootPolynomial":
        return RootPolynomial(1.0, self.roots)

    def to_json(self) -> str:
        return json.dumps({
            "lead": [self.lead.real, self.lead.imag],
            "roots": [[r.real, r.imag] for r in self.roots],
        })

    @classmethod
    def from_json(cls, text: str) -> "RootPolynomial":
        obj = json.loads(text)
        return cls(complex(*obj["lead"]),
                   tuple(complex(*r) for r in obj["roots"]))


def _as_array(z):
    arr = np.asarray(z, dtype=complex)
    return arr, arr.ndim == 0


def _point_chunks(n_points: int, n_roots: int):
    """Slices along the points of about _CHUNK_PAIRS (point, root) pairs
    each; the roots axis is never split."""
    step = max(1, _CHUNK_PAIRS // max(1, n_roots))
    for start in range(0, n_points, step):
        yield slice(start, start + step)


def _root_sums(roots: np.ndarray, flat: np.ndarray, derivative: bool):
    """Per point: sum_j log|z - r_j| and, when derivative is set, also
    min_j |z - r_j| and sum_j 1/(z - r_j), all from one |z - r_j| per pair.
    The reciprocal sum is inf or nan at a point sitting on a root; callers
    test the nearest distance first."""
    la = np.empty(flat.shape)
    nearest = np.empty(flat.shape) if derivative else None
    recip = np.empty(flat.shape, dtype=complex) if derivative else None
    with np.errstate(divide="ignore", invalid="ignore"):
        for sl in _point_chunks(flat.size, roots.size):
            diff = flat[sl, None] - roots[None, :]
            ad = np.abs(diff)
            la[sl] = np.log(ad).sum(axis=1)
            if derivative:
                nearest[sl] = ad.min(axis=1, initial=math.inf)
                recip[sl] = (1.0 / diff).sum(axis=1)
    return la, nearest, recip


def log_abs(p: RootPolynomial, z) -> np.ndarray:
    """log |p(z)|, elementwise; -inf exactly on a root.  A point's value
    does not depend on the batch it arrives in (see the module notes on
    the point-chunked kernel)."""
    arr, scalar = _as_array(z)
    flat = arr.ravel()
    out = np.full(flat.shape, math.log(abs(p.lead)) if p.lead != 0
                  else -math.inf)
    if p.roots and p.lead != 0:
        out += _root_sums(p._root_array, flat, False)[0]
    out = out.reshape(arr.shape)
    return float(out) if scalar else out


def log_derivative(p: RootPolynomial, z):
    """p'(z)/p(z) = sum 1/(z - root_j).  Raises SingularPoint when z sits
    on a root (relative threshold 1e-14 of the root spread)."""
    arr, scalar = _as_array(z)
    flat = arr.ravel()
    out = np.zeros(flat.shape, dtype=complex)
    if p.roots:
        _, nearest, out = _root_sums(p._root_array, flat, True)
        if (nearest < _SINGULAR * p.scale()).any():
            raise SingularPoint("logarithmic derivative evaluated on a root")
    out = out.reshape(arr.shape)
    return complex(out) if scalar else out


def _logabs_dp(p: RootPolynomial, flat: np.ndarray):
    """(log |p|, log |p'|) at every point from one kernel pass."""
    roots = p._root_array
    thresh = _NEAR_ROOT * p.scale()
    la, nearest, recip = _root_sums(roots, flat, True)
    la += math.log(abs(p.lead))
    close = np.nonzero(nearest < thresh)[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = la + np.log(np.abs(recip))
    if close.size == 0:
        return la, out
    # On or next to a root the log route cancels badly; switch to the
    # cofactor form.  The roots within thresh of the nearest one, c, count
    # as one root of multiplicity m, so with Q = prod over the others
    #   p'(z) = lead (z - c)^(m-1) Q(z) [m + (z - c) Q'(z)/Q(z)].
    # The points sharing a nearest root share its cluster, so each group
    # takes one pass against the roots outside it; a row's sums do not
    # depend on the other rows.
    for sl in _point_chunks(close.size, roots.size):
        idx = close[sl]
        nearest_root = np.abs(flat[idx, None] - roots).argmin(axis=1)
        for k in np.unique(nearest_root):
            group = idx[nearest_root == k]
            c = roots[k]
            cluster = np.abs(roots - c) < thresh
            m = int(cluster.sum())
            log_q, _, dq = _root_sums(roots[~cluster], flat[group], True)
            for i, z, lq, s in zip(group, flat[group], log_q, dq):
                corr = abs(m + (z - c) * s)
                if corr == 0 or (m > 1 and z == c):
                    out[i] = -math.inf
                    continue
                out[i] = math.log(abs(p.lead)) + float(lq) + math.log(corr)
                if m > 1:
                    out[i] += (m - 1) * math.log(abs(z - c))
    return la, out


def logabs_derivative(p: RootPolynomial, z, with_log_abs: bool = False):
    """log |p'(z)| as log |p| + log |p'/p|, both sums over the roots, so no
    expanded coefficient is ever formed.  Within 1e-12 (relative to the
    root scale) of a root, where p'/p cancels badly, the cofactor form
    takes over, with a tight root cluster counted as one multiple root;
    the result is -inf exactly on a multiple root.

    A point's value does not depend on the batch it arrives in.  With
    with_log_abs the pair (log |p(z)|, log |p'(z)|) comes back from the
    same kernel pass, the first equal to log_abs(p, z) bit for bit."""
    arr, scalar = _as_array(z)
    flat = arr.ravel()
    if p.n == 0 or p.lead == 0:
        la = np.full(flat.shape, math.log(abs(p.lead)) if p.lead != 0
                     else -math.inf)
        out = np.full(flat.shape, -math.inf)
    else:
        la, out = _logabs_dp(p, flat)
    if scalar:
        la, out = float(la[0]), float(out[0])
    else:
        la, out = la.reshape(arr.shape), out.reshape(arr.shape)
    return (la, out) if with_log_abs else out


def _log_rows(p: RootPolynomial, derivative: bool):
    """z -> the rows (log|p|,), or with derivative (log|p|, log|p'|), at
    the points z from one kernel pass."""
    if derivative:
        return lambda z: logabs_derivative(p, z, with_log_abs=True)
    return lambda z: (log_abs(p, z),)


def _disc_log_bounds(p: RootPolynomial, c: np.ndarray, h: np.ndarray,
                     derivative: bool) -> list:
    """Upper bounds of log|p| (and, when derivative is set, of log|p'|)
    on the discs |z - c_i| <= h_i, as rows.  With d_j = |c - r_j|:
        log|lead| + sum_j log(d_j + h),
    and for p' the same plus the log of the smaller of
        sum_j 1/(d_j + h),  since |p'(z)| <= sum_j prod_{k != j} |z - r_k|,
        |p'/p(c)| + h sum_j 1/((d_j - h) d_j),  where every d_j > h,
    the second since |1/(z - r_j) - 1/(c - r_j)| <= h/((d_j - h) d_j).
    The second is tight as h -> 0, so a panel beside a zero of p' (where
    |p'|^q has a kink at odd q) can still be certified negligible.  With
    h > 0 neither row is singular."""
    roots = p._root_array
    logs = np.zeros(c.shape)
    recips = np.zeros(c.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for sl in _point_chunks(c.size, roots.size):
            diff = c[sl, None] - roots[None, :]
            d = np.abs(diff)
            t = d + h[sl, None]
            logs[sl] = np.log(t).sum(axis=1)
            if derivative:
                spread = (1.0 / t).sum(axis=1)
                # in place: diff and t are not used again
                t = np.subtract(d, h[sl, None], out=t)
                t *= d
                centred = (np.abs(np.reciprocal(diff, out=diff).sum(axis=1))
                           + h[sl] * np.reciprocal(t, out=t).sum(axis=1))
                inside = d.min(axis=1, initial=math.inf) > h[sl]
                recips[sl] = np.where(inside, np.minimum(spread, centred),
                                      spread)
        up = logs + (math.log(abs(p.lead)) if p.lead != 0 else -math.inf)
        return [up, up + np.log(recips)] if derivative else [up]


# ------------------------------------------------------------- quadrature

# a row settles on a panel when halving the panel moves its value by under
# _QUAD_TOL (relative), or when the panel's disc bound caps its share of the
# row's total at _NEGLIGIBLE; a panel still unsettled at depth _MAX_DEPTH
# raises QuadratureLimit
_QUAD_TOL = 1e-8
_NEGLIGIBLE = 1e-13
_MAX_DEPTH = 26
# live panels one level may split: their 2^21 half-panel nodes take about
# 150 MB of temporaries
_MAX_LIVE_PANELS = 1 << 16


def _boundary_pieces(K: ConvexDomain, cuts=()) -> list:
    """Arclength pieces (a, b) that tile the boundary once: four per
    polygon edge, so no piece spans a vertex, or sixteen disk arcs; each
    is split again at every cut strictly inside it."""
    L = K.perimeter
    if K.kind == "polygon":
        ends = [K.vertex_s(i) for i in range(len(K.vertices))] + [L]
        seeds = [(a + (b - a) * k / 4, a + (b - a) * (k + 1) / 4)
                 for a, b in zip(ends[:-1], ends[1:]) for k in range(4)]
    else:
        seeds = [(L * k / 16, L * (k + 1) / 16) for k in range(16)]
    cuts = sorted(set(cuts))
    pieces = []
    for a, b in seeds:
        pts = [a] + [c for c in cuts if a < c < b] + [b]
        pieces.extend(zip(pts[:-1], pts[1:]))
    return pieces


def _log_sum(values):
    """log sum exp(values) along the last axis: a float for 1-D values; for
    rows (rows, k) an array of each row's 1-D sum, bit for bit.  -inf for
    no values."""
    values = np.asarray(values, dtype=float)
    rows = np.atleast_2d(values)
    top = rows.max(axis=-1, initial=-math.inf, keepdims=True)
    # a row of -inf (or of no values) sums exp(-inf) = 0 about a top of 0
    top[top == -math.inf] = 0.0
    with np.errstate(divide="ignore"):
        out = (top + np.log(np.sum(np.exp(rows - top), axis=-1,
                                   keepdims=True)))[:, 0]
    return float(out[0]) if values.ndim == 1 else out


def _gauss_nodes(a: np.ndarray, b: np.ndarray) -> tuple:
    """Arclength nodes and weights, each an array (panels, 16), of the
    16-node Gauss-Legendre rule on every panel [a_i, b_i]."""
    half = 0.5 * (b - a)
    return (0.5 * (a + b))[:, None] + half[:, None] * _XG, _WG * half[:, None]


def _panel_log_integrals(K, flog, q, a, b):
    """log of the integral of e^{q f} over each panel [a_i, b_i] by the
    16-node Gauss-Legendre rule, for every row f in the sequence that flog
    returns, as an array (rows, panels), from one boundary call and one
    flog call.
    Raises QuadratureLimit when a value of q f is +inf or nan."""
    s, w = _gauss_nodes(a, b)
    rows = flog(K.gamma(s.ravel()))
    with np.errstate(over="ignore"):
        li = q * np.reshape(rows, (len(rows),) + s.shape)
    if not (li < math.inf).all():
        raise QuadratureLimit(f"q = {q:g}: q log|f| overflows to inf or nan")
    m = li.max(axis=2)
    shift = np.where(m > -math.inf, m, 0.0)
    with np.errstate(divide="ignore"):
        return m + np.log(np.sum(w * np.exp(li - shift[..., None]), axis=2))


def _adaptive_log_integral(p: RootPolynomial, K: ConvexDomain, q: float,
                           pieces, derivative: bool):
    """(log of the integral of |p|^q, and when derivative is set also of
    |p'|^q, over each piece, as an array (rows, pieces); panel count).

    One panel tree, level by level: both halves of every live panel come
    from one boundary call and one kernel call.  A row settles on a panel
    when the halves' sum moves the panel's value by under _QUAD_TOL, when
    the row is -inf on the panel and both halves, or when the panel is
    negligible:
        log(b - a) + q * (the row's _disc_log_bounds bound) <= log T,
    with T = _NEGLIGIBLE times a running lower estimate of the row's total.
    The disc is centred at gamma(mid) with radius (b - a)/2; a panel never
    spans a vertex and a chord is no longer than its arc, so the disc holds
    the panel.  The estimate sums the accepted panels and, for each panel
    still split, the smaller of its value and its halves' sum; it starts at
    zero, so the first level certifies nothing.  A panel is accepted once
    every row has settled, and one that is negligible in every row keeps
    its own value, with no half evaluated.  Raises ValueError unless
    1 <= q < inf, and QuadratureLimit when a level has over
    _MAX_LIVE_PANELS panels to split or a panel is unsettled at depth
    _MAX_DEPTH."""
    if not 1 <= q < math.inf:
        raise ValueError(f"q = {q}: the quadrature needs a finite q >= 1")
    flog = _log_rows(p, derivative)
    a = np.array([lo for lo, _ in pieces], dtype=float)
    b = np.array([hi for _, hi in pieces], dtype=float)
    owner = np.arange(len(pieces))
    coarse = _panel_log_integrals(K, flog, q, a, b)
    panels = len(pieces)
    kept_owner, kept_value = [], []
    kept_total = np.full(coarse.shape[0], -math.inf)
    log_floor = np.full(coarse.shape[0], -math.inf)
    depth = 0
    while a.size:
        if a.size > _MAX_LIVE_PANELS:
            raise QuadratureLimit(
                f"q = {q:g}: {a.size} panels to split at depth {depth}, "
                f"over the limit of {_MAX_LIVE_PANELS}")
        mid = 0.5 * (a + b)
        # the bound is never below the panel's value, so only a panel whose
        # value is below the floor in some row can be negligible in it
        negligible = coarse <= log_floor[:, None]
        cand = negligible.any(axis=0)
        if cand.any():
            bounds = _disc_log_bounds(p, K.gamma(mid[cand]),
                                      0.5 * (b[cand] - a[cand]), derivative)
            with np.errstate(over="ignore"):
                negligible[:, cand] = (np.log(b[cand] - a[cand])
                                       + q * np.array(bounds)
                                       <= log_floor[:, None])
            # a panel negligible in every row keeps its own value unhalved
            skip = negligible.all(axis=0)
            if skip.any():
                kept_owner.append(owner[skip])
                kept_value.append(coarse[:, skip])
                kept_total = np.logaddexp(kept_total,
                                          _log_sum(coarse[:, skip]))
                a, mid, b, owner = a[~skip], mid[~skip], b[~skip], owner[~skip]
                coarse, negligible = coarse[:, ~skip], negligible[:, ~skip]
        halves = _panel_log_integrals(K, flog, q, np.concatenate([a, mid]),
                                      np.concatenate([mid, b]))
        left, right = halves[:, :a.size], halves[:, a.size:]
        fine = np.logaddexp(left, right)
        with np.errstate(over="ignore", invalid="ignore"):
            settled = (negligible | (np.abs(np.expm1(coarse - fine))
                                     <= _QUAD_TOL)
                       | ((fine == -math.inf) & (coarse == -math.inf)))
        split = ~settled.all(axis=0)
        if depth >= _MAX_DEPTH and split.any():
            raise QuadratureLimit(
                f"q = {q:g}: {int(split.sum())} panels unsettled at depth "
                f"{depth}")
        kept_owner.append(owner[~split])
        kept_value.append(fine[:, ~split])
        kept_total = np.logaddexp(kept_total, _log_sum(fine[:, ~split]))
        log_floor = math.log(_NEGLIGIBLE) + np.logaddexp(
            kept_total, _log_sum(np.minimum(coarse, fine)[:, split]))
        panels += 2 * int(split.sum())
        a, mid, b = a[split], mid[split], b[split]
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
        owner = np.tile(owner[split], 2)
        coarse = np.concatenate([left[:, split], right[:, split]], axis=1)
        depth += 1
    # per piece and row: log sum exp of its kept panels' values
    owner = np.concatenate(kept_owner)
    value = np.concatenate(kept_value, axis=1)
    top = np.full((len(pieces), value.shape[0]), -math.inf)
    np.maximum.at(top, owner, value.T)
    shift = np.where(top > -math.inf, top, 0.0)
    total = np.zeros(top.shape)
    np.add.at(total, owner, np.exp(value.T - shift[owner]))
    with np.errstate(divide="ignore"):
        return (shift + np.log(total)).T, panels


# ------------------------------------------------------------- sup norm

def _exp_or_inf(x: float) -> float:
    """e^x, or inf where that overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class SupNorm:
    log_value: float
    s: float
    z: complex

    @property
    def value(self) -> float:
        return _exp_or_inf(self.log_value)


_INV_GOLD = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_STEPS = 80
# most probes, and most (probe, root) pairs, one speculative f call of the
# golden-section search evaluates
_SPEC_POINTS = 32
_SPEC_PAIRS = 4096
# consecutive mesh points per block of the sup norms' finest bound level,
# and the ratio of block sizes between levels
_SUP_BLOCK = 16
# fewest blocks the coarsest level of the bound pass may have
_SUP_COARSE_BLOCKS = 64
# most top-tier mesh peaks the sup norms polish
_SUP_PEAKS = 16


def _golden_depth(brackets: int, n: int) -> int:
    """Golden steps one f call serves for `brackets` brackets of a degree-n
    polynomial: the largest depth d >= 1 whose probe trees, brackets *
    (2^d - 1) points, hold at most _SPEC_POINTS points and _SPEC_PAIRS
    (point, root) pairs."""
    depth = 1
    while True:
        points = max(brackets, 1) * (2 ** (depth + 1) - 1)
        if points > _SPEC_POINTS or points * n > _SPEC_PAIRS:
            return depth
        depth += 1


def _golden_step(a, b, c, d, left) -> tuple:
    """The state (a, b, c, d, x) after one golden step from the bracket
    [a, b] with probes c < d: left keeps [a, d], else [c, b], and x is the
    new probe, the recurrence's arithmetic exactly."""
    if left:
        x = d - _INV_GOLD * (d - a)
        return a, d, x, c, x
    x = c + _INV_GOLD * (b - c)
    return c, b, d, x, x


def _golden_tree(a, b, c, d, left, depth) -> list:
    """The states after every golden step the next `depth` steps could
    take from the bracket [a, b] with probes c < d, the first step going
    left when `left`.  Heap order: node t's left child is 2t + 1, its right
    child 2t + 2, so 2^depth - 1 nodes."""
    tree = [_golden_step(a, b, c, d, left)]
    for t in range(2 ** (depth - 1) - 1):
        tree.append(_golden_step(*tree[t][:4], True))
        tree.append(_golden_step(*tree[t][:4], False))
    return tree


def _golden_max(f, lo, hi, n):
    """Golden-section search for the max of f, a row of a degree-n
    polynomial, on every bracket [lo_i, hi_i] at once, each bracket running
    the scalar recurrence in Python floats.  A numpy elementwise recurrence
    gives the same values bit for bit, but its per-step overhead on the 16
    brackets or fewer that callers pass made a call about 1 to 2.5 ms
    slower (one core of a Xeon).

    The probes a bracket visits depend on f only through the outcomes of
    its comparisons, so one f call serves _golden_depth(brackets, n) steps:
    it evaluates every probe those steps could need, the tree of
    _golden_tree, and the steps then walk the tree by their comparisons.
    f is asked only for points the one-step search could visit, and a
    point's value does not depend on its batch, so every depth gives the
    one-step result bit for bit, in fewer calls; the two first probes of
    every bracket take one call too.  The trees are built in Python floats:
    numpy arrays were slower (README, "Sup norms").

    Once the brackets shrink to a few ulps their points repeat.  A step's
    outcome depends only on the batch state (a, b, c, d, fc, fd), so once
    that state equals its value two steps back it cycles with period 2
    (or 1), and the search stops there: the state after _GOLDEN_STEPS steps
    is the current one or the one before, by parity, and the result is the
    full run's bit for bit.  The sup polish of z^64 on the unit disk (16
    brackets) stops after 67 steps.  Returns the arrays (argmax, max)."""
    a = np.asarray(lo, dtype=float).tolist()
    b = np.asarray(hi, dtype=float).tolist()
    k = len(a)
    c = [b[i] - _INV_GOLD * (b[i] - a[i]) for i in range(k)]
    d = [a[i] + _INV_GOLD * (b[i] - a[i]) for i in range(k)]
    # both first probes of every bracket in one call, bracket by bracket
    fcd = f(np.array([x for i in range(k) for x in (c[i], d[i])])).tolist()
    fc, fd = fcd[0::2], fcd[1::2]
    depth = _golden_depth(k, n)
    back2, back1 = None, a + b + c + d + fc + fd
    level = span = 0
    for step in range(1, _GOLDEN_STEPS + 1):
        if level == span:
            # speculate: one f call on every probe of the next span steps
            span = min(depth, _GOLDEN_STEPS + 1 - step)
            trees = [_golden_tree(a[i], b[i], c[i], d[i], fc[i] >= fd[i],
                                  span) for i in range(k)]
            fx = f(np.array([node[4] for tree in trees for node in tree]
                            )).tolist()
            width, level, t = 2 ** span - 1, 0, [0] * k
        for i in range(k):
            left = fc[i] >= fd[i]
            if level:
                t[i] = 2 * t[i] + (1 if left else 2)
            a[i], b[i], c[i], d[i], _ = trees[i][t[i]]
            if left:
                fc[i], fd[i] = fx[i * width + t[i]], fc[i]
            else:
                fc[i], fd[i] = fd[i], fx[i * width + t[i]]
        level += 1
        state = a + b + c + d + fc + fd
        if state == back2:
            if (_GOLDEN_STEPS - step) % 2:
                c, d = back1[2 * k:3 * k], back1[3 * k:4 * k]
                fc, fd = back1[4 * k:5 * k], back1[5 * k:]
            break
        back2, back1 = back1, state
    top = [fc[i] >= fd[i] for i in range(k)]
    return (np.array([c[i] if top[i] else d[i] for i in range(k)]),
            np.array([fc[i] if top[i] else fd[i] for i in range(k)]))


def _polish(f, lo, hi, x, v, n) -> tuple:
    """(x, v), or the best golden-section maximum of f, a row of a
    degree-n polynomial, on the brackets [lo_i, hi_i] when that is strictly
    larger, the first such bracket winning ties."""
    x_ref, v_ref = _golden_max(f, lo, hi, n)
    better = np.where(v_ref > v, v_ref, -math.inf)
    j = int(np.argmax(better))
    if better[j] > v:
        return float(x_ref[j]), float(v_ref[j])
    return float(x), float(v)


def _grid_max(f, xs, vals, n) -> tuple:
    """(x, value) of the max of the vectorized f, a row of a degree-n
    polynomial, on [xs[0], xs[-1]], from its values vals on the grid xs and
    a golden-section polish of the grid argmax between its grid neighbours
    (clipped at the ends), so x never leaves the grid's range."""
    i = int(np.argmax(vals))
    return _polish(f, xs[[max(i - 1, 0)]], xs[[min(i + 1, xs.size - 1)]],
                   xs[i], vals[i], n)


def _sup_mesh(p: RootPolynomial, K: ConvexDomain) -> np.ndarray:
    """Arclength positions of the dense boundary mesh for degree p.n."""
    per_edge = max(512, 8 * max(p.n, 1))
    if K.kind == "polygon":
        count = per_edge * len(K.vertices)
    else:
        count = max(4096, 8 * max(p.n, 1))
    return np.linspace(0.0, K.perimeter, count, endpoint=False)


def _mesh_sup(K: ConvexDomain, ss: np.ndarray, vals: np.ndarray,
              flog, n: int) -> SupNorm:
    """The SupNorm of e^{flog}, a row of a degree-n polynomial, from its
    values vals on the cyclic mesh ss:
    up to _SUP_PEAKS local peaks of the mesh within the top tier
    max(2, 1e-6 |v|) of its max v, best first, each polished within one
    mesh step on either side."""
    L = K.perimeter
    i = int(np.argmax(vals))
    is_peak = (vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1))
    cutoff = vals[i] - max(2.0, 1e-6 * abs(vals[i]))
    cand = np.nonzero(is_peak & (vals >= cutoff))[0]
    cand = cand[np.argsort(vals[cand])[::-1][:_SUP_PEAKS]]
    step = L / ss.size
    s, log_value = _polish(lambda s: flog(K.gamma(s % L)), ss[cand] - step,
                           ss[cand] + step, ss[i], vals[i], n)
    s %= L
    return SupNorm(log_value, s, complex(K.gamma(s)))


def _mesh_blocks(zs: np.ndarray, starts: np.ndarray, size: int) -> tuple:
    """(centre, radius) of the blocks of `size` consecutive mesh points zs
    from each index in starts (a block stops at the end of the mesh): a
    centre c among the block's points and h = max |z - c| over them."""
    last = np.minimum(starts + size, zs.size) - 1
    centre = zs[np.minimum(starts + size // 2, last)]
    points = np.minimum(starts[:, None] + np.arange(size), last[:, None])
    return centre, np.abs(zs[points] - centre[:, None]).max(axis=1)


def _pruned_mesh_values(p: RootPolynomial, K: ConvexDomain, ss: np.ndarray,
                        derivative: bool) -> np.ndarray:
    """Rows of log|p| (and, when derivative is set, log|p'|) on the mesh
    ss: the kernel's values on every block of the mesh that may hold a
    top-tier peak, -inf on the others.

    Coarse to fine: the first level cuts the mesh into aligned blocks of
    _SUP_BLOCK^k points, the largest such size that leaves at least
    _SUP_COARSE_BLOCKS blocks (k = 1, a single level, on a smaller mesh).
    At each level one kernel pass over the block centres raises lb, the
    best centre value of a row seen so far, and a block is dropped when
    its _disc_log_bounds bound falls below
    lb - max(2, 1e-6 max(|lb|, |max bound|)), less a rounding margin, in
    every row; the others are cut into _SUP_BLOCK blocks for the next
    level, down to blocks of _SUP_BLOCK points, whose points the kernel
    then evaluates.  A block lies in its disc, also where it straddles a
    vertex.  The mesh max v of a row lies in a block kept at every level,
    so v lies between lb and the max bound of each level, and the
    threshold is at most _mesh_sup's top-tier cutoff
    v - max(2, 1e-6 |v|).  A skipped point is therefore never the argmax
    nor a candidate, and a kept point at or above the cutoff is a local
    peak against -inf exactly when it is one against its true neighbour.
    The kernel does not depend on the batch, so _mesh_sup gives the same
    SupNorm as on the full mesh, bit for bit."""
    zs = K.gamma(ss)
    kernel = _log_rows(p, derivative)
    size = _SUP_BLOCK
    while zs.size >= _SUP_COARSE_BLOCKS * size * _SUP_BLOCK:
        size *= _SUP_BLOCK
    starts = np.arange(0, zs.size, size)
    lb = np.full(2 if derivative else 1, -math.inf)
    while True:
        centre, radius = _mesh_blocks(zs, starts, size)
        keep = np.zeros(starts.size, dtype=bool)
        for i, (exact, bound) in enumerate(zip(
                kernel(centre),
                _disc_log_bounds(p, centre, radius, derivative))):
            lb[i] = max(lb[i], exact.max())
            slack = max(2.0, 1e-6 * max(abs(lb[i]), abs(bound.max())))
            keep |= ~(bound < lb[i] - slack - 1e-9 * (1.0 + np.abs(bound)))
        starts = starts[keep]
        if size == _SUP_BLOCK:
            break
        size //= _SUP_BLOCK
        starts = (starts[:, None] + size * np.arange(_SUP_BLOCK)).ravel()
        starts = starts[starts < zs.size]
    points = (starts[:, None] + np.arange(_SUP_BLOCK)).ravel()
    points = points[points < zs.size]
    vals = np.full((lb.size, ss.size), -math.inf)
    vals[:, points] = kernel(zs[points])
    return vals


def sup_norm(p: RootPolynomial, K: ConvexDomain) -> SupNorm:
    """Max of |p| over the boundary: the dense mesh, evaluated only on the
    blocks whose bound may reach the top tier, then golden-section polish
    around every local peak in the top tier."""
    ss = _sup_mesh(p, K)
    (vals,) = _pruned_mesh_values(p, K, ss, False)
    return _mesh_sup(K, ss, vals, lambda z: log_abs(p, z), p.n)


def sup_norms(p: RootPolynomial, K: ConvexDomain) -> tuple:
    """(sup |p|, sup |p'|) over the boundary from one pruned mesh pass of
    the kernel, each then polished on its own; sup |p| equals
    sup_norm(p, K) bit for bit."""
    ss = _sup_mesh(p, K)
    vals_p, vals_dp = _pruned_mesh_values(p, K, ss, True)
    return (_mesh_sup(K, ss, vals_p, lambda z: log_abs(p, z), p.n),
            _mesh_sup(K, ss, vals_dp, lambda z: logabs_derivative(p, z),
                      p.n))


# ------------------------------------------------------------- Lq norms

@dataclass(frozen=True)
class LqNorm:
    q: float
    log_value: float
    panels: int

    @property
    def value(self) -> float:
        return _exp_or_inf(self.log_value)


def lq_norm(p: RootPolynomial, K: ConvexDomain, q: float) -> LqNorm:
    """(integral over the boundary of |p|^q ds)^(1/q); q = inf routes to
    the sup norm."""
    if q == math.inf:
        return LqNorm(math.inf, sup_norm(p, K).log_value, 0)
    (log_masses,), panels = _adaptive_log_integral(
        p, K, q, _boundary_pieces(K), False)
    return LqNorm(q, _log_sum(log_masses) / q, panels)


def _log_norms(p: RootPolynomial, K: ConvexDomain, q: float) -> tuple:
    """(log |p|_q, log |p'|_q, panels) on the boundary: at q = inf from one
    sup mesh pass, with no panel, otherwise from one two-row quadrature on
    one panel tree."""
    if q == math.inf:
        sup_p, sup_dp = sup_norms(p, K)
        return sup_p.log_value, sup_dp.log_value, 0
    masses, panels = _adaptive_log_integral(p, K, q, _boundary_pieces(K),
                                            True)
    return _log_sum(masses[0]) / q, _log_sum(masses[1]) / q, panels


@dataclass(frozen=True)
class MarkovFactor:
    """M_q(p) = |p'|_q / |p|_q on the boundary, computed on the monic
    normalization so the answer is exactly scale invariant.  panels is the
    quadrature's panel count, 0 at q = inf; as_record leaves it out."""

    q: float
    log_norm_p: float
    log_norm_dp: float
    panels: int

    @property
    def M(self) -> float:
        return math.exp(self.log_norm_dp - self.log_norm_p)

    @property
    def norm_p(self) -> float:
        return _exp_or_inf(self.log_norm_p)

    @property
    def norm_dp(self) -> float:
        return _exp_or_inf(self.log_norm_dp)

    def as_record(self) -> dict:
        return {"q": self.q, "norm_p": self.norm_p,
                "norm_dp": self.norm_dp, "M": self.M}


def inverse_markov_factor(p: RootPolynomial, K: ConvexDomain, q: float
                          ) -> MarkovFactor:
    """The oscillation factor of p on the boundary of K."""
    if p.lead == 0:
        raise ZeroNorm("polynomial is identically zero")
    return MarkovFactor(q, *_log_norms(p.monic(), K, q))
