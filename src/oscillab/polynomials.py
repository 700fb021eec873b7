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
pair: sup norms from one dense mesh pass, L^q norms from one panel tree.
Every grid maximizer, here and in the audits and the covering, polishes its
grid peaks with one batched golden-section search (`_grid_max`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

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

    def scale(self) -> float:
        if not self.roots:
            return 1.0
        return max(1.0, float(np.max(np.abs(self._root_array))))

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
                nearest[sl] = ad.min(axis=1)
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
    close = nearest < thresh
    with np.errstate(divide="ignore", invalid="ignore"):
        out = la + np.log(np.abs(recip))
    # On or next to a root the log route cancels badly; switch to the
    # cofactor form.  The roots within thresh of the nearest one, c, count
    # as one root of multiplicity m, so with Q = prod over the others
    #   p'(z) = lead (z - c)^(m-1) Q(z) [m + (z - c) Q'(z)/Q(z)].
    for i in np.nonzero(close)[0]:
        z = flat[i]
        c = roots[int(np.argmin(np.abs(z - roots)))]
        cluster = np.abs(roots - c) < thresh
        m = int(cluster.sum())
        diff = z - roots[~cluster]
        corr = abs(m + (z - c) * (1.0 / diff).sum())
        if corr == 0 or (m > 1 and z == c):
            out[i] = -math.inf
            continue
        out[i] = (math.log(abs(p.lead)) + float(np.log(np.abs(diff)).sum())
                  + math.log(corr))
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


# ------------------------------------------------------------- quadrature

# split-and-compare accepts a panel when halving it moves its value by under
# _QUAD_TOL (relative), and at depth _MAX_DEPTH with no check
_QUAD_TOL = 1e-8
_MAX_DEPTH = 26
# live panels one level may split: their 2^21 half-panel nodes take about
# 150 MB of temporaries.  Only a huge q (about 3e5 for three roots in the
# unit square) makes e^{q flog} a spike this hard to resolve.
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


def _log_sum(values) -> float:
    """log sum exp(values); -inf for no values."""
    values = np.asarray(values, dtype=float)
    top = values.max(initial=-math.inf)
    if top == -math.inf:
        return -math.inf
    return float(top + np.log(np.sum(np.exp(values - top))))


def _panel_log_integrals(K, flog, q, a, b):
    """log of the integral of e^{q f} over each panel [a_i, b_i] by the
    16-node Gauss-Legendre rule, for every row f that flog returns, as an
    array (rows, panels), from one boundary call and one flog call.
    Raises QuadratureLimit when a value of q f is +inf or nan."""
    half = 0.5 * (b - a)
    s = (0.5 * (a + b))[:, None] + half[:, None] * _XG
    with np.errstate(over="ignore"):
        li = q * np.reshape(flog(K.gamma(s.ravel())), (-1,) + s.shape)
    if not (li < math.inf).all():
        raise QuadratureLimit(f"q = {q:g}: q log|f| overflows to inf or nan")
    m = li.max(axis=2)
    shift = np.where(m > -math.inf, m, 0.0)
    with np.errstate(divide="ignore"):
        return m + np.log(np.sum(_WG * half[:, None]
                                 * np.exp(li - shift[..., None]), axis=2))


def _adaptive_log_integral(K, flog, q, pieces):
    """(log of the integral of e^{q f} over each piece for every row f that
    flog returns, as an array (rows, pieces); panel count).

    Split-and-compare on one panel tree, level by level: every live panel
    is halved, both halves of all of them come from one boundary call and
    one flog call, and a panel is accepted once every row has settled: the
    halves' sum moves its value by under _QUAD_TOL, or the row is -inf on
    the panel and both halves.  At depth _MAX_DEPTH it is accepted without
    that check.  Raises ValueError unless 1 <= q < inf, and QuadratureLimit
    when a level has over _MAX_LIVE_PANELS panels to split."""
    if not 1 <= q < math.inf:
        raise ValueError(f"q = {q}: the quadrature needs a finite q >= 1")
    a = np.array([lo for lo, _ in pieces], dtype=float)
    b = np.array([hi for _, hi in pieces], dtype=float)
    owner = np.arange(len(pieces))
    coarse = _panel_log_integrals(K, flog, q, a, b)
    panels = len(pieces)
    kept_owner, kept_value = [], []
    depth = 0
    while a.size:
        if a.size > _MAX_LIVE_PANELS:
            raise QuadratureLimit(
                f"q = {q:g}: {a.size} panels to split at depth {depth}, "
                f"over the limit of {_MAX_LIVE_PANELS}")
        mid = 0.5 * (a + b)
        halves = _panel_log_integrals(K, flog, q, np.concatenate([a, mid]),
                                      np.concatenate([mid, b]))
        left, right = halves[:, :a.size], halves[:, a.size:]
        fine = np.logaddexp(left, right)
        live = (fine > -math.inf) | (coarse > -math.inf)
        with np.errstate(over="ignore", invalid="ignore"):
            close = ((fine > -math.inf) & (coarse > -math.inf)
                     & (np.abs(np.expm1(coarse - fine)) <= _QUAD_TOL))
        accept = (~live | close).all(axis=0) | (depth >= _MAX_DEPTH)
        keep = accept & live.any(axis=0)
        kept_owner.append(owner[keep])
        kept_value.append(fine[:, keep])
        split = ~accept
        panels += 2 * int(split.sum())
        a, mid, b = a[split], mid[split], b[split]
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
        owner = np.tile(owner[split], 2)
        coarse = np.concatenate([left[:, split], right[:, split]], axis=1)
        depth += 1
    owner = np.concatenate(kept_owner)
    value = np.concatenate(kept_value, axis=1)
    return np.array([[_log_sum(v[owner == i]) for i in range(len(pieces))]
                     for v in value]), panels


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


def _golden_max(f, lo, hi):
    """Golden-section search for the max of f on every bracket [lo_i, hi_i]
    at once.  Each step makes one f call on the array of the brackets' new
    points, and each bracket runs the scalar recurrence in Python floats,
    so its result does not depend on the others.  Returns the arrays
    (argmax, max)."""
    a = np.asarray(lo, dtype=float).tolist()
    b = np.asarray(hi, dtype=float).tolist()
    k = len(a)
    c = [b[i] - _INV_GOLD * (b[i] - a[i]) for i in range(k)]
    d = [a[i] + _INV_GOLD * (b[i] - a[i]) for i in range(k)]
    fc, fd = f(np.array(c)).tolist(), f(np.array(d)).tolist()
    for _ in range(_GOLDEN_STEPS):
        left = [fc[i] >= fd[i] for i in range(k)]
        x = []
        for i in range(k):
            if left[i]:
                b[i], d[i], fd[i] = d[i], c[i], fc[i]
                x.append(b[i] - _INV_GOLD * (b[i] - a[i]))
            else:
                a[i], c[i], fc[i] = c[i], d[i], fd[i]
                x.append(a[i] + _INV_GOLD * (b[i] - a[i]))
        for i, fx in enumerate(f(np.array(x)).tolist()):
            if left[i]:
                c[i], fc[i] = x[i], fx
            else:
                d[i], fd[i] = x[i], fx
    top = [fc[i] >= fd[i] for i in range(k)]
    return (np.array([c[i] if top[i] else d[i] for i in range(k)]),
            np.array([fc[i] if top[i] else fd[i] for i in range(k)]))


def _grid_max(f, xs, vals, step=None, top=1) -> tuple:
    """(x, value) of the max of the vectorized f, from its values vals on
    the grid xs and one batched golden-section polish around the grid's
    peaks.  With top = 1 the one peak is the grid argmax; a larger top
    takes up to that many local maxima of the cyclic grid within
    max(2, 1e-6 |max|) of the max, best first.  A peak is bracketed by its
    position +- step, or with no step by its grid neighbours (clipped at
    the ends).  A polished value replaces the grid max only when strictly
    larger, the first such peak winning ties."""
    i = int(np.argmax(vals))
    best_x, best_v = float(xs[i]), float(vals[i])
    if top == 1:
        cand = np.array([i])
    else:
        is_peak = (vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1))
        cutoff = best_v - max(2.0, 1e-6 * abs(best_v))
        cand = np.nonzero(is_peak & (vals >= cutoff))[0]
        cand = cand[np.argsort(vals[cand])[::-1][:top]]
    if step is None:
        lo = xs[np.maximum(cand - 1, 0)]
        hi = xs[np.minimum(cand + 1, xs.size - 1)]
    else:
        lo, hi = xs[cand] - step, xs[cand] + step
    x_ref, v_ref = _golden_max(f, lo, hi)
    better = v_ref > best_v
    if better.any():
        j = int(np.argmax(np.where(better, v_ref, -math.inf)))
        return float(x_ref[j]), float(v_ref[j])
    return best_x, best_v


def _sup_mesh(p: RootPolynomial, K: ConvexDomain) -> np.ndarray:
    """Arclength positions of the dense boundary mesh for degree p.n."""
    per_edge = max(512, 8 * max(p.n, 1))
    if K.kind == "polygon":
        count = per_edge * len(K.vertices)
    else:
        count = max(4096, 8 * max(p.n, 1))
    return np.linspace(0.0, K.perimeter, count, endpoint=False)


def _mesh_sup(K: ConvexDomain, ss: np.ndarray, vals: np.ndarray,
              flog) -> SupNorm:
    """The SupNorm of e^{flog} from its values vals on the mesh ss, with
    up to 16 top-tier peaks polished within one mesh step."""
    L = K.perimeter
    s, log_value = _grid_max(lambda s: flog(K.gamma(s % L)), ss, vals,
                             L / ss.size, top=16)
    s %= L
    return SupNorm(log_value, s, complex(K.gamma(s)))


def sup_norm(p: RootPolynomial, K: ConvexDomain, flog=None) -> SupNorm:
    """Max of |p| (or of e^{flog} when flog is given) over the boundary:
    dense mesh, then golden-section polish around every local peak in
    the top tier."""
    if flog is None:
        flog = lambda z: log_abs(p, z)
    ss = _sup_mesh(p, K)
    return _mesh_sup(K, ss, flog(K.gamma(ss)), flog)


def sup_norms(p: RootPolynomial, K: ConvexDomain) -> tuple:
    """(sup |p|, sup |p'|) over the boundary from one mesh pass of the
    kernel, each then polished on its own; equal to sup_norm(p, K) and
    sup_norm(p, K, flog=logabs_derivative) bit for bit."""
    ss = _sup_mesh(p, K)
    vals_p, vals_dp = logabs_derivative(p, K.gamma(ss), with_log_abs=True)
    return (_mesh_sup(K, ss, vals_p, lambda z: log_abs(p, z)),
            _mesh_sup(K, ss, vals_dp, lambda z: logabs_derivative(p, z)))


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
        K, lambda z: log_abs(p, z), q, _boundary_pieces(K))
    return LqNorm(q, _log_sum(log_masses) / q, panels)


def _log_norms(p: RootPolynomial, K: ConvexDomain, q: float) -> tuple:
    """(log |p|_q, log |p'|_q) on the boundary: at q = inf from one sup
    mesh pass, otherwise from one two-row quadrature on one panel tree."""
    if q == math.inf:
        sup_p, sup_dp = sup_norms(p, K)
        return sup_p.log_value, sup_dp.log_value
    masses, _ = _adaptive_log_integral(
        K, lambda z: logabs_derivative(p, z, with_log_abs=True), q,
        _boundary_pieces(K))
    return _log_sum(masses[0]) / q, _log_sum(masses[1]) / q


@dataclass(frozen=True)
class MarkovFactor:
    """M_q(p) = |p'|_q / |p|_q on the boundary, computed on the monic
    normalization so the answer is exactly scale invariant."""

    q: float
    log_norm_p: float
    log_norm_dp: float

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
