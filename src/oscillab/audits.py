"""Inequality audits: each one computes both sides of a quantitative claim
about polynomials on a convex domain and reports the signed margin.

Margins are oriented so that pass means margin = lhs - rhs >= -tol with
tol = 1e-9 * (|lhs| + |rhs|).  Audits whose quantities can overflow work
on log scale; each report says so in its detail map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotInH, SingularPoint, ZeroChord
from .geometry import BoundaryPoint, ConvexDomain, chord, margin_tol
from .polynomials import (
    RootPolynomial,
    _adaptive_log_integral,
    _boundary_pieces,
    _grid_max,
    _log_norms,
    _log_sum,
    log_abs,
    log_derivative,
    lq_norm,
    sup_norm,
)
from .sampling import (
    random_convex_polygon,
    random_domain,
    random_roots_in,
    random_roots_loose,
    trial_rng,
)


@dataclass(frozen=True)
class AuditReport:
    audit_id: str
    lhs: float
    rhs: float
    applicable: bool = True
    detail: dict = field(default_factory=dict)

    @property
    def margin(self) -> float:
        return self.lhs - self.rhs

    @property
    def tol(self) -> float:
        return margin_tol(self.lhs, self.rhs)

    @property
    def passed(self) -> bool:
        if not self.applicable:
            return True
        if self.lhs == math.inf or self.rhs == -math.inf:
            return True
        return self.margin >= -self.tol

    def as_record(self) -> dict:
        return {
            "audit_id": self.audit_id,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "tol": self.tol,
            "applicable": self.applicable,
            "passed": self.passed,
            "detail": self.detail,
        }


# ---------------------------------------------------------------- H set

# boundary samples that locate the threshold set's crossings before
# bisection
_H_MESH = 4096

def _log_q_root(log_a: float, q: float) -> float:
    """log (a / (q + 1))^(1/q) from log a, finite at every q; 0 at inf."""
    return 0.0 if q == math.inf else (log_a - math.log1p(q)) / q


def log_h_constant(q: float) -> float:
    """log of the threshold multiplier c = (1/2) (8 pi (q+1))^(-1/q)."""
    return math.log(0.5) + _log_q_root(-math.log(8 * math.pi), q)


def log_h_threshold(p: RootPolynomial, K: ConvexDomain, q: float,
                    log_sup: float) -> float:
    return log_h_constant(q) - (2.0 / q) * math.log(max(p.n, 1)) + log_sup


@dataclass(frozen=True)
class HSet:
    """The boundary set where |p| clears the threshold, as arclength
    intervals, plus both mass integrals (in log scale)."""

    intervals: tuple
    log_threshold: float
    log_mass_on_h: float
    log_mass_total: float
    q: float

    @property
    def measure(self) -> float:
        return sum(b - a for a, b in self.intervals)

    def contains_s(self, s: float) -> bool:
        return any(a <= s <= b for a, b in self.intervals)

    def mass_report(self) -> AuditReport:
        rhs = math.log(0.5) + self.log_mass_total
        return AuditReport("hset", self.log_mass_on_h, rhs,
                           detail={"scale": "log",
                                   "measure": self.measure,
                                   "intervals": len(self.intervals)})


def _h_intervals(p: RootPolynomial, K: ConvexDomain, q: float) -> tuple:
    """(arclength intervals of {|p| > c n^(-2/q) |p|_inf}, log threshold).
    All mesh crossings are bisected together, each for up to 60 steps or
    until its bracket is under 1e-12 of the perimeter; intervals lie in
    [0, L], an arc through s = 0 split in two."""
    log_sup = sup_norm(p, K).log_value
    log_thr = log_h_threshold(p, K, q, log_sup=log_sup)
    L = K.perimeter
    ss = np.linspace(0.0, L, _H_MESH, endpoint=False)
    above = log_abs(p, K.gamma(ss)) > log_thr

    intervals = []
    if above.all():
        intervals = [(0.0, L)]
    elif above.any():
        # each crossing lies between an inside and an outside sample
        idx = np.nonzero(above != np.roll(above, -1))[0]
        a, b = ss[idx], np.append(ss, L)[idx + 1]
        closes = above[idx]
        s_in, s_out = np.where(closes, a, b), np.where(closes, b, a)
        live = np.ones(idx.size, dtype=bool)
        for _ in range(60):
            if not live.any():
                break
            mid = 0.5 * (s_in[live] + s_out[live])
            up = log_abs(p, K.gamma(mid)) > log_thr
            s_in[live] = np.where(up, mid, s_in[live])
            s_out[live] = np.where(up, s_out[live], mid)
            live &= np.abs(s_in - s_out) >= 1e-12 * L
        edges = sorted(zip((0.5 * (s_in + s_out)).tolist(),
                           np.where(closes, "close", "open").tolist()))
        # the set is a union of arcs; boundaries alternate around the loop
        if edges[0][1] == "close":
            edges.append((edges.pop(0)[0] + L, "close"))
        for (sa, _), (sb, _) in zip(edges[0::2], edges[1::2]):
            if sb > L:
                intervals.append((sa, L))
                intervals.append((0.0, sb - L))
            else:
                intervals.append((sa, sb))
        intervals.sort()
    return tuple(intervals), log_thr


def _in_intervals(s: np.ndarray, intervals) -> np.ndarray:
    """Mask of the arclengths s that lie in one of the closed intervals."""
    inside = np.zeros(s.shape, dtype=bool)
    for a, b in intervals:
        inside |= (a <= s) & (s <= b)
    return inside


def h_set(p: RootPolynomial, K: ConvexDomain, q: float) -> HSet:
    """Resolve the set {|p| > c n^(-2/q) |p|_inf} on the boundary and both
    masses, from one integration of |p|^q over boundary pieces cut at the
    set's endpoints; q must be finite."""
    intervals, log_thr = _h_intervals(p, K, q)
    pieces = _boundary_pieces(K, [s for iv in intervals for s in iv])
    (masses,), _ = _adaptive_log_integral(p, K, q, pieces, False)
    on_h = _in_intervals(np.array([0.5 * (a + b) for a, b in pieces]),
                         intervals)
    log_on_h = _log_sum(masses[on_h])
    log_total = float(np.logaddexp(log_on_h, _log_sum(masses[~on_h])))
    return HSet(intervals, log_thr, log_on_h, log_total, q)


def point_in_h(p: RootPolynomial, K: ConvexDomain, q: float, z: complex,
               log_sup: float) -> bool:
    thr = log_h_threshold(p, K, q, log_sup=log_sup)
    return bool(log_abs(p, z) > thr)


# ---------------------------------------------------------- simple floors

def nikolskii_audit(p: RootPolynomial, K: ConvexDomain, q: float
                    ) -> AuditReport:
    """|p|_q >= (d/(2(q+1)))^(1/q) |p|_inf n^(-2/q) for any polynomial of
    degree at most n, checked at n = max(deg p, 1), where the floor is
    highest."""
    n = max(p.n, 1)
    log_lhs = lq_norm(p, K, q).log_value
    log_sup = sup_norm(p, K).log_value
    log_rhs = (_log_q_root(math.log(K.diameter / 2), q)
               + log_sup - (2.0 / q) * math.log(n))
    return AuditReport("nikolskii", log_lhs, log_rhs,
                       detail={"scale": "log", "q": q, "n": n})


def h_point_log_gap(p: RootPolynomial, K: ConvexDomain, zeta: complex,
                    q: float) -> AuditReport:
    """For a point inside the threshold set, the log gap to the sup norm
    stays below log(16 pi) + 2 log n, and below (107/40) log n once
    n >= 73."""
    n = max(p.n, 1)
    log_sup = sup_norm(p, K).log_value
    if not point_in_h(p, K, q, zeta, log_sup=log_sup):
        raise NotInH("point is below the threshold set")
    gap = log_sup - float(log_abs(p, zeta))
    bound_all = math.log(16 * math.pi) + 2 * math.log(n)
    detail = {"scale": "log-gap", "q": q, "n": n, "gap": gap,
              "margin_all_n": bound_all - gap}
    rhs = bound_all
    if n >= 73:
        bound_sharp = (107.0 / 40.0) * math.log(n)
        detail["margin_sharp"] = bound_sharp - gap
        rhs = min(rhs, bound_sharp)
    # orientation: the gap must stay below the bound
    return AuditReport("hgap", rhs, gap, detail=detail)


# ---------------------------------------------------- Chebyshev floors

# grid points on the segment, before the golden polish
_SEGMENT_GRID = 2049

def chebyshev_floor(J_length: float, k: int) -> float:
    """Best possible sup of a monic degree-k polynomial on a segment of
    that length."""
    if J_length <= 0 or k < 1:
        raise ValueError("need a positive segment and k >= 1")
    return 2.0 * (J_length / 4.0) ** k


def _segment_sup_product(ws: np.ndarray, half: float) -> float:
    """Sup of |prod (x - w_j)| over x in [-half, half], grid plus golden
    polish around the best grid point."""
    xs = np.linspace(-half, half, _SEGMENT_GRID)
    f = lambda x: np.abs(x[:, None] - ws[None, :]).prod(axis=1)
    return _grid_max(f, xs, f(xs), ws.size)[1]


def chebyshev_floor_check(J_length: float, k: int, trials: int = 20,
                          rng=None) -> AuditReport:
    """The cosine-node polynomial attains the floor, and none of `trials`
    monic candidates drawn in a tight cloud around its nodes,
    nodes + 2e-3 half (N(0,1) + i N(0,1)), reads below it.  The nodes are
    optimal, so a candidate can beat them only through a maximizer that
    under-reads near the optimum, the one place where that matters; c05
    scans candidates from afar.  ValueError when trials is not an int >= 0
    (a bool included)."""
    if type(trials) is not int or trials < 0:
        raise ValueError(f"trials must be an integer >= 0, got {trials!r}")
    rng = np.random.default_rng(0) if rng is None else rng
    floor = chebyshev_floor(J_length, k)
    half = J_length / 2.0
    nodes = half * np.cos((2 * np.arange(1, k + 1) - 1) * math.pi / (2 * k))
    attained = _segment_sup_product(nodes.astype(complex), half)
    best = attained
    for _ in range(trials):
        ws = nodes + (2e-3 * half) * (rng.normal(0.0, 1.0, k)
                                      + 1j * rng.normal(0.0, 1.0, k))
        best = min(best, _segment_sup_product(ws, half))
    detail = {"floor": floor, "attained": attained, "search_min": best,
              "attained_rel_err": abs(attained - floor) / floor}
    return AuditReport("chebyshev", best, floor * (1 - 1e-6),
                       detail=detail)


def transfinite_floor_audit(p: RootPolynomial, K: ConvexDomain
                            ) -> AuditReport:
    """Monic polynomials have sup norm at least cap(K)^n on K
    (Fekete-Szego); the floor is lo^n, lo the lower end of the bracket of
    K.capacity()."""
    if p.lead != 1:
        raise ValueError("audit requires a monic polynomial")
    log_lhs = sup_norm(p, K).log_value
    log_rhs = p.n * math.log(K.capacity()[1])
    return AuditReport("transfinite", log_lhs, log_rhs,
                       detail={"scale": "log", "n": p.n})


def zero_concentration_audit(p: RootPolynomial, K: ConvexDomain,
                             K_prime: ConvexDomain, k_ratio: float
                             ) -> AuditReport:
    """If a fraction >= 3 log2 / log(k_ratio) of the roots sit in a piece
    K' with diameter <= d/k_ratio, then |p| on K' is 2^(-n) small next
    to |p| on K."""
    d = K.diameter
    roots = np.asarray(p.roots) if p.roots else np.asarray([], dtype=complex)
    m = int(np.count_nonzero(K_prime.contains(roots))) if p.roots else 0
    need = (3 * math.log(2) / math.log(k_ratio) * p.n) if k_ratio > 1 \
        else math.inf
    reasons = []
    if k_ratio <= 10:
        reasons.append("k_ratio too small")
    if K_prime.diameter > d / k_ratio * (1 + 1e-12):
        reasons.append("inner piece too large")
    if m < need - 1e-12:
        reasons.append("too few roots inside")
    verts = K_prime.as_clip_polygon(256) if K_prime.kind == "disk" \
        else np.asarray(K_prime.vertices)
    if not K.contains(verts).all():
        reasons.append("inner piece not inside the domain")
    detail = {"scale": "log", "m": m, "need": need, "k_ratio": k_ratio,
              "n": p.n}
    if reasons:
        detail["reason"] = "; ".join(reasons)
        return AuditReport("concentration", 0.0, 0.0, applicable=False,
                           detail=detail)
    mono = p.monic()
    log_inner = sup_norm(mono, K_prime).log_value
    log_outer = sup_norm(mono, K).log_value
    lhs = log_outer - p.n * math.log(2.0)
    return AuditReport("concentration", lhs, log_inner, detail=detail)


# ------------------------------------------------------ zero classification

def tilt_angle(K: ConvexDomain) -> float:
    """theta = arctan(w/d)/20, the tilt used by the pointwise estimates."""
    return math.atan(K.width / K.diameter) / 20.0


@dataclass(frozen=True)
class ZeroPartition:
    """Roots in the normalized frame (boundary point at 0, tangent along
    the positive axis, domain in the upper half plane, chosen tilted
    chord at angle pi/2 - 2 theta), split into five location classes."""

    classes: tuple          # five tuples of complex roots, normalized frame
    theta: float
    delta: float
    sign: str               # which tilt gave the chord: "minus" or "plus"
    zeta: complex
    alpha: float            # rotation angle of the original frame
    reflected: bool

    @property
    def mu(self) -> int:
        return len(self.classes[0])

    @property
    def nu(self) -> int:
        return len(self.classes[1])

    @property
    def kappa(self) -> int:
        return len(self.classes[2])

    @property
    def k(self) -> int:
        return len(self.classes[3])

    @property
    def m(self) -> int:
        return len(self.classes[4])

    @property
    def counts(self) -> tuple:
        return (self.mu, self.nu, self.kappa, self.k, self.m)

    @property
    def total(self) -> int:
        return sum(self.counts)

    def to_frame(self, z):
        w = (np.asarray(z, dtype=complex) - self.zeta) \
            * np.exp(-1j * self.alpha)
        return -np.conj(w) if self.reflected else w

    def from_frame(self, w):
        w = np.asarray(w, dtype=complex)
        if self.reflected:
            w = -np.conj(w)
        return self.zeta + w * np.exp(1j * self.alpha)


def classify_zeros(p: RootPolynomial, zeta: BoundaryPoint,
                   K: ConvexDomain) -> ZeroPartition:
    """Split the roots by location relative to the tilted chord at zeta.

    The chord sign follows the rule delta = min of the two tilted chords;
    the plus-sign configuration is mirrored so both cases read identically
    afterwards.  The tilt is under pi/2, so the chord always runs from the
    boundary point inward."""
    theta = tilt_angle(K)
    sigma = zeta.sigma
    d_minus = chord(K, zeta.z, sigma - 2 * theta).delta
    d_plus = chord(K, zeta.z, sigma + 2 * theta).delta
    if d_minus <= d_plus:
        sign, delta = "minus", d_minus
    else:
        sign, delta = "plus", d_plus
    if delta <= K.tol:
        raise ZeroChord("tilted chord degenerates at this boundary point")
    alpha = sigma - math.pi / 2
    part = ZeroPartition((), theta, delta, sign, zeta.z, alpha,
                         reflected=(sign == "plus"))
    w = part.to_frame(np.asarray(p.roots))
    if w.size and np.min(np.abs(w)) < 1e-12 * K.diameter:
        raise SingularPoint("a root coincides with the boundary point")
    phi = np.angle(w)
    # roots live in the closed upper half plane of the frame; fold tiny
    # negative angles near 0 and near pi back into [0, pi]
    phi = np.where(phi < -math.pi / 2, phi + 2 * math.pi, phi)
    phi = np.clip(phi, 0.0, math.pi)
    im_tilt = (w * np.exp(2j * theta)).imag
    r = np.abs(w)
    buckets = [[], [], [], [], []]
    for wi, ph, im, ri in zip(w, phi, im_tilt, r):
        if ph <= theta:
            buckets[0].append(complex(wi))
        elif ph >= math.pi - theta:
            buckets[4].append(complex(wi))
        elif im < 0.375 * delta:
            buckets[1].append(complex(wi))
        elif ri <= 1.25 * delta:
            buckets[2].append(complex(wi))
        else:
            buckets[3].append(complex(wi))
    return ZeroPartition(tuple(tuple(b) for b in buckets), theta, delta,
                         sign, zeta.z, alpha, reflected=(sign == "plus"))


# ------------------------------------------------------ tilted estimates

# grid points on a tilted chord, before the golden polish
_CHORD_GRID = 2048
# directions swept across the normal cone at a corner
_FAN = 8
# grid points on J, the outer quarter of the tilted chord, before the
# golden polish
_J_GRID = 4096


def _segment_log_max(p: RootPolynomial, z0: complex, z1: complex) -> float:
    """Max of log|p| on the segment [z0, z1] by grid plus golden polish."""
    if z0 == z1:
        return float(log_abs(p, np.asarray([z0]))[0])
    f = lambda t: log_abs(p, z0 + t * (z1 - z0))
    ts = np.linspace(0.0, 1.0, _CHORD_GRID)
    return _grid_max(f, ts, f(ts), p.n)[1]


def tilted_normal_audit(p: RootPolynomial, zeta: BoundaryPoint,
                        K: ConvexDomain, branch: str = "auto",
                        sigma: float = None, q: float = None,
                        log_sup: float = None) -> AuditReport:
    """Pointwise lower bound on |p'/p| at a boundary point, from tilting
    the chosen normal by 2 theta both ways.

    Cases: (i) a tilted line misses the interior -> |p'/p| >= n/(2d);
    (ii) both chords positive with the smaller one under the width ->
    the 0.001 (w/d^2) n - (2/(39 delta)) log(...) bound at the smaller
    chord; (iii) when the larger chord reaches w/2 the same bound holds
    for both sign choices.

    At a corner the supporting normal is free, so the audit sweeps a fan
    of directions across the normal cone and reports the worst margin,
    with the per-direction outcomes in the detail map."""
    if sigma is None and zeta.omega > 0:
        sigmas = np.linspace(zeta.alpha_minus, zeta.alpha_plus, _FAN) \
            + math.pi / 2
        reports = [tilted_normal_audit(p, zeta, K, branch=branch,
                                       sigma=float(sg), q=q,
                                       log_sup=log_sup)
                   for sg in sigmas]
        live = [r for r in reports if r.applicable]
        fan_detail = [{"sigma": float(sg), "case": r.detail.get("case"),
                       "lhs": r.lhs, "rhs": r.rhs, "margin": r.margin,
                       "applicable": r.applicable}
                      for sg, r in zip(sigmas, reports)]
        if not live:
            return AuditReport("tilted", 0.0, 0.0, applicable=False,
                               detail={"reason": "no applicable direction",
                                       "fan": fan_detail})
        worst = min(live, key=lambda r: r.margin - r.tol)
        detail = dict(worst.detail)
        detail["fan"] = fan_detail
        return AuditReport("tilted", worst.lhs, worst.rhs, detail=detail)
    n = p.n
    d, w = K.diameter, K.width
    theta = tilt_angle(K)
    sigma = zeta.sigma if sigma is None else sigma
    c_minus = chord(K, zeta.z, sigma - 2 * theta)
    c_plus = chord(K, zeta.z, sigma + 2 * theta)
    lhs = abs(log_derivative(p, zeta.z))
    log_pz = float(log_abs(p, zeta.z))
    detail = {"theta": theta, "delta_minus": c_minus.delta,
              "delta_plus": c_plus.delta, "n": n}

    def oldyield_rhs(c):
        base = 0.001 * (w / (d * d)) * n
        if c.delta <= 0:
            return base, {"rhs_chord_max": base, "delta": c.delta}
        seg_max = _segment_log_max(p, zeta.z, c.D)
        gap = max(0.0, seg_max - log_pz)
        rhs = base - (2.0 / (39.0 * c.delta)) * gap
        out = {"rhs_chord_max": rhs, "log_gap_on_chord": gap,
               "delta": c.delta}
        if log_sup is not None:
            gap_sup = max(0.0, log_sup - log_pz)
            out["rhs_sup"] = base - (2.0 / (39.0 * c.delta)) * gap_sup
            if q is not None and n >= 73 and \
                    log_pz > log_h_threshold(p, K, q, log_sup=log_sup):
                out["rhs_h_branch"] = base - (0.15 / c.delta) * math.log(n)
        return rhs, out

    case_i = (not c_minus.hits_interior) or (not c_plus.hits_interior)
    both_signs = max(c_minus.delta, c_plus.delta) >= w / 2
    if branch == "auto":
        if case_i:
            branch = "i"
        elif min(c_minus.delta, c_plus.delta) < w:
            branch = "ii"
        else:
            branch = "iii"
    detail["case"] = branch

    if branch == "i":
        if not case_i:
            detail["reason"] = "both tilted lines cross the interior"
            return AuditReport("tilted", lhs, 0.0, applicable=False,
                               detail=detail)
        return AuditReport("tilted", lhs, n / (2 * d), detail=detail)

    if branch == "ii":
        if case_i or not (0 < min(c_minus.delta, c_plus.delta) < w):
            detail["reason"] = "small-chord case does not apply"
            return AuditReport("tilted", lhs, 0.0, applicable=False,
                               detail=detail)
        c = c_minus if c_minus.delta <= c_plus.delta else c_plus
        detail["sign"] = "minus" if c is c_minus else "plus"
        rhs, extra = oldyield_rhs(c)
        detail.update(extra)
        if both_signs:
            other = c_plus if c is c_minus else c_minus
            rhs_o, _ = oldyield_rhs(other)
            detail["other_sign_rhs"] = rhs_o
            detail["other_sign_margin"] = lhs - rhs_o
        return AuditReport("tilted", lhs, rhs, detail=detail)

    # case iii: the bound must hold for both sign choices
    if not both_signs:
        detail["reason"] = "larger chord under half the width"
        return AuditReport("tilted", lhs, 0.0, applicable=False,
                           detail=detail)
    rhs_m, _ = oldyield_rhs(c_minus)
    rhs_p, _ = oldyield_rhs(c_plus)
    detail["rhs_minus"] = rhs_m
    detail["rhs_plus"] = rhs_p
    detail["margin_minus"] = lhs - rhs_m
    detail["margin_plus"] = lhs - rhs_p
    # the binding side is the larger rhs
    return AuditReport("tilted", lhs, max(rhs_m, rhs_p), detail=detail)


def zero_class_product_audits(p: RootPolynomial, zeta: BoundaryPoint,
                              K: ConvexDomain) -> list:
    """The five per-class product floors at the maximizer tau0 of the
    ball-class product over J, the outer quarter of the tilted chord, plus
    the final chained bound on |p'/p|."""
    part = classify_zeros(p, zeta, K)
    theta, delta, d = part.theta, part.delta, K.diameter
    along_j = lambda t: t * delta * np.exp(1j * (math.pi / 2 - 2 * theta))
    z1, z2, z3, z4, z5 = [np.asarray(c, dtype=complex)
                          for c in part.classes]

    def log_prod(roots, tau):
        t = np.atleast_1d(np.asarray(tau, dtype=complex))
        out = (np.log(np.abs(t[:, None] - roots[None, :]))
               - np.log(np.abs(roots[None, :]))).sum(axis=1)
        return float(out[0]) if np.ndim(tau) == 0 else out

    # tau0 maximizes the ball-class product; empty class keeps the inner
    # end of J
    t0 = 0.75
    if z3.size:
        ts = np.linspace(0.75, 1.0, _J_GRID)
        f = lambda t: log_prod(z3, along_j(t))
        t0 = _grid_max(f, ts, f(ts), z3.size)[0]
    tau0 = complex(along_j(t0))
    sin_t = math.sin(theta)
    reports = []

    def add(name, lhs, rhs, **extra):
        detail = {"scale": "log", "counts": list(part.counts),
                  "delta": delta, "theta": theta, "sign": part.sign}
        detail.update(extra)
        reports.append(AuditReport(name, lhs, rhs, detail=detail))

    add("zclass_near_tangent", log_prod(z1, tau0),
        0.5 * sin_t * delta * part.mu / d)
    add("zclass_low_side", log_prod(z2, tau0), 0.0)
    if z3.size:
        rhs3 = (math.log(2.0) + part.kappa * math.log(delta / 16.0)
                - float(np.log(np.abs(z3)).sum()))
    else:
        rhs3 = 0.0
    add("zclass_ball", log_prod(z3, tau0), rhs3,
        chain_floor=-3.0 * part.kappa)
    sum4 = float((np.sin(np.clip(np.angle(z4), 0, math.pi))
                  / np.abs(z4)).sum()) if z4.size else 0.0
    add("zclass_far", log_prod(z4, tau0), -9.0 * delta * sum4)
    add("zclass_opposite", log_prod(z5, tau0),
        sin_t * delta * part.m / (2 * d))

    # final chain: |p'/p| > (1/39)(sin theta / d) n - (2/(39 delta)) log gap
    lhs = abs(log_derivative(p, zeta.z))
    tau0_orig = complex(part.from_frame(tau0))
    log_ratio = float(log_abs(p, tau0_orig)) - float(log_abs(p, zeta.z))
    rhs = (sin_t / d) * p.n / 39.0 - (2.0 / (39.0 * delta)) * log_ratio
    add("zclass_chain", lhs, rhs, tau0=[tau0_orig.real, tau0_orig.imag],
        log_ratio=log_ratio)
    return reports


# ------------------------------------------------------ two-point estimate

def two_point_audit(p: RootPolynomial, zeta: BoundaryPoint,
                    zeta_prime: BoundaryPoint, K: ConvexDomain,
                    alpha: float = None, alpha_prime: float = None,
                    q: float = None) -> AuditReport:
    """Two nearby boundary points with crossing tangents: either both
    values are exponentially small next to the sup norm, or the two log
    derivatives together are large.

    The reported inequality is the branch predicted by the root count
    around the tangent crossing; if that branch fails while the other
    holds, the other is reported (the claim is the disjunction)."""
    a = zeta.alpha if alpha is None else alpha
    ap = zeta_prime.alpha if alpha_prime is None else alpha_prime
    d = K.diameter
    n = p.n
    detail = {"alpha": a, "alpha_prime": ap, "n": n}
    if not (a < ap < a + math.pi):
        detail["reason"] = "tangent directions not properly ordered"
        return AuditReport("twopoint", 0.0, 0.0, applicable=False,
                           detail=detail)
    beta = math.pi - (ap - a)
    s = abs(zeta_prime.z - zeta.z)
    s0 = min(1.0, 2 * math.sin(beta)) / 384.0 * d
    detail.update({"beta": beta, "s": s, "s0": s0})
    if s > s0 or s == 0.0:
        detail["reason"] = "points too far apart for this tangent angle"
        return AuditReport("twopoint", 0.0, 0.0, applicable=False,
                           detail=detail)
    # T = intersection of the two tangent lines
    u1 = complex(math.cos(a), math.sin(a))
    u2 = complex(math.cos(ap), math.sin(ap))
    den = u1.real * (-u2.imag) - (-u2.real) * u1.imag
    rhsv = zeta_prime.z - zeta.z
    t1 = (rhsv.real * (-u2.imag) + u2.real * rhsv.imag) / den
    T = zeta.z + t1 * u1
    R = 3.0 * max(abs(T - zeta.z), abs(T - zeta_prime.z))
    roots = np.asarray(p.roots) if p.roots else np.asarray([],
                                                           dtype=complex)
    mu = int(np.count_nonzero(np.abs(roots - T) <= R))
    nu = n - mu
    detail.update({"T": [T.real, T.imag], "R": R, "mu": mu, "nu": nu})

    log_sup = sup_norm(p, K).log_value
    lp = float(log_abs(p, zeta.z))
    lpp = float(log_abs(p, zeta_prime.z))
    small_bound = log_sup - n * math.log(2.0)
    alt_i = (lp <= small_bound + margin_tol(lp, small_bound)
             and lpp <= small_bound + margin_tol(lpp, small_bound))
    detail["alt_i_margins"] = [small_bound - lp, small_bound - lpp]
    if q is not None and n >= 15:
        thr = log_h_threshold(p, K, q, log_sup=log_sup)
        detail["alt_i_outside_h"] = bool(lp <= thr and lpp <= thr)

    lhs_ii = abs(log_derivative(p, zeta.z)) \
        + abs(log_derivative(p, zeta_prime.z))
    rhs_ii = 3 * math.sin(beta) / (8 * d) * n
    alt_ii = lhs_ii >= rhs_ii - margin_tol(lhs_ii, rhs_ii)
    detail["alt_ii_margin"] = lhs_ii - rhs_ii

    # the sum mechanism behind alternative (ii): roots far from T
    far = roots[np.abs(roots - T) > R]
    if far.size:
        ssum = (np.sin(np.angle(far - zeta.z) - a) / np.abs(far - zeta.z)
                + np.sin(np.angle(far - zeta_prime.z) - ap)
                / np.abs(far - zeta_prime.z)).sum()
        detail["pair_sum_lhs"] = float(ssum)
        detail["pair_sum_rhs"] = 3 * math.sin(beta) / (4 * d) * nu

    if mu >= n / 2.0:
        primary = ("i", small_bound, max(lp, lpp), alt_i)
        fallback = ("ii", lhs_ii, rhs_ii, alt_ii)
    else:
        primary = ("ii", lhs_ii, rhs_ii, alt_ii)
        fallback = ("i", small_bound, max(lp, lpp), alt_i)
    pick = primary if (primary[3] or not fallback[3]) else fallback
    detail["predicted"] = primary[0]
    detail["reported"] = pick[0]
    return AuditReport("twopoint", pick[1], pick[2], detail=detail)


# ------------------------------------------------------ norm theorems

def infnorm_theorem_audit(p: RootPolynomial, K: ConvexDomain
                          ) -> AuditReport:
    """|p'|_inf >= 0.001 (w/d^2) n |p|_inf for roots in K."""
    n = max(p.n, 1)
    log_p, log_dp, _ = _log_norms(p, K, math.inf)
    coeff = 0.001 * K.width / K.diameter ** 2 * n
    return AuditReport("infnorm", log_dp, math.log(coeff) + log_p,
                       detail={"scale": "log", "n": n, "coeff": coeff})


def depth_theorem_audit(p: RootPolynomial, K: ConvexDomain, q: float
                        ) -> AuditReport:
    """|p'|_q >= (h^4/(3000 d^5)) n |p|_q when the depth h is positive."""
    h = K.depth()
    n = max(p.n, 1)
    detail = {"scale": "log", "n": n, "depth": h, "q": q}
    if h <= K.tol:
        detail["reason"] = "zero depth"
        return AuditReport("depth", 0.0, 0.0, applicable=False,
                           detail=detail)
    coeff = h ** 4 / (3000.0 * K.diameter ** 5) * n
    detail["coeff"] = coeff
    log_p, log_dp, _ = _log_norms(p, K, q)
    return AuditReport("depth", log_dp, math.log(coeff) + log_p,
                       detail=detail)


# ------------------------------------------------------ batch running

def _pick_h_point(p, K, q, rng, log_sup):
    """A boundary point comfortably inside the threshold set."""
    thr = log_h_threshold(p, K, q, log_sup=log_sup)
    margin = 0.1 * (log_sup - thr)
    for _ in range(64):
        s = rng.uniform(0.0, K.perimeter)
        z = complex(K.gamma(s))
        if float(log_abs(p, z)) > thr + margin:
            return z
    return sup_norm(p, K).z


def _poly(K, n, rng, lo, hi, draw_roots=random_roots_in):
    """Monic polynomial of degree n, or of a degree drawn from [lo, hi),
    with roots from draw_roots."""
    deg = n or int(rng.integers(lo, hi))
    return RootPolynomial(1.0, draw_roots(K, deg, rng))


def _not_applicable(audit_id: str, reason: str) -> list:
    return [AuditReport(audit_id, 0.0, 0.0, applicable=False,
                        detail={"reason": reason})]


def _hgap_trial(K, n, q, rng):
    p = _poly(K, n, rng, 73, 120)
    z = _pick_h_point(p, K, q, rng, sup_norm(p, K).log_value)
    return [h_point_log_gap(p, K, z, q)]


def _chebyshev_trial(K, n, q, rng):
    length = float(rng.uniform(0.2, 4.0))
    k = int(rng.integers(1, 7))
    return [chebyshev_floor_check(length, k, trials=3, rng=rng)]


def _concentration_trial(K, n, q, rng):
    k_ratio = float(rng.uniform(16.0, 128.0))
    deg = n or int(rng.integers(8, 24))
    need = math.ceil(3 * math.log(2) / math.log(k_ratio) * deg)
    inside = min(deg, max(need, int(deg * 0.8)))
    center = (K.center if K.kind == "disk"
              else complex(np.asarray(K.vertices).mean()))
    K_prime = ConvexDomain.disk(center, K.diameter / (2.2 * k_ratio))
    roots = list(random_roots_in(K_prime, inside, rng))
    roots += list(random_roots_in(K, deg - inside, rng))
    p = RootPolynomial(1.0, roots)
    return [zero_concentration_audit(p, K, K_prime, k_ratio)]


def _tilted_trial(K, n, q, rng):
    p = _poly(K, n, rng, 5, 60)
    bp = K.boundary_point(rng.uniform(0.0, K.perimeter))
    try:
        return [tilted_normal_audit(p, bp, K)]
    except SingularPoint:
        return _not_applicable("tilted", "singular point")


def _zclass_trial(K, n, q, rng):
    p = _poly(K, n, rng, 5, 40)
    bp = K.boundary_point(rng.uniform(0.0, K.perimeter))
    try:
        return zero_class_product_audits(p, bp, K)
    except (SingularPoint, ZeroChord) as exc:
        return _not_applicable("zclass", str(exc))


def _twopoint_trial(K, n, q, rng):
    if K.kind != "polygon":
        return _not_applicable("twopoint", "needs a polygon corner pair")
    p = _poly(K, n, rng, 5, 40)
    v = int(rng.integers(0, len(K.vertices)))
    sv = K.vertex_s(v)
    turn = K.boundary_point(sv).omega
    s0 = min(1.0, 2 * math.sin(math.pi - turn)) / 384.0 * K.diameter
    ds = float(rng.uniform(0.1, 0.45)) * s0
    b1 = K.boundary_point((sv - ds) % K.perimeter)
    b2 = K.boundary_point((sv + ds) % K.perimeter)
    try:
        return [two_point_audit(p, b1, b2, K, alpha=b1.alpha,
                                alpha_prime=b2.alpha, q=q)]
    except SingularPoint:
        return _not_applicable("twopoint", "singular point")


def _polygon_draw(lo: int, hi: int):
    """Draw of a random convex polygon with lo to hi - 1 vertices."""
    return lambda rng: random_convex_polygon(
        rng, vertices=int(rng.integers(lo, hi)))


# audit id -> (draw of the default domain, None for an audit that takes no
# domain and no degree; trial (K, n, q, rng) -> reports).  A trial draws
# its domain first, then its degree, roots and boundary points.
_AUDITS = {
    "nikolskii": (random_domain, lambda K, n, q, rng: [nikolskii_audit(
        _poly(K, n, rng, 1, 30, random_roots_loose), K, q)]),
    "hset": (random_domain, lambda K, n, q, rng: [h_set(
        _poly(K, n, rng, 1, 25, random_roots_loose), K, q).mass_report()]),
    "hgap": (random_domain, _hgap_trial),
    "chebyshev": (None, _chebyshev_trial),
    "transfinite": (random_domain, lambda K, n, q, rng: [
        transfinite_floor_audit(_poly(K, n, rng, 1, 25), K)]),
    "concentration": (_polygon_draw(4, 9), _concentration_trial),
    "tilted": (random_domain, _tilted_trial),
    "zclass": (random_domain, _zclass_trial),
    "twopoint": (_polygon_draw(4, 8), _twopoint_trial),
    "infnorm": (random_domain, lambda K, n, q, rng: [
        infnorm_theorem_audit(_poly(K, n, rng, 1, 50), K)]),
    "depth": (lambda rng: (ConvexDomain.unit_square() if rng.uniform() < 0.5
                           else ConvexDomain.regular_polygon(6)),
              lambda K, n, q, rng: [depth_theorem_audit(
                  _poly(K, n, rng, 1, 40), K, q)]),
}
AUDIT_IDS = tuple(_AUDITS)


def _check_params(audit_id: str, params: dict) -> None:
    """ValueError for an unknown audit id, an n that is not an int >= 1,
    and an n or a domain given to an audit that draws neither itself
    (chebyshev)."""
    n, dom = params.get("n"), params.get("domain")
    if audit_id not in AUDIT_IDS:
        raise ValueError(f"unknown audit id: {audit_id}")
    if n is not None and (type(n) is not int or n < 1):
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if _AUDITS[audit_id][0] is None and (n is not None or dom is not None):
        raise ValueError(f"{audit_id} takes no n and no domain")


def audit_trial(audit_id: str, trial: int, seed: int,
                params: dict = None) -> list:
    """One deterministic batch trial; the rng depends only on (seed,
    trial). Bad parameters raise ValueError (`_check_params`)."""
    params = dict(params or {})
    _check_params(audit_id, params)
    rng = trial_rng(seed, trial)
    draw_domain, run = _AUDITS[audit_id]
    K = params.get("domain")
    if K is None and draw_domain is not None:
        K = draw_domain(rng)
    return run(K, params.get("n"), params.get("q", 2.0), rng)


def run_batch(audit_id: str, trials: int, seed: int,
              params: dict = None) -> list:
    """Run a batch of audit trials, one after another, in trial order."""
    _check_params(audit_id, params or {})
    out = []
    for i in range(trials):
        for rep in audit_trial(audit_id, i, seed, params):
            rec = dict(rep.detail)
            rec["trial"] = i
            out.append(AuditReport(rep.audit_id, rep.lhs, rep.rhs,
                                   rep.applicable, rec))
    return out
