"""Boundary covering machinery for the n/log n lower bound.

A boundary point is "good" when both tilted chords through it are either
long (length at least r) or leave the domain entirely; at good points the
tilted-line derivative estimates apply directly.  Non-good points (exact
intervals at polygon vertices and edge ends) are swallowed by short
"elementary" arcs whose tangent direction turns by at least
phi = pi/2 - 2*theta.  A maximal disjoint family of elementary arcs,
padded on both sides, yields at most four covered components; the integral
case split then decides whether the derivative norm is driven by the good
part of the boundary or by oscillation inside the heaviest component.

Arc intervals are stored as (start_s, end_s) with end_s allowed past the
perimeter to express wrap-around; lengths are always positive.

The tilted chords through the vertices and the verification mesh do not
depend on r.  `build_covering` and `max_feasible_r` both build through
`_build_covering` on a `_ChordFrame` of those chords, so the bisection of
`max_feasible_r` computes them once per call, not once per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .audits import AuditReport, _h_intervals, _in_intervals
from .errors import CoveringInvalid, FamilyTooLarge, NoCutPoint
from .geometry import (VERTEX_SNAP_REL, BoundaryPoint, ConvexDomain,
                       _cross, chord)
from .polynomials import (
    RootPolynomial,
    _adaptive_log_integral,
    _boundary_pieces,
    _grid_max,
    _log_sum,
    log_abs,
)

__all__ = [
    "BoundaryArc",
    "Covering",
    "CoveringComponent",
    "CaseSplit",
    "RSchedule",
    "covering_tilt_angle",
    "wedge_angle",
    "good_point_test",
    "elementary_arcs",
    "maximal_disjoint_family",
    "build_covering",
    "r_schedule",
    "case_split",
    "max_feasible_r",
]

# grid points on a component arc, before the golden polish
_ARC_GRID = 4096


def covering_tilt_angle(K: ConvexDomain) -> float:
    """Default tilt for the covering construction: arcsin(w/d)/80."""
    return math.asin(K.width / K.diameter) / 80.0


def wedge_angle(theta: float) -> float:
    """phi = pi/2 - 2*theta, the minimum tangent turn along an elementary
    arc; lands in (2*pi/5, pi/2) for every admissible tilt."""
    return math.pi / 2.0 - 2.0 * theta


# ------------------------------------------------------------------ arcs

@dataclass(frozen=True)
class BoundaryArc:
    """Closed boundary arc from start_s to end_s (counterclockwise).

    kind is "elementary" (short arc between a non-good point and the far
    end of its short chord), "component" (a maximal covered arc), or
    "padding" (a flank added around a central elementary arc).  Violated
    construction bounds are flagged, never clipped.
    """

    start_s: float
    end_s: float
    kind: str
    var_alpha: float = 0.0
    length_ok: bool = True
    var_ok: bool = True

    def __post_init__(self):
        if self.end_s <= self.start_s:
            raise ValueError("arc must have positive length")
        if self.kind not in ("elementary", "component", "padding"):
            raise ValueError(f"unknown arc kind {self.kind!r}")

    @property
    def length(self) -> float:
        return self.end_s - self.start_s

    def covers(self, lo: float, hi: float, perimeter: float) -> bool:
        """Whether the arc holds the whole interval [lo, hi], hi >= lo."""
        rel = (lo - self.start_s) % perimeter
        if rel >= perimeter - 1e-12 * perimeter:
            rel -= perimeter
        return rel + (hi - lo) <= self.length

    def as_record(self) -> dict:
        return {
            "start_s": self.start_s,
            "end_s": self.end_s,
            "length": self.length,
            "kind": self.kind,
            "var_alpha": self.var_alpha,
            "length_ok": self.length_ok,
            "var_ok": self.var_ok,
        }


def good_point_test(K: ConvexDomain, zeta: BoundaryPoint, r: float,
                    theta: float = None) -> bool | np.ndarray:
    """True when each tilted chord through zeta (directions sigma +- 2
    theta) either has length at least r or misses the interior of K.  An
    array-valued zeta gives a bool mask."""
    theta = covering_tilt_angle(K) if theta is None else theta
    good = ~_short(_tilted_chords(K, zeta, theta), r)[0]
    return bool(good) if good.ndim == 0 else good


def _tilted_chords(K, bp, theta):
    """The two tilted chords through bp, directions sigma -+ 2 theta.  They
    do not depend on r."""
    return tuple(chord(K, bp.z, bp.sigma + sign * 2.0 * theta)
                 for sign in (-1.0, 1.0))


def _short(chords, r):
    """(found, D) for the tilted chords of `_tilted_chords`: where one hits
    the interior with length < r, and the far end of the shorter such chord
    (the minus tilt on a tie)."""
    if r <= 0:
        raise ValueError("r must be positive")
    c_m, c_p = chords
    short_m = np.logical_and(c_m.hits_interior, c_m.delta < r)
    short_p = np.logical_and(c_p.hits_interior, c_p.delta < r)
    use_p = short_p & (~short_m | (c_p.delta < c_m.delta))
    return short_m | short_p, np.where(use_p, c_p.D, c_m.D)


def _corner_chords(K, theta):
    """The tilted chords `_non_good_set` tests: through every vertex, or
    through a disk's probe point s = 0."""
    corners = 0.0 if K.kind == "disk" else K._cum_arr[:-1]
    return _tilted_chords(K, K.boundary_point(corners), theta)


class _ChordFrame:
    """The r-independent chords of one covering call: the tilted chords
    through every vertex (a disk: through its probe point s = 0) and
    through every point of the verification mesh.  `max_feasible_r` builds
    one for all its bisection steps; nothing keeps it past the call."""

    def __init__(self, K, theta, verify_mesh):
        self.theta = theta
        self.corners = _corner_chords(K, theta)
        self.mesh_s = np.linspace(0.0, K.perimeter, verify_mesh,
                                  endpoint=False)
        self.mesh = _tilted_chords(K, K.boundary_point(self.mesh_s), theta)


def _elementary_arc(K, s, s_far, length_bound, phi):
    """Elementary arc for the non-good point at s: the short boundary arc
    between the point and the far end, at s_far, of its short tilted
    chord."""
    L = K.perimeter
    fwd = (s_far - s) % L
    if fwd == 0.0:
        return None
    if fwd <= L - fwd:
        start, length = s % L, fwd
    else:
        start, length = s_far % L, L - fwd
    var = K.tangent_variation(start, start + length)
    return BoundaryArc(
        start, start + length, "elementary", var_alpha=var,
        length_ok=length <= length_bound * (1 + 1e-9),
        var_ok=var >= phi - 1e-9,
    )


def _non_good_set(K, r, theta, corners):
    """The non-good boundary points as arclength intervals (lo, hi): the
    snap zone of each non-good vertex, and the ends of open polygon edges.
    There the inner normal is fixed, so a tilted chord leaves through edge
    k at t_k(s) = -c0_k(s) / c1_k (as in `chord`), affine in the edge
    offset s: its length min_k t_k(s) is concave, below r on at most one
    interval at each end.  A disk's tilted chords are 2R cos(2 theta) long.
    corners holds the tilted chords of `_corner_chords(K, theta)`.
    """
    if K.kind == "disk":
        if not _short(corners, r)[0]:
            return ()
        raise FamilyTooLarge("no point of the disk is good: its tilted "
                             "chords are all 2R cos(2 theta) < r long")
    snap = VERTEX_SNAP_REL * K.perimeter
    cum = K._cum_arr[:-1]
    end = K._edge_len_arr - snap
    e = K._dir_arr
    # axes: (tilt sign, edge i of the point, exit edge k)
    phi = (np.asarray(K._edge_angle) + 0.5 * math.pi
           + np.array([-1.0, 1.0])[:, None] * 2.0 * theta)[..., None]
    c0 = _cross(e, np.subtract.outer(K.vertices, K.vertices))  # at s = 0
    dc0 = _cross(e, e[:, None])                                # d c0 / ds
    c1 = _cross(e, np.cos(phi) + 1j * np.sin(phi))
    # t_k(s) < r  <=>  dc0 * s < -r c1 - c0 on the exit edges (c1 < 0)
    rhs = np.where(c1 < -1e-15, -r * c1 - c0, -math.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        root = rhs / dc0
    flat = (dc0 == 0.0) & (rhs > 0.0)
    left = np.where(flat, math.inf, np.where(dc0 > 0.0, root, -math.inf))
    right = np.where(flat, -math.inf, np.where(dc0 < 0.0, root, math.inf))
    good = ~_short(corners, r)[0]
    # vertex snap zones, then [snap, left) and (right, end] on each edge
    lo = np.concatenate([cum - snap, cum + snap,
                         cum + np.maximum(right.min(axis=(0, 2)), snap)])
    hi = np.concatenate([np.where(good, -math.inf, cum + snap),
                         cum + np.minimum(left.max(axis=(0, 2)), end),
                         cum + end])
    keep = lo < hi
    return tuple(sorted(zip(lo[keep].tolist(), hi[keep].tolist())))


def elementary_arcs(K: ConvexDomain, r: float, theta: float = None) -> tuple:
    """All distinct elementary arcs of the points one snap width inside
    both ends of every non-good interval (a vertex, for its snap zone)."""
    theta = covering_tilt_angle(K) if theta is None else theta
    return _elementary_arcs(
        K, r, theta, _non_good_set(K, r, theta, _corner_chords(K, theta)))


def _elementary_arcs(K, r, theta, non_good):
    """`elementary_arcs` on the non-good intervals non_good."""
    L = K.perimeter
    phi = wedge_angle(theta)
    length_bound = 4.0 * r * K.diameter / K.width

    lo, hi = np.reshape(non_good, (-1, 2)).T
    inset = np.minimum(VERTEX_SNAP_REL * L, 0.5 * (hi - lo))
    bp = K.boundary_point(np.sort(np.concatenate([lo + inset, hi - inset])))
    found, far_ends = _short(_tilted_chords(K, bp, theta), r)
    s_far = K.nearest_boundary_s(far_ends[found])
    arcs = {}
    for s, sf in zip(bp.s[found].tolist(), s_far.tolist()):
        arc = _elementary_arc(K, s, sf, length_bound, phi)
        if arc is None:
            continue
        key = (round(arc.start_s / L, 9), round(arc.end_s / L, 9))
        arcs.setdefault(key, arc)
    return tuple(sorted(arcs.values(), key=lambda a: (a.start_s, a.end_s)))


def _arcs_overlap(a: BoundaryArc, b: BoundaryArc, perimeter: float) -> bool:
    return any(a.start_s <= b.end_s + sh and b.start_s + sh <= a.end_s
               for sh in (-perimeter, 0.0, perimeter))


def maximal_disjoint_family(arcs, perimeter: float) -> tuple:
    """Greedy maximal family of pairwise disjoint arcs, scanned from the
    parameter origin.  More than four disjoint short arcs is impossible
    (five tangent turns of phi > 2*pi would not fit) and raises."""
    chosen = []
    for arc in sorted(arcs, key=lambda a: (a.start_s, a.end_s)):
        if all(not _arcs_overlap(arc, c, perimeter) for c in chosen):
            chosen.append(arc)
    if len(chosen) > 4:
        raise FamilyTooLarge(
            f"{len(chosen)} pairwise disjoint short arcs found; at most "
            "four can exist, so the geometry or the tilt is inconsistent")
    for arc in arcs:
        if arc in chosen:
            continue
        if all(not _arcs_overlap(arc, c, perimeter) for c in chosen):
            raise FamilyTooLarge("greedy family is not maximal")
    return tuple(chosen)


# ------------------------------------------------------------- covering

def _arc_pieces(arc: BoundaryArc, L: float) -> tuple:
    """The arc as plain (lo, hi) pieces inside [0, L]."""
    lo = arc.start_s % L
    hi = lo + arc.length
    return ((lo, hi),) if hi <= L else ((lo, L), (0.0, hi - L))


@dataclass(frozen=True)
class CoveringComponent:
    """One maximal covered arc: a central elementary arc with padding
    flanks on both sides (flanks absorb any merged neighbours)."""

    arc: BoundaryArc
    central: BoundaryArc
    flank_minus: BoundaryArc
    flank_plus: BoundaryArc

    def as_record(self) -> dict:
        return {
            "arc": self.arc.as_record(),
            "central": self.central.as_record(),
            "flank_minus": self.flank_minus.as_record(),
            "flank_plus": self.flank_plus.as_record(),
        }


@dataclass(frozen=True)
class Covering:
    """Padded covering of all non-good boundary points.

    components hold at most four arcs; cut_point is a parameter outside
    every component, placed at the midpoint of the longest uncovered gap.
    checked_points counts the verification mesh.
    """

    components: tuple
    r: float
    theta: float
    cut_point: float
    perimeter: float
    checked_points: int = 0

    @property
    def k0(self) -> int:
        return len(self.components)

    @property
    def total_measure(self) -> float:
        return sum(c.arc.length for c in self.components)

    def contains_s(self, s: float) -> bool:
        return any(c.arc.covers(s, s, self.perimeter)
                   for c in self.components)

    def intervals(self) -> tuple:
        """Component supports as plain (lo, hi) pieces inside [0, L]."""
        return tuple(sorted(piece for c in self.components
                            for piece in _arc_pieces(c.arc, self.perimeter)))

    def as_record(self) -> dict:
        return {
            "r": self.r,
            "theta": self.theta,
            "cut_point": self.cut_point,
            "perimeter": self.perimeter,
            "k0": self.k0,
            "total_measure": self.total_measure,
            "checked_points": self.checked_points,
            "components": [c.as_record() for c in self.components],
        }


def _merge_padded(fam, pad, L):
    """Pad each family arc by pad on both sides and merge overlaps on the
    circle.  Returns (start, end, centrals) with centrals shifted into the
    merged frame; no merged run may swallow three padded arcs."""
    items = []
    for arc in fam:
        s = (arc.start_s - pad) % L
        items.append([s, s + arc.length + 2.0 * pad, [arc]])
    items.sort(key=lambda it: it[0])
    merged = [items[0]]
    for it in items[1:]:
        last = merged[-1]
        if it[0] <= last[1]:
            last[1] = max(last[1], it[1])
            last[2].extend(it[2])
        else:
            merged.append(it)
    if len(merged) > 1 and merged[-1][1] >= merged[0][0] + L:
        first = merged.pop(0)
        last = merged[-1]
        last[1] = max(last[1], first[1] + L)
        last[2].extend(first[2])
    if any(len(centrals) > 2 for _, _, centrals in merged):
        raise CoveringInvalid(
            "three padded arcs merged into one run; disjointness and the "
            "length bound forbid such a chain")
    return merged


def _shift_into(arc, lo, hi, L):
    """Translate an arc by a multiple of L so it sits inside [lo, hi]."""
    k = math.floor((lo - arc.start_s) / L + 0.5)
    for off in (k, k + 1, k - 1):
        s = arc.start_s + off * L
        if s >= lo - 1e-9 * L and s + arc.length <= hi + 1e-9 * L:
            return BoundaryArc(s, s + arc.length, arc.kind,
                               arc.var_alpha, arc.length_ok, arc.var_ok)
    raise CoveringInvalid("central arc does not fit its merged run")


def build_covering(K: ConvexDomain, r: float, theta: float = None,
                   verify_mesh: int = 2048) -> Covering:
    """Construct and verify the padded covering for chord threshold r.

    Requires 108*r*d/w < d.  Each exact non-good interval, and each point of
    a uniform verification mesh failing the chord test, must lie inside one
    component; a failure is a construction bug and raises CoveringInvalid.
    """
    theta = covering_tilt_angle(K) if theta is None else theta
    return _build_covering(K, r, _ChordFrame(K, theta, verify_mesh))


def _build_covering(K, r, frame):
    """`build_covering` on the r-independent chords of frame: r enters
    only through the chord-length tests, the non-good set's roots and the
    chords at the inset points of `_elementary_arcs`."""
    d, w, L = K.diameter, K.width, K.perimeter
    if 108.0 * r * d / w >= d:
        raise ValueError(
            f"r={r:.6g} too large for the covering: need 108*r*d/w < d, "
            f"i.e. r < {w / 108.0:.6g}")
    non_good = _non_good_set(K, r, frame.theta, frame.corners)
    arcs = _elementary_arcs(K, r, frame.theta, non_good)
    fam = maximal_disjoint_family(arcs, perimeter=L)
    pad = 4.0 * r * d / w

    components = []
    if fam:
        merged = _merge_padded(fam, pad, L)
        for lo, hi, centrals in merged:
            ranked = sorted(centrals,
                            key=lambda a: (-a.var_alpha, a.start_s % L))
            central = _shift_into(ranked[0], lo, hi, L)
            var = K.tangent_variation(lo, hi)
            comp = BoundaryArc(lo, hi, "component", var_alpha=var)
            flank_m = BoundaryArc(lo, central.start_s, "padding")
            flank_p = BoundaryArc(central.end_s, hi, "padding")
            components.append(
                CoveringComponent(comp, central, flank_m, flank_p))
        components.sort(key=lambda c: c.arc.start_s % L)

    # cut point: midpoint of the longest gap left uncovered
    if not components:
        cut = 0.5 * L
    else:
        starts = [c.arc.start_s % L for c in components]
        ends = [(c.arc.start_s % L) + c.arc.length for c in components]
        gaps = []
        for i in range(len(components)):
            nxt = starts[(i + 1) % len(components)]
            gaps.append(((nxt - ends[i]) % L, ends[i]))
        gap, at = max(gaps)
        if gap <= 0:
            raise NoCutPoint(
                "padded arcs cover the whole boundary; decrease r")
        cut = (at + 0.5 * gap) % L

    # verification: the exact non-good set and the mesh's non-good points
    bad = _short(frame.mesh, r)[0]
    pieces = non_good + tuple((s, s) for s in frame.mesh_s[bad].tolist())
    exceptions = [lo % L for lo, hi in pieces
                  if not any(c.arc.covers(lo, hi, L) for c in components)]
    if exceptions:
        raise CoveringInvalid(
            f"{len(exceptions)} boundary intervals or points neither good "
            f"nor covered (first at s={min(exceptions):.9g})")
    return Covering(tuple(components), float(r), float(frame.theta), cut, L,
                    checked_points=len(frame.mesh_s))


def max_feasible_r(K: ConvexDomain, theta: float = None) -> float:
    """Largest r for which build_covering (verification mesh 256) succeeds:
    bisects (0, w/108) until the bracket is at most 1e-12*w wide, which
    takes 34 steps on every domain since (w/108)/2^34 < 1e-12*w.  All steps
    share one set of r-independent tilted chords."""
    theta = covering_tilt_angle(K) if theta is None else theta
    frame = _ChordFrame(K, theta, 256)
    lo, hi = 0.0, K.width / 108.0
    while hi - lo > 1e-12 * K.width:
        mid = 0.5 * (lo + hi)
        try:
            _build_covering(K, mid, frame)
        except (ValueError, NoCutPoint, FamilyTooLarge, CoveringInvalid):
            hi = mid
        else:
            lo = mid
    return lo


# ------------------------------------------------------------ schedules

@dataclass(frozen=True)
class RSchedule:
    """Chord threshold schedule r(n) = 300 (d^2/w) (log n / n) with the
    gates guarding the final n/log n inequality: the threshold cap r1, the
    theorem floor n0 for the degree, and the working floor n1."""

    r: float
    r1: float
    n0: float
    n1: float


def r_schedule(n, K: ConvexDomain) -> RSchedule:
    if n < 2:
        raise ValueError("degree must be at least 2 so log n > 0")
    d, w = K.diameter, K.width
    r = 300.0 * (d * d / w) * math.log(n) / n
    r1 = 1e-4 * w * w / d
    n0 = max(1e20, (d / w) ** 5)
    n1 = max(73.0, 6.0 * math.log(d / w))
    return RSchedule(r, r1, n0, n1)


# ----------------------------------------------------------- case split

@dataclass(frozen=True)
class CaseSplit:
    """Outcome of the integral dichotomy for one polynomial/covering pair.

    case is "I" when at most half the heavy-set mass sits inside the
    covering, else "II.1" (the heaviest component sees |p| vary by a
    factor two) or "II.2" (|p| is flat across it).  reports hold the
    inequality audits whose gates fired; detail records the integrals,
    the gates, and u, v.
    """

    case: str
    best_component: CoveringComponent | None
    u: float | None
    v: float | None
    reports: tuple
    detail: dict


def _arc_extrema(p, K, comp_arc):
    """(min, max) of log|p| over a component arc via a dense grid plus a
    golden-section polish of the grid min and of the grid max between
    their grid neighbours, inside the arc."""
    L = K.perimeter
    ss = np.linspace(comp_arc.start_s, comp_arc.end_s, _ARC_GRID)
    f = lambda s: log_abs(p, K.gamma(s % L))
    vals = f(ss)
    _, v_lo_neg = _grid_max(lambda s: -f(s), ss, -vals, p.n)
    return -v_lo_neg, _grid_max(f, ss, vals, p.n)[1]


def case_split(p: RootPolynomial, K: ConvexDomain, q: float,
               covering: Covering) -> CaseSplit:
    """Decide the integral dichotomy and audit the inequality chain that
    belongs to the active case, asserting each piece only when its gates
    (degree floor, chord-threshold schedule) actually hold.  q must be
    finite: the case split integrates |p|^q."""
    n = p.n
    if n < 1:
        raise ValueError("constant polynomial has no oscillation factor")
    d, w, L = K.diameter, K.width, K.perimeter
    r = covering.r

    # one integration of |p|^q and |p'|^q over pieces cut at the ends of H
    # and of every component; each mass below sums a subset of the pieces,
    # nested so that mass(H and covered) <= mass(H) <= total holds exactly
    mp = p.monic()
    h_intervals, _ = _h_intervals(mp, K, q)
    cov_pieces = covering.intervals()
    cuts = [s for iv in h_intervals + cov_pieces for s in iv]
    pieces = _boundary_pieces(K, cuts)
    (masses, dp_masses), _ = _adaptive_log_integral(mp, K, q, pieces, True)
    mids = np.array([0.5 * (a + b) for a, b in pieces])
    in_h = _in_intervals(mids, h_intervals)
    in_cov = _in_intervals(mids, cov_pieces)
    log_mass_hl = _log_sum(masses[in_h & in_cov])
    log_mass_h = float(np.logaddexp(log_mass_hl,
                                    _log_sum(masses[in_h & ~in_cov])))
    log_mass_total = float(np.logaddexp(log_mass_h, _log_sum(masses[~in_h])))
    log_p_norm = log_mass_total / q
    log_dp_norm = _log_sum(dp_masses) / q

    sched = r_schedule(n, K) if n >= 2 else None
    detail = {
        "q": q, "n": n, "r": r,
        "log_mass_total": log_mass_total,
        "log_mass_h": log_mass_h,
        "log_mass_h_covered": log_mass_hl,
        "log_p_norm": log_p_norm,
        "log_dp_norm": log_dp_norm,
    }
    reports = []

    case_one = (log_mass_hl == -math.inf
                or log_mass_hl <= math.log(0.5) + log_mass_h)
    if case_one:
        gate = (n >= 73 and sched is not None and r >= sched.r)
        detail["case_I_gate"] = gate
        if gate:
            # half the heavy mass sits on good points, where the tilted
            # estimate with the schedule's r keeps half its main term
            rhs = math.log(1e-4 * (w / (d * d)) * n) + log_p_norm
            reports.append(AuditReport(
                "case_I_chain", log_dp_norm, rhs,
                detail={"scale": "log", "r_schedule": sched.r}))
        return CaseSplit("I", None, None, None, tuple(reports), detail)

    # Case II: the covering holds most of the heavy mass
    comp_masses = [
        _log_sum(masses[_in_intervals(mids, _arc_pieces(c.arc, L))])
        for c in covering.components]
    best_log = max(comp_masses, default=-math.inf)
    if best_log == -math.inf:
        raise CoveringInvalid("case II with no component carrying mass")
    best = covering.components[comp_masses.index(best_log)]
    detail["component_log_masses"] = comp_masses

    # the heaviest component carries at least 1/16 of the whole integral
    reports.append(AuditReport(
        "case_intA", best_log, math.log(1.0 / 16.0) + log_mass_total,
        detail={"scale": "log"}))

    log_u, log_v = _arc_extrema(mp, K, best.arc)
    u, v = math.exp(log_u) if log_u > -math.inf else 0.0, math.exp(log_v)
    detail["log_u"], detail["log_v"] = log_u, log_v

    mA = best.arc.length
    if 2.0 * u < v:
        # variation across the component forces a large derivative mass
        rhs = -math.log(2.0 * mA) + (math.log(1.0 / 16.0)
                                     + log_mass_total) / q
        reports.append(AuditReport(
            "case_2ulev", log_dp_norm, rhs, detail={"scale": "log"}))
        gate = (sched is not None
                and abs(r - sched.r) <= 1e-9 * max(r, sched.r))
        detail["schedule_gate"] = gate
        if gate:
            rhs_n = math.log((w * w / d ** 3) * n
                             / (240000.0 * math.log(n))) + log_p_norm
            reports.append(AuditReport(
                "case_2ulev_schedule", log_dp_norm, rhs_n,
                detail={"scale": "log"}))
        return CaseSplit("II.1", best, u, v, tuple(reports), detail)

    # flat component: two-point alternatives along the flanks take over
    s_gate = 24.0 * r * d / w <= w / 384.0 + 1e-12 * w
    n_gate = sched is not None and n >= sched.n1
    detail["flat_gates"] = {"span": s_gate, "degree": n_gate}
    if s_gate and n_gate:
        rhs = math.log((3.0 / (64.0 * 2.0 ** (7.0 / q)))
                       * (w / (d * d)) * n) + log_p_norm
        reports.append(AuditReport(
            "case_vle2u", log_dp_norm, rhs,
            detail={"scale": "log",
                    "weak_floor": math.log(3e-4 * (w / (d * d)) * n)
                    + log_p_norm}))
    return CaseSplit("II.2", best, u, v, tuple(reports), detail)
