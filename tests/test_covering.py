"""Covering construction: good points, elementary arcs, components, the
chord-threshold schedule, and the integral case split."""

import itertools
import math

import numpy as np
import pytest

from oscillab import covering, polynomials
from oscillab.covering import (
    BoundaryArc,
    build_covering,
    case_split,
    covering_tilt_angle,
    elementary_arcs,
    good_point_test,
    max_feasible_r,
    maximal_disjoint_family,
    r_schedule,
    wedge_angle,
)
from oscillab.errors import CoveringInvalid, FamilyTooLarge, NoCutPoint
from oscillab.geometry import BoundaryPoint, ConvexDomain, chord
from oscillab.polynomials import RootPolynomial
from oscillab.sampling import random_convex_polygon

SEED = 20260818

DISK = ConvexDomain.disk(0j, 1.0)
SQUARE = ConvexDomain.unit_square()


def test_wedge_angle_range():
    for K in (DISK, SQUARE, ConvexDomain.regular_polygon(3, circumradius=1.0)):
        phi = wedge_angle(covering_tilt_angle(K))
        assert 2 * math.pi / 5 < phi < math.pi / 2


def test_good_point_disk_everywhere():
    rng = np.random.default_rng(SEED)
    for s in rng.uniform(0, DISK.perimeter, 50):
        assert good_point_test(DISK, DISK.boundary_point(s), r=0.01)


def test_good_point_square_corner_miss_branch():
    # pin the normal to the edge of the corner cone: one tilted direction
    # then leaves the domain, the other crosses it in a long chord
    bp = SQUARE.boundary_point(SQUARE.vertex_s(1))
    pinned = BoundaryPoint(bp.s, bp.z, bp.alpha_minus, bp.alpha_minus)
    theta = covering_tilt_angle(SQUARE)
    c_out = chord(SQUARE, pinned.z, pinned.sigma - 2 * theta)
    assert not c_out.hits_interior
    assert good_point_test(SQUARE, pinned, r=0.008, theta=theta)


def test_good_point_matches_chord_oracle():
    rng = np.random.default_rng(SEED + 1)
    K = random_convex_polygon(rng, 6)
    theta = covering_tilt_angle(K)
    r = K.width / 300
    for s in rng.uniform(0, K.perimeter, 40):
        bp = K.boundary_point(s)
        flags = []
        for sign in (-1, 1):
            c = chord(K, bp.z, bp.sigma + sign * 2 * theta)
            flags.append((not c.hits_interior) or c.delta >= r)
        assert good_point_test(K, bp, r, theta) == all(flags)


def test_good_point_mask_matches_scalar_loop():
    rng = np.random.default_rng(SEED + 5)
    domains = [SQUARE, ConvexDomain.polygon([0j, 3 + 0j, 3 + 1j, 1j]),
               ConvexDomain.regular_polygon(8), DISK,
               ConvexDomain.regular_polygon(5)]
    domains += [random_convex_polygon(rng, int(rng.integers(4, 10)))
                for _ in range(3)]
    for K in domains:
        L = K.perimeter
        theta = covering_tilt_angle(K)
        ss = list(rng.uniform(0.0, L, 150))
        for i in range(len(K.vertices or ())):
            sv = K.vertex_s(i)
            # the snap rule at 1e-9 L, and the short-chord zone beside it
            ss += [sv + f * L for f in (0.0, 5e-10, -5e-10, 1e-9, -1e-9,
                                        2e-9, -2e-9, 1e-5, -1e-5, 1e-4)]
        for frac in (0.05, 0.6, 0.999):
            r = frac * K.width / 108
            mask = good_point_test(K, K.boundary_point(np.array(ss)), r,
                                   theta)
            oracle = []
            for s in ss:
                bp = K.boundary_point(s)
                oracle.append(all(
                    not c.hits_interior or c.delta >= r
                    for c in (chord(K, bp.z, bp.sigma + sign * 2 * theta)
                              for sign in (-1, 1))))
            assert mask.dtype == bool
            assert mask.tolist() == oracle, (K, frac)


def test_build_covering_batches_its_chords(monkeypatch):
    # the vertex tests of the exact non-good set, the short chords and the
    # verification mesh each take one call per tilt
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return chord(*args, **kwargs)

    monkeypatch.setattr(covering, "chord", counting)
    assert build_covering(SQUARE, 0.008).k0 == 4
    assert len(calls) <= 64


def test_square_non_good_zone_next_to_corner():
    # short tilted chords exist only within depth ~ r*sin(2*theta) of a
    # corner, far below the uniform mesh spacing
    theta = covering_tilt_angle(SQUARE)
    r = 0.008
    depth = r * math.sin(2 * theta)
    inside = SQUARE.boundary_point(1.0 - 0.5 * depth)
    outside = SQUARE.boundary_point(1.0 - 20 * depth)
    assert not good_point_test(SQUARE, inside, r, theta)
    assert good_point_test(SQUARE, outside, r, theta)


def _chord_sweep_good(K, ss, r, theta):
    """Oracle: both tilted chords through each boundary point are at least
    r long or miss the interior."""
    bp = K.boundary_point(ss)
    good = np.ones(np.shape(ss), dtype=bool)
    for sign in (-1, 1):
        c = chord(K, bp.z, bp.sigma + sign * 2 * theta)
        good &= ~c.hits_interior | (c.delta >= r)
    return good


def test_exact_non_good_set_matches_chord_sweep():
    rng = np.random.default_rng(SEED + 6)
    domains = [SQUARE, ConvexDomain.polygon([0j, 3 + 0j, 3 + 1j, 1j]),
               ConvexDomain.regular_polygon(8),
               ConvexDomain.regular_polygon(3),
               ConvexDomain.regular_polygon(5),
               # a blunted wedge: the chords from both tip vertices cut
               # across the short tip edge, so those vertices are non-good
               ConvexDomain.polygon([-1j, 10 - 0.002j, 10 + 0.002j, 1j])]
    domains += [random_convex_polygon(rng, int(rng.integers(3, 10)))
                for _ in range(8)]
    offsets = np.geomspace(1e-10, 1e-2, 90)
    beside = np.array([-1e-7, -1e-10, -1e-11, 1e-11, 1e-10, 1e-7])
    seen_bad = seen_bad_vertices = 0
    for K in domains:
        L = K.perimeter
        theta = covering_tilt_angle(K)
        verts = np.array([K.vertex_s(i) for i in range(len(K.vertices))])
        for frac in (0.05, 0.3, 0.999):
            r = frac * K.width / 108
            intervals = np.reshape(covering._non_good_set(K, r, theta),
                                   (-1, 2))
            ends = intervals.ravel()
            # uniform points, log-spaced offsets around every vertex (into
            # its snap zone), and points right beside every interval end
            ss = np.mod(np.concatenate(
                [rng.uniform(0.0, L, 3000)]
                + [v + sg * offsets * L for v in verts for sg in (-1, 1)]
                + [(ends[:, None] + beside * L).ravel()]), L)
            oracle_bad = ~_chord_sweep_good(K, ss, r, theta)
            exact_bad = np.zeros(ss.shape, dtype=bool)
            for lo, hi in intervals:
                for x in (ss, ss - L):     # the zone of vertex 0 starts < 0
                    exact_bad |= (lo <= x) & (x <= hi)
            miss = ss[oracle_bad != exact_bad]
            gap = np.abs((miss[:, None] - ends + 0.5 * L) % L - 0.5 * L)
            assert (gap.min(axis=1, initial=np.inf) <= 1e-12 * L).all(), (
                K, frac, miss)
            seen_bad += int(oracle_bad.sum())
            # a vertex lies in no edge interval, only in its own snap zone
            vertex_bad = ((intervals[:, 0] <= verts[:, None])
                          & (verts[:, None] <= intervals[:, 1])).any(axis=1)
            assert (vertex_bad
                    == ~_chord_sweep_good(K, verts, r, theta)).all(), K
            seen_bad_vertices += int(vertex_bad.sum())
    assert seen_bad > 0 and seen_bad_vertices > 0


def test_disk_with_no_good_point_raises_family_too_large():
    # at theta = 0.783 every tilted chord is 2 cos(1.566) ~ 0.0096 long,
    # under r = 0.9 w/108 ~ 0.0167, so no point of the circle is good
    r = 0.9 * DISK.width / 108
    assert not good_point_test(DISK, DISK.boundary_point(1.0), r, 0.783)
    with pytest.raises(FamilyTooLarge):
        build_covering(DISK, r, 0.783)


def test_elementary_arcs_disk_empty():
    assert elementary_arcs(DISK, 0.01) == ()


def test_elementary_arcs_square_hug_corners():
    r = 0.008
    arcs = elementary_arcs(SQUARE, r)
    assert arcs
    bound = 4 * r * SQUARE.diameter / SQUARE.width
    phi = wedge_angle(covering_tilt_angle(SQUARE))
    corners = [SQUARE.vertex_s(i) for i in range(4)]
    L = SQUARE.perimeter
    for arc in arcs:
        assert arc.length_ok and arc.var_ok
        assert arc.length <= bound * (1 + 1e-9)
        assert arc.var_alpha >= phi - 1e-9
        # every arc straddles some corner (the turn must come from it)
        assert any((c - arc.start_s) % L <= arc.length + 1e-9
                   for c in corners)


def test_elementary_arcs_pentagon_always_empty():
    # every corner turn (72 degrees) is below the wedge angle, so tilted
    # chords never cross an adjacent edge and no short chords exist
    pent = ConvexDomain.regular_polygon(5, circumradius=1.0)
    phi = wedge_angle(covering_tilt_angle(pent))
    assert all(pent.vertex_point(i).omega < phi for i in range(5))
    for frac in (0.999, 0.5, 0.05):
        assert elementary_arcs(pent, pent.width / 108 * frac) == ()


def test_maximal_family_square():
    r = 0.008
    arcs = elementary_arcs(SQUARE, r)
    fam = maximal_disjoint_family(arcs, perimeter=SQUARE.perimeter)
    assert 1 <= len(fam) <= 4
    for a, b in itertools.combinations(fam, 2):
        assert (a.end_s < b.start_s or b.end_s < a.start_s)


def test_maximal_family_greedy_versus_exhaustive():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(20):
        arcs = []
        for _ in range(rng.integers(1, 8)):
            s = float(rng.uniform(0, 9))
            arcs.append(BoundaryArc(s, s + float(rng.uniform(0.1, 1.5)),
                                    "elementary"))
        try:
            fam = maximal_disjoint_family(arcs, perimeter=10.0)
        except FamilyTooLarge:
            continue
        chosen = set(id(a) for a in fam)
        # pairwise disjoint and not extendable by any left-out arc
        for a, b in itertools.combinations(fam, 2):
            assert a.end_s < b.start_s or b.end_s < a.start_s
        for arc in arcs:
            if id(arc) in chosen:
                continue
            assert any(not (arc.end_s < c.start_s or c.end_s < arc.start_s)
                       for c in fam)


def test_family_of_five_rejected():
    arcs = [BoundaryArc(2.0 * i, 2.0 * i + 0.5, "elementary")
            for i in range(5)]
    with pytest.raises(FamilyTooLarge):
        maximal_disjoint_family(arcs, perimeter=10.0)


def test_build_covering_square_structure():
    r = 0.008
    d, w, L = SQUARE.diameter, SQUARE.width, SQUARE.perimeter
    cov = build_covering(SQUARE, r)
    assert cov.k0 == 4
    assert cov.total_measure <= 48 * r * d / w + 1e-12
    lo, hi = 8 * r * d / w, 24 * r * d / w
    flank_lo, flank_hi = 4 * r * d / w, 16 * r * d / w
    for comp in cov.components:
        assert lo < comp.arc.length <= hi + 1e-12
        assert comp.central.kind == "elementary"
        assert flank_lo - 1e-12 <= comp.flank_minus.length <= flank_hi + 1e-12
        assert flank_lo - 1e-12 <= comp.flank_plus.length <= flank_hi + 1e-12
        joined = (comp.flank_minus.length + comp.central.length
                  + comp.flank_plus.length)
        assert joined == pytest.approx(comp.arc.length, rel=1e-12)
    assert not cov.contains_s(cov.cut_point)
    assert cov.checked_points > 2000


def test_build_covering_square_mesh_coverage():
    cov = build_covering(SQUARE, 0.008)
    theta = cov.theta
    rng = np.random.default_rng(SEED + 3)
    for s in rng.uniform(0, SQUARE.perimeter, 400):
        bp = SQUARE.boundary_point(s)
        assert good_point_test(SQUARE, bp, cov.r, theta) or cov.contains_s(s)


def test_uncovered_non_good_points_raise_covering_invalid(monkeypatch):
    # with no elementary arcs the non-good points next to the corners stay
    # uncovered, which the verification sweep must report as a typed error
    monkeypatch.setattr(covering, "_elementary_arcs", lambda *a, **k: ())
    with pytest.raises(CoveringInvalid, match="neither good nor covered"):
        build_covering(SQUARE, 0.008)


def test_build_covering_disk_trivial():
    cov = build_covering(DISK, 0.01)
    assert cov.k0 == 0
    assert cov.cut_point == pytest.approx(DISK.perimeter / 2)
    assert cov.total_measure == 0.0


def test_build_covering_rejects_large_r():
    with pytest.raises(ValueError):
        build_covering(SQUARE, SQUARE.width / 108)


def test_covering_record_is_serializable():
    import json

    cov = build_covering(SQUARE, 0.006)
    text = json.dumps(cov.as_record())
    back = json.loads(text)
    assert back["k0"] == cov.k0
    assert len(back["components"]) == cov.k0


def test_max_feasible_r_square():
    best = max_feasible_r(SQUARE)
    assert 0 < best < SQUARE.width / 108
    build_covering(SQUARE, best)


_COVERING_ERRORS = (ValueError, NoCutPoint, FamilyTooLarge, CoveringInvalid)


def test_max_feasible_r_is_the_hard_bound():
    # r builds, and the next float up breaks 108 r d/w < d
    rng = np.random.default_rng(SEED + 9)
    domains = [SQUARE, ConvexDomain.polygon([0j, 3 + 0j, 3 + 1j, 1j]),
               ConvexDomain.regular_polygon(8), DISK]
    domains += [random_convex_polygon(rng, k) for k in range(3, 11)]
    for K in domains:
        for theta in (None, 0.999 * math.pi / 20):
            r = max_feasible_r(K, theta)
            build_covering(K, r, theta)
            with pytest.raises(ValueError, match="too large"):
                build_covering(K, math.nextafter(r, math.inf), theta)


def test_max_feasible_r_builds_once(monkeypatch):
    chords, builds = [], []

    def counting_chord(*args, **kwargs):
        chords.append(1)
        return chord(*args, **kwargs)

    def counting_build(*args, **kwargs):
        builds.append(1)
        return build_covering(*args, **kwargs)

    monkeypatch.setattr(covering, "chord", counting_chord)
    with pytest.raises(ValueError):
        covering.build_covering(SQUARE, SQUARE.width / 108)
    assert chords == []
    monkeypatch.setattr(covering, "build_covering", counting_build)
    assert max_feasible_r(SQUARE) == 0.009259259259259257
    assert len(builds) == 1


def test_covering_gate_opens_on_the_square():
    # n*: the least degree whose schedule radius r(n) = 300 (d^2/w) log n/n
    # is feasible; r(n) decreases for n >= 3
    best = max_feasible_r(SQUARE)
    lo, hi = 3, 10 ** 8
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if r_schedule(mid, SQUARE).r <= best:
            hi = mid
        else:
            lo = mid
    assert 8e5 < hi < 1e6
    build_covering(SQUARE, r_schedule(hi, SQUARE).r)
    with pytest.raises(_COVERING_ERRORS):
        build_covering(SQUARE, r_schedule(hi - 1, SQUARE).r)


def test_r_schedule_disk_value():
    sch = r_schedule(math.e, DISK)
    assert sch.r == pytest.approx(600 / math.e, rel=1e-12)


def test_r_schedule_gates():
    sch = r_schedule(100, SQUARE)
    d, w = SQUARE.diameter, SQUARE.width
    assert sch.r1 == pytest.approx(1e-4 * w * w / d, rel=1e-12)
    assert sch.n0 == 1e20
    assert sch.n1 == 73.0
    with pytest.raises(ValueError):
        r_schedule(1, SQUARE)


def test_r_schedule_monotone_decreasing():
    vals = [r_schedule(n, SQUARE).r for n in range(3, 400, 7)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_r_schedule_threshold_crossing():
    # the first degree with r(n) <= r1 sits where n/log n reaches
    # 3e6 * (d/w)^3; locate it by bisection and check both sides
    sch0 = r_schedule(2, SQUARE)
    lo, hi = 2, 10 ** 12
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if r_schedule(mid, SQUARE).r <= sch0.r1:
            hi = mid
        else:
            lo = mid
    assert r_schedule(hi, SQUARE).r <= sch0.r1 < r_schedule(lo, SQUARE).r
    assert hi > 10 ** 6


def _belt_polynomial(bare_corner_s=1.0, n_slots=60, gap=0.35, inset=0.02):
    """Roots spread along the square boundary except near one corner, each
    nudged inward; |p|^q mass then peaks inside that corner's component."""
    L = SQUARE.perimeter
    roots = []
    for s in np.linspace(0, L, n_slots, endpoint=False):
        if min((s - bare_corner_s) % L, (bare_corner_s - s) % L) <= gap:
            continue
        z = complex(SQUARE.gamma(s))
        c = 0.5 + 0.5j
        roots.append(z + inset * (c - z) / abs(c - z))
    return RootPolynomial(1.0, tuple(roots))


def test_case_split_disk_is_case_one():
    cov = build_covering(DISK, 0.01)
    p = RootPolynomial(1.0, tuple(np.zeros(8)))
    cs = case_split(p, DISK, 2.0, cov)
    assert cs.case == "I"
    assert cs.best_component is None
    assert not cs.detail["case_I_gate"]


def test_case_split_root_belt_is_case_two():
    cov = build_covering(SQUARE, 0.005)
    p = _belt_polynomial()
    cs = case_split(p, SQUARE, 2.0, cov)
    assert cs.case == "II.1"
    ids = [rep.audit_id for rep in cs.reports]
    assert "case_intA" in ids and "case_2ulev" in ids
    assert all(rep.passed for rep in cs.reports)
    assert 2 * cs.u < cs.v
    # the heaviest component is the one around the bare corner
    s0 = cs.best_component.arc.start_s % SQUARE.perimeter
    assert abs(s0 + cs.best_component.arc.length / 2 - 1.0) < 0.1


def test_case_split_exactly_one_case():
    rng = np.random.default_rng(SEED + 4)
    cov_sq = build_covering(SQUARE, 0.006)
    cov_disk = build_covering(DISK, 0.01)
    for trial in range(6):
        K, cov = (SQUARE, cov_sq) if trial % 2 else (DISK, cov_disk)
        pts = K.sample_uniform(int(rng.integers(4, 12)), rng)
        p = RootPolynomial(1.0, tuple(pts))
        cs = case_split(p, K, float(rng.choice([1.0, 2.0])), cov)
        assert cs.case in ("I", "II.1", "II.2")
        if cs.case == "I":
            assert cs.best_component is None and cs.u is None
        else:
            assert cs.best_component is not None
            assert 0 <= cs.u <= cs.v


def test_case_split_rejects_sup_norm():
    cov = build_covering(DISK, 0.01)
    p = RootPolynomial(1.0, (0.0,))
    with pytest.raises(ValueError):
        case_split(p, DISK, math.inf, cov)
    with pytest.raises(ValueError):
        case_split(p, DISK, math.nan, cov)


def _counting(monkeypatch, module, calls):
    original = module._adaptive_log_integral

    def counted(p, K, q, pieces, derivative):
        calls.append((module.__name__, derivative))
        return original(p, K, q, pieces, derivative)
    monkeypatch.setattr(module, "_adaptive_log_integral", counted)


def test_case_split_integrates_each_integrand_once(monkeypatch):
    calls = []
    for module in (covering, polynomials):
        _counting(monkeypatch, module, calls)
    case_split(_belt_polynomial(), SQUARE, 2.0, build_covering(SQUARE, 0.005))
    # one pass for |p|^q and |p'|^q together, on pieces cut at H and the
    # components
    assert calls == [("oscillab.covering", True)]


def test_case_split_masses_are_nested():
    rng = np.random.default_rng(SEED + 5)
    cov = build_covering(SQUARE, 0.005)
    cases = [(_belt_polynomial(), 2.0)]
    for trial in range(4):
        pts = SQUARE.sample_uniform(int(rng.integers(4, 16)), rng)
        cases.append((RootPolynomial(1.0, tuple(pts)),
                      float(rng.choice([1.0, 2.0, 3.5]))))
    seen = set()
    for p, q in cases:
        cs = case_split(p, SQUARE, q, cov)
        seen.add(cs.case)
        det = cs.detail
        assert det["log_mass_h_covered"] <= det["log_mass_h"]
        assert det["log_mass_h"] <= det["log_mass_total"]
        if "component_log_masses" in det:
            # the components are disjoint and hold the covered part of H
            comps = np.logaddexp.reduce(det["component_log_masses"])
            assert det["log_mass_h_covered"] <= comps + 1e-12
            assert comps <= det["log_mass_total"] + 1e-12
    assert "I" in seen and "II.1" in seen


def _dense_log_range(p, K, a, b):
    """(min, max) of log|p(gamma(s))| over s in [a, b]: a 20 001-point
    grid, then each extremum zoomed six times into a 1 001-point grid
    between its grid neighbours, down to a few ulps of s, as a kink at a
    vertex needs; every point lies in [a, b]."""
    L = K.perimeter
    f = lambda s: polynomials.log_abs(p, K.gamma(s % L))
    out = []
    for sign in (-1.0, 1.0):
        lo, hi, best = a, b, -math.inf
        for size in (20_001,) + (1001,) * 6:
            ss = np.linspace(lo, hi, size)
            vals = sign * f(ss)
            i = int(np.argmax(vals))
            best = max(best, float(vals[i]))
            lo, hi = ss[max(i - 1, 0)], ss[min(i + 1, size - 1)]
        out.append(sign * best)
    return tuple(out)


@pytest.mark.parametrize("K", [SQUARE, ConvexDomain.polygon([0, 3, 3 + 1j,
                                                             1j])],
                         ids=["square", "rect3x1"])
def test_arc_extrema_stay_inside_the_arc(K):
    # the polish of the grid min and max keeps to the arc: both lie in the
    # range of |p| over a dense grid inside it, and match its ends
    rng = np.random.default_rng(SEED + 6)
    L = K.perimeter
    for _ in range(25):
        start = rng.uniform(0.0, L)
        arc = BoundaryArc(start, start + rng.uniform(0.005, 0.2),
                          "component")
        p = RootPolynomial(1.0, tuple(K.sample_uniform(
            int(rng.integers(5, 80)), rng)))
        lo, hi = covering._arc_extrema(p, K, arc)
        want_lo, want_hi = _dense_log_range(p, K, arc.start_s, arc.end_s)
        assert want_lo - 1e-13 <= lo <= hi <= want_hi + 1e-13, (
            arc, lo - want_lo, hi - want_hi)
        assert (lo, hi) == pytest.approx((want_lo, want_hi), rel=0,
                                         abs=1e-9)
