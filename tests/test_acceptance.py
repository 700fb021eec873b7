"""Acceptance gate: twelve headline checks, one test per criterion.

Each test prints a one-line verdict and enforces the stated tolerance and,
where given, a wall-clock budget.  Criterion ten's pentagon clause asks for
a configuration that does not exist on that domain; the test states the
geometric certificate and fails rather than substituting a weaker check.
"""

import math
import time

import numpy as np
import pytest

from oscillab.audits import (
    _segment_sup_product,
    audit_trial,
    chebyshev_floor,
    depth_theorem_audit,
    h_set,
    infnorm_theorem_audit,
    nikolskii_audit,
    tilted_normal_audit,
    two_point_audit,
    zero_class_product_audits,
)
from oscillab.covering import (
    build_covering,
    case_split,
    covering_tilt_angle,
    elementary_arcs,
    good_point_test,
    wedge_angle,
)
from oscillab.errors import (
    DegenerateTangent,
    NoIntersection,
    SingularPoint,
    ZeroChord,
)
from oscillab.geometry import (
    ConvexDomain,
    angle_diam_arc_bounds,
    triangle_containment_check,
)
from oscillab.polynomials import (
    RootPolynomial,
    inverse_markov_factor,
    log_derivative,
)
from oscillab.sampling import (
    random_convex_polygon,
    random_domain,
    random_roots_in,
    random_roots_loose,
    trial_rng,
)
from oscillab.search import (
    SearchConfig,
    floor_consistency_check,
    minimize_oscillation,
    upper_witness_check,
)

SEED = 20260818


def _verdict(num, text):
    print(f"criterion {num:02d} PASS: {text}")


# ------------------------------------------------------------ criterion 1

def test_c01_disk_markov_factor_equals_degree():
    t0 = time.monotonic()
    K = ConvexDomain.disk(0j, 1.0)
    for n in range(1, 21):
        p = RootPolynomial(1.0, (0j,) * n)
        for q in (1.0, 2.0, math.inf):
            M = inverse_markov_factor(p, K, q).M
            assert M == pytest.approx(n, rel=1e-6), (n, q, M)
            assert M >= n / 2.0 - 1e-9
    elapsed = time.monotonic() - t0
    _verdict(1, f"60 disk cells match the degree, {elapsed:.2f}s")
    assert elapsed < 5.0


# ------------------------------------------------------------ criterion 2

def test_c02_pointwise_derivative_floor_on_root_disks():
    t0 = time.monotonic()
    rng = trial_rng(SEED, 2)
    worst = math.inf
    for _ in range(1000):
        n = int(rng.integers(1, 41))
        R = float(rng.uniform(0.3, 3.0))
        c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        rad = R * np.sqrt(rng.uniform(0.0, 1.0, n))
        ang = rng.uniform(0.0, 2.0 * math.pi, n)
        p = RootPolynomial(1.0, tuple(c + rad * np.exp(1j * ang)))
        zs = c + R * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 100))
        with np.errstate(divide="ignore", invalid="ignore"):
            lhs = np.abs(log_derivative(p, zs))
        # a boundary point sitting on a root satisfies the bound trivially
        lhs = np.where(np.isnan(lhs), np.inf, lhs)
        rhs = n / (2.0 * R)
        assert np.all(lhs >= rhs * (1.0 - 1e-9)), (n, R, float(lhs.min()))
        worst = min(worst, float(lhs.min()) / rhs)
    elapsed = time.monotonic() - t0
    _verdict(2, f"10^5 point checks, worst lhs/rhs ratio {worst:.3f}, "
                f"{elapsed:.1f}s")
    assert elapsed < 60.0


# ------------------------------------------------------------ criterion 3

def test_c03_derivative_sup_versus_lq_floor_on_polygons():
    t0 = time.monotonic()
    rng = trial_rng(SEED, 3)
    polys = [random_convex_polygon(rng, vertices=int(rng.integers(4, 10)))
             for _ in range(20)]
    worst = math.inf
    for t in range(1000):
        K = polys[t % 20]
        q = 1.0 if t % 2 == 0 else 2.0
        deg = int(rng.integers(1, 26))
        p = RootPolynomial(1.0, random_roots_loose(K, deg, rng))
        rep = nikolskii_audit(p, K, q)
        assert rep.applicable
        assert rep.passed, (t, q, deg, rep.as_record())
        worst = min(worst, rep.margin)
    elapsed = time.monotonic() - t0
    _verdict(3, f"1000 trials on 20 polygons, worst log margin "
                f"{worst:.3g}, {elapsed:.1f}s")
    assert elapsed < 120.0


# ------------------------------------------------------------ criterion 4

def test_c04_heavy_set_holds_half_the_mass():
    rng = trial_rng(SEED, 4)
    for t in range(500):
        K = random_domain(rng)
        deg = int(rng.integers(1, 26))
        p = RootPolynomial(1.0, random_roots_loose(K, deg, rng))
        q = float(rng.uniform(1.0, 4.0))
        rep = h_set(p, K, q).mass_report()
        assert rep.applicable and rep.passed, (t, q, deg, rep.as_record())
    _verdict(4, "500 heavy-set mass checks, zero failures")


# ------------------------------------------------------------ criterion 5

def _min_monic_sup(length, k, trials, rng):
    """Smallest sup over the segment among random monic root sets.

    A coarse shared grid ranks the candidates; anything that lands near
    the floor is re-measured with the fine grid plus golden polish, so
    the returned minimum never leans on an under-resolved sup.
    """
    half = length / 2.0
    loose = trials - 500
    ws = np.empty((trials, k), dtype=complex)
    ws[:loose] = (rng.uniform(-1.5 * half, 1.5 * half, (loose, k))
                  + 1j * rng.normal(0.0, half / 2.0, (loose, k)))
    nodes = half * np.cos((2 * np.arange(1, k + 1) - 1) * math.pi / (2 * k))
    # a tight cloud around the optimal nodes probes the floor from above
    ws[loose:] = nodes + (2e-3 * half) * (
        rng.normal(0.0, 1.0, (500, k)) + 1j * rng.normal(0.0, 1.0, (500, k)))
    xs = np.linspace(-half, half, 513)
    sups = np.empty(trials)
    for lo in range(0, trials, 512):
        block = ws[lo:lo + 512]
        prod = np.abs(xs[None, :, None] - block[:, None, :]).prod(axis=2)
        sups[lo:lo + 512] = prod.max(axis=1)
    floor = chebyshev_floor(length, k)
    suspect = np.where(sups < floor * 1.01)[0]
    for i in suspect:
        sups[i] = _segment_sup_product(ws[i], half)
    return float(sups.min()), len(suspect)


def test_c05_monic_segment_sup_never_beats_chebyshev():
    rng = trial_rng(SEED, 5)
    for length in (1.0, 2.0, 4.0):
        for k in range(1, 7):
            floor = chebyshev_floor(length, k)
            best, remeasured = _min_monic_sup(length, k, 10_000, rng)
            assert best >= floor - 1e-6, (length, k, best, floor, remeasured)
            half = length / 2.0
            nodes = half * np.cos(
                (2 * np.arange(1, k + 1) - 1) * math.pi / (2 * k))
            attained = _segment_sup_product(nodes.astype(complex), half)
            assert abs(attained - floor) <= 1e-9, (length, k, attained)
    _verdict(5, "18 cells, 10^4 candidates each, floor respected and "
                "attained by the cosine nodes")


# ------------------------------------------------------------ criterion 6

def test_c06_chord_flatness_and_triangle_containment():
    t0 = time.monotonic()
    rng = trial_rng(SEED, 6)
    checked = 0
    for _ in range(6000):
        if checked == 1000:
            break
        K = random_convex_polygon(rng, vertices=int(rng.integers(4, 10)))
        s1 = rng.uniform(0.0, K.perimeter)
        s2 = (s1 + rng.uniform(0.01, 0.25) * K.perimeter) % K.perimeter
        b1, b2 = K.boundary_point(s1), K.boundary_point(s2)
        if not (0.0 < abs(b1.z - b2.z) < K.width):
            continue
        try:
            rep = angle_diam_arc_bounds(K, b1, b2)
        except (DegenerateTangent, NoIntersection):
            continue
        checked += 1
        assert rep.passed, (s1, s2, rep.margins)
    assert checked == 1000
    contained = 0
    for _ in range(4000):
        if contained == 1000:
            break
        K = random_convex_polygon(rng, vertices=int(rng.integers(4, 9)))
        s1 = rng.uniform(0.0, K.perimeter)
        s2 = (s1 + rng.uniform(0.02, 0.2) * K.perimeter) % K.perimeter
        b1, b2 = K.boundary_point(s1), K.boundary_point(s2)
        rep = triangle_containment_check(K, b1, b2, b1.alpha_plus,
                                         b2.alpha_minus + math.pi)
        if not rep.applicable:
            continue
        contained += 1
        assert rep.violations == 0, (s1, s2, rep)
    assert contained == 1000
    elapsed = time.monotonic() - t0
    _verdict(6, f"1000 chord-flatness and 1000 containment trials, "
                f"{elapsed:.1f}s")
    assert elapsed < 300.0


# ------------------------------------------------------------ criterion 7

def test_c07_tilted_normal_floor_and_class_products():
    rng = trial_rng(SEED, 7)
    live = 0
    class_checked = 0
    for _ in range(1500):
        if live == 500:
            break
        K = random_convex_polygon(rng, vertices=int(rng.integers(4, 9)))
        deg = int(rng.integers(5, 51))
        p = RootPolynomial(1.0, random_roots_in(K, deg, rng))
        bp = K.boundary_point(rng.uniform(0.0, K.perimeter))
        try:
            rep = tilted_normal_audit(p, bp, K)
        except SingularPoint:
            continue
        if not rep.applicable or rep.detail.get("case") not in ("ii", "iii"):
            continue
        live += 1
        assert rep.passed, (deg, rep.as_record())
        try:
            class_reports = zero_class_product_audits(p, bp, K)
        except (SingularPoint, ZeroChord):
            class_reports = []
        for crep in class_reports:
            if crep.applicable:
                class_checked += 1
                assert crep.passed, (deg, crep.as_record())
    assert live == 500
    assert class_checked >= 1000
    # outward-pinned normals at sharp corners trigger the n/(2d) branch
    corner_hits = 0
    for t in range(200):
        if corner_hits == 120:
            break
        K = random_convex_polygon(rng, vertices=3)
        turns = [(K.boundary_point(K.vertex_s(i)).omega, i) for i in range(3)]
        bp = K.boundary_point(K.vertex_s(max(turns)[1]))
        deg = int(rng.integers(5, 51))
        p = RootPolynomial(1.0, random_roots_in(K, deg, rng))
        sigma = bp.alpha_minus + math.pi / 2.0
        try:
            rep = tilted_normal_audit(p, bp, K, sigma=sigma)
        except SingularPoint:
            continue
        if not rep.applicable or rep.detail["case"] != "i":
            continue
        corner_hits += 1
        assert rep.passed, (deg, rep.as_record())
    assert corner_hits == 120
    _verdict(7, f"500 chord-case trials, {class_checked} class products, "
                f"120 outward-corner trials, zero violations")


# ------------------------------------------------------------ criterion 8

def test_c08_two_point_alternative_near_corners():
    done = 0
    for attempt in range(900):
        if done == 500:
            break
        rep = audit_trial("twopoint", attempt, SEED + 8, {})[0]
        if not rep.applicable:
            continue
        done += 1
        assert rep.passed, (attempt, rep.as_record())
    assert done == 500
    # clustering most roots near the tangent crossing forces the
    # both-values-small branch
    engineered = 0
    for t in range(120):
        if engineered == 50:
            break
        rng = trial_rng(SEED + 88, t)
        K = random_convex_polygon(rng, vertices=int(rng.integers(4, 8)))
        v = int(rng.integers(0, len(K.vertices)))
        sv = K.vertex_s(v)
        turn = K.boundary_point(sv).omega
        s0 = min(1.0, 2.0 * math.sin(math.pi - turn)) / 384.0 * K.diameter
        ds = 0.3 * s0
        b1 = K.boundary_point((sv - ds) % K.perimeter)
        b2 = K.boundary_point((sv + ds) % K.perimeter)
        a, ap = b1.alpha, b2.alpha
        if not (a < ap < a + math.pi):
            continue
        u1 = complex(math.cos(a), math.sin(a))
        u2 = complex(math.cos(ap), math.sin(ap))
        den = u1.real * (-u2.imag) + u2.real * u1.imag
        rel = b2.z - b1.z
        T = b1.z + ((rel.real * (-u2.imag) + u2.real * rel.imag) / den) * u1
        R = 3.0 * max(abs(T - b1.z), abs(T - b2.z))
        near = []
        for _ in range(4000):
            if len(near) == 12:
                break
            w = T + 0.9 * R * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if abs(w - T) <= 0.9 * R and K.contains(w):
                near.append(w)
        far = [w for w in random_roots_in(K, 60, rng)
               if abs(w - T) > 1.05 * R][:8]
        if len(near) < 12 or len(far) < 8:
            continue
        p = RootPolynomial(1.0, tuple(near) + tuple(far))
        rep = two_point_audit(p, b1, b2, K, alpha=a, alpha_prime=ap)
        if not rep.applicable:
            continue
        assert rep.detail["mu"] >= p.n / 2.0
        assert rep.detail["reported"] == "i", rep.as_record()
        assert rep.passed, rep.as_record()
        engineered += 1
    assert engineered == 50
    _verdict(8, "500 random two-point trials and 50 clustered-root trials, "
                "zero violations")


# ------------------------------------------------------------ criterion 9

def test_c09_global_derivative_norm_floors():
    rng = trial_rng(SEED, 9)
    for t in range(500):
        K = random_convex_polygon(rng, vertices=int(rng.integers(3, 10)))
        deg = int(rng.integers(1, 51))
        p = RootPolynomial(1.0, random_roots_in(K, deg, rng))
        rep = infnorm_theorem_audit(p, K)
        assert rep.applicable and rep.passed, (t, deg, rep.as_record())
    hexagon = ConvexDomain.regular_polygon(6, circumradius=1.0)
    square = ConvexDomain.unit_square()
    for t in range(300):
        K = square if t % 2 == 0 else hexagon
        q = 1.0 if (t // 2) % 2 == 0 else 2.0
        deg = int(rng.integers(1, 41))
        p = RootPolynomial(1.0, random_roots_in(K, deg, rng))
        rep = depth_theorem_audit(p, K, q)
        assert rep.applicable and rep.passed, (t, q, deg, rep.as_record())
    triangle = ConvexDomain.regular_polygon(3, circumradius=1.0)
    rep = depth_theorem_audit(RootPolynomial(1.0, (0j,)), triangle, 2.0)
    assert not rep.applicable
    _verdict(9, "500 sup-norm and 300 depth trials pass; the regular "
                "triangle reports not-applicable")


# ----------------------------------------------------------- criterion 10

def test_c10_covering_family_invariants():
    square = ConvexDomain.unit_square()
    r = 0.008
    cov = build_covering(square, r, verify_mesh=10_000)
    d, w = square.diameter, square.width
    assert cov.k0 <= 4, cov.k0
    for comp in cov.components:
        assert 8 * r * d / w < comp.arc.length <= 24 * r * d / w, comp
    assert cov.total_measure <= 48.0 * r * d / w + 1e-12
    assert cov.checked_points >= 10_000
    # independent sweep: every mesh point is good or lies in the cover
    L = square.perimeter
    for s in np.linspace(0.0, L, 10_000, endpoint=False):
        s = float(s)
        if good_point_test(square, square.boundary_point(s), r):
            continue
        assert cov.contains_s(s), s
    disk_cov = build_covering(ConvexDomain.disk(0j, 1.0), 0.005)
    assert disk_cov.k0 == 0
    print("criterion 10 square and disk clauses hold; pentagon next")
    pentagon = ConvexDomain.regular_polygon(5, circumradius=1.0)
    r_gate = pentagon.width / 108.0
    found = None
    for frac in np.geomspace(1e-6, 0.999, 44):
        r_try = float(frac * r_gate)
        if elementary_arcs(pentagon, r_try):
            found = r_try
            break
    phi = wedge_angle(covering_tilt_angle(pentagon))
    max_turn = max(pentagon.boundary_point(pentagon.vertex_s(i)).omega
                   for i in range(5))
    assert found is not None, (
        "no admissible radius yields a nonempty exceptional set on the "
        f"regular pentagon: every corner turns {math.degrees(max_turn):.1f} "
        f"deg, under the {math.degrees(phi):.1f} deg wedge angle, so every "
        "boundary point passes the tilted-chord test at every radius below "
        "the width/108 gate; the pentagon clause cannot be satisfied")


# ----------------------------------------------------------- criterion 11

_SEARCH_RUNS = {}


def _search_cells():
    if not _SEARCH_RUNS:
        domains = (
            ("disk", ConvexDomain.disk(0j, 1.0)),
            ("square", ConvexDomain.unit_square()),
            ("rect3x1", ConvexDomain.polygon([0j, 3 + 0j, 3 + 1j, 1j])),
        )
        for name, K in domains:
            for n in (4, 8, 16):
                cfg = SearchConfig(n=n, q=2.0, budget=100_000,
                                   seed=SEED + n, restarts=4)
                _SEARCH_RUNS[(name, n)] = (K, minimize_oscillation(K, cfg))
    return _SEARCH_RUNS


def test_c11_search_beats_derivative_ceiling_everywhere():
    t0 = time.monotonic()
    for (name, n), (K, result) in _search_cells().items():
        rep = upper_witness_check(K, n, 2.0, result)
        assert rep.applicable and rep.passed, (name, n, result.best_M)
        ceiling = 15.0 / K.diameter * n
        print(f"  {name} n={n}: best_M {result.best_M:.6f} "
              f"< ceiling {ceiling:.3f}")
    elapsed = time.monotonic() - t0
    _verdict(11, f"9 search cells all produce witnesses, {elapsed:.1f}s")
    assert elapsed < 600.0


# ----------------------------------------------------------- criterion 12

def _belt_polynomial(K, bare_corner_s=1.0, n_slots=60, gap=0.35,
                     inset=0.02):
    # roots ring the square except near one corner, nudged inward, so the
    # boundary mass concentrates inside that corner's covering component
    L = K.perimeter
    center = 0.5 + 0.5j
    roots = []
    for s in np.linspace(0.0, L, n_slots, endpoint=False):
        if min((s - bare_corner_s) % L, (bare_corner_s - s) % L) <= gap:
            continue
        z = complex(K.gamma(s))
        roots.append(z + inset * (center - z) / abs(center - z))
    return RootPolynomial(1.0, tuple(roots))


def test_c12_asymptotic_floor_policy_and_case_dichotomy():
    square = ConvexDomain.unit_square()
    n0 = max(1e20, (square.diameter / square.width) ** 5)
    print(f"criterion 12: the n/log n floor binds only for n >= {n0:.2e}, "
          "far beyond desk degrees; consistency checks substitute")
    assert n0 >= 1e20
    for (name, n), (K, result) in _search_cells().items():
        rep = floor_consistency_check(K, n, 2.0, result)
        assert rep.applicable and rep.passed, (name, n, rep.as_record())
    disk = ConvexDomain.disk(0j, 1.0)
    cov_disk = build_covering(disk, 0.01)
    cov_square = build_covering(square, 0.005)
    rng = trial_rng(SEED, 12)
    instances = (
        (RootPolynomial(1.0, (0j,) * 8), disk, cov_disk),
        (RootPolynomial(1.0, tuple(random_roots_in(square, 12, rng))),
         square, cov_square),
        (_belt_polynomial(square), square, cov_square),
    )
    seen = set()
    for p, K, cov in instances:
        cs = case_split(p, K, 2.0, cov)
        assert cs.case in ("I", "II.1", "II.2")
        seen.add(cs.case)
        for rep in cs.reports:
            assert rep.passed, (cs.case, rep.as_record())
    assert {"I", "II.1"} <= seen
    _verdict(12, "floor consistency on all 9 search runs and a one-case "
                 "dichotomy with passing chain bounds")
