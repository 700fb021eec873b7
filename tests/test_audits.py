"""Audit module tests: closed-form cases first, then randomized batches.

Expected numbers are either exact arithmetic (circle norms, Chebyshev
floors, explicit constants) or recomputed in-test by an independent
route (direct root sums, scalar product arithmetic, mesh oracles).
"""

import math

import mpmath
import numpy as np
import pytest

from oscillab import audits
from oscillab.audits import (
    AUDIT_IDS,
    chebyshev_floor,
    chebyshev_floor_check,
    classify_zeros,
    depth_theorem_audit,
    log_h_constant,
    h_point_log_gap,
    h_set,
    infnorm_theorem_audit,
    nikolskii_audit,
    point_in_h,
    run_batch,
    tilted_normal_audit,
    tilt_angle,
    transfinite_floor_audit,
    two_point_audit,
    zero_class_product_audits,
    zero_concentration_audit,
)
from oscillab.errors import NotInH, ZeroChord
from oscillab.geometry import ConvexDomain, margin_tol
from oscillab.polynomials import (RootPolynomial, log_abs, lq_norm,
                                  sup_norm, sup_norms)
from oscillab.sampling import (
    random_domain,
    random_roots_in,
    random_roots_loose,
    trial_rng,
)

SEED = 20260818

DISK = ConvexDomain.unit_disk()
SQUARE = ConvexDomain.unit_square()


# ---------------------------------------------------------------- nikolskii

def test_nikolskii_monomial_on_circle():
    p = RootPolynomial(1.0, [0j] * 6)
    rep = nikolskii_audit(p, DISK, 1.0)
    # |z^6| integrates to 2 pi on the unit circle; the floor is
    # (d/(2(q+1)))^(1/q) n^(-2/q) with sup norm 1
    assert rep.lhs == pytest.approx(math.log(2 * math.pi), rel=1e-9)
    assert rep.rhs == pytest.approx(math.log(2.0 / 4.0) - 2 * math.log(6),
                                    rel=1e-9)
    assert rep.passed


def test_nikolskii_constant_on_square():
    p = RootPolynomial(3.0, [])
    rep = nikolskii_audit(p, SQUARE, 2.0)
    assert math.exp(rep.lhs) == pytest.approx(2.0 * 3.0, rel=1e-9)
    assert math.exp(rep.rhs) == pytest.approx(
        3.0 * math.sqrt(math.sqrt(2.0) / 6.0), rel=1e-9)
    assert rep.passed


def test_nikolskii_at_infinite_q_holds_with_equality():
    # at q = inf both sides are the sup norm: the floor's factor
    # (d/(2(q+1)))^(1/q) n^(-2/q) tends to 1
    rng = trial_rng(SEED, 41)
    p = RootPolynomial(1.0, random_roots_in(SQUARE, 12, rng))
    rep = nikolskii_audit(p, SQUARE, math.inf)
    assert rep.lhs == rep.rhs == sup_norm(p, SQUARE).log_value
    assert rep.passed


def test_nikolskii_batch():
    reps = run_batch("nikolskii", 40, SEED)
    assert len(reps) == 40
    assert all(r.passed for r in reps)


# ------------------------------------------------------------------- h set

def test_h_set_constant_modulus_covers_circle():
    p = RootPolynomial(1.0, [0j] * 6)
    hs = h_set(p, DISK, 2.0)
    assert hs.measure == pytest.approx(2 * math.pi, rel=1e-12)
    assert hs.contains_s(1.234)
    rep = hs.mass_report()
    assert rep.passed
    # on-set mass equals the full mass, so the margin is exactly log 2
    assert rep.margin == pytest.approx(math.log(2.0), abs=1e-8)


def test_log_h_constant_at_huge_and_infinite_q():
    # 8 pi (q + 1) overflows near q = 7e306; the log form does not
    assert math.isfinite(log_h_constant(1e308))
    assert log_h_constant(1e308) == pytest.approx(math.log(0.5), abs=1e-300)
    assert log_h_constant(math.inf) == math.log(0.5)
    assert log_h_constant(2.0) == pytest.approx(
        math.log(0.5 * (8 * math.pi * 3.0) ** -0.5), rel=1e-15)


def test_h_set_rejects_infinite_q():
    with pytest.raises(ValueError, match="finite"):
        h_set(RootPolynomial(1.0, [0j]), DISK, math.inf)


def test_h_set_excludes_arc_around_boundary_root():
    # p = z - 1 on the unit circle: |p| = 2 |sin(t/2)|, sup = 2, so the
    # set is t in (2 asin c, 2 pi - 2 asin c) with c the threshold factor
    p = RootPolynomial(1.0, [1 + 0j])
    c = math.exp(log_h_constant(2.0))
    hs = h_set(p, DISK, 2.0)
    a = math.asin(c)
    assert hs.measure == pytest.approx(2 * math.pi - 4 * a, abs=1e-7)
    assert len(hs.intervals) == 1
    lo, hi = hs.intervals[0]
    assert lo == pytest.approx(2 * a, abs=1e-7)
    assert hi == pytest.approx(2 * math.pi - 2 * a, abs=1e-7)
    assert not hs.contains_s(0.0)
    assert hs.contains_s(math.pi)
    # total q-mass of |z-1|^2 over the circle is 4 pi
    assert hs.log_mass_total == pytest.approx(math.log(4 * math.pi),
                                              rel=1e-8)
    assert hs.mass_report().passed


def test_h_set_batch_mass():
    reps = run_batch("hset", 30, SEED)
    assert all(r.passed for r in reps)


@pytest.mark.parametrize("K, roots", [
    (DISK, [1, 1j, -1, -1j]),
    (ConvexDomain.unit_square(), [0.5, 1 + 0.5j, 0.5 + 1j, 0.5j]),
], ids=["disk-z4-1", "square-midpoints"])
def test_h_intervals_match_scalar_bisection(K, roots):
    p = RootPolynomial(1.0, roots)
    intervals, log_thr = audits._h_intervals(p, K, 2.0)
    L = K.perimeter
    ss = np.linspace(0.0, L, 4096, endpoint=False)
    above = log_abs(p, K.gamma(ss)) > log_thr

    def bisect(s_in, s_out):
        for _ in range(60):
            mid = 0.5 * (s_in + s_out)
            if log_abs(p, K.gamma(mid)) > log_thr:
                s_in = mid
            else:
                s_out = mid
            if abs(s_in - s_out) < 1e-12 * L:
                break
        return 0.5 * (s_in + s_out)

    want = []
    for i in np.nonzero(above != np.roll(above, -1))[0]:
        a, b = float(ss[i]), float(ss[i + 1]) if i + 1 < ss.size else L
        want.append(bisect(a, b) if above[i] else bisect(b, a))
    assert len(want) >= 4
    got = sorted({s for iv in intervals for s in iv} - {0.0, L})
    assert got == sorted(want)


def _mp_log_mass(p, K, q, intervals):
    """30-digit log of the integral of |p|^q over arclength intervals of a
    polygon boundary: one mpmath.quad per straight segment, split at the
    foot of every root on it, so no integrand has a corner, or a root
    nearby, inside a piece.  mpmath.quad's error test is absolute, so the
    integrand is |p/s|^q, with s the largest |p| at the cut points, and
    q log s is added back."""
    corners = [K.vertex_s(i) for i in range(len(K.vertices))]
    with mpmath.workdps(30):
        roots = [mpmath.mpc(r.real, r.imag) for r in p.roots]
        abs_p = lambda z: mpmath.fprod(abs(z - r) for r in roots)
        segments = []
        for lo, hi in intervals:
            ends = [lo] + [c for c in corners if lo < c < hi] + [hi]
            for a, b in zip(ends[:-1], ends[1:]):
                za, zb = (mpmath.mpc(z.real, z.imag)
                          for z in (K.gamma(a), K.gamma(b)))
                feet = {((r - za) / (zb - za)).real for r in roots}
                cuts = sorted({0, 1} | {t for t in feet if 0 < t < 1})
                segments.append((za, zb, cuts))
        s = max(abs_p(za + t * (zb - za)) for za, zb, cuts in segments
                for t in cuts)
        total = mpmath.mpf(0)
        for za, zb, cuts in segments:
            f = lambda t: (abs_p(za + t * (zb - za)) / s) ** q
            total += mpmath.quad(f, cuts) * abs(zb - za)
        return float(mpmath.log(total) + q * mpmath.log(s))


def test_mp_log_mass_of_a_spike_matches_mpmath():
    # at q = 3e5 |p|^q is a spike about 2e-6 wide at the corner i; its mass
    # is far below 1, so unscaled the oracle read log|p| = -0.7193640001
    K = SQUARE
    p = RootPolynomial(1.0, [0.3 + 0.2j, 0.7 + 0.6j, 0.5 + 0.5j])
    q = 3e5
    got = _mp_log_mass(p, K, q, [(0.0, K.perimeter)]) / q
    assert abs(got + 0.71936332705268752938) <= 1e-15
    assert abs(lq_norm(p, K, q).log_value - got) <= 1e-12


def test_h_set_mass_over_corners_matches_mpmath():
    # draw 33 of a 60-trial batch: a 4-gon with n = 20 whose heavy set is
    # the whole boundary, one arc over three corners
    rng = np.random.default_rng(11)
    for _ in range(34):
        K = random_domain(rng)
        deg = int(rng.integers(1, 25))
        p = RootPolynomial(1.0, random_roots_loose(K, deg, rng))
    assert K.kind == "polygon" and len(K.vertices) == 4 and p.n == 20
    hs = h_set(p, K, 2.0)
    assert hs.intervals == ((0.0, K.perimeter),)
    ref_h = _mp_log_mass(p, K, 2.0, hs.intervals)
    ref_total = _mp_log_mass(p, K, 2.0, [(0.0, K.perimeter)])
    assert abs(math.expm1(hs.log_mass_on_h - ref_h)) <= 1e-9
    assert abs(math.expm1(hs.log_mass_total - ref_total)) <= 1e-9


def test_mp_log_mass_with_root_near_an_edge():
    # a root 0.003 inside a 5-gon's edge; split only at the corners, the
    # oracle read log|p|_1 3e-7 off the quadrature
    K = ConvexDomain.regular_polygon(5)
    roots = list(random_roots_in(K, 5, trial_rng(5, 1)))
    v0, v1 = K.vertices[0], K.vertices[1]
    mid = (v0 + v1) / 2
    roots.append(mid - 0.003 * mid / abs(mid) + 0.1 * (v1 - v0))
    p = RootPolynomial(1.0, roots)
    ref = _mp_log_mass(p, K, 1.0, [(0.0, K.perimeter)])
    assert abs(math.expm1(lq_norm(p, K, 1.0).log_value - ref)) <= 1e-9


def test_h_set_integrates_once(monkeypatch):
    calls = []
    original = audits._adaptive_log_integral

    def counted(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(audits, "_adaptive_log_integral", counted)
    K = ConvexDomain.unit_square()
    # a triple root on the bottom edge leaves an arc around it out of H
    p = RootPolynomial(1.0, [0.3, 0.3, 0.3, 0.7 + 0.6j])
    hs = h_set(p, K, 2.0)
    assert 0 < hs.measure < K.perimeter
    assert len(calls) == 1
    assert hs.log_mass_on_h <= hs.log_mass_total
    total = lq_norm(p, K, 2.0).log_value * 2.0
    assert hs.log_mass_total == pytest.approx(total, rel=1e-9)


# ------------------------------------------------------------------ h gap

def test_h_gap_zero_for_constant_modulus():
    p = RootPolynomial(1.0, [0j] * 73)
    rep = h_point_log_gap(p, DISK, 1 + 0j, 2.0)
    assert rep.detail["gap"] == pytest.approx(0.0, abs=1e-12)
    assert rep.detail["margin_sharp"] > 0
    assert rep.passed


def test_h_gap_raises_outside_set():
    p = RootPolynomial(1.0, [1 + 0j])
    with pytest.raises(NotInH):
        h_point_log_gap(p, DISK, 1 + 0j, 2.0)
    assert not point_in_h(p, DISK, 2.0, 1 + 0j, sup_norm(p, DISK).log_value)


def test_h_gap_threshold_points_clear_sharp_bound():
    # any point just above the threshold has gap <= log(1/c) + 2 log n,
    # which stays under (107/40) log n for n >= 73 at q = 2
    c = math.exp(log_h_constant(2.0))
    for n in (73, 100, 200):
        gap_max = math.log(1 / c) + 2 * math.log(n)
        assert gap_max <= (107.0 / 40.0) * math.log(n)


def test_h_gap_batch():
    reps = run_batch("hgap", 20, SEED)
    assert all(r.passed for r in reps)


# -------------------------------------------------------------- chebyshev

def test_chebyshev_floor_values():
    assert chebyshev_floor(4.0, 3) == pytest.approx(2.0, rel=1e-15)
    assert chebyshev_floor(1.0, 2) == pytest.approx(0.125, rel=1e-15)
    with pytest.raises(ValueError):
        chebyshev_floor(1.0, 0)
    with pytest.raises(ValueError):
        chebyshev_floor(0.0, 2)


def test_chebyshev_cosine_nodes_attain_floor():
    for length, k in ((4.0, 3), (1.0, 2), (2.5, 5)):
        rep = chebyshev_floor_check(length, k, trials=2,
                                    rng=np.random.default_rng(3))
        assert rep.detail["attained_rel_err"] < 1e-9
        assert rep.passed


def test_chebyshev_search_never_beats_floor_on_unit_segment():
    rep = chebyshev_floor_check(1.0, 3, trials=5,
                                rng=np.random.default_rng(7))
    assert rep.detail["search_min"] >= (1.0 / 32.0) * (1 - 1e-6)
    assert rep.passed


def test_chebyshev_batch():
    reps = run_batch("chebyshev", 10, SEED)
    assert all(r.passed for r in reps)


def _batch_like_chebyshev(seed, trials=3):
    """The check on the draw the batch trial makes from this rng seed."""
    rng = np.random.default_rng(seed)
    length, k = float(rng.uniform(0.2, 4.0)), int(rng.integers(1, 7))
    return k, chebyshev_floor_check(length, k, trials, rng)


def test_chebyshev_trials_never_beat_the_cosine_nodes():
    # the cloud's candidates lie above the optimum, so the report is the
    # cosine-node sup bit for bit
    degrees = set()
    for seed in range(60):
        k, rep = _batch_like_chebyshev(seed)
        degrees.add(k)
        assert rep.lhs == rep.detail["attained"] == rep.detail["search_min"]
        assert rep.passed
    assert degrees == set(range(1, 7))


def test_chebyshev_trials_catch_an_under_reading_maximizer(monkeypatch):
    # a maximizer that under-reads every candidate but the cosine nodes
    # (the only real ones) must fail the report.  A 1e-3 under-read shows
    # only where the cloud's excess over the floor is smaller: at degree 1
    # with 20 trials on every seed (with 3 trials on 13 seeds of 20, at
    # degree 2 on 1).  A 10% one, above every excess seen, shows on every
    # batch-like draw
    segment_sup = audits._segment_sup_product
    shortfall = 1e-3

    def under_read(ws, half):
        value = segment_sup(ws, half)
        return value * (1 - shortfall) if ws.imag.any() else value

    seeds = range(20)
    assert all(chebyshev_floor_check(1.0, 1, 20, np.random.default_rng(s))
               .passed for s in seeds)
    monkeypatch.setattr(audits, "_segment_sup_product", under_read)
    for seed in seeds:
        rep = chebyshev_floor_check(1.0, 1, 20, np.random.default_rng(seed))
        assert rep.lhs < rep.detail["attained"] and not rep.passed, seed
    shortfall = 0.1
    for seed in range(60):
        assert not _batch_like_chebyshev(seed)[1].passed, seed


@pytest.mark.parametrize("trials", [-1, 2.5, True, "3", None])
def test_chebyshev_rejects_bad_trials(trials):
    with pytest.raises(ValueError, match="trials"):
        chebyshev_floor_check(1.0, 3, trials)


def test_chebyshev_zero_trials_is_the_cosine_nodes():
    rep = chebyshev_floor_check(1.0, 3, 0)
    assert rep.lhs == rep.detail["attained"] and rep.passed


# ------------------------------------------------------------- transfinite

def test_transfinite_monomial_on_disk():
    p = RootPolynomial(1.0, [0j] * 6)
    rep = transfinite_floor_audit(p, DISK)
    assert rep.lhs == pytest.approx(0.0, abs=1e-9)
    # cap = 1 on the unit disk, and z^6 attains the floor
    assert rep.rhs == 0.0
    assert rep.passed


def test_transfinite_square_corner_polynomial():
    p = RootPolynomial(1.0, [0j, 1 + 0j, 1 + 1j, 1j])
    rep = transfinite_floor_audit(p, SQUARE)
    lo = SQUARE.capacity()[1]
    assert rep.rhs == pytest.approx(4 * math.log(lo), rel=1e-12)
    # lo ~ cap = Gamma(1/4)^2 / (4 pi^(3/2)), well above d/4
    assert rep.rhs == pytest.approx(-2.11, abs=0.01)
    assert rep.rhs > 4 * math.log(math.sqrt(2.0) / 4.0) + 2.0
    assert rep.passed


def test_transfinite_requires_monic():
    with pytest.raises(ValueError):
        transfinite_floor_audit(RootPolynomial(2.0, [0j]), DISK)


def test_transfinite_batch():
    reps = run_batch("transfinite", 30, SEED)
    assert all(r.passed for r in reps)


# ----------------------------------------------------------- concentration

def _concentrated_polynomial(rng):
    center = 0.5 + 0.5j
    radius = math.sqrt(2.0) / 256.0
    K_prime = ConvexDomain.disk(center, radius)
    roots = list(random_roots_in(K_prime, 16, rng))
    roots += [0.1 + 0.1j, 0.9 + 0.2j, 0.2 + 0.9j, 0.8 + 0.8j]
    return RootPolynomial(1.0, roots), K_prime


def test_concentration_center_cluster_on_square():
    p, K_prime = _concentrated_polynomial(np.random.default_rng(11))
    rep = zero_concentration_audit(p, SQUARE, K_prime, 128.0)
    assert rep.applicable
    assert rep.detail["m"] == 16
    assert rep.passed


def test_concentration_gating():
    p, K_prime = _concentrated_polynomial(np.random.default_rng(11))
    rep = zero_concentration_audit(p, SQUARE, K_prime, 8.0)
    assert not rep.applicable
    assert "k_ratio" in rep.detail["reason"]
    big = ConvexDomain.disk(0.5 + 0.5j, 0.3)
    rep = zero_concentration_audit(p, SQUARE, big, 128.0)
    assert not rep.applicable
    spread = RootPolynomial(1.0, [0.1 + 0.1j] * 20)
    rep = zero_concentration_audit(spread, SQUARE, K_prime, 128.0)
    assert not rep.applicable
    assert "too few" in rep.detail["reason"]


def test_concentration_batch():
    reps = run_batch("concentration", 30, SEED)
    assert all(r.applicable for r in reps)
    assert all(r.passed for r in reps)


# -------------------------------------------------------- classify zeros

def test_classify_single_center_root_on_disk():
    bp = DISK.boundary_point(0.0)
    p = RootPolynomial(1.0, [0j] * 6)
    part = classify_zeros(p, bp, DISK)
    # the center sits well above the tilted chord inside the 5/4 delta ball
    assert part.counts == (0, 0, 6, 0, 0)
    assert part.total == 6
    assert part.delta == pytest.approx(2 * math.cos(2 * tilt_angle(DISK)),
                                       rel=1e-12)


def test_classify_partition_invariants():
    for trial in range(25):
        rng = trial_rng(SEED, trial)
        K = random_domain(rng)
        deg = int(rng.integers(3, 30))
        roots = random_roots_in(K, deg, rng)
        p = RootPolynomial(1.0, roots)
        bp = K.boundary_point(rng.uniform(0.0, K.perimeter))
        try:
            part = classify_zeros(p, bp, K)
        except ZeroChord:
            continue
        assert part.total == deg
        # permutation stability: shuffled roots give identical classes
        perm = list(roots)
        rng.shuffle(perm)
        part2 = classify_zeros(RootPolynomial(1.0, perm), bp, K)
        assert part2.counts == part.counts
        for a, b in zip(part.classes, part2.classes):
            assert sorted(a, key=lambda z: (z.real, z.imag)) \
                == sorted(b, key=lambda z: (z.real, z.imag))
        # exhaustive and disjoint: every root lands in exactly one class
        frame = part.to_frame(np.asarray(roots))
        for w in frame:
            hits = 0
            ph = np.angle(w)
            if ph < -math.pi / 2:
                ph += 2 * math.pi
            ph = min(max(ph, 0.0), math.pi)
            if ph <= part.theta:
                hits += 1
            if ph >= math.pi - part.theta:
                hits += 1
            mid = part.theta < ph < math.pi - part.theta
            im = (w * np.exp(2j * part.theta)).imag
            if mid and im < 0.375 * part.delta:
                hits += 1
            if mid and im >= 0.375 * part.delta \
                    and abs(w) <= 1.25 * part.delta:
                hits += 1
            if mid and im >= 0.375 * part.delta \
                    and abs(w) > 1.25 * part.delta:
                hits += 1
            assert hits == 1


def test_classify_frame_roundtrip():
    bp = SQUARE.boundary_point(0.5)
    p = RootPolynomial(1.0, [0.3 + 0.4j, 0.7 + 0.2j])
    part = classify_zeros(p, bp, SQUARE)
    z = np.asarray([0.3 + 0.4j, 0.7 + 0.2j])
    back = part.from_frame(part.to_frame(z))
    assert np.allclose(back, z, atol=1e-14)


# ------------------------------------------------------------- tilted

def test_tilted_monomial_on_disk_small_chord_case():
    p = RootPolynomial(1.0, [0j] * 6)
    bp = DISK.boundary_point(0.0)
    rep = tilted_normal_audit(p, bp, DISK)
    assert rep.detail["case"] == "ii"
    assert rep.lhs == pytest.approx(6.0, rel=1e-12)
    # |p| on the inward chord never exceeds |p(zeta)|, so the log gap
    # vanishes and the bound is the bare 0.001 (w/d^2) n
    assert rep.detail["log_gap_on_chord"] == pytest.approx(0.0, abs=1e-9)
    assert rep.rhs == pytest.approx(0.001 * (2.0 / 4.0) * 6, rel=1e-6)
    assert rep.passed


def test_tilted_square_corner_outward_direction_case_i():
    p = RootPolynomial(1.0, [0.5 + 0.5j, 0.3 + 0.7j, 0.5 + 0.2j])
    bp = SQUARE.boundary_point(0.0)
    sigma = bp.alpha_minus + math.pi / 2
    rep = tilted_normal_audit(p, bp, SQUARE, sigma=sigma)
    assert rep.detail["case"] == "i"
    direct = abs(sum(1.0 / (0j - r) for r in p.roots))
    assert rep.lhs == pytest.approx(direct, rel=1e-12)
    assert rep.rhs == pytest.approx(3 / (2 * SQUARE.diameter), rel=1e-12)
    assert rep.passed


def test_tilted_corner_fan_reports_all_directions():
    p = RootPolynomial(1.0, [0.5 + 0.5j] * 4)
    bp = SQUARE.boundary_point(0.0)
    rep = tilted_normal_audit(p, bp, SQUARE)
    fan = rep.detail["fan"]
    assert len(fan) == 8
    assert {f["case"] for f in fan} <= {"i", "ii", "iii"}
    assert all(f["margin"] >= -1e-9 for f in fan if f["applicable"])
    assert rep.passed


def test_tilted_case_iii_bounds_both_signs():
    seen = 0
    for trial in range(200):
        rng = trial_rng(SEED + 1, trial)
        K = random_domain(rng)
        deg = int(rng.integers(5, 40))
        p = RootPolynomial(1.0, random_roots_in(K, deg, rng))
        bp = K.boundary_point(rng.uniform(0.0, K.perimeter))
        rep = tilted_normal_audit(p, bp, K, branch="iii")
        if not rep.applicable:
            continue
        seen += 1
        assert rep.detail["margin_minus"] >= -margin_tol(
            rep.lhs, rep.detail["rhs_minus"])
        assert rep.detail["margin_plus"] >= -margin_tol(
            rep.lhs, rep.detail["rhs_plus"])
    assert seen >= 50


def test_tilted_h_branch_bound():
    seen = 0
    for trial in range(40):
        rng = trial_rng(SEED + 2, trial)
        K = random_domain(rng)
        deg = int(rng.integers(73, 110))
        p = RootPolynomial(1.0, random_roots_in(K, deg, rng))
        bp = K.boundary_point(rng.uniform(0.0, K.perimeter))
        log_sup = sup_norm(p, K).log_value
        rep = tilted_normal_audit(p, bp, K, q=2.0, log_sup=log_sup)
        if "rhs_h_branch" in rep.detail:
            seen += 1
            assert rep.lhs >= rep.detail["rhs_h_branch"] - margin_tol(
                rep.lhs, rep.detail["rhs_h_branch"])
    assert seen >= 5


def test_tilted_batch():
    reps = run_batch("tilted", 60, SEED)
    assert all(r.passed for r in reps)


# -------------------------------------------------------------- zclass

def test_zclass_empty_classes_have_zero_margin():
    p = RootPolynomial(1.0, [0j] * 6)
    bp = DISK.boundary_point(0.0)
    reps = {r.audit_id: r for r in zero_class_product_audits(p, bp, DISK)}
    for name in ("zclass_near_tangent", "zclass_low_side",
                 "zclass_opposite", "zclass_far"):
        assert reps[name].lhs == pytest.approx(0.0, abs=1e-12)
        assert abs(reps[name].rhs) == pytest.approx(0.0, abs=1e-12)
        assert reps[name].passed
    assert reps["zclass_ball"].passed
    assert reps["zclass_chain"].passed


def test_zclass_single_opposite_root_scalar_arithmetic():
    # one root whose frame image is -2 (angle pi, distance d): audit
    # numbers must match plain scalar arithmetic
    p = RootPolynomial(1.0, [1 - 2j])
    bp = DISK.boundary_point(0.0)
    part = classify_zeros(p, bp, DISK)
    assert part.counts == (0, 0, 0, 0, 1)
    theta, delta = part.theta, part.delta
    tau0 = 0.75 * delta * np.exp(1j * (math.pi / 2 - 2 * theta))
    reps = {r.audit_id: r for r in zero_class_product_audits(p, bp, DISK)}
    rep = reps["zclass_opposite"]
    assert rep.lhs == pytest.approx(
        math.log(abs(tau0 - (-2.0)) / 2.0), rel=1e-12)
    assert rep.rhs == pytest.approx(
        math.sin(theta) * delta / (2 * DISK.diameter), rel=1e-12)
    assert rep.passed


def test_zclass_tau0_attains_dense_grid_max_of_ball_product():
    # tau0 comes from the one grid-then-golden maximizer; on ball classes
    # its log product must match a 200 001-point grid of J
    rng = np.random.default_rng(SEED + 12)
    t = np.linspace(0.75, 1.0, 200_001)
    checked = 0
    while checked < 30:
        K = random_domain(rng)
        p = RootPolynomial(1.0, random_roots_in(K, int(rng.integers(5, 40)),
                                                rng))
        bp = K.boundary_point(rng.uniform(0.0, K.perimeter))
        part = classify_zeros(p, bp, K)
        if part.kappa == 0:
            continue
        z3 = np.asarray(part.classes[2])
        u = part.delta * np.exp(1j * (math.pi / 2 - 2 * part.theta))
        dense = float((np.log(np.abs((t * u)[:, None] - z3))
                       - np.log(np.abs(z3))).sum(axis=1).max())
        reps = {r.audit_id: r for r in zero_class_product_audits(p, bp, K)}
        assert abs(reps["zclass_ball"].lhs - dense) <= 1e-12 * max(
            1.0, abs(dense)), (checked, reps["zclass_ball"].lhs, dense)
        checked += 1


def test_zclass_chain_matches_direct_ratio():
    rng = np.random.default_rng(13)
    p = RootPolynomial(1.0, random_roots_in(SQUARE, 12, rng))
    bp = SQUARE.boundary_point(0.37)
    reps = {r.audit_id: r for r in
            zero_class_product_audits(p, bp, SQUARE)}
    chain = reps["zclass_chain"]
    direct = abs(sum(1.0 / (bp.z - r) for r in p.roots))
    assert chain.lhs == pytest.approx(direct, rel=1e-12)
    theta = tilt_angle(SQUARE)
    d = SQUARE.diameter
    expected_floor = math.sin(theta) / d * 12 / 39.0 \
        - 2.0 / (39.0 * chain.detail["delta"]) * chain.detail["log_ratio"]
    assert chain.rhs == pytest.approx(expected_floor, rel=1e-12)


def test_zclass_batch():
    reps = run_batch("zclass", 60, SEED)
    assert len(reps) == 360
    assert all(r.passed for r in reps)


# ------------------------------------------------------------- twopoint

def _corner_pair(K, vertex, ds):
    sv = K.vertex_s(vertex)
    b1 = K.boundary_point((sv - ds) % K.perimeter)
    b2 = K.boundary_point((sv + ds) % K.perimeter)
    return b1, b2


def test_twopoint_far_roots_second_alternative():
    b1, b2 = _corner_pair(SQUARE, 1, 0.4 * SQUARE.diameter / 768)
    p = RootPolynomial(1.0, [0.2 + 0.8j] * 5)
    rep = two_point_audit(p, b1, b2, SQUARE, alpha=b1.alpha,
                          alpha_prime=b2.alpha, q=2.0)
    assert rep.applicable
    assert rep.detail["mu"] == 0 and rep.detail["nu"] == 5
    assert rep.detail["reported"] == "ii"
    assert rep.passed
    # the mechanism: the pairwise sum over far roots clears its own floor
    assert rep.detail["pair_sum_lhs"] >= rep.detail["pair_sum_rhs"] - 1e-12


def test_twopoint_clustered_roots_first_alternative():
    d = SQUARE.diameter
    b1, b2 = _corner_pair(SQUARE, 1, 0.4 * d / 768)
    rng = np.random.default_rng(17)
    corner = 1 + 0j
    # roots inside the ball around the tangent crossing that the root
    # count uses: mu = n forces the small-values prediction
    r_ball = 3 * max(abs(corner - b1.z), abs(corner - b2.z))
    roots = []
    while len(roots) < 20:
        z = corner + complex(-rng.uniform(0, r_ball / 1.5),
                             rng.uniform(0, r_ball / 1.5))
        if SQUARE.contains(z) and abs(z - corner) <= r_ball:
            roots.append(z)
    p = RootPolynomial(1.0, roots)
    rep = two_point_audit(p, b1, b2, SQUARE, alpha=b1.alpha,
                          alpha_prime=b2.alpha, q=2.0)
    assert rep.applicable
    assert rep.detail["mu"] == 20
    assert rep.detail["predicted"] == "i"
    assert rep.detail["reported"] == "i"
    assert rep.passed
    # mesh oracle: both point values really are 2^-n small next to the sup
    log_sup = sup_norm(p, SQUARE).log_value
    from oscillab.polynomials import log_abs
    for z in (b1.z, b2.z):
        assert float(log_abs(p, z)) <= log_sup - 20 * math.log(2.0) + 1e-9


def test_twopoint_wider_cluster_still_gives_small_values():
    # the same conclusion with the cluster only d/64 tight: the reported
    # branch may differ, but both point values stay exponentially small
    d = SQUARE.diameter
    b1, b2 = _corner_pair(SQUARE, 1, 0.4 * d / 768)
    rng = np.random.default_rng(19)
    corner = 1 + 0j
    roots = []
    while len(roots) < 20:
        z = corner + complex(-rng.uniform(0, d / 96),
                             rng.uniform(0, d / 96))
        if SQUARE.contains(z) and abs(z - corner) <= d / 64:
            roots.append(z)
    p = RootPolynomial(1.0, roots)
    rep = two_point_audit(p, b1, b2, SQUARE, alpha=b1.alpha,
                          alpha_prime=b2.alpha, q=2.0)
    assert rep.applicable
    assert rep.passed
    assert min(rep.detail["alt_i_margins"]) >= 0.0


def test_twopoint_root_count_dichotomy():
    reps = run_batch("twopoint", 40, SEED)
    live = [r for r in reps if r.applicable]
    assert len(live) >= 30
    for r in live:
        assert r.detail["mu"] + r.detail["nu"] == r.detail["n"]
        assert r.passed


def test_twopoint_precondition_reported_not_raised():
    b1 = SQUARE.boundary_point(0.2)
    b2 = SQUARE.boundary_point(0.8)
    p = RootPolynomial(1.0, [0.5 + 0.5j])
    rep = two_point_audit(p, b1, b2, SQUARE, alpha=b1.alpha,
                          alpha_prime=b2.alpha)
    assert not rep.applicable
    assert "reason" in rep.detail


# ------------------------------------------------------------- infnorm

def test_infnorm_monomial_on_disk():
    p = RootPolynomial(1.0, [0j] * 6)
    rep = infnorm_theorem_audit(p, DISK)
    assert rep.lhs == pytest.approx(math.log(6.0), rel=1e-9)
    assert rep.rhs == pytest.approx(math.log(0.001 * 0.5 * 6), rel=1e-9)
    assert rep.passed


def test_infnorm_square_corner_polynomial():
    p = RootPolynomial(1.0, [0j, 1 + 0j, 1 + 1j, 1j])
    rep = infnorm_theorem_audit(p, SQUARE)
    oracle = sup_norms(p, SQUARE)[1].log_value
    assert rep.lhs == pytest.approx(oracle, rel=1e-9)
    assert rep.passed


def test_infnorm_batch():
    reps = run_batch("infnorm", 40, SEED)
    assert all(r.passed for r in reps)


# --------------------------------------------------------------- depth

def test_depth_regular_triangle_not_applicable():
    K = ConvexDomain.regular_polygon(3, circumradius=1.0)
    rep = depth_theorem_audit(RootPolynomial(1.0, [0j]), K, 2.0)
    assert not rep.applicable
    assert rep.detail["reason"] == "zero depth"


def test_depth_disk_coefficient():
    p = RootPolynomial(1.0, [0j] * 6)
    rep = depth_theorem_audit(p, DISK, 2.0)
    # h = d = 2: coefficient is 16/(3000 * 32) = 1/6000 per degree
    assert rep.detail["coeff"] == pytest.approx(6.0 / 6000.0, rel=1e-12)
    assert rep.passed


def test_depth_inf_matches_two_norm_calls():
    # at q = inf the audit takes both sup norms from one mesh pass; the
    # values must be those of sup_norms, and sup |p| that of sup_norm, bit
    # for bit
    for K in (ConvexDomain.unit_square(),
              ConvexDomain.regular_polygon(6, circumradius=1.0)):
        p = RootPolynomial(1.0, random_roots_in(K, 30, trial_rng(SEED, 7)))
        rep = depth_theorem_audit(p, K, math.inf)
        log_dp = sup_norms(p, K)[1].log_value
        log_p = sup_norm(p, K).log_value
        assert rep.lhs == log_dp
        assert rep.rhs == math.log(rep.detail["coeff"]) + log_p


def test_depth_batch():
    reps = run_batch("depth", 30, SEED)
    assert all(r.applicable for r in reps)
    assert all(r.passed for r in reps)


# ------------------------------------------------------- batch mechanics

def test_run_batch_deterministic():
    a = [r.as_record() for r in run_batch("tilted", 6, SEED)]
    b = [r.as_record() for r in run_batch("tilted", 6, SEED)]
    assert a == b


def test_run_batch_rejects_unknown_id():
    with pytest.raises(ValueError):
        run_batch("nonsense", 2, SEED)
    assert "tilted" in AUDIT_IDS


def test_audit_ids_are_the_table_and_each_runs():
    # the CLI's choices and the benchmark iterate these ids in this order
    assert AUDIT_IDS == tuple(audits._AUDITS) == (
        "nikolskii", "hset", "hgap", "chebyshev", "transfinite",
        "concentration", "tilted", "zclass", "twopoint", "infnorm",
        "depth")
    for audit_id in AUDIT_IDS:
        reps = run_batch(audit_id, 1, SEED)
        assert reps and all(r.passed for r in reps), audit_id
        assert all(r.detail["trial"] == 0 for r in reps)


@pytest.mark.parametrize("audit_id, params", [
    ("infnorm", {"n": 0}),
    ("infnorm", {"n": 2.5}),
    ("transfinite", {"n": True}),
    ("nikolskii", {"n": "3"}),
    ("chebyshev", {"n": 3}),
    ("chebyshev", {"domain": SQUARE}),
], ids=["zero", "float", "bool", "string", "chebyshev-n", "chebyshev-domain"])
def test_run_batch_rejects_bad_params(audit_id, params):
    # n = 0 is an error, not a request for a random degree; a batch of no
    # trials checks its parameters too
    with pytest.raises(ValueError):
        audits.audit_trial(audit_id, 0, 1, params)
    with pytest.raises(ValueError):
        run_batch(audit_id, 0, 1, params)


def test_report_records_carry_trial_index():
    reps = run_batch("depth", 3, SEED)
    assert [r.detail["trial"] for r in reps] == [0, 1, 2]
