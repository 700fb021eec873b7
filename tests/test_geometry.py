"""Geometry oracles: size functionals, tangent structure, chords, and the
quantitative small-chord facts, each checked against an independent
brute-force computation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscillab import geometry
from oscillab.errors import DegenerateTangent
from oscillab.geometry import (
    BoundaryPoint,
    ConvexDomain,
    angle_diam_arc_bounds,
    chord,
    clip_polygon_halfplane,
    margin_tol,
    polygon_diameter,
    sample_polygon_uniform,
    tilted_side_classification,
    triangle_containment_check,
)
from oscillab.sampling import random_convex_polygon, trial_rng

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------- oracles

def width_oracle(K, angles=100_000):
    """Min over a dense angle grid of the support slab width, then a local
    ternary refinement around the best grid angle."""
    if K.kind == "disk":
        return 2.0 * K.radius
    verts = np.asarray(K.vertices)

    def slab(g):
        proj = (verts * np.exp(-1j * g)).real
        return proj.max() - proj.min()

    grid = np.linspace(0.0, math.pi, angles, endpoint=False)
    vals = [slab(g) for g in grid]
    i = int(np.argmin(vals))
    lo = grid[i] - math.pi / angles
    hi = grid[i] + math.pi / angles
    for _ in range(200):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if slab(m1) <= slab(m2):
            hi = m2
        else:
            lo = m1
    return slab(0.5 * (lo + hi))


def diameter_oracle(K):
    verts = np.asarray(K.vertices)
    return float(np.abs(verts[:, None] - verts[None, :]).max())


def chord_oracle(K, z0, phi, iters=80):
    """Chord length by bisecting the membership indicator along the line."""
    u = complex(math.cos(phi), math.sin(phi))
    span = 2.5 * K.diameter
    ts = np.linspace(-span, span, 4001)
    inside = K.interior_margin(z0 + ts * u) >= 0.0
    if not inside.any():
        return 0.0
    lo_i = int(np.argmax(inside))
    hi_i = len(ts) - 1 - int(np.argmax(inside[::-1]))

    def refine(t_out, t_in):
        for _ in range(iters):
            mid = 0.5 * (t_out + t_in)
            if K.interior_margin(z0 + mid * u) >= 0.0:
                t_in = mid
            else:
                t_out = mid
        return 0.5 * (t_out + t_in)

    lo = refine(ts[max(lo_i - 1, 0)], ts[lo_i]) if lo_i > 0 else ts[0]
    hi = refine(ts[min(hi_i + 1, len(ts) - 1)], ts[hi_i]) \
        if hi_i < len(ts) - 1 else ts[-1]
    return hi - lo


def depth_sweep_oracle(K, mesh=2000):
    """Boundary mesh + normal-cone sweep; cone maximized on a fine grid."""
    h = math.inf
    eps = 1e-7 * K.perimeter
    for s in np.linspace(0.0, K.perimeter, mesh, endpoint=False):
        # sample just off vertices as well as on them
        for sq in (s, s + eps):
            bp = K.boundary_point(sq)
            best = 0.0
            if bp.omega <= 1e-12:
                best = chord(K, bp, bp.sigma).delta
            else:
                for a in np.linspace(bp.alpha_minus, bp.alpha_plus, 64):
                    best = max(best, chord(K, bp, a + 0.5 * math.pi).delta)
            h = min(h, best)
    return h


# ---------------------------------------------------------------- domains

def test_unit_square_functionals():
    K = ConvexDomain.unit_square()
    assert K.diameter == pytest.approx(SQRT2, rel=1e-12)
    assert K.width == pytest.approx(1.0, rel=1e-12)
    assert K.perimeter == pytest.approx(4.0, rel=1e-12)
    assert K.depth() == pytest.approx(1.0, rel=1e-12)


def test_disk_functionals():
    K = ConvexDomain.disk(0.3 + 0.2j, 1.7)
    assert K.diameter == pytest.approx(3.4)
    assert K.width == pytest.approx(3.4)
    assert K.perimeter == pytest.approx(2 * math.pi * 1.7)
    assert K.depth() == pytest.approx(3.4)


def test_equilateral_triangle_width_and_depth():
    side = 1.0
    K = ConvexDomain.polygon([0j, complex(side, 0),
                              complex(side / 2, side * math.sqrt(3) / 2)])
    assert K.width == pytest.approx(math.sqrt(3) / 2, rel=1e-12)
    # an acute corner admits no normal line with a positive chord
    assert K.depth() == pytest.approx(0.0, abs=1e-12)


def test_random_polygon_functionals_match_oracles():
    rng = trial_rng(20260818, 0)
    for trial in range(12):
        K = random_convex_polygon(rng, vertices=9)
        assert K.diameter == pytest.approx(diameter_oracle(K), rel=1e-12)
        assert K.width == pytest.approx(width_oracle(K), abs=1e-6 * K.diameter)


def test_depth_matches_sweep_oracle():
    rng = trial_rng(20260818, 1)
    for trial in range(4):
        K = random_convex_polygon(rng, vertices=6)
        assert K.depth() == pytest.approx(depth_sweep_oracle(K),
                                          abs=2e-3 * K.diameter)
    K = ConvexDomain.unit_square()
    assert K.depth() == pytest.approx(depth_sweep_oracle(K), abs=1e-6)


def test_polygon_validation_errors():
    with pytest.raises(ValueError, match="clockwise"):
        ConvexDomain.polygon([0j, 1j, 1 + 0j])
    with pytest.raises(ValueError, match="vertex 1"):
        ConvexDomain.polygon([0j, 1 + 0j, 2 + 0j, 1 + 1j])
    with pytest.raises(ValueError):
        ConvexDomain.polygon([0j, 1 + 0j])
    # the turn at each vertex is inf - inf = nan here; once accepted, the
    # polygon then overflowed in the capacity solve
    far = 8.98846567431158e307 + 2j
    with pytest.raises(ValueError, match="strictly convex"):
        ConvexDomain.polygon([far, 0j, far, 0j])
    # the capacity solve multiplies sizes squared, which overflow here
    with pytest.raises(ValueError, match=r"diameter 1\.41421e\+155"):
        ConvexDomain.polygon([0j, 1e155 + 0j, 1e155 + 1e155j, 1e155j])


def test_domain_json_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        ConvexDomain.from_json('{"kind": "polygon", "vertices": '
                               '[[0, 0], [1, 0], [NaN, 1]]}')
    with pytest.raises(ValueError, match="finite"):
        ConvexDomain.from_json('{"kind": "disk", "center": [0, 0], '
                               '"radius": Infinity}')
    # malformed documents are a ValueError too, not a TypeError or an
    # AttributeError from deep inside the parser
    for doc in ('{"kind": "disk", "center": [0, 0], "radius": null}',
                '{"kind": "polygon", "vertices": 5}',
                '[1, 2]',
                '"x"',
                '{"kind": "disk", "center": 5, "radius": 1}',
                '{"kind": "polygon", "vertices": [["a", 1], [1, 0], [1, 1]]}',
                '{"kind": "disk", "center": [true, false], "radius": 2}',
                '{"kind": "disk", "center": [0, 0], "radius": "2"}',
                '{"kind": "polygon", "vertices": [[true, 0], [1, 0], [0, 1]]}',
                '{"kind": "disk", "center": [0, 0], "radius": 1%s}' % ("0" * 400),
                '{"kind": "polygon"}',
                '{"kind": "polygon", "vertices": [[0, 0], [1, 0], '
                '[1.2711610061536462e308, 1.2711610061536464e308]]}'):
        with pytest.raises(ValueError):
            ConvexDomain.from_json(doc)


def test_domain_json_roundtrip():
    K = ConvexDomain.unit_square()
    K2 = ConvexDomain.from_json(K.to_json())
    assert K2.vertices == K.vertices
    D = ConvexDomain.disk(1 + 2j, 0.5)
    D2 = ConvexDomain.from_json(D.to_json())
    assert D2.center == D.center and D2.radius == D.radius


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_polygon_size_invariants(seed):
    rng = np.random.default_rng(seed)
    K = random_convex_polygon(rng, vertices=int(rng.integers(3, 12)))
    assert K.width <= K.diameter * (1 + 1e-12)
    assert K.diameter <= K.perimeter / 2 * (1 + 1e-12)
    assert K.perimeter <= math.pi * K.diameter * (1 + 1e-12)


# ---------------------------------------------------------------- tangents

def test_square_tangent_interval():
    K = ConvexDomain.unit_square()
    mid = K.boundary_point(0.5)
    assert mid.omega == pytest.approx(0.0, abs=1e-15)
    assert mid.alpha == pytest.approx(0.0, abs=1e-15)
    vert = K.boundary_point(1.0)
    assert vert.omega == pytest.approx(math.pi / 2, rel=1e-12)
    assert vert.z == 1 + 0j


def test_polygon_turns_sum_to_two_pi():
    rng = trial_rng(20260818, 2)
    for _ in range(10):
        K = random_convex_polygon(rng, vertices=int(rng.integers(3, 11)))
        total = sum(K.boundary_point(K.vertex_s(i)).omega
                    for i in range(len(K.vertices)))
        assert total == pytest.approx(2 * math.pi, abs=1e-9)


def test_disk_tangent_angle():
    K = ConvexDomain.disk(0j, 2.0)
    for s in (0.0, 1.0, 5.0):
        bp = K.boundary_point(s)
        assert bp.omega == 0.0
        assert bp.alpha == pytest.approx(s / 2.0 + math.pi / 2, rel=1e-12)


def test_tangent_angles_nondecreasing_along_boundary():
    rng = trial_rng(20260818, 3)
    K = random_convex_polygon(rng, vertices=7)
    prev = None
    for s in np.linspace(0.0, K.perimeter, 200, endpoint=False):
        bp = K.boundary_point(s)
        if prev is not None:
            assert bp.alpha_minus >= prev - 1e-12
        prev = bp.alpha_plus
    # one full loop turns by exactly 2 pi
    first = K.boundary_point(0.0)
    assert K.tangent_variation(0.0, K.perimeter - 1e-12) == pytest.approx(
        2 * math.pi, abs=1e-6)
    assert first.alpha_plus - first.alpha_minus == pytest.approx(
        K.boundary_point(0.0).omega)


# ---------------------------------------------------------------- chords

def test_disk_diameter_chord():
    K = ConvexDomain.unit_disk()
    c = chord(K, K.boundary_point(0.0), math.pi)
    assert c.delta == pytest.approx(2.0, rel=1e-12)
    assert c.D == pytest.approx(-1 + 0j)


def test_square_horizontal_chord():
    K = ConvexDomain.unit_square()
    z = complex(0.0, 0.5)
    c = chord(K, z, 0.0)
    assert c.delta == pytest.approx(1.0, rel=1e-12)
    assert c.D == pytest.approx(1 + 0.5j)


def test_chord_against_membership_oracle():
    rng = trial_rng(20260818, 4)
    for _ in range(25):
        K = random_convex_polygon(rng, vertices=int(rng.integers(4, 9)))
        s = rng.uniform(0.0, K.perimeter)
        phi = rng.uniform(0.0, 2 * math.pi)
        z0 = K.gamma(s)
        got = chord(K, z0, phi).delta
        want = chord_oracle(K, z0, phi)
        assert got == pytest.approx(want, abs=1e-9 * K.diameter)


def test_chord_midpoints_inside():
    rng = trial_rng(20260818, 5)
    K = random_convex_polygon(rng, vertices=8)
    for _ in range(50):
        s = rng.uniform(0.0, K.perimeter)
        phi = rng.uniform(0.0, 2 * math.pi)
        c = chord(K, K.gamma(s), phi)
        if c.delta == 0.0:
            continue
        u = complex(math.cos(phi), math.sin(phi))
        ts = np.linspace(c.t_lo, c.t_hi, 17)
        assert K.contains(c.zeta + ts * u).all()


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_chord_is_a_line_intersection(seed):
    rng = np.random.default_rng(seed)
    K = random_convex_polygon(rng, vertices=int(rng.integers(3, 10)))
    s = rng.uniform(0.0, K.perimeter)
    phi = rng.uniform(0.0, 2 * math.pi)
    z0 = K.gamma(s)
    a = chord(K, z0, phi)
    b = chord(K, z0, phi + math.pi)
    assert a.delta == pytest.approx(b.delta, abs=1e-9 * K.diameter)
    assert a.delta <= K.diameter * (1 + 1e-9)


def _bits(x):
    return np.asarray(x, dtype=complex).tobytes()


def loop_chord(K, z0, phi):
    """Reference: the chord computed point by point on Python floats, edge
    by edge, returning early on an empty line."""
    u = complex(math.cos(phi), math.sin(phi))
    empty = (z0, phi, 0.0, z0, 0.0, 0.0, False)
    if K.kind == "disk":
        b = (z0 - K.center).real * u.real + (z0 - K.center).imag * u.imag
        disc = b * b - (abs(z0 - K.center) ** 2 - K.radius ** 2)
        if disc <= 0.0:
            return empty
        t_lo, t_hi = -b - math.sqrt(disc), -b + math.sqrt(disc)
    else:
        t_lo, t_hi = -math.inf, math.inf
        for a, d in zip(K.vertices, K._edge_dir):
            c0 = d.real * (z0 - a).imag - d.imag * (z0 - a).real
            c1 = d.real * u.imag - d.imag * u.real
            if abs(c1) <= 1e-15:
                if c0 < -K.tol:
                    return empty
                continue
            if c1 > 0.0:
                t_lo = max(t_lo, -c0 / c1)
            else:
                t_hi = min(t_hi, -c0 / c1)
        if not (t_hi - t_lo > 0.0) or math.isinf(t_lo) or math.isinf(t_hi):
            return empty
    if t_hi - t_lo <= K.tol:
        return (z0, phi, 0.0, z0, t_lo, t_hi, False)
    far = t_hi if abs(t_hi) >= abs(t_lo) else t_lo
    mid = z0 + 0.5 * (t_lo + t_hi) * u
    return (z0, phi, t_hi - t_lo, z0 + far * u, t_lo, t_hi,
            bool(K.interior_margin(mid) > K.tol))


def test_array_chord_matches_scalar_bit_for_bit():
    rng = trial_rng(20260818, 11)
    domains = [ConvexDomain.unit_square(), ConvexDomain.unit_disk(),
               ConvexDomain.disk(0.3 - 0.2j, 1.7),
               ConvexDomain.regular_polygon(8)]
    domains += [random_convex_polygon(rng, vertices=int(rng.integers(3, 10)))
                for _ in range(4)]
    for K in domains:
        # boundary points (vertices included), interior and outside points
        zs = list(K.gamma(rng.uniform(0.0, K.perimeter, 40)))
        zs += list(K.vertices or ()) + list(K.sample_uniform(20, rng))
        zs += [complex(x, y) for x, y in rng.uniform(-4.0, 4.0, (20, 2))]
        phis = list(rng.uniform(-7.0, 7.0, len(zs)))
        for d in (K._edge_dir if K.kind == "polygon" else ()):
            # edge-parallel lines, through every kind of point
            for z in zs[::5]:
                zs += [z, z]
                phis += [math.atan2(d.imag, d.real),
                         math.atan2(d.imag, d.real) + math.pi]
        many = chord(K, np.array(zs), np.array(phis))
        assert many.delta.shape == (len(zs),)
        fields = ("zeta", "phi", "delta", "D", "t_lo", "t_hi")
        for i, (z, phi) in enumerate(zip(zs, phis)):
            one = chord(K, z, phi)
            ref = loop_chord(K, complex(z), phi)
            for k, field in enumerate(fields):
                assert (_bits(getattr(many, field)[i])
                        == _bits(getattr(one, field))
                        == _bits(ref[k])), (K, i, field)
            assert bool(many.hits_interior[i]) is one.hits_interior is ref[6]


def test_array_boundary_point_matches_scalar():
    K = random_convex_polygon(trial_rng(20260818, 12), vertices=7)
    L = K.perimeter
    ss = [K.vertex_s(i) + h for i in range(7)
          for h in (0.0, 0.9e-9 * L, -0.9e-9 * L, 1.1e-9 * L, -1.1e-9 * L)]
    ss += list(np.linspace(-L, 2 * L, 101)) + [L, -1e-20]
    many = K.boundary_point(np.array(ss))
    for i, s in enumerate(ss):
        one = K.boundary_point(s)
        assert (many.s[i], many.z[i], many.alpha_minus[i],
                many.alpha_plus[i]) == (one.s, one.z, one.alpha_minus,
                                        one.alpha_plus)
    assert np.array_equal(many.omega > 0, np.isin(many.s, K._cum[:-1]))


def test_zero_chord_allowed():
    K = ConvexDomain.unit_square()
    # the line y = -x supports the square at the corner only
    c = chord(K, 0j, -math.pi / 4)
    assert c.delta == 0.0
    assert c.D == 0j
    assert not c.hits_interior


# ------------------------------------------------ triangle containment

def test_triangle_containment_square_corner():
    K = ConvexDomain.unit_square()
    # points near the corner (1,0); tangents along the edges meet there
    z1, z2 = complex(0.9, 0.0), complex(1.0, 0.1)
    rep = triangle_containment_check(K, z1, z2, 0.0, -math.pi / 2)
    assert rep.applicable
    assert rep.violations == 0
    assert rep.T == pytest.approx(1 + 0j)


def test_triangle_containment_disk():
    K = ConvexDomain.unit_disk()
    s1 = 0.1
    s2 = 0.35
    b1, b2 = K.boundary_point(s1), K.boundary_point(s2)
    rep = triangle_containment_check(K, b1, b2, b1.alpha, b2.alpha + math.pi)
    assert rep.applicable
    assert rep.violations == 0


def test_triangle_containment_random_batch():
    rng = trial_rng(20260818, 6)
    checked = 0
    for _ in range(120):
        K = random_convex_polygon(rng, vertices=int(rng.integers(4, 9)))
        s1 = rng.uniform(0.0, K.perimeter)
        s2 = (s1 + rng.uniform(0.02, 0.2) * K.perimeter) % K.perimeter
        b1, b2 = K.boundary_point(s1), K.boundary_point(s2)
        rep = triangle_containment_check(
            K, b1, b2, b1.alpha_plus, b2.alpha_minus + math.pi)
        if not rep.applicable:
            continue
        checked += 1
        assert rep.violations == 0, rep
    assert checked > 60


# ------------------------------------------------ angle/diam/arc bounds

def test_angle_diam_arc_disk_example():
    K = ConvexDomain.unit_disk()
    # two boundary points at straight-line distance 0.2
    half = math.asin(0.1)
    b1 = K.boundary_point(0.0)
    b2 = K.boundary_point(2 * half)
    rep = angle_diam_arc_bounds(K, b1, b2)
    assert abs(b1.z - b2.z) == pytest.approx(0.2, rel=1e-9)
    assert rep.beta >= math.asin(0.9) - 1e-9
    assert rep.passed


def test_angle_diam_arc_same_edge_degenerate():
    K = ConvexDomain.unit_square()
    b1 = K.boundary_point(0.3)
    b2 = K.boundary_point(0.6)
    with pytest.raises(DegenerateTangent):
        angle_diam_arc_bounds(K, b1, b2)


def test_angle_diam_arc_random_batch():
    rng = trial_rng(20260818, 7)
    checked = 0
    for _ in range(300):
        K = random_convex_polygon(rng, vertices=int(rng.integers(4, 10)))
        s1 = rng.uniform(0.0, K.perimeter)
        s2 = (s1 + rng.uniform(0.01, 0.25) * K.perimeter) % K.perimeter
        b1, b2 = K.boundary_point(s1), K.boundary_point(s2)
        s = abs(b1.z - b2.z)
        if not (0 < s < K.width):
            continue
        try:
            rep = angle_diam_arc_bounds(K, b1, b2)
        except DegenerateTangent:
            continue
        checked += 1
        for name, m in rep.margins.items():
            assert m >= -margin_tol(abs(m), 0.0) - 1e-9, (name, rep)
    assert checked > 150


def test_angle_diam_arc_flat_side():
    # both points interior to one edge of a wide rectangle, tangents from
    # the adjacent edges would be degenerate; use the opposite edge instead
    K = ConvexDomain.polygon([0j, 3 + 0j, 3 + 1j, 1j])
    b1 = K.boundary_point(0.5)
    b2 = K.boundary_point(1.2)
    with pytest.raises(DegenerateTangent):
        angle_diam_arc_bounds(K, b1, b2)


# ------------------------------------------------ tilted side

def test_tilted_side_disk_symmetric():
    K = ConvexDomain.unit_disk()
    bp = K.boundary_point(1.234)
    rep = tilted_side_classification(K, bp, math.pi / 4)
    assert rep.applicable
    assert rep.delta_minus == pytest.approx(SQRT2, rel=1e-9)
    assert rep.delta_plus == pytest.approx(SQRT2, rel=1e-9)


def test_tilted_side_square_corner_zero_chord():
    K = ConvexDomain.unit_square()
    bp = K.boundary_point(0.0)  # corner at the origin
    # tilt angle close to pi/2 so one line leaves the square
    rep = tilted_side_classification(K, bp, 0.45 * math.pi)
    assert not rep.applicable
    assert rep.reason == "min chord zero"


def test_tilted_side_sampling_oracle():
    rng = trial_rng(20260818, 8)
    checked = 0
    for _ in range(200):
        K = random_convex_polygon(rng, vertices=int(rng.integers(4, 9)))
        bp = K.boundary_point(rng.uniform(0.0, K.perimeter))
        phi = rng.uniform(0.15, 0.45) * math.pi
        rep = tilted_side_classification(K, bp, phi)
        if not rep.applicable:
            continue
        checked += 1
        sigma = bp.sigma
        lo, hi = rep.sector
        cut_phi = (sigma - phi) if rep.small_side == "minus" \
            else (sigma + phi)
        u = complex(math.cos(cut_phi), math.sin(cut_phi))
        # the small part is the side of the chord line facing the sector;
        # sample it and check every point sits in the claimed sector
        bisector = 0.5 * (lo + hi)
        toward = complex(math.cos(bisector), math.sin(bisector))
        nrm = u * 1j
        if (nrm.real * toward.real + nrm.imag * toward.imag) < 0:
            nrm = -nrm
        part = clip_polygon_halfplane(K.as_clip_polygon(), bp.z, nrm)
        if len(part) < 3:
            continue
        pts = sample_polygon_uniform(part, 400, rng)
        rel = pts - bp.z
        ang = np.angle(rel * np.exp(-1j * lo))
        width_sector = (hi - lo) % (2 * math.pi)
        keep = np.abs(rel) > 1e-9 * K.diameter
        ok = (ang[keep] >= -1e-7) & (ang[keep] <= width_sector + 1e-7)
        assert ok.all(), (rep, K.to_json())
    assert checked > 80


# ------------------------------------------------ capacity

def _regular_polygon_capacity(m, a):
    """Closed form for the regular m-gon of side a."""
    return (a * math.gamma(1 / m)
            / (2 ** (1 + 2 / m) * math.sqrt(math.pi) * math.gamma(0.5 + 1 / m)))


@pytest.mark.parametrize("K, exact", [
    (ConvexDomain.disk(1 + 2j, 0.7), 0.7),
    (ConvexDomain.unit_square(), math.gamma(0.25) ** 2 / (4 * math.pi ** 1.5)),
    (ConvexDomain.regular_polygon(3), _regular_polygon_capacity(
        3, 2 * math.sin(math.pi / 3))),
    (ConvexDomain.regular_polygon(8), _regular_polygon_capacity(
        8, 2 * math.sin(math.pi / 8))),
], ids=["disk", "square", "triangle", "octagon"])
def test_capacity_closed_form_oracles(K, exact):
    cap, lo, hi = K.capacity()
    assert cap == pytest.approx(exact, rel=1e-4)
    assert lo <= exact <= hi
    if K.kind == "disk":
        assert (cap, lo, hi) == (0.7, 0.7, 0.7)


def test_capacity_random_polygons_bracket():
    for trial in range(120):
        rng = trial_rng(20260818, 1000 + trial)
        K = random_convex_polygon(rng, vertices=int(rng.integers(3, 10)))
        sigma = geometry._symm_solve(np.asarray(K.vertices))[2]
        cap, lo, hi = K.capacity()
        d = K.diameter
        assert sigma.min() > 0, (trial, K.to_json())
        assert d / 4 <= lo <= cap <= hi <= d / 2, (trial, K.to_json())


def test_capacity_thin_rectangle_above_quarter_diameter():
    # the 1 x 0.01 rectangle is nearly the unit segment, of capacity 1/4
    K = ConvexDomain.polygon([0j, 1 + 0j, 1 + 0.01j, 0.01j])
    cap, lo, hi = K.capacity()
    assert K.diameter / 4 <= lo <= cap <= hi


def test_capacity_translation_invariant():
    # far from 0 the panel ends next to a vertex would round together
    K = ConvexDomain.regular_polygon(3)
    far = ConvexDomain.polygon([v + 1e15 for v in K.vertices])
    assert far.capacity() == pytest.approx(K.capacity(), rel=1e-9)


def test_capacity_solves_once(monkeypatch):
    calls = []
    solve = geometry._symm_solve
    monkeypatch.setattr(geometry, "_symm_solve",
                        lambda verts: calls.append(verts) or solve(verts))
    K = ConvexDomain.unit_square()
    first = K.capacity()
    assert K.capacity() is first
    assert len(calls) == 1


# ------------------------------------------------ misc plumbing

def test_boundary_mesh_and_gamma_consistency():
    K = ConvexDomain.unit_square()
    ss = np.linspace(0, K.perimeter, 64, endpoint=False)
    zs = K.gamma(ss)
    for s, z in zip(ss, zs):
        assert K.gamma(float(s)) == pytest.approx(z)
        assert abs(K.interior_margin(z)) <= 1e-12


def test_gamma_from_cached_arrays_matches_per_point_reference():
    # gamma on an array, gamma on each scalar and the edge formula
    # v[i] + (s - cum[i]) dir[i] in Python complex arithmetic agree byte
    # for byte, at the vertices +- 1 ulp, at s = L and outside [0, L)
    rng = trial_rng(20260818, 11)
    for K in (ConvexDomain.unit_square(), ConvexDomain.regular_polygon(8),
              random_convex_polygon(rng, vertices=7)):
        L = K.perimeter
        n = len(K.vertices)
        cum = [K.vertex_s(i) for i in range(n)]
        ss = [L, -0.25 * L, 1.75 * L, -1e-300, 0.0]
        for sv in cum:
            ss += [sv, np.nextafter(sv, -math.inf), np.nextafter(sv, math.inf)]
        ss += list(rng.uniform(-L, 2 * L, 20))
        ss = np.array(ss)
        many = K.gamma(ss)
        for s, z in zip(ss, many):
            t = float(s) % L
            i = min(int(np.searchsorted(cum + [L], t, side="right")) - 1,
                    n - 1)
            want = complex(K.vertices[i] + (t - cum[i]) * K._edge_dir[i])
            one = K.gamma(float(s))
            assert type(one) is complex
            assert (np.array([one, z]).tobytes()
                    == np.array([want, want]).tobytes()), (K, s)


def test_cached_boundary_arrays_are_read_only():
    for K in (ConvexDomain.unit_square(), ConvexDomain.regular_polygon(5)):
        for arr, ref in ((K._cum_arr, K._cum), (K._vert_arr, K.vertices),
                         (K._dir_arr, K._edge_dir)):
            assert not arr.flags.writeable
            assert arr.tolist() == list(ref)
            with pytest.raises(ValueError):
                arr[0] = 0.0


def test_nearest_boundary_s_roundtrip():
    rng = trial_rng(20260818, 10)
    K = random_convex_polygon(rng, vertices=6)
    for _ in range(30):
        s = rng.uniform(0.0, K.perimeter)
        z = K.gamma(s)
        s2 = K.nearest_boundary_s(z)
        assert abs(K.gamma(s2) - z) <= 1e-9 * K.diameter


def nearest_boundary_s_loop(K: ConvexDomain, z) -> float:
    """The scalar loop that nearest_boundary_s ran before it took arrays,
    verbatim: the oracle for the array form and for the search's serial
    oracle."""
    if K.kind == "disk":
        ang = math.atan2((z - K.center).imag, (z - K.center).real)
        return (ang % geometry.TWO_PI) * K.radius
    best = (math.inf, 0.0)
    for i, (a, dirv, elen) in enumerate(
            zip(K.vertices, K._edge_dir, K._edge_len)):
        t = (z - a).real * dirv.real + (z - a).imag * dirv.imag
        t = min(max(t, 0.0), elen)
        p = a + t * dirv
        dist = abs(z - p)
        if dist < best[0]:
            best = (dist, K._cum[i] + t)
    return best[1] % K.perimeter


def test_nearest_boundary_s_matches_the_scalar_loop():
    # bit for bit, on points inside and outside K, within 1e-9 d of every
    # vertex, and on every corner's outer bisector, where two edges tie;
    # each point as part of an array, as a Python complex and as a numpy
    # scalar
    rng = trial_rng(20260818, 11)
    domains = [ConvexDomain.unit_disk(), ConvexDomain.disk(0.3 - 0.2j, 2.5),
               ConvexDomain.unit_square(),
               ConvexDomain.polygon([0, 2, 0.5 + 1.3j]),
               ConvexDomain.regular_polygon(8)]
    domains += [random_convex_polygon(rng, vertices=k) for k in (3, 5, 9)]
    for K in domains:
        d = K.diameter
        centre = complex(np.mean(K.as_clip_polygon(64)))
        points = [centre + d * (rng.standard_normal(300)
                                + 1j * rng.standard_normal(300))]
        if K.kind == "polygon":
            vs = np.array(K.vertices)
            out = -1j * np.array(K._edge_dir)
            bisector = out + np.roll(out, 1)
            bisector /= np.abs(bisector)
            for v, b in zip(vs, bisector):
                points.append(v + 1e-9 * d * (rng.standard_normal(20)
                                              + 1j * rng.standard_normal(20)))
                points.append(v + b * d * rng.uniform(0.0, 2.0, 20))
        z = np.concatenate(points)
        got = K.nearest_boundary_s(z)
        assert got.shape == z.shape
        for zz, s in zip(z, got.tolist()):
            want = nearest_boundary_s_loop(K, complex(zz))
            assert nearest_boundary_s_loop(K, zz) == want, (K, zz)
            for one in (K.nearest_boundary_s(complex(zz)),
                        K.nearest_boundary_s(zz)):
                assert type(one) is float and one == want, (K, zz)
            assert s == want, (K, zz)


def test_polygon_diameter_helper():
    assert polygon_diameter([0j, 1 + 0j, 1 + 1j]) == pytest.approx(SQRT2)
