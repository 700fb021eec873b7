"""Norm and derivative oracles.

Circle cases have closed forms: |z^n| = 1 on the unit circle so every
L^q norm is (2*pi)^(1/q) and M_q(z^n) = n exactly; z^2 - 1 integrates by
hand.  Everything else is checked against dense composite trapezoid sums
and brute-force meshes."""

import json
import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscillab.errors import QuadratureLimit, SingularPoint, ZeroNorm
from oscillab import polynomials
from oscillab.geometry import ConvexDomain
from oscillab.polynomials import (
    LqNorm,
    MarkovFactor,
    RootPolynomial,
    _adaptive_log_integral,
    _boundary_pieces,
    _golden_max,
    inverse_markov_factor,
    log_abs,
    log_derivative,
    logabs_derivative,
    lq_norm,
    sup_norm,
    sup_norms,
)
from oscillab.sampling import random_convex_polygon, random_roots_in, trial_rng
from oscillab.search import reference_families

TWO_PI = 2 * math.pi


def trapezoid_norm(p, K, q, pts_per_edge=200_001):
    """Composite trapezoid of |p|^q along each edge (or the whole circle)."""
    pieces = []
    if K.kind == "polygon":
        cum = [K.vertex_s(i) for i in range(len(K.vertices))]
        cum.append(K.perimeter)
        for a, b in zip(cum[:-1], cum[1:]):
            pieces.append(np.linspace(a, b, pts_per_edge))
    else:
        pieces.append(np.linspace(0.0, K.perimeter, 4 * pts_per_edge))
    total = 0.0
    for ss in pieces:
        vals = np.exp(q * log_abs(p, K.gamma(ss)))
        h = ss[1] - ss[0]
        total += h * (vals.sum() - 0.5 * (vals[0] + vals[-1]))
    return total ** (1.0 / q)


# --------------------------------------------------------------- basics

def _mp_poly(p, z):
    """p(z) as an mpmath product at 50 digits."""
    with mpmath.workdps(50):
        return mpmath.mpc(p.lead) * mpmath.fprod(
            mpmath.mpc(z) - mpmath.mpc(r) for r in p.roots)


def test_evaluate_and_log_abs():
    p = RootPolynomial(2.0, [1.0, -1.0])
    for z in (2.0, 0j, 3.0 + 0j):
        want = float(mpmath.log(abs(_mp_poly(p, z))))
        assert log_abs(p, z) == pytest.approx(want, rel=1e-15, abs=1e-15)
    zs = np.array([2.0 + 0j, 3.0 + 0j])
    np.testing.assert_allclose(np.exp(log_abs(p, zs)), [6.0, 16.0],
                               rtol=1e-15)
    assert log_abs(p, 1.0) == -math.inf


def test_constant_polynomial():
    p = RootPolynomial(3.0, [])
    assert p.n == 0
    assert log_abs(p, 5.0) == pytest.approx(
        float(mpmath.log(abs(_mp_poly(p, 5.0)))), rel=1e-15)
    K = ConvexDomain.unit_disk()
    rep = inverse_markov_factor(p, K, 2.0)
    assert rep.M == 0.0


def test_json_roundtrip():
    p = RootPolynomial(1.5 - 0.5j, [0.1 + 0.2j, -0.3j])
    p2 = RootPolynomial.from_json(p.to_json())
    assert p2.lead == p.lead and p2.roots == p.roots


def test_log_derivative_matches_finite_difference():
    p = RootPolynomial(1.0, [0.2 + 0.1j, -0.4, 0.5j])
    z = 1.1 + 0.3j
    h = 1e-7
    with mpmath.workdps(50):
        fd = ((_mp_poly(p, z + h) - _mp_poly(p, z - h)) / (2 * h)
              / _mp_poly(p, z))
    assert log_derivative(p, z) == pytest.approx(complex(fd), rel=1e-6)


def test_log_derivative_singular_on_root():
    p = RootPolynomial(1.0, [0.5 + 0j])
    with pytest.raises(SingularPoint):
        log_derivative(p, 0.5 + 0j)


def test_zero_polynomial_rejected():
    K = ConvexDomain.unit_disk()
    with pytest.raises(ZeroNorm):
        inverse_markov_factor(RootPolynomial(0.0, [1.0]), K, 2.0)


# --------------------------------------------------------------- circle

def test_power_norms_on_circle():
    K = ConvexDomain.unit_disk()
    for n in (1, 5, 40):
        p = RootPolynomial(1.0, [0.0] * n)
        for q in (1.0, 2.0, 7.0):
            got = lq_norm(p, K, q)
            assert got.value == pytest.approx(TWO_PI ** (1 / q), rel=1e-7)
            rep = inverse_markov_factor(p, K, q)
            assert rep.M == pytest.approx(n, rel=1e-7)
        rep = inverse_markov_factor(p, K, math.inf)
        assert rep.M == pytest.approx(n, rel=1e-9)


def test_quadratic_norms_on_circle():
    K = ConvexDomain.unit_disk()
    p = RootPolynomial(1.0, [1.0, -1.0])  # z^2 - 1
    assert lq_norm(p, K, 1.0).value == pytest.approx(8.0, rel=1e-7)
    assert lq_norm(p, K, 2.0).value == pytest.approx(
        math.sqrt(4 * math.pi), rel=1e-7)
    # |p'| = 2 on the unit circle
    assert inverse_markov_factor(p, K, 1.0).norm_dp == pytest.approx(
        4 * math.pi, rel=1e-7)
    assert inverse_markov_factor(p, K, 1.0).M == pytest.approx(
        math.pi / 2, rel=1e-6)
    assert inverse_markov_factor(p, K, 2.0).M == pytest.approx(
        math.sqrt(2.0), rel=1e-6)
    sup = sup_norm(p, K)
    assert sup.value == pytest.approx(2.0, rel=1e-9)
    assert inverse_markov_factor(p, K, math.inf).M == pytest.approx(
        1.0, rel=1e-6)


# --------------------------------------------------------------- square

def test_square_norm_against_trapezoid():
    K = ConvexDomain.unit_square()
    p = RootPolynomial(1.0, [0.3 + 0.2j, -0.1 + 0.8j, 1.0 + 1.0j])
    for q in (1.0, 3.0):
        want = trapezoid_norm(p, K, q)
        got = lq_norm(p, K, q)
        assert got.value == pytest.approx(want, rel=1e-6)


def test_polygon_sup_norm_against_dense_mesh():
    rng = trial_rng(20260818, 20)
    for _ in range(5):
        K = random_convex_polygon(rng, vertices=int(rng.integers(3, 8)))
        roots = random_roots_in(K, 12, rng)
        p = RootPolynomial(1.0, roots)
        ss = np.linspace(0, K.perimeter, 400_000, endpoint=False)
        vals = log_abs(p, K.gamma(ss))
        s0 = float(ss[int(np.argmax(vals))])
        h = K.perimeter / 400_000
        local = np.linspace(s0 - 2 * h, s0 + 2 * h, 200_001) % K.perimeter
        brute = float(np.max(log_abs(p, K.gamma(local))))
        got = sup_norm(p, K)
        assert got.log_value >= brute - 1e-9
        assert got.log_value == pytest.approx(brute, abs=1e-6)


# --------------------------------------------------------------- routes

def test_derivative_routes_agree():
    rng = trial_rng(20260818, 21)
    K = ConvexDomain.unit_square()
    roots = random_roots_in(K, 50, rng)
    p = RootPolynomial(1.0, roots)
    ss = rng.uniform(0, K.perimeter, size=200)
    zs = K.gamma(ss)
    # interior roots expanded about their centroid keep the coefficients
    # well conditioned, so the coefficient form is a fair reference here
    c = np.mean(roots)
    dcoeffs = np.polyder(np.poly(np.asarray(roots) - c))
    a = np.log(np.abs(np.polyval(dcoeffs, zs - c)))
    b = logabs_derivative(p, zs)
    np.testing.assert_allclose(a, b, rtol=1e-8, atol=1e-8)


def test_large_degree_derivative_against_coefficients():
    rng = trial_rng(20260818, 22)
    K = ConvexDomain.unit_disk()
    roots = random_roots_in(K, 80, rng)
    p = RootPolynomial(1.0, roots)
    zs = K.gamma(rng.uniform(0, K.perimeter, size=100))
    got = logabs_derivative(p, zs)  # log route at this degree
    coeffs = np.polyder(np.poly(np.asarray(roots)))
    want = np.log(np.abs(np.polyval(coeffs, zs)))
    np.testing.assert_allclose(got, want, rtol=1e-7, atol=1e-7)


def test_derivative_exactly_on_root():
    rng = trial_rng(20260818, 23)
    K = ConvexDomain.unit_disk()
    roots = list(random_roots_in(K, 70, rng))
    z0 = roots[3]
    p = RootPolynomial(1.0, roots)
    got = logabs_derivative(p, np.asarray([z0]))[0]
    others = np.asarray([r for i, r in enumerate(roots) if i != 3])
    want = float(np.log(np.abs(z0 - others)).sum())
    assert got == pytest.approx(want, rel=1e-9)


def _mp_logabs(roots, z):
    """(log |p(z)|, log |p'(z)|) of the monic polynomial at 50 digits, the
    second as log |p(z) sum 1/(z - r)|; z must not be a root."""
    with mpmath.workdps(50):
        d = [mpmath.mpc(z) - mpmath.mpc(r) for r in roots]
        pz = mpmath.fprod(d)
        dp = pz * mpmath.fsum(1 / x for x in d)
        return float(mpmath.log(abs(pz))), float(mpmath.log(abs(dp)))


def _oracle_case(name):
    rng = trial_rng(20260818, 31)
    if name == "octagon-n1024":
        octagon = ConvexDomain.regular_polygon(8)
        roots = tuple(random_roots_in(octagon, 1024, rng))
        return roots, octagon.gamma(rng.uniform(0, octagon.perimeter,
                                                size=40))
    square = ConvexDomain.unit_square()
    boundary = square.gamma(rng.uniform(0, square.perimeter, size=40))
    if name == "equispaced-square-n64":
        roots = reference_families(square, 64)[1].roots
        near = [r + 1e-7 * complex(*rng.normal(size=2)) for r in roots[:8]]
        return roots, np.concatenate([boundary, near])
    if name == "clustered-cloud":
        roots = tuple(0.5 + 0.5j + 1e-3 * complex(*rng.normal(size=2))
                      for _ in range(40))
        ring = 0.5 + 0.5j + 0.05 * np.exp(2j * math.pi * rng.uniform(size=8))
        return roots, np.concatenate([boundary, ring])
    # a root of multiplicity 31 plus a few simple ones
    roots = (0.3 + 0.4j,) * 31 + tuple(random_roots_in(square, 5, rng))
    off = 0.3 + 0.4j + 1e-3 * np.exp(2j * math.pi * rng.uniform(size=8))
    return roots, np.concatenate([boundary, off])


@pytest.mark.parametrize("name", ["equispaced-square-n64", "clustered-cloud",
                                  "multiplicity-31", "octagon-n1024"])
def test_logabs_derivative_against_mpmath(name):
    roots, zs = _oracle_case(name)
    p = RootPolynomial(1.0, roots)
    want = np.array([_mp_logabs(roots, z) for z in zs])
    np.testing.assert_allclose(log_abs(p, zs), want[:, 0], rtol=0,
                               atol=1e-10)
    np.testing.assert_allclose(logabs_derivative(p, zs), want[:, 1], rtol=0,
                               atol=1e-10)


def test_kernel_value_independent_of_batch():
    # n = 1000 puts 65 points in a kernel chunk; 4097 points straddle 64
    # chunk boundaries and leave a short last chunk
    rng = trial_rng(20260818, 32)
    K = ConvexDomain.regular_polygon(8)
    p = RootPolynomial(1.0, random_roots_in(K, 1000, rng))
    zs = K.gamma(rng.uniform(0, K.perimeter, size=4097))
    la, ld = logabs_derivative(p, zs, with_log_abs=True)
    assert np.array_equal(la, log_abs(p, zs))
    assert np.array_equal(ld, logabs_derivative(p, zs))
    for i in (0, 64, 65, 129, 130, 2047, 4095, 4096):
        assert log_abs(p, zs[i]) == la[i]
        assert logabs_derivative(p, zs[i]) == ld[i]
        assert logabs_derivative(p, zs[i:i + 1])[0] == ld[i]


@pytest.mark.parametrize("K", [ConvexDomain.regular_polygon(8),
                               ConvexDomain.unit_square(),
                               ConvexDomain.unit_disk()],
                         ids=["octagon", "square", "disk"])
def test_fused_sup_norms_match_separate(K):
    rng = trial_rng(20260818, 33)
    p = RootPolynomial(1.0, random_roots_in(K, 300, rng))
    sup_p, sup_dp = sup_norms(p, K)
    alone_p = sup_norm(p, K)
    alone_dp = sup_norm(p, K, flog=lambda z: logabs_derivative(p, z))
    assert sup_p.log_value == pytest.approx(alone_p.log_value, rel=1e-12)
    assert sup_dp.log_value == pytest.approx(alone_dp.log_value, rel=1e-12)
    want = alone_dp.value / alone_p.value
    assert inverse_markov_factor(p, K, math.inf).M == pytest.approx(
        want, rel=1e-12)


def test_batched_golden_max_matches_single_brackets():
    rng = trial_rng(20260818, 34)
    K = ConvexDomain.regular_polygon(8)
    p = RootPolynomial(1.0, random_roots_in(K, 40, rng))
    f = lambda s: logabs_derivative(p, K.gamma(s))
    lo = rng.uniform(0.0, K.perimeter, size=12)
    hi = lo + rng.uniform(1e-6, 0.5, size=12)
    xs, vs = _golden_max(f, lo, hi)
    assert xs.shape == vs.shape == (12,)
    for i in range(12):
        x1, v1 = _golden_max(f, lo[i:i + 1], hi[i:i + 1])
        assert (x1[0], v1[0]) == (xs[i], vs[i])
        assert lo[i] <= xs[i] <= hi[i]


def test_sup_polish_cost_does_not_grow_with_candidates(monkeypatch):
    # |z^n| = 1 on the unit circle, so every mesh value is in the top tier
    # and the polish takes the full 16 candidates; (z - 1/2) has one peak
    D = ConvexDomain.unit_disk()
    brackets, kernel = [], []
    golden, sums = polynomials._golden_max, polynomials._root_sums

    def counted_golden(f, lo, hi, *args):
        brackets.append(np.size(lo))
        return golden(f, lo, hi, *args)

    def counted_sums(*args):
        kernel.append(1)
        return sums(*args)

    monkeypatch.setattr(polynomials, "_golden_max", counted_golden)
    monkeypatch.setattr(polynomials, "_root_sums", counted_sums)
    calls = []
    for roots in ([0j] * 64, [0.5 + 0j]):
        kernel.clear()
        sup_norm(RootPolynomial(1.0, roots), D)
        calls.append(len(kernel))
    assert brackets == [16, 1]
    # one mesh pass, then two initial probes and 80 golden steps
    assert calls == [1 + 82, 1 + 82]


@pytest.mark.parametrize("n", [8, 65])
def test_repeated_root_without_warnings(n):
    K = ConvexDomain.unit_square()
    p = reference_families(K, n)[2]  # n-fold root at the vertex 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert logabs_derivative(p, 0j) == -math.inf
        M = inverse_markov_factor(p, K, math.inf).M
    # |p'| / |p| = n / |z|, both maximal at the far corner |z| = sqrt 2
    assert M == pytest.approx(n / math.sqrt(2), rel=1e-9)


@pytest.mark.parametrize("q", [0.5, math.nan, -math.inf])
def test_lq_norm_rejects_bad_q(q):
    with pytest.raises(ValueError):
        lq_norm(RootPolynomial(1.0, [0.0]), ConvexDomain.unit_disk(), q)


def test_scale_invariance_of_markov_factor():
    K = ConvexDomain.unit_square()
    roots = [0.2 + 0.3j, 0.7 + 0.6j, 0.5 + 0.1j]
    a = inverse_markov_factor(RootPolynomial(1.0, roots), K, 2.0)
    b = inverse_markov_factor(RootPolynomial(1e200, roots), K, 2.0)
    assert a.M == b.M
    assert a.log_norm_p == b.log_norm_p


# --------------------------------------------------------------- pieces

PIECE_DOMAINS = (ConvexDomain.unit_square(), ConvexDomain.disk(1j, 2.5),
                 random_convex_polygon(trial_rng(20260818, 24), vertices=7))
CUTS = (0.3, 1.0, 2.71828)


def test_boundary_pieces_tile_the_boundary():
    for K in PIECE_DOMAINS:
        for pieces in (_boundary_pieces(K),
                       _boundary_pieces(K, CUTS + (0.0, K.perimeter))):
            lengths = [b - a for a, b in pieces]
            assert min(lengths) > 0
            assert sum(lengths) == pytest.approx(K.perimeter,
                                                 abs=1e-12 * K.perimeter)
            # consecutive, from 0 to L
            assert pieces[0][0] == 0.0 and pieces[-1][1] == K.perimeter
            assert all(b == a2 for (_, b), (a2, _) in zip(pieces,
                                                         pieces[1:]))
        pieces = _boundary_pieces(K, CUTS)
        assert set(CUTS) <= {s for piece in pieces for s in piece}
        if K.kind == "polygon":
            # each piece lies within one edge
            corners = [K.vertex_s(i) for i in range(len(K.vertices))]
            for a, b in pieces:
                assert not any(a < c < b for c in corners), (a, b)


def test_constant_integrand_gives_piece_lengths():
    flat = lambda z: np.zeros(np.shape(z))
    for K in PIECE_DOMAINS:
        pieces = _boundary_pieces(K, CUTS)
        masses, panels = _adaptive_log_integral(K, flat, 2.0, pieces)
        # every piece is accepted at its first halving, so none is split
        assert panels == len(pieces)
        lengths = np.array([b - a for a, b in pieces])
        assert np.allclose(np.exp(masses), lengths, rtol=1e-14, atol=0)


def test_quadrature_panel_limit_stops_huge_q(bounded_python):
    # a huge q makes |p|^q a spike the nodes cannot see, and the panels of
    # one level once grew toward 2^26 per piece until memory ran out
    res = bounded_python("""
from oscillab.errors import QuadratureLimit
from oscillab.geometry import ConvexDomain
from oscillab.polynomials import RootPolynomial, lq_norm
K = ConvexDomain.unit_square()
p = RootPolynomial(1.0, [0.3 + 0.2j, 0.7 + 0.6j, 0.5 + 0.5j])
print(lq_norm(p, K, 1e5).panels)
for q in (1e12, 1e100, 1e308):
    try:
        lq_norm(p, K, q)
        print("no limit at", q)
    except QuadratureLimit as exc:
        print("limit:", exc)
""")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert int(lines[0]) > 1000
    assert all(line.startswith("limit:") for line in lines[1:]), lines
    assert len(lines) == 4
    # q = 1e12 stays finite in q log|p| and stops on the panel bound
    assert "panels to split" in lines[1]


def test_quadrature_overflow_raises_before_any_warning():
    # q log|p| overflows to inf at q = 1e308 where |p| > e^1.8; the
    # quadrature stops at once instead of comparing nan panel values
    K = ConvexDomain.unit_square()
    p = RootPolynomial(1.0, [5.0, 5j])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(QuadratureLimit, match="q = 1e.308.*overflows"):
            lq_norm(p, K, 1e308)


# ------------------------------------------------- one tree for p and p'

REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs_markov.json"

# the best roots of minimize_oscillation(unit square, SearchConfig(n=16,
# q=1.0, budget=240, seed=3)): all 16 on the boundary, 9 at corners
_BOUNDARY_ROOTS = (
    0j, 1 + 0j, 0.056104319085339416 + 1j, 1 + 1j, 0.37651456896159674 + 0j,
    0.9984393330896362 + 1j, 1 + 1j, 0j, 1j, 0.45468807968561364 + 0j, 1j,
    1 + 1j, 1 + 1j, 1 + 0.8562521384771111j, 0.04864885083135917 + 1j, 0j)


def _mp_log_norms(roots, K, q):
    """30-digit (log |p|_q, log |p'|_q) of the monic polynomial on a
    polygon boundary: one mpmath.quad per edge, split at the foot of every
    root on it, so no integrand has a kink, or a root nearby, inside a
    segment."""
    with mpmath.workdps(30):
        rs = [mpmath.mpc(r.real, r.imag) for r in roots]
        mass_p = mass_dp = mpmath.mpf(0)
        verts = [mpmath.mpc(v.real, v.imag) for v in K.vertices]
        for za, zb in zip(verts, verts[1:] + verts[:1]):
            ts = [(r - za) / (zb - za) for r in rs]
            cuts = sorted({0, 1} | {t.real for t in ts if 0 < t.real < 1})

            def on_edge(t):
                return [za + t * (zb - za) - r for r in rs]
            fp = lambda t: mpmath.fprod(abs(d) for d in on_edge(t)) ** q
            fdp = lambda t: abs(mpmath.fprod(on_edge(t)) * mpmath.fsum(
                1 / d for d in on_edge(t))) ** q
            mass_p += mpmath.quad(fp, cuts) * abs(zb - za)
            mass_dp += mpmath.quad(fdp, cuts) * abs(zb - za)
        return (float(mpmath.log(mass_p) / q),
                float(mpmath.log(mass_dp) / q))


def test_markov_factor_integrates_once(monkeypatch):
    calls = []
    original = polynomials._adaptive_log_integral

    def counted(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(polynomials, "_adaptive_log_integral", counted)
    p = RootPolynomial(1.0, [0.3 + 0.2j, 0.7 + 0.6j, 0.5 + 0.5j])
    inverse_markov_factor(p, ConvexDomain.unit_square(), 2.0)
    assert len(calls) == 1


def test_joint_log_norms_match_mpmath_per_edge():
    rng = trial_rng(20260818, 40)
    K = random_convex_polygon(rng, vertices=5)
    roots = random_roots_in(K, 6, rng)
    got = polynomials._log_norms(RootPolynomial(1.0, roots), K, 1.0)
    want = _mp_log_norms(roots, K, 1.0)
    assert np.allclose(got, want, rtol=0, atol=1e-10), (got, want)


def test_markov_factor_with_boundary_roots_matches_mpmath():
    # |p| has a kink at every boundary root; a panel tree refined for |p|
    # alone settled too early beside them and read M off by 1.4e-8
    K = ConvexDomain.unit_square()
    log_p, log_dp = _mp_log_norms(_BOUNDARY_ROOTS, K, 1.0)
    M = inverse_markov_factor(RootPolynomial(1.0, _BOUNDARY_ROOTS), K,
                              1.0).M
    assert abs(M / math.exp(log_dp - log_p) - 1) <= 1e-10


def test_markov_factor_matches_committed_references():
    # the benchmark's 30-digit references, read only; on
    # square-equispaced-n64 at q = 1 the separate trees of p and p' differ
    # (112 and 128 panels)
    cells = json.loads(REFS.read_text(encoding="utf-8"))["cells"]
    checked = []
    for cell in cells:
        if cell["n"] > 256:
            continue
        K = ConvexDomain.from_json(cell["domain"])
        p = RootPolynomial(1.0, [complex(x, y) for x, y in cell["roots"]])
        for qname in ("1", "2"):
            want = float(cell["M"][qname])
            got = inverse_markov_factor(p, K, float(qname)).M
            assert abs(got / want - 1) <= 1e-10, (cell["id"], qname, got)
            checked.append(f"{cell['id']}-q{qname}")
    assert "square-equispaced-n64-q1" in checked and len(checked) >= 14


def test_constant_polynomial_has_zero_markov_factor():
    K = ConvexDomain.regular_polygon(5)
    mf = inverse_markov_factor(RootPolynomial(3.0, []), K, 2.0)
    assert mf.M == 0.0 and mf.log_norm_dp == -math.inf
    # the p' row is -inf everywhere and leaves the tree to the p row
    assert mf.log_norm_p == lq_norm(RootPolynomial(1.0, []), K,
                                    2.0).log_value


# --------------------------------------------------------------- records

def test_markov_record_fields():
    K = ConvexDomain.unit_disk()
    p = RootPolynomial(1.0, [0.0, 0.0])
    rep = inverse_markov_factor(p, K, 2.0)
    rec = rep.as_record()
    assert set(rec) == {"q", "norm_p", "norm_dp", "M"}
    assert rec["M"] == pytest.approx(2.0, rel=1e-7)
    assert rec["norm_dp"] / rec["norm_p"] == pytest.approx(rec["M"])


def test_huge_degree_norm_stays_finite_in_log():
    K = ConvexDomain.disk(0j, 2.0)
    p = RootPolynomial(1.0, [0.0] * 600)
    rep = inverse_markov_factor(p, K, 4.0)
    # |p| = 2^600 on the circle; the ratio must stay clean
    assert rep.M == pytest.approx(300.0, rel=1e-6)
    assert rep.log_norm_p == pytest.approx(
        600 * math.log(2.0) + math.log(4 * math.pi) / 4, rel=1e-9)


def test_translation_covariance():
    rng = trial_rng(20260818, 25)
    K = random_convex_polygon(rng, vertices=5)
    roots = random_roots_in(K, 8, rng)
    t = 3.7 - 2.2j
    K2 = ConvexDomain.polygon([v + t for v in K.vertices])
    a = inverse_markov_factor(RootPolynomial(1.0, roots), K, 2.0)
    b = inverse_markov_factor(
        RootPolynomial(1.0, [r + t for r in roots]), K2, 2.0)
    assert a.M == pytest.approx(b.M, rel=1e-10)


def test_lq_norm_approaches_sup_norm():
    rng = trial_rng(20260818, 26)
    K = ConvexDomain.unit_disk()
    p = RootPolynomial(1.0, random_roots_in(K, 6, rng))
    sup = sup_norm(p, K)
    prev = None
    for q in (2.0, 8.0, 64.0):
        nq = lq_norm(p, K, q)
        normalized = nq.log_value - math.log(K.perimeter) / q
        assert normalized <= sup.log_value + 1e-9
        if prev is not None:
            assert normalized >= prev - 1e-9
        prev = normalized
    assert math.exp(prev - sup.log_value) > 0.95


def test_disk_pointwise_derivative_floor():
    # roots inside a disk of radius R force |p'/p| >= n/(2R) on the rim
    rng = trial_rng(20260818, 27)
    for trial in range(100):
        R = float(rng.uniform(0.5, 3.0))
        K = ConvexDomain.disk(complex(*rng.normal(size=2)), R)
        n = int(rng.integers(1, 30))
        p = RootPolynomial(1.0, random_roots_in(K, n, rng))
        zs = K.gamma(rng.uniform(0, K.perimeter, size=64))
        ratio = logabs_derivative(p, zs) - log_abs(p, zs)
        floor = math.log(n / (2 * R))
        assert np.all(ratio >= floor - 1e-7), (trial, R, n)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_norm_dominated_by_sup(seed):
    rng = np.random.default_rng(seed)
    K = random_convex_polygon(rng, vertices=int(rng.integers(3, 8)))
    n = int(rng.integers(1, 12))
    p = RootPolynomial(1.0, random_roots_in(K, n, rng))
    q = float(rng.uniform(1.0, 6.0))
    nq = lq_norm(p, K, q)
    sup = sup_norm(p, K)
    bound = sup.log_value + math.log(K.perimeter) / q
    assert nq.log_value <= bound + 1e-7
    assert nq.log_value > -math.inf


# ------------------------------------------------------------- invariance

_QS = st.sampled_from([1.0, 2.0, math.inf])


def _moved(K, f):
    """K mapped by the similarity f (orientation preserving)."""
    if K.kind == "polygon":
        return ConvexDomain.polygon([f(v) for v in K.vertices])
    return ConvexDomain.disk(f(K.center), abs(f(K.center + K.radius)
                                              - f(K.center)))


def _random_case(seed):
    rng = np.random.default_rng(seed)
    K = (ConvexDomain.disk(complex(*rng.normal(size=2)),
                           float(rng.uniform(0.5, 2.0)))
         if rng.uniform() < 0.25
         else random_convex_polygon(rng, vertices=int(rng.integers(3, 8))))
    return K, random_roots_in(K, int(rng.integers(1, 13)), rng)


@given(st.integers(0, 2 ** 32 - 1), _QS,
       st.complex_numbers(max_magnitude=100.0),
       st.floats(0.0, 2 * math.pi))
@settings(max_examples=15, deadline=None)
def test_markov_factor_invariant_under_rigid_motion(seed, q, t, theta):
    K, roots = _random_case(seed)
    rot = complex(math.cos(theta), math.sin(theta))
    f = lambda z: rot * z + t
    a = inverse_markov_factor(RootPolynomial(1.0, roots), K, q)
    b = inverse_markov_factor(RootPolynomial(1.0, [f(r) for r in roots]),
                              _moved(K, f), q)
    assert b.M == pytest.approx(a.M, rel=1e-8)


@given(st.integers(0, 2 ** 32 - 1), _QS, st.floats(-3.0, 3.0))
@settings(max_examples=15, deadline=None)
def test_markov_factor_scales_inversely(seed, q, log10_a):
    K, roots = _random_case(seed)
    a = 10.0 ** log10_a
    f = lambda z: a * z
    m = inverse_markov_factor(RootPolynomial(1.0, roots), K, q)
    m_a = inverse_markov_factor(RootPolynomial(1.0, [f(r) for r in roots]),
                                _moved(K, f), q)
    assert m_a.M == pytest.approx(m.M / a, rel=1e-8)


@given(st.integers(1, 200), _QS)
@settings(max_examples=15, deadline=None)
def test_power_on_unit_disk_gives_degree(n, q):
    rep = inverse_markov_factor(RootPolynomial(1.0, [0.0] * n),
                                ConvexDomain.unit_disk(), q)
    assert rep.M == pytest.approx(n, rel=1e-8)
