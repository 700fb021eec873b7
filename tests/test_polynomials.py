"""Norm and derivative oracles.

Circle cases have closed forms: |z^n| = 1 on the unit circle so every
L^q norm is (2*pi)^(1/q) and M_q(z^n) = n exactly; z^2 - 1 integrates by
hand.  Everything else is checked against dense composite trapezoid sums
and brute-force meshes."""

import json
import math
import re
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
from oscillab.sampling import (random_convex_polygon, random_roots_in,
                               random_roots_loose, trial_rng)
from oscillab.search import (SearchConfig, minimize_oscillation,
                             reference_families)

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


def test_scale_is_the_largest_root_modulus_at_least_one():
    # the cached value equals max(1, max_j |r_j|) computed afresh
    def formula(p):
        if not p.roots:
            return 1.0
        return max(1.0, float(np.max(np.abs(np.array(p.roots)))))
    big = RootPolynomial(1.0, [3e300 + 4e300j, -1e200, 0.5])
    for p in (RootPolynomial(2.0, []), RootPolynomial(0.0, [0.3, 0.2j]),
              RootPolynomial(1.0, [0j] * 3), big,
              RootPolynomial(1.0, [1e6j, -2.5 + 0j])):
        assert p.scale() == formula(p)
    assert big.scale() == 5e300
    assert RootPolynomial(0.0, [1e6j]).scale() == 1e6
    # not a dataclass field: a cached scale leaves equality, hashing and
    # JSON as they are
    p, fresh = RootPolynomial(1.0, [2.0]), RootPolynomial(1.0, [2.0])
    assert p.scale() == 2.0
    assert p == fresh and hash(p) == hash(fresh)
    assert p.to_json() == fresh.to_json()


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


def _per_point_logabs_dp(p, flat):
    """The cofactor fallback as it was, one point at a time, verbatim."""
    roots = p._root_array
    thresh = polynomials._NEAR_ROOT * p.scale()
    la, nearest, recip = polynomials._root_sums(roots, flat, True)
    la += math.log(abs(p.lead))
    close = nearest < thresh
    with np.errstate(divide="ignore", invalid="ignore"):
        out = la + np.log(np.abs(recip))
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


@pytest.mark.parametrize("case", ["equispaced-n64", "cluster", "multiple",
                                  "many-chunks"])
def test_grouped_cofactor_fallback_matches_the_per_point_loop(case):
    # the points near a root go through the fallback grouped by nearest
    # root, one pass per group, each with the per-point loop's value
    rng = trial_rng(20260818, 33)
    square = ConvexDomain.unit_square()
    if case in ("equispaced-n64", "many-chunks"):
        roots = np.array(reference_families(square, 64)[1].roots)
    elif case == "cluster":
        # pairs and a triple of roots closer than the near-root threshold
        base = np.array(random_roots_in(square, 12, rng))
        roots = np.concatenate([base, base[:4] + 3e-14, base[:1] - 2e-14j])
    else:
        roots = np.array([0.3 + 0.4j] * 31 + list(random_roots_in(square, 5,
                                                                  rng)))
    lead = 2.5 - 1j
    p = RootPolynomial(lead, tuple(roots))
    reps = 24 if case == "many-chunks" else 3
    on = np.repeat(roots, reps)
    jitter = 1e-13 * (rng.normal(size=on.size) + 1j * rng.normal(size=on.size))
    zs = np.concatenate([on, on + jitter, square.gamma(
        rng.uniform(0, square.perimeter, size=50))])
    zs = zs[rng.permutation(zs.size)]
    la, ld = logabs_derivative(p, zs, with_log_abs=True)
    want_la, want_ld = _per_point_logabs_dp(p, zs)
    assert np.array_equal(la, want_la)
    assert np.array_equal(ld, want_ld)
    assert np.isneginf(ld).any() == (case in ("cluster", "multiple"))


def _scalar_log_sum(values) -> float:
    """The 1-D log-sum-exp formula the norms used before _log_sum took
    rows, verbatim."""
    values = np.asarray(values, dtype=float)
    top = values.max(initial=-math.inf)
    if top == -math.inf:
        return -math.inf
    return float(top + np.log(np.sum(np.exp(values - top))))


def test_log_sum_gives_the_scalar_formula_for_a_vector_and_each_row():
    # one path serves 1-D values (the norms, audits and covering) and rows
    # (the search's restarts); both give the 1-D formula bit for bit
    rng = trial_rng(20260818, 34)
    for k in (0, 1, 2, 7, 1024, 1537):
        # one term of 1 and many near e^-10: the log of a sum near 1 shows
        # the rounding of the sum itself
        rows = rng.standard_normal((5, k)) - 10.0
        if k:
            rows[:, 0] = 0.0
            rows[1, rng.integers(0, k, size=max(1, k // 3))] = -math.inf
            rows[2] = -math.inf
        want = [_scalar_log_sum(row) for row in rows]
        got = [polynomials._log_sum(row) for row in rows]
        assert all(type(g) is float for g in got)
        assert [repr(g) for g in got] == [repr(w) for w in want]
        assert [repr(float(g)) for g in polynomials._log_sum(rows)] == [
            repr(w) for w in want]


@pytest.mark.parametrize("K", [ConvexDomain.regular_polygon(8),
                               ConvexDomain.unit_square(),
                               ConvexDomain.unit_disk()],
                         ids=["octagon", "square", "disk"])
def test_fused_sup_norms_match_separate(K):
    rng = trial_rng(20260818, 33)
    p = RootPolynomial(1.0, random_roots_in(K, 300, rng))
    sup_p, sup_dp = sup_norms(p, K)
    assert sup_p == sup_norm(p, K)
    full_p, full_dp = _full_mesh_sups(p, K)
    assert (sup_p, sup_dp) == (full_p, full_dp)
    want = full_dp.value / full_p.value
    assert inverse_markov_factor(p, K, math.inf).M == pytest.approx(
        want, rel=1e-12)


def _full_mesh_sups(p, K, vals=None):
    """(sup |p|, sup |p'|) from the kernel's values on every mesh point,
    with no block skipped; vals are those values, when already known."""
    ss = polynomials._sup_mesh(p, K)
    if vals is None:
        vals = logabs_derivative(p, K.gamma(ss), with_log_abs=True)
    vals_p, vals_dp = vals
    return (polynomials._mesh_sup(K, ss, vals_p, lambda z: log_abs(p, z),
                                  p.n),
            polynomials._mesh_sup(K, ss, vals_dp,
                                  lambda z: logabs_derivative(p, z), p.n))


def _sup_case(K, rng, n, family):
    """Roots of degree n on K for the pruning tests: uniform in K, loose
    around it, on mesh points, or a repeated root at a vertex or the
    centroid."""
    if family == "in":
        return random_roots_in(K, n, rng)
    if family == "loose":
        return random_roots_loose(K, n, rng)
    if family == "mesh":
        ss = polynomials._sup_mesh(RootPolynomial(1.0, [0j] * n), K)
        return K.gamma(rng.choice(ss, size=n))
    if n == 0:
        return []
    centroid, _, vertex, _ = reference_families(K, n)
    return list((vertex if family == "vertex" else centroid).roots)


def _coarse_degree(K):
    """The lowest degree whose sup mesh on K has a coarse bound level:
    _SUP_COARSE_BLOCKS blocks of _SUP_BLOCK^2 points."""
    points = polynomials._SUP_COARSE_BLOCKS * polynomials._SUP_BLOCK ** 2
    per_degree = 8 * (len(K.vertices) if K.kind == "polygon" else 1)
    return -(-points // per_degree)


@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 300), st.booleans(),
       st.sampled_from(["in", "loose", "mesh", "vertex", "centroid"]),
       st.sampled_from([1.0, -2.5 + 1e3j, 1e-7, 0.0]))
@settings(max_examples=40, deadline=None)
def test_pruned_sup_norms_equal_full_mesh(seed, n, coarse, family, lead):
    rng = np.random.default_rng(seed)
    K = (ConvexDomain.disk(complex(*rng.normal(size=2)),
                           float(rng.uniform(0.5, 2.0)))
         if rng.uniform() < 0.25
         else random_convex_polygon(rng, vertices=int(rng.integers(3, 9))))
    if coarse:
        # a mesh of 16 384 to 36 000 points, with one coarse level
        n = _coarse_degree(K) + n
    p = RootPolynomial(lead, _sup_case(K, rng, n, family))
    ss = polynomials._sup_mesh(p, K)
    assert not coarse or ss.size >= (polynomials._SUP_COARSE_BLOCKS
                                     * polynomials._SUP_BLOCK ** 2)
    full = logabs_derivative(p, K.gamma(ss), with_log_abs=True)
    pruned = polynomials._pruned_mesh_values(p, K, ss, True)
    # a point is the kernel's value, or skipped (-inf) and below the
    # top-tier cutoff of _mesh_sup
    for got, want in zip(pruned, full):
        top = want.max()
        cutoff = top - max(2.0, 1e-6 * abs(top))
        skipped = (got == -math.inf) & (want < cutoff)
        assert np.all((got == want) | skipped)
    full_p, full_dp = _full_mesh_sups(p, K, full)
    assert sup_norm(p, K) == full_p
    assert sup_norms(p, K) == (full_p, full_dp)


@pytest.mark.parametrize("K", [ConvexDomain.regular_polygon(8),
                               ConvexDomain.regular_polygon(3),
                               ConvexDomain.unit_disk()],
                         ids=["octagon", "triangle", "disk"])
@pytest.mark.parametrize("family", ["in", "loose", "mesh", "vertex"])
def test_mesh_values_below_block_bounds(K, family):
    # n = 700 gives the octagon and the triangle a coarse level; the
    # blocks of every size up to one spanning the mesh are checked
    rng = trial_rng(20260818, 41)
    for n in (1, 7, 120, 700):
        p = RootPolynomial(0.5 - 2j, _sup_case(K, rng, n, family))
        zs = K.gamma(polynomials._sup_mesh(p, K))
        vals = logabs_derivative(p, zs, with_log_abs=True)
        size = polynomials._SUP_BLOCK
        while size < zs.size * polynomials._SUP_BLOCK:
            starts = np.arange(0, zs.size, size)
            centre, radius = polynomials._mesh_blocks(zs, starts, size)
            assert np.all(radius > 0)
            bounds = polynomials._disc_log_bounds(p, centre, radius, True)
            block = np.arange(zs.size) // size
            # within the rounding margin _pruned_mesh_values allows: at
            # n = 1 the bound of log|p'| is log|lead| + log t + log(1/t),
            # which may round below the exact log|lead|
            for row, bound in zip(vals, bounds):
                bound = bound[block]
                assert np.all(row <= bound + 1e-9 * (1.0 + np.abs(bound))), (
                    n, family, size)
            size *= polynomials._SUP_BLOCK


def test_octagon_n1024_evaluates_few_mesh_points(monkeypatch):
    cell = next(c for c in json.loads(REFS.read_text(encoding="utf-8"))
                ["cells"] if c["id"] == "octagon8-n1024")
    K = ConvexDomain.from_json(cell["domain"])
    p = RootPolynomial(1.0, [complex(x, y) for x, y in cell["roots"]])
    ss = polynomials._sup_mesh(p, K)
    points, sums = [], polynomials._root_sums

    def counted_sums(roots, flat, derivative):
        points.append(flat.size)
        return sums(roots, flat, derivative)

    monkeypatch.setattr(polynomials, "_root_sums", counted_sums)
    vals = polynomials._pruned_mesh_values(p, K, ss, True)
    # the 65 536 points give 256 blocks of 256 at the coarse level, whose
    # centres take the first pass; the kept ones are cut into blocks of 16
    # for the second, and the kept blocks of 16 are evaluated: 448 points
    assert len(points) == 3 and points[0] == ss.size // 256
    assert sum(points) < 0.01 * ss.size
    assert np.isfinite(vals).any(axis=0).sum() == points[2]


def test_batched_golden_max_matches_single_brackets():
    rng = trial_rng(20260818, 34)
    K = ConvexDomain.regular_polygon(8)
    p = RootPolynomial(1.0, random_roots_in(K, 40, rng))
    f = lambda s: logabs_derivative(p, K.gamma(s))
    lo = rng.uniform(0.0, K.perimeter, size=12)
    hi = lo + rng.uniform(1e-6, 0.5, size=12)
    xs, vs = _golden_max(f, lo, hi, p.n)
    assert xs.shape == vs.shape == (12,)
    for i in range(12):
        x1, v1 = _golden_max(f, lo[i:i + 1], hi[i:i + 1], p.n)
        assert (x1[0], v1[0]) == (xs[i], vs[i])
        assert lo[i] <= xs[i] <= hi[i]


@given(st.sampled_from(["rising", "falling", "peak", "kink-start",
                        "kink-end"]),
       st.floats(-10.0, 10.0), st.floats(1e-6, 10.0), st.integers(2, 300),
       st.floats(0.0, 1.0), st.floats(-0.9, 0.9), st.integers(0, 5000))
@settings(max_examples=80, deadline=None)
def test_grid_max_stays_in_the_grid_range(shape, a, width, size, where, t,
                                          n):
    # the polish brackets the grid argmax by its grid neighbours, clipped
    # at the ends, so x never leaves [xs[0], xs[-1]], and it only improves
    # on the grid max with a value f attains; the degree n only sets how
    # many golden steps one call of f serves
    xs = np.linspace(a, a + width, size)
    c = xs[0] + where * (xs[-1] - xs[0])
    f = {"rising": lambda x: (1.0 + t) * x,
         "falling": lambda x: -(1.0 + t) * x,
         "peak": lambda x: -(x - c) ** 2 + t * (x - c),
         "kink-start": lambda x: -np.abs(x - xs[0]) + t * (x - xs[0]),
         "kink-end": lambda x: -np.abs(x - xs[-1]) + t * (x - xs[-1]),
         }[shape]
    vals = f(xs)
    x, v = polynomials._grid_max(f, xs, vals, n)
    assert xs[0] <= x <= xs[-1]
    assert v >= vals.max()
    assert v == f(np.array([x]))[0]


_INV_GOLD = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_STEPS = 80


def _golden_max_80(f, lo, hi):
    """The golden-section search as it was before its cycle exit, verbatim:
    always _GOLDEN_STEPS steps."""
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


@pytest.mark.parametrize("brackets", [1, 2, 3, 16])
def test_golden_cycle_exit_matches_the_full_run(brackets, monkeypatch):
    # brackets of log|p| and log|p'| along the boundary, as the sup polish
    # makes them, on the disk and random polygons; on a polygon the first
    # bracket is centred on a vertex.  The degree sets the depth, and every
    # depth from 1 to the most this many brackets allow gives the verbatim
    # 80-step search's result, with probes only inside the brackets.  Each
    # depth draws its degree from all the degrees that give it; depth 1,
    # which every higher degree gives, from the 39 lowest of them
    depth_of = {n: polynomials._golden_depth(brackets, n)
                for n in range(1, 2 * polynomials._SPEC_PAIRS)}
    top = depth_of[1]
    degrees = {depth: [n for n, d in depth_of.items() if d == depth]
               for depth in range(1, top + 1)}
    degrees[1] = degrees[1][:39]
    assert all(degrees.values())
    rng = trial_rng(20260818, 40 + brackets)
    domains = [ConvexDomain.unit_disk()] + [
        random_convex_polygon(rng, vertices=int(rng.integers(3, 9)))
        for _ in range(3)]
    depth1_calls, cases = [], 0
    for K in domains:
        L = K.perimeter
        for depth in range(1, top + 1):
            n = int(rng.choice(degrees[depth]))
            p = RootPolynomial(1.0, random_roots_in(K, n, rng))
            for row in (log_abs, logabs_derivative):
                def f(s, row=row):
                    probes.append(np.array(s))
                    return row(p, K.gamma(s % L))
                for width in (1e-9, 1e-6, 1e-3, 0.1, 0.5):
                    centre = rng.uniform(0.0, L, brackets)
                    if K.kind == "polygon":
                        centre[0] = K.vertex_s(1)
                    lo, hi = centre - width / 2, centre + width / 2
                    probes = []
                    ref = _golden_max_80(f, lo, hi)
                    assert len(probes) == 2 + _GOLDEN_STEPS
                    probes = []
                    new = _golden_max(f, lo, hi, n)
                    calls = len(probes)
                    for got, want in zip(new, ref):
                        assert got.tobytes() == want.tobytes(), (K, width)
                    for s in probes:
                        s = s.reshape(brackets, -1)
                        assert (lo[:, None] <= s).all()
                        assert (s <= hi[:, None]).all()
                    # the same search one step per call
                    with monkeypatch.context() as m:
                        m.setattr(polynomials, "_SPEC_POINTS", 0)
                        probes = []
                        one = _golden_max(f, lo, hi, n)
                    for got, want in zip(one, ref):
                        assert got.tobytes() == want.tobytes(), (K, width)
                    depth1_calls.append(len(probes))
                    if depth >= 2:
                        assert calls < len(probes)
                    else:
                        assert calls == len(probes)
                    cases += 1
    assert cases == 40 * top
    # the exit is taken, and early: most searches stop well before step 80
    # (one call for both first probes, then one call a step)
    assert max(depth1_calls) <= 1 + _GOLDEN_STEPS
    assert np.median(depth1_calls) < 1 + 70


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
    # the mesh takes a pass over the block centres (their bounds come from
    # _disc_log_bounds, not the kernel) and one over the kept blocks; the
    # polish then takes one call for both first probes of every bracket
    # and at most 80 golden steps: 67 and 63 here, where the brackets
    # cycle.  16 brackets take one step per call; one bracket of degree 1
    # takes five, so its 63 steps take 13 calls
    assert calls == [2 + 1 + 67, 2 + 1 + 13]
    assert max(calls) <= 2 + 82


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
    one = RootPolynomial(1.0, [])
    for K in PIECE_DOMAINS:
        pieces = _boundary_pieces(K, CUTS)
        masses, panels = _adaptive_log_integral(one, K, 2.0, pieces, False)
        # every piece is accepted at its first halving, so none is split
        assert panels == len(pieces)
        lengths = np.array([b - a for a, b in pieces])
        assert np.allclose(np.exp(masses), lengths, rtol=1e-14, atol=0)


def test_quadrature_panel_limit_stops_huge_q(bounded_python):
    # a huge q makes |p|^q a spike the nodes cannot see, and the panels of
    # one level once grew toward 2^26 per piece until memory ran out; the
    # disc bound now settles the panels away from the spike, and a panel
    # still unsettled at the depth cap raises
    res = bounded_python("""
from oscillab.errors import QuadratureLimit
from oscillab.geometry import ConvexDomain
from oscillab.polynomials import RootPolynomial, lq_norm
K = ConvexDomain.unit_square()
p = RootPolynomial(1.0, [0.3 + 0.2j, 0.7 + 0.6j, 0.5 + 0.5j])
norm = lq_norm(p, K, 1e5)
print(norm.panels, repr(norm.log_value))
for q in (1e12, 1e100, 1e308):
    try:
        lq_norm(p, K, q)
        print("no limit at", q)
    except QuadratureLimit as exc:
        print("limit:", exc)
""")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    panels, value = lines[0].split()
    # split-and-compare alone read the same value from 54 194 panels
    assert int(panels) <= 100
    assert float(value) == pytest.approx(-0.7194381535427553, rel=0,
                                         abs=1e-15)
    assert all(line.startswith("limit:") for line in lines[1:]), lines
    assert len(lines) == 4
    # q = 1e12 stays finite in q log|p| and stops at the depth cap
    assert "unsettled at depth 26" in lines[1]


_SPIKE_ROOTS = (0.3 + 0.2j, 0.7 + 0.6j, 0.5 + 0.5j)


def test_spike_at_huge_q_matches_mpmath_or_raises():
    # at q = 3e5, |p|^q is a spike about 2e-6 wide at the corner i; a
    # global tolerance on the row's mass read -0.7193655 here
    K = ConvexDomain.unit_square()
    p = RootPolynomial(1.0, _SPIKE_ROOTS)
    want = _mp_log_norms(_SPIKE_ROOTS, K, 3e5, decades=9)[0]
    assert abs(want + 0.71936332705268752938) <= 1e-15
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert abs(lq_norm(p, K, 3e5).log_value - want) <= 1e-12
        for q in (1e12, 1e100, 1e308):
            for norm in (lq_norm, inverse_markov_factor):
                with pytest.raises(QuadratureLimit,
                                   match=re.escape(f"q = {q:g}:")):
                    norm(p, K, q)


@pytest.mark.parametrize("q, want", [
    (1.0, 2.34058036541914373822568326741),
    (3.0, 1.9692688866374670582943762717),
], ids=["q1", "q3"])
def test_kink_of_derivative_at_odd_q_matches_mpmath(q, want):
    # p' vanishes at 0.4 on the bottom edge, a kink in |p'|^q at odd q
    # that split-and-compare never settles; the centred |p'| bound lets
    # the panels beside it settle as negligible.  want: 30-digit mpmath,
    # one mpmath.quad per edge, the bottom one split at 0.2, 0.4 and 0.6
    p = RootPolynomial(1.0, (0.2, 0.6))
    M = inverse_markov_factor(p, ConvexDomain.unit_square(), q).M
    assert abs(M / want - 1) <= 1e-14


def test_search_witness_at_q_1e6_matches_mpmath():
    # the search scores candidates on its fixed nodes; the adaptive
    # rescore of its witness must still resolve |p|^q and |p'|^q, spikes
    # about 1e-7 wide at the corner 1 + i
    K = ConvexDomain.unit_square()
    res = minimize_oscillation(K, SearchConfig(n=4, q=1e6, budget=50,
                                               seed=0))
    log_p, log_dp = _mp_log_norms(res.best_p.roots, K, 1e6, decades=9)
    assert abs(res.best_M / math.exp(log_dp - log_p) - 1) <= 1e-12


def test_search_witness_at_q_1e7_matches_mpmath():
    # the plain |p'| bound is loose by e^0.15 at the peak, so without the
    # centred one the rescore stopped on the panel limit at depth 17
    K = ConvexDomain.unit_square()
    res = minimize_oscillation(K, SearchConfig(n=4, q=1e7, budget=50,
                                               seed=0))
    log_p, log_dp = _mp_log_norms(res.best_p.roots, K, 1e7, decades=10)
    assert abs(res.best_M / math.exp(log_dp - log_p) - 1) <= 1e-12


def test_quadrature_overflow_raises_before_any_warning():
    # q log|p| overflows to inf at q = 1e308 where |p| > e^1.8; the
    # quadrature stops at once instead of comparing nan panel values
    K = ConvexDomain.unit_square()
    p = RootPolynomial(1.0, [5.0, 5j])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(QuadratureLimit, match="q = 1e.308.*overflows"):
            lq_norm(p, K, 1e308)


@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 60),
       st.sampled_from(["in", "loose", "mesh", "vertex"]),
       st.sampled_from([1.0, 2.0, 7.5]))
@settings(max_examples=30, deadline=None)
def test_disc_bound_caps_panel_mass(seed, n, family, q):
    # every disc the quadrature bounds, to test a panel for negligibility,
    # is centred at a panel's midpoint and reaches its ends, and the
    # panel's 16-node masses of |p|^q and |p'|^q are at most its length
    # times e^{q bound}
    rng = np.random.default_rng(seed)
    K = (ConvexDomain.disk(complex(*rng.normal(size=2)),
                           float(rng.uniform(0.5, 2.0)))
         if rng.uniform() < 0.25
         else random_convex_polygon(rng, vertices=int(rng.integers(3, 9))))
    p = RootPolynomial(complex(*rng.normal(size=2)),
                       _sup_case(K, rng, n, family))
    panels, discs = [], []
    integrals, bounds = (polynomials._panel_log_integrals,
                         polynomials._disc_log_bounds)

    def panel_integrals(K, flog, q, a, b):
        panels.append((a, b))
        return integrals(K, flog, q, a, b)

    def disc_bounds(p, c, h, derivative):
        discs.append((c, h, bounds(p, c, h, derivative)))
        return discs[-1][2]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polynomials, "_panel_log_integrals", panel_integrals)
        patch.setattr(polynomials, "_disc_log_bounds", disc_bounds)
        _adaptive_log_integral(p, K, q, _boundary_pieces(K), True)
    a, b = (np.concatenate(ends) for ends in zip(*panels))
    mids = K.gamma(0.5 * (a + b))
    flog = lambda z: logabs_derivative(p, z, with_log_abs=True)
    for c, h, rows in discs:
        i = np.abs(c[:, None] - mids[None, :]).argmin(axis=1)
        assert np.all(c == mids[i]) and np.all(h >= 0.5 * (b[i] - a[i]))
        masses = integrals(K, flog, q, a[i], b[i])
        for mass, bound in zip(masses, rows):
            # both are -inf for p' of a constant
            cap = np.log(b[i] - a[i]) + q * bound
            slack = 1e-12 * (1.0 + np.abs(np.where(np.isfinite(cap), cap,
                                                   0.0)))
            assert np.all(mass <= cap + slack), (mass - cap).max()


# ------------------------------------------------- one tree for p and p'

REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs_markov.json"

# the best roots of minimize_oscillation(unit square, SearchConfig(n=16,
# q=1.0, budget=240, seed=3)): all 16 on the boundary, 9 at corners
_BOUNDARY_ROOTS = (
    0j, 1 + 0j, 0.056104319085339416 + 1j, 1 + 1j, 0.37651456896159674 + 0j,
    0.9984393330896362 + 1j, 1 + 1j, 0j, 1j, 0.45468807968561364 + 0j, 1j,
    1 + 1j, 1 + 1j, 1 + 0.8562521384771111j, 0.04864885083135917 + 1j, 0j)


def _mp_log_norms(roots, K, q, decades=0):
    """30-digit (log |p|_q, log |p'|_q) of the monic polynomial on a
    polygon boundary: one mpmath.quad per edge and integrand, split at the
    foot of every root on it, so no integrand has a kink, or a root nearby,
    inside a segment.  With decades = k each edge is also split, for each
    integrand, at its largest value there and at 10^-1, ..., 10^-k of the
    edge on either side of it, so that the spike |p|^q of a huge q lies at
    the end of a segment about as short as the spike is wide; the integrand
    is then divided by that largest value, since mpmath.quad's error test
    is absolute."""
    with mpmath.workdps(30):
        rs = [mpmath.mpc(r.real, r.imag) for r in roots]
        masses = [mpmath.mpf(0), mpmath.mpf(0)]
        verts = [mpmath.mpc(v.real, v.imag) for v in K.vertices]
        for za, zb in zip(verts, verts[1:] + verts[:1]):
            ts = [(r - za) / (zb - za) for r in rs]
            feet = {t.real for t in ts if 0 < t.real < 1}

            def on_edge(t):
                return [za + t * (zb - za) - r for r in rs]
            fp = lambda t: mpmath.fprod(abs(d) for d in on_edge(t))
            fdp = lambda t: _mp_abs_derivative(on_edge(t))
            for row, f in enumerate((fp, fdp)):
                cuts, top = {0, 1} | feet, mpmath.mpf(1)
                if decades:
                    top, peak_cuts = _mp_peak(f, decades)
                    cuts |= peak_cuts
                mass = mpmath.quad(lambda t: (f(t) / top) ** q, sorted(cuts))
                masses[row] += mass * top ** q * abs(zb - za)
        return tuple(float(mpmath.log(m) / q) for m in masses)


def _mp_abs_derivative(ds):
    """|p'| of prod (z - r_j) from ds = [z - r_j], also at a root."""
    on = [j for j, d in enumerate(ds) if d == 0]
    if not on:
        return abs(mpmath.fprod(ds) * mpmath.fsum(1 / d for d in ds))
    if len(on) > 1:
        return mpmath.mpf(0)
    return abs(mpmath.fprod(d for j, d in enumerate(ds) if j != on[0]))


def _mp_peak(f, decades):
    """(max f, cuts) on [0, 1]: the argmax t* from 256 grid points inside
    (0, 1) and a golden-section polish between the grid neighbours, and
    the cuts t* and t* +- 10^-j for j = 1..decades, inside (0, 1)."""
    grid = [mpmath.mpf(0)] + [(k + mpmath.mpf(0.5)) / 256
                              for k in range(256)] + [mpmath.mpf(1)]
    k = max(range(1, 257), key=lambda i: f(grid[i]))
    lo, hi = grid[k - 1], grid[k + 1]
    g = (mpmath.sqrt(5) - 1) / 2
    for _ in range(80):
        c, d = hi - g * (hi - lo), lo + g * (hi - lo)
        if f(c) >= f(d):
            hi = d
        else:
            lo = c
    top = (lo + hi) / 2
    steps = [s * mpmath.mpf(10) ** -j for j in range(1, decades + 1)
             for s in (-1, 1)]
    return f(top), {top} | {top + s for s in steps if 0 < top + s < 1}


def test_markov_factor_integrates_once(monkeypatch):
    panels = []
    original = polynomials._adaptive_log_integral

    def counted(*args):
        out = original(*args)
        panels.append(out[1])
        return out
    monkeypatch.setattr(polynomials, "_adaptive_log_integral", counted)
    p = RootPolynomial(1.0, [0.3 + 0.2j, 0.7 + 0.6j, 0.5 + 0.5j])
    K = ConvexDomain.unit_square()
    mf = inverse_markov_factor(p, K, 2.0)
    assert len(panels) == 1
    # the record keeps the panel count; 0 at q = inf, where no panel is
    assert mf.panels == panels[0] > 0
    assert inverse_markov_factor(p, K, math.inf).panels == 0
    assert len(panels) == 1


def test_joint_log_norms_match_mpmath_per_edge():
    rng = trial_rng(20260818, 40)
    K = random_convex_polygon(rng, vertices=5)
    roots = random_roots_in(K, 6, rng)
    got = polynomials._log_norms(RootPolynomial(1.0, roots), K, 1.0)[:2]
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
    # (112 and 128 panels).  The worst cell, square-n256 at q = 1, reads
    # 5.0e-13 off.
    cells = json.loads(REFS.read_text(encoding="utf-8"))["cells"]
    checked = []
    for cell in cells:
        K = ConvexDomain.from_json(cell["domain"])
        p = RootPolynomial(1.0, [complex(x, y) for x, y in cell["roots"]])
        for qname in ("1", "2"):
            want = float(cell["M"][qname])
            got = inverse_markov_factor(p, K, float(qname)).M
            assert abs(got / want - 1) <= 1e-12, (cell["id"], qname, got)
            checked.append(f"{cell['id']}-q{qname}")
    assert "square-equispaced-n64-q1" in checked and len(checked) == 20


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
