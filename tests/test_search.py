"""Pattern search over root configurations and its bound checks."""

import itertools
import json
import math

import numpy as np
import pytest

from oscillab import polynomials, search
from oscillab.errors import QuadratureLimit
from oscillab.geometry import ConvexDomain
from oscillab.polynomials import (_QUAD_TOL, RootPolynomial,
                                  inverse_markov_factor)
from oscillab.sampling import random_convex_polygon
from oscillab.search import (
    SearchConfig,
    SearchResult,
    floor_consistency_check,
    minimize_oscillation,
    nlogn_floor,
    reference_families,
    upper_witness_check,
    _boundary_quadrature,
    _moved_sums,
    _row_scores,
)
from oscillab.polynomials import _root_sums
from test_geometry import nearest_boundary_s_loop

SEED = 20260818

DISK = ConvexDomain.unit_disk()
SQUARE = ConvexDomain.unit_square()


def _log_M(plog, inv, ws, q):
    """The search objective of one row of node sums."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return float(_row_scores(plog[None], inv[None], np.log(ws), q)[0])


def _full_log_M(roots, zs, ws, q):
    """The search objective from node sums recomputed in full."""
    return _log_M(*_root_sums(roots, zs, True)[::2], ws, q)


def _start_at(m, roots):
    """Patch, in the monkeypatch context m, the start of every restart of
    the search and of its serial oracle below to the given roots."""
    def start(K, config, rng):
        return np.array(roots, dtype=complex)
    m.setattr(search, "_init_roots", start)
    m.setitem(globals(), "_serial_init_roots", start)


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(n=0, q=2.0, budget=100, seed=1)
    with pytest.raises(ValueError):
        SearchConfig(n=3, q=0.5, budget=100, seed=1)
    with pytest.raises(ValueError):
        SearchConfig(n=3, q=math.nan, budget=100, seed=1)
    with pytest.raises(ValueError):
        SearchConfig(n=3, q=2.0, budget=2, seed=1, restarts=4)
    with pytest.raises(ValueError):
        SearchConfig(n=3, q=2.0, budget=100, seed=1, init="magic")
    with pytest.raises(ValueError):
        SearchConfig(n=3, q=2.0, budget=100, seed=1, init="user")
    with pytest.raises(TypeError):
        SearchConfig(n=3, q=2.0, budget=100, seed=1, init_roots=(0j,) * 3)
    with pytest.raises(ValueError, match="seed"):
        SearchConfig(n=3, q=2.0, budget=100, seed=-1)


@pytest.mark.parametrize("field, value", [
    ("n", 4.0), ("n", True), ("budget", 100.5), ("budget", "100"),
    ("restarts", 2.5), ("restarts", np.bool_(True)), ("seed", 1.0),
    ("seed", None)])
def test_config_rejects_non_integers(field, value):
    # budget=100.5 once ran 101 evaluations and recorded "budget": 100.5,
    # and n=4.0 or restarts=2.5 failed deep inside numpy
    args = {"n": 4, "q": 2.0, "budget": 100, "seed": 1, "restarts": 2}
    args[field] = value
    with pytest.raises(ValueError, match=field):
        SearchConfig(**args)


@pytest.mark.parametrize("value", [True, np.bool_(True), "2", None, 2j])
def test_config_rejects_a_q_that_is_not_real(value):
    # q=True once searched and recorded "q": true, and q="2" raised a
    # TypeError from the comparison with 1
    with pytest.raises(ValueError, match="q"):
        SearchConfig(n=4, q=value, budget=40, seed=1)


@pytest.mark.parametrize("value", [np.float32(2), np.int64(2), 2, 2.0])
def test_config_stores_q_as_a_float(value):
    # q=np.float32(2) was once kept as given, and json.dumps of the
    # record then raised a TypeError
    cfg = SearchConfig(n=4, q=value, budget=40, seed=1)
    record = cfg.as_record()
    assert type(cfg.q) is float and cfg.q == 2.0
    assert json.loads(json.dumps(record)) == record


def test_config_takes_numpy_integers_as_ints():
    cfg = SearchConfig(n=np.int64(4), q=2.0, budget=np.int32(100),
                       seed=np.uint8(1), restarts=np.int64(2))
    record = cfg.as_record()
    assert json.loads(json.dumps(record)) == record
    assert all(type(record[k]) is int
               for k in ("n", "budget", "seed", "restarts"))


def test_budget_floor_rejected():
    with pytest.raises(ValueError, match="need at least 10"):
        SearchConfig(n=8, q=2.0, budget=50, seed=1, restarts=1)


def test_disk_search_respects_turan_floor():
    cfg = SearchConfig(n=5, q=2.0, budget=2000, seed=11, restarts=4)
    res = minimize_oscillation(DISK, cfg)
    assert res.best_M >= 2.5
    assert res.bound_checks["turan_disk"] >= 0
    assert res.bound_checks["upper_15_over_d"] > 0
    assert res.evaluations <= cfg.budget


def test_degree_one_structure():
    cfg = SearchConfig(n=1, q=2.0, budget=400, seed=3, restarts=2)
    res = minimize_oscillation(SQUARE, cfg)
    assert res.best_M > 0
    recomputed = inverse_markov_factor(res.best_p, SQUARE, 2.0).M
    assert res.best_M == pytest.approx(recomputed, rel=1e-8)
    assert "nlogn_floor" not in res.bound_checks
    assert "turan_disk" not in res.bound_checks


def test_trace_monotone_and_bounded():
    cfg = SearchConfig(n=6, q=2.0, budget=3000, seed=7, restarts=3)
    res = minimize_oscillation(SQUARE, cfg)
    vals = [v for _, v in res.trace]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
    assert len(res.trace) <= 1000
    idxs = [i for i, _ in res.trace]
    assert idxs == sorted(idxs)
    assert idxs[-1] == res.evaluations - 1


def test_determinism_bit_for_bit():
    cfg = SearchConfig(n=4, q=1.0, budget=1500, seed=9, restarts=3,
                       init="interior-uniform")
    a = minimize_oscillation(SQUARE, cfg)
    b = minimize_oscillation(SQUARE, cfg)
    assert a.best_p.roots == b.best_p.roots
    assert a.best_M == b.best_M
    assert a.trace == b.trace
    assert a.as_record() == b.as_record()


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("K", [DISK, SQUARE], ids=["disk", "square"])
def test_incremental_objective_matches_full(K, n):
    # every move is accepted and the sums are never recomputed on purpose,
    # so rounding drift would accumulate over all of them
    rng = np.random.default_rng(SEED + n)
    zs, ws = _boundary_quadrature(K, n)
    roots = np.asarray(K.sample_uniform(n, rng), dtype=complex)
    plog, inv = _root_sums(roots, zs, True)[::2]
    for move in range(300):
        j = int(rng.integers(n))
        if move == 150:
            z = complex(zs[int(rng.integers(zs.size))])
        elif move % 2:
            z = complex(K.gamma(rng.uniform(0.0, K.perimeter)))
        else:
            z = complex(K.sample_uniform(1, rng)[0])
        with np.errstate(divide="ignore", invalid="ignore"):
            plog, inv = _moved_sums((plog[None], inv[None]), roots[None],
                                    zs, np.array([j]), np.array([z]))
        plog, inv = plog[0], inv[0]
        roots[j] = z
        for q in (1.0, 2.0, math.inf):
            want = _full_log_M(roots, zs, ws, q)
            assert _log_M(plog, inv, ws, q) == pytest.approx(
                want, rel=1e-12, abs=0), (move, q)


RECT3X1 = ConvexDomain.polygon([0, 3, 3 + 1j, 1j])
OCTAGON = ConvexDomain.regular_polygon(8)


@pytest.mark.parametrize("n", [4, 16, 64])
@pytest.mark.parametrize("K", [DISK, SQUARE, RECT3X1, OCTAGON],
                         ids=["disk", "square", "rect3x1", "octagon"])
def test_search_rule_matches_the_adaptive_rescore(K, n):
    # the search scores on fixed panels of the norms' 16-node Gauss rule;
    # at q = 2, |p|^2 is a polynomial on an edge and a trigonometric one on
    # the circle, so the fixed rule gives the rescore's log M to rounding
    zs, ws = _boundary_quadrature(K, n)
    assert ws.sum() == pytest.approx(K.perimeter, rel=1e-13, abs=0)
    assert np.abs(K.interior_margin(zs)).max() <= 1e-14 * K.diameter
    rng = np.random.default_rng(5)
    for _ in range(10):
        roots = np.asarray(K.sample_uniform(n, rng), dtype=complex)
        p = RootPolynomial(1.0, tuple(roots))
        for q, tol in ((2.0, 1e-13), (1.0, 1e-4)):
            want = math.log(inverse_markov_factor(p, K, q).M)
            assert _full_log_M(roots, zs, ws, q) == pytest.approx(
                want, rel=0, abs=tol), q


def test_scale_equivariance():
    cfg = SearchConfig(n=3, q=2.0, budget=900, seed=21, restarts=3)
    lam = 2.0
    big = ConvexDomain.polygon([lam * v for v in SQUARE.vertices])
    a = minimize_oscillation(SQUARE, cfg)
    b = minimize_oscillation(big, cfg)
    assert b.best_M == pytest.approx(a.best_M / lam, rel=1e-8)


def test_root_feasibility_all_inits():
    rng = np.random.default_rng(SEED)
    for init in ("boundary-uniform", "interior-uniform", "corner-clustered"):
        cfg = SearchConfig(n=5, q=2.0, budget=300, seed=int(rng.integers(1e6)),
                           restarts=2, init=init)
        for K in (DISK, SQUARE):
            res = minimize_oscillation(K, cfg)
            assert all(K.contains(z) for z in res.best_p.roots)


def _exhaustive_symmetric_grid(K, q):
    """Coarse exhaustive oracle: all 4-root multisets from a 5x5 grid over
    the unit square, de-duplicated by the square's dihedral symmetry."""
    grid = [complex(x, y) for x in (0, 0.25, 0.5, 0.75, 1)
            for y in (0, 0.25, 0.5, 0.75, 1)]
    zs, ws = _boundary_quadrature(K, 4)
    center = 0.5 + 0.5j

    def canon(ms):
        best = None
        shifted = [z - center for z in ms]
        for k in range(4):
            for refl in (False, True):
                t = [z * 1j ** k for z in shifted]
                if refl:
                    t = [z.conjugate() for z in t]
                key = tuple(sorted((round(z.real, 9), round(z.imag, 9))
                                   for z in t))
                if best is None or key < best:
                    best = key
        return best

    seen = set()
    best_val, best_roots = math.inf, None
    for ms in itertools.combinations_with_replacement(grid, 4):
        key = canon(ms)
        if key in seen:
            continue
        seen.add(key)
        val = _full_log_M(np.array(ms), zs, ws, q)
        if val < best_val:
            best_val, best_roots = val, ms
    return inverse_markov_factor(RootPolynomial(1.0, best_roots), K, q).M


def test_search_at_q_two_rescores_once(monkeypatch):
    # the first start is rescored early only at a q where q log|p| rounds
    # by the quadrature's tolerance; at q = 2 the final rescore is the one
    # quadrature of a search
    calls = []
    original = polynomials._adaptive_log_integral

    def counted(*args):
        calls.append(args[2])
        return original(*args)
    monkeypatch.setattr(polynomials, "_adaptive_log_integral", counted)
    rect = ConvexDomain.polygon([0, 3, 3 + 1j, 1j])
    for i, K in enumerate((DISK, SQUARE, rect)):
        calls.clear()
        minimize_oscillation(K, SearchConfig(n=16, q=2.0, budget=240,
                                             seed=SEED + i))
        assert calls == [2.0]


def test_search_at_q_one_rescores_a_kink_of_the_derivative():
    # the witness has p' vanishing on an edge, a kink in |p'| that the
    # rescore's quadrature once left unsettled at its depth cap
    res = minimize_oscillation(SQUARE, SearchConfig(n=2, q=1.0, budget=40,
                                                    seed=1))
    assert res.best_M == inverse_markov_factor(res.best_p, SQUARE, 1.0).M


def test_root_on_a_node_starts_without_warnings(monkeypatch):
    # a root on the disk's first search node makes log|p| -inf and p'/p
    # infinite at that node, which the first score and the rescore check
    # both skip
    node = complex(_boundary_quadrature(DISK, 3)[0][0])
    _start_at(monkeypatch, (node, 0.5j, -0.5))
    res = minimize_oscillation(DISK, SearchConfig(
        n=3, q=2.0, budget=30, seed=SEED, restarts=1))
    assert math.isfinite(res.best_M)


def test_infeasible_start_raises(monkeypatch):
    # the start check is a real check, not an assert that -O removes
    monkeypatch.setattr(search, "_init_roots",
                        lambda K, config, rng: np.array([2.0 + 2.0j] * 4))
    with pytest.raises(ValueError, match="infeasible start"):
        minimize_oscillation(SQUARE, SearchConfig(n=4, q=2.0, budget=40,
                                                  seed=1, restarts=1))


def test_square_degree_four_matches_exhaustive_grid():
    oracle = _exhaustive_symmetric_grid(SQUARE, 2.0)
    cfg = SearchConfig(n=4, q=2.0, budget=24000, seed=1, restarts=16)
    res = minimize_oscillation(SQUARE, cfg)
    assert res.best_M == pytest.approx(oracle, rel=0.02)


def test_upper_witness_pass_and_incomplete():
    cfg = SearchConfig(n=6, q=2.0, budget=1200, seed=2, restarts=2)
    res = minimize_oscillation(DISK, cfg)
    rep = upper_witness_check(DISK, 6, 2.0, res)
    assert rep.passed and rep.detail["status"] == "ok"

    stuck = SearchResult(cfg, res.best_p, 1e9, res.trace,
                         res.bound_checks, res.evaluations)
    rep = upper_witness_check(DISK, 6, 2.0, stuck)
    assert not rep.passed
    assert rep.detail["status"] == "SEARCH-INCOMPLETE"


def test_witness_on_thin_rectangle():
    # width-free ceiling: a 20:1 rectangle still yields a witness
    thin = ConvexDomain.polygon([0j, 1 + 0j, 1 + 0.05006j, 0.05006j])
    assert thin.width / thin.diameter == pytest.approx(0.05, abs=2e-3)
    cfg = SearchConfig(n=4, q=2.0, budget=1600, seed=4, restarts=4)
    res = minimize_oscillation(thin, cfg)
    rep = upper_witness_check(thin, 4, 2.0, res)
    assert rep.passed


def test_floor_consistency_reports_ratio(monkeypatch):
    _start_at(monkeypatch, (0j,) * 10)
    cfg = SearchConfig(n=10, q=2.0, budget=800, seed=6, restarts=2)
    res = minimize_oscillation(DISK, cfg)
    rep = floor_consistency_check(DISK, 10, 2.0, res)
    assert rep.passed
    expected_floor = (4.0 / (240000 * 8.0)) * 10 / math.log(10)
    assert rep.rhs == pytest.approx(expected_floor, rel=1e-12)
    assert rep.detail["ratio"] > 1e4


def test_floor_degree_two_edge():
    assert nlogn_floor(SQUARE, 2) > 0
    with pytest.raises(ValueError):
        nlogn_floor(SQUARE, 1)


def test_reference_families_disk():
    fams = reference_families(DISK, 6)
    assert [p.n for p in fams] == [6, 6, 6, 6]
    assert fams[0].roots == (0j,) * 6
    mf = inverse_markov_factor(fams[0], DISK, 2.0)
    assert mf.M == pytest.approx(6.0, rel=1e-8)


def test_reference_families_square_fixtures():
    # regression pins from the adaptive quadrature route
    fams = reference_families(SQUARE, 8)
    one_vertex = inverse_markov_factor(fams[2], SQUARE, 2.0).M
    equi = inverse_markov_factor(fams[1], SQUARE, 2.0).M
    assert one_vertex == pytest.approx(6.076301580956, rel=1e-6)
    assert equi == pytest.approx(8.261034937263, rel=1e-6)
    corners = set(fams[3].roots)
    assert corners == set(SQUARE.vertices)


# ------------------------------------------- the serial search, as oracle
#
# A verbatim copy of the search loop as it was before the restarts ran in
# lock step, one restart after another, with its helpers: 1-D node sums,
# a scalar projection and the scalar log-sum-exp.  The lock-step search
# must give every score, trace entry and evaluation count of it, bit for
# bit.

def _serial_log_sum(values) -> float:
    """log sum exp(values); -inf for no values."""
    values = np.asarray(values, dtype=float)
    top = values.max(initial=-math.inf)
    if top == -math.inf:
        return -math.inf
    return float(top + np.log(np.sum(np.exp(values - top))))


def _serial_moved_sums(sums, roots: np.ndarray, zs: np.ndarray, j: int,
                       z: complex):
    plog, inv = sums
    new, old = zs - z, zs - roots[j]
    with np.errstate(divide="ignore", invalid="ignore"):
        plog = plog + (np.log(np.abs(new)) - np.log(np.abs(old)))
        inv = inv + (1.0 / new - 1.0 / old)
    if np.isfinite(plog).all() and np.isfinite(inv).all():
        return plog, inv
    moved = roots.copy()
    moved[j] = z
    return _root_sums(moved, zs, True)[::2]


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _serial_log_M(plog: np.ndarray, inv: np.ndarray, ws: np.ndarray,
                  q: float) -> float:
    dlog = plog + np.log(np.abs(inv))
    bad = ~np.isfinite(plog)
    if bad.any():
        plog = np.where(bad, -np.inf, plog)
    dlog = np.where(np.isnan(dlog), -np.inf, dlog)
    if q == math.inf:
        return float(dlog.max() - plog.max())
    logw = np.log(ws)
    return (_serial_log_sum(q * dlog + logw)
            - _serial_log_sum(q * plog + logw)) / q


def _serial_project(K: ConvexDomain, z: complex) -> complex:
    if K.contains(z):
        return complex(z)
    return complex(K.gamma(nearest_boundary_s_loop(K, z)))


def _serial_init_roots(K: ConvexDomain, config: SearchConfig,
                       rng: np.random.Generator) -> np.ndarray:
    n, L = config.n, K.perimeter
    if config.init == "boundary-uniform":
        return np.asarray(K.gamma(rng.uniform(0.0, L, n)), dtype=complex)
    if config.init == "interior-uniform":
        return np.asarray(K.sample_uniform(n, rng), dtype=complex)
    # corner-clustered: pile roots near randomly chosen extreme points
    if K.kind == "polygon":
        anchors = np.array(K.vertices, dtype=complex)
    else:
        anchors = np.asarray(K.gamma(rng.uniform(0.0, L, 4)), dtype=complex)
    pick = anchors[rng.integers(0, len(anchors), n)]
    jitter = 0.01 * K.diameter * (rng.standard_normal(n)
                                  + 1j * rng.standard_normal(n))
    return np.array([_serial_project(K, z) for z in pick + jitter])


def _serial_restart_search(K, config, restart, budget, zs, ws):
    """One pattern-search run; returns (roots, score, evals, trace)."""
    rng = np.random.default_rng([config.seed, restart])
    roots = _serial_init_roots(K, config, rng)
    if not all(K.contains(z) for z in roots):
        raise ValueError("infeasible start: a root lies outside K")
    sums = _root_sums(roots, zs, True)[::2]
    cur = _serial_log_M(*sums, ws, config.q)
    # where q log|p| leaves the float range the score is no ratio of L^q
    # norms, and the rescore could not integrate |p|^q either
    plog = sums[0][np.isfinite(sums[0])]
    with np.errstate(over="ignore"):
        overflows = not np.isfinite(config.q * plog).all()
    if config.q < math.inf and (overflows or not math.isfinite(cur)):
        raise QuadratureLimit(f"q = {config.q:g}: q log|p| overflows on "
                              f"the search quadrature")
    # where q log|p| or q log|p'| rounds by _QUAD_TOL at its peak, the
    # rescore's panels there may never settle: rescore the first start
    # before spending the budget, so a q it cannot integrate stops here
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = (sums[0], sums[0] + np.log(np.abs(sums[1])))
    peak = max((abs(float(v[np.isfinite(v)].max())) for v in rows
                if np.isfinite(v).any()), default=0.0)
    if (restart == 0 and config.q < math.inf
            and config.q * peak * np.finfo(float).eps >= _QUAD_TOL):
        inverse_markov_factor(RootPolynomial(1.0, tuple(roots)), K, config.q)
    evals = 1
    accepted = 0
    trace = [(0, cur)]
    radius = 0.25 * K.diameter
    while evals < budget and radius > 1e-9 * K.diameter:
        improved = False
        for j in rng.permutation(config.n):
            if evals >= budget:
                break
            step = radius * complex(rng.standard_normal(),
                                    rng.standard_normal())
            z = _serial_project(K, roots[j] + step)
            prop = _serial_moved_sums(sums, roots, zs, j, z)
            val = _serial_log_M(*prop, ws, config.q)
            evals += 1
            if val < cur:
                roots[j] = z
                sums, cur = prop, val
                improved = True
                trace.append((evals - 1, val))
                accepted += 1
                # a full recompute every n accepted moves bounds the
                # rounding drift of the incremental sums; the incumbent is
                # rescored from them so that a proposal projected back onto
                # the same root ties with it exactly, as in a full rescore
                if accepted % config.n == 0:
                    sums = _root_sums(roots, zs, True)[::2]
                    cur = _serial_log_M(*sums, ws, config.q)
        if not improved:
            radius *= 0.5
    return roots, cur, evals, trace


def _serial_restarts(K, config, first, budgets, zs, ws):
    return [_serial_restart_search(K, config, first + i, budget, zs, ws)
            for i, budget in enumerate(budgets)]


def _outcome(K, config):
    """The search's record as JSON text, or its error."""
    try:
        return json.dumps(minimize_oscillation(K, config).as_record())
    except (ValueError, QuadratureLimit) as exc:
        return repr(exc)


def _lockstep_and_serial(monkeypatch, K, config):
    got = _outcome(K, config)
    # the serial start tested q log|p| for overflow at q = inf too, where
    # inf * 0 at a node with |p| = 1 warns; the warning changed no value
    with monkeypatch.context() as m, np.errstate(invalid="ignore"):
        m.setattr(search, "_restart_search", _serial_restarts)
        want = _outcome(K, config)
    return got, want


TRIANGLE = ConvexDomain.polygon([0, 2, 0.5 + 1.3j])
RANDOM_POLYGON = random_convex_polygon(np.random.default_rng(SEED), 7)
ORACLE_DOMAINS = (DISK, SQUARE, RECT3X1, TRIANGLE, OCTAGON, RANDOM_POLYGON)
INITS = ("boundary-uniform", "interior-uniform", "corner-clustered")


def _oracle_budget(n, restarts):
    # divisible by neither n nor the restart count, where either is > 1
    budget = (30 if n <= 5 else 10) * n + 1
    while any(k > 1 and budget % k == 0 for k in (n, restarts)):
        budget += 1
    return budget


def test_lockstep_search_matches_the_serial_oracle(monkeypatch):
    # every domain meets every degree once; q, init and the restart count
    # cycle so that each domain sees each of them
    for a, K in enumerate(ORACLE_DOMAINS):
        for b, n in enumerate((1, 2, 3, 5, 16, 64)):
            restarts = (1, 3, 7)[(a + b) % 3]
            config = SearchConfig(
                n=n, q=(1.0, 2.0, 3.0, math.inf)[(a + b) % 4],
                budget=_oracle_budget(n, restarts), seed=SEED + 10 * a + b,
                restarts=restarts, init=INITS[(a + 2 * b) % 3])
            got, want = _lockstep_and_serial(monkeypatch, K, config)
            assert got == want, (a, config)
            assert got.startswith("{"), got
        # a budget past the radius stop: the restarts leave the lock step
        # at different ticks, before the budget runs out
        config = SearchConfig(n=2, q=(1.0, 2.0, 3.0, math.inf)[a % 4],
                              budget=601, seed=SEED + a, restarts=3)
        got, want = _lockstep_and_serial(monkeypatch, K, config)
        assert got == want, (a, config)
        assert json.loads(got)["evaluations"] < config.budget


def test_lockstep_search_matches_the_oracle_on_a_node(monkeypatch):
    # every root on one quadrature node makes log|p| -inf there, so a
    # proposal falls back to the full _root_sums until all roots have left
    # the node (on the disk none leaves: every proposal of every tick falls
    # back); and a q whose q log|p| overflows stops at the first score
    full = []
    monkeypatch.setattr(search, "_root_sums",
                        lambda *args: full.append(1) or _root_sums(*args))
    for K in ORACLE_DOMAINS:
        node = complex(_boundary_quadrature(K, 3)[0][7])
        for q in (2.0, math.inf):
            config = SearchConfig(n=3, q=q, budget=61, seed=SEED,
                                  restarts=3)
            full.clear()
            with monkeypatch.context() as m:
                _start_at(m, (node,) * 3)
                got, want = _lockstep_and_serial(monkeypatch, K, config)
            assert got == want and got.startswith("{"), (K, q, got)
            if K is DISK and q == 2.0:
                # one for each start and each proposal of the lock-step
                # run (the oracle calls its own import)
                assert len(full) == config.budget
        config = SearchConfig(n=4, q=1e308, budget=50, seed=1)
        got, want = _lockstep_and_serial(monkeypatch, K, config)
        assert got == want and "QuadratureLimit" in got, K


def test_lockstep_groups_stay_within_the_chunk(monkeypatch):
    # 200 restarts run in groups, each scoring at most _CHUNK_PAIRS
    # (restart, node) pairs a tick, however many restarts there are
    sizes = []
    scored = search._moved_sums

    def counted(sums, *args):
        sizes.append(sums[0].size)
        return scored(sums, *args)

    monkeypatch.setattr(search, "_moved_sums", counted)
    config = SearchConfig(n=2, q=2.0, budget=1001, seed=SEED, restarts=200)
    got, want = _lockstep_and_serial(monkeypatch, SQUARE, config)
    assert got == want
    assert max(sizes) <= polynomials._CHUNK_PAIRS
    # the first group fills the chunk: lock step, not one row at a time
    assert max(sizes) > _boundary_quadrature(SQUARE, 2)[0].size
