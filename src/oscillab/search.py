"""Derivative-free search for polynomials with a small oscillation factor.

The optimizer is a multi-restart pattern search over root positions: each
step perturbs one root by a complex Gaussian of the current step radius,
projects it back into the domain, and keeps the move when the factor
drops.  The radius halves after a sweep with no improvement.  The search
loop scores candidates on a fixed boundary quadrature for speed, and
incrementally: it keeps the per-node sums of log|z - r| and 1/(z - r) over
the roots, so a candidate that moves one root costs O(nodes), not
O(nodes * n).  The final incumbent is re-scored with the adaptive route, so
the reported factor is the accurate one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .audits import AuditReport
from .geometry import ConvexDomain
from .polynomials import RootPolynomial, _root_sums, inverse_markov_factor

__all__ = [
    "SearchConfig",
    "SearchResult",
    "minimize_oscillation",
    "upper_witness_check",
    "floor_consistency_check",
    "reference_families",
]

_INITS = ("boundary-uniform", "interior-uniform", "corner-clustered", "user")
# most trace points a SearchResult keeps
_TRACE_CAP = 1000


@dataclass(frozen=True)
class SearchConfig:
    """Search parameters; budget counts objective evaluations across all
    restarts, and init names the seeding strategy for the root cloud."""

    n: int
    q: float
    budget: int
    seed: int
    restarts: int = 4
    init: str = "boundary-uniform"
    init_roots: tuple = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("degree must be at least 1")
        if not self.q >= 1:
            raise ValueError("q must be at least 1 (or inf)")
        if not self.budget >= self.restarts >= 1:
            raise ValueError("need budget >= restarts >= 1")
        if self.init not in _INITS:
            raise ValueError(f"init must be one of {_INITS}")
        if self.init == "user":
            if len(self.init_roots) != self.n:
                raise ValueError("user init needs exactly n roots")
            object.__setattr__(self, "init_roots",
                               tuple(complex(r) for r in self.init_roots))

    def as_record(self) -> dict:
        return {
            "n": self.n, "q": self.q, "budget": self.budget,
            "seed": self.seed, "restarts": self.restarts, "init": self.init,
            "init_roots": [[r.real, r.imag] for r in self.init_roots],
        }


@dataclass(frozen=True)
class SearchResult:
    """Best configuration found, its accurately recomputed factor, the
    incumbent trace (evaluation index, incumbent M), and floor/ceiling
    margins against the known bounds."""

    config: SearchConfig
    best_p: RootPolynomial
    best_M: float
    trace: tuple
    bound_checks: dict
    evaluations: int

    def as_record(self) -> dict:
        return {
            "config": self.config.as_record(),
            "best_roots": [[r.real, r.imag] for r in self.best_p.roots],
            "best_M": self.best_M,
            "trace": [[int(i), float(v)] for i, v in self.trace],
            "bound_checks": dict(self.bound_checks),
            "evaluations": self.evaluations,
        }


# ------------------------------------------------- fast boundary scoring

def _boundary_quadrature(K: ConvexDomain, n: int):
    """Fixed nodes and weights for the search objective: trapezoid on a
    circle (periodic, spectrally accurate), composite Gauss panels on
    polygon edges."""
    m_target = max(1024, 24 * max(1, n))
    if K.kind == "disk":
        ss = np.linspace(0.0, K.perimeter, m_target, endpoint=False)
        return K.gamma(ss), np.full(m_target, K.perimeter / m_target)
    xs, ws = np.polynomial.legendre.leggauss(24)
    L = K.perimeter
    edges = len(K.vertices)
    panel_target = max(edges, round(m_target / 24))
    svs = [float(K.vertex_s(i)) for i in range(edges)] + [L]
    zs_all, ws_all = [], []
    for i in range(edges):
        a, b = svs[i], svs[i + 1]
        k = max(1, round(panel_target * (b - a) / L))
        for j in range(k):
            lo = a + (b - a) * j / k
            hi = a + (b - a) * (j + 1) / k
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            zs_all.append(K.gamma(mid + half * xs))
            ws_all.append(ws * half)
    return np.concatenate(zs_all), np.concatenate(ws_all)


def _moved_sums(sums, roots: np.ndarray, zs: np.ndarray, j: int,
                z: complex):
    """The node sums (log|p|, p'/p) of prod (z - root_j) after root j
    moves to z: add the new root's terms and subtract the old root's, in
    O(nodes).  When that is not finite (a root on a node) the sums are
    recomputed in full by the kernel's _root_sums, whose nearest-root
    distances the search does not use."""
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


def _fast_log_M(roots: np.ndarray, zs: np.ndarray, ws: np.ndarray,
                q: float) -> float:
    """log of the oscillation factor of prod (z - root_j) on the fixed
    quadrature; nodes colliding with a root drop out of both norms."""
    return _log_M_from_sums(*_root_sums(roots, zs, True)[::2], ws, q)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _log_M_from_sums(plog: np.ndarray, inv: np.ndarray, ws: np.ndarray,
                     q: float) -> float:
    """The value step of _fast_log_M, from the node sums; nan at a q so
    huge that q log|p| overflows, which the rescore then rejects."""
    dlog = plog + np.log(np.abs(inv))
    bad = ~np.isfinite(plog)
    if bad.any():
        plog = np.where(bad, -np.inf, plog)
    dlog = np.where(np.isnan(dlog), -np.inf, dlog)
    if q == math.inf:
        return float(dlog.max() - plog.max())

    def log_int(v):
        mx = v.max()
        if mx == -math.inf:
            return -math.inf
        return q * mx + math.log(float(np.sum(ws * np.exp(q * (v - mx)))))

    return (log_int(dlog) - log_int(plog)) / q


def _project(K: ConvexDomain, z: complex) -> complex:
    if K.contains(z):
        return complex(z)
    return complex(K.gamma(K.nearest_boundary_s(z)))


def _init_roots(K: ConvexDomain, config: SearchConfig,
                rng: np.random.Generator) -> np.ndarray:
    n, L = config.n, K.perimeter
    if config.init == "user":
        return np.array([_project(K, r) for r in config.init_roots])
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
    return np.array([_project(K, z) for z in pick + jitter])


def _restart_search(K, config, restart, budget, zs, ws):
    """One pattern-search run; returns (roots, score, evals, trace)."""
    rng = np.random.default_rng([config.seed, restart])
    roots = _init_roots(K, config, rng)
    if not all(K.contains(z) for z in roots):
        raise ValueError("infeasible start: a root lies outside K")
    sums = _root_sums(roots, zs, True)[::2]
    cur = _log_M_from_sums(*sums, ws, config.q)
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
            z = _project(K, roots[j] + step)
            prop = _moved_sums(sums, roots, zs, j, z)
            val = _log_M_from_sums(*prop, ws, config.q)
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
                    cur = _log_M_from_sums(*sums, ws, config.q)
        if not improved:
            radius *= 0.5
    return roots, cur, evals, trace


def _decimate(points):
    if len(points) <= _TRACE_CAP:
        return tuple(points)
    idx = np.unique(np.linspace(0, len(points) - 1,
                                _TRACE_CAP).round().astype(int))
    return tuple(points[i] for i in idx)


def nlogn_floor(K: ConvexDomain, n: int) -> float:
    """The theorem floor (1/240000) (w^2/d^3) n/log n (degrees >= 2)."""
    if n < 2:
        raise ValueError("floor needs n >= 2 so log n > 0")
    d, w = K.diameter, K.width
    return (w * w) / (240000.0 * d ** 3) * n / math.log(n)


def minimize_oscillation(K: ConvexDomain,
                         config: SearchConfig) -> SearchResult:
    """Multi-restart pattern search for the smallest oscillation factor.

    Restarts run one after another with independent derived seeds and
    merge deterministically in restart order."""
    if config.budget < 10 * config.n:
        raise ValueError(
            f"budget {config.budget} too small: need at least 10*n = "
            f"{10 * config.n} evaluations")
    zs, ws = _boundary_quadrature(K, config.n)

    base, extra = divmod(config.budget, config.restarts)
    budgets = [base + (1 if i < extra else 0)
               for i in range(config.restarts)]
    runs = [_restart_search(K, config, i, budgets[i], zs, ws)
            for i in range(config.restarts)]

    # merge: sequential evaluation indexing, incumbent = running minimum
    merged = []
    best_roots, best_score = None, math.inf
    offset = 0
    for roots, score, evals, trace in runs:
        for idx, val in trace:
            if val < best_score or not merged:
                merged.append((offset + idx, math.exp(min(val, best_score))))
        # a NaN score (q so large that both norms overflow) never compares
        # below another; the first restart then stands
        if score < best_score or best_roots is None:
            best_roots, best_score = roots, score
        offset += evals
    total = offset
    if merged[-1][0] != total - 1:
        merged.append((total - 1, math.exp(best_score)))

    best_p = RootPolynomial(1.0, tuple(best_roots))
    mf = inverse_markov_factor(best_p, K, config.q)
    best_M = mf.M

    d = K.diameter
    checks = {"upper_15_over_d": (15.0 / d) * config.n - best_M}
    if config.n >= 2:
        floor = nlogn_floor(K, config.n)
        checks["nlogn_floor"] = best_M - floor
    if K.kind == "disk":
        checks["turan_disk"] = best_M - config.n / 2.0

    return SearchResult(config, best_p, best_M, _decimate(merged),
                        checks, total)


def upper_witness_check(K: ConvexDomain, n: int, q: float,
                        result: SearchResult) -> AuditReport:
    """Pass when the search produced a polynomial below (15/d) n; a miss
    means the budget ran out, not that the ceiling is wrong."""
    ceiling = (15.0 / K.diameter) * n
    found = result.best_M < ceiling
    return AuditReport(
        "upper_witness", ceiling, result.best_M,
        detail={"status": "ok" if found else "SEARCH-INCOMPLETE",
                "n": n, "q": q})


def floor_consistency_check(K: ConvexDomain, n: int, q: float,
                            result: SearchResult) -> AuditReport:
    """best_M must clear the n/log n floor; at practical degrees the
    margin is enormous, so this is a sanity check with a reported ratio."""
    if n < 2:
        raise ValueError("floor check needs n >= 2")
    floor = nlogn_floor(K, n)
    return AuditReport(
        "floor_consistency", result.best_M, floor,
        detail={"ratio": result.best_M / floor, "n": n, "q": q})


def reference_families(K: ConvexDomain, n: int) -> tuple:
    """Canonical root layouts for seeding and regression: all roots at the
    centroid, equi-spaced boundary roots, all roots at one extreme point,
    and roots cycled through the extreme-point set."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    L = K.perimeter
    if K.kind == "disk":
        centroid = K.center
        anchors = [complex(K.gamma(0.0))]
    else:
        vs = np.array(K.vertices, dtype=complex)
        centroid = complex(vs.mean())
        anchors = [complex(v) for v in vs]
    equi = tuple(complex(z)
                 for z in np.atleast_1d(K.gamma(
                     np.linspace(0.0, L, n, endpoint=False))))
    corner_cycle = tuple(anchors[i % len(anchors)] for i in range(n))
    return (
        RootPolynomial(1.0, (centroid,) * n),
        RootPolynomial(1.0, equi),
        RootPolynomial(1.0, (anchors[0],) * n),
        RootPolynomial(1.0, corner_cycle),
    )
