"""Derivative-free search for polynomials with a small oscillation factor.

The optimizer is a multi-restart pattern search over root positions: each
step perturbs one root by a complex Gaussian of the current step radius,
projects it back into the domain, and keeps the move when the factor
drops.  The radius halves after a sweep with no improvement.  The search
loop scores candidates on fixed equal panels of the norms' 16-node
Gauss-Legendre rule over the norms' boundary pieces, for speed, and
incrementally: it keeps the per-node sums of log|z - r| and 1/(z - r) over
the roots, so a candidate that moves one root costs O(nodes), not
O(nodes * n).  The restarts run in lock step: each keeps its own rng,
roots, sums, radius and budget; each sweep projects the proposals of
every restart with one array call, and each tick scores the next proposal
of every restart in one pass over (restarts, nodes) arrays, so the numpy
call overhead of a proposal is shared and every restart's run is, bit for
bit, the one it makes alone.  The final incumbent is re-scored with the
adaptive route, so the reported factor is the accurate one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .audits import AuditReport
from .errors import QuadratureLimit
from .geometry import ConvexDomain
from .polynomials import (_CHUNK_PAIRS, _QUAD_TOL, RootPolynomial,
                          _boundary_pieces, _gauss_nodes, _log_sum,
                          _root_sums, inverse_markov_factor)

__all__ = [
    "SearchConfig",
    "SearchResult",
    "minimize_oscillation",
    "upper_witness_check",
    "floor_consistency_check",
    "reference_families",
]

_INITS = ("boundary-uniform", "interior-uniform", "corner-clustered")
# most trace points a SearchResult keeps
_TRACE_CAP = 1000


@dataclass(frozen=True)
class SearchConfig:
    """Search parameters; budget counts objective evaluations across all
    restarts, at least 10 n of them, and init names the seeding strategy
    for the root cloud."""

    n: int
    q: float
    budget: int
    seed: int
    restarts: int = 4
    init: str = "boundary-uniform"

    def __post_init__(self):
        for name in ("n", "budget", "restarts", "seed"):
            value = getattr(self, name)
            if (not isinstance(value, (int, np.integer))
                    or isinstance(value, bool)):
                raise ValueError(f"{name} must be an integer, not "
                                 f"{value!r}")
            object.__setattr__(self, name, int(value))
        if self.n < 1:
            raise ValueError("degree must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, not {self.seed}")
        if (not isinstance(self.q, numbers.Real)
                or isinstance(self.q, (bool, np.bool_))):
            raise ValueError(f"q must be a real number, not {self.q!r}")
        object.__setattr__(self, "q", float(self.q))
        if not self.q >= 1:
            raise ValueError("q must be at least 1 (or inf)")
        if not self.budget >= self.restarts >= 1:
            raise ValueError("need budget >= restarts >= 1")
        if self.budget < 10 * self.n:
            raise ValueError(
                f"budget {self.budget} too small: need at least 10*n = "
                f"{10 * self.n} evaluations")
        if self.init not in _INITS:
            raise ValueError(f"init must be one of {_INITS}")

    def as_record(self) -> dict:
        return {
            "n": self.n, "q": self.q, "budget": self.budget,
            "seed": self.seed, "restarts": self.restarts, "init": self.init,
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
    """Fixed nodes and weights for the search objective: the norms'
    16-node Gauss-Legendre rule on equal panels of each boundary piece,
    about max(1024, 24 n) nodes in all, spread in proportion to arclength."""
    panels = max(1024, 24 * max(1, n)) / 16
    a, b = [], []
    for lo, hi in _boundary_pieces(K):
        k = max(1, round(panels * (hi - lo) / K.perimeter))
        a.extend(lo + (hi - lo) * j / k for j in range(k))
        b.extend(lo + (hi - lo) * (j + 1) / k for j in range(k))
    s, w = _gauss_nodes(np.array(a), np.array(b))
    return K.gamma(s.ravel()), w.ravel()


def _moved_sums(sums, roots: np.ndarray, zs: np.ndarray, j, z):
    """The node sums (log|p|, p'/p) of prod (z - root_j) after root j
    moves to z: add the new root's terms and subtract the old root's, in
    O(nodes).  Rows of sums and roots are independent searches, each
    moving its own root j[r] to its own z[r], all in one pass, under
    np.errstate(divide and invalid ignored).  A row that is not finite (a
    root on a node) is recomputed in full by the kernel's _root_sums,
    whose nearest-root distances the search does not use."""
    plog, inv = sums
    # the arithmetic of plog + (log|new| - log|old|) and
    # inv + (1/new - 1/old), on temporaries reused in place
    new = zs - z[:, None]
    old = zs - roots[np.arange(len(j)), j][:, None]
    dlog = np.log(np.abs(new))
    dlog -= np.log(np.abs(old))
    plog = np.add(plog, dlog, out=dlog)
    new = np.divide(1.0, new, out=new)
    new -= np.divide(1.0, old, out=old)
    inv = np.add(inv, new, out=new)
    finite = np.isfinite(plog).all(axis=1) & np.isfinite(inv).all(axis=1)
    if not finite.all():
        for r in np.flatnonzero(~finite):
            moved = roots[r].copy()
            moved[j[r]] = z[r]
            plog[r], inv[r] = _root_sums(moved, zs, True)[::2]
    return plog, inv


def _row_scores(plog: np.ndarray, inv: np.ndarray, logw: np.ndarray,
                q: float) -> np.ndarray:
    """log of the oscillation factor of prod (z - root_j) on the fixed
    quadrature with log weights logw, one per row of node sums (log|p|,
    p'/p) of shape (rows, nodes), under np.errstate(divide, over and
    invalid ignored).  Nodes colliding with a root drop out of both
    norms.  Both norms' log sums come from one _log_sum pass over the
    stacked rows, each row the value it has alone.  At a q so huge that
    q log|p| overflows it is no ratio of L^q norms; _start rejects such a
    q."""
    dlog = np.log(np.abs(inv))
    dlog = np.add(plog, dlog, out=dlog)
    dlog[np.isnan(dlog)] = -np.inf
    finite = np.isfinite(plog)
    if not finite.all():
        plog = np.where(finite, plog, -np.inf)
    if q == math.inf:
        return dlog.max(axis=1) - plog.max(axis=1)
    # q dlog + logw over q plog + logw, stacked for one _log_sum pass
    rows = len(plog)
    both = np.empty((2 * rows, plog.shape[1]))
    np.multiply(q, dlog, out=both[:rows])
    np.multiply(q, plog, out=both[rows:])
    both += logw
    sums = _log_sum(both)
    return (sums[:rows] - sums[rows:]) / q


def _project(K: ConvexDomain, zs) -> np.ndarray:
    """Each point of zs where K contains it, else its nearest boundary
    point, as a new complex array: one membership test and one
    nearest-boundary lookup on the points outside."""
    zs = np.array(zs, dtype=complex)
    out = ~K.contains(zs)
    if out.any():
        zs[out] = K.gamma(K.nearest_boundary_s(zs[out]))
    return zs


def _init_roots(K: ConvexDomain, config: SearchConfig,
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
    return _project(K, pick + jitter)


def _start(K, config, restart, zs, logw):
    """A restart's rng, start roots, node sums and first score.  Raises on
    an infeasible start, and at a q the final rescore could not integrate,
    so that such a q costs one score."""
    rng = np.random.default_rng([config.seed, restart])
    roots = _init_roots(K, config, rng)
    if not K.contains(roots).all():
        raise ValueError("infeasible start: a root lies outside K")
    sums = _root_sums(roots, zs, True)[::2]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cur = float(_row_scores(sums[0][None], sums[1][None], logw,
                                config.q)[0])
    # at q = inf neither test below has a meaning (and inf * 0 at a node
    # with |p| = 1 warns)
    if config.q == math.inf:
        return rng, roots, sums, cur
    # where q log|p| leaves the float range the score is no ratio of L^q
    # norms, and the rescore could not integrate |p|^q either
    plog = sums[0][np.isfinite(sums[0])]
    with np.errstate(over="ignore"):
        overflows = not np.isfinite(config.q * plog).all()
    if overflows or not math.isfinite(cur):
        raise QuadratureLimit(f"q = {config.q:g}: q log|p| overflows "
                              f"on the search quadrature")
    # where q log|p| or q log|p'| rounds by _QUAD_TOL at its peak, the
    # rescore's panels there may never settle: rescore the first start
    # before spending the budget, so a q it cannot integrate stops here
    if restart == 0:
        with np.errstate(divide="ignore", invalid="ignore"):
            rows = (sums[0], sums[0] + np.log(np.abs(sums[1])))
        peak = max((abs(float(v[np.isfinite(v)].max())) for v in rows
                    if np.isfinite(v).any()), default=0.0)
        if config.q * peak * np.finfo(float).eps >= _QUAD_TOL:
            inverse_markov_factor(RootPolynomial(1.0, tuple(roots)), K,
                                  config.q)
    return rng, roots, sums, cur


@dataclass
class _Run:
    """One restart's own state in the lock-step search."""

    rng: np.random.Generator
    budget: int
    cur: float
    radius: float
    trace: list
    evals: int = 1
    accepted: int = 0
    improved: bool = False


def _restart_search(K, config, first, budgets, zs, ws):
    """Pattern searches for the restarts first, first + 1, ..., one per
    budget, run in lock step; returns one (roots, score, evals, trace) per
    restart, each what that restart would return run alone.

    At each sweep every live restart draws its order and then all its
    steps (standard_normal(2m) draws what 2m scalar draws would), and the
    sweep's proposals of all restarts are projected in one call.  Tick k
    then scores the k-th proposal of every live restart in one pass over
    (restarts, nodes) arrays, and each restart accepts or rejects its
    own."""
    n, q = config.n, config.q
    logw = np.log(ws)
    rngs, roots, sums, curs = zip(*(_start(K, config, first + i, zs, logw)
                                    for i in range(len(budgets))))
    roots = np.array(roots)
    plog = np.array([s[0] for s in sums])
    inv = np.array([s[1] for s in sums])
    runs = [_Run(rng, budget, cur, 0.25 * K.diameter, [(0, cur)])
            for rng, budget, cur in zip(rngs, budgets, curs)]
    orders = np.zeros(roots.shape, dtype=int)
    props = np.zeros(roots.shape, dtype=complex)
    sweep = np.zeros(len(runs), dtype=int)
    steps = np.arange(n)
    while True:
        sweep[:] = 0
        for i, run in enumerate(runs):
            if run.evals >= run.budget or run.radius <= 1e-9 * K.diameter:
                continue
            m = min(n, run.budget - run.evals)
            orders[i, :m] = run.rng.permutation(n)[:m]
            g = run.rng.standard_normal(2 * m)
            props[i, :m] = (roots[i, orders[i, :m]]
                            + run.radius * (g[0::2] + 1j * g[1::2]))
            sweep[i] = m
            run.improved = False
        if not sweep.any():
            break
        drawn = steps < sweep[:, None]
        props[drawn] = _project(K, props[drawn])
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for k in range(sweep.max()):
                rows = np.flatnonzero(sweep > k)
                sel = slice(None) if rows.size == len(runs) else rows
                moved = _moved_sums((plog[sel], inv[sel]), roots[sel], zs,
                                    orders[sel, k], props[sel, k])
                vals = _row_scores(*moved, logw, q).tolist()
                for row, i in enumerate(rows.tolist()):
                    run = runs[i]
                    run.evals += 1
                    if vals[row] < run.cur:
                        roots[i, orders[i, k]] = props[i, k]
                        plog[i], inv[i] = moved[0][row], moved[1][row]
                        run.cur = vals[row]
                        run.improved = True
                        run.trace.append((run.evals - 1, run.cur))
                        run.accepted += 1
                        # a full recompute every n accepted moves bounds
                        # the rounding drift of the incremental sums; the
                        # incumbent is rescored from them so that a
                        # proposal projected back onto the same root ties
                        # with it exactly, as in a full rescore
                        if run.accepted % n == 0:
                            plog[i], inv[i] = _root_sums(roots[i], zs,
                                                         True)[::2]
                            run.cur = float(_row_scores(
                                plog[i:i + 1], inv[i:i + 1], logw, q)[0])
        for i in np.flatnonzero(sweep):
            if not runs[i].improved:
                runs[i].radius *= 0.5
    return [(roots[i], run.cur, run.evals, run.trace)
            for i, run in enumerate(runs)]


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

    Restarts have independent derived seeds and run in lock step, in groups
    of at most _CHUNK_PAIRS // nodes restarts; each restart's run, and so
    the result, is the one the restarts would give run one after another.
    They merge deterministically in restart order."""
    zs, ws = _boundary_quadrature(K, config.n)

    base, extra = divmod(config.budget, config.restarts)
    budgets = [base + (1 if i < extra else 0)
               for i in range(config.restarts)]
    # restarts run in lock step in groups of at most _CHUNK_PAIRS
    # (restart, node) pairs, so memory grows with neither restarts nor n
    group = max(1, _CHUNK_PAIRS // zs.size)
    runs = []
    for first in range(0, config.restarts, group):
        runs += _restart_search(K, config, first,
                                budgets[first:first + group], zs, ws)

    # merge: sequential evaluation indexing, incumbent = running minimum
    merged = []
    best_roots, best_score = None, math.inf
    offset = 0
    for roots, score, evals, trace in runs:
        for idx, val in trace:
            if val < best_score or not merged:
                merged.append((offset + idx, math.exp(min(val, best_score))))
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
