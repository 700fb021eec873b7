"""Independent references for the markov-highdeg workload.

Run once from the repository root (about 15 minutes on one core):

    python3 perfbench/make_refs.py

It writes perfbench/refs_markov.json: the fixed inputs of every cell
(domain, roots) and M_q for q in {1, 2, inf}.  Nothing here imports
oscillab.  The route is separate from oscillab's kernel, quadrature and
maximizers:

* p and p' are evaluated in mpmath at `DPS` digits as a product of root
  factors and a sum of root reciprocals (no expanded coefficients);
* the integrals use mpmath Gauss-Legendre nodes on panels chosen by a
  global adaptive pass (largest estimated error split first); the panel
  choice runs in float64, every node value that enters a reference is
  recomputed in mpmath, and the float/mpmath difference is part of the
  recorded error estimate;
* the sup norms are refined by bisection, in mpmath, on the sign of the
  arclength derivative of log|f|, around the best points of a dense
  float64 sample, with polygon vertices as extra candidates.

The benchmark only reads the JSON; it never runs this script.
"""

from __future__ import annotations

import heapq
import json
import math
import sys
import time
from pathlib import Path

import mpmath as mp
import numpy as np

DPS = 30
REF_SEED = 20180512
GL_POINTS = 20
QUAD_TOL = 1e-13
MAX_PANELS = 20000
OUT = Path(__file__).resolve().parent / "refs_markov.json"


# ------------------------------------------------------------ geometry

class Boundary:
    """Arclength parametrization of a polygon (ccw vertices) or a disk."""

    def __init__(self, spec: dict):
        self.spec = spec
        if spec["kind"] == "disk":
            self.c = complex(*spec["center"])
            self.R = float(spec["radius"])
            self.L = 2.0 * math.pi * self.R
            self.breaks = [0.0]
        else:
            self.v = [complex(x, y) for x, y in spec["vertices"]]
            lens = [abs(self.v[(i + 1) % len(self.v)] - self.v[i])
                    for i in range(len(self.v))]
            self.cum = np.concatenate([[0.0], np.cumsum(lens)])
            self.L = float(self.cum[-1])
            self.breaks = [float(c) for c in self.cum[:-1]]

    def point(self, s):
        s = np.mod(np.asarray(s, dtype=float), self.L)
        if self.spec["kind"] == "disk":
            return self.c + self.R * np.exp(1j * s / self.R)
        i = np.clip(np.searchsorted(self.cum, s, side="right") - 1,
                    0, len(self.v) - 1)
        v = np.asarray(self.v)
        nxt = np.roll(v, -1)
        edge = nxt - v
        return v[i] + (s - self.cum[i]) / np.abs(edge[i]) * edge[i]

    def mp_point(self, s):
        """(z, dz/ds) in mpmath for a parameter inside one smooth piece."""
        s = mp.mpf(s) % self.L
        if self.spec["kind"] == "disk":
            e = mp.expj(s / self.R)
            return mp.mpc(self.c) + self.R * e, 1j * e
        i = max(k for k in range(len(self.v)) if self.cum[k] <= s)
        a, b = self.v[i], self.v[(i + 1) % len(self.v)]
        u = (mp.mpc(b) - mp.mpc(a)) / abs(mp.mpc(b) - mp.mpc(a))
        return mp.mpc(a) + (s - mp.mpf(self.cum[i])) * u, u

    def piece_of(self, s):
        """Smooth piece [lo, hi] holding s (the whole circle for a disk)."""
        if self.spec["kind"] == "disk":
            return s - self.L, s + self.L
        i = int(np.searchsorted(self.cum, s % self.L, side="right") - 1)
        i = min(max(i, 0), len(self.v) - 1)
        return float(self.cum[i]), float(self.cum[i + 1])

    def contains(self, z):
        if self.spec["kind"] == "disk":
            return np.abs(z - self.c) < self.R
        inside = np.ones(np.shape(z), dtype=bool)
        for i in range(len(self.v)):
            a, b = self.v[i], self.v[(i + 1) % len(self.v)]
            cross = ((b - a).real * (z - a).imag - (b - a).imag * (z - a).real)
            inside &= cross > 0
        return inside


# ------------------------------------------------------------ kernels

def float_logs(z, roots):
    """(log|p|, log|p'|) of the monic polynomial in float64 (panel choice
    only)."""
    d = z[:, None] - roots[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        la = np.log(np.abs(d)).sum(axis=1)
        ldp = la + np.log(np.abs((1.0 / d).sum(axis=1)))
    return la, np.where(np.isnan(ldp), -np.inf, ldp)


def mp_values(z, roots_mp):
    """p(z), p'(z)/p(z), and sum 1/(z - r)^2 in mpmath."""
    P = mp.mpc(1)
    S = mp.mpc(0)
    T = mp.mpc(0)
    for r in roots_mp:
        d = z - r
        P *= d
        inv = 1 / d
        S += inv
        T += inv * inv
    return P, S, T


def mp_logs(z, roots_mp):
    """(log|p|, log|p'|); on a simple root p' is the cofactor product."""
    on = [r for r in roots_mp if z == r]
    if on:
        rest = [r for r in roots_mp if z != r]
        P = mp.fprod(z - r for r in rest)
        return mp.ninf, (mp.log(abs(P)) if len(on) == 1 else mp.ninf)
    P, S, _ = mp_values(z, roots_mp)
    lp = mp.log(abs(P))
    return lp, lp + mp.log(abs(S))


# ------------------------------------------------------------ sup norms

def mp_sup(bd: Boundary, roots, roots_mp, which: int):
    """max over the boundary of log|p| (which=0) or log|p'| (which=1)."""
    m = max(20000, 40 * len(roots))
    ss = np.linspace(0.0, bd.L, m, endpoint=False)
    vals = float_logs(bd.point(ss), roots)[which]
    step = bd.L / m
    peak = (vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1))
    cand = np.nonzero(peak & (vals >= vals.max() - 1.0))[0]
    cand = cand[np.argsort(vals[cand])[::-1][:8]]

    def slope(s):
        z, dz = bd.mp_point(s)
        if any(z == r for r in roots_mp):
            if which == 0:
                return mp.nan
            # p = (z - r) Q gives p''/p' = 2 Q'/Q at the root r
            ratio = 2 * mp.fsum(1 / (z - r) for r in roots_mp if z != r)
            return mp.re(dz * ratio)
        _, S, T = mp_values(z, roots_mp)
        ratio = S if which == 0 else (S * S - T) / S
        return mp.re(dz * ratio)

    def value(s):
        z, _ = bd.mp_point(s)
        return mp_logs(z, roots_mp)[which]

    best = max(value(s) for s in bd.breaks)
    for i in cand:
        s0 = float(ss[i])
        lo_piece, hi_piece = bd.piece_of(s0)
        lo = max(s0 - step, lo_piece)
        hi = min(s0 + step, hi_piece)
        points = [lo, hi]
        g_lo, g_hi = slope(lo), slope(hi)
        if g_lo > 0 > g_hi:
            points.append(bisect_sign_change(slope, lo, hi))
        best = max(best, max(value(s) for s in points))
    return best


def bisect_sign_change(g, lo, hi, iters=60):
    """Point where g turns from positive to negative inside [lo, hi]."""
    lo, hi = mp.mpf(lo), mp.mpf(hi)
    for _ in range(iters):
        mid = (lo + hi) / 2
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


# ------------------------------------------------------------ integrals

def gl_rule(count):
    x, w = mp.gauss_quadrature(count, "legendre")
    return (np.array([float(v) for v in x]),
            np.array([float(v) for v in w]), list(x), list(w))


def panel_estimates(bd, roots, a, b, rule, shifts):
    """Coarse (one panel) and fine (two halves) values of the four scaled
    integrands exp(q (v - vmax)), q in {1, 2}, v in {log|p|, log|p'|}."""
    xs, ws = rule[0], rule[1]

    def integrate(lo, hi):
        half = 0.5 * (hi - lo)
        s = 0.5 * (lo + hi) + half * xs
        la, ldp = float_logs(bd.point(s), roots)
        out = []
        for v, q, shift in ((la, 1, shifts[0]), (la, 2, shifts[0]),
                            (ldp, 1, shifts[1]), (ldp, 2, shifts[1])):
            out.append(float(np.sum(half * ws * np.exp(q * (v - shift)))))
        return np.array(out)

    mid = 0.5 * (a + b)
    coarse = integrate(a, b)
    fine = integrate(a, mid) + integrate(mid, b)
    return fine, np.abs(fine - coarse)


def adaptive_panels(bd, roots, shifts, rule):
    breaks = sorted(set(bd.breaks + extra_breaks(bd, roots)))
    edges = breaks + [breaks[0] + bd.L]
    seeds = []
    per = 64 if bd.spec["kind"] == "disk" else 16
    for lo, hi in zip(edges[:-1], edges[1:]):
        for k in range(per):
            seeds.append((lo + (hi - lo) * k / per,
                          lo + (hi - lo) * (k + 1) / per))
    heap = []
    total = np.zeros(4)
    err = np.zeros(4)
    for a, b in seeds:
        fine, e = panel_estimates(bd, roots, a, b, rule, shifts)
        total += fine
        err += e
        heap.append((0.0, a, b, fine, e))
    heap = [(-float(np.max(e / total)), a, b, f, e)
            for _, a, b, f, e in heap]
    heapq.heapify(heap)
    while np.any(err > QUAD_TOL * total) and len(heap) < MAX_PANELS:
        _, a, b, f, e = heapq.heappop(heap)
        total -= f
        err -= e
        mid = 0.5 * (a + b)
        for lo, hi in ((a, mid), (mid, b)):
            fine, e2 = panel_estimates(bd, roots, lo, hi, rule, shifts)
            total += fine
            err += e2
            heapq.heappush(heap, (-float(np.max(e2 / total)), lo, hi,
                                  fine, e2))
    panels = sorted((a, b) for _, a, b, _, _ in heap)
    return panels, float(np.max(np.abs(err) / total))


def extra_breaks(bd, roots):
    """Parameters of roots lying on the boundary, where |p|^q has a
    kink; panels must not straddle them."""
    out = []
    zs = bd.point(np.linspace(0.0, bd.L, 200000, endpoint=False))
    for r in roots:
        j = int(np.argmin(np.abs(zs - r)))
        if abs(zs[j] - r) < 1e-9 * bd.L:
            s = j * bd.L / len(zs)
            # snap to the exact parameter along the piece
            lo, hi = bd.piece_of(s)
            if bd.spec["kind"] != "disk":
                i = int(np.searchsorted(bd.cum, lo))
                s = lo + abs(r - bd.v[i % len(bd.v)])
            out.append(float(s % bd.L))
    return out


def mp_integrals(bd, roots_mp, panels, rule, shifts):
    """The four scaled integrals in mpmath over the chosen panels (each
    split in two halves, matching the fine estimate), and the largest
    |log f_mp - log f_float| seen at a node."""
    xs, ws = rule[2], rule[3]
    sums = [[], [], [], []]
    worst = 0.0
    roots = np.array([complex(r) for r in roots_mp])
    for a, b in panels:
        mid = 0.5 * (a + b)
        for lo, hi in ((a, mid), (mid, b)):
            half = (mp.mpf(hi) - mp.mpf(lo)) / 2
            c = (mp.mpf(hi) + mp.mpf(lo)) / 2
            for x, w in zip(xs, ws):
                s = c + half * x
                z, _ = bd.mp_point(s)
                lp, ldp = mp_logs(z, roots_mp)
                fl = float_logs(np.array([complex(z)]), roots)
                worst = max(worst, abs(float(lp) - fl[0][0]),
                            abs(float(ldp) - fl[1][0]))
                for k, (v, q, sh) in enumerate(
                        ((lp, 1, shifts[0]), (lp, 2, shifts[0]),
                         (ldp, 1, shifts[1]), (ldp, 2, shifts[1]))):
                    sums[k].append(half * w * mp.exp(q * (v - sh)))
    return [mp.fsum(t) for t in sums], worst


# ------------------------------------------------------------ cells

def random_octagon(rng):
    """Strictly convex 8-gon from sorted random angles and radii."""
    while True:
        gaps = rng.uniform(0.6, 1.4, 8)
        ang = 2 * math.pi * np.cumsum(gaps) / gaps.sum()
        rad = rng.uniform(0.8, 1.2, 8)
        v = rad * np.exp(1j * ang)
        turns = [((v[(i + 1) % 8] - v[i]) * np.conj(v[i] - v[i - 1])).imag
                 for i in range(8)]
        if min(turns) > 1e-3:
            return {"kind": "polygon",
                    "vertices": [[float(z.real), float(z.imag)] for z in v]}


def uniform_roots(bd: Boundary, n, rng):
    if bd.spec["kind"] == "disk":
        box = (bd.c.real - bd.R, bd.c.real + bd.R,
               bd.c.imag - bd.R, bd.c.imag + bd.R)
    else:
        xs = [v.real for v in bd.v]
        ys = [v.imag for v in bd.v]
        box = (min(xs), max(xs), min(ys), max(ys))
    out = []
    while len(out) < n:
        z = rng.uniform(box[0], box[1], 4 * n) \
            + 1j * rng.uniform(box[2], box[3], 4 * n)
        out.extend(z[bd.contains(z)].tolist())
    return np.array(out[:n])


def equispaced_square_roots(n):
    """Roots at arclength k*4/n along the unit square from the origin
    (ccw), the equispaced-boundary reference family."""
    out = []
    for k in range(n):
        s = 4.0 * k / n
        e, t = int(s // 1), s - (s // 1)
        out.append((t, 1.0 + t * 1j, 1 - t + 1j, (1 - t) * 1j)[e])
    return np.array([complex(z) for z in out])


def cell_inputs():
    rng = np.random.default_rng(REF_SEED)
    domains = {
        "disk": {"kind": "disk", "center": [0.0, 0.0], "radius": 1.0},
        "square": {"kind": "polygon",
                   "vertices": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                                [0.0, 1.0]]},
        "octagon8": random_octagon(rng),
    }
    sets = []
    for name, spec in domains.items():
        for n in (64, 256, 1024):
            roots = uniform_roots(Boundary(spec), n, rng)
            sets.append((f"{name}-n{n}", name, spec, "uniform-interior",
                         roots))
    sets.append(("square-equispaced-n64", "square", domains["square"],
                 "equispaced-boundary", equispaced_square_roots(64)))
    return sets


def reference(spec, roots):
    bd = Boundary(spec)
    roots_mp = [mp.mpc(complex(r)) for r in roots]
    sup_p = mp_sup(bd, roots, roots_mp, 0)
    sup_dp = mp_sup(bd, roots, roots_mp, 1)
    shifts = (float(sup_p), float(sup_dp))
    rule = gl_rule(GL_POINTS)
    panels, quad_err = adaptive_panels(bd, roots, shifts, rule)
    sums, worst = mp_integrals(bd, roots_mp, panels, rule, shifts)
    M = {}
    for q, ip, idp in ((1, sums[0], sums[2]), (2, sums[1], sums[3])):
        M[str(q)] = (idp / ip) ** (mp.mpf(1) / q) * mp.exp(sup_dp - sup_p)
    M["inf"] = mp.exp(sup_dp - sup_p)
    # a log error of e in each node value moves a q-th power by q*e
    rel_err = quad_err + 2 * 2 * worst
    return ({k: mp.nstr(v, 20) for k, v in M.items()},
            {"panels": len(panels), "quad_rel_err_est": quad_err,
             "max_node_log_diff_float_vs_mp": worst,
             "rel_err_est": rel_err})


def main() -> int:
    mp.mp.dps = DPS
    cells = []
    for cell_id, dom_name, spec, family, roots in cell_inputs():
        t0 = time.perf_counter()
        M, info = reference(spec, roots)
        info["seconds"] = round(time.perf_counter() - t0, 1)
        print(cell_id, M, info, file=sys.stderr, flush=True)
        cells.append({
            "id": cell_id, "domain_name": dom_name, "domain": spec,
            "family": family, "n": len(roots),
            "roots": [[float(r.real), float(r.imag)] for r in roots],
            "M": M, "precision": info,
        })
    doc = {
        "generator": "perfbench/make_refs.py",
        "mpmath": mp.__version__, "dps": DPS, "seed": REF_SEED,
        "gauss_legendre_points": GL_POINTS, "quad_tol": QUAD_TOL,
        "cells": cells,
    }
    OUT.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
