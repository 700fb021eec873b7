"""Seeded random generators for domains, polynomials, and trial plumbing.

Batch audits and tests draw their inputs here so that a master seed plus a
trial index reproduces any single trial exactly.
"""

from __future__ import annotations

import numpy as np

from .geometry import TWO_PI, ConvexDomain


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Independent generator for one trial of a seeded batch."""
    return np.random.default_rng([int(master_seed), int(trial_index)])


def random_convex_polygon(rng: np.random.Generator, vertices: int = 8,
                          scale: float = 1.0) -> ConvexDomain:
    """Random strictly convex polygon around 0 with the requested vertex
    count.

    Vertices are placed at sorted random angles with radii within 35% of
    scale; the hull condition is then checked and the draw repeated if a
    near-degenerate corner slipped through.
    """
    if vertices < 3:
        raise ValueError("need at least 3 vertices")
    for _ in range(64):
        gaps = rng.uniform(0.5, 1.5, size=vertices)
        angles = TWO_PI * np.cumsum(gaps) / gaps.sum()
        radii = scale * (1.0 + 0.35 * rng.uniform(-1.0, 1.0, size=vertices))
        pts = radii * np.exp(1j * angles)
        pts = _convex_subset(pts)
        if len(pts) == vertices:
            try:
                return ConvexDomain.polygon([complex(p) for p in pts])
            except ValueError:
                continue
    # fall back to a concyclic polygon, always strictly convex
    gaps = rng.uniform(0.5, 1.5, size=vertices)
    angles = TWO_PI * np.cumsum(gaps) / gaps.sum()
    pts = scale * np.exp(1j * angles)
    return ConvexDomain.polygon([complex(p) for p in pts])


def _convex_subset(pts: np.ndarray) -> np.ndarray:
    """Convex hull of points already sorted by angle (monotone pass)."""
    pts = list(pts)
    n = len(pts)
    keep = []
    for i in range(n):
        keep.append(pts[i])
        while len(keep) >= 3:
            a, b, c = keep[-3], keep[-2], keep[-1]
            if ((b - a).real * (c - b).imag
                    - (b - a).imag * (c - b).real) <= 1e-12:
                keep.pop(-2)
            else:
                break
    # close the loop: drop head/tail points that turn the wrong way
    changed = True
    while changed and len(keep) > 3:
        changed = False
        for (i, j, k) in ((-2, -1, 0), (-1, 0, 1)):
            a, b, c = keep[i], keep[j], keep[k]
            if ((b - a).real * (c - b).imag
                    - (b - a).imag * (c - b).real) <= 1e-12:
                keep.pop(j if j >= 0 else len(keep) + j)
                changed = True
                break
    return np.asarray(keep)


def random_domain(rng: np.random.Generator) -> ConvexDomain:
    """A disk one time in five, else a random polygon of 4 to 9 vertices."""
    if rng.uniform() < 0.2:
        return ConvexDomain.disk(
            complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)),
            rng.uniform(0.5, 1.5))
    return random_convex_polygon(rng, vertices=int(rng.integers(4, 10)),
                                 scale=rng.uniform(0.6, 1.4))


def random_roots_in(K: ConvexDomain, n: int,
                    rng: np.random.Generator) -> np.ndarray:
    """n independent uniform points of K."""
    return K.sample_uniform(n, rng)


def random_roots_loose(K: ConvexDomain, n: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Roots uniform in the square centred on K whose half-side is 1.5
    times K's radius (disk) or longer bounding-box side (polygon), not
    restricted to K.

    Used by audits whose inequalities hold for arbitrary polynomials of a
    given degree.
    """
    if K.kind == "disk":
        c, extent = K.center, K.radius
    else:
        xs = [v.real for v in K.vertices]
        ys = [v.imag for v in K.vertices]
        c = complex((min(xs) + max(xs)) / 2, (min(ys) + max(ys)) / 2)
        extent = max(max(xs) - min(xs), max(ys) - min(ys))
    half = 1.5 * extent
    re = rng.uniform(c.real - half, c.real + half, size=n)
    im = rng.uniform(c.imag - half, c.imag + half, size=n)
    return re + 1j * im
