"""Convex plane domains with an arc-length boundary parametrization.

Domains are either convex polygons (counterclockwise, strictly convex) or
disks. Points in the plane are complex numbers. The boundary is parametrized
by arc length s in [0, L), starting at vertex 0 (polygon) or at angle 0
(disk) and running counterclockwise.

The module computes the classical size quantities of a convex body (diameter,
minimal width, perimeter, depth), chords of lines through boundary points,
tangent direction intervals, and a handful of quantitative facts about how a
short boundary chord cuts the domain (triangle containment, angle and arc
bounds, which side of a tilted chord is the small one), and the logarithmic
capacity (transfinite diameter) from one solve of Symm's integral equation.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateTangent, NoIntersection

TWO_PI = 2.0 * math.pi

# Geometric predicates (containment, interior hits, vertex snapping) use an
# absolute tolerance of GEOM_REL_TOL * diameter.
GEOM_REL_TOL = 1e-12

# Arc parameters within VERTEX_SNAP_REL * perimeter of a vertex snap to it.
VERTEX_SNAP_REL = 1e-9

# Inequality margins pass at relative tolerance 1e-9 throughout the package.
MARGIN_REL_TOL = 1e-9


def _cross(a: complex, b: complex) -> float:
    return a.real * b.imag - a.imag * b.real


def margin_tol(lhs: float, rhs: float) -> float:
    """Tolerance for the inequality lhs >= rhs: 1e-9 * (|lhs| + |rhs|)."""
    return MARGIN_REL_TOL * (abs(lhs) + abs(rhs))


def _json_number(x, what: str) -> float:
    """A JSON number as a float; ValueError for any other JSON value."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"malformed domain: {what} is not a number")
    try:
        return float(x)
    except OverflowError as exc:
        raise ValueError(f"malformed domain: {what} is too large") from exc


def _json_point(p, what: str) -> complex:
    if not (isinstance(p, list) and len(p) == 2):
        raise ValueError(f"malformed domain: {what} is not an [x, y] pair")
    return complex(_json_number(p[0], what), _json_number(p[1], what))


@dataclass(frozen=True)
class BoundaryPoint:
    """A boundary point with its arc parameter and tangent direction data.

    alpha_minus and alpha_plus are the one-sided tangent direction angles in
    a lifting that increases by 2*pi per counterclockwise loop. They agree
    except at polygon vertices, where the boundary turns by
    omega = alpha_plus - alpha_minus > 0.
    """

    s: float
    z: complex
    alpha_minus: float
    alpha_plus: float

    @property
    def omega(self) -> float:
        return self.alpha_plus - self.alpha_minus

    @property
    def alpha(self) -> float:
        """Default tangent direction choice: midpoint of the interval."""
        return 0.5 * (self.alpha_minus + self.alpha_plus)

    @property
    def sigma(self) -> float:
        """Inner normal angle for the default tangent choice."""
        return self.alpha + 0.5 * math.pi


@dataclass(frozen=True)
class Chord:
    """Intersection of the full line zeta + e^{i phi} R with the domain.

    delta is the length of the intersection segment (0 when the line only
    touches the boundary or misses it). D is the endpoint of the segment
    farther from zeta. hits_interior records whether the open segment meets
    the interior of the domain; a supporting line that contains a whole edge
    has delta > 0 but hits_interior False.
    """

    zeta: complex
    phi: float
    delta: float
    D: complex
    t_lo: float
    t_hi: float
    hits_interior: bool


class ConvexDomain:
    """A compact convex domain: counterclockwise polygon or disk."""

    def __init__(self, kind: str, vertices: Sequence[complex] | None = None,
                 center: complex | None = None, radius: float | None = None):
        self.kind = kind
        if kind == "polygon":
            if vertices is None or len(vertices) < 3:
                raise ValueError("polygon needs at least 3 vertices")
            self.vertices = tuple(complex(v) for v in vertices)
            if not all(cmath.isfinite(v) for v in self.vertices):
                raise ValueError("polygon vertices must be finite")
            self.center = None
            self.radius = None
            self._init_polygon()
        elif kind == "disk":
            if center is None or radius is None or not radius > 0:
                raise ValueError("disk needs a center and a positive radius")
            self.vertices = None
            self.center = complex(center)
            self.radius = float(radius)
            if not (cmath.isfinite(self.center)
                    and math.isfinite(self.radius)):
                raise ValueError("disk center and radius must be finite")
            self._init_disk()
        else:
            raise ValueError(f"unknown domain kind {kind!r}")

    # ------------------------------------------------------------------
    # construction helpers

    @classmethod
    def polygon(cls, vertices: Iterable[complex]) -> "ConvexDomain":
        return cls("polygon", vertices=list(vertices))

    @classmethod
    def disk(cls, center: complex = 0j, radius: float = 1.0) -> "ConvexDomain":
        return cls("disk", center=center, radius=radius)

    @classmethod
    def unit_disk(cls) -> "ConvexDomain":
        return cls.disk(0j, 1.0)

    @classmethod
    def unit_square(cls) -> "ConvexDomain":
        return cls.polygon([0j, 1 + 0j, 1 + 1j, 1j])

    @classmethod
    def regular_polygon(cls, sides: int, circumradius: float = 1.0,
                        center: complex = 0j) -> "ConvexDomain":
        vs = [center + circumradius * np.exp(2j * math.pi * k / sides)
              for k in range(sides)]
        return cls.polygon([complex(v) for v in vs])

    @classmethod
    def from_json(cls, data: dict | str) -> "ConvexDomain":
        """Domain from its JSON document; ValueError when it is malformed."""
        if isinstance(data, str):
            data = json.loads(data)
        if not isinstance(data, dict):
            raise ValueError("domain must be a JSON object")
        kind = data.get("kind")
        if kind == "polygon":
            verts = data.get("vertices")
            if not isinstance(verts, list):
                raise ValueError("malformed domain: vertices is not a list")
            return cls.polygon([_json_point(v, "vertex") for v in verts])
        if kind == "disk":
            return cls.disk(_json_point(data.get("center"), "center"),
                            _json_number(data.get("radius"), "radius"))
        raise ValueError(f"unknown domain kind {kind!r}")

    def to_json(self) -> dict:
        if self.kind == "polygon":
            return {"kind": "polygon",
                    "vertices": [[v.real, v.imag] for v in self.vertices]}
        return {"kind": "disk",
                "center": [self.center.real, self.center.imag],
                "radius": self.radius}

    # ------------------------------------------------------------------
    # cached structure

    def _init_polygon(self) -> None:
        vs = self.vertices
        n = len(vs)
        try:
            scale = max(abs(a - b) for a in vs for b in vs)
        except OverflowError as exc:
            raise ValueError("polygon vertices lie too far apart") from exc
        if scale <= 0:
            raise ValueError("polygon vertices coincide")
        area2 = sum(_cross(vs[i], vs[(i + 1) % n]) for i in range(n))
        if area2 < 0:
            raise ValueError("polygon vertices are clockwise, expected "
                             "counterclockwise order")
        edges = [vs[(i + 1) % n] - vs[i] for i in range(n)]
        for i in range(n):
            # a cross product whose terms overflow is nan, and fails too
            c = _cross(edges[i - 1], edges[i])
            if not c > GEOM_REL_TOL * scale * scale:
                raise ValueError(
                    f"polygon is not strictly convex at vertex {i} "
                    f"({vs[i].real:.6g}, {vs[i].imag:.6g})")
        if not math.isfinite(scale * scale):
            raise ValueError(f"polygon diameter {scale:.6g} is too large: "
                             "its square overflows")
        lens = [abs(e) for e in edges]
        self._edge_dir = [e / l for e, l in zip(edges, lens)]
        self._edge_len = lens
        cum = [0.0]
        for l in lens:
            cum.append(cum[-1] + l)
        self._cum = cum
        self.perimeter = cum[-1]
        # array copies for the vectorized lookups, built once, read-only
        arrays = [np.array(x) for x in (cum, vs, self._edge_dir, lens)]
        for arr in arrays:
            arr.flags.writeable = False
        (self._cum_arr, self._vert_arr, self._dir_arr,
         self._edge_len_arr) = arrays
        # lifted tangent angles: base[i] is the direction angle of edge i,
        # lifted so that base is increasing and base[0] in (-pi, pi]
        base = [math.atan2(self._edge_dir[0].imag, self._edge_dir[0].real)]
        turns = [0.0] * n
        for i in range(1, n):
            raw = math.atan2(self._edge_dir[i].imag, self._edge_dir[i].real)
            t = (raw - math.atan2(self._edge_dir[i - 1].imag,
                                  self._edge_dir[i - 1].real)) % TWO_PI
            turns[i] = t
            base.append(base[-1] + t)
        turns[0] = TWO_PI - sum(turns[1:])
        self._edge_angle = base
        self._turn = turns
        self.diameter = scale
        # minimal width is attained flush to an edge: distance of the
        # farthest vertex from each edge line, minimized over edges
        widths = [max(_cross(self._edge_dir[i], v - vs[i]) for v in vs)
                  for i in range(n)]
        self.width = min(widths)
        self._depth = None
        self._capacity = None

    def _init_disk(self) -> None:
        self.perimeter = TWO_PI * self.radius
        self.diameter = 2.0 * self.radius
        self.width = 2.0 * self.radius
        self._depth = 2.0 * self.radius
        self._capacity = (self.radius,) * 3

    @property
    def tol(self) -> float:
        return GEOM_REL_TOL * self.diameter

    def __repr__(self) -> str:
        if self.kind == "polygon":
            return f"ConvexDomain(polygon, {len(self.vertices)} vertices)"
        return f"ConvexDomain(disk, c={self.center}, R={self.radius})"

    # ------------------------------------------------------------------
    # boundary parametrization

    def gamma(self, s):
        """Boundary point(s) at arc parameter s, vectorized over arrays."""
        if self.kind == "disk":
            s = np.asarray(s, dtype=float)
            out = self.center + self.radius * np.exp(1j * s / self.radius)
            return complex(out) if out.ndim == 0 else out
        s = np.mod(np.asarray(s, dtype=float), self.perimeter)
        idx = np.minimum(np.searchsorted(self._cum_arr, s, side="right") - 1,
                         len(self._edge_len) - 1)
        off = s - self._cum_arr[idx]
        out = self._vert_arr[idx] + off * self._dir_arr[idx]
        return complex(out) if out.ndim == 0 else out

    def vertex_s(self, i: int) -> float:
        """Arc parameter of vertex i (polygon only)."""
        return self._cum[i]

    def boundary_point(self, s) -> BoundaryPoint:
        """Boundary point with one-sided tangent angles at arc parameter s.

        s within 1e-9 * L of a polygon vertex snaps to the vertex. An array
        s gives a BoundaryPoint whose fields are arrays of the same shape.
        """
        L = self.perimeter
        s = np.mod(np.asarray(s, dtype=float), L)
        if self.kind == "disk":
            a = s / self.radius + 0.5 * math.pi
            z = self.gamma(s)
            a_minus = a_plus = a
        else:
            snap = VERTEX_SNAP_REL * L
            n = len(self.vertices)
            cum = self._cum_arr
            i = np.minimum(np.searchsorted(cum, s, side="right") - 1, n - 1)
            off = s - cum[i]
            at_start = off <= snap
            snapped = at_start | (self._edge_len_arr[i] - off <= snap)
            j = np.where(at_start, i, (i + 1) % n)
            a_edge = np.asarray(self._edge_angle)
            a_plus = np.where(snapped, a_edge[j], a_edge[i])
            a_minus = np.where(snapped, a_plus - np.asarray(self._turn)[j],
                               a_plus)
            z = np.where(snapped, self._vert_arr[j], self.gamma(s))
            s = np.where(snapped, np.mod(cum[j], L), s)
        if s.ndim == 0:
            return BoundaryPoint(float(s), complex(z), float(a_minus),
                                 float(a_plus))
        return BoundaryPoint(s, z, a_minus, a_plus)

    def vertex_point(self, i: int) -> BoundaryPoint:
        return self.boundary_point(self._cum[i % len(self.vertices)])

    def tangent_variation(self, s_start: float, s_end: float) -> float:
        """Total turning of the tangent along the ccw arc from s_start to
        s_end, endpoints included: alpha_plus(end) - alpha_minus(start)."""
        L = self.perimeter
        length = (s_end - s_start) % L
        if self.kind == "disk":
            return length / self.radius
        s0 = s_start % L
        tol = 1e-9 * L
        var = 0.0
        for j, sv in enumerate(self._cum[:-1]):
            rel = (sv - s0) % L
            if rel <= length + tol or rel >= L - tol:
                var += self._turn[j]
        return var

    # ------------------------------------------------------------------
    # membership and projection

    def interior_margin(self, z) -> float | np.ndarray:
        """Signed distance to the boundary, positive inside (vectorized).

        For polygons this is the minimum over edges of the signed distance
        to the edge lines. Inside the domain that equals the distance to the
        boundary; outside it underestimates near corners, which is fine for
        the membership tests it backs.
        """
        if self.kind == "disk":
            z = np.asarray(z, dtype=complex)
            out = self.radius - np.abs(z - self.center)
            return float(out) if out.ndim == 0 else out
        z = np.asarray(z, dtype=complex)
        rel = z[..., None] - self._vert_arr
        dirs = self._dir_arr
        crossv = dirs.real * rel.imag - dirs.imag * rel.real
        out = crossv.min(axis=-1)
        return float(out) if out.ndim == 0 else out

    def contains(self, z):
        return self.interior_margin(z) >= -self.tol

    def nearest_boundary_s(self, z):
        """Arc parameter of the boundary point nearest to z, vectorized
        over arrays; a float for a scalar z.

        A polygon point takes the nearest of its feet on the edges, the
        first edge on a tie.  The distances come from np.hypot and the
        disk's angle from math.atan2, which round as abs and atan2 on a
        Python complex do; numpy's complex abs and arctan2 do not."""
        z = np.asarray(z, dtype=complex)
        if self.kind == "disk":
            dz = (z - self.center).ravel()
            ang = np.fromiter(map(math.atan2, dz.imag.tolist(),
                                  dz.real.tolist()), float, dz.size)
            out = np.mod(ang.reshape(z.shape), TWO_PI) * self.radius
            return float(out) if out.ndim == 0 else out
        rel = z[..., None] - self._vert_arr
        dirs = self._dir_arr
        t = np.minimum(np.maximum(rel.real * dirs.real + rel.imag * dirs.imag,
                                  0.0), self._edge_len_arr)
        dist = np.hypot(z.real[..., None] - (self._vert_arr.real
                                             + t * dirs.real),
                        z.imag[..., None] - (self._vert_arr.imag
                                             + t * dirs.imag))
        i = dist.argmin(axis=-1)[..., None]
        out = np.mod(np.take_along_axis(self._cum_arr[:-1] + t, i, -1)[..., 0],
                     self.perimeter)
        return float(out) if out.ndim == 0 else out

    def as_clip_polygon(self, resolution: int = 1024) -> list[complex]:
        """Vertex list used for clipping and area sampling.

        Disks are replaced by an inscribed regular polygon, which slightly
        under-covers the disk near the arc; samples drawn from it are still
        genuine domain points.
        """
        if self.kind == "polygon":
            return list(self.vertices)
        return [self.center + self.radius * complex(math.cos(t), math.sin(t))
                for t in np.linspace(0.0, TWO_PI, resolution, endpoint=False)]

    def sample_uniform(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform samples from the domain (disk exact, polygon exact)."""
        if self.kind == "disk":
            r = self.radius * np.sqrt(rng.uniform(size=count))
            t = rng.uniform(0.0, TWO_PI, size=count)
            return self.center + r * np.exp(1j * t)
        return sample_polygon_uniform(list(self.vertices), count, rng)

    # ------------------------------------------------------------------
    # depth

    def depth(self) -> float:
        """Largest h such that every boundary point has a normal line whose
        chord through the domain is at least h long.

        A disk gives 2R. For a polygon the minimum over the boundary of the
        best normal chord is attained in the limit toward a vertex along an
        adjacent edge (the chord length in a fixed direction is concave along
        each edge), so it suffices to evaluate, at every vertex, the chord in
        the inner normal direction of each adjacent edge. Domains with an
        acute enough corner get depth 0.
        """
        if self._depth is not None:
            return self._depth
        n = len(self.vertices)
        # at every vertex, the inner normals of both adjacent edges
        sigmas = [self._edge_angle_raw(e) + 0.5 * math.pi
                  for j in range(n) for e in (j, (j - 1) % n)]
        chords = chord(self, np.repeat(self.vertices, 2), sigmas)
        self._depth = max(float(np.min(chords.delta)), 0.0)
        return self._depth

    def capacity(self) -> tuple[float, float, float]:
        """(cap, lo, hi): the logarithmic capacity (transfinite diameter)
        and a bracket around it; (R, R, R) on a disk. On a polygon cap = e^V
        (`_symm_solve`), and lo, hi are sampled extremes of the potential of
        sigma^+ ds / int sigma^+ ds: estimates, not certified bounds."""
        if self._capacity is None:
            # translation invariant; near 0 the panel ends keep their digits
            verts = np.asarray(self.vertices) - self.vertices[0]
            a, b, sigma, V = _symm_solve(verts)
            mu = np.maximum(sigma, 0.0)
            mu /= mu @ np.abs(b - a)
            # the potential peaks at vertices and dips near quarter points
            scan = np.concatenate([a + f * (b - a) for f in (0, 0.25, 0.75)])
            pot = _segment_log_integrals(verts, scan) @ mu
            self._capacity = (math.exp(V), math.exp(pot.min()),
                              math.exp(pot.max()))
        return self._capacity

    def _edge_angle_raw(self, i: int) -> float:
        d = self._edge_dir[i]
        return math.atan2(d.imag, d.real)


# ----------------------------------------------------------------------
# plain-geometry helpers shared by the ops below


def sample_polygon_uniform(verts: list[complex], count: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Uniform samples from a convex polygon via fan triangulation."""
    v0 = verts[0]
    tris = [(v0, verts[i], verts[i + 1]) for i in range(1, len(verts) - 1)]
    areas = np.array([abs(_cross(b - a, c - a)) * 0.5 for a, b, c in tris])
    total = areas.sum()
    if total <= 0:
        return np.full(count, v0, dtype=complex)
    pick = rng.choice(len(tris), size=count, p=areas / total)
    u = rng.uniform(size=count)
    v = rng.uniform(size=count)
    flip = u + v > 1.0
    u[flip] = 1.0 - u[flip]
    v[flip] = 1.0 - v[flip]
    a = np.array([tris[k][0] for k in pick])
    b = np.array([tris[k][1] for k in pick])
    c = np.array([tris[k][2] for k in pick])
    return a + u * (b - a) + v * (c - a)


def clip_polygon_halfplane(verts: Sequence[complex], point: complex,
                           inward: complex) -> list[complex]:
    """Clip a convex polygon to the halfplane {z: <z - point, inward> >= 0}.

    inward is a (not necessarily unit) normal pointing into the kept side.
    """
    def val(z: complex) -> float:
        return (z - point).real * inward.real + (z - point).imag * inward.imag

    out: list[complex] = []
    n = len(verts)
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        va, vb = val(a), val(b)
        if va >= 0:
            out.append(a)
        if (va > 0 and vb < 0) or (va < 0 and vb > 0):
            t = va / (va - vb)
            out.append(a + t * (b - a))
    return out


def polygon_diameter(verts: Sequence[complex]) -> float:
    if len(verts) < 2:
        return 0.0
    arr = np.asarray(verts, dtype=complex)
    return float(np.abs(arr[:, None] - arr[None, :]).max())


# ----------------------------------------------------------------------
# chords


def chord(K: ConvexDomain, zeta, phi) -> Chord:
    """Chord of the full line through zeta with direction angle phi.

    zeta may be a BoundaryPoint or a complex point (not required to lie on
    the boundary; the chord of the line is well defined regardless). The
    result satisfies chord(K, z, phi).delta == chord(K, z, phi + pi).delta.
    Points and angles may be arrays (broadcast together); the Chord fields
    are then arrays, each entry equal to the scalar call on that entry.
    """
    z0 = zeta.z if isinstance(zeta, BoundaryPoint) else zeta
    z0, ph = np.broadcast_arrays(np.asarray(z0, dtype=complex),
                                 np.asarray(phi, dtype=float))
    u = np.empty(ph.shape, dtype=complex)
    u.real, u.imag = np.cos(ph), np.sin(ph)
    tol = K.tol
    if K.kind == "disk":
        rel = z0 - K.center
        b = rel.real * u.real + rel.imag * u.imag
        # abs(rel) ** 2 through libm hypot and pow, as on Python floats
        sq = [h ** 2 for h in np.hypot(rel.real, rel.imag).ravel().tolist()]
        disc = b * b - (np.reshape(sq, b.shape) - K.radius ** 2)
        empty = disc <= 0.0
        r = np.sqrt(np.where(empty, 0.0, disc))
        t_lo, t_hi = -b - r, -b + r
    else:
        # the line z0 + t u crosses the line of edge k at t = -c0[k] / c1[k]
        # (all edges at once); a point outside a parallel edge has no chord
        edge_axis = (-1,) + (1,) * z0.ndim
        verts = K._vert_arr.reshape(edge_axis)
        dirs = K._dir_arr.reshape(edge_axis)
        rel = z0 - verts
        c0 = dirs.real * rel.imag - dirs.imag * rel.real
        c1 = dirs.real * u.imag - dirs.imag * u.real
        empty = ((np.abs(c1) <= 1e-15) & (c0 < -tol)).any(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = -c0 / c1
        # arg-extrema take the first edge among tied values (0.0 and -0.0
        # too), as a running max/min over the edges would
        t_lo = np.where(c1 > 1e-15, t, -math.inf)
        t_hi = np.where(c1 < -1e-15, t, math.inf)
        t_lo = np.take_along_axis(t_lo, t_lo.argmax(axis=0)[None], 0)[0]
        t_hi = np.take_along_axis(t_hi, t_hi.argmin(axis=0)[None], 0)[0]
        empty |= ~(t_hi - t_lo > 0.0) | np.isinf(t_lo) | np.isinf(t_hi)
    t_lo = np.where(empty, 0.0, t_lo)
    t_hi = np.where(empty, 0.0, t_hi)
    delta = t_hi - t_lo
    thin = delta <= tol
    far = np.where(np.abs(t_hi) >= np.abs(t_lo), t_hi, t_lo)
    D = np.where(thin, z0, z0 + far * u)
    mid = z0 + 0.5 * (t_lo + t_hi) * u
    hits = ~thin & (K.interior_margin(mid) > tol)
    delta = np.where(thin, 0.0, delta)
    if ph.ndim == 0:
        return Chord(complex(z0), phi, float(delta), complex(D), float(t_lo),
                     float(t_hi), bool(hits))
    return Chord(z0, ph, delta, D, t_lo, t_hi, hits)


# ----------------------------------------------------------------------
# quantitative convexity facts


@dataclass(frozen=True)
class TriangleContainmentReport:
    applicable: bool
    reason: str
    vertices: int
    violations: int
    min_margin: float
    T: complex | None


def triangle_containment_check(K: ConvexDomain, zeta, zeta_prime,
                               phi_t: float, phi_t_prime: float
                               ) -> TriangleContainmentReport:
    """Check that the part of K beyond the chord [zeta, zeta'] fits in the
    triangle (zeta, T, zeta'), where T is the crossing of the two supporting
    half-lines from zeta and zeta'.

    phi_t and phi_t_prime are direction angles of the half-lines (rays). The
    rays must not re-enter the interior of K. That part is a convex polygon
    (on a disk, the part of the inscribed `as_clip_polygon`), so it lies in
    the triangle exactly when its vertices do: the report counts the
    vertices whose margin to the triangle is below -tolerance.
    """
    z1 = zeta.z if isinstance(zeta, BoundaryPoint) else complex(zeta)
    z2 = zeta_prime.z if isinstance(zeta_prime, BoundaryPoint) else complex(zeta_prime)
    tol = K.tol
    for z0, phi in ((z1, phi_t), (z2, phi_t_prime)):
        ch = chord(K, z0, phi)
        if ch.hits_interior and ch.t_hi > tol:
            seg_lo = max(ch.t_lo, 0.0)
            if ch.t_hi - seg_lo > tol:
                mid = z0 + 0.5 * (seg_lo + ch.t_hi) * complex(math.cos(phi),
                                                              math.sin(phi))
                if K.interior_margin(mid) > tol:
                    raise ValueError("half-line enters the interior, not a "
                                     "supporting ray")
    u1 = complex(math.cos(phi_t), math.sin(phi_t))
    u2 = complex(math.cos(phi_t_prime), math.sin(phi_t_prime))
    den = _cross(u1, u2)
    if abs(den) <= 1e-14:
        return TriangleContainmentReport(False, "rays parallel", 0, 0,
                                         math.nan, None)
    rel = z2 - z1
    a = _cross(rel, u2) / den
    b = _cross(rel, u1) / den
    if a < -tol or b < -tol:
        return TriangleContainmentReport(False, "rays do not cross", 0, 0,
                                         math.nan, None)
    T = z1 + a * u1
    cell = z2 - z1
    side_T = _cross(cell, T - z1)
    if abs(side_T) <= tol * max(abs(cell), 1.0):
        return TriangleContainmentReport(False, "T on the chord line", 0, 0,
                                         math.nan, T)
    inward = 1j * cell if side_T > 0 else -1j * cell
    pts = np.asarray(clip_polygon_halfplane(K.as_clip_polygon(), z1, inward))
    if pts.size < 3:
        return TriangleContainmentReport(True, "empty far side", 0, 0,
                                         math.inf, T)
    tri = (z1, T, z2)
    orient = _cross(tri[1] - tri[0], tri[2] - tri[0])
    if orient < 0:
        tri = (z2, T, z1)
    margins = np.full(pts.size, math.inf)
    for i in range(3):
        aa, bb = tri[i], tri[(i + 1) % 3]
        e = bb - aa
        elen = abs(e)
        if elen <= tol:
            continue
        m = (e.real * (pts.imag - aa.imag) - e.imag * (pts.real - aa.real)) / elen
        margins = np.minimum(margins, m)
    bad = int((margins < -tol).sum())
    return TriangleContainmentReport(True, "", pts.size, bad,
                                     float(margins.min()), T)


@dataclass(frozen=True)
class AngleDiamArcReport:
    s: float
    beta: float
    beta_floor: float
    diam_small: float
    diam_bound: float
    arc_small: float
    arc_bound: float
    T: complex

    @property
    def margins(self) -> dict[str, float]:
        return {
            "beta": self.beta - self.beta_floor,
            "diam": self.diam_bound - self.diam_small,
            "arc": self.arc_bound - self.arc_small,
        }

    @property
    def passed(self) -> bool:
        checks = [
            (self.beta, self.beta_floor),
            (self.diam_bound, self.diam_small),
            (self.arc_bound, self.arc_small),
        ]
        return all(hi - lo >= -margin_tol(hi, lo) for hi, lo in checks)


def angle_diam_arc_bounds(K: ConvexDomain, zeta: BoundaryPoint,
                          zeta_prime: BoundaryPoint) -> AngleDiamArcReport:
    """Quantify how flat the domain is near a short boundary chord.

    For boundary points at distance s with 0 < s < w, the supporting lines
    chosen at them meet at T with angle beta >= arcsin((w - s)/d), and the
    side of the chord line containing T satisfies
    diam <= s d/(w - s) and boundary arc length <= 2 s d/(w - s).
    """
    z1, z2 = zeta.z, zeta_prime.z
    s = abs(z2 - z1)
    w, d = K.width, K.diameter
    if not (0.0 < s < w):
        raise ValueError(f"need 0 < s < w, got s={s:.6g}, w={w:.6g}")
    u1 = complex(math.cos(zeta.alpha), math.sin(zeta.alpha))
    u2 = complex(math.cos(zeta_prime.alpha), math.sin(zeta_prime.alpha))
    cell = z2 - z1
    if abs(_cross(u1, cell)) <= K.tol or abs(_cross(u2, cell)) <= K.tol:
        raise DegenerateTangent("supporting line runs along the chord")
    den = _cross(u1, u2)
    if abs(den) <= 1e-14:
        raise NoIntersection("supporting lines are parallel")
    a = _cross(cell, u2) / den
    T = z1 + a * u1
    side_T = _cross(cell, T - z1)
    if abs(side_T) <= K.tol * max(abs(cell), 1.0):
        raise DegenerateTangent("crossing point lies on the chord line")
    beta = abs(math.remainder(math.atan2((z1 - T).imag, (z1 - T).real)
                              - math.atan2((z2 - T).imag, (z2 - T).real),
                              TWO_PI))
    inward = 1j * cell if side_T > 0 else -1j * cell
    if K.kind == "polygon":
        small = clip_polygon_halfplane(list(K.vertices), z1, inward)
        diam_small = polygon_diameter(small)
        arc_small = _polygon_boundary_in_halfplane(K, z1, inward)
    else:
        nu = inward / abs(inward)
        g = ((K.center - z1).real * nu.real + (K.center - z1).imag * nu.imag)
        psi = math.acos(max(-1.0, min(1.0, -g / K.radius)))
        arc_small = 2.0 * psi * K.radius
        diam_small = 2.0 * K.radius * math.sin(psi) if 2.0 * psi <= math.pi \
            else 2.0 * K.radius
    return AngleDiamArcReport(
        s=s,
        beta=beta,
        beta_floor=math.asin(max(-1.0, min(1.0, (w - s) / d))),
        diam_small=diam_small,
        diam_bound=s * d / (w - s),
        arc_small=arc_small,
        arc_bound=2.0 * s * d / (w - s),
        T=T,
    )


def _polygon_boundary_in_halfplane(K: ConvexDomain, point: complex,
                                   inward: complex) -> float:
    """Length of the polygon boundary inside {<z - point, inward> >= 0}."""
    def val(z: complex) -> float:
        return (z - point).real * inward.real + (z - point).imag * inward.imag

    total = 0.0
    n = len(K.vertices)
    for i in range(n):
        a, b = K.vertices[i], K.vertices[(i + 1) % n]
        va, vb = val(a), val(b)
        if va >= 0.0 and vb >= 0.0:
            total += abs(b - a)
        elif va >= 0.0 or vb >= 0.0:
            t = va / (va - vb)
            if va >= 0.0:
                total += abs(b - a) * t
            else:
                total += abs(b - a) * (1.0 - t)
    return total


@dataclass(frozen=True)
class TiltedSideReport:
    applicable: bool
    reason: str
    delta_minus: float
    delta_plus: float
    small_side: str | None
    sector: tuple[float, float] | None


def tilted_side_classification(K: ConvexDomain, zeta: BoundaryPoint,
                               phi: float) -> TiltedSideReport:
    """Decide which side of a tilted chord through zeta is the small one.

    The two chords leave zeta at angles sigma -+ phi from zero, where sigma
    is the inner normal angle. When both chords are positive and shorter
    than the width, the small part of the domain cut off by the shorter
    chord lies in the angular sector between that chord and the tangent ray
    on its side. Returns the sector of directions (at zeta) containing the
    small part.
    """
    sigma = zeta.sigma
    ch_minus = chord(K, zeta, sigma - phi)
    ch_plus = chord(K, zeta, sigma + phi)
    dm, dp = ch_minus.delta, ch_plus.delta
    w = K.width
    if min(dm, dp) <= K.tol:
        return TiltedSideReport(False, "min chord zero", dm, dp, None, None)
    if max(dm, dp) >= w:
        return TiltedSideReport(False, "chord at least the width", dm, dp,
                                None, None)
    if dm <= dp:
        sector = (sigma - 0.5 * math.pi, sigma - phi)
        side = "minus"
    else:
        sector = (sigma + phi, sigma + 0.5 * math.pi)
        side = "plus"
    return TiltedSideReport(True, "", dm, dp, side, sector)


# ----------------------------------------------------------------------
# logarithmic capacity


# Panels per polygon edge in Symm's equation, their ends graded toward both
# vertices, where the equilibrium density is singular: the fractions
# (1 + sign(u) (1 - (1 - |u|)^3)) / 2 of the edge for u equispaced in [-1, 1].
CAPACITY_PANELS = 32
_U = np.linspace(-1.0, 1.0, CAPACITY_PANELS + 1)
_PANEL_ENDS = 0.5 * (1.0 + np.sign(_U) * (1.0 - (1.0 - np.abs(_U)) ** 3))


def _segment_log_integrals(verts: np.ndarray, z: np.ndarray) -> np.ndarray:
    """int log|z_i - w| ds(w) over every panel of the polygon with vertex
    array verts, shape (len(z), panels). With z - v_e = (x + iy) e^{i theta_e}
    in the frame of edge e, of length l_e, the integral over its part
    [f l_e, g l_e] is F(x - f l_e) - F(x - g l_e), where
    F(s) = s log|s + iy| - s + |y| atan(s/|y|)."""
    edges = np.roll(verts, -1) - verts
    rel = (z[:, None] - verts) * np.conj(edges) / np.abs(edges)
    y = np.abs(rel.imag)[..., None]
    s = rel.real[..., None] - np.abs(edges)[:, None] * _PANEL_ENDS
    # s log|s + iy| is 0 at s = 0, also where y = 0 (z at a panel end)
    F = s * np.log(np.hypot(s, y), out=np.zeros_like(s), where=s != 0) \
        - s + y * np.arctan2(s, y)
    return (F[..., :-1] - F[..., 1:]).reshape(len(z), -1)


def _symm_solve(verts: np.ndarray):
    """Symm's equation on the polygon with vertex array verts, by one dense
    bordered solve: the panel starts a and ends b, the density sigma
    (constant per panel) and V with int log|z - w| sigma(w) ds(w) = V at
    every panel midpoint z and int sigma ds = 1."""
    ends = verts[:, None] + _PANEL_ENDS * (np.roll(verts, -1) - verts)[:, None]
    a, b = ends[:, :-1].ravel(), ends[:, 1:].ravel()
    m = len(a)
    system = np.zeros((m + 1, m + 1))
    system[:m, :m] = _segment_log_integrals(verts, 0.5 * (a + b))
    system[:m, m] = -1.0
    system[m, :m] = np.abs(b - a)
    sol = np.linalg.solve(system, np.append(np.zeros(m), 1.0))
    return a, b, sol[:m], float(sol[m])
