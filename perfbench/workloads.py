"""The four benchmark workloads.

Each workload builds, from the seed, the ops of its rotations (a rotation
is one pass over its mix of cells); the timed loop runs whole rotations.  An
op is a callable into oscillab's public API plus a check of its result.  Ops
call oscillab through module attributes (``polynomials.inverse_markov_factor``,
not a name imported here), so the wrappers that tracing installs are seen.

A cell listed in a workload's ``known_failures`` is a defect of oscillab at
the commit the benchmark was defined on.  Its failures are counted like any
other; they only do not make the run incorrect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from oscillab import audits, cli, covering, geometry, polynomials, sampling
from oscillab import search
from oscillab.errors import SingularPoint, ZeroChord

REFS = Path(__file__).resolve().parent / "refs_markov.json"
MARKOV_REL_TOL = 1e-6
Q = 2.0


class CheckFailed(Exception):
    """A result came back but is wrong."""


@dataclass
class Op:
    """One timed call.  `call` returns the result; `check` raises
    CheckFailed on a wrong result and returns a fingerprint that must not
    change between a traced and an untraced execution.  `out_dir` is
    emptied before each execution, so a rerun must write its files again."""

    cell: str
    call: Callable
    check: Callable
    out_dir: Path | None = None


@dataclass
class Workload:
    name: str
    limit_s: float
    min_rotations: int
    trace_rotations: int
    known_failures: dict
    rotations: list          # list of rotations, each a list of Op
    warmup: Op
    stats: dict = field(default_factory=dict)

    def rotation(self, i: int) -> list:
        return self.rotations[i % len(self.rotations)]


def _domain_rect3x1():
    return geometry.ConvexDomain.polygon([0j, 3 + 0j, 3 + 1j, 1j])


# ------------------------------------------------------------ audits

def _reports_check(reports):
    reports = reports if isinstance(reports, list) else [reports]
    bad = [r.audit_id for r in reports if r.applicable and not r.passed]
    if bad:
        raise CheckFailed(f"audit failed: {bad}")
    return tuple((r.audit_id, r.applicable, repr(r.margin))
                 for r in reports)


def _na_report(audit_id, reason):
    return audits.AuditReport(audit_id, 0.0, 0.0, applicable=False,
                              detail={"reason": reason})


def _audit_input(kind: str, seed: int, index: int):
    """Inputs drawn as audits.audit_trial draws them (q=2, random domain),
    returning the timed call."""
    rng = sampling.trial_rng(seed, index)
    Poly = polynomials.RootPolynomial
    # ops that consume randomness while they run get a fixed fresh stream
    op_rng = lambda: np.random.default_rng([seed, index, 1])

    if kind == "nikolskii":
        K = sampling.random_domain(rng)
        p = Poly(1.0, sampling.random_roots_loose(K, int(rng.integers(1, 30)),
                                                  rng))
        return lambda: audits.nikolskii_audit(p, K, Q)
    if kind == "hset":
        K = sampling.random_domain(rng)
        p = Poly(1.0, sampling.random_roots_loose(K, int(rng.integers(1, 25)),
                                                  rng))
        return lambda: audits.h_set(p, K, Q).mass_report()
    if kind == "hgap":
        K = sampling.random_domain(rng)
        p = Poly(1.0, sampling.random_roots_in(K, int(rng.integers(73, 120)),
                                               rng))

        def hgap():
            log_sup = polynomials.sup_norm(p, K).log_value
            z = audits._pick_h_point(p, K, Q, op_rng(), log_sup)
            return audits.h_point_log_gap(p, K, z, Q)
        return hgap
    if kind == "chebyshev":
        length = float(rng.uniform(0.2, 4.0))
        k = int(rng.integers(1, 7))
        return lambda: audits.chebyshev_floor_check(length, k, trials=3,
                                                    rng=op_rng())
    if kind == "transfinite":
        K = sampling.random_domain(rng)
        p = Poly(1.0, sampling.random_roots_in(K, int(rng.integers(1, 25)),
                                               rng))
        return lambda: audits.transfinite_floor_audit(p, K)
    if kind == "concentration":
        K = sampling.random_convex_polygon(rng,
                                           vertices=int(rng.integers(4, 9)))
        k_ratio = float(rng.uniform(16.0, 128.0))
        deg = int(rng.integers(8, 24))
        need = math.ceil(3 * math.log(2) / math.log(k_ratio) * deg)
        inside = min(deg, max(need, int(deg * 0.8)))
        center = complex(np.asarray(K.vertices).mean())
        K_prime = geometry.ConvexDomain.disk(center,
                                             K.diameter / (2.2 * k_ratio))
        roots = list(sampling.random_roots_in(K_prime, inside, rng))
        roots += list(sampling.random_roots_in(K, deg - inside, rng))
        p = Poly(1.0, roots)
        return lambda: audits.zero_concentration_audit(p, K, K_prime,
                                                       k_ratio)
    if kind == "tilted":
        K = sampling.random_domain(rng)
        p = Poly(1.0, sampling.random_roots_in(K, int(rng.integers(5, 60)),
                                               rng))
        bp = K.boundary_point(rng.uniform(0.0, K.perimeter))

        def tilted():
            try:
                return audits.tilted_normal_audit(p, bp, K)
            except SingularPoint:
                return _na_report("tilted", "singular point")
        return tilted
    if kind == "zclass":
        K = sampling.random_domain(rng)
        p = Poly(1.0, sampling.random_roots_in(K, int(rng.integers(5, 40)),
                                               rng))
        bp = K.boundary_point(rng.uniform(0.0, K.perimeter))

        def zclass():
            try:
                return audits.zero_class_product_audits(p, bp, K)
            except (SingularPoint, ZeroChord) as exc:
                return [_na_report("zclass", str(exc))]
        return zclass
    if kind == "twopoint":
        K = sampling.random_convex_polygon(rng,
                                           vertices=int(rng.integers(4, 8)))
        p = Poly(1.0, sampling.random_roots_in(K, int(rng.integers(5, 40)),
                                               rng))
        v = int(rng.integers(0, len(K.vertices)))
        sv = K.vertex_s(v)
        turn = K.boundary_point(sv).omega
        s0 = min(1.0, 2 * math.sin(math.pi - turn)) / 384.0 * K.diameter
        ds = float(rng.uniform(0.1, 0.45)) * s0
        b1 = K.boundary_point((sv - ds) % K.perimeter)
        b2 = K.boundary_point((sv + ds) % K.perimeter)

        def twopoint():
            try:
                return audits.two_point_audit(p, b1, b2, K, alpha=b1.alpha,
                                              alpha_prime=b2.alpha, q=Q)
            except SingularPoint:
                return _na_report("twopoint", "singular point")
        return twopoint
    if kind == "infnorm":
        K = sampling.random_domain(rng)
        p = Poly(1.0, sampling.random_roots_in(K, int(rng.integers(1, 50)),
                                               rng))
        return lambda: audits.infnorm_theorem_audit(p, K)
    if kind == "depth":
        if rng.uniform() < 0.5:
            K = geometry.ConvexDomain.unit_square()
        else:
            K = geometry.ConvexDomain.regular_polygon(6, circumradius=1.0)
        p = Poly(1.0, sampling.random_roots_in(K, int(rng.integers(1, 40)),
                                               rng))
        return lambda: audits.depth_theorem_audit(p, K, Q)
    raise ValueError(kind)


def audit_lowdeg(seed: int, short: bool, workdir: Path) -> Workload:
    """All eleven audit kinds interleaved, q=2, inputs as in audit_trial.

    A pool of 96 rotations (about 25 s of ops on 2 cores), cycled when the
    run is longer."""
    pool = 1 if short else 96
    rotations = []
    for r in range(pool):
        ops = []
        for kind in audits.AUDIT_IDS:
            index = r * len(audits.AUDIT_IDS) + len(ops)
            ops.append(Op(kind, _audit_input(kind, seed, index),
                          _reports_check))
        rotations.append(ops)
    warm = Op("warmup", _audit_input("transfinite", seed, 10 ** 6),
              _reports_check)
    return Workload("audit-lowdeg", limit_s=5.0, min_rotations=1,
                    trace_rotations=1 if short else 8, known_failures={},
                    rotations=rotations, warmup=warm)


# ------------------------------------------------------------ markov

def load_refs() -> dict:
    return json.loads(REFS.read_text(encoding="utf-8"))


def _markov_check(ref: float, stats: dict, cell: str):
    def check(mf):
        M = mf.M
        err = abs(M - ref) / ref if math.isfinite(M) else math.inf
        stats["rel_err"][cell] = err
        if not err <= MARKOV_REL_TOL:
            raise CheckFailed(f"M={M!r} vs reference {ref!r} "
                              f"(rel err {err:.3g})")
        return repr(M)
    return check


def markov_highdeg(seed: int, short: bool, workdir: Path) -> Workload:
    """inverse_markov_factor on fixed cells with committed mpmath
    references; the seed sets the order of the cells."""
    refs = load_refs()
    stats = {"rel_err": {}}
    ops = []
    for cell in refs["cells"]:
        if short and cell["n"] > 64:
            continue
        K = geometry.ConvexDomain.from_json(cell["domain"])
        roots = tuple(complex(x, y) for x, y in cell["roots"])
        if cell["family"] == "equispaced-boundary":
            p = search.reference_families(K, cell["n"])[1]
            gap = max(abs(a - b) for a, b in zip(p.roots, roots))
            if gap > 1e-15:
                raise RuntimeError(f"{cell['id']}: reference roots differ "
                                   f"from reference_families by {gap:.3g}")
        else:
            p = polynomials.RootPolynomial(1.0, roots)
        for qname, q in (("1", 1.0), ("2", 2.0), ("inf", math.inf)):
            name = f"{cell['id']}-q{qname}"
            ops.append(Op(
                name,
                (lambda p=p, K=K, q=q:
                 polynomials.inverse_markov_factor(p, K, q)),
                _markov_check(float(cell["M"][qname]), stats, name)))
    order = np.random.default_rng(seed).permutation(len(ops))
    ops = [ops[i] for i in order]
    warm = next(op for op in ops if op.cell == "disk-n64-q2")
    known = {f"square-equispaced-n64-q{q}":
             "expanded-coefficient route of logabs_derivative (n <= 64) "
             "loses accuracy with roots on the boundary"
             for q in ("1", "2", "inf")}
    return Workload("markov-highdeg", limit_s=20.0, min_rotations=1,
                    trace_rotations=1, known_failures=known,
                    rotations=[ops], warmup=warm, stats=stats)


# ------------------------------------------------------------ search

def search_pattern(seed: int, short: bool, workdir: Path) -> Workload:
    """minimize_oscillation on disk, square and rect3x1 with n in {16, 64},
    q=2 and a budget of 15 n evaluations; each n=16 cell runs 20 times
    per rotation with distinct seeds drawn from the run seed, and the seed
    also shuffles the rotation so the short ops spread over its length.
    Sixty n=16 ops put p95 inside their own tail rather than between two
    of its outliers."""
    rng = np.random.default_rng(seed)
    domains = (("disk", geometry.ConvexDomain.unit_disk()),
               ("square", geometry.ConvexDomain.unit_square()),
               ("rect3x1", _domain_rect3x1()))
    plan = [(16, 4)] if short else [(16, 20), (64, 1)]
    ops = []
    for n, repeats in plan:
        for _ in range(repeats):
            for dname, K in domains:
                cfg = search.SearchConfig(n=n, q=Q, budget=15 * n,
                                          seed=int(rng.integers(2 ** 31)))
                ops.append(Op(f"{dname}-n{n}",
                              lambda K=K, cfg=cfg:
                              search.minimize_oscillation(K, cfg),
                              _search_check(K, n)))
    warm = ops[0]
    ops = [ops[i] for i in rng.permutation(len(ops))]
    # disk and rect3x1 hang on nearly every search seed, the square on
    # about one in three
    known = {f"{d}-n64": "final inverse_markov_factor rescore does not "
             "converge on roots left on the boundary (expanded-coefficient "
             "route, n <= 64); the op hits the time limit"
             for d in ("disk", "square", "rect3x1")}
    return Workload("search-pattern", limit_s=7.0, min_rotations=1,
                    trace_rotations=1, known_failures=known,
                    rotations=[ops], warmup=warm)


def _search_check(K, n):
    floor = search.nlogn_floor(K, n)
    ceiling = (15.0 / K.diameter) * n

    def check(res):
        M = res.best_M
        if not (math.isfinite(M) and floor < M < ceiling):
            raise CheckFailed(f"best_M={M!r} outside ({floor:.3g}, "
                              f"{ceiling:.3g})")
        return repr(M)
    return check


# ------------------------------------------------------------ covering/CLI

def covering_cli(seed: int, short: bool, workdir: Path) -> Workload:
    """oscillab.cli.main commands in-process, plus case_split calls against
    a covering built in set-up."""
    rng = np.random.default_rng(seed)
    domains = {"square": geometry.ConvexDomain.unit_square(),
               "rect3x1": _domain_rect3x1(),
               "octagon": geometry.ConvexDomain.regular_polygon(8),
               "disk": geometry.ConvexDomain.unit_disk()}
    files = {}
    for name, K in domains.items():
        files[name] = workdir / f"{name}.json"
        files[name].write_text(json.dumps(K.to_json()), encoding="utf-8")
    radii = {name: float(rng.uniform(0.3, 0.9)) * K.width / 108.0
             for name, K in domains.items()}
    reference_bytes = {}
    stats = {"bytes_written": 0}
    ops = []

    def cli_op(cell, argv, expected, K=None, r=None):
        out = workdir / cell

        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(buf):
                code = cli.main(argv + ["--out", str(out)])
            return code, buf.getvalue()

        def check(result):
            code, text = result
            if code != expected:
                raise CheckFailed(f"exit {code}, expected {expected}")
            digest = hashlib.sha256(text.encode())
            written = 0
            if out.is_dir():
                for f in sorted(out.iterdir()):
                    data = f.read_bytes()
                    written += len(data)
                    digest.update(f.name.encode() + b"\0" + data)
                    if f.name == "covering.json":
                        _covering_bounds(json.loads(data), K, r)
            stats["bytes_written"] += written
            fp = (code, digest.hexdigest())
            first = reference_bytes.setdefault(cell, fp)
            if fp != first:
                raise CheckFailed("output differs from the first execution "
                                  "in this process")
            return fp

        return Op(cell, call, check, out_dir=out)

    for name in ([] if short else ["rect3x1", "octagon", "disk"]) + ["square"]:
        ops.append(cli_op(f"geometry-{name}",
                          ["geometry", "--domain", str(files[name])], 0))
    for name in ([] if short else ["rect3x1", "octagon", "disk"]) + ["square"]:
        ops.append(cli_op(f"covering-r-{name}",
                          ["covering", "--domain", str(files[name]),
                           "--r", repr(radii[name])], 0,
                          K=domains[name], r=radii[name]))
    if not short:
        ops.append(cli_op("covering-n1e4-square",
                          ["covering", "--domain", str(files["square"]),
                           "--n", "1e4"], 5))

    K = domains["square"]
    cov = covering.build_covering(K, radii["square"])
    for i in range(1 if short else 3):
        n = int(rng.integers(20, 81))
        p = polynomials.RootPolynomial(
            1.0, sampling.random_roots_in(K, n, rng))
        ops.append(Op(f"case_split-{i}",
                      lambda p=p: covering.case_split(p, K, Q, cov),
                      _case_split_check))
    order = rng.permutation(len(ops))
    ops = [ops[i] for i in order]
    warm = cli_op("geometry-disk", ["geometry", "--domain",
                                    str(files["disk"])], 0)
    return Workload("covering-cli", limit_s=20.0,
                    min_rotations=1 if short else 2, trace_rotations=1,
                    known_failures={}, rotations=[ops], warmup=warm,
                    stats=stats)


def _covering_bounds(record, K, r):
    if record["k0"] > 4:
        raise CheckFailed(f"k0={record['k0']} > 4")
    bound = 48.0 * r * K.diameter / K.width
    if record["total_measure"] > bound:
        raise CheckFailed(f"covered measure {record['total_measure']!r} "
                          f"> 48 r d/w = {bound!r}")


def _case_split_check(cs):
    if cs.case not in ("I", "II.1", "II.2"):
        raise CheckFailed(f"unknown case {cs.case!r}")
    return (cs.case,) + _reports_check(list(cs.reports))


def clear_outputs(op: Op) -> None:
    if op.out_dir is not None and op.out_dir.exists():
        shutil.rmtree(op.out_dir)


WORKLOADS = {
    "audit-lowdeg": audit_lowdeg,
    "markov-highdeg": markov_highdeg,
    "search-pattern": search_pattern,
    "covering-cli": covering_cli,
}
