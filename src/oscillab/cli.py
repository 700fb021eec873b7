"""Command-line surface: geometry reports, audit batches, oscillation
search, covering construction, and aggregate tables.

Every command writes its outputs plus a manifest.json; outputs embed the
manifest hash, and re-running the same manifest reproduces the files byte
for byte.  Exit codes: 0 success, 2 input error, 3 audit failure, 4 search
incomplete, 5 covering failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from pathlib import Path

from . import __version__
from .audits import AUDIT_IDS, run_batch
from .covering import build_covering, max_feasible_r, r_schedule
from .errors import (CoveringInvalid, FamilyTooLarge, NoCutPoint,
                     QuadratureLimit)
from .geometry import ConvexDomain
from .search import (
    SearchConfig,
    minimize_oscillation,
    nlogn_floor,
    upper_witness_check,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_AUDIT = 3
EXIT_SEARCH = 4
EXIT_COVERING = 5

_FORMAT_VERSION = "3"


def _parse_q(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity", "oo"):
        return math.inf
    q = float(text)
    if not q >= 1:
        raise argparse.ArgumentTypeError("q must be at least 1 (or inf)")
    return q


def _checked(convert, ok, what: str):
    """argparse type: convert the text, then require ok(value)."""
    def parse(text: str):
        x = convert(text)
        if not ok(x):
            raise argparse.ArgumentTypeError(f"must be {what}")
        return x
    parse.__name__ = convert.__name__
    return parse


_parse_finite = _checked(float, math.isfinite, "a finite number")


class _InputError(Exception):
    """Bad input found inside a command; main prints it and exits 2."""


def _load_domain(path: str, label: str = "invalid domain") -> ConvexDomain:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return ConvexDomain.from_json(fh.read())
    except (OSError, ValueError) as exc:
        raise _InputError(f"{label}: {exc}") from exc


def _read_json(path: Path, label: str):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise _InputError(f"{label}: {exc}") from exc


def _json_float(x) -> float | None:
    """A JSON number, or "inf", as a float; None for any other value and
    for an integer past the float range."""
    if x == "inf":
        return math.inf
    try:
        return float(x) if type(x) in (int, float) else None
    except OverflowError:
        return None


def _dumps(obj, **kwargs) -> str:
    """Strict JSON, keys sorted: +-inf as "inf"/"-inf" and NaN as null."""
    tree = json.loads(json.dumps(obj), parse_constant={
        "Infinity": "inf", "-Infinity": "-inf", "NaN": None}.get)
    return json.dumps(tree, allow_nan=False, sort_keys=True, **kwargs)


def _manifest(command: str, domain_file: str, params: dict,
              outputs: list) -> tuple:
    doc = {
        "command": command,
        "domain_file": domain_file,
        "params": params,
        "outputs": outputs,
        "versions": {"tool": __version__, "format": _FORMAT_VERSION},
    }
    blob = _dumps(doc, separators=(",", ":"))
    return doc, hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _write_json(path: Path, obj) -> None:
    path.write_text(_dumps(obj, indent=2) + "\n", encoding="utf-8")


def _write_jsonl(path: Path, records) -> None:
    lines = [_dumps(rec, separators=(",", ":")) for rec in records]
    path.write_text("\n".join(lines) + ("\n" if lines else ""),
                    encoding="utf-8")


def _write_csv(path: Path, header, rows, manifest_hash: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# manifest: {manifest_hash}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ------------------------------------------------------------- commands

def cmd_geometry(args) -> int:
    K = _load_domain(args.domain)
    cap, lo, hi = K.capacity()
    report = {
        "kind": K.kind,
        "diameter": K.diameter,
        "width": K.width,
        "perimeter": K.perimeter,
        "depth": K.depth(),
        "capacity": cap,
        "capacity_bracket": [lo, hi],
    }
    if K.kind == "polygon":
        report["vertex_turns"] = [K.vertex_point(i).omega
                                  for i in range(len(K.vertices))]
    else:
        report["vertex_turns"] = []
    print(f"domain: {K.kind}")
    print(f"diameter       {report['diameter']:.12g}")
    print(f"width          {report['width']:.12g}")
    print(f"perimeter      {report['perimeter']:.12g}")
    print(f"depth          {report['depth']:.12g}")
    print(f"capacity       {cap:.12g} in [{lo:.12g}, {hi:.12g}]")
    for i, om in enumerate(report["vertex_turns"]):
        print(f"vertex {i}: turn {om:.12g}")
    if args.out is not None:
        out = _out_dir(args)
        doc, h = _manifest("geometry", args.domain, {},
                           ["geometry.json"])
        report["manifest_hash"] = h
        _write_json(out / "geometry.json", report)
        _write_json(out / "manifest.json", doc)
    return EXIT_OK


def cmd_audit(args) -> int:
    K = _load_domain(args.domain) if args.domain else None
    params = {"q": args.q}
    if args.n is not None:
        params["n"] = args.n
    run_params = dict(params)
    if K is not None:
        run_params["domain"] = K
    try:
        reports = run_batch(args.audit_id, args.trials, args.seed,
                            run_params)
    except (ValueError, QuadratureLimit) as exc:
        raise _InputError(f"invalid audit input: {exc}") from exc

    n_pass = sum(1 for r in reports if r.applicable and r.passed)
    n_fail = sum(1 for r in reports if r.applicable and not r.passed)
    n_na = sum(1 for r in reports if not r.applicable)
    margins = [r.margin for r in reports
               if r.applicable and math.isfinite(r.margin)]
    worst = min(margins) if margins else math.nan
    print(f"audit {args.audit_id}: pass={n_pass} fail={n_fail} na={n_na} "
          f"worst_margin={worst:.6g}")

    if args.out is not None:
        out = _out_dir(args)
        man_params = {"audit_id": args.audit_id, "trials": args.trials,
                      "seed": args.seed, **params}
        doc, h = _manifest("audit", args.domain or "", man_params,
                           ["audit.jsonl", "audit_summary.json"])
        records = []
        for rep in reports:
            rec = rep.as_record()
            rec["manifest_hash"] = h
            records.append(rec)
        _write_jsonl(out / "audit.jsonl", records)
        _write_json(out / "audit_summary.json", {
            "audit_id": args.audit_id, "pass": n_pass, "fail": n_fail,
            "na": n_na,
            "worst_margin": worst,
            "manifest_hash": h,
        })
        _write_json(out / "manifest.json", doc)
    return EXIT_AUDIT if n_fail else EXIT_OK


def cmd_search(args) -> int:
    K = _load_domain(args.domain, "invalid search input")
    try:
        config = SearchConfig(n=args.n, q=args.q, budget=args.budget,
                              seed=args.seed, restarts=args.restarts,
                              init=args.init)
        result = minimize_oscillation(K, config)
    except (ValueError, QuadratureLimit) as exc:
        raise _InputError(f"invalid search input: {exc}") from exc

    ceiling = (15.0 / K.diameter) * args.n
    print(f"best_M = {result.best_M:.12g}")
    print(f"ceiling (15/d)n = {ceiling:.12g}  margin = "
          f"{ceiling - result.best_M:.12g}")
    if args.n >= 2:
        floor = nlogn_floor(K, args.n)
        print(f"floor n/log n = {floor:.12g}  margin = "
              f"{result.best_M - floor:.12g}")

    if args.out is not None:
        out = _out_dir(args)
        doc, h = _manifest("search", args.domain, config.as_record(),
                           ["search.json", "trace.csv"])
        record = result.as_record()
        record["manifest_hash"] = h
        _write_json(out / "search.json", record)
        _write_csv(out / "trace.csv", ["evaluation", "incumbent_M"],
                   [[i, repr(v)] for i, v in result.trace], h)
        _write_json(out / "manifest.json", doc)

    witness = upper_witness_check(K, args.n, args.q, result)
    if not witness.passed:
        print("SEARCH-INCOMPLETE: no polynomial below (15/d) n found",
              file=sys.stderr)
        return EXIT_SEARCH
    return EXIT_OK


_COVERING_ERRORS = (ValueError, NoCutPoint, FamilyTooLarge,
                    CoveringInvalid)


def cmd_covering(args) -> int:
    K = _load_domain(args.domain)
    if (args.r is None) == (args.n is None):
        raise _InputError("covering needs exactly one of --r or --n")
    if args.n is not None:
        try:
            r = r_schedule(args.n, K).r
        except ValueError as exc:
            raise _InputError(f"invalid degree: {exc}") from exc
        print(f"r(n={args.n}) = {r:.12g}")
    else:
        r = args.r

    try:
        cov = build_covering(K, r, theta=args.theta)
    except _COVERING_ERRORS as exc:
        print(f"covering failed: {exc}", file=sys.stderr)
        try:
            suggestion = max_feasible_r(K, theta=args.theta)
        except _COVERING_ERRORS as exc:
            print(f"no feasible r: {exc}", file=sys.stderr)
        else:
            print(f"suggested maximal r: {suggestion!r}", file=sys.stderr)
        return EXIT_COVERING

    d, w = K.diameter, K.width
    bound = 48.0 * r * d / w
    print(f"k0 = {cov.k0}")
    print(f"|L| = {cov.total_measure:.12g}  bound 48rd/w = {bound:.12g}  "
          f"margin = {bound - cov.total_measure:.12g}")
    for i, comp in enumerate(cov.components):
        print(f"component {i}: start {comp.arc.start_s % cov.perimeter:.9g} "
              f"length {comp.arc.length:.9g}")
    print(f"cut point = {cov.cut_point:.12g}")

    if args.out is not None:
        out = _out_dir(args)
        man_params = {"r": r, "theta": args.theta, "n": args.n}
        doc, h = _manifest("covering", args.domain, man_params,
                           ["covering.json"])
        record = cov.as_record()
        record["manifest_hash"] = h
        _write_json(out / "covering.json", record)
        _write_json(out / "manifest.json", doc)
    return EXIT_OK


def cmd_table(args) -> int:
    if not args.manifests:
        raise _InputError("no manifests given")
    rows = []
    for man_path in args.manifests:
        path = Path(man_path)
        if not path.is_file():
            raise _InputError(f"missing manifest: {man_path}")
        doc = _read_json(path, f"invalid manifest {man_path}")
        if not isinstance(doc, dict) or doc.get("command") != "search":
            raise _InputError(f"not a search manifest: {man_path}")
        result_path = path.parent / "search.json"
        if not result_path.is_file():
            raise _InputError(
                f"missing search output next to manifest: {man_path}")
        record = _read_json(result_path,
                            f"invalid search output next to {man_path}")
        try:
            dom_file, n, q = (doc["domain_file"], doc["params"]["n"],
                              doc["params"]["q"])
            best = record["best_M"]
        except (KeyError, TypeError) as exc:
            raise _InputError(f"invalid search manifest {man_path}: "
                              f"bad or missing field ({exc!r})") from exc
        q_f, best_f = _json_float(q), _json_float(best)
        if not (type(dom_file) is str and type(n) is int and n >= 1
                and _json_float(n) is not None
                and q_f is not None and q_f >= 1 and best_f is not None):
            raise _InputError(f"invalid search manifest {man_path}: need a "
                              f"domain_file path, an integer n >= 1, a number "
                              f"q >= 1 and a number best_M, got "
                              f"domain_file={dom_file!r}, n={n!r}, q={q!r}, "
                              f"best_M={best!r}")
        q, best = q_f, best_f
        K = _load_domain(dom_file, f"invalid domain in manifest {man_path}")
        d, w = K.diameter, K.width
        rows.append((
            dom_file, n, q, best,
            n / 2.0 if K.kind == "disk" else "",
            (15.0 / d) * n,
            1e-3 * (w / (d * d)) * n,
            nlogn_floor(K, n) if n >= 2 else "",
        ))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))

    # soft monotonicity check in n per (domain, q)
    by_kq = {}
    for row in rows:
        by_kq.setdefault((row[0], row[2]), []).append((row[1], row[3]))
    for (dom, q), pairs in sorted(by_kq.items()):
        pairs.sort()
        for (n1, m1), (n2, m2) in zip(pairs, pairs[1:]):
            if m2 < m1 - 1e-12:
                print(f"warning: best_M not monotone on {dom} q={q}: "
                      f"M({n2})={m2:.6g} < M({n1})={m1:.6g}")

    header = ["domain", "n", "q", "best_M", "disk_half_n", "ceiling_15_d_n",
              "infnorm_floor", "nlogn_floor"]
    out = _out_dir(args)
    doc, h = _manifest("table", "", {"manifests": list(args.manifests)},
                       ["table.csv"])
    _write_csv(out / "table.csv", header,
               [[r[0], r[1], r[2], repr(r[3]), r[4],
                 repr(r[5]), repr(r[6]),
                 repr(r[7]) if r[7] != "" else ""] for r in rows], h)
    _write_json(out / "manifest.json", doc)
    print(f"wrote {out / 'table.csv'} ({len(rows)} rows)")
    return EXIT_OK


# --------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscillab",
        description="Inverse Markov factor laboratory on convex domains")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("geometry", help="domain geometry report")
    g.add_argument("--domain", required=True)
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_geometry)

    a = sub.add_parser("audit", help="run an audit batch")
    a.add_argument("audit_id", choices=AUDIT_IDS)
    a.add_argument("--domain", default=None)
    a.add_argument("--trials", default=100,
                   type=_checked(int, lambda n: n >= 0, "at least 0"))
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--q", type=_parse_q, default=2.0)
    a.add_argument("--n", default=None,
                   type=_checked(int, lambda n: n >= 1, "at least 1"))
    a.add_argument("--out", default=None)
    a.set_defaults(func=cmd_audit)

    s = sub.add_parser("search", help="minimize the oscillation factor")
    s.add_argument("--domain", required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--q", type=_parse_q, default=2.0)
    s.add_argument("--budget", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--restarts", type=int, default=4)
    s.add_argument("--init", default="boundary-uniform",
                   choices=("boundary-uniform", "interior-uniform",
                            "corner-clustered"))
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_search)

    c = sub.add_parser("covering", help="build the boundary covering")
    c.add_argument("--domain", required=True)
    c.add_argument("--r", default=None, type=_checked(
        float, lambda x: 0 < x < math.inf, "a positive finite number"))
    c.add_argument("--n", type=_parse_finite, default=None)
    c.add_argument("--theta", default=None, type=_checked(
        float, lambda x: 0 < x < math.pi / 20, "in (0, pi/20)"))
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_covering)

    t = sub.add_parser("table", help="aggregate search results to CSV")
    t.add_argument("manifests", nargs="*")
    t.add_argument("--out", default="oscillab-out")
    t.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print(exc, file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
