"""Span tracing of oscillab's modules, installed from outside the package.

`Tracer.install()` wraps the public functions and methods of every
oscillab module, plus the two private helpers other modules import
(`_adaptive_log_integral`, `_golden_max`), and rebinds each wrapper in every
oscillab module namespace that holds the original, so calls made through a
name bound by `from .polynomials import log_abs` are traced too.
`uninstall()` puts the originals back.

A span records its name, layer (the module that defines the function),
start, end, parent span and op id, and a few counts taken from arguments
and return values.  Spans stay in memory; `write_jsonl` dumps them once the
run is over.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("polynomials", "geometry", "audits", "covering", "search", "cli",
          "sampling")
PRIVATE_HELPERS = (("polynomials", "_adaptive_log_integral"),
                   ("polynomials", "_golden_max"))
KERNELS = ("log_abs", "logabs_derivative", "log_derivative", "log_evaluate")
QUADRATURE = ("lq_norm", "_adaptive_log_integral")
MAXIMIZERS = ("sup_norm", "_golden_max")

# span record fields
NAME, LAYER, START, END, PARENT, OP, ERROR, ATTRS = range(8)


def _observe(name, args, out, attrs):
    """Counts taken at the span boundary from arguments and results."""
    if name in KERNELS and len(args) >= 2:
        points = int(np.size(args[1]))
        attrs["points"] = points
        attrs["pairs"] = args[0].n * points
    elif name == "_adaptive_log_integral":
        attrs["panels"] = int(out[1])
    elif name == "ConvexDomain.gamma" and len(args) >= 2:
        attrs["points"] = int(np.size(args[1]))
    elif name == "minimize_oscillation":
        attrs["evaluations"] = int(out.evaluations)
    elif name == "build_covering":
        attrs["checked_points"] = int(out.checked_points)
    elif name == "case_split":
        attrs["reports"] = list(out.reports)
    elif type(out).__name__ == "AuditReport":
        attrs["reports"] = [out]
    elif (isinstance(out, list) and out
          and type(out[0]).__name__ == "AuditReport"):
        attrs["reports"] = list(out)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op_id = -1
        self._patched = []

    # -------------------------------------------------------- spans

    def begin_op(self, op_id: int, cell: str) -> list:
        self.op_id = op_id
        self.stack = []
        rec = [f"op:{cell}", "bench", time.perf_counter(), 0.0, -1, op_id,
               None, None]
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        return rec

    def end_op(self, rec: list, error: str | None = None) -> None:
        now = time.perf_counter()
        rec[END] = now
        rec[ERROR] = error
        # spans cut short by a timeout end with the op
        for idx in self.stack:
            if self.spans[idx][END] == 0.0:
                self.spans[idx][END] = now
        self.stack = []

    def _wrap(self, layer: str, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, layer, 0.0, 0.0,
                   tracer.stack[-1] if tracer.stack else -1,
                   tracer.op_id, None, None]
            tracer.spans.append(rec)
            tracer.stack.append(len(tracer.spans) - 1)
            rec[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = time.perf_counter()
                if tracer.stack:
                    tracer.stack.pop()
            attrs = {}
            _observe(name, args, out, attrs)
            if attrs:
                rec[ATTRS] = attrs
            return out

        return traced

    # ---------------------------------------------------- patching

    def install(self) -> None:
        mods = {layer: sys.modules[f"oscillab.{layer}"] for layer in LAYERS}
        originals = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    originals[id(obj)] = (obj, self._wrap(layer, attr, obj))
                elif (inspect.isclass(obj)
                      and obj.__module__ == mod.__name__
                      and not issubclass(obj, BaseException)):
                    self._patch_class(layer, obj)
        for layer, attr in PRIVATE_HELPERS:
            obj = getattr(mods[layer], attr)
            originals[id(obj)] = (obj, self._wrap(layer, attr, obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "oscillab" and not mod_name.startswith("oscillab."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))

    def _patch_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(layer, name, raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(layer, name, raw)
            else:
                continue
            setattr(cls, attr, wrapped)
            self._patched.append((cls, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    # ---------------------------------------------------- output

    def write_jsonl(self, path) -> None:
        keys = ("name", "layer", "start", "end", "parent", "op", "error")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                doc = dict(zip(keys, rec[:ATTRS]))
                if rec[ATTRS]:
                    doc.update({k: v for k, v in rec[ATTRS].items()
                                if k != "reports"})
                    if "reports" in rec[ATTRS]:
                        doc["reports"] = len(rec[ATTRS]["reports"])
                fh.write(json.dumps(doc, separators=(",", ":")) + "\n")


def self_times(spans) -> list:
    """Per span: its duration minus the time its direct children cover
    (children of one span never overlap in a single thread)."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    return [max(0.0, rec[END] - rec[START] - c)
            for rec, c in zip(spans, child)]


def layer_metrics(spans, timeouts: int) -> dict:
    """Per-layer counts and self times of one traced pass."""
    own = self_times(spans)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    m = defaultdict(float)
    reports = failed = na = 0
    builds = builds_ok = 0
    for i, rec in enumerate(spans):
        name, layer, attrs = rec[NAME], rec[LAYER], rec[ATTRS] or {}
        self_s[layer] += own[i]
        calls[name] += 1
        if name in KERNELS:
            m["kernel_self_s"] += own[i]
            m["kernel_pairs"] += attrs.get("pairs", 0)
            m["kernel_points"] += attrs.get("points", 0)
        elif name in QUADRATURE:
            m["quad_self_s"] += own[i]
        elif name in MAXIMIZERS:
            m["max_self_s"] += own[i]
        elif name == "chord":
            m["chord_self_s"] += own[i]
        elif name in ("h_set", "HSet.mass_report"):
            m["h_set_self_s"] += own[i]
        elif name == "build_covering":
            parent = rec[PARENT]
            if parent >= 0 and spans[parent][NAME] == "max_feasible_r":
                builds += 1
                builds_ok += rec[ERROR] is None
        elif name == "inverse_markov_factor":
            parent = rec[PARENT]
            if parent >= 0 and spans[parent][NAME] == "minimize_oscillation":
                m["rescore_s"] += rec[END] - rec[START]
        m["panels"] += attrs.get("panels", 0)
        m["evaluations"] += attrs.get("evaluations", 0)
        m["checked_points"] += attrs.get("checked_points", 0)
        m["gamma_points"] += (attrs.get("points", 0)
                              if name == "ConvexDomain.gamma" else 0)
        parent = rec[PARENT]
        outer = parent < 0 or spans[parent][LAYER] not in ("audits",
                                                            "covering")
        if "reports" in attrs and outer:
            for rep in attrs["reports"]:
                reports += 1
                na += not rep.applicable
                failed += rep.applicable and not rep.passed
    kernel_calls = sum(calls[k] for k in KERNELS)
    return {
        "polynomials.kernel_calls": kernel_calls,
        "polynomials.kernel_pairs": m["kernel_pairs"],
        "polynomials.kernel_bytes": 16 * m["kernel_pairs"],
        "polynomials.kernel_points_per_call":
            m["kernel_points"] / kernel_calls if kernel_calls else 0.0,
        "polynomials.kernel_self_s": m["kernel_self_s"],
        "polynomials.kernel_pairs_per_s":
            (m["kernel_pairs"] / m["kernel_self_s"]
             if m["kernel_self_s"] > 0 else 0.0),
        "polynomials.quad_self_s": m["quad_self_s"],
        "polynomials.panels": m["panels"],
        "polynomials.max_self_s": m["max_self_s"],
        "polynomials.markov_calls": calls["inverse_markov_factor"],
        "polynomials.self_s": self_s["polynomials"],
        "geometry.chord_calls": calls["chord"],
        "geometry.chord_self_s": m["chord_self_s"],
        "geometry.boundary_point_calls": calls["ConvexDomain.boundary_point"],
        "geometry.gamma_points": m["gamma_points"],
        "geometry.self_s": self_s["geometry"],
        "audits.self_s": self_s["audits"],
        "audits.h_set_self_s": m["h_set_self_s"],
        "audits.reports": reports,
        "audits.failed": failed,
        "audits.na_frac": na / reports if reports else 0.0,
        "covering.good_point_tests": calls["good_point_test"],
        "covering.checked_points": m["checked_points"],
        "covering.self_s": self_s["covering"],
        "covering.bisection_builds": builds,
        "covering.bisection_ok_frac": builds_ok / builds if builds else 0.0,
        "search.evaluations": m["evaluations"],
        "search.self_s": self_s["search"],
        "search.rescore_s": m["rescore_s"],
        "search.timeouts": timeouts,
        "cli.commands": calls["main"],
        "cli.self_s": self_s["cli"],
        "sampling.self_s": self_s["sampling"],
        "trace.spans": len(spans),
        "bench.self_s": self_s["bench"],
    }
