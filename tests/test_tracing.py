"""The span tracer in perfbench/tracing.py wraps `_adaptive_log_integral`
by name and reads its panel count from element 1 of the result; these
checks hold the library to that contract.  The tracer file is imported
read-only."""

import importlib.util
from pathlib import Path

import oscillab.cli  # noqa: F401  the tracer wraps every oscillab module
from oscillab import audits, polynomials
from oscillab.geometry import ConvexDomain
from oscillab.polynomials import RootPolynomial

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_quadrature_spans_carry_panels():
    tracing = _tracing_module()
    K = ConvexDomain.unit_square()
    p = RootPolynomial(1.0, [0.5 + 0.5j, 0.9 + 0.1j, 0.2 + 0.7j])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        norm = polynomials.lq_norm(p, K, 2.0)
        audits.h_set(p, K, 2.0)
    finally:
        tracer.uninstall()
    spans = [rec for rec in tracer.spans
             if rec[tracing.NAME] == "_adaptive_log_integral"]
    assert len(spans) == 2
    panels = [rec[tracing.ATTRS]["panels"] for rec in spans]
    assert panels[0] == norm.panels
    assert all(count > 0 for count in panels)
    metrics = tracing.layer_metrics(tracer.spans, timeouts=0)
    assert metrics["polynomials.panels"] == sum(panels)
    # uninstall puts the originals back
    assert polynomials._adaptive_log_integral.__module__ == \
        "oscillab.polynomials"
    assert not hasattr(polynomials._adaptive_log_integral, "__wrapped__")


def test_markov_factor_traces_one_quadrature_span():
    tracing = _tracing_module()
    K = ConvexDomain.unit_square()
    p = RootPolynomial(1.0, [0.5 + 0.5j, 0.9 + 0.1j, 0.2 + 0.7j])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        polynomials.inverse_markov_factor(p, K, 2.0)
    finally:
        tracer.uninstall()
    spans = [rec for rec in tracer.spans
             if rec[tracing.NAME] == "_adaptive_log_integral"]
    assert len(spans) == 1
    # p and p' share one panel tree
    _, joint = polynomials._adaptive_log_integral(
        K, lambda z: polynomials.logabs_derivative(p, z, with_log_abs=True),
        2.0, polynomials._boundary_pieces(K))
    assert spans[0][tracing.ATTRS]["panels"] == joint
