"""Command-line interface: subcommands, exit codes, and reproducibility."""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from oscillab import cli, covering, search
from oscillab.audits import AuditReport
from oscillab.errors import CoveringInvalid
from oscillab.geometry import ConvexDomain


@pytest.fixture
def domains(tmp_path):
    paths = {}
    for name, K in (
        ("disk", ConvexDomain.unit_disk()),
        ("square", ConvexDomain.unit_square()),
        ("triangle", ConvexDomain.regular_polygon(3, circumradius=1.0)),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(K.to_json()))
        paths[name] = str(path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "kind": "polygon",
        "vertices": [[0, 0], [1, 0], [1, 1], [2, 2], [0, 1]],
    }))
    paths["bad"] = str(bad)
    return paths


def _strict_json(text):
    """json.loads that refuses the non-standard NaN and Infinity tokens."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def test_geometry_square(domains, tmp_path, capsys):
    out = tmp_path / "geo"
    code = cli.main(["geometry", "--domain", domains["square"],
                     "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "diameter" in text and "1.41421356237" in text
    assert "capacity       0.5901" in text
    report = _strict_json((out / "geometry.json").read_text())
    assert report["width"] == pytest.approx(1.0)
    assert report["depth"] == pytest.approx(1.0)
    assert report["vertex_turns"] == pytest.approx([math.pi / 2] * 4)
    exact = math.gamma(0.25) ** 2 / (4 * math.pi ** 1.5)
    lo, hi = report["capacity_bracket"]
    assert lo <= report["capacity"] <= hi and lo <= exact <= hi
    assert report["capacity"] == pytest.approx(exact, rel=1e-4)
    assert "transfinite_bracket" not in report
    assert report["manifest_hash"]
    man = _strict_json((out / "manifest.json").read_text())
    assert man["command"] == "geometry"
    assert man["params"] == {} and man["versions"]["format"] == "3"
    again = tmp_path / "geo2"
    assert cli.main(["geometry", "--domain", domains["square"],
                     "--out", str(again)]) == 0
    for name in ("geometry.json", "manifest.json"):
        assert (out / name).read_bytes() == (again / name).read_bytes()


def test_geometry_disk_values(domains, tmp_path):
    out = tmp_path / "geod"
    assert cli.main(["geometry", "--domain", domains["disk"],
                     "--out", str(out)]) == 0
    report = json.loads((out / "geometry.json").read_text())
    assert report["diameter"] == pytest.approx(2.0)
    assert report["width"] == pytest.approx(2.0)
    assert report["depth"] == pytest.approx(2.0)
    assert report["capacity"] == 1.0
    assert report["capacity_bracket"] == [1.0, 1.0]
    assert report["vertex_turns"] == []


def test_geometry_invalid_domain_names_vertex(domains, capsys):
    code = cli.main(["geometry", "--domain", domains["bad"]])
    assert code == 2
    err = capsys.readouterr().err
    assert "vertex" in err


@pytest.mark.parametrize("doc", [
    {"kind": "polygon", "vertices": [[0, 0], [1, 0], [math.nan, 1]]},
    {"kind": "disk", "center": [0, 0], "radius": math.inf},
], ids=["nan-vertex", "inf-radius"])
def test_geometry_non_finite_domain_exits_two(doc, tmp_path, capsys):
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["geometry", "--domain", str(path)]) == 2
    assert "finite" in capsys.readouterr().err


_HUGE_SQUARE = {"kind": "polygon", "vertices": [[0, 0], [1e155, 0],
                                                [1e155, 1e155], [0, 1e155]]}


def test_geometry_overflowing_domain_exits_two(tmp_path, capsys):
    # the square of side 1e155: its diameter squared overflows, which once
    # gave capacity nan and exit 0
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_HUGE_SQUARE))
    assert cli.main(["geometry", "--domain", str(path)]) == 2
    assert "too large" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    '{"kind": "disk", "center": [0, 0], "radius": null}',
    '{"kind": "polygon", "vertices": 5}',
    '[1, 2]',
    '"x"',
    '{"kind": "disk", "center": 5, "radius": 1}',
    '{"kind": "polygon", "vertices": [["a", 1], [1, 0], [1, 1]]}',
    '{"kind": "disk", "center": [true, false], "radius": 2}',
    '{"kind": "disk", "center": [0, 0], "radius": "2"}',
    '{"kind": "polygon", "vertices": [[true, 0], [1, 0], [0, 1]]}',
    '{"kind": "disk", "center": [0, 0], "radius": 1%s}' % ("0" * 400),
    '{"kind": "polygon"}',
], ids=["null-radius", "int-vertices", "array", "string", "int-center",
        "string-coordinate", "bool-center", "string-radius", "bool-vertex",
        "huge-int-radius", "no-vertices"])
def test_geometry_malformed_domain_exits_two(text, tmp_path, capsys):
    path = tmp_path / "malformed.json"
    path.write_text(text)
    assert cli.main(["geometry", "--domain", str(path)]) == 2
    err = capsys.readouterr().err
    assert "invalid domain" in err and "Traceback" not in err


_JUNK = st.one_of(st.booleans(), st.none(), st.text(max_size=3),
                 st.sampled_from([10 ** 400, -10 ** 400]))
_NUMBER = st.one_of(st.integers(-3, 3), st.floats(), _JUNK)
_POINT = st.one_of(st.lists(_NUMBER, min_size=2, max_size=2),
                   st.lists(st.lists(_NUMBER, max_size=2), max_size=3), _JUNK)
_COORD = st.one_of(st.integers(-3, 3), st.floats())
_DOMAIN_DOCS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("polygon"), "vertices": st.lists(
        st.lists(_COORD, min_size=2, max_size=2), min_size=3, max_size=5)}),
    st.fixed_dictionaries({"kind": st.just("disk"), "radius": _COORD,
                           "center": st.lists(_COORD, min_size=2,
                                              max_size=2)}),
    st.fixed_dictionaries({}, optional={
        "kind": st.one_of(st.sampled_from(["polygon", "disk"]), _JUNK),
        "vertices": st.one_of(st.lists(_POINT, max_size=6), _JUNK),
        "center": _POINT,
        "radius": _NUMBER,
    }),
    st.lists(_NUMBER, max_size=2), _JUNK)


@given(doc=_DOMAIN_DOCS)
@example(doc=_HUGE_SQUARE)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_geometry_fuzzed_domain_exits_zero_or_two(doc, tmp_path):
    text = json.dumps(doc)
    try:
        K = ConvexDomain.from_json(text)
    except ValueError:
        K = None
    # a fresh directory per example: overwriting files can be slow
    run = Path(tempfile.mkdtemp(dir=tmp_path))
    (run / "domain.json").write_text(text)
    code = cli.main(["geometry", "--domain", str(run / "domain.json"),
                     "--out", str(run / "geo")])
    assert code == (2 if K is None else 0)
    if code == 0:
        _strict_json((run / "geo" / "geometry.json").read_text())


def test_audit_batch_runs_clean(domains, tmp_path, capsys):
    out = tmp_path / "aud"
    code = cli.main(["audit", "tilted", "--domain", domains["disk"],
                     "--trials", "15", "--seed", "3", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "fail=0" in text
    lines = (out / "audit.jsonl").read_text().splitlines()
    assert len(lines) == 15
    first = json.loads(lines[0])
    assert first["audit_id"] == "tilted"
    assert "manifest_hash" in first
    summary = json.loads((out / "audit_summary.json").read_text())
    assert summary["pass"] == 15 and summary["fail"] == 0


def test_audit_all_na_exits_zero(domains, capsys):
    # zero-depth domain: every depth audit reports not-applicable
    code = cli.main(["audit", "depth", "--domain", domains["triangle"],
                     "--trials", "8", "--seed", "1"])
    assert code == 0
    assert "na=8" in capsys.readouterr().out


def test_audit_failure_exit_code(domains, monkeypatch):
    fake = [AuditReport("tilted", 0.0, 1.0)]

    monkeypatch.setattr(cli, "run_batch",
                        lambda *a, **k: fake)
    code = cli.main(["audit", "tilted", "--domain", domains["disk"],
                     "--trials", "1"])
    assert code == 3


@pytest.mark.parametrize("argv", [
    ["--n", "3"], ["--domain", "square"],
], ids=["n", "domain"])
def test_audit_chebyshev_rejects_n_and_domain(domains, tmp_path, capsys,
                                              argv):
    # chebyshev draws its own segment and degree, so both options are input
    # errors and nothing is written
    argv = [domains.get(a, a) for a in argv]
    out = tmp_path / "cheb"
    code = cli.main(["audit", "chebyshev", "--trials", "0", *argv,
                     "--out", str(out)])
    assert code == 2
    assert "chebyshev" in capsys.readouterr().err
    assert not out.exists()


def test_audit_unknown_id_rejected(domains):
    with pytest.raises(SystemExit) as exc:
        cli.main(["audit", "nonsense", "--domain", domains["disk"]])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["--n", "0"], ["--n", "-3"], ["--trials", "-1"],
], ids=["n-zero", "n-negative", "trials-negative"])
def test_audit_out_of_range_option_exits_two(domains, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(["audit", "tilted", "--domain", domains["disk"], *argv])
    assert exc.value.code == 2


def test_search_disk(domains, tmp_path, capsys):
    out = tmp_path / "sr"
    code = cli.main(["search", "--domain", domains["disk"], "--n", "5",
                     "--q", "2", "--budget", "1500", "--seed", "11",
                     "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "best_M" in text
    record = json.loads((out / "search.json").read_text())
    assert 2.5 <= record["best_M"] <= 5.0
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0].startswith("# manifest: ")
    assert trace[1] == "evaluation,incumbent_M"
    assert len(trace) >= 3


def test_search_nan_q_rejected(domains):
    with pytest.raises(SystemExit) as exc:
        cli.main(["search", "--domain", domains["disk"], "--n", "5",
                  "--q", "nan"])
    assert exc.value.code == 2


def test_search_budget_too_small(domains, capsys):
    code = cli.main(["search", "--domain", domains["disk"], "--n", "5",
                     "--budget", "10"])
    assert code == 2
    assert "budget" in capsys.readouterr().err


def test_search_negative_seed_exits_two(domains, capsys):
    # numpy's rng once rejected it only at the first restart, after the
    # search quadrature was built
    code = cli.main(["search", "--domain", domains["disk"], "--n", "5",
                     "--budget", "100", "--seed", "-1"])
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_search_incomplete_exit_code(domains, monkeypatch):
    real = cli.upper_witness_check

    def failing(K, n, q, result):
        rep = real(K, n, q, result)
        return AuditReport(rep.audit_id, 0.0, 1.0,
                           detail={"status": "SEARCH-INCOMPLETE"})

    monkeypatch.setattr(cli, "upper_witness_check", failing)
    code = cli.main(["search", "--domain", domains["disk"], "--n", "3",
                     "--budget", "200", "--seed", "1"])
    assert code == 4


def test_search_inf_q(domains, tmp_path):
    out = tmp_path / "srq"
    code = cli.main(["search", "--domain", domains["disk"], "--n", "3",
                     "--q", "inf", "--budget", "300", "--seed", "2",
                     "--out", str(out)])
    assert code == 0
    record = _strict_json((out / "search.json").read_text())
    assert record["config"]["q"] == "inf"
    man = _strict_json((out / "manifest.json").read_text())
    assert man["params"]["q"] == "inf"
    tab = tmp_path / "tab"
    assert cli.main(["table", str(out / "manifest.json"),
                     "--out", str(tab)]) == 0
    row = (tab / "table.csv").read_text().splitlines()[2].split(",")
    assert row[2] == "inf"


def test_covering_square(domains, tmp_path, capsys):
    out = tmp_path / "cov"
    code = cli.main(["covering", "--domain", domains["square"],
                     "--r", "0.008", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "k0 = 4" in text
    record = json.loads((out / "covering.json").read_text())
    assert record["k0"] == 4
    assert len(record["components"]) == 4


def test_covering_r_too_large_suggests(domains, capsys):
    code = cli.main(["covering", "--domain", domains["square"],
                     "--r", "0.1"])
    assert code == 5
    err = capsys.readouterr().err
    assert "suggested maximal r" in err


def test_covering_suggestion_builds(tmp_path, capsys):
    # the suggested r, fed back as --r, builds the covering
    for name, K in (("square", ConvexDomain.unit_square()),
                    ("rect3x1", ConvexDomain.polygon([0j, 3 + 0j, 3 + 1j,
                                                       1j])),
                    ("octagon", ConvexDomain.regular_polygon(8)),
                    ("disk", ConvexDomain.unit_disk())):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(K.to_json()))
        assert cli.main(["covering", "--domain", str(path), "--r",
                         "1"]) == 5
        err = capsys.readouterr().err
        r = err.split("suggested maximal r: ")[1].strip()
        assert cli.main(["covering", "--domain", str(path), "--r", r]) == 0


def test_covering_failed_suggestion_exits_five(domains, monkeypatch,
                                               capsys):
    def broken(*args, **kwargs):
        raise CoveringInvalid("boundary point neither good nor covered")
    monkeypatch.setattr(covering, "build_covering", broken)
    code = cli.main(["covering", "--domain", domains["square"],
                     "--r", "0.1"])
    assert code == 5
    err = capsys.readouterr().err
    assert "too large for the covering" in err
    assert "neither good nor covered" in err
    assert "Traceback" not in err


def test_covering_schedule_degree_exits_five(domains, capsys):
    # r(n) at desk degrees exceeds the covering precondition
    code = cli.main(["covering", "--domain", domains["square"],
                     "--n", "100"])
    assert code == 5


@pytest.mark.parametrize("argv", [
    ["--r", "nan"], ["--n", "nan"], ["--r", "0.008", "--theta", "nan"],
    ["--r", "inf"], ["--n", "-inf"], ["--r", "0"], ["--r", "-0.001"],
], ids=["r-nan", "n-nan", "theta-nan", "r-inf", "n-neg-inf", "r-zero",
        "r-negative"])
def test_covering_non_finite_option_exits_two(domains, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(["covering", "--domain", domains["square"], *argv])
    assert exc.value.code == 2


@pytest.mark.parametrize("theta", ["0", "-1", "0.16", "10"])
def test_covering_tilt_outside_wedge_range_exits_two(domains, theta):
    # the four-arc bound needs pi/2 - 2 theta > 2 pi/5: 0 < theta < pi/20
    with pytest.raises(SystemExit) as exc:
        cli.main(["covering", "--domain", domains["square"],
                  "--r", "0.001", "--theta", theta])
    assert exc.value.code == 2


def test_covering_small_tilt_runs(domains, tmp_path):
    assert cli.main(["covering", "--domain", domains["square"], "--r",
                     "0.001", "--theta", "0.01",
                     "--out", str(tmp_path)]) == 0


def test_audit_constants_at_huge_and_infinite_q(tmp_path):
    # the floors' constants are taken in log form, finite at q = 1e308
    # and at their limits at q = inf; the H set integrates |p|^q and
    # rejects q = inf
    out = str(tmp_path)
    assert cli.main(["audit", "nikolskii", "--q", "inf", "--trials", "3",
                     "--out", out]) == 0
    assert cli.main(["audit", "hgap", "--q", "1e308", "--trials", "1",
                     "--out", out]) != 2
    assert cli.main(["audit", "hset", "--q", "inf", "--trials", "1",
                     "--out", out]) == 2


def test_covering_invalid_exits_five(domains, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise CoveringInvalid("boundary point neither good nor covered")
    monkeypatch.setattr(cli, "build_covering", broken)
    monkeypatch.setattr(cli, "max_feasible_r", lambda K, theta=None: 0.0)
    code = cli.main(["covering", "--domain", domains["square"],
                     "--r", "0.008"])
    assert code == 5
    assert "neither good nor covered" in capsys.readouterr().err


def test_covering_needs_exactly_one_knob(domains):
    assert cli.main(["covering", "--domain", domains["square"]]) == 2
    assert cli.main(["covering", "--domain", domains["square"],
                     "--r", "0.01", "--n", "50"]) == 2


def test_table_roundtrip(domains, tmp_path):
    out1 = tmp_path / "s1"
    assert cli.main(["search", "--domain", domains["disk"], "--n", "4",
                     "--q", "2", "--budget", "600", "--seed", "5",
                     "--out", str(out1)]) == 0
    tab = tmp_path / "tab"
    code = cli.main(["table", str(out1 / "manifest.json"),
                     "--out", str(tab)])
    assert code == 0
    lines = (tab / "table.csv").read_text().splitlines()
    assert lines[0].startswith("# manifest: ")
    header = lines[1].split(",")
    assert header == ["domain", "n", "q", "best_M", "disk_half_n",
                      "ceiling_15_d_n", "infnorm_floor", "nlogn_floor"]
    row = lines[2].split(",")
    assert float(row[4]) == pytest.approx(2.0)   # n/2 on the disk
    assert float(row[3]) >= 2.0


def test_table_missing_manifest(tmp_path):
    assert cli.main(["table", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "t")]) == 2
    assert cli.main(["table", "--out", str(tmp_path / "t")]) == 2


@pytest.mark.parametrize("manifest", [
    '{"command": "search", "domain_fi',
    None,
    {"n": "8", "q": 2},
    {"n": 8, "q": "2"},
    {"n": True, "q": 2},
    {"n": 8, "q": 0.5},
], ids=["truncated", "no-params", "string-n", "string-q", "bool-n",
        "small-q"])
def test_table_malformed_manifest_exits_two(domains, tmp_path, capsys,
                                            manifest):
    # a string is the raw file; otherwise None (no params) or the params
    run = tmp_path / "run"
    run.mkdir()
    if not isinstance(manifest, str):
        doc = {"command": "search", "domain_file": domains["disk"]}
        if manifest is not None:
            doc["params"] = manifest
        manifest = json.dumps(doc)
    (run / "manifest.json").write_text(manifest)
    (run / "search.json").write_text(json.dumps({"best_M": 2.0}))
    assert cli.main(["table", str(run / "manifest.json"),
                     "--out", str(tmp_path / "t")]) == 2
    err = capsys.readouterr().err
    assert "manifest" in err and "Traceback" not in err


def test_rerun_is_byte_identical(domains, tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert cli.main(["search", "--domain", domains["disk"], "--n", "4",
                         "--budget", "500", "--seed", "9",
                         "--out", str(out)]) == 0
        outs.append(out)
    for name in ("search.json", "trace.csv", "manifest.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


# ------------------------------------------------------------------ fuzz

_ANY_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
              st.text(max_size=4), st.sampled_from([0, 1, 10 ** 400, "inf"])),
    lambda inner: st.one_of(st.lists(inner, max_size=2),
                            st.dictionaries(st.text(max_size=2), inner,
                                            max_size=2)),
    max_leaves=4)
_VALID_DOMAIN = "<the disk domain file>"
_RUN_DOCS = st.tuples(
    st.fixed_dictionaries({"command": st.just("search")}, optional={
        "domain_file": st.one_of(st.just(_VALID_DOMAIN), _ANY_JSON),
        "params": st.one_of(st.fixed_dictionaries({}, optional={
            "n": st.one_of(st.integers(1, 64), _ANY_JSON),
            "q": st.one_of(st.sampled_from([1, 2.0, "inf", 0.5]), _ANY_JSON),
        }), _ANY_JSON),
    }),
    st.one_of(st.fixed_dictionaries({}, optional={
        "best_M": st.one_of(st.floats(0.0, 100.0), st.just("inf"),
                            _ANY_JSON)}), _ANY_JSON))


@given(runs=st.lists(_RUN_DOCS, min_size=1, max_size=2), same=st.booleans())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_table_fuzzed_manifests_exit_zero_or_two(domains, tmp_path, runs,
                                                  same):
    # every JSON type in domain_file, params.n, params.q and best_M; with
    # same, both rows share a domain and q and meet in the monotonicity
    # check
    if same and len(runs) == 2:
        runs[1] = (runs[0][0], runs[1][1])
    base = Path(tempfile.mkdtemp(dir=tmp_path))
    paths = []
    for i, (doc, record) in enumerate(runs):
        run = base / str(i)
        run.mkdir()
        if doc.get("domain_file") == _VALID_DOMAIN:
            doc = dict(doc, domain_file=domains["disk"])
        (run / "manifest.json").write_text(json.dumps(doc))
        (run / "search.json").write_text(json.dumps(record))
        paths.append(str(run / "manifest.json"))
    assert cli.main(["table", *paths, "--out", str(base / "t")]) in (0, 2)


def _exit_code(argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:     # argparse rejects the option
        return exc.code


# junk for any numeric option, then per option the valid values, kept
# small so that every run the fuzz makes stays short; a huge finite q runs
# in test_huge_q_exits_two, under a memory limit
_JUNK_TEXT = ["nan", "-1", "1e400", "", "inf", "-inf", "abc", "2.5", "-0"]
_OPTION_VALUES = {
    "--trials": ["0", "1", "2"],
    "--n": ["1", "4", "8"],
    "--q": ["1", "2", "inf", "100", "0.5"],
    "--budget": ["0", "10", "50"],
    "--restarts": ["0", "1", "4", "51"],
    "--r": ["0.001", "1e-300", "1e300"],
    "--theta": ["0", "-1", "0.01", "10", "1e300"],
}
_COMMAND_OPTIONS = {
    "audit": ("--trials", "--n", "--q"),
    "search": ("--n", "--q", "--budget", "--restarts"),
    "covering": ("--r", "--n", "--theta"),
}


@st.composite
def _fuzzed_argv(draw):
    command = draw(st.sampled_from(sorted(_COMMAND_OPTIONS)))
    argv = [command]
    if command == "audit":
        argv.append(draw(st.sampled_from(cli.AUDIT_IDS)))
        argv += ["--trials", "1"]
    else:
        argv += ["--domain", _VALID_DOMAIN]
    if command == "search":
        argv += ["--n", "2", "--budget", "20"]
    for opt in _COMMAND_OPTIONS[command]:
        if draw(st.booleans()):
            argv += [opt, draw(st.sampled_from(_OPTION_VALUES[opt]
                                               + _JUNK_TEXT))]
    return argv


@given(argv=_fuzzed_argv())
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_numeric_options_exit_without_traceback(domains, argv):
    # a later option overrides the defaults set above; 3 (audit failure),
    # 4 (search incomplete) and 5 (covering failure) are verdicts, not
    # crashes
    argv = [domains["square"] if a == _VALID_DOMAIN else a for a in argv]
    assert _exit_code(argv) in (0, 2, 3, 4, 5)


def test_search_at_overflowing_q_stops_at_first_score(domains, monkeypatch,
                                                     capsys):
    scores, score = [], search._row_scores

    def counted(*args):
        scores.append(score(*args))
        return scores[-1]

    # the first score is finite, but log|p| drops below -1.8 beside the
    # boundary roots, where 1e308 log|p| overflows; the search once ran
    # all 50 evaluations and the rescore then stopped on the panel bound
    monkeypatch.setattr(search, "_row_scores", counted)
    assert cli.main(["search", "--domain", domains["square"], "--n", "4",
                     "--budget", "50", "--q", "1e308"]) == 2
    assert len(scores) == 1
    assert "q = 1e+308: q log|p| overflows" in capsys.readouterr().err


def test_search_at_unintegrable_q_stops_at_first_score(domains, monkeypatch,
                                                       capsys):
    # q log|p| stays finite at q = 1e300, but the rescore cannot resolve
    # |p|^q; the search once spent all 50 evaluations before finding out
    scores, score = [], search._row_scores

    def counted(*args):
        scores.append(score(*args))
        return scores[-1]

    monkeypatch.setattr(search, "_row_scores", counted)
    assert cli.main(["search", "--domain", domains["square"], "--n", "4",
                     "--budget", "50", "--q", "1e300"]) == 2
    assert len(scores) == 1
    assert "q = 1e+300:" in capsys.readouterr().err


def test_huge_q_exits_two(bounded_python, domains):
    # q = 1e308 once grew the quadrature until the process was killed
    res = bounded_python(f"""
from oscillab import cli
print(cli.main(["audit", "nikolskii", "--q", "1e308", "--trials", "1"]),
      cli.main(["search", "--domain", {domains["square"]!r}, "--n", "4",
                "--budget", "50", "--q", "1e308"]))
""")
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["2", "2"]
    # q log|p| overflows at the first level, which stops before numpy
    # computes, or warns about, any nan
    assert "overflows" in res.stderr
    assert "RuntimeWarning" not in res.stderr
