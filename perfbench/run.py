"""oscillab benchmark: one serial process, closed loop, single caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; oscillab is imported from ./src.  Set-up
builds every input from the seed, loads the committed references and runs
one untimed warm-up op.  The timed phase then runs whole rotations (one
pass over the workload's mix of cells) until about --seconds have passed.
Every op runs under a per-op time limit and its result is checked.

--trace 0 prints the end-to-end metrics.  --trace 1 runs a fixed number of
rotations once untraced and once with span tracing installed around every
public function of oscillab, checks that both give identical results, and
prints the per-layer metrics.  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.  The line before it holds
the context (commit, nproc, versions, seed) and the failures by cell.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 3
EXIT_NO_PROGRAM = 2


class OpTimeout(BaseException):
    """The op ran past the workload's per-op time limit.  Not an Exception,
    so that no handler inside the program can swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def import_program():
    """Import oscillab from this checkout only, single-threaded."""
    os.environ["OSC_LAB_THREADS"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "oscillab" / "__init__.py").is_file():
        raise ImportError(f"no oscillab package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import oscillab
    if Path(oscillab.__file__).resolve().parent != SRC / "oscillab":
        raise ImportError(f"oscillab imported from {oscillab.__file__}")
    import tracing
    import workloads
    return workloads, tracing


@dataclass(slots=True)
class Outcome:
    cell: str
    seconds: float
    error: str | None
    fingerprint: object
    evaluations: int


def run_op(wmod, op, limit_s, tracer=None, op_id=0) -> Outcome:
    wmod.clear_outputs(op)
    span = tracer.begin_op(op_id, op.cell) if tracer else None
    error = result = None
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        result = op.call()
    except OpTimeout:
        error = f"timeout after {limit_s:g} s"
    except Exception as exc:  # a failed op is counted, the run goes on
        error = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    seconds = time.perf_counter() - start
    if tracer:
        tracer.end_op(span, error)
    fingerprint = None
    if error is None:
        try:
            fingerprint = op.check(result)
        except wmod.CheckFailed as exc:
            error = f"check: {exc}"
    evals = getattr(result, "evaluations", 0) if error is None else 0
    return Outcome(op.cell, seconds, error, fingerprint, evals)


def run_rotations(wmod, wl, rotations=None, seconds=None, tracer=None):
    """Whole rotations: a fixed count, or until about `seconds` passed."""
    outcomes, rot_times = [], []
    start = time.perf_counter()
    i = 0
    while True:
        t = time.perf_counter()
        for op in wl.rotation(i):
            outcomes.append(run_op(wmod, op, wl.limit_s, tracer,
                                   len(outcomes)))
        rot_times.append(time.perf_counter() - t)
        i += 1
        elapsed = time.perf_counter() - start
        if rotations is not None:
            if i >= rotations:
                break
        elif i >= wl.min_rotations and elapsed + rot_times[-1] / 2 >= seconds:
            break
    return outcomes, rot_times, time.perf_counter() - start


def percentile(values, pct):
    xs = sorted(values)
    if not xs:
        return float("nan")
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def failures_by_cell(outcomes, known) -> dict:
    out = {}
    for o in outcomes:
        if o.error is None:
            continue
        entry = out.setdefault(o.cell, {"count": 0, "error": o.error,
                                        "known_defect": known.get(o.cell)})
        entry["count"] += 1
    return out


def commit_id() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def context(args, wl, extra) -> dict:
    import numpy
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "short": args.short, "commit": commit_id(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "op_limit_s": wl.limit_s, **extra}


def max_rel_err(wl) -> float:
    errs = wl.stats.get("rel_err", {})
    return max(errs.values()) if errs else 0.0


def evals_per_s(outcomes) -> float:
    done = [o for o in outcomes if o.error is None and o.evaluations]
    busy = sum(o.seconds for o in done)
    return sum(o.evaluations for o in done) / busy if busy else 0.0


def cell_medians(outcomes) -> dict:
    by_cell = {}
    for o in outcomes:
        if o.error is None:
            by_cell.setdefault(o.cell, []).append(1e3 * o.seconds)
    return {c: statistics.median(v) for c, v in sorted(by_cell.items())}


def end_to_end(args, wmod, workdir):
    setups, wl = [], None
    import_s = time.perf_counter() - T0
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        wl = wmod.WORKLOADS[args.workload](args.seed, args.short, workdir)
        run_op(wmod, wl.warmup, wl.limit_s)
        setups.append(time.perf_counter() - t)
    outcomes, rot_times, elapsed = run_rotations(wmod, wl,
                                                 seconds=args.seconds)
    lat_ms = [1e3 * o.seconds for o in outcomes if o.error is None]
    values = {
        "setup_s": import_s + statistics.median(setups),
        "wall_s": elapsed / len(rot_times),
        "ops_per_s": len(lat_ms) / elapsed,
        "op_ms_p50": percentile(lat_ms, 50),
        "op_ms_p95": percentile(lat_ms, 95),
        "ok_frac": len(lat_ms) / len(outcomes),
    }
    extra = {"import_s": import_s, "setup_repeats_s": setups,
             "rotations": len(rot_times), "rotation_s": rot_times,
             "timed_s": elapsed, "samples": len(lat_ms),
             "samples_beyond_p95": sum(x > values["op_ms_p95"]
                                       for x in lat_ms),
             "cell_ms_p50": cell_medians(outcomes),
             "max_rel_err": max_rel_err(wl),
             "evals_per_s": evals_per_s(outcomes)}
    return wl, outcomes, values, extra


def traced(args, wmod, tmod, workdir):
    wl = wmod.WORKLOADS[args.workload](args.seed, args.short, workdir)
    run_op(wmod, wl.warmup, wl.limit_s)
    plain, _, plain_s = run_rotations(wmod, wl, rotations=wl.trace_rotations)

    tracer = tmod.Tracer()
    tracer.install()
    try:
        span = tracer.begin_op(-1, "setup")
        wl_t = wmod.WORKLOADS[args.workload](args.seed, args.short, workdir)
        tracer.end_op(span)
        outs, _, traced_s = run_rotations(wmod, wl_t,
                                          rotations=wl.trace_rotations,
                                          tracer=tracer)
    finally:
        tracer.uninstall()
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_jsonl(OUT_DIR / f"spans-{args.workload}.jsonl")

    same = ([o.fingerprint for o in plain] == [o.fingerprint for o in outs]
            and [o.error is None for o in plain]
            == [o.error is None for o in outs])
    timeouts = sum(o.error is not None and o.error.startswith("timeout")
                   for o in outs)
    values = tmod.layer_metrics(tracer.spans, timeouts)
    values["cli.bytes_written"] = wl_t.stats.get("bytes_written", 0)
    values["trace.overhead_frac"] = traced_s / plain_s - 1.0
    values["max_rel_err"] = max_rel_err(wl)
    values["evals_per_s"] = evals_per_s(plain)
    extra = {"untraced_pass_s": plain_s, "traced_pass_s": traced_s,
             "traced_results_identical": same,
             "ops_per_pass": len(plain)}
    return wl, plain + outs, values, extra


def declared_units(kind: str) -> dict:
    """Units of the metrics BENCHMARK.json declares for one mode; printing
    an undeclared metric is a bug, so a lookup miss raises."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="a few ops per workload (self-test)")
    args = parser.parse_args(argv)
    try:
        wmod, tmod = import_program()
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    if args.workload not in wmod.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(wmod.WORKLOADS)}")
    signal.signal(signal.SIGALRM, _on_alarm)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        if args.trace:
            wl, outcomes, values, extra = traced(args, wmod, tmod, workdir)
        else:
            wl, outcomes, values, extra = end_to_end(args, wmod, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = declared_units("per_layer" if args.trace else "end_to_end")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    same = extra.get("traced_results_identical", True)
    failures = failures_by_cell(outcomes, wl.known_failures)
    unexpected = [cell for cell, f in failures.items()
                  if f["known_defect"] is None]
    print(json.dumps({"context": context(args, wl, extra),
                      "failures": failures}, default=str))
    print(json.dumps({
        "correct": same and not unexpected,
        "attempted": len(outcomes),
        "failed": sum(o.error is not None for o in outcomes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
