"""Benchmark of the dcx library and CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload check --seed 20260809 --seconds 30 --trace 0

One process runs one workload, single-threaded and closed-loop: each query
starts when the previous one has returned.  Set-up is repeated and timed on
its own.  Untraced runs (``--trace 0``) make as many whole passes over the
workload's queries as its nominal pass length fits in ``--seconds``, at
least one, and print the end-to-end metrics.  Traced runs (``--trace 1``)
make one untraced and one traced pass and print the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; details go to
``.perfbench_out/`` under the repository root.
"""
from __future__ import annotations

import argparse
import gc
import json
import shutil
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

END_TO_END = (
    # name, unit, better
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "ratio", "higher"),
    ("a_p50_ms", "ms", "lower"),
    ("a_p95_ms", "ms", "lower"),
    ("b_p50_ms", "ms", "lower"),
    ("b_p95_ms", "ms", "lower"),
    ("large_s", "s", "lower"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["check", "sd", "complex"])
    p.add_argument("--seed", type=int, default=20260809, help="relabelling seed of the inputs")
    p.add_argument("--seconds", type=float, default=30.0, help="measuring time of an untraced run")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--n", type=int, default=200, help="check: corpus size")
    return p.parse_args(argv)


def load_library():
    """Import dcx from this checkout's src/, or return None."""
    src = ROOT / "src"
    if not (src / "dcx" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import dcx

    if Path(dcx.__file__).resolve().parent != (src / "dcx").resolve():
        return None
    return dcx


class Timer:
    """Times queries, leaving out the calibrator's samples.  With a tracer
    each query is also a root span."""

    def __init__(self, calibrator, tracer=None):
        self.calibrator = calibrator
        self.tracer = tracer

    def call(self, fn, *args):
        """(value, error, (start, end, seconds)) of one call of fn."""
        tracer = self.tracer
        span = tracer.enter(0) if tracer is not None else None
        stolen = self.calibrator.stolen
        t0 = perf_counter()
        try:
            value, error = fn(*args), None
        except Exception:  # a failed query is counted, not fatal
            value, error = None, traceback.format_exc(limit=3)
        t1 = perf_counter()
        if tracer is not None:
            tracer.exit(span)
        return value, error, (t0, t1, t1 - t0 - (self.calibrator.stolen - stolen))

    def untraced(self, fn, *args):
        """Call fn with span recording paused."""
        if self.tracer is None:
            return fn(*args)
        self.tracer.on[0] = False
        try:
            return fn(*args)
        finally:
            self.tracer.on[0] = True


def run_pass(wl, timer):
    from perfbench.workloads import Answer, reset_caches

    answers = []
    for q in wl.queries():
        reset_caches()
        args = timer.untraced(wl.prepare, q)
        value, error, (t0, t1, seconds) = timer.call(wl.call, args)
        if error is None:
            value = timer.untraced(wl.summarize, q, value)
        answers.append(Answer(q, seconds, error, value, t0, t1))
    return answers


def judge(wl, answers):
    """Failure reasons, one per failed answer."""
    out = []
    for a in answers:
        if a.error is not None:
            out.append(f"{a.query.label}: raised {a.error.strip().splitlines()[-1]}")
            continue
        try:
            reason = wl.judge(a.query, a.value)
        except Exception as exc:  # a malformed answer is a failure
            reason = f"checking raised {exc!r}"
        if reason is not None:
            out.append(f"{a.query.label}: {reason}")
    return out


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(wl, setups, passes, scale):
    """The end-to-end metrics, with every time passed through ``scale``.

    ``setups`` holds (start, end, seconds) per set-up; ``scale(seconds,
    start, end)`` gives the time to report for one measured interval.
    """
    from perfbench.inputs import percentile

    times = [[scale(a.seconds, a.started, a.ended) for a in p] for p in passes]
    walls = [sum(p) for p in times]
    answers = [a for p in passes for a in p]
    seconds = [t for p in times for t in p]
    ops = sum(wl.ops(a.query, a.value) for a in answers if a.error is None)
    m = {
        "setup_s": percentile([scale(dt, t0, t1) for t0, t1, dt in setups], 0.5),
        "wall_s": percentile(walls, 0.5),
        "ops_per_s": ops / sum(walls),
    }
    for cls in ("a", "b"):
        xs = [t * 1000.0 for a, t in zip(answers, seconds) if a.query.cls == cls]
        m[f"{cls}_p50_ms"] = percentile(xs, 0.5)
        # p95 needs ten samples beyond it; with fewer the slot repeats the median
        m[f"{cls}_p95_ms"] = percentile(xs, 0.95 if len(xs) >= 200 else 0.5)
    m["large_s"] = percentile([max(p) for p in times], 0.5)
    return m


def measure(wl, timer, reps, n_passes):
    """Timed set-ups, then ``n_passes`` passes."""
    from perfbench.workloads import reset_caches

    setups = []
    for _ in range(reps):
        reset_caches()
        gc.collect()
        _, error, interval = timer.call(wl.setup)
        if error is not None:
            raise RuntimeError(f"set-up failed:\n{error}")
        setups.append(interval)
    passes = []
    for _ in range(n_passes):
        gc.collect()
        passes.append(run_pass(wl, timer))
    return setups, passes


def traced_run(wl, passes, failures):
    """One traced pass after the untraced one; returns the per-layer metrics."""
    from perfbench import tracing
    from perfbench.calibrate import Calibrator

    gc.collect()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_pass(wl, Timer(Calibrator(), tracer))
    finally:
        tracer.uninstall()
    failures.extend(judge(wl, traced))
    for a, b in zip(passes[0], traced):
        if a.error is None and b.error is None and a.value != b.value:
            failures.append(f"{a.query.label}: traced and untraced outputs differ")
    passes.append(traced)
    metrics = tracer.metrics(sum(a.seconds for a in passes[0]))
    gap = tracer.attribution_gap()
    if gap > 1e-6 * max(metrics["trace.wall_s"], 1.0):
        failures.append(f"layer self times miss the traced wall time by {gap:.3g} s")
    tracer.write(OUT_DIR / f"trace-{wl.name}.spans.gz")
    return metrics


def main(argv=None) -> int:
    opts = parse_args(argv)
    if load_library() is None:
        print("perfbench: no dcx sources under src/ of this checkout", file=sys.stderr)
        return 2
    from perfbench import tracing, workloads
    from perfbench.calibrate import Calibrator

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{opts.workload}-", dir=OUT_DIR)
    try:
        wl = workloads.WORKLOADS[opts.workload](opts, workdir)
        cal = Calibrator()
        if opts.trace:
            setups, passes = measure(wl, Timer(cal), 1, 1)
        else:
            cal.warm_up(0.5)
            cal.start()
            try:
                n_passes = max(1, int(opts.seconds // wl.pass_seconds))
                setups, passes = measure(wl, Timer(cal), wl.setup_reps, n_passes)
            finally:
                cal.stop()
                cal.warm_up(0.5)
        failures = judge(wl, [a for p in passes for a in p])
        raw = None
        if opts.trace:
            metrics = traced_run(wl, passes, failures)
            specs = tracing.per_layer_specs()
        attempted = sum(len(p) for p in passes)
        failed = min(len(failures), attempted)
        if not opts.trace:
            raw = end_to_end_metrics(wl, setups, passes, lambda dt, t0, t1: dt)
            metrics = end_to_end_metrics(wl, setups, passes, cal.calibrate)
            for m in (raw, metrics):
                m["ok_frac"] = 1.0 - failed / attempted
                m["peak_rss_mb"] = peak_rss_mb()
            specs = END_TO_END
        result = {
            "correct": not failures,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit, _ in specs},
        }
        calibrated = cal.calibrate if cal.times else (lambda dt, t0, t1: dt)
        details = {
            "options": vars(opts),
            "setups": setups,
            "passes": [
                [[a.query.label, a.seconds, calibrated(a.seconds, a.started, a.ended)] for a in p]
                for p in passes
            ],
            "raw_metrics": raw,
            "reference_samples": len(cal.times),
            "failures": failures,
            "inputs": wl.item_properties(),
            "result": result,
        }
        out = OUT_DIR / f"{opts.workload}-seed{opts.seed}-trace{opts.trace}.json"
        out.write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")
        for f in failures[:20]:
            print(f"perfbench: FAILED {f}", file=sys.stderr)
        print(json.dumps({"inputs": wl.properties()}, sort_keys=True))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
