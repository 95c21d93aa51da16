"""g2mono benchmark: four shooting workloads, end-to-end metrics and a
per-layer trace.

    python3 perfbench/run.py --workload solve-bs --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Workloads (inputs are generated from --seed, see workloads.py):
  solve-flat  op = solve_monopole(m) + intermediate_energy, euclidean and
              hyperbolic alternating, m log-uniform in [0.25, 16]
  solve-bs    the same op on bs_s4 and bs_cp2
  sweep-bs    op = one `g2mono sweep --metric bs_s4` over a 2-mass window,
              G2MONO_THREADS = the cores this process may use
  beta-scan   op = one mass_of_beta(beta), beta log-uniform in [-16, -1/64],
              on the four built-in backends and a generated flat table

One untimed warm-up op runs first.  --trace 0 reports the end-to-end
metrics:
  op_p50_s     median time of one op
  op_tail_s    the highest percentile with ten ops beyond it (the upper
               median below 21 ops); the percentile and count are printed
  ops_per_s    ops completed per second of op time
  setup_s      median over fresh processes of the time from spawn to the
               end of their warm-up op (import, backends, first series)
  peak_rss_mb  ru_maxrss of this process
Times are at the calibrated reference speed (see CALIBRATION_REF_S).  It
also prints fail_frac, the share of ops that raised or failed a check; the
result line carries it as `failed` of `attempted`, and every failing op is
listed.  --trace 1 runs the same ops untraced and then traced, requires
bit-identical outputs, and reports the per-layer metrics of tracer.py.
The last stdout line is the JSON result; the run record (machine,
versions, commit, per-op times, failing ops) and the spans go to
perfbench/out/.  Exit status is 0 when the run completed, whether or not
its outputs passed their checks.

Self-tests:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 3
PROBE_DONE = "setup-probe: warm-up op done"
PROBE_TIMEOUT_S = 120.0


def _use_checkout_sources():
    """Import g2mono from this checkout's src/, never from site-packages."""
    if not (SRC / "g2mono" / "__init__.py").is_file():
        sys.exit(f"perfbench: no g2mono sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import g2mono
    if Path(g2mono.__file__).resolve().parent != SRC / "g2mono":
        sys.exit(f"perfbench: imported g2mono from {g2mono.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail(times):
    """(value, percentile, n): the highest percentile with at least ten
    ops beyond it.  Below 21 ops that percentile would fall under the
    median (or not exist), and the upper median is reported instead."""
    xs = sorted(times)
    n = len(xs)
    k = max(n - 11, n // 2)
    return xs[k], 100.0 * k / max(n - 1, 1), n


# The machines this runs on are shared: their speed drifts by up to 2x
# over seconds to minutes, the same for every core, and CPU time drifts
# with it.  Every reported time is therefore scaled to a reference speed,
# defined by a fixed pure-Python kernel (Fraction sums, small numpy calls
# and a float loop, the mix g2mono's hot path runs) that takes
# CALIBRATION_REF_S of CPU time at that speed.  SpeedSampler runs the
# kernel before, every SAMPLE_PERIOD_S during, and after each op; the op's
# scale is CALIBRATION_REF_S over the mean kernel time, and the sampling
# time is taken out of the op's time.  Raw wall times go to the run record.
CALIBRATION_REF_S = 1.3e-3
SAMPLE_PERIOD_S = 0.1


def _calibration_kernel():
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(1, i * i)
    y = np.zeros(2)
    for i in range(300):
        y = y + np.sqrt(np.abs(y) + i)
    x = 0.0
    for i in range(1500):
        x += math.sin(i * 1e-3)
    return acc, y, x


def _kernel_cpu_s():
    # CPU time leaves out preemption and, during a sweep, waits for the GIL
    c0 = time.thread_time()
    _calibration_kernel()
    return time.thread_time() - c0


class SpeedSampler:
    """Context manager sampling the machine's speed around and, from
    SIGALRM on the main thread, during a timed region."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0          # wall seconds of sampling inside the region

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(_kernel_cpu_s())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.samples = [_kernel_cpu_s()]
        self.spent = 0.0
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self.samples.append(_kernel_cpu_s())

    @property
    def scale(self):
        """Reference seconds per wall second over the region."""
        return CALIBRATION_REF_S / statistics.mean(self.samples)


@dataclass
class Pass:
    raw: dict        # op -> wall seconds
    scale: dict      # op -> reference seconds per wall second
    outs: dict       # op -> output tuple, None if the op raised
    errors: dict     # op -> failed checks
    wall: float

    @property
    def times(self):
        """op -> reference-speed seconds."""
        return {k: t * self.scale[k] for k, t in self.raw.items()}


def timed_pass(runner, ks, seconds, call):
    """Run ops ks in order until the next op would, at the median op time
    so far, end after `seconds` of wall time (None: run them all)."""
    p = Pass({}, {}, {}, {}, 0.0)
    start = time.perf_counter()
    for k in ks:
        if (seconds is not None and p.raw and
                time.perf_counter() - start + statistics.median(p.raw.values()) > seconds):
            break
        with SpeedSampler() as speed:
            t0 = time.perf_counter()
            try:
                p.outs[k] = call(k)
            except Exception:
                p.outs[k] = None
                p.errors[k] = ["raised: " + traceback.format_exc(limit=4).strip()]
            p.raw[k] = time.perf_counter() - t0 - speed.spent
        p.scale[k] = speed.scale
        if p.outs[k] is not None:
            errs = runner.check(k, p.outs[k])
            if errs:
                p.errors[k] = errs
    p.wall = time.perf_counter() - start
    if runner.inputs.workload == "beta-scan":
        done = [k for k in p.raw if p.outs[k] is not None]
        bad = workloads.check_scan_monotone(
            [runner.inputs.ops[k] for k in done], [p.outs[k][0] for k in done])
        for i, errs in bad.items():
            p.errors.setdefault(done[i], []).extend(errs)
    return p


# ---------------------------------------------------------------------------
# run modes
# ---------------------------------------------------------------------------

def setup_probe(workload, seed):
    """Child process of measure_setup: import g2mono, build the backends,
    run one warm-up op, then report with the machine's speed meanwhile.
    The main process runs and checks the same op, so a failure here is
    reported there."""
    workdir = tempfile.mkdtemp(prefix="probe-", dir=OUT)
    try:
        with SpeedSampler() as speed:
            _use_checkout_sources()
            runner = workloads.Runner(workloads.make_inputs(workload, seed), workdir)
            warm_up(runner, runner.run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{PROBE_DONE} {speed.scale!r}", flush=True)


def measure_setup(workload, seed):
    """Reference-speed seconds from spawning a fresh interpreter to the
    end of its warm-up op, for each of SETUP_PROBES processes; each is
    scaled by the speed its process sampled."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as proc:
            try:
                done = scale = None
                for line in proc.stdout:
                    if line.startswith(PROBE_DONE):
                        done = time.perf_counter()
                        scale = float(line.split()[-1])
                proc.wait(timeout=PROBE_TIMEOUT_S)
            except BaseException:
                proc.kill()
                raise
        if done is None or proc.returncode != 0:
            sys.exit(f"perfbench: setup probe exited with {proc.returncode}")
        samples.append((done - t0) * scale)
    return samples


def machine_record():
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env)
        commit = res.stdout.strip() or commit
    return {"nproc": os.cpu_count(), "affinity": sorted(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "commit": commit, "loadavg": os.getloadavg()}


def _bits(out):
    return None if out is None else tuple(float(x).hex() for x in out)


def _failures(runner, errors):
    return [{"op": k, "input": list(runner.inputs.ops[k]), "errors": errs}
            for k, errs in sorted(errors.items())]


def warm_up(runner, call):
    """Run op 0 untimed; {0: errors} if it raised or failed a check."""
    try:
        errs = runner.check(0, call(0))
    except Exception:
        errs = ["raised: " + traceback.format_exc(limit=4).strip()]
    return {0: errs} if errs else {}


def run_untraced(args, runner):
    errors = warm_up(runner, runner.run)
    p = timed_pass(runner, range(1, len(runner.inputs.ops)), args.seconds, runner.run)
    errors.update(p.errors)
    times = list(p.times.values())
    n = len(times)
    attempted = n + 1
    value, pct, _ = tail(times)
    metrics = {
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (value, "s"),
        "ops_per_s": (n / sum(times), "1/s"),
        "setup_s": (statistics.median(args.setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {"op_tail_s": f"p{pct:.1f} of {n} timed ops",
             "fail_frac": f"{len(errors) / attempted:.6g} ({len(errors)} of {attempted} ops)",
             "wall_op_p50_s": statistics.median(p.raw.values()),
             "ops": [[k, p.raw[k], p.scale[k]] for k in p.raw],
             "scale_p50": statistics.median(p.scale.values()),
             "setup_samples_s": args.setup_samples, "timed_wall_s": p.wall}
    if args.workload.startswith("solve-"):
        res = [abs(out[1] - runner.inputs.ops[k][1])
               for k, out in p.outs.items() if out is not None]
        over = sum(r > workloads.ROOT_TOL for r in res)
        notes["mass_residual"] = (f"max |mass - m| {max(res, default=0.0):.3e}; {over} of "
                                  f"{len(res)} ops above {workloads.ROOT_TOL}")
    return metrics, notes, attempted, errors


def run_traced(args, runner):
    tr = tracer.Tracer()
    originals = [vars(o)[a] for o, a, _, _ in tracer.targets()]
    tr.install()
    try:
        errors = warm_up(runner, lambda k: tr.run_op(k, runner.run, k))
    finally:
        tr.uninstall()
    plain = timed_pass(runner, range(1, len(runner.inputs.ops)), args.seconds / 2.0,
                       runner.run)
    tr.install()
    try:
        traced = timed_pass(runner, list(plain.raw), None,
                            lambda k: tr.run_op(k, runner.run, k))
    finally:
        tr.uninstall()
    left = [f"{o.__name__}.{a}" for (o, a, _, _), f in zip(tracer.targets(), originals)
            if vars(o)[a] is not f]
    if left:
        sys.exit(f"perfbench: tracer left wrappers installed: {left}")
    missing = sorted(tracer.EXPECTED[args.workload] - tr.fired)
    if missing:
        sys.exit(f"perfbench: wrappers never fired on {args.workload}: {missing}")

    for k, errs in list(plain.errors.items()) + list(traced.errors.items()):
        errors.setdefault(k, []).extend(errs)
    mismatched = [k for k in plain.raw if _bits(plain.outs[k]) != _bits(traced.outs[k])]
    for k in mismatched:
        errors.setdefault(k, []).append(
            f"traced output {traced.outs[k]} != untraced {plain.outs[k]}")
    ops = list(traced.raw)
    threads = ({k: workloads.sweep_threads(runner.workdir, k) for k in ops}
               if args.workload == "sweep-bs" else None)
    metrics = tracer.layer_metrics(tr, ops, traced.scale, threads)
    p50_plain = statistics.median(plain.times.values())
    metrics["trace.overhead_frac"] = (
        statistics.median(traced.times.values()) / p50_plain - 1.0, "ratio")
    tr.dump(OUT / f"spans-{args.workload}-s{args.seed}.json")
    notes = {"ops_per_pass": len(ops), "untraced_op_p50_s": p50_plain,
             "equivalence": f"{len(mismatched)} of {len(ops)} ops differ",
             "sizing": sizing_check(tr, metrics, traced.scale)}
    return metrics, notes, 1 + 2 * len(ops), errors


# Wall times measured on a 2-core Xeon with Python 3.11, numpy 2.4 and
# scipy 1.17 before this benchmark existed; a factor of two either way is
# flagged in the run record.
SIZING = {"shots_per_solve": (10.0, 13.0),
          "bs_series_coeffs_s_per_call": 0.072,
          "s_of_rho_s_per_4097_points": 0.22}


def sizing_check(tr, metrics, scale):
    out = {}
    if any(s.name == "shooting.solve_monopole" for s in tr.spans):
        shots = metrics["shooting.shots_per_solve"][0]
        lo, hi = SIZING["shots_per_solve"]
        out["shots_per_solve"] = {"measured": shots, "sizing": [lo, hi],
                                  "within_2x": lo / 2 <= shots <= 2 * hi}
    parents = {s.parent for s in tr.spans if s.name == "fps.reversion" and s.op in scale}
    builds = [s.dur * scale[s.op] for s in tr.spans
              if s.name == "metric.series_coeffs" and s.id in parents]
    pts = metrics["metric.s_of_rho.points_per_op"][0]
    for key, measured in (
            ("bs_series_coeffs_s_per_call",
             statistics.mean(builds) if builds else None),
            ("s_of_rho_s_per_4097_points",
             4097 * metrics["metric.s_of_rho.self_s_per_op"][0] / pts if pts else None)):
        if measured is not None:
            ratio = measured / SIZING[key]
            out[key] = {"measured": measured, "sizing": SIZING[key], "ratio": ratio,
                        "within_2x": 0.5 <= ratio <= 2.0}
    return out


def run_all(args):
    """Every workload in its own process, then one table of all metrics."""
    results = {}
    for w in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        res = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(res.stdout)
        if res.returncode != 0:
            sys.stderr.write(res.stderr)
            return res.returncode
        results[w] = json.loads(res.stdout.strip().splitlines()[-1])
    print("\n" + "".ljust(42) + "".join(w.rjust(22) for w in results))
    for name in next(iter(results.values()))["metrics"]:
        cells = [f"{r['metrics'][name]['value']:.6g} {r['metrics'][name]['unit']}"
                 for r in results.values()]
        print(name.ljust(42) + "".join(c.rjust(22) for c in cells))
    cells = [f"{r['failed'] / r['attempted']:.4g} ratio" for r in results.values()]
    print("fail_frac".ljust(42) + "".join(c.rjust(22) for c in cells))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=list(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    if not args.setup_probe:
        _use_checkout_sources()
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if args.workload == "all":
        return run_all(args)

    if not args.trace:
        args.setup_samples = measure_setup(args.workload, args.seed)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        runner = workloads.Runner(workloads.make_inputs(args.workload, args.seed), workdir)
        run = run_traced if args.trace else run_untraced
        metrics, notes, attempted, errors = run(args, runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = _failures(runner, errors)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record(),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "notes": notes, "failures": failures}
    with open(OUT / f"record-{args.workload}-s{args.seed}-t{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for k, (v, u) in metrics.items():
        note = notes.get(k, "")
        print(f"  {k:40s} {v:14.6g} {u:6s} {note}")
    for k in ("fail_frac", "mass_residual", "equivalence"):
        if k in notes:
            print(f"  {k:40s} {notes[k]}")
    for f in failures:
        print(f"  FAILED op {f['op']} input={f['input']}: {f['errors']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    import tracer
    import workloads
    sys.exit(main())
