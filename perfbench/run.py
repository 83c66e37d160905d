"""Benchmark of eternalprofile: time to beta* and its accuracy.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

One client runs one operation at a time (closed loop).  The run executes
whole rounds of its workload (see workloads.py) while another round still
fits into ``--seconds``, checks every operation's output, and prints a
report followed, on the last line, by one JSON object.  With ``--trace 0``
the JSON holds the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics, from a traced and an untraced pass over each round.
"""

from __future__ import annotations

import os

# one BLAS thread: the package is single-threaded and the host may be small
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Fresh interpreters started per run to measure set-up time; about
#: 0.45 s each.  With 3, setup_s spread up to 0.23 of its median.
SETUP_PROBES = 9

#: op_s.tail is this percentile of the run's operation times.
TAIL_PERCENTILE = 75

#: Seconds between speed samples while an operation runs (see Speedometer).
SAMPLE_PERIOD = 0.05

#: A speed sample integrates an oscillator over this span; it takes
#: SAMPLE_REF_S at the reference speed of the machine, to which end-to-end
#: times are scaled.
SAMPLE_SPAN = 5.0
SAMPLE_REF_S = 1.6e-3

#: Speed samples a set-up probe takes right after it is ready, since it
#: cannot be sampled while it imports.
SETUP_SAMPLES = 16

#: Workloads without exact answers report the accuracy of this
#: critical-line solve (m, q, N), run untimed after the timed rounds;
#: q = 0.7 is where xi0 and f are least accurate today.
ACCURACY_PROBE = (1.3, 0.7, 1)

END_TO_END = {
    "setup_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "ops_per_s": "1/s",
    "solved_ratio": "ratio",
    "beta_digits.min": "digits",
    "xi0_digits.min": "digits",
    "f_digits.min": "digits",
}


def import_package():
    """Import eternalprofile from this checkout's sources, or exit with an error."""
    sys.path.insert(0, str(SRC))
    try:
        import eternalprofile
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import eternalprofile from {SRC}: {exc}")
    if Path(eternalprofile.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: eternalprofile imported from "
                 f"{eternalprofile.__file__}, not from {SRC}")


def setup_probe(workload: str, seed: int) -> None:
    """Child side of a set-up probe: import, generate, report ready."""
    import_package()
    import workloads

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        wl = workloads.WORKLOADS[workload](seed, Path(tmp))
        ops = wl.round()
        if ops[0].mode is not None:
            from eternalprofile.config import load_config
            load_config(wl.config_path(ops[0].triple))
        print("ready", flush=True)
    print(" ".join(repr(speed_sample()) for _ in range(SETUP_SAMPLES)), flush=True)


def _oscillator(t, y):
    return (y[1], -y[0])


def scale(wall: float, samples: list) -> float:
    """wall at the reference speed, from the speed samples taken around it."""
    return wall * statistics.fmean(SAMPLE_REF_S / d for d in samples)


def speed_sample() -> float:
    """Wall time of one fixed integration that does not involve the package.

    It runs Python callbacks under scipy's DOP853, as the solver does, so
    it slows down with the shared machine the way the solver does.
    """
    from scipy.integrate import solve_ivp

    start = time.perf_counter()
    solve_ivp(_oscillator, (0.0, SAMPLE_SPAN), (1.0, 0.0), method="DOP853",
              rtol=1e-12, atol=1e-12)
    return time.perf_counter() - start


class Speedometer:
    """Times intervals at the machine's reference speed.

    The speed of a shared machine changes by up to 1.9x from one second
    to the next, and the solver's CPU time changes with it.  While an
    operation runs, a timer signal takes a speed sample every
    SAMPLE_PERIOD seconds in this process, between the operation's Python
    calls; one more is taken before and one after.  The operation's own
    wall time, without the samples, is scaled by the mean over all its
    samples of SAMPLE_REF_S / sample time.
    """

    def __init__(self):
        self.samples = []       # every sample's wall time, for the report
        self.last = None        # (own wall s, scaled s) of the last interval
        self._during = []
        speed_sample()          # the first call imports and warms up
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        self._during.append(speed_sample())

    def run(self, fn):
        """Return fn(); its times are in self.last afterwards, also if it raised."""
        before = speed_sample()
        self._during = []
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            wall = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            during, self._during = self._during, []
            samples = [before, *during, speed_sample()]
            self.samples.extend(samples)
            own = wall - sum(during)
            self.last = (own, scale(own, samples))


def measure_setup(workload: str, seed: int, meter: Speedometer) -> list:
    """Scaled times from spawning a fresh interpreter to its first op being ready."""
    times = []
    for i in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed + i)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        samples = [float(x) for x in proc.stdout.readline().split()]
        proc.stdout.read()
        if proc.wait() != 0 or line.strip() != "ready" or not samples:
            raise RuntimeError(f"set-up probe failed with code {proc.returncode}")
        meter.samples.extend(samples)
        times.append(scale(elapsed, samples))
    return times


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics, with Beta((n+1)p, (n+1)(1-p))
    weights.  With a dozen operations of unequal cost, the plain sample
    median jumps between the two middle operations, and it more than
    doubled the run-to-run spread of op_s.p50.
    """
    from scipy.special import betainc

    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    cdf = [float(betainc(a, b, i / n)) for i in range(n + 1)]
    return sum((hi - lo) * v for lo, hi, v in zip(cdf, cdf[1:], x))


@dataclass
class Record:
    op: object
    outcome: object
    wall: float         # own wall time, without speed samples
    scaled: float
    traced: bool


class Run:
    """One workload run: timed rounds, checked outcomes, optional trace."""

    def __init__(self, name, seed, seconds, trace, work_dir, meter, max_ops=None):
        import workloads

        self.wl = workloads.WORKLOADS[name](seed, work_dir)
        self.seconds, self.trace, self.max_ops = seconds, trace, max_ops
        self.meter = meter
        self.records = []
        self.tracer = None
        if trace:
            import spans

            self.tracer = spans.Tracer()
            self.tracer.install()

    def op(self, op, traced):
        import workloads

        def call():
            if traced:
                with self.tracer.record(op.label):
                    return self.wl.run(op)
            return self.wl.run(op)

        try:
            produced = self.meter.run(call)
        except Exception as exc:    # the operation failed; the run goes on
            outcome = workloads.Outcome(False, f"{type(exc).__name__}: {exc}")
        else:
            outcome = self.wl.check(op, produced)
        wall, scaled = self.meter.last
        self.records.append(Record(op, outcome, wall, scaled, traced))

    def times(self, traced: bool) -> list:
        """Scaled operation times of the traced or the untraced passes."""
        return [r.scaled for r in self.records if r.traced == traced]

    def execute(self):
        """Whole rounds while the next one, as long as the last, still fits.

        A traced run makes two passes over each round, one traced and one
        untraced, in alternating order, so the tracing overhead is measured
        on the same operations.  Each pass starts from a cold solver cache.
        """
        start = time.perf_counter()
        rounds = 0
        while True:
            t0 = time.perf_counter()
            ops = self.wl.round()[: self.max_ops]
            if not self.trace:
                passes = (False,)
            elif rounds % 2 == 0:
                passes = (True, False)
            else:
                passes = (False, True)
            for traced in passes:
                if self.trace:
                    clear_solver_cache()
                for op in ops:
                    self.op(op, traced)
            rounds += 1
            last = time.perf_counter() - t0
            elapsed = time.perf_counter() - start
            if elapsed + last > self.seconds:
                return elapsed


def clear_solver_cache():
    """Empty the solver's per-triple absorption_scale cache, if it has one,
    so that a second pass over the same triples starts cold as well."""
    from eternalprofile import integrate

    cache_clear = getattr(getattr(integrate, "_absorption_scale", None),
                          "cache_clear", None)
    if cache_clear is not None:
        cache_clear()


def min_digits(outcomes):
    """The smallest accuracy digits over the outcomes, per quantity."""
    digits = {}
    for outcome in outcomes:
        for key, val in outcome.accuracy.items():
            digits[key] = min(val, digits.get(key, val))
    return digits


def accuracy_probe():
    """Outcome of the untimed critical-line solve, for workloads whose own
    operations have no exact answer."""
    import workloads

    wl = workloads.CriticalOracle(0, OUT)
    op = workloads.Op(ACCURACY_PROBE)
    try:
        produced = wl.run(op)
    except Exception as exc:
        return workloads.Outcome(False, f"{type(exc).__name__}: {exc}")
    return wl.check(op, produced)


def run_workload(name, seed, seconds, trace, max_ops=None):
    """Run one workload; return (result JSON, report lines)."""
    load_start = os.getloadavg()
    OUT.mkdir(exist_ok=True)
    # an earlier workload or accuracy probe in this process may have
    # filled the cache for a triple this workload draws
    clear_solver_cache()
    meter = Speedometer()
    # set-up time is an end-to-end metric; a traced run does not report it
    setup = [] if trace else measure_setup(name, seed, meter)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    run = Run(name, seed, seconds, trace, work_dir, meter, max_ops)
    try:
        elapsed = run.execute()
    finally:
        if run.tracer is not None:
            run.tracer.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)
    times = run.times(bool(trace))
    attempted = len(run.records)
    failed = sum(1 for r in run.records if not r.outcome.ok)
    lines = [f"workload {name}: {run.wl.why}",
             f"seed {seed}, {attempted} operations in {elapsed:.2f} s, "
             f"{failed} failed checks"]
    for r in run.records:
        verdict = "ok" if r.outcome.ok else "FAILED"
        lines.append(f"  {r.op.label}: {r.scaled:.4f} s "
                     f"({r.wall:.3f} s wall), {verdict}"
                     + (f": {r.outcome.detail}" if r.outcome.detail else ""))
    quartiles = statistics.quantiles(meter.samples, n=4)
    lines.append(
        f"{len(meter.samples)} speed samples, quartiles "
        + " ".join(f"{1e3 * q:.2f}" for q in quartiles)
        + f" ms (reference {1e3 * SAMPLE_REF_S:.2f}); "
        f"wall p50 {statistics.median(r.wall for r in run.records):.4f} s")

    if trace:
        import spans

        traced, plain = run.times(True), run.times(False)
        layer = spans.per_layer(run.tracer, len(traced))
        p50_traced = quantile(traced, 0.5)
        p50_plain = quantile(plain, 0.5)
        layer["trace.op_s.p50"] = p50_traced
        layer["trace.overhead_s"] = p50_traced - p50_plain
        units = {**spans.PER_LAYER, "trace.op_s.p50": "s", "trace.overhead_s": "s"}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
        lines.extend(layer_report(name, layer, len(traced), len(plain)))
        span_file = OUT / f"spans-{name}-seed{seed}.json"
        run.tracer.dump(span_file)
        lines.append(f"spans written to {span_file.relative_to(ROOT)}")
    else:
        if name == "critical_oracle":
            digits = min_digits(r.outcome for r in run.records)
        else:
            probe = accuracy_probe()
            digits = min_digits([probe])
            # the probe solve is a checked operation too, though untimed
            attempted += 1
            if not probe.ok:
                failed += 1
                lines.append(f"  accuracy probe FAILED: {probe.detail}")
        values = {
            "setup_s": quantile(setup, 0.5) if setup else float("nan"),
            "op_s.p50": quantile(times, 0.5),
            "op_s.tail": quantile(times, TAIL_PERCENTILE / 100),
            "ops_per_s": len(times) / sum(times),
            "solved_ratio": sum(r.outcome.ok for r in run.records) / len(run.records),
            "beta_digits.min": digits.get("beta_digits", float("nan")),
            "xi0_digits.min": digits.get("xi0_digits", float("nan")),
            "f_digits.min": digits.get("f_digits", float("nan")),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        beyond = sum(1 for t in times if t > values["op_s.tail"])
        lines.append(f"op_s.tail is p{TAIL_PERCENTILE} of {len(times)} operations "
                     f"({beyond} beyond it); set-up probes "
                     + ", ".join(f"{s:.3f}" for s in setup) + " s")
        lines.append("accuracy from " + (
            "the timed operations" if name == "critical_oracle"
            else f"the untimed critical-line solve {ACCURACY_PROBE}"))
        lines.append(f"fail_ratio (failed / attempted timed operations): "
                     f"{1.0 - values['solved_ratio']:.4f}")
        for k, m in metrics.items():
            lines.append(f"  {k:<18} {m['value']:.6g} {m['unit']}")
    env = environment()
    env["loadavg_start"] = load_start
    env["loadavg_end"] = os.getloadavg()
    lines.insert(0, "environment " + json.dumps(env))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def layer_report(name, layer, n_traced, n_plain):
    """The traced run in the ROADMAP Baseline's columns, per operation."""

    def ms(key):
        v = layer.get(key)
        return "missing" if v is None else f"{1e3 * v:.1f}"

    def n(key):
        v = layer.get(key)
        return "missing" if v is None else f"{v:.1f}"

    stages = ("asymptotics.fit_interface.total_s",
              "phasespace.stable_manifold_ratio.total_s",
              "pdecheck.profile_ode_residual.s", "pdecheck.pde_residual.s")
    lines = [
        f"traced {n_traced} operations, untraced {n_plain}; tracing overhead "
        f"{1e3 * layer['trace.overhead_s']:.1f} ms on op_s.p50 "
        f"{1e3 * layer['trace.op_s.p50']:.1f} ms (traced)",
        "| workload | backward leg: steps / ms | forward leg: steps / ms "
        "| bracket ms | bisect iterations | ms per verification stage |",
        "|---|---|---|---|---|---|",
        f"| {name} | {n('matching.backward_leg.steps')} / "
        f"{ms('matching.backward_leg.s')} | {n('matching.forward_leg.steps')} / "
        f"{ms('matching.forward_leg.s')} | {ms('shooting.bracket_beta.total_s')} "
        f"| {n('shooting.bisect_beta.iterations')} | "
        + ", ".join(f"{s.split('.')[1]} {ms(s)}" for s in stages) + " |",
        "self time per operation, largest first:",
    ]
    selfs = sorted(((v, k) for k, v in layer.items()
                    if v is not None and (k.endswith(".s") or k.endswith("self_s"))),
                   reverse=True)
    lines.extend(f"  {k:<42} {1e3 * v:10.2f} ms" for v, k in selfs[:12])
    missing = sorted(k for k, v in layer.items() if v is None)
    if missing:
        lines.append("missing: " + ", ".join(missing))
    lines.append("per-layer metrics (per operation):")
    lines.extend(f"  {k:<46} {'missing' if v is None else f'{v:.6g}'}"
                 for k, v in layer.items())
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    import_package()
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in workloads.WORKLOADS:
            parser.error(f"unknown workload {name!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)} or all")
    results = {}
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, args.trace)
        print("\n".join(lines), flush=True)
        results[name] = result
    if len(results) == 1:
        final = results[names[0]]
    else:
        # one command for every workload: metrics prefixed by workload name
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
