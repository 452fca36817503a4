"""tatekit benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {division,series,hahn,cli}
        --seed N --seconds S --trace {0,1}

One client runs a closed loop: the next op starts when the previous one
has returned and been checked.  Ops come in passes (see ``workloads``).
The first round runs whole passes until its ops have taken
``--seconds / ROUNDS`` and checks every answer against ``oracles``
outside the timed region; the other rounds replay the same ops and must
reproduce the answers, so the ops take about ``--seconds`` in all.

Times are given at reference speed (see ``SpeedClock``): every few
milliseconds the run times a fixed pure-Python kernel (for cli, the
start of a bare interpreter every few processes), and each op's time is
scaled by the yardstick's reference time over its measured time around
the op.  On a shared machine the speed a process gets changes by up to
2x for seconds at a time; the yardstick slows with it, so the scaled
times hold still while a slower library still reads slower.
An op's latency is the median of its rounds.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` replays a
fixed number of passes untraced and then traced, and prints the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A results file with the environment, the
seed and (for division) every op's latency and input size is written
under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from fractions import Fraction
from random import Random
from time import perf_counter

import tracer as tr
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

# Times each op runs, in rounds spread over the run.
ROUNDS = 4
# Set-up runs once before the first timed op and this many more times
# before each round; the median is reported.
SETUPS_PER_ROUND = 4
# Bare-interpreter and import timings for the traced cli run.
STARTUP_REPEATS = 5
# Passes the peak-memory child runs.
RSS_PASSES = 2

# Reference-speed calibration.  The library workloads are scaled by a
# fixed pure-Python kernel, cli by the start of a bare interpreter, which
# is most of a CLI process.  A reference time is the yardstick's time on
# a 2-vCPU x86-64 host with Python 3.11.7 when no other tenant loads the
# core; the yardstick is re-timed once the ops since its last timing
# have taken the given wall time.  In between, the machine's speed is
# taken as constant; it changes on a scale of seconds.
REFERENCE_KERNEL_S = 0.0003
KERNEL_REPEATS = 3
KERNEL_EVERY_S = 0.02
REFERENCE_START_S = 0.077
START_EVERY_S = 0.5

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, or None outside one."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _kernel_operands():
    rng = Random(0)
    return [{Fraction(rng.randint(-24, 48), rng.choice((1, 2, 3))): rng.randint(1, 4)
             for _ in range(10)} for _ in range(2)]


KERNEL_A, KERNEL_B = _kernel_operands()


def kernel_seconds() -> float:
    """Time of the calibration kernel, a Laurent-style product of two
    fixed 10-term dicts with Fraction exponents mod 5: the same kind of
    interpreter work as the library's, independent of the library.  The
    fastest of KERNEL_REPEATS back-to-back runs, so the caches the op
    before it left cold do not count."""
    best = math.inf
    for _ in range(KERNEL_REPEATS):
        start = perf_counter()
        out: dict = {}
        for e1, c1 in KERNEL_A.items():
            for e2, c2 in KERNEL_B.items():
                e = e1 + e2
                out[e] = (out.get(e, 0) + c1 * c2) % 5
        best = min(best, perf_counter() - start)
    return best


def start_seconds() -> float:
    """Time to start and stop a bare interpreter, ``python -c pass``."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
    return perf_counter() - start


class SpeedClock:
    """Rescales measured times to reference speed.

    ``add`` files a raw time into a list; the time is appended, scaled,
    once the yardstick has been timed after it.  Each scaled time uses
    the mean of the yardstick's times just before and just after its
    segment, a segment being the ops of at least ``every`` seconds."""

    def __init__(self, yardstick, reference: float, every: float):
        self.yardstick, self.reference, self.every = yardstick, reference, every
        self.last = yardstick()
        self.mark = perf_counter()
        self.pending: list[tuple[list, float]] = []
        self.speeds: list[float] = []

    def add(self, into: list, raw: float) -> None:
        self.pending.append((into, raw))
        if perf_counter() - self.mark >= self.every:
            self.flush()

    def flush(self) -> None:
        now = self.yardstick()
        speed = 2 * self.reference / (self.last + now)
        for into, raw in self.pending:
            into.append(raw * speed)
        self.speeds.append(speed)
        self.pending = []
        self.last = now
        self.mark = perf_counter()


def timed_call(wl, op, tracer=None, op_id=0):
    """Build the op's inputs, then time the library call alone.
    Returns (inputs, seconds, result, error or None)."""
    args = wl.prepare(op)
    result = error = None
    if tracer is not None:
        tracer.begin_op(op_id)
    start = perf_counter()
    try:
        result = wl.run(op, args)
    except Exception as exc:  # a failed op is counted, the run goes on
        error = f"raised {type(exc).__name__}: {exc}"
    finally:
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.end_op()
    return args, elapsed, result, error


def check(wl, op, args, result, error):
    """The op's error, or the oracle's verdict on its answer."""
    if error is not None:
        return error
    try:
        return wl.check(op, args, result)
    except Exception as exc:  # a broken answer can break the oracle
        return f"check raised {type(exc).__name__}: {exc}"


def set_up(name: str, seed: int):
    """Import tatekit, generate the first pass, warm caches; returns the
    workload and the time taken."""
    start = perf_counter()
    lib = workloads.import_library()
    wl = workloads.WORKLOADS[name](lib, ROOT)
    wl.warm_up()
    for op in wl.make_pass(Random(seed)):
        wl.prepare(op)
    return wl, perf_counter() - start


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]


def peak_rss_mb(wl, seed: int) -> float:
    """Peak resident memory of the library over a fixed amount of work,
    without the harness and its per-op records: the largest peak among
    ``rss_child.py`` processes.  For cli each runs one CLI call of
    RSS_PASSES passes; for the others one runs RSS_PASSES passes."""
    rng = Random(seed)
    if wl.name == "cli":
        calls = [["cli"] + wl.cli_args(op)
                 for _ in range(RSS_PASSES) for op in wl.make_pass(rng)]
    else:
        calls = [[wl.name, str(seed), str(RSS_PASSES)]]
    peak = 0
    for argv in calls:
        done = subprocess.run([sys.executable, os.path.join(HERE, "rss_child.py")] + argv,
                              capture_output=True, text=True, check=True, timeout=170)
        peak = max(peak, int(done.stderr.split()[-1]))
    return peak / 1024.0


def pin_to_one_cpu() -> None:
    """Keep the harness and its children on one CPU, so the kernel is
    timed on the core the ops run on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def measure(args, report: dict) -> tuple[dict, int, int]:
    pin_to_one_cpu()
    if args.workload == "cli":
        clock = SpeedClock(start_seconds, REFERENCE_START_S, START_EVERY_S)
    else:
        clock = SpeedClock(kernel_seconds, REFERENCE_KERNEL_S, KERNEL_EVERY_S)
    setups, raw_setups = [], []

    def timed_set_up():
        clock.flush()
        wl, took = set_up(args.workload, args.seed)
        clock.add(setups, took)
        clock.flush()
        raw_setups.append(took)
        return wl

    def set_up_again():
        # Spread over the run, so one burst of load does not move them
        # all; the workload they build is dropped.
        for _ in range(SETUPS_PER_ROUND):
            gc.collect()  # drop the previous set-up's modules first
            timed_set_up()
        gc.collect()

    wl = timed_set_up()
    set_up_again()
    # Round 0 draws and checks whole passes until its ops have taken a
    # share of the measured time; the later rounds replay the same ops
    # from the seed, spread over the run, and must give the same answers.
    # An op's latency is the median of its rounds at reference speed.
    times, raw, digests, errors, records, failures = [], [], [], [], [], []
    rng = Random(args.seed)
    passes = 0
    timed = 0.0
    while passes == 0 or timed < args.seconds / ROUNDS:
        for op in wl.make_pass(rng):
            op_args, elapsed, result, error = timed_call(wl, op)
            times.append([])
            clock.add(times[-1], elapsed)
            timed += elapsed
            error = check(wl, op, op_args, result, error)
            raw.append([elapsed])
            digests.append(None if result is None else hash(result))
            errors.append(error)
            records.append(wl.record(op))
            if error is not None:
                failures.append({"kind": op.kind, "error": error, "data": repr(op.data)})
        passes += 1
    clock.flush()
    for _ in range(ROUNDS - 1):
        set_up_again()
        rng = Random(args.seed)
        ops = (op for _ in range(passes) for op in wl.make_pass(rng))
        for i, op in enumerate(ops):
            _, elapsed, result, error = timed_call(wl, op)
            clock.add(times[i], elapsed)
            raw[i].append(elapsed)
            if errors[i] is None and (error is not None or hash(result) != digests[i]):
                errors[i] = error or "a repeat gave a different answer"
                failures.append({"kind": op.kind, "error": errors[i], "data": repr(op.data)})
        clock.flush()
    latencies = [statistics.median(t) for t in times]
    raw_latencies = [statistics.median(t) for t in raw]
    records = [dict(r, latency_ms=latencies[i] * 1e3, rounds_raw_ms=[x * 1e3 for x in raw[i]],
                    ok=errors[i] is None)
               for i, r in enumerate(records) if r is not None]
    attempted, failed = len(times), sum(e is not None for e in errors)

    def summary(lat, setup_times):
        ordered = sorted(lat)
        return {
            "ops_per_s": (attempted - failed) / sum(lat),
            "op_p50_ms": statistics.median(ordered) * 1e3,
            "op_p95_ms": percentile(ordered, 0.95) * 1e3,
            "setup_s": statistics.median(setup_times),
        }

    metrics = summary(latencies, setups)
    metrics["peak_rss_mb"] = peak_rss_mb(wl, args.seed)
    unscaled = summary(raw_latencies, raw_setups)
    speed = statistics.median(clock.speeds)
    report.update(passes=passes, rounds=ROUNDS, samples=attempted,
                  timed_s=sum(latencies), setup_runs_s=setups,
                  reference_s=clock.reference, median_speed=speed,
                  unscaled=unscaled, failures=failures[:20], ops=records)
    print(f"passes={passes} rounds={ROUNDS} samples={attempted} failed={failed} "
          f"failed_frac={failed / attempted:.6f}")
    print(f"median speed {speed:.3f} x reference; unscaled: "
          + " ".join(f"{k}={v:.6g}" for k, v in unscaled.items()))
    return metrics, attempted, failed


def measure_traced(args, report: dict) -> tuple[dict, int, int, bool]:
    wl, _ = set_up(args.workload, args.seed)
    rng = Random(args.seed)
    ops = [op for _ in range(wl.trace_passes) for op in wl.make_pass(rng)]
    tracer = tr.Tracer()
    tracer.install()
    try:
        tracer.begin_op(-1)
        wl.warm_up()
        tracer.end_op()
    finally:
        tracer.uninstall()
    # Each op runs untraced, then traced, so drift and warm-up weigh on
    # both sides of the overhead ratio alike.
    plain, traced, errors = [], [], []
    for i, op in enumerate(ops):
        op_args, elapsed, result, error = timed_call(wl, op)
        plain.append(elapsed)
        errors.append(check(wl, op, op_args, result, error))
        tracer.install()
        wl.tracer = tracer
        try:
            op_args, elapsed, result, error = timed_call(wl, op, tracer, i)
        finally:
            tracer.uninstall()
            wl.tracer = None
        traced.append(elapsed)
        errors.append(check(wl, op, op_args, result, error))
    failures = [e for e in errors if e is not None]

    metrics = tr.layer_metrics(tracer)
    metrics["cli.interp_s"], metrics["cli.import_s"] = (
        wl.startup_times(STARTUP_REPEATS) if args.workload == "cli" else (0.0, 0.0))
    metrics["trace.overhead_frac"] = sum(traced) / sum(plain) - 1.0

    # Coverage self-check: every divide the workload issued was traced.
    issued = sum(wl.divides(op) for op in ops)
    covered = metrics["weierstrass.divide.calls"] == issued
    if not covered:
        print(f"trace self-check failed: {metrics['weierstrass.divide.calls']} "
              f"divide spans for {issued} divides issued", file=sys.stderr)
    os.makedirs(RESULTS, exist_ok=True)
    spans_file = os.path.join(RESULTS, f"{stem(args)}.spans.csv.gz")
    tracer.write(spans_file)
    report.update(trace_ops=len(ops), divides_issued=issued, spans=len(tracer.name),
                  spans_file=os.path.relpath(spans_file, ROOT),
                  untraced_s=sum(plain), traced_s=sum(traced), failures=failures[:20])
    print(f"traced ops={len(ops)} spans={len(tracer.name)} failed={len(failures)} "
          f"divides issued={issued} traced={metrics['weierstrass.divide.calls']}")
    return metrics, len(errors), len(failures), covered


def stem(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tatekit benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tatekit", "__init__.py")):
        print(f"tatekit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import tatekit

    if os.path.dirname(os.path.abspath(tatekit.__file__)) != os.path.join(SRC, "tatekit"):
        print(f"tatekit imported from {tatekit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    report = environment(args)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"python={report['python']} nproc={report['nproc']}")
    if args.trace:
        metrics, attempted, failed, covered = measure_traced(args, report)
        units = tr.UNITS
    else:
        metrics, attempted, failed = measure(args, report)
        covered = True
        units = END_TO_END
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    result = {
        "correct": failed == 0 and covered,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    report.update(result, git_commit=git_commit())
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{stem(args)}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
