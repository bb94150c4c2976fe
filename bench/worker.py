"""One benchmark process: import, generate inputs, warm up, measure, report.

``run.py`` starts this in a fresh interpreter per measurement, so set-up
time and peak memory belong to one workload.  The last line of stdout is a
JSON summary.  ``ready`` in it is the ``time.monotonic()`` reading at the
end of the warm-up operation; the parent subtracts its own reading taken
just before it spawned this process (both use the system-wide
CLOCK_MONOTONIC).

Modes:
  --setup-only  stop after the warm-up operation.
  (default)     repeat whole rounds until --seconds have passed, timing each
                operation; tracing is off.
  --trace       run one warm round, one untraced round and the same round
                traced, and report per-layer metrics.  The amount of work
                is fixed, so counts repeat exactly for a seed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback

_start = time.perf_counter()
import toptrap  # noqa: E402

IMPORT_S = time.perf_counter() - _start

import numpy as np  # noqa: E402

import workloads  # noqa: E402

# Timings are scaled to a fixed machine speed.  On shared hosts the speed
# of identical work drifts by up to 2x over tens of seconds, and a
# calibration kernel run between operations follows that drift; its time
# against CALIBRATION_REF_S gives the scale factor (see ``measure``).
# CALIBRATION_REF_S is a round figure for the kernel's time on the 2-vCPU
# Intel Xeon VM the bounds were set on, where 0.3 to 0.6 ms was observed.
CALIBRATION_REF_S = 500e-6
CALIBRATION_WINDOW_S = 1.0
CALIBRATION_REPS = 3
_CALIBRATION_ARRAY = np.arange(4096.0)
MAX_REPORTED_FAILURES = 5
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")


class Tally:
    """Attempts, failures and the largest route delta the checks measured."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.max_delta = 0.0
        self.finished = None

    def attempt(self, op, timer=None):
        """Run and check one operation; returns (seconds, succeeded).

        ``finished`` keeps the monotonic time at which the run, before its
        check, last ended.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            if timer is None:
                output = op.run()
            else:
                with timer():
                    output = op.run()
        except Exception:  # an operation that raises is a failed operation
            elapsed = time.perf_counter() - start
            self._fail(op, traceback.format_exc(limit=3))
            return elapsed, False
        elapsed = time.perf_counter() - start
        self.finished = time.monotonic()
        try:
            delta = op.check(output)
        except Exception as exc:  # a check that cannot read the output fails it too
            self._fail(op, f"{type(exc).__name__}: {exc}")
            return elapsed, False
        if delta is not None:
            self.max_delta = max(self.max_delta, delta)
        return elapsed, True

    def _fail(self, op, message):
        self.failed += 1
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append(f"{op.label}: {message.strip()}")


def calibration_s() -> float:
    """Median time of a fixed interpreter-plus-numpy kernel: the current machine speed."""
    times = []
    for _ in range(CALIBRATION_REPS):
        start = time.perf_counter()
        total = 0
        for i in range(5000):
            total += i * i
        np.sin(_CALIBRATION_ARRAY).sum()
        times.append(time.perf_counter() - start)
    return sorted(times)[CALIBRATION_REPS // 2]


def measure(ops, seconds, tally):
    """Repeat whole rounds until ``seconds`` have passed.

    Returns raw per-op times, the same times scaled to the calibration
    speed, and the work units completed.  The kernel runs after every
    operation; an operation is scaled by the median kernel time within
    CALIBRATION_WINDOW_S of its end, which follows drift over seconds
    without adding the noise of a single short kernel run to long operations.
    """
    raw, ends, kernels, units = [], [], [], 0
    deadline = time.perf_counter() + seconds
    while True:
        for op in ops:
            elapsed, ok = tally.attempt(op)
            ends.append(time.perf_counter())
            kernels.append(calibration_s())
            raw.append(elapsed)
            units += op.units if ok else 0
        if time.perf_counter() >= deadline:
            break
    ends = np.array(ends)
    lo = np.searchsorted(ends, ends - CALIBRATION_WINDOW_S, side="left")
    hi = np.searchsorted(ends, ends + CALIBRATION_WINDOW_S, side="right")
    local = np.array([np.median(kernels[a:b]) for a, b in zip(lo, hi)])
    scaled = np.array(raw) * (CALIBRATION_REF_S / local)
    return raw, scaled.tolist(), units


def trace(ops, tally):
    """A warm round, an untraced round, then a traced one; per-layer metrics from the last."""
    import spans

    tracer = spans.Tracer()
    for op in ops:
        tally.attempt(op)
    untraced_s = sum(tally.attempt(op)[0] for op in ops)
    with tracer.installed():
        traced_s = sum(tally.attempt(op, tracer.op)[0] for op in ops)
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    return tracer, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(scratch)
    try:
        ops = workloads.make(args.workload, args.seed, scratch)
        tally = Tally()
        tally.attempt(ops[0])  # warm-up: untimed, but checked and counted
        summary = {"ready": tally.finished, "import_s": IMPORT_S, "speed": CALIBRATION_REF_S / calibration_s()}
        if args.setup_only:
            print(json.dumps(summary))
            return 0
        if args.trace:
            path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv")
            tracer, metrics = trace(ops, tally)
            tracer.dump(path)
            metrics["integrate.max_delta"] = (tally.max_delta, "prob")
            metrics["import.toptrap_s"] = (IMPORT_S, "s")
            summary["metrics"] = metrics
            summary["missing_sites"] = tracer.missing
            summary["spans"] = os.path.relpath(path, os.path.dirname(BENCH_DIR))
        else:
            raw, scaled, units = measure(ops, args.seconds, tally)
            summary.update(
                samples=len(raw),
                units=units,
                busy_s=float(np.sum(scaled)),
                p50_s=float(np.percentile(scaled, 50)),
                p90_s=float(np.percentile(scaled, 90)),
                raw_busy_s=float(np.sum(raw)),
                raw_p50_s=float(np.percentile(raw, 50)),
                raw_p90_s=float(np.percentile(raw, 90)),
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            )
        summary.update(
            attempted=tally.attempted,
            failed=tally.failed,
            failures=tally.failures,
            unit=workloads.WORKLOADS[args.workload].unit,
            op_size=workloads.WORKLOADS[args.workload].size,
            ops_per_round=len(ops),
            numpy=np.__version__,
            toptrap=toptrap.__version__,
        )
        print(json.dumps(summary))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
