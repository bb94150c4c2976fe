"""Benchmark entry point: one workload, one seed, one result line.

    python3 bench/run.py --workload param_map --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is imported from ``src/``;
nothing is installed.  Each measurement runs in a fresh, single-threaded
worker process (``worker.py``), so set-up time and peak memory belong to
one workload.  With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` a traced worker gives the per-layer metrics instead.  The
last line of stdout is the JSON result; the line before it describes the
run: machine, workload unit and size, sample counts, failures.

This script uses the standard library only and exits non-zero, without a
result, when the checkout holds no ``src/toptrap`` or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("param_map", "cloud_scan", "oracle_check", "cli_session")
# Set-up is measured this many times per run (the measured worker plus
# set-up-only workers) and reported as the median.
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """A worker failed, timed out, or printed no summary."""


def worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for knob in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[knob] = "1"
    # The ROADMAP removes this knob; the benchmark must not depend on it.
    env.pop("TOPTRAP_THREADS", None)
    return env


def spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run one worker; returns (spawn time, its JSON summary)."""
    command = [sys.executable, os.path.join(BENCH_DIR, "worker.py")] + args
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    spawned = time.monotonic()
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} timed out") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited {done.returncode}")
    return spawned, json.loads(lines[-1])


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model or platform.machine(),
        "python": platform.python_version(),
    }


def run(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    """Returns (result, info) for one run."""
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed), "--seconds", repr(seconds)]
    info = {"workload": workload, "seed": seed, "machine": machine()}
    if traced:
        _, summary = spawn(base + ["--trace"], deadline)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in summary["metrics"].items()}
        info.update(missing_sites=summary["missing_sites"], spans=summary["spans"])
    else:
        spawned, summary = spawn(base, deadline)
        raw_setups = [summary["ready"] - spawned]
        speeds = [summary["speed"]]
        for _ in range(SETUP_SAMPLES - 1):
            spawned_again, ready = spawn(base + ["--setup-only"], deadline)
            raw_setups.append(ready["ready"] - spawned_again)
            speeds.append(ready["speed"])
        setups = [t * speed for t, speed in zip(raw_setups, speeds)]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "work_per_s": {"value": summary["units"] / summary["busy_s"], "unit": "1/s"},
            "op_p50_s": {"value": summary["p50_s"], "unit": "s"},
            "op_p90_s": {"value": summary["p90_s"], "unit": "s"},
            "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MB"},
            "ok_ratio": {"value": 1.0 - summary["failed"] / summary["attempted"], "unit": "ratio"},
        }
        info["raw"] = {
            "setup_s": raw_setups,
            "work_per_s": summary["units"] / summary["raw_busy_s"],
            "op_p50_s": summary["raw_p50_s"],
            "op_p90_s": summary["raw_p90_s"],
        }
        info.update(samples=summary["samples"], setup_samples_s=setups, speed_at_setup=speeds)
    info["machine"]["numpy"] = summary["numpy"]
    info.update(
        unit=summary["unit"],
        op_size=summary["op_size"],
        ops_per_round=summary["ops_per_round"],
        attempted=summary["attempted"],
        failed=summary["failed"],
        failed_ratio=summary["failed"] / summary["attempted"],
        failures=summary["failures"],
    )
    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one toptrap benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "toptrap", "__init__.py")):
        print(f"bench: no src/toptrap under {ROOT}; run from a toptrap checkout", file=sys.stderr)
        return 2
    try:
        result, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for failure in info["failures"]:
        print(f"bench: failed: {failure}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
