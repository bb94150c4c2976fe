"""Alternating base/change benchmark pairs: each end-to-end metric's median, IQR and win count.

    python3 tools/bench_pairs.py --base HEAD~1 --workload cli_session --seeds 101-110 --seconds 10

``--base`` is a git revision of the repository this script sits in, unpacked with ``git archive`` into a temporary
directory that is removed at exit; the change is a copy of this checkout's working tree there (the files git tracks
or would track, uncommitted edits included), so that both sides run from fresh copies in the same place.  For each
seed, one ``bench/run.py --trace 0`` run of each side, in turns: the base goes first on the first seed, the change
on the second, and so on, so a host that speeds up or slows down over the runs favours neither.  Directions come
from the change's ``BENCHMARK.json`` ``end_to_end`` list.  A pair counts as a win where the change's value is
strictly better.

Standard library only.  The script runs ``bench/run.py`` and changes nothing in either tree.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(text: str) -> list[int]:
    """``101-110`` or ``1,3,5`` (or both, comma-separated) as a list of ints."""
    out = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        out += range(int(low), int(high or low) + 1)
    return out


def unpack(rev: str, tree: str) -> str:
    """``tree``, a new directory holding the files of ``rev``, from ``git archive``."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev], check=True, stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return tree


def copy_worktree(tree: str) -> str:
    """``tree``, a new directory holding this checkout's tracked and untracked, not ignored, files as they are now."""
    listed = subprocess.run(["git", "-C", ROOT, "ls-files", "-z", "-co", "--exclude-standard"], check=True,
                            stdout=subprocess.PIPE, text=True).stdout
    for name in filter(None, listed.split("\0")):
        if os.path.isfile(os.path.join(ROOT, name)):  # a tracked file deleted in the working tree is left out
            os.makedirs(os.path.dirname(os.path.join(tree, name)), exist_ok=True)
            shutil.copy2(os.path.join(ROOT, name), os.path.join(tree, name))
    return tree


def run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end metrics of one ``bench/run.py`` run in ``tree``, as name -> value."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds)]
    done = subprocess.run(command + ["--trace", "0"], cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: {' '.join(command)} in {tree} exited {done.returncode}")
    return {name: metric["value"] for name, metric in json.loads(lines[-1])["metrics"].items()}


def directions(tree: str) -> dict:
    """metric -> "higher" or "lower", from the tree's BENCHMARK.json."""
    with open(os.path.join(tree, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {metric["name"]: metric["better"] for metric in json.load(handle)["end_to_end"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    return tuple(statistics.quantiles(values, n=4)) if len(values) > 1 else (values[0],) * 3


def report(pairs: list[tuple[dict, dict]], better: dict) -> list[str]:
    """One line per metric: base and change median and IQR (q3 - q1), change/base, and pairs won by the change."""
    lines = [f"{'metric':<12} {'base':>11} {'IQR':>10} {'change':>11} {'IQR':>10} {'ratio':>7} {'won':>6}"]
    for name in pairs[0][0]:
        base, change = [a[name] for a, _ in pairs], [b[name] for _, b in pairs]
        (b1, b2, b3), (c1, c2, c3) = quartiles(base), quartiles(change)
        higher = better[name] == "higher"
        won = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
        ratio = f"{c2 / b2:.3f}" if b2 else "-"
        spread = f"{b2:>11.5g} {b3 - b1:>10.3g} {c2:>11.5g} {c3 - c1:>10.3g}"
        lines.append(f"{name:<12} {spread} {ratio:>7} {won:>3}/{len(pairs)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against, e.g. HEAD~1")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True, help="e.g. 101-110 or 1,3,5")
    parser.add_argument("--seconds", type=float, default=10.0, help="per run (default 10)")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the cleanup below on a kill too
    scratch = tempfile.mkdtemp(prefix="bench_pairs-")
    try:
        base = unpack(args.base, os.path.join(scratch, "base"))
        change = copy_worktree(os.path.join(scratch, "change"))
        better = directions(change)
        pairs = []
        for k, seed in enumerate(args.seeds):
            order = [(base, 0), (change, 1)] if k % 2 == 0 else [(change, 1), (base, 0)]
            pair = [{}, {}]
            for tree, side in order:
                pair[side] = run(tree, args.workload, seed, args.seconds)
            pairs.append(tuple(pair))
            work = [p["work_per_s"] for p in pair]
            print(f"seed {seed}: work_per_s base {work[0]:.5g} change {work[1]:.5g}", file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(scratch)
    runs = f"{len(pairs)} alternating pairs of {args.seconds:g}-s runs, seeds {','.join(map(str, args.seeds))}"
    print(f"{args.workload}: {runs}; base {args.base}, change working tree; medians")
    print("\n".join(report(pairs, better)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
