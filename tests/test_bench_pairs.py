"""The pure parts of ``tools/bench_pairs.py``: seed lists, quartiles and the win count of its report.

Nothing here runs the benchmark; the script is loaded from its file, as ``tools`` is not a package.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_seeds_take_ranges_and_single_values():
    assert bench_pairs.seeds("101-103,7") == [101, 102, 103, 7]


def test_quartiles_of_one_value():
    assert bench_pairs.quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_directions_come_from_benchmark_json():
    better = bench_pairs.directions(str(ROOT))
    assert better["work_per_s"] == "higher" and better["op_p50_s"] == "lower"


def test_report_counts_strict_wins_in_each_metric_direction():
    """Per pair (base, change): work_per_s wins, ties, loses, wins; op_p50_s wins, ties, loses, loses.  A tie counts
    for neither side, and a lower op_p50_s is a win because BENCHMARK.json says lower is better."""
    work = [(10.0, 12.0), (10.0, 10.0), (10.0, 8.0), (10.0, 11.0)]
    p50 = [(1.0, 0.9), (1.0, 1.0), (1.0, 1.1), (1.0, 1.2)]
    pairs = [
        ({"work_per_s": wb, "op_p50_s": pb}, {"work_per_s": wc, "op_p50_s": pc}) for (wb, wc), (pb, pc) in zip(work, p50)
    ]
    header, *lines = bench_pairs.report(pairs, bench_pairs.directions(str(ROOT)))
    assert header.split()[-1] == "won"
    assert {line.split()[0]: line.split()[-1] for line in lines} == {"work_per_s": "2/4", "op_p50_s": "1/4"}
