"""Measure a change against its parent with perfbench and write a BENCH file.

Usage, from anywhere:

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_N.json \
        --workload NAME --seed S --seconds T --pairs P [--trace]

DIR are two checkouts (the parent commit and the change).  Each pair runs
``perfbench/run.py`` once in each checkout, alternating which side goes
first, and reads the record run.py leaves in
.perfbench_work/result-NAME-seedS-trace0.json.  --trace adds one traced run
(--trace 1) on each side for the per-layer metrics.  The BENCH file keeps,
per workload, the machine and commit of each side, every run's end-to-end
metrics, their q1/median/q3, and for each metric the acceptance reading
below; an existing file gains the workload, so several workloads share one
file.

Every end-to-end metric is lower-is-better and has a relative bound in the
BENCHMARK.json at the root of this repository.  Each metric is read as:

- gain: the change is lower in at least nine of every ten pairs, and its
  median is below the parent's by more than the parent's interquartile
  range (q3 - q1);
- worse: the change's median is above the parent's by more than the bound
  (as a share of the parent's median);
- unresolved: neither, and the parent's interquartile range is wider than
  the bound's share of its median, too wide to tell a change of that size,
  unless every run of the change is below every run of the parent;
- within bound: otherwise.

If any run on either side reports `correct: false` or failed operations,
the script writes nothing and exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

END_TO_END = ("setup_s", "wall_s", "op_p50_s", "op_p90_s", "peak_rss_mb")
SIDES = ("parent", "change")
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def perfbench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run.py run in the checkout root; its full record."""
    subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, check=True, stdout=subprocess.DEVNULL,
    )
    path = root / ".perfbench_work" / f"result-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": q1, "median": median, "q3": q3}


def bounds() -> dict[str, float]:
    """The relative bound of each end-to-end metric, from BENCHMARK.json."""
    return {m["name"]: m["bound"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}


def reading(parent: list[float], change: list[float], bound: float) -> dict:
    """The acceptance reading of one metric over paired runs (see above)."""
    before, after = quartiles(parent), quartiles(change)
    iqr = before["q3"] - before["q1"]
    diff = after["median"] - before["median"]
    wins = sum(c < p for p, c in zip(parent, change))  # ties count for neither side
    if wins >= math.ceil(0.9 * len(parent)) and -diff > iqr:
        verdict = "gain"
    elif diff > bound * before["median"]:
        verdict = "worse"
    elif iqr > bound * before["median"] and max(change) >= min(parent):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"parent_iqr": iqr, "median_diff": diff, "change_wins": wins, "reading": verdict}


def faults(records: list[dict]) -> list[str]:
    """Why any of the records does not count: wrong output or failed ops."""
    return [
        f"{r['environment']['git_commit']}: correct {r['result']['correct']}, failed {r['result']['failed']}"
        for r in records
        if not r["result"]["correct"] or r["result"]["failed"]
    ]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    records: dict[str, list[dict]] = {side: [] for side in SIDES}
    for i in range(args.pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            record = perfbench(roots[side], args.workload, args.seed, args.seconds, 0)
            records[side].append(record)
            print(f"pair {i + 1} {side}: wall_s {record['metrics']['wall_s']:.4f}", file=sys.stderr)

    traced = {}
    if args.trace:
        traced = {side: perfbench(roots[side], args.workload, args.seed, args.seconds, 1) for side in SIDES}
    bad = faults([r for side in SIDES for r in records[side]] + list(traced.values()))
    if bad:
        print("not written; runs that do not count:", *bad, sep="\n  ", file=sys.stderr)
        return 1

    entry = {"seed": args.seed, "seconds": args.seconds, "pairs": args.pairs}
    for side in SIDES:
        env = records[side][0]["environment"]
        runs = [{name: r["metrics"][name] for name in END_TO_END} for r in records[side]]
        entry[side] = {
            **{key: env[key] for key in ("git_commit", "python", "numpy", "nproc", "cpu_model")},
            "correct": all(r["result"]["correct"] for r in records[side]),
            "failed": sum(r["result"]["failed"] for r in records[side]),
            "summary": {name: quartiles([run[name] for run in runs]) for name in END_TO_END},
            "runs": runs,
        }
    limits = bounds()
    entry["acceptance"] = {
        name: reading(
            [run[name] for run in entry["parent"]["runs"]],
            [run[name] for run in entry["change"]["runs"]],
            limits[name],
        )
        for name in END_TO_END
    }
    if traced:
        entry["per_layer"] = {side: traced[side]["metrics"] for side in SIDES}

    bench = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
    bench["workloads"][args.workload] = entry
    args.out.write_text(json.dumps(bench, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
