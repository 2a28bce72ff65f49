"""zdgraph benchmark: run one workload for a fixed time and report its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in workloads.py.  Each round of a workload is one
fresh worker process (worker.py) that imports zdgraph from the checkout's
src/ and runs the workload's operations one after another through
zdgraph.cli.run: one client, closed loop, ``--jobs 1``.  Rounds repeat until
the next one would end after S seconds.  Every operation's exit code and
stdout (and --report file) are checked against golden.json, which holds the
outputs recorded from the program by record_golden.py.

--trace 0 reports the end-to-end metrics of untraced rounds.  --trace 1
alternates untraced and traced rounds and reports the per-layer metrics of
the traced ones (see tracer.py), plus the ratio of traced to untraced wall
time.  The last stdout line is the JSON result; the lines before it give
the same numbers for reading, an environment record and the workload's
input properties.  The full record is also written to
.perfbench_work/result-WORKLOAD-seedN-traceT.json in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, make_plan

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
TIME_LIMIT_S = 170  # a worker still running this long after the start is killed
WORKDIR = ".perfbench_work"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mb": "MB",
}


class Checkout:
    def __init__(self, root: Path):
        self.root = root
        self.workdir = root / WORKDIR
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.deadline = time.monotonic() + TIME_LIMIT_S

    def probe(self) -> tuple[dict | None, str]:
        """A worker that only imports zdgraph, to time set-up."""
        return self._launch(["--probe"])

    def round(self, workload: str, seed: int, traced: bool) -> tuple[dict | None, str]:
        return self._launch([workload, str(seed), str(int(traced))], [str(self.workdir)])

    def _launch(self, head: list[str], tail: list[str] = ()) -> tuple[dict | None, str]:
        """Run worker.py in a fresh interpreter; return its result and stderr."""
        launch_ns = time.monotonic_ns()
        with subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *head, str(launch_ns), *tail],
            cwd=self.root,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        ) as proc:
            try:
                out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                out, err = proc.communicate()
                err += f"\nworker killed {TIME_LIMIT_S} s after the benchmark started"
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return None, err
        return json.loads(lines[-1]), err


def expected_output(workload: str, plan, op, golden: dict) -> dict | None:
    """The recorded rc, stdout hash and --report line hashes of one operation."""
    if workload != "conjecture1":
        return golden[workload].get(op.key)
    entries = [golden["conjecture1"].get(line) for line in plan.instances]
    if None in entries:
        return None
    lines = [entry["line"] for entry in entries]
    verdicts = [line.split()[0] for line in lines]
    summary = (
        f"checked {len(lines)}: {verdicts.count('supported')} supported, "
        f"{verdicts.count('counterexample')} counterexample, {verdicts.count('skipped')} skipped"
    )
    stdout = "".join(line + "\n" for line in [*lines, summary])
    return {
        "rc": 0,
        "sha256": hashlib.sha256(stdout.encode()).hexdigest(),
        "report": [entry["report_sha256"] for entry in entries],
    }


def failed_ops(workload: str, plan, result: dict | None, golden: dict) -> list[str]:
    """One message per operation of the round that did not produce its recorded output."""
    if result is None:
        return [f"{op.key}: worker process failed" for op in plan.ops]
    failures = []
    for op, got in zip(plan.ops, result["ops"]):
        problem = got.get("error")
        want = expected_output(workload, plan, op, golden)
        if problem:
            pass
        elif want is None:
            problem = "no recorded output for this operation"
        elif got["rc"] != want["rc"]:
            problem = f"exit code {got['rc']}, recorded {want['rc']}"
        elif got["sha256"] != want["sha256"]:
            problem = "stdout differs from the recorded output"
        elif got.get("report") != want.get("report"):
            problem = "--report differs from the recorded output"
        if problem:
            failures.append(f"{op.key[:120]}: {problem}")
    failures += [f"{op.key[:120]}: not run" for op in plan.ops[len(result["ops"]) :]]
    return failures


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q a multiple of 10), as statistics.quantiles gives it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[q // 10 - 1]


def end_to_end(setups: list[int], rounds: list[dict]) -> dict[str, float]:
    latencies = [op["ns"] / 1e9 for r in rounds for op in r["ops"]]
    return {
        "setup_s": statistics.median(setups) / 1e9,
        "wall_s": statistics.median(r["wall_ns"] for r in rounds) / 1e9,
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": quantile(latencies, 90),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in rounds) / 1024,
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    names = traced[0]["layers"].keys()
    metrics = {name: statistics.median(r["layers"][name] for r in traced) for name in names}
    metrics["trace.overhead_ratio"] = statistics.median(
        r["wall_ns"] for r in traced
    ) / statistics.median(r["wall_ns"] for r in untraced)
    return metrics


def git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "share")):
        return "ratio"
    if name.endswith("bytes"):
        return "B"
    return "count"


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "zdgraph" / "__init__.py").is_file():
        print(f"error: no zdgraph sources under {root / 'src'}", file=sys.stderr)
        return 2
    golden = json.loads((HERE / "golden.json").read_text())
    checkout = Checkout(root)
    checkout.workdir.mkdir(exist_ok=True)
    plan = make_plan(args.workload, args.seed)

    # The first import writes bytecode caches; users pay that once, so it is not timed.
    first, err = checkout.probe()
    if first is None or Path(first["zdgraph"]).resolve() != (root / "src" / "zdgraph").resolve():
        print(f"error: cannot import zdgraph from {root / 'src'}\n{err}", file=sys.stderr)
        return 2
    setups = []
    for _ in range(SETUP_PROBES):
        probe, err = checkout.probe()
        if probe is None:
            print(f"error: set-up probe failed\n{err}", file=sys.stderr)
            return 2
        setups.append(probe["setup_ns"])

    untraced: list[dict] = []
    traced: list[dict] = []
    failures: list[str] = []
    attempted = 0
    durations: list[float] = []
    start = time.monotonic()
    while True:
        tracing_round = bool(args.trace) and len(untraced) > len(traced)
        enough = untraced and (traced or not args.trace)
        elapsed = time.monotonic() - start
        if enough and elapsed + statistics.median(durations) > args.seconds:
            break
        if not enough and elapsed > args.seconds:
            print("error: no successful round of each kind within the run", file=sys.stderr)
            return 1
        began = time.monotonic()
        result, err = checkout.round(args.workload, args.seed, tracing_round)
        durations.append(time.monotonic() - began)
        attempted += len(plan.ops)
        failures += failed_ops(args.workload, plan, result, golden)
        if result is None:
            print(err, file=sys.stderr)
            if not (untraced or traced):
                print("error: the first round failed", file=sys.stderr)
                return 1
            continue
        setups.append(result["setup_ns"])
        (traced if tracing_round else untraced).append(result)

    if args.trace:
        metrics = per_layer(untraced, traced)
    else:
        metrics = end_to_end(setups, untraced)
    shown = {**metrics, "fail_ratio": len(failures) / attempted}
    environment = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "rounds": {"untraced": len(untraced), "traced": len(traced)},
        "python": first["python"],
        "numpy": first["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(root),
        "wall_s": statistics.median(r["wall_ns"] for r in untraced) / 1e9,
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in untraced) / 1024,
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    record = {
        "environment": environment,
        "properties": plan.properties,
        "failures": failures,
        "metrics": shown,
        "result": result,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (checkout.workdir / name).write_text(json.dumps(record, indent=2) + "\n")

    for message in failures[:20]:
        print(f"failed: {message}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {len(untraced)} untraced and {len(traced)} traced "
        f"rounds, {attempted} operations, {len(failures)} failed"
    )
    for key, value in shown.items():
        print(f"  {key:<36} {value:>14.6g} {unit_of(key)}")
    print("environment " + json.dumps(environment))
    print("properties " + json.dumps(plan.properties))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
