"""One benchmark round: a fresh process that runs one workload's operations.

Usage: python3 perfbench/worker.py WORKLOAD SEED TRACE LAUNCH_NS WORKDIR
       python3 perfbench/worker.py --probe LAUNCH_NS

The parent puts the checkout's src/ on PYTHONPATH and passes the
time.monotonic_ns() at which it launched this process, so set-up time runs
from interpreter launch to the end of ``import zdgraph``.  The round's
result is printed as one JSON line.
"""

import time

import zdgraph

IMPORTED_NS = time.monotonic_ns()

import hashlib  # noqa: E402  (imported after the set-up clock stops)
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import INSTANCES, REPORT, make_plan  # noqa: E402


def resolve(path: str):
    """The object a dotted path names, importing its module."""
    module, _, attr = path.rpartition(".")
    return getattr(importlib.import_module(module), attr)


def _warm(tracer, spec_text: str) -> int:
    """Run the annihilator scan of one ring through the public API, as a span."""
    spec = zdgraph.parse_ring_spec(spec_text)
    index = tracer.open(tracing.SCAN)
    zdgraph.count_regular_elements(spec)
    model = "int" if isinstance(spec, zdgraph.IntegersMod) else "vector"
    tracer.close(index, model=model, elements=zdgraph.ring_size(spec))
    span = tracer.spans[index]
    return span.end - span.start


def _iso_check(spec_text: str) -> str | None:
    """The oracle graph of a univariate ring must match its basis-route graph."""
    spec = zdgraph.parse_ring_spec(spec_text)
    oracle = zdgraph.oracle_compressed_graph(spec, loops=True)
    basis = zdgraph.graph_from_factorization(
        zdgraph.factor_polynomial(spec.modulus, spec.p), loops=True
    )
    if not zdgraph.graphs_isomorphic(oracle, basis).isomorphic:
        return f"oracle and basis graphs of {spec_text} are not isomorphic"
    return None


def run_round(workload: str, seed: int, trace: bool, workdir: str) -> dict:
    import zdgraph.cli as cli

    plan = make_plan(workload, seed)
    paths = {
        "instances": os.path.join(workdir, f"instances-{os.getpid()}.txt"),
        "report": os.path.join(workdir, f"report-{os.getpid()}.jsonl"),
    }
    if plan.instances:
        with open(paths["instances"], "w", encoding="utf-8") as fh:
            fh.write("\n".join(plan.instances) + "\n")
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install(resolve)
    warmed: set[str] = set()
    results = []
    stdout_bytes = 0
    try:
        for op in plan.ops:
            elapsed = 0
            if tracer:
                for spec in op.warm:
                    if spec not in warmed:
                        elapsed += _warm(tracer, spec)
                        warmed.add(spec)
            argv = [a.format(**paths) if a in (INSTANCES, REPORT) else a for a in op.argv]
            out = io.StringIO()
            entry = {"key": op.key}
            start = time.perf_counter_ns()
            try:
                entry["rc"] = cli.run(argv, out=out)
            except Exception as exc:  # the round goes on; the parent counts the failure
                entry["error"] = f"{type(exc).__name__}: {exc}"
            elapsed += time.perf_counter_ns() - start
            text = out.getvalue()
            stdout_bytes += len(text.encode())
            entry["ns"] = elapsed
            entry["sha256"] = hashlib.sha256(text.encode()).hexdigest()
            if REPORT in op.argv and os.path.exists(paths["report"]):
                with open(paths["report"], encoding="utf-8") as fh:
                    entry["report"] = [
                        hashlib.sha256(line.encode()).hexdigest() for line in fh.read().splitlines()
                    ]
            results.append(entry)
    finally:
        if tracer:
            tracer.uninstall()
        for path in paths.values():
            if os.path.exists(path):
                os.remove(path)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for op, entry in zip(plan.ops, results):
        if op.iso_check and "error" not in entry:
            problem = _iso_check(op.iso_check)
            if problem:
                entry["error"] = problem
    wall_ns = sum(entry["ns"] for entry in results)
    layers = None
    if tracer:
        layers = tracing.layer_metrics(tracer.spans, wall_ns)
        layers["cli.stdout_bytes"] = stdout_bytes
    return {
        "ops": results,
        "wall_ns": wall_ns,
        "peak_rss_kb": peak_rss_kb,
        "layers": layers,
    }


def main(argv: list[str]) -> None:
    if argv[0] == "--probe":
        launch_ns = int(argv[1])
        result = {}
    else:
        workload, seed, trace, launch_ns, workdir = argv
        launch_ns = int(launch_ns)
        result = run_round(workload, int(seed), trace == "1", workdir)
    result["setup_ns"] = IMPORTED_NS - launch_ns
    result["python"] = sys.version.split()[0]
    result["numpy"] = numpy.__version__
    result["zdgraph"] = os.path.dirname(zdgraph.__file__)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
