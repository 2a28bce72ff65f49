"""Command-line surface.

Subcommands: graph (full zero-divisor graph), compress (compressed graph),
iso (isomorphism query), verify (cross-validation sweeps), conjecture
(harness scans). Exit codes: 0/1 carry boolean query results, 2 grammar or
usage errors, a size bound or a prime that cannot be certified, 3
isomorphism budget exhaustion, 4 verification failure.
All output is byte-deterministic for fixed inputs.

_cmd_conjecture is the one place that runs conjecture scans, and its table
is the one map from a conjecture id to its checker. It prints each verdict
line and writes each --report line as soon as that instance is checked, so
a run stopped by an error partway keeps the lines of the instances checked
before it.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import sys
from collections import Counter
from contextlib import nullcontext
from functools import cache
from itertools import islice

from .arithmetic import UncertifiedPrime, factor_integer, factor_polynomial
from .compressed_graph import graph_from_factorization, to_dot, to_json
from .conjectures import (
    check_conjecture1,
    check_conjecture2,
    check_conjecture3,
    check_conjecture4,
    default_instances,
    parse_instance_line,
    report_to_json,
    ring_keys,
)
from .finite_ring import (
    SCAN_LIMIT,
    GrammarError,
    IntegersMod,
    PolyQuotient,
    RingTooLarge,
    full_zero_divisor_graph,
    oracle_compressed_graph,
    parse_ring_spec,
)
from .isomorphism import DEFAULT_BUDGET, SearchBudgetExceeded, graphs_isomorphic
from .sweeps import SweepOutcome, blowup_sweep, gcd_theorem_sweep, oracle_equivalence_sweep


def compressed_for(spec, loops: bool):
    """Basis construction where a factorization exists, oracle otherwise."""
    if isinstance(spec, IntegersMod):
        return graph_from_factorization(factor_integer(spec.n), loops)
    if isinstance(spec, PolyQuotient):
        return graph_from_factorization(factor_polynomial(spec.modulus, spec.p), loops)
    return oracle_compressed_graph(spec, loops=loops)


# Lines joined into one write by _write_lines: a whole table as one string
# would hold a second copy of the output in memory.
_CHUNK_LINES = 4096


def _write_lines(lines, out) -> None:
    """Write each line and a newline, as print would, in joined chunks."""
    lines = iter(lines)
    while chunk := list(islice(lines, _CHUNK_LINES)):
        out.write("\n".join(chunk) + "\n")


def _vertex_line(v) -> str:
    parts = [f"vertex {v.label}"]
    if v.size is not None:
        parts.append(f"size {v.size}")
    if v.loop:
        parts.append("loop")
    return "  ".join(parts)


def _print_table(vertex_lines, labels, edges, out) -> None:
    _write_lines(vertex_lines, out)
    _write_lines((f"edge {labels[i]} -- {labels[j]}" for i, j in edges), out)


def _cmd_graph(args, out) -> int:
    g = full_zero_divisor_graph(parse_ring_spec(args.ring))
    if args.format == "json":
        out.write(g.to_json())
    elif args.format == "dot":
        out.write(g.to_dot())
    else:
        # the table of g.as_compressed(), without building that graph
        _print_table((f"vertex {s}" for s in g.labels), g.labels, g.edges, out)
    return 0


def _cmd_compress(args, out) -> int:
    g = compressed_for(parse_ring_spec(args.ring), args.loops)
    if args.format == "json":
        out.write(to_json(g))
    elif args.format == "dot":
        out.write(to_dot(g))
    else:
        _print_table(map(_vertex_line, g.vertices), [v.label for v in g.vertices], g.edges, out)
    return 0


def _cmd_iso(args, out) -> int:
    g1 = compressed_for(parse_ring_spec(args.ring1), args.loops)
    g2 = compressed_for(parse_ring_spec(args.ring2), args.loops)
    report = graphs_isomorphic(g1, g2, respect_loops=args.loops, budget=args.budget)
    if args.format == "json":
        payload = {
            "isomorphic": report.isomorphic,
            "witness": [list(p) for p in report.witness] if report.witness else None,
            "separating": report.separating,
        }
        out.write(json.dumps(payload, indent=2) + "\n")
    else:
        if report.isomorphic:
            print("isomorphic", file=out)
            _write_lines((f"  {a} -> {b}" for a, b in report.witness), out)
        else:
            print("not isomorphic", file=out)
            print(f"separating: {report.separating}", file=out)
    return 0 if report.isomorphic else 1


# Consecutive moduli per block of verify's fan-out: small enough that the
# blocks spread evenly over the workers, large enough that each pickled
# outcome carries many rings.
_VERIFY_BLOCK = 16


def _check_blocks(sweeps, blocks) -> list:
    """Each block's row of sweep outcomes, None where a sweep raised."""
    rows = []
    for lo, hi in blocks:
        row = []
        for sweep in sweeps:
            try:
                row.append(sweep(max_n=hi, min_n=lo))
            except Exception:  # the serial re-run raises it again, in order
                row.append(None)
        rows.append(row)
    return rows


def _fork_check(sweeps, blocks):
    """A child that checks blocks and pickles its rows into a pipe; its pid
    and the pipe's read end."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as fh:
                pickle.dump(_check_blocks(sweeps, blocks), fh)
            code = 0
        finally:
            # never return into the parent's stack, nor run its exit handlers
            os._exit(code)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _verify_outcomes(sweeps, max_n: int) -> list[SweepOutcome]:
    """Each sweep's outcome over 2..max_n, as one serial call per sweep
    would give it, checked on every CPU this process may use.

    2..max_n splits into blocks of consecutive moduli. With W workers, this
    process checks blocks 0, W, 2W, ... and W - 1 forked children the rest.
    A sweep whose every block passes clean reads the sum of the blocks'
    counts; any other sweep re-runs here over the whole range, so its
    failures and errors are the serial ones.
    """
    starts = range(2, max_n + 1, _VERIFY_BLOCK)
    blocks = [(lo, min(lo + _VERIFY_BLOCK - 1, max_n)) for lo in starts]
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(cpus, len(blocks)) if hasattr(os, "fork") else 1
    if workers == 1:
        return [sweep(max_n=max_n) for sweep in sweeps]
    children, rows = [], []
    try:
        for w in range(1, workers):
            children.append(_fork_check(sweeps, blocks[w::workers]))
        rows += _check_blocks(sweeps, blocks[::workers])
        for _, pipe in children:
            try:
                rows += pickle.loads(pipe.read())
            except Exception:  # no rows to read: the serial re-run covers them
                rows.append(None)
    except BaseException:
        from signal import SIGKILL  # only a run that raises needs it

        for pid, _ in children:
            os.kill(pid, SIGKILL)
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            if os.waitpid(pid, 0)[1]:  # exited nonzero or was killed
                rows.append(None)
    outcomes = []
    for i, sweep in enumerate(sweeps):
        parts = [row and row[i] for row in rows]
        if all(part and part.ok and not part.findings for part in parts):
            outcomes.append(SweepOutcome(parts[0].name, sum(part.checked for part in parts), ()))
        else:
            outcomes.append(sweep(max_n=max_n))
    return outcomes


def _cmd_verify(args, out) -> int:
    # the scan's refusal of Z/(SCAN_LIMIT + 1), before any ring is checked
    if args.max_n > SCAN_LIMIT:
        raise RingTooLarge(
            f"annihilator scan needs at most {SCAN_LIMIT} elements, ring has {SCAN_LIMIT + 1}"
        )
    names = ("oracle-equivalence", "gcd-theorem", "blow-up")
    # named at call time, so a wrapper bound over a zdgraph.cli name sees
    # every call
    sweeps = (oracle_equivalence_sweep, gcd_theorem_sweep, blowup_sweep)
    outcomes = list(zip(names, _verify_outcomes(sweeps, args.max_n)))
    print(f"{'sweep':<20}{'checked':>10}{'failures':>10}  status", file=out)
    for name, outcome in outcomes:
        status = "pass" if outcome.ok else "FAIL"
        print(f"{name:<20}{outcome.checked:>10}{len(outcome.failures):>10}  {status}", file=out)
    if all(outcome.ok for _, outcome in outcomes):
        return 0
    for name, outcome in outcomes:
        for failure in outcome.failures[:5]:
            print(f"failure[{name}]: {failure}", file=out)
    return 4


def _load_instances(conjecture: int, path: str):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    out = []
    specs: dict = {}  # each ring text is parsed once
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            out.append(parse_instance_line(conjecture, stripped, specs))
        except (ValueError, GrammarError) as exc:
            raise GrammarError(f"{path}:{lineno}: {exc}") from exc
    return out


def _keys_by_object():
    """spec -> ring_keys(spec), resolved once per spec object when a pair
    first reaches it. Looked up by id, so a pair hashes no spec; the memo
    holds each spec, so no id is reused while it lives."""
    resolved: dict[int, tuple] = {}

    def keys(spec):
        hit = resolved.get(id(spec))
        if hit is None:
            hit = resolved[id(spec)] = (spec, ring_keys(spec))
        return hit[1]

    return keys


def _cmd_conjecture(args, out) -> int:
    if args.max_n is not None and (args.instances or args.number == 4):
        ignored_by = "--instances" if args.instances else "conjecture 4"
        print(f"error: --max-n has no effect with {ignored_by}", file=sys.stderr)
        return 2
    if args.instances:
        instances = _load_instances(args.number, args.instances)
    else:
        instances = default_instances(args.number, args.max_n)
    # the one conjecture id -> checker table; each lambda looks its checker
    # up in this module at call time, so a wrapper bound over
    # zdgraph.cli.check_conjecture1 sees every call. Conjecture 1 passes
    # each ring's keys, so a pair makes no table lookup.
    keys = _keys_by_object()
    checkers = {
        1: lambda inst: check_conjecture1(keys(inst[0]), keys(inst[1]), budget=args.budget),
        2: lambda inst: check_conjecture2(*inst),
        3: lambda inst: check_conjecture3(*inst),
        4: lambda inst: check_conjecture4(*inst, budget=args.budget),
    }
    check = checkers[args.number]
    counts: Counter = Counter()
    # line-buffered: each report line is in the file before the next check
    report_file = (
        open(args.report, "w", encoding="utf-8", buffering=1) if args.report else nullcontext()
    )
    with report_file as fh:
        for inst in instances:
            report = check(inst)
            out.write(f"{report.verdict:<16}{report.instance}\n")
            if fh is not None:
                fh.write((report.line or report_to_json(report)) + "\n")
            counts[report.verdict] += 1
    print(
        f"checked {sum(counts.values())}: {counts['supported']} supported, "
        f"{counts['counterexample']} counterexample, {counts['skipped']} skipped",
        file=out,
    )
    return 0


def _int_at_least(low: int, expected: str):
    """argparse type for an integer option with a lower bound."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be {expected}, got {text!r}")
        return value

    return parse


# the search needs at least one node; a sweep or scan below 2 checks no ring
_budget = _int_at_least(1, "a positive integer")
_max_n = _int_at_least(2, "an integer of at least 2")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use."""
    parser = argparse.ArgumentParser(
        prog="zdgraph",
        description="Compressed zero-divisor graphs of quotient rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="full zero-divisor graph of a finite ring")
    p.add_argument("ring", help='ring spec, e.g. "Z/12" or "F2[x]/(x^3)"')
    p.add_argument("--format", choices=("table", "json", "dot"), default="table")
    p.set_defaults(fn=_cmd_graph)

    p = sub.add_parser("compress", help="compressed zero-divisor graph")
    p.add_argument("ring")
    p.add_argument("--loops", action="store_true", help="admit self-loops")
    p.add_argument("--format", choices=("table", "json", "dot"), default="table")
    p.set_defaults(fn=_cmd_compress)

    p = sub.add_parser("iso", help="compressed-graph isomorphism query")
    p.add_argument("ring1")
    p.add_argument("ring2")
    p.add_argument("--loops", action="store_true")
    p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(fn=_cmd_iso)

    p = sub.add_parser("verify", help="run the cross-validation sweeps")
    p.add_argument("--max-n", type=_max_n, default=2000, dest="max_n")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("conjecture", help="scan a conjecture over instances")
    p.add_argument("number", type=int, choices=(1, 2, 3, 4))
    p.add_argument("--max-n", type=_max_n, default=None, dest="max_n")
    p.add_argument("--instances", help="file with one instance per line")
    p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    p.add_argument("--report", help="write JSON-lines reports to this path")
    p.set_defaults(fn=_cmd_conjecture)

    return parser


def run(argv=None, out=None) -> int:
    out = sys.stdout if out is None else out
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args, out)
    except (GrammarError, RingTooLarge, UncertifiedPrime) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SearchBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
