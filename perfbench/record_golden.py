"""Record golden.json: the output of every operation any seed can produce.

Run from the root of a checkout whose outputs are to be the reference:

    PYTHONPATH=src python3 perfbench/record_golden.py

For conjecture 1 the unit is one instance line: its stdout line and the
sha256 of its --report line.  run.py rebuilds the expected stdout of a whole
instance file from these.  Everything else is keyed by its CLI arguments.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import zdgraph.cli as cli

from workloads import VERIFY_MAX_N, basis_pool, conj_pool, poly_pool

HERE = Path(__file__).resolve().parent


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _record(argv: list[str]) -> dict:
    out = io.StringIO()
    rc = cli.run(argv, out=out)
    return {"rc": rc, "sha256": _sha256(out.getvalue())}


def _record_conjecture1(lines: list[str]) -> dict:
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        instances = os.path.join(tmp, "instances.txt")
        report = os.path.join(tmp, "report.jsonl")
        Path(instances).write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = io.StringIO()
        rc = cli.run(["conjecture", "1", "--instances", instances, "--report", report], out=out)
        if rc != 0:
            raise SystemExit(f"conjecture 1 over the pool exited {rc}")
        stdout_lines = out.getvalue().splitlines()[:-1]  # the last line is the summary
        report_lines = Path(report).read_text(encoding="utf-8").splitlines()
    return {
        line: {"line": shown, "report_sha256": _sha256(reported)}
        for line, shown, reported in zip(lines, stdout_lines, report_lines, strict=True)
    }


def main() -> None:
    golden = {
        "int-verify": {
            f"verify --max-n {VERIFY_MAX_N}": _record(["verify", "--max-n", str(VERIFY_MAX_N)])
        },
        "poly-oracle": {op.key: _record(list(op.argv)) for op in poly_pool()},
        "basis-queries": {op.key: _record(list(op.argv)) for op in basis_pool()},
        "conjecture1": _record_conjecture1(conj_pool()),
    }
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
