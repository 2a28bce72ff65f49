"""CLI behavior: spec'd examples, exit-code protocol, determinism."""

import hashlib
import io
import json
import os
import time
import tracemalloc
from collections import Counter

import pytest

from zdgraph import cli, conjectures, finite_ring, sweeps
from zdgraph.cli import run
from zdgraph.conjectures import report_to_json
from zdgraph.finite_ring import (
    IntegersMod,
    PolyQuotient,
    RingTooLarge,
    full_zero_divisor_graph,
    parse_ring_spec,
)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompress:
    def test_field_gives_empty_graph(self, capsys):
        code, out, err = invoke(capsys, "compress", "Z/7")
        assert code == 0
        assert out == ""
        assert err == ""

    def test_z12_dot_has_loop_at_6(self, capsys):
        code, out, _ = invoke(capsys, "compress", "Z/12", "--loops", "--format", "dot")
        assert code == 0
        assert out.count("[label=") == 4
        assert 'n3 [label="6"' in out
        assert "n3 -- n3;" in out

    def test_z12_json_four_vertices(self, capsys):
        code, out, _ = invoke(capsys, "compress", "Z/12", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert [v["label"] for v in payload["vertices"]] == ["2", "3", "4", "6"]
        assert payload["edges"] == [[0, 3], [1, 2], [2, 3]]
        assert all(v["loop"] is False for v in payload["vertices"])

    def test_bivariate_uses_oracle_with_sizes(self, capsys):
        code, out, _ = invoke(capsys, "compress", "F2[x,y]/(x^2,y^2)", "--loops")
        assert code == 0
        assert "size" in out
        assert "loop" in out

    def test_table_lists_vertices_and_edges(self, capsys):
        code, out, _ = invoke(capsys, "compress", "Z/12", "--loops")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "vertex 2"
        assert "vertex 6  loop" in lines
        assert "edge 2 -- 6" in lines

    @pytest.mark.parametrize("ring", ["F2[x]/(x^40+x^5+x^4+x^3+1)", "F2[x]/(x^31+x^3+1)"])
    def test_irreducible_modulus_is_fast(self, capsys, ring):
        # a field, so no zero-divisors; trial division would try about 2^21
        # and 2^16 divisors
        start = time.perf_counter()
        assert invoke(capsys, "compress", ring) == (0, "", "")
        assert time.perf_counter() - start < 2


class TestGraph:
    def test_z8_table(self, capsys):
        code, out, _ = invoke(capsys, "graph", "Z/8")
        assert code == 0
        assert out.splitlines() == [
            "vertex 2",
            "vertex 4",
            "vertex 6",
            "edge 2 -- 4",
            "edge 4 -- 6",
        ]

    def test_z8_json(self, capsys):
        code, out, _ = invoke(capsys, "graph", "Z/8", "--format", "json")
        payload = json.loads(out)
        assert payload["vertices"] == ["2", "4", "6"]
        assert payload["edges"] == [[0, 1], [1, 2]]

    def test_dot_output(self, capsys):
        code, out, _ = invoke(capsys, "graph", "Z/8", "--format", "dot")
        assert code == 0
        assert out.startswith("graph zero_divisor_graph {")


class TestIso:
    def test_z8_z6_looped_not_isomorphic(self, capsys):
        code, out, _ = invoke(capsys, "iso", "Z/8", "Z/6", "--loops")
        assert code == 1
        assert out.splitlines()[0] == "not isomorphic"
        assert "separating: loop count" in out

    def test_z8_z6_unlooped_isomorphic(self, capsys):
        code, out, _ = invoke(capsys, "iso", "Z/8", "Z/6")
        assert code == 0
        assert out.splitlines()[0] == "isomorphic"
        assert "  2 -> 2" in out.splitlines()

    def test_poly_vs_integer_witness(self, capsys):
        code, out, _ = invoke(capsys, "iso", "F2[x]/(x^3)", "Z/8", "--loops")
        assert code == 0
        assert "isomorphic" in out

    def test_budget_exhaustion_exits_3(self, capsys):
        code, _, err = invoke(
            capsys, "iso", "Z/512", "Z/19683", "--loops", "--budget", "3"
        )
        assert code == 3
        assert "budget" in err

    def test_json_format(self, capsys):
        code, out, _ = invoke(capsys, "iso", "Z/8", "Z/6", "--loops", "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["isomorphic"] is False
        assert payload["separating"] == "loop count"
        assert payload["witness"] is None


class TestErrors:
    def test_bad_ring_spec_exits_2(self, capsys):
        code, _, err = invoke(capsys, "compress", "Z/banana")
        assert code == 2
        assert "error:" in err

    def test_ring_too_large_exits_2(self, capsys):
        code, _, err = invoke(capsys, "graph", "Z/20001")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "ring", ["Z/618970019642690137449562111", "F618970019642690137449562111[x]/(x^2)"]
    )
    def test_uncertified_prime_exits_2_at_once(self, capsys, ring):
        # 2^89 - 1 is prime, but above the bound where Miller-Rabin is a proof
        start = time.perf_counter()
        code, out, err = invoke(capsys, "compress", ring)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == (
            "error: 618970019642690137449562111 is a probable prime above "
            "3317044064679887385961981; its primality cannot be certified\n"
        )

    def test_missing_subcommand_exits_2(self, capsys):
        assert run([]) == 2

    def test_unknown_flag_exits_2(self, capsys):
        assert run(["compress", "Z/8", "--nope"]) == 2

    @pytest.mark.parametrize(
        "window, message",
        [
            # the union gate reads one annihilator row of n residues
            ("Z/2000000 | 2", "ring has 2000000 elements, above 1000000"),
            # no generator is a unit, and the window is refused by its size
            ("Z/1000000 | 2,5,4", "ideal comparison needs at most 20000 elements"),
            # whose products would not fit in int64
            (
                "Z/1000000000000 | 2",
                "ring has 1000000000000 elements, above 3037000500: its products overflow int64",
            ),
        ],
    )
    def test_huge_window_exits_2(self, capsys, tmp_path, window, message):
        path = tmp_path / "instances.txt"
        path.write_text(window + "\n")
        code, out, err = invoke(capsys, "conjecture", "2", "--instances", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_union_gate_counts_annihilators_without_listing_them(self, capsys, tmp_path, monkeypatch):
        calls = []
        real = finite_ring.annihilator

        def counting(spec, r):
            calls.append(r)
            return real(spec, r)

        monkeypatch.setattr(finite_ring, "annihilator", counting)
        monkeypatch.setattr(conjectures, "annihilator", counting, raising=False)
        path = tmp_path / "instances.txt"
        # a union that is not one, a unit generator, then a window too large
        path.write_text("Z/72 | 12,18\nZ/72 | 5\nZ/1000000 | 2,5,4\n")
        code, out, err = invoke(capsys, "conjecture", "2", "--instances", str(path))
        assert code == 2 and err == "error: ideal comparison needs at most 20000 elements\n"
        assert [line.split()[0] for line in out.splitlines()] == ["skipped", "skipped"]
        assert calls == []

    @pytest.mark.parametrize(
        "command, ring, stderr",
        [
            # 9 million standard monomials: counted off the staircase, never listed
            (command, "F2[x,y]/(x^3000,y^3000)", "ring has 2^9000000 elements, above 1000000")
            for command in ("graph", "compress")
        ]
        + [
            # 2^150 elements: no structure tensor is built for a ring that no
            # table operation accepts
            (
                "graph",
                "F2[x]/(x^150)",
                "full graph needs at most 10000 elements, "
                "ring has 1427247692705959881058285969449495136382746624",
            )
        ],
    )
    def test_huge_ring_exits_2_at_once(self, capsys, command, ring, stderr):
        start = time.perf_counter()
        code, out, err = invoke(capsys, command, ring)
        assert time.perf_counter() - start < 0.5
        assert (code, out, err) == (2, "", f"error: {stderr}\n")

    def test_missing_instances_file_exits_2(self, capsys):
        code, _, err = invoke(capsys, "conjecture", "2", "--instances", "/tmp/nope-zd")
        assert code == 2

    def test_malformed_instance_line_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("Z/8\n")
        code, _, err = invoke(capsys, "conjecture", "1", "--instances", str(path))
        assert code == 2
        assert "bad.txt:1" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("iso", "Z/8", "Z/6", "--budget", "0"),
            ("iso", "Z/8", "Z/6", "--budget", "-5"),
            ("conjecture", "1", "--max-n", "6", "--budget", "0"),
            ("conjecture", "4", "--budget", "many"),
        ],
    )
    def test_budget_below_one_exits_2(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "--budget: must be a positive integer" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--max-n", "1"),
            ("verify", "--max-n", "-5"),
            ("conjecture", "1", "--max-n", "1"),
            ("conjecture", "3", "--max-n", "0"),
        ],
    )
    def test_max_n_below_2_exits_2(self, capsys, argv):
        # such a bound checks no ring at all, which would read as a pass
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "--max-n: must be an integer of at least 2" in err

    @pytest.mark.parametrize(
        "argv, ignored_by",
        [
            (("conjecture", "4", "--max-n", "2"), "conjecture 4"),
            (("conjecture", "1", "--instances", "INSTANCES", "--max-n", "5"), "--instances"),
        ],
    )
    def test_ignored_max_n_exits_2(self, capsys, tmp_path, argv, ignored_by):
        instances = tmp_path / "instances.txt"
        instances.write_text("Z/8 | Z/6\n")
        argv = [str(instances) if a == "INSTANCES" else a for a in argv]
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: --max-n has no effect with {ignored_by}\n"

    @pytest.mark.parametrize("command", ["verify", "conjecture 4"])
    def test_jobs_option_is_gone(self, capsys, command):
        code, out, err = invoke(capsys, *command.split(), "--jobs", "2")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --jobs 2" in err


class TestVerify:
    def test_small_bound_passes(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--max-n", "40")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["sweep", "checked", "failures", "status"]
        names = [line.split()[0] for line in lines[1:]]
        assert names == ["oracle-equivalence", "gcd-theorem", "blow-up"]
        assert all(line.endswith("pass") for line in lines[1:])


class TestVerifyFanOut:
    """verify checks blocks of rings here and in forked children; its
    output, exit code and errors must not depend on how many CPUs it has."""

    @pytest.fixture
    def verify_on(self, monkeypatch, capsys):
        """Run verify on a given number of CPUs; check that it left no child."""

        def verify_on(cpus, max_n):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            result = invoke(capsys, "verify", "--max-n", str(max_n))
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
            return result

        return verify_on

    @pytest.mark.parametrize("max_n", [2, 17, 18, 40, 300])
    def test_same_output_at_every_worker_count(self, verify_on, max_n):
        serial = verify_on(1, max_n)
        assert serial[0] == 0
        for cpus in (2, 3):
            assert verify_on(cpus, max_n) == serial

    # Z/12 is in block 0, always checked here; Z/30 is in block 1, a child's.
    # The gcd-theorem sweep also refuses Z/12, in this process, but a serial
    # run meets the oracle-equivalence sweep's refusal first.
    @pytest.mark.parametrize("n", [12, 30])
    def test_same_error_when_a_sweep_raises(self, monkeypatch, verify_on, n):
        def refusing(name, ring):
            real = getattr(sweeps, name)

            def refuse(spec, *args, **kwargs):
                if spec == IntegersMod(ring):
                    raise RingTooLarge(f"planted refusal of Z/{ring} in {name}")
                return real(spec, *args, **kwargs)

            monkeypatch.setattr(sweeps, name, refuse)

        refusing("oracle_compressed_graph", n)
        refusing("ring_table", 12)
        serial = verify_on(1, 40)
        assert serial == (2, "", f"error: planted refusal of Z/{n} in oracle_compressed_graph\n")
        assert verify_on(2, 40) == serial

    def test_same_output_when_a_child_dies(self, monkeypatch, verify_on):
        # a child that exits nonzero sends nothing; its sweeps re-run here
        parent = os.getpid()
        real = sweeps.factor_integer

        def dying(n):
            if os.getpid() != parent:
                os._exit(3)
            return real(n)

        serial = verify_on(1, 40)
        monkeypatch.setattr(sweeps, "factor_integer", dying)
        assert verify_on(2, 40) == serial

    def test_children_are_killed_when_this_process_raises(self, monkeypatch, verify_on):
        parent = os.getpid()
        real = sweeps.factor_integer

        def interrupted(n):
            if os.getpid() == parent and n == 12:
                raise KeyboardInterrupt
            return real(n)

        monkeypatch.setattr(sweeps, "factor_integer", interrupted)
        with pytest.raises(KeyboardInterrupt):
            verify_on(2, 300)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestConjecture:
    def test_scan_1_small(self, capsys):
        code, out, _ = invoke(capsys, "conjecture", "1", "--max-n", "8")
        assert code == 0
        lines = out.splitlines()
        assert "counterexample  Z/6 | Z/8" in lines
        assert lines[-1].startswith("checked 21:")

    def test_instances_file_and_report(self, capsys, tmp_path):
        instances = tmp_path / "instances.txt"
        instances.write_text(
            "# conjecture 3 fixtures\n"
            "Z/48 | 12\n"
            "\n"
            "F2[x]/(x^4) | x^2\n"
        )
        report_path = tmp_path / "reports.jsonl"
        code, out, _ = invoke(
            capsys,
            "conjecture",
            "3",
            "--instances",
            str(instances),
            "--report",
            str(report_path),
        )
        assert code == 0
        assert out.splitlines()[-1] == "checked 2: 2 supported, 0 counterexample, 0 skipped"
        payloads = [
            json.loads(line) for line in report_path.read_text().splitlines()
        ]
        assert [p["verdict"] for p in payloads] == ["supported", "supported"]
        assert payloads[0]["instance"] == "Z/48 | 12"

    def test_conjecture4_defaults(self, capsys):
        code, out, _ = invoke(capsys, "conjecture", "4")
        assert code == 0
        assert out.splitlines()[-1] == "checked 6: 4 supported, 0 counterexample, 2 skipped"

    def test_conjecture4_budget_in_predicted_layer_skips(self, capsys, tmp_path):
        instances = tmp_path / "instances.txt"
        instances.write_text("F2[x,y]/(x^3,y^3) | x^2*y | F2[x,y]/(x^3,y^3) | x*y^2\n")
        report_path = tmp_path / "reports.jsonl"
        code, out, err = invoke(
            capsys, "conjecture", "4", "--instances", str(instances), "--budget", "1",
            "--report", str(report_path),
        )
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "skipped         F2[x,y]/(x^3,y^3) | x^2*y | F2[x,y]/(x^3,y^3) | x*y^2",
            "checked 1: 0 supported, 0 counterexample, 1 skipped",
        ]
        details = json.loads(report_path.read_text())["details"]
        assert details["layer"] == "predicted graphs (windows not exact)"
        assert details["reason"] == "isomorphism search exceeded the node budget"

    def test_counterexamples_still_exit_0(self, capsys):
        code, out, _ = invoke(capsys, "conjecture", "1", "--max-n", "8")
        assert code == 0
        assert "counterexample" in out

    def test_unit_generator_skips(self, capsys, tmp_path):
        # units other than 1 make the ideal the whole ring; no traceback
        instances = tmp_path / "instances.txt"
        instances.write_text("Z/20 | 7\nF2[x]/(x^3+x+1) | x+1\n")
        code, out, _ = invoke(capsys, "conjecture", "3", "--instances", str(instances))
        assert code == 0
        assert out.splitlines()[-1] == "checked 2: 0 supported, 0 counterexample, 2 skipped"

    def test_non_monomial_bivariate_generator_skips(self, capsys, tmp_path):
        instances = tmp_path / "instances.txt"
        instances.write_text("F2[x,y]/(x^2,y^2) | x+y\n")
        code, out, _ = invoke(capsys, "conjecture", "3", "--instances", str(instances))
        assert code == 0
        assert out.splitlines() == [
            "skipped         F2[x,y]/(x^2,y^2) | x+y",
            "checked 1: 0 supported, 0 counterexample, 1 skipped",
        ]


class TestConjectureStreaming:
    """The conjecture command writes each instance's lines before the next
    instance is checked, and opens --report before the first check."""

    def test_lines_are_out_before_the_next_check(self, monkeypatch, tmp_path):
        out = io.StringIO()
        report_path = tmp_path / "reports.jsonl"
        reports = []
        check = cli.check_conjecture1

        def checking_checker(spec1, spec2, budget):
            if len(reports) == 1:
                first = reports[0]
                assert out.getvalue() == f"{first.verdict:<16}{first.instance}\n"
                assert report_path.read_text() == report_to_json(first) + "\n"
            reports.append(check(spec1, spec2, budget=budget))
            return reports[-1]

        monkeypatch.setattr(cli, "check_conjecture1", checking_checker)
        argv = ["conjecture", "1", "--max-n", "4", "--report", str(report_path)]
        assert run(argv, out=out) == 0
        assert len(reports) == 3
        assert out.getvalue().splitlines()[-1] == (
            "checked 3: 2 supported, 1 counterexample, 0 skipped"
        )

    def test_error_partway_keeps_the_lines_before_it(self, capsys, tmp_path):
        instances = tmp_path / "instances.txt"
        instances.write_text("Z/8 | Z/6\nZ/8 | Z/20000\n")
        report_path = tmp_path / "reports.jsonl"
        code, out, err = invoke(
            capsys, "conjecture", "1", "--instances", str(instances),
            "--report", str(report_path),
        )
        assert code == 2
        assert "full graph needs at most 10000 elements" in err
        assert out == "counterexample  Z/8 | Z/6\n"
        lines = report_path.read_text().splitlines()
        assert [json.loads(line)["instance"] for line in lines] == ["Z/8 | Z/6"]

    def test_unopenable_report_exits_before_any_check(self, capsys, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setattr(cli, "check_conjecture1", lambda *a, **k: calls.append(a))
        code, out, err = invoke(
            capsys, "conjecture", "1", "--max-n", "4",
            "--report", str(tmp_path / "missing" / "reports.jsonl"),
        )
        assert (code, out, calls) == (2, "", [])
        assert err.startswith("error: [Errno 2]")


class TestConjecture1Lookups:
    """The conjecture-1 pair loop resolves each distinct ring once; after
    that a pair makes one check_conjecture1 call and no ring-table lookup,
    spec hash or spec formatting."""

    RINGS = ("Z/6", "Z/8", "F2[x]/(x^3)", "Z/12")

    def counted_run(self, monkeypatch, argv) -> Counter:
        assert run(argv, out=io.StringIO()) == 0  # the ring tables are built here
        calls: Counter = Counter()

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(cli, "check_conjecture1")
        for module in (conjectures, finite_ring):
            for name in ("ring_table", "format_ring_spec", "parse_ring_spec"):
                counting(module, name)
        for spec_class in (IntegersMod, PolyQuotient):
            counting(spec_class, "__hash__")
        assert run(argv, out=io.StringIO()) == 0
        return calls

    def test_instance_file(self, monkeypatch, tmp_path):
        pairs = [f"{a} | {b}" for a in self.RINGS for b in self.RINGS]
        counts = []
        for repeats in (1, 3):
            instances = tmp_path / f"instances{repeats}.txt"
            instances.write_text("\n".join(pairs * repeats) + "\n")
            argv = ["conjecture", "1", "--instances", str(instances)]
            with monkeypatch.context() as patch:
                counts.append(self.counted_run(patch, argv))
        once, thrice = counts
        assert (once.pop("check_conjecture1"), thrice.pop("check_conjecture1")) == (16, 48)
        # each ring text is parsed and looked up once, however many pairs
        assert once == thrice
        assert (once["parse_ring_spec"], once["ring_table"], once["format_ring_spec"]) == (4, 4, 0)

    def test_default_scan(self, monkeypatch, tmp_path):
        argv = ["conjecture", "1", "--max-n", "12", "--report", str(tmp_path / "r")]
        calls = self.counted_run(monkeypatch, argv)
        # each ring is looked up once, by its table cache's two hashes
        assert calls == Counter(check_conjecture1=55, ring_table=11, __hash__=22)


def printed_table(g) -> str:
    """The table as it was written with one print per line."""
    out = io.StringIO()
    for v in g.vertices:
        parts = [f"vertex {v.label}"]
        if v.size is not None:
            parts.append(f"size {v.size}")
        if v.loop:
            parts.append("loop")
        print("  ".join(parts), file=out)
    for i, j in g.edges:
        print(f"edge {g.vertices[i].label} -- {g.vertices[j].label}", file=out)
    return out.getvalue()


class TestTableWriter:
    """Tables are written in joined chunks of lines; the bytes are those of
    one print per line, wherever the chunk boundaries fall."""

    @pytest.mark.parametrize("chunk", [1, 3, cli._CHUNK_LINES])
    @pytest.mark.parametrize(
        "argv",
        [
            ("compress", "Z/7"),  # no vertices
            ("compress", "Z/4", "--loops"),  # one looped vertex, no edges
            ("graph", "Z/4"),  # one vertex, no edges
            ("compress", "F2[x,y]/(x^3,x^2*y,y^3)", "--loops"),
            ("graph", "Z/72"),
            ("compress", "Z/3170267100", "--loops"),  # 64165 edges, 16 default chunks
        ],
    )
    def test_bytes_of_one_print_per_line(self, monkeypatch, argv, chunk):
        monkeypatch.setattr(cli, "_CHUNK_LINES", chunk)
        out = io.StringIO()
        assert run([*argv, "--format", "table"], out=out) == 0
        spec = parse_ring_spec(argv[1])
        if argv[0] == "graph":
            g = full_zero_divisor_graph(spec).as_compressed()
        else:
            g = cli.compressed_for(spec, "--loops" in argv)
        assert out.getvalue() == printed_table(g)

    def test_large_table_memory(self):
        # 1438 vertices and 64165 edges, 1.5 MB of text: built in canonical
        # order and written in chunks, the peak is 5.2 MB; with every edge
        # renumbered through a set and sorted, it was 11.1 MB.
        class Discard:
            def write(self, text):
                return len(text)

        cli.build_parser()
        tracemalloc.start()
        try:
            assert run(["compress", "Z/3170267100", "--loops", "--format", "table"], out=Discard()) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("compress", "Z/720", "--loops", "--format", "json"),
            ("graph", "Z/30", "--format", "dot"),
            ("iso", "Z/8", "Z/6", "--loops", "--format", "json"),
            ("conjecture", "2", "--max-n", "6"),
        ],
    )
    def test_repeated_invocations_identical(self, capsys, argv):
        code1, out1, _ = invoke(capsys, *argv)
        code2, out2, _ = invoke(capsys, *argv)
        assert code1 == code2
        assert out1 == out2


# sha256 of "<exit code>\n" + stdout (+ the --report file), recorded before the
# graph, arithmetic and conjecture layers were deduplicated.  A mismatch means
# CLI bytes changed; regenerate only for an intended change of output format.
GOLDEN_DIGESTS = {
    "compress Z/72 --format table": "de94ea37f90baabc69e7821b9af2b08cfce43e15f3b139fe5cfcdc8b54b3fc36",
    "compress Z/72 --loops --format table": "d9edbe715f254d4835c966728f089a1f08e59b2f6b31a280bfac06678b413536",
    "graph Z/72 --format table": "8ded33ac1f83373400c831b1f4eb7751e298ff6004830f320e20d3f4e4b91abe",
    "compress Z/72 --format json": "bcb4d42450f2a45a7e9d550a79c4204064d988c107cc54489d980557fa0cf1ab",
    "compress Z/72 --loops --format json": "9d255cceb7a8e060aa9c9a0d079571092af8f08d799a7572c61ed1825cdedbcf",
    "graph Z/72 --format json": "c8c49978c0db16f301b34ea6264e0ab2d7ad75aeb2d9d35efe0fc0c6a77d691d",
    "compress Z/72 --format dot": "76ea4354cb8e21ecc142fc15a0c932af1e19be5758ace8091be5a40da6090186",
    "compress Z/72 --loops --format dot": "86e64c4f3e0d7bd1348f3ff8702ee6c067aa8f2713e1ee87d5c8645a15f6b32c",
    "graph Z/72 --format dot": "93ccdb63c126ba1cd7ff1643f774c50fb7f8e2b5540b94d990fe2f0c7c066430",
    "compress F2[x]/(x^4+x^2) --format table": "2990a6730d761fdfa9b1e1c7521cf9ab364067bd47215f947981470900917c5c",
    "compress F2[x]/(x^4+x^2) --loops --format table": "501f3b3486bc6835e5b53db101df97e5da38c82436bb09f3f9d769cab33db1b8",
    "graph F2[x]/(x^4+x^2) --format table": "6ba073d49e6276cd3b6581e309ec1f3e16b7c6f65e133b0ffbee2c544cec2fac",
    "compress F2[x]/(x^4+x^2) --format json": "396ddee44eb62b0d89fca8e6b07f3097debcf4fcba8f1ac40ba34205f7a120f9",
    "compress F2[x]/(x^4+x^2) --loops --format json": "f09e6e85719c97847b044188b59245b6bdad739ae0c88f491035fd60f798e560",
    "graph F2[x]/(x^4+x^2) --format json": "ce1ef4e430725f8053b949b46b5554b1d22ab342d2fcd14300ca7b23daab3494",
    "compress F2[x]/(x^4+x^2) --format dot": "5da6acea89c70430fe6351d98712eb91fea3c507199fb518f9c0b3efae65717a",
    "compress F2[x]/(x^4+x^2) --loops --format dot": "22c52ba23d55712758c99fe27cf26d9835b34a1bb8f84c50cfcdcae15d2415e0",
    "graph F2[x]/(x^4+x^2) --format dot": "c14a10e739f21ef29ae23039eb3d4c9825ccd3f2fa94c9e17bf8e1447fafc709",
    "compress F2[x,y]/(x^3,x^2*y,y^3) --format table": "66d61562db0bfa21e3b655db88b9418a88377254273844f74415218583765153",
    "compress F2[x,y]/(x^3,x^2*y,y^3) --loops --format table": "a9926591eb2ce7e5e64208ce677a3fdb09153a0ac7e14df35959bd308f69b581",
    "graph F2[x,y]/(x^3,x^2*y,y^3) --format table": "973dda988b5a9973937693d63d89e05a61587dafd36d99eb543de8acc4140fcc",
    "compress F2[x,y]/(x^3,x^2*y,y^3) --format json": "db1eff592eb237d01205c2fe1caf505e9e8f0a31405aca162f4f9bd41e0cd26c",
    "compress F2[x,y]/(x^3,x^2*y,y^3) --loops --format json": "91f41bec551099a836ed9be9a6ae0553917352ec4a5f0f7087d8a0ab1608942e",
    "graph F2[x,y]/(x^3,x^2*y,y^3) --format json": "aeb6fcf2e5b7d6d82fb634f29ea092c96d13a4ae93c6399166d9ccd03d82c3ca",
    "compress F2[x,y]/(x^3,x^2*y,y^3) --format dot": "4c8b1745123ae9e3cd66453139cf7b930726d0d181b9704bd496393730af5157",
    "compress F2[x,y]/(x^3,x^2*y,y^3) --loops --format dot": "ee006c76c404551968a45740fe42315cadca7805e0e3bb28790546c4aee6dc12",
    "graph F2[x,y]/(x^3,x^2*y,y^3) --format dot": "9bc28ab1fdd6de46564ddacfca7503492ffddc413c5f85bec04a91e8b23e5abd",
    "iso Z/72 F2[x]/(x^5+x^3) --format table": "dabcd07c8ce3cf04a2e6d923da39b60a53d431982091111044e2a017fa548061",
    "iso Z/8 Z/6 --loops --format table": "3ed7c97c09cde6c57f9c620698c6316364c13f9278022f55056a2b845364a8ec",
    "iso Z/72 F2[x]/(x^5+x^3) --format json": "16a10786991c28f3fd4145fe2b594ecbf130164abf288def0adce3e24be81983",
    "iso Z/8 Z/6 --loops --format json": "740ac3a5d6eb81e1590e0bc9a0c0947138dfab45c57ad81f605387fe27f39803",
    "conjecture 1 --max-n 10 --report REPORT": "cf8acd69e303ea11b7db6926b6e9b9ce94db0783c72bf7c8d2a4c53fa0c218d5",
    "conjecture 2 --max-n 4 --report REPORT": "a61d1ca9da0dea1217c85232e0b1f327b9f1d7275409612da61f4c555a5bb424",
    "conjecture 3 --max-n 4 --report REPORT": "0c9d2691973320d0b8e42272f841c1fc75e6a701d201a220ad2141be7c4c4b3c",
    "conjecture 4 --report REPORT": "408f9d80a0f39244199074607032433e752b4083506485eb5c7dd5005debb77f",
    # re-recorded when conjecture 1 began comparing per-ring canonical keys
    "conjecture 1 --instances C1 --budget 1 --report REPORT": "e8f770a31967bcc522c43c36e2300cc7472dd7710ddbe6c2ee818d4d5f89d848",
    "conjecture 2 --instances C23 --report REPORT": "35a7566b1fd2557a4bebec87cc9a459d3cfd063a5512a198f1145ace8d1a6a1a",
    "conjecture 3 --instances C23 --report REPORT": "48bb60e4d10ddc4c74591785dfda2cda0c6dd555f13dc52c2442e255a9081d2a",
    "conjecture 4 --instances C4 --report REPORT": "e04ba1a19dec96dc65aca617857bdb52f0a6896c7ae3787b70543bd1b5cbc2f6",
    # recorded before conjectures 2-4 shared one window per instance
    "conjecture 2 --instances S23 --report REPORT": "0c507c4d4f3fd678b8f9ec1bb26dcbc4f9a918589307fbffb2f7cc7ced74bb2b",
    "conjecture 3 --instances S23 --report REPORT": "efb4a9768cbd910ecbf7b6f22cece1cc06418adb22e2a615c59d5c78c02bc585",
    "conjecture 4 --instances S4 --report REPORT": "b83324e23e4047fbcc05696eb38232bdb962d7418955e1892ac2280d0fd6770e",
    # recorded while conjecture 1 still ran a full-graph search per pair
    "conjecture 1 --max-n 100 --report REPORT": "95953458c9f417442bf74c54d6df62dd1d6b2d455631ac88421cc6d84cf67fbd",
    "conjecture 1 --instances C1X --report REPORT": "b60719b8c207c4de31fd4501770bf727a4c3911e61456f86db78cd762ca07d3a",
    # the default scans (Z/8 ... Z/96 and the polynomial and bivariate
    # windows), recorded while quotient windows still looked up the coset of
    # each product in their base
    "conjecture 2 --report REPORT": "3706734956845b8062b4b2c796ce5755027ccdabacd6026fe35504806530859f",
    "conjecture 3 --report REPORT": "118d91075421b64e481ca02d2df229f1998ec44b6b0c29271c142b60c5f9c9ea",
}

# Instance files named in GOLDEN_DIGESTS commands, for branches the default
# instances miss: the two conjecture-1 budget skips (at budget 1, the
# unlooped compressed key of Z/16 and the twin-quotient key of
# F2[x,y]/(x^2,y^2) each take more than one node), a conjecture-3 basis
# element that is a unit, a non-union ideal, and conjecture-4 side and
# pattern skips.
GOLDEN_INSTANCES = {
    "C1": "Z/16 | F2[x]/(x^4)\nZ/9 | F3[x]/(x^2)\nZ/16 | F2[x,y]/(x^2,y^2)\n",
    # same-size rings of two families: the first three pairs have isomorphic
    # full graphs (7, 8 and 24 vertices), the two bivariate pairs do not
    "C1X": (
        "Z/16 | F2[x]/(x^4+1)\n"
        "Z/27 | F3[x]/(x^3+1)\n"
        "Z/125 | F5[x]/(x^3+3*x^2+3*x+1)\n"
        "Z/16 | F2[x,y]/(x^2,y^2)\n"
        "F2[x]/(x^4) | F2[x,y]/(x^2,y^2)\n"
    ),
    "C23": "Z/20 | 6\nF2[x]/(x^3) | x^2+x\nZ/48 | 12, 8\nZ/48 | 12\nF2[x,y]/(x^2,y^2) | x*y, x\n",
    "C4": (
        "Z/12 | 0 | Z/8 | 2\n"
        "Z/8 | 4 | F2[x,y]/(x^2,y^2) | x+y\n"
        "Z/16 | 2 | Z/81 | 3\n"
        "Z/48 | 12, 8 | Z/8 | 4\n"
        "Z/64 | 8 | Z/36 | 6\n"
        "Z/48 | 12 | Z/80 | 20\n"
    ),
    # one line per skip reason of conjectures 2-4 that an instance line can
    # reach; in S4, side 1's gate comes before side 2's, and both gates come
    # before either side's generators are factored
    "S23": (
        "Z/12 | 0\n"
        "Z/20 | 7\n"
        "F2[x,y]/(x^2,y^2) | x, y\n"
        "F2[x,y]/(x^2,y^2) | x+y\n"
        "F2[x,y]/(x^3,y^3) | x^2*y\n"
        "F2[x,y]/(x^3,y^3) | x^2*y, x^2*y^2\n"
    ),
    "S4": (
        "Z/12 | 0 | Z/8 | 4\n"
        "Z/20 | 7 | Z/8 | 4\n"
        "F2[x,y]/(x^2,y^2) | x, y | Z/8 | 4\n"
        "F2[x,y]/(x^2,y^2) | x+y | Z/8 | 4\n"
        "Z/8 | 4 | Z/9 | 3\n"
        "Z/16 | 2 | Z/12 | 0\n"
        "F2[x,y]/(x^2,y^2) | x+y | Z/16 | 2\n"
        "Z/8 | 4 | F2[x,y]/(x^2,y^2) | x, y\n"
        "F2[x,y]/(x^3,y^3) | x^2*y, x^2*y^2 | F2[x,y]/(x^3,y^3) | x^2*y, x^2*y^2\n"
    ),
}


class TestGoldenOutput:
    @pytest.mark.parametrize("command", sorted(GOLDEN_DIGESTS))
    def test_output_bytes_pinned(self, capsys, tmp_path, command):
        report = tmp_path / "report.jsonl"
        for name, text in GOLDEN_INSTANCES.items():
            (tmp_path / name).write_text(text)
        argv = [
            str(report) if a == "REPORT" else str(tmp_path / a) if a in GOLDEN_INSTANCES else a
            for a in command.split()
        ]
        code, out, _ = invoke(capsys, *argv)
        data = f"{code}\n{out}"
        if report.exists():
            data += report.read_text()
        assert hashlib.sha256(data.encode()).hexdigest() == GOLDEN_DIGESTS[command]
