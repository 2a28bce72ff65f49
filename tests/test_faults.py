"""Fault injection: every cross-check reports a planted fault by its exact string.

The sweeps and the conjecture-3 check each compare two computations that
share no code.  Each test here replaces one side, at the name the checking
module binds, with a copy that is wrong in one place, and asserts the
failure that comes back.  A comparator that stopped comparing would pass
every clean run; it fails here.  Nothing in the package offers a hook for
this: the tests monkeypatch module attributes only.
"""

import hashlib
import io
import os
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from zdgraph import conjectures, isomorphism, sweeps
from zdgraph.arithmetic import FpPoly, factor_integer
from zdgraph.cli import run
from zdgraph.compressed_graph import CompressedGraph, Graph, graph_from_factorization
from zdgraph.conjectures import (
    check_conjecture2,
    check_conjecture3,
    parse_instance_line,
    report_to_json,
)
from zdgraph.finite_ring import IntegersMod, PolyQuotient, QuotientRing, parse_element
from zdgraph.isomorphism import IsoReport

Z12 = IntegersMod(12)
F12 = factor_integer(12)


def plant(monkeypatch, module, name, fault):
    """module.name(*args) now returns fault(its true result, *args)."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **kw: fault(real(*a, **kw), *a, **kw))


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def drop_edge(g, k=0):
    return CompressedGraph(g.vertices, g.edges[:k] + g.edges[k + 1 :], g.loops_admitted)


def drop_vertex(g, label):
    keep = [i for i, v in enumerate(g.vertices) if v.label != label]
    index = {old: new for new, old in enumerate(keep)}
    edges = tuple((index[i], index[j]) for i, j in g.edges if i in index and j in index)
    return CompressedGraph(tuple(g.vertices[i] for i in keep), edges, g.loops_admitted)


def rename_vertex(g, old, new):
    verts = tuple(replace(v, label=new) if v.label == old else v for v in g.vertices)
    return CompressedGraph(verts, g.edges, g.loops_admitted)


def flip_loop(g, label):
    verts = tuple(replace(v, loop=not v.loop) if v.label == label else v for v in g.vertices)
    return CompressedGraph(verts, g.edges, g.loops_admitted)


class WrongProduct:
    """A ring model whose table says a * b = value; every other product is true."""

    def __init__(self, model, a, b, value):
        self.model, self.a, self.b, self.value = model, a, b, value

    def __getattr__(self, name):
        return getattr(self.model, name)

    def mul_rows(self, idx, cols=None):
        rows = np.array(self.model.mul_rows(idx, cols))
        cols = np.arange(self.model.size) if cols is None else np.asarray(cols)
        a, b = self.model.index(self.a), self.model.index(self.b)
        rows[np.ix_(np.asarray(idx) == a, cols == b)] = self.value
        return rows


def wrong_product(spec, a, b, value):
    """A fault for ring_table: spec's table multiplies a * b to value."""

    def fault(table, s):
        if s != spec:
            return table
        return SimpleNamespace(model=WrongProduct(table.model, a, b, value), scan=table.scan)

    return fault


class TestRouteComparison:
    """oracle_equivalence_sweep and polynomial_oracle_sweep."""

    def test_merged_residues(self, monkeypatch):
        # the divisor 4 of 12 read as residue 2: two basis vertices, one label
        plant(monkeypatch, sweeps, "element_label",
              lambda label, spec, x: "2" if spec == Z12 and x == 4 else label)
        out = sweeps.oracle_equivalence_sweep(max_n=12)
        assert out.checked == 11
        assert out.failures == ("Z/12: residue map merges basis vertices (loops=False)",)

    @pytest.mark.parametrize("loops", [False, True])
    @pytest.mark.parametrize(
        "fault, what",
        [
            (lambda g: rename_vertex(g, "6", "7"), "vertex"),
            (lambda g: drop_edge(g), "edge"),
            (lambda g: drop_edge(g, len(g.edges) - 1), "edge"),
        ],
    )
    def test_oracle_graph_fault(self, monkeypatch, fault, what, loops):
        plant(monkeypatch, sweeps, "oracle_compressed_graph",
              lambda g, spec, **kw: fault(g) if spec == Z12 and kw["loops"] == loops else g)
        out = sweeps.oracle_equivalence_sweep(max_n=13)
        assert out.failures == (f"Z/12: {what} sets differ under residue map (loops={loops})",)

    @pytest.mark.parametrize("label", ["2", "6"])  # 6 squares to 0 in Z/12, 2 does not
    def test_oracle_loop_flipped(self, monkeypatch, label):
        plant(monkeypatch, sweeps, "oracle_compressed_graph",
              lambda g, spec, loops: flip_loop(g, label) if spec == Z12 and loops else g)
        out = sweeps.oracle_equivalence_sweep(max_n=12)
        assert out.failures == ("Z/12: loop sets differ under residue map (loops=True)",)

    def test_wrong_vertex_count(self, monkeypatch):
        plant(monkeypatch, sweeps, "vertex_count", lambda c, fact: c + 1 if fact == F12 else c)
        out = sweeps.oracle_equivalence_sweep(max_n=20)
        assert out.failures == ("Z/12: vertex_count formula disagrees with oracle",)

    def test_polynomial_oracle_fault(self, monkeypatch):
        # F2[x]/(x^3+x^2): vertices x (looped) and x+1 and x^2, edges x--x^2, x+1--x^2
        spec = PolyQuotient(2, FpPoly(2, (0, 0, 1, 1)))
        plant(monkeypatch, sweeps, "oracle_compressed_graph",
              lambda g, s, loops: drop_edge(g) if s == spec else g)
        out = sweeps.polynomial_oracle_sweep(ps=(2,), max_deg=3)
        assert out.checked == 4 + 8
        assert out.failures == (
            "F2[x]/(x^3+x^2): edge sets differ under residue map (loops=False)",
        )


class TestVerifyCommand:
    """verify prints each failing sweep's failures and exits 4, with the
    same bytes whether the rings are checked here or in forked children."""

    EXPECTED = """\
sweep                  checked  failures  status
oracle-equivalence         299         3  FAIL
gcd-theorem              45149         0  pass
blow-up                    299         3  FAIL
failure[oracle-equivalence]: Z/12: vertex sets differ under residue map (loops=False)
failure[oracle-equivalence]: Z/30: vertex sets differ under residue map (loops=False)
failure[oracle-equivalence]: Z/250: vertex sets differ under residue map (loops=False)
failure[blow-up]: Z/12: expansion vertex set differs from full graph
failure[blow-up]: Z/30: expansion vertex set differs from full graph
failure[blow-up]: Z/250: expansion vertex set differs from full graph
"""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_planted_labels_fail_with_exit_4(self, monkeypatch, cpus):
        # with 16 rings a block, Z/12 is in block 0, Z/30 in block 1 and
        # Z/250 in block 15: this process and the children each meet one
        broken = {IntegersMod(12), IntegersMod(30), IntegersMod(250)}
        plant(monkeypatch, sweeps, "element_label",
              lambda label, spec, x: label + "x" if spec in broken else label)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        forks = []
        real_fork = os.fork

        def counted_fork():
            forks.append(os.getpid())
            return real_fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        out = io.StringIO()
        assert run(["verify", "--max-n", "300"], out=out) == 4
        assert out.getvalue() == self.EXPECTED
        assert len(forks) == cpus - 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestBlowup:
    """blowup_sweep: the object check and the matrix check."""

    def sweep(self):
        return sweeps.blowup_sweep(max_n=13, object_level_max=13)

    def test_full_graph_missing_an_edge(self, monkeypatch):
        plant(monkeypatch, sweeps, "full_zero_divisor_graph",
              lambda g, spec: Graph(g.labels, g.edges[1:]) if spec == Z12 else g)
        assert self.sweep().failures == ("Z/12: expansion edge set differs from full graph",)

    def test_full_graph_vertex_renamed(self, monkeypatch):
        def fault(g, spec):
            if spec != Z12:
                return g
            return Graph(tuple("11" if s == "10" else s for s in g.labels), g.edges)

        plant(monkeypatch, sweeps, "full_zero_divisor_graph", fault)
        assert self.sweep().failures == ("Z/12: expansion vertex set differs from full graph",)

    def test_rename_merges_two_elements(self, monkeypatch):
        # 8, the second member of the class of 4, renamed 4
        plant(monkeypatch, sweeps, "element_label",
              lambda label, spec, x: "4" if spec == Z12 and x == 8 else label)
        assert self.sweep().failures == ("Z/12: expansion vertex set differs from full graph",)

    def test_class_adjacency_mispredicts_one_product(self, monkeypatch):
        # 10 * 6 = 0 in Z/12, as the classes of 2 and 6 predict; the table says 1
        plant(monkeypatch, sweeps, "ring_table", wrong_product(Z12, 10, 6, 1))
        assert self.sweep().failures == (
            "Z/12: class adjacency fails to predict element products",
        )


def wrong_residues(fault):
    """A fault for gcd_class_residues: fault(n, rep) edits a copy of the
    true residues of Z/n."""

    def planted(rep, fact):
        rep = rep.copy()
        fault(fact.value(), rep)
        return rep

    return planted


class TestGcdTheorem:
    def test_wrong_representative(self, monkeypatch):
        # gcd(10, 12) = 2 has exponents (1, 0); 3 has exponents (0, 1)
        def fault(n, rep):
            if n == 12:
                rep[10] = 3

        plant(monkeypatch, sweeps, "gcd_class_residues", wrong_residues(fault))
        out = sweeps.gcd_theorem_sweep(max_n=12)
        assert out.failures == ("Z/12: a=10 lands in a different class than 3",)
        assert out.checked == sum(range(2, 13))

    def test_stops_after_twenty_failures(self, monkeypatch):
        # every nonzero a of Z/12 and on gets the class of 0: 11 failures in
        # Z/12, and the 21st is a=10 of Z/13, where the count stops
        def fault(n, rep):
            if n >= 12:
                rep[1:] = 0

        plant(monkeypatch, sweeps, "gcd_class_residues", wrong_residues(fault))
        out = sweeps.gcd_theorem_sweep(max_n=20)
        assert out.failures == tuple(
            f"Z/{n}: a={a} lands in a different class than 0"
            for n, last in ((12, 11), (13, 10))
            for a in range(1, last + 1)
        )
        assert out.checked == 88


class TestNzLemma:
    def test_regular_multiple_moves_class(self, monkeypatch):
        # 5 * 2 = 10 lies in the class of 2; the table says 3, another class
        plant(monkeypatch, sweeps, "ring_table", wrong_product(Z12, 5, 2, 3))
        out = sweeps.nz_lemma_sweep([IntegersMod(8), Z12])
        assert out.failures == ("IntegersMod(n=12): a regular multiple changed class",)
        assert out.checked == 4 * 8


class TestCanonicalForm:
    """The key against the graph renamed by the labeling the search returns."""

    def test_swapped_labeling(self, monkeypatch):
        # Z/12 with loops is the path 2 - 6 - 4 - 3 with a loop at 6, which
        # has no symmetry, so swapping two positions breaks the relabeling
        def fault(result, *args):
            key, labeling, nodes = result
            return key, (labeling[1], labeling[0]) + labeling[2:], nodes

        plant(monkeypatch, isomorphism, "_canonical_search", fault)
        with pytest.raises(AssertionError) as failure:
            isomorphism.canonical_form(graph_from_factorization(F12, loops=True))
        assert str(failure.value) == "internal error: canonical labeling failed verification"


class TestSignatureSufficiency:
    @pytest.mark.parametrize("respect_loops, kind", [(True, "looped"), (False, "unlooped")])
    def test_search_says_no(self, monkeypatch, respect_loops, kind):
        g10 = graph_from_factorization(factor_integer(10), loops=respect_loops)

        def fault(report, g1, g2, **kw):
            if g2 == g10 and kw.get("respect_loops", True) == respect_loops:
                return IsoReport(False, None, "planted", 0)
            return report

        plant(monkeypatch, sweeps, "graphs_isomorphic", fault)
        out = sweeps.signature_sufficiency_sweep(max_n=12)
        assert out.failures == (f"signature (1, 1): Z/6 vs Z/10 {kind} graphs differ",)


class TestLoopedNecessity:
    def test_shared_graph_is_a_finding(self, monkeypatch):
        # vertex count, loop count and degree multiset separate every
        # cross-signature pair of real rings, so only a fault reaches the
        # search: Z/8 (signature (3,)) is given the graph of Z/6 (1, 1)
        def fault(g, fact, loops):
            return graph_from_factorization(factor_integer(6), loops) if fact == factor_integer(8) else g

        plant(monkeypatch, sweeps, "graph_from_factorization", fault)
        out = sweeps.looped_necessity_sweep(max_n=12)
        assert (out.checked, out.failures) == (2, ())
        assert out.findings == (
            "Z/6 (signature (1, 1)) and Z/8 (signature (3,)) have isomorphic looped graphs",
            "Z/8 (signature (3,)) and Z/10 (signature (1, 1)) have isomorphic looped graphs",
        )


def wrong_class(a, b):
    """A fault for ring_table: in the scan of every quotient, the element a
    gets the class of b."""

    def fault(table, spec):
        if not isinstance(spec, QuotientRing):
            return table
        model, scan = table.model, table.scan
        ids = scan.class_ids.copy()
        ids[model.index(a)] = ids[model.index(b)]
        return SimpleNamespace(model=model, scan=scan._replace(class_ids=ids))

    return fault


class TestConjecture2:
    """The class of a against the class of its gcd with the generators, in a
    quotient scan with one class id planted wrong.

    Digests are sha256 of report_to_json, recorded from the check as it
    stood before its window set-up was shared with conjectures 3 and 4."""

    def test_exact_window_is_a_counterexample(self, monkeypatch):
        # gcd(5, 12) = 1, but the planted scan puts 5 in the class of 2
        plant(monkeypatch, conjectures, "ring_table", wrong_class(5, 2))
        report = check_conjecture2(*parse_instance_line(2, "Z/48 | 12"))
        assert report.verdict == "counterexample"
        assert report.details["witness"] == {
            "a": "5", "gcd": "1", "class_of_a": "2", "class_of_gcd": "1"
        }
        assert report.details["checked"] == 6
        assert digest(report_to_json(report)) == (
            "65d371f48d98d665a5f9090c5b4ea12cc716c44933e05a10f1f03e5d63f33c54"
        )

    def test_inexact_window_skips(self, monkeypatch):
        # x+1 is coprime to x^2*y; the planted scan puts it in the class of x,
        # ahead of the truncation witness x+y the true scan gives
        spec, gens = parse_instance_line(2, "F2[x,y]/(x^3,y^3) | x^2*y")
        x, x1 = (parse_element(spec, t) for t in ("x", "x+1"))
        plant(monkeypatch, conjectures, "ring_table", wrong_class(x1, x))
        report = check_conjecture2(spec, gens)
        assert report.verdict == "skipped"
        assert report.details["reason"] == "window truncation artifact; ambient hypothesis unmet"
        assert report.details["witness"] == {
            "a": "x+1", "gcd": "1", "class_of_a": "x", "class_of_gcd": "1"
        }
        assert digest(report_to_json(report)) == (
            "aa21f51a54dc167a4759b8f5ea8ac603e704d688e2987290aefbc056187e683c"
        )


class TestConjecture3:
    """The predicted graph against a planted oracle graph of the quotient.

    Digests are sha256 of report_to_json, recorded from the check as it
    stood before its comparison was rewritten on canonical graphs."""

    def check(self, monkeypatch, line, fault):
        plant(monkeypatch, conjectures, "oracle_compressed_graph", lambda g, *a, **kw: fault(g))
        report = check_conjecture3(*parse_instance_line(3, line))
        return report, report.details

    def test_dropped_edge_is_a_counterexample(self, monkeypatch):
        report, d = self.check(monkeypatch, "Z/48 | 12", drop_edge)
        assert report.verdict == "counterexample"
        assert d["mismatch"] == "edge sets differ"
        assert d["witness"] == [["2", "6"]]
        assert "checked_edges" not in d and d["loops_agree"] is True
        assert digest(report_to_json(report)) == (
            "b092b55f2734ee1e6e3958d95acaa53474feee990708cecce51c0fef8722ab5e"
        )

    def test_dropped_edge_witness_pair_is_sorted(self, monkeypatch):
        # "0,1,1@2" sorts before "0,1@2": the witness pair is in label order
        report, d = self.check(
            monkeypatch, "F2[x]/(x^5+x^3) | x^3+x^2", lambda g: drop_edge(g, len(g.edges) - 1)
        )
        assert report.verdict == "counterexample"
        assert d["witness"] == [["0,1,1@2", "0,1@2"]]
        assert digest(report_to_json(report)) == (
            "53c2df1c7107897e9f81b8dbd39c29f469285b2e14473190fe2e32fc1029df1b"
        )

    def test_dropped_vertex_is_a_counterexample(self, monkeypatch):
        report, d = self.check(monkeypatch, "Z/48 | 12", lambda g: drop_vertex(g, "6"))
        assert report.verdict == "counterexample"
        assert d["mismatch"] == "vertex sets differ"
        assert d["witness"] == {"missing_from_prediction": [], "extra_in_prediction": ["6"]}
        assert d["loops_agree"] is False
        assert digest(report_to_json(report)) == (
            "4fa2ff3834b84b6e09262ed2596e39aa5d44085253514f61429614dd13485932"
        )

    def test_dropped_vertex_in_a_truncated_window_skips(self, monkeypatch):
        # both witness lists stay in class order, not label order
        report, d = self.check(
            monkeypatch, "F2[x,y]/(x^3,y^3) | x^2*y", lambda g: drop_vertex(g, "y^2")
        )
        assert report.verdict == "skipped"
        assert d["reason"] == "window truncation artifact; ambient hypothesis unmet"
        assert d["witness"] == {
            "missing_from_prediction": ["x+y", "x*y+y^2"],
            "extra_in_prediction": ["y^2"],
        }
        assert digest(report_to_json(report)) == (
            "53d903980cfab83cc2cbf07a9814bcdb53b55e2b36367890aab04c72cdc96546"
        )

    def test_flipped_loop_only_clears_loops_agree(self, monkeypatch):
        report, d = self.check(monkeypatch, "Z/48 | 12", lambda g: flip_loop(g, "2"))
        assert report.verdict == "supported"
        assert d["loops_agree"] is False and d["checked_edges"] == 3
        assert digest(report_to_json(report)) == (
            "a104961ed7fdc3873a239a4cd8b7d891951e27daf7c3faa837e746075bbe7890"
        )

    def test_default_scan_bytes(self, tmp_path):
        report = tmp_path / "report.jsonl"
        out = io.StringIO()
        code = run(["conjecture", "3", "--report", str(report)], out=out)
        assert digest(f"{code}\n{out.getvalue()}{report.read_text()}") == (
            "118d91075421b64e481ca02d2df229f1998ec44b6b0c29271c142b60c5f9c9ea"
        )


class TestConjecture4:
    """A search that says no gives a counterexample in either layer; only the
    oracle layer, whose graphs are exact, embeds them as witnesses."""

    @pytest.mark.parametrize(
        "line, exact, sha",
        [
            (
                "Z/72 | 12 | F2[x]/(x^5+x^3) | x^3+x^2",
                True,
                "786717fc3c28e3493ea46e1c629dd2664886d14f38c577ced397d15e1e2e7a6d",
            ),
            (
                "F2[x,y]/(x^3,y^3) | x^2*y | F2[x]/(x^4+x^2) | x^3+x^2",
                False,
                "b25087ab82152eaf89ed2c785516459490de9097c19fd65face7658bdaecc0c9",
            ),
        ],
    )
    def test_search_says_no(self, monkeypatch, line, exact, sha):
        plant(monkeypatch, conjectures, "graphs_isomorphic",
              lambda r, *a, **kw: IsoReport(False, None, "planted", 0))
        report = conjectures.check_conjecture4(*parse_instance_line(4, line))
        assert report.verdict == "counterexample"
        assert report.details["separating"] == "planted"
        assert ("witness_graphs" in report.details) == exact
        assert digest(report_to_json(report)) == sha
