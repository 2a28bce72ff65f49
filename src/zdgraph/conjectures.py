"""Empirical harness for the four conjectured statements.

Each check builds a finite window model standing in for the infinite ambient
ring, verifies the stated hypotheses hold inside the window, computes both
sides of the claim, and reports one of three verdicts: supported,
counterexample, or skipped (hypothesis unmet, budget exhausted, or the window
is too coarse to decide honestly).

A window is exact when the quotient it produces is genuinely isomorphic to
the infinite quotient: integer windows Z/m with every generator dividing m,
and univariate windows F_p[x]/(w) with every generator dividing w. Bivariate
truncation windows are never exact, so a mismatch there is reported as a
truncation artifact rather than a counterexample.

Conjectures 2-4 set up each (ring, generators) instance once, as a _Window,
and predicted graphs come from compressed_graph.basis_graph, the one builder
of the adjacency rule v + w >= some generator's exponent vector.

Conjecture 1 keeps one record per ring in the ring's table: canonical keys
(isomorphism.canonical_form) of the full graph's twin quotient and of the
compressed graph with and without loops, digests, the regular-element
count and the text a report prints. A pair is then decided by comparing
keys, with no search per pair, and its report line is joined from the two
rings' text.

Each check takes one instance and returns one report. default_instances
lists each conjecture's default scan; the CLI's conjecture command is the
one place that runs a scan, streaming each report as it is made.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from itertools import combinations, permutations, product as iter_product

from .arithmetic import (
    FpPoly,
    Irreducible,
    factor_integer,
    factor_polynomial,
    format_poly_pretty,
    poly_gcd,
)
from .compressed_graph import (
    CompressedGraph,
    basis_graph,
    graph_from_exponents,
    to_json as graph_json,
    twin_quotient,
)
from .finite_ring import (
    SCAN_LIMIT,
    BivariateMonomialQuotient,
    IntegersMod,
    PolyQuotient,
    annihilator,
    count_regular_elements,
    element_label,
    format_ring_spec,
    full_zero_divisor_graph,
    ideal_is_union,
    ideal_members,
    mul_elements,
    oracle_compressed_graph,
    parse_element,
    parse_ring_spec,
    quotient_by_ideal,
    ring_table,
    standard_monomials,
)
from .isomorphism import (
    DEFAULT_BUDGET,
    SearchBudgetExceeded,
    canonical_form,
    graphs_isomorphic,
)

SAMPLE_LIMIT = 5000
_TRUNCATION = "window truncation artifact; ambient hypothesis unmet"


@dataclass(frozen=True)
class ConjectureReport:
    """One check's verdict and details.

    A conjecture-1 check joins the report's --report line from kept
    fragments, the text report_to_json(report) gives, and passes no
    details: they are read back from line, anew on each access. The other
    checks pass their details, and line is None."""

    conjecture: int
    instance: str
    verdict: str  # supported | counterexample | skipped
    _details: dict | None = field(compare=False)
    line: str | None = field(default=None, compare=False, repr=False)

    @property
    def details(self) -> dict:
        if self._details is None:
            return json.loads(self.line)["details"]
        return self._details


def report_to_json(report: ConjectureReport) -> str:
    payload = {
        "conjecture": report.conjecture,
        "instance": report.instance,
        "verdict": report.verdict,
        "details": report.details,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _skip(conjecture: int, instance: str, details: dict, reason: str) -> ConjectureReport:
    details["reason"] = reason
    return ConjectureReport(conjecture, instance, "skipped", details)


def _digest(g) -> str:
    return _text_digest(graph_json(g))


def _text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _gen_label(ambient, g) -> str:
    # instance strings must survive parse_instance_line, which splits the
    # generator field on commas; the compact poly form contains commas
    if isinstance(ambient, PolyQuotient):
        return format_poly_pretty(g)
    return element_label(ambient, g)


def _instance_string(ambient, gens) -> str:
    labels = ", ".join(_gen_label(ambient, g) for g in gens)
    return f"{format_ring_spec(ambient)} | {labels}"


# --- generator factorization over the ambient UFD ---------------------------


class _Instance:
    """One union-of-principal-ideals instance inside a window model.

    irreducibles: the distinct irreducible factors across all generators.
    gen_vectors: per-generator exponent vectors over that list.
    images: window image of each irreducible.
    """

    def __init__(self, ambient, gens):
        self.ambient = ambient
        self.irreducibles, self.gen_vectors = _factor_all(ambient, gens)
        self.images = [_image(ambient, p) for p in self.irreducibles]

    def vector_image(self, vec):
        """Window element of prod irreducible_i ^ vec_i."""
        out = parse_element(self.ambient, "1")
        for img, e in zip(self.images, vec):
            for _ in range(e):
                out = mul_elements(self.ambient, out, img)
        return out

    def divisor_vectors(self):
        """Exponent vectors of every non-unit divisor of some generator."""
        seen = set()
        out = []
        for gvec in self.gen_vectors:
            for vec in iter_product(*(range(e + 1) for e in gvec)):
                if any(vec) and vec not in seen:
                    seen.add(vec)
                    out.append(vec)
        return sorted(out)


def _support(ambient, elem):
    """Standard monomials with a nonzero coefficient in a bivariate element."""
    return [m for m, c in zip(standard_monomials(ambient), elem) if c]


def _factor_all(ambient, gens):
    if isinstance(ambient, BivariateMonomialQuotient):
        vectors = []
        for g in gens:
            support = _support(ambient, g)
            if len(support) != 1:
                raise ValueError(
                    "bivariate union generators must be single monomials"
                )
            vectors.append(support[0])
        irreducibles = ["x", "y"]
        return irreducibles, [tuple(v) for v in vectors]
    if isinstance(ambient, IntegersMod):
        facts = [factor_integer(int(g)) for g in gens]
    elif isinstance(ambient, PolyQuotient):
        facts = [factor_polynomial(g, ambient.p) for g in gens]
    else:
        raise ValueError(f"unsupported ambient model: {ambient!r}")
    irreducibles = sorted({q for f in facts for q, _ in f.factors}, key=Irreducible.sort_key)
    exponents = [dict(f.factors) for f in facts]
    vectors = [tuple(e.get(q, 0) for q in irreducibles) for e in exponents]
    return [q.value for q in irreducibles], vectors


def _image(ambient, irreducible):
    if isinstance(ambient, IntegersMod):
        return irreducible % ambient.n
    if isinstance(ambient, PolyQuotient):
        return irreducible % ambient.modulus
    return parse_element(ambient, irreducible)  # "x" or "y"


def _window_exact(ambient, gens) -> bool:
    if isinstance(ambient, IntegersMod):
        return all(int(g) != 0 and ambient.n % int(g) == 0 for g in gens)
    if isinstance(ambient, PolyQuotient):
        return all(not g.is_zero and (ambient.modulus % g).is_zero for g in gens)
    return False


def _ufd_gcd(ambient, a, gens):
    """gcd of {a} union {n_alpha} as a window element, computed with exact
    ambient arithmetic.  The generators are nonzero, so a bivariate gcd is a
    monomial dividing a standard one, hence standard itself."""
    if isinstance(ambient, IntegersMod):
        g = 0
        for v in [int(a)] + [int(x) for x in gens]:
            g = math.gcd(g, v)
        return g % ambient.n
    if isinstance(ambient, PolyQuotient):
        g = FpPoly(ambient.p, ())
        for v in [a] + list(gens):
            g = poly_gcd(g, v)
        return g % ambient.modulus
    support = [m for elem in [a] + list(gens) for m in _support(ambient, elem)]
    gcd = (min(m[0] for m in support), min(m[1] for m in support))
    return tuple(int(m == gcd) for m in standard_monomials(ambient))


# --- one window per instance -------------------------------------------------


def _is_unit_gen(ambient, g) -> bool:
    # in a finite ring an element is a unit exactly when only 0 annihilates it
    return len(annihilator(ambient, g)) == 1


def _union_gate(ambient, gens, details) -> str | None:
    """The reason gens do not generate a proper union of principal ideals,
    or None; what the gate finds goes into details."""
    if not gens:
        return "no generators given"
    for g in gens:
        if g == parse_element(ambient, "0"):
            return "zero generator"
        if _is_unit_gen(ambient, g):
            return "ideal is the whole ring; the quotient would be the zero ring"
    union_ok = ideal_is_union(ambient, gens, gens)
    details["union_in_window"] = union_ok
    if not union_ok:
        members = set(ideal_members(ambient, gens))
        covered = {m for g in gens for m in ideal_members(ambient, [g])}
        witness = sorted(members - covered, key=lambda x: element_label(ambient, x))
        if witness:
            details["union_witness"] = element_label(ambient, witness[0])
        return "ideal is not the union of the given principal ideals"
    return None


@dataclass(frozen=True)
class _Window:
    """One (ambient, generators) instance: why the union gate refused it
    (then nothing else is set), whether the window is exact, the quotient
    with its model and scan, and the factored generators or why not."""

    failure: str | None
    exact: bool = False
    quotient: object = None
    model: object = None
    scan: object = None
    inst: _Instance | None = None
    inst_failure: str | None = None

    def basis(self):
        """(vector, window image) of each non-unit generator divisor whose
        image lies outside the ideal."""
        zero = self.model.index(parse_element(self.inst.ambient, "0"))
        pairs = ((vec, self.inst.vector_image(vec)) for vec in self.inst.divisor_vectors())
        return [(vec, img) for vec, img in pairs if self.model.index(img) != zero]


def _window(ambient, gens, details) -> _Window:
    """The window of gens in ambient; the union gate writes into details.
    Gens that pass the gate include no unit, so their quotient is never the
    zero ring."""
    failure = _union_gate(ambient, gens, details)
    if failure:
        return _Window(failure)
    quotient = quotient_by_ideal(ambient, gens)
    table = ring_table(quotient)
    try:
        inst, inst_failure = _Instance(ambient, gens), None
    except ValueError as exc:
        inst, inst_failure = None, str(exc)
    exact = _window_exact(ambient, gens)
    return _Window(None, exact, quotient, table.model, table.scan, inst, inst_failure)


# --- generalized basis --------------------------------------------------------


def generalized_basis(ambient, union_gens) -> list:
    """Non-unit divisors of the generators that stay outside the ideal.

    One canonical representative per associate class (positive integers,
    monic polynomials, coefficient-one monomials). Raises ValueError if the
    ideal is not the union of the principal parts. Membership is decided in
    the window model, so an inexact window can absorb divisors the infinite
    ambient ring would keep; pick windows every generator divides.
    """
    window = _window(ambient, union_gens, {})
    failure = window.failure or window.inst_failure
    if failure:
        raise ValueError(failure)
    return [img for _, img in window.basis()]


# --- conjecture 1 -------------------------------------------------------------


@dataclass(frozen=True)
class _RingKeys:
    """The per-ring half of a conjecture-1 check, kept in the ring table.

    Three canonical keys, each with the search nodes it took: the full
    graph's twin quotient with loops and sizes, the looped compressed graph,
    and the same graph with its loops ignored. A key whose search ran past
    DEFAULT_BUDGET is None with nodes = inf, so every budget skips it. The
    rest is what a report prints: spec is the formatted ring spec,
    spec_json the same text escaped as inside a JSON string, and witness
    the looped compressed graph's JSON as a report line embeds it; the
    sizes, counts and hex digests are their own JSON text. No graph object
    is kept."""

    twin_key: tuple | None
    twin_nodes: float
    looped_key: tuple | None
    looped_nodes: float
    unlooped_key: tuple | None
    unlooped_nodes: float
    full_size: int
    full_digest: str
    looped_digest: str
    regular: int
    spec: str
    spec_json: str
    witness: str

    @property
    def nbytes(self) -> int:
        """Declared size: the object, each key as a tuple of small tuples
        (about 64 bytes an entry) and each text (49 bytes and one a
        character, as ASCII str objects take)."""
        keys = (self.twin_key, self.looped_key, self.unlooped_key)
        entries = sum(len(k[0]) + len(k[1]) + 3 for k in keys if k is not None)
        texts = (self.full_digest, self.looped_digest, self.spec, self.spec_json, self.witness)
        return 640 + 64 * entries + sum(49 + len(t) for t in texts)


def _key(g: CompressedGraph, **flags) -> tuple:
    try:
        form = canonical_form(g, budget=DEFAULT_BUDGET, **flags)
    except SearchBudgetExceeded:
        return None, math.inf
    return form.key, form.nodes


def _compact_json(value) -> str:
    """value as report_to_json writes it inside a report line."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _ring_keys(spec) -> _RingKeys:
    full = full_zero_divisor_graph(spec)
    twins, _ = twin_quotient(full)
    looped = oracle_compressed_graph(spec, loops=True)
    looped_json = graph_json(looped)
    text = format_ring_spec(spec)
    return _RingKeys(
        *_key(twins, respect_sizes=True),
        *_key(looped),
        *_key(looped, respect_loops=False),
        len(full.labels),
        _text_digest(full.compressed_json()),
        _text_digest(looped_json),
        count_regular_elements(spec),
        text,
        _compact_json(text)[1:-1],
        _compact_json(json.loads(looped_json)),
    )


def ring_keys(spec) -> _RingKeys:
    """The conjecture-1 keys of spec, built once and kept in its ring table."""
    return ring_table(spec).keep(_ring_keys)


_FULL_BUDGET = "full-graph isomorphism search exceeded the node budget"
_COMPRESSED_BUDGET = "compressed-graph search exceeded the node budget"
_FULL_ONLY = "full graphs isomorphic but compressed-and-count test disagrees"
_COUNT_ONLY = "compressed-and-count test passes but full graphs are not isomorphic"
# the JSON text of each skip reason and failed side, and of False and True
_JSON = {s: _compact_json(s) for s in (_FULL_BUDGET, _COMPRESSED_BUDGET, _FULL_ONLY, _COUNT_ONLY)}
_JSON_BOOL = ("false", "true")


def _conjecture1_report(r1, r2, verdict, flags=None, note=None) -> ConjectureReport:
    """The report of a pair, its line byte for byte as report_to_json
    writes it: joined from the two rings' fragments, with the details in
    sorted key order. A skipped pair has no flags, and note is its reason.
    A compared pair has flags, whether the full graphs, the looped and the
    unlooped compressed graphs are isomorphic and whether the looped and
    unlooped readings pass; a counterexample's note is its failed side."""
    full = (
        f'"full_graph_digests":["{r1.full_digest}","{r2.full_digest}"],'
        f'"full_graph_sizes":[{r1.full_size},{r2.full_size}]'
    )
    if flags is None:
        details = f'{full},"reason":{_JSON[note]}'
    else:
        lhs, looped, unlooped, rhs, rhs_unlooped = flags
        failed = witness = ""
        if note is not None:
            failed = f'"failed_side":{_JSON[note]},'
            witness = f',"witness_graphs":{{"compressed_looped":[{r1.witness},{r2.witness}]}}'
        details = (
            f'"compressed_graph_digests":["{r1.looped_digest}","{r2.looped_digest}"],'
            f'"compressed_looped_isomorphic":{_JSON_BOOL[looped]},'
            f'"compressed_unlooped_isomorphic":{_JSON_BOOL[unlooped]},{failed}{full},'
            f'"full_graphs_isomorphic":{_JSON_BOOL[lhs]},'
            f'"regular_element_counts":[{r1.regular},{r2.regular}],'
            f'"rhs_looped_reading":{_JSON_BOOL[rhs]},'
            f'"rhs_unlooped_reading":{_JSON_BOOL[rhs_unlooped]}{witness}'
        )
    line = (
        f'{{"conjecture":1,"details":{{{details}}},'
        f'"instance":"{r1.spec_json} | {r2.spec_json}","verdict":"{verdict}"}}'
    )
    return ConjectureReport(1, f"{r1.spec} | {r2.spec}", verdict, None, line)


def check_conjecture1(ring1, ring2, budget: int = DEFAULT_BUDGET) -> ConjectureReport:
    """Full-graph isomorphism against the compressed-graph-and-count test.

    ring1 and ring2 are ring specs or their ring_keys; a caller that checks
    many pairs resolves each ring once and passes its keys. Each ring's
    canonical keys, digests and regular-element count are made once and
    kept in its ring table, so a pair is decided by comparing keys: the
    full graphs are isomorphic exactly when their twin quotients are (see
    twin_quotient), and the compressed graphs when their keys are equal. A
    pair whose key took more than budget search nodes is skipped; the node
    counts come from the table, so the verdict is the same whether the
    table was built for this pair or an earlier one."""
    r1 = ring1 if isinstance(ring1, _RingKeys) else ring_keys(ring1)
    r2 = ring2 if isinstance(ring2, _RingKeys) else ring_keys(ring2)
    if r1.twin_nodes > budget or r2.twin_nodes > budget:
        return _conjecture1_report(r1, r2, "skipped", note=_FULL_BUDGET)
    if max(r1.looped_nodes, r2.looped_nodes, r1.unlooped_nodes, r2.unlooped_nodes) > budget:
        return _conjecture1_report(r1, r2, "skipped", note=_COMPRESSED_BUDGET)
    lhs = r1.twin_key == r2.twin_key
    looped = r1.looped_key == r2.looped_key
    unlooped = r1.unlooped_key == r2.unlooped_key
    same_count = r1.regular == r2.regular
    flags = (lhs, looped, unlooped, looped and same_count, unlooped and same_count)
    if lhs == flags[3]:
        return _conjecture1_report(r1, r2, "supported", flags)
    return _conjecture1_report(r1, r2, "counterexample", flags, _FULL_ONLY if lhs else _COUNT_ONLY)


# --- conjecture 2 -------------------------------------------------------------


def _sample_indices(size: int) -> range:
    """Every index up to SAMPLE_LIMIT; past it, every step-th, at most SAMPLE_LIMIT."""
    return range(0, size, -(-size // SAMPLE_LIMIT))


def check_conjecture2(ambient, union_gens) -> ConjectureReport:
    """Classes of a and of gcd({a} and the generators) must coincide."""
    instance = _instance_string(ambient, union_gens)
    details: dict = {}
    window = _window(ambient, union_gens, details)
    if window.failure:
        return _skip(2, instance, details, window.failure)
    details["window_exact"] = window.exact
    quotient, qmodel, scan = window.quotient, window.model, window.scan
    details["quotient_graph_digest"] = _digest(oracle_compressed_graph(quotient, loops=True))
    amodel = ring_table(ambient).model
    sample = _sample_indices(amodel.size)
    details["sample"] = (
        "all window elements"
        if sample.step == 1
        else f"every window element whose index is a multiple of {sample.step}"
    )
    checked = 0
    for a in map(amodel.element, sample):
        g = _ufd_gcd(ambient, a, union_gens)
        ca = scan.class_ids[qmodel.index(a)]
        cg = scan.class_ids[qmodel.index(g)]
        checked += 1
        if ca != cg:
            details["witness"] = {
                "a": element_label(ambient, a),
                "gcd": element_label(ambient, g),
                "class_of_a": element_label(quotient, qmodel.element(scan.groups[ca].first)),
                "class_of_gcd": element_label(quotient, qmodel.element(scan.groups[cg].first)),
            }
            details["checked"] = checked
            if window.exact:
                return ConjectureReport(2, instance, "counterexample", details)
            return _skip(2, instance, details, _TRUNCATION)
    details["checked"] = checked
    return ConjectureReport(2, instance, "supported", details)


# --- conjecture 3 -------------------------------------------------------------


def check_conjecture3(ambient, union_gens) -> ConjectureReport:
    """Predicted product-class graph against the oracle graph of the quotient."""
    instance = _instance_string(ambient, union_gens)
    details: dict = {}
    window = _window(ambient, union_gens, details)
    if window.failure:
        return _skip(3, instance, details, window.failure)
    details["window_exact"] = window.exact
    details["interpretation"] = (
        "products of at most len(basis) generalized-basis elements; "
        "edges use the first product found in each class"
    )
    if window.inst is None:
        return _skip(3, instance, details, window.inst_failure)
    inst, quotient, qmodel, scan = window.inst, window.quotient, window.model, window.scan
    ids = scan.class_ids
    one = parse_element(ambient, "1")
    zero_cls = int(ids[qmodel.index(parse_element(ambient, "0"))])
    unit_cls = int(ids[qmodel.index(one)])
    basis = window.basis()
    details["basis_size"] = len(basis)

    # breadth-first closure over products of basis elements, from the empty
    # product; one exponent vector per class reached
    found: dict[int, tuple] = {}
    queue = [((0,) * len(inst.irreducibles), one, 0)]
    cap = max(1, len(basis))
    for vec, img, length in queue:  # the loop visits entries appended below
        if length >= cap:
            continue
        for bvec, bimg in basis:
            nimg = mul_elements(ambient, img, bimg)
            cls = int(ids[qmodel.index(nimg)])
            if cls == zero_cls or cls in found:
                continue
            if cls == unit_cls:
                # only from the empty product: img is a non-unit past length 0,
                # and a multiple of a non-unit is a non-unit
                details["witness"] = element_label(ambient, nimg)
                reason = "a basis element maps to a unit; the union expression is not minimal"
                return _skip(3, instance, details, reason)
            found[cls] = tuple(v + b for v, b in zip(vec, bvec))
            queue.append((found[cls], nimg, length + 1))

    # the predicted graph, built in the oracle's labels
    label_of = {
        gid: element_label(quotient, qmodel.element(scan.groups[gid].first))
        for gid in scan.zd_gids
    }
    classes = sorted(found)
    names = [label_of[c] for c in classes]
    vecs = [found[c] for c in classes]
    predicted = basis_graph(inst.gen_vectors, vecs, names, loops=True)
    oracle = oracle_compressed_graph(quotient, loops=True)

    def looped(g):
        return {v.label for v in g.vertices if v.loop}

    details["oracle_graph_digest"] = _digest(oracle)
    details["predicted_vertices"] = names
    details["loops_agree"] = looped(predicted) == looped(oracle)

    mismatch = None
    labels = [v.label for v in oracle.vertices]
    if [v.label for v in predicted.vertices] != labels:
        mismatch = "vertex sets differ"
        # both lists in class order, as predicted_vertices is
        in_oracle = set(labels)
        missing = [s for c, s in label_of.items() if s in in_oracle and c not in found]
        extra = [s for s in names if s not in in_oracle]
        details["witness"] = {"missing_from_prediction": missing, "extra_in_prediction": extra}
    elif predicted.edges != oracle.edges:
        mismatch = "edge sets differ"
        diff = set(predicted.edges).symmetric_difference(oracle.edges)
        details["witness"] = sorted([labels[i], labels[j]] for i, j in diff)[:5]
    if mismatch is None:
        details["checked_edges"] = len(oracle.edges)
        return ConjectureReport(3, instance, "supported", details)
    details["mismatch"] = mismatch
    if window.exact:
        return ConjectureReport(3, instance, "counterexample", details)
    return _skip(3, instance, details, _TRUNCATION)


# --- conjecture 4 -------------------------------------------------------------


def _pattern(inst: _Instance):
    """Exponent rows over the instance's irreducibles, zero columns dropped."""
    cols = [
        i
        for i in range(len(inst.irreducibles))
        if any(vec[i] for vec in inst.gen_vectors)
    ]
    return [tuple(vec[i] for i in cols) for vec in inst.gen_vectors]


def _patterns_match(rows1, rows2):
    if len(rows1) != len(rows2):
        return False
    if not rows1:
        return True
    w1, w2 = len(rows1[0]), len(rows2[0])
    if w1 != w2:
        return False
    target = sorted(rows1)
    for perm in permutations(range(w2)):
        if sorted(tuple(r[i] for i in perm) for r in rows2) == target:
            return True
    return False


def check_conjecture4(
    ambient1, union_gens1, ambient2, union_gens2, budget: int = DEFAULT_BUDGET
) -> ConjectureReport:
    """Matching exponent patterns should force isomorphic compressed graphs."""
    instance = (
        f"{_instance_string(ambient1, union_gens1)} | "
        f"{_instance_string(ambient2, union_gens2)}"
    )
    details: dict = {}
    windows = []
    for side, (ambient, gens) in enumerate([(ambient1, union_gens1), (ambient2, union_gens2)], 1):
        details[f"side{side}"] = {}
        w = _window(ambient, gens, details[f"side{side}"])
        failure = w.failure
        if not failure and w.model.size == ring_table(ambient).model.size:
            failure = "ideal is trivial"
        elif not failure and not w.scan.zd_gids:
            failure = "ideal is maximal in the window model"
        if failure:
            return _skip(4, instance, details, f"side {side}: {failure}")
        windows.append(w)
    w1, w2 = windows
    for side, w in enumerate(windows, 1):
        if w.inst is None:
            return _skip(4, instance, details, f"side {side}: {w.inst_failure}")
    rows1, rows2 = _pattern(w1.inst), _pattern(w2.inst)
    details["patterns"] = [sorted(rows1), sorted(rows2)]
    if not _patterns_match(rows1, rows2):
        reason = "exponent patterns do not match; the conjecture asserts sufficiency only"
        return _skip(4, instance, details, reason)

    exact = w1.exact and w2.exact
    details["windows_exact"] = [w1.exact, w2.exact]

    if exact:
        details["layer"] = "oracle graphs"
        g1 = oracle_compressed_graph(w1.quotient, loops=True)
        g2 = oracle_compressed_graph(w2.quotient, loops=True)
    elif len(union_gens1) == 1 and len(union_gens2) == 1:
        details["layer"] = "predicted graphs (windows not exact)"
        g1 = graph_from_exponents(rows1[0], loops=True)
        g2 = graph_from_exponents(rows2[0], loops=True)
    else:
        reason = (
            "window truncation prevents the oracle layer and no predicted "
            "construction exists for multi-generator ideals"
        )
        return _skip(4, instance, details, reason)
    details["graph_digests"] = [_digest(g1), _digest(g2)]
    try:
        report = graphs_isomorphic(g1, g2, budget=budget)
    except SearchBudgetExceeded:
        return _skip(4, instance, details, "isomorphism search exceeded the node budget")
    if report.isomorphic:
        return ConjectureReport(4, instance, "supported", details)
    if exact:
        details["witness_graphs"] = [json.loads(graph_json(g)) for g in (g1, g2)]
    details["separating"] = report.separating
    return ConjectureReport(4, instance, "counterexample", details)


# --- instance families ------------------------------------------------------


def default_instances(conjecture: int, max_n: int | None = None):
    """Deterministic instance tuples for each conjecture's default scan.

    Conjecture 1's pairs (Z/n1, Z/n2), n1 < n2, come lazily from one list of
    rings, so they share the ring objects and never stand in memory at once;
    the other conjectures' short lists are built whole."""
    if conjecture == 1:
        top = 100 if max_n is None else max_n
        return combinations([IntegersMod(n) for n in range(2, top + 1)], 2)
    f2 = lambda *coeffs: FpPoly(2, coeffs)
    f3 = lambda *coeffs: FpPoly(3, coeffs)
    xy33 = BivariateMonomialQuotient(2, ((3, 0), (0, 3)))
    xy22 = BivariateMonomialQuotient(2, ((2, 0), (0, 2)))
    if conjecture in (2, 3):
        top = 24 if max_n is None else min(max_n, SCAN_LIMIT // 4)
        instances = [
            (IntegersMod(4 * n), [n])
            for n in range(2, max(3, top + 1))
        ]
        instances += [
            (PolyQuotient(2, f2(0, 0, 0, 0, 1)), [f2(0, 0, 1)]),
            (PolyQuotient(2, f2(0, 0, 1, 0, 1)), [f2(0, 1, 1)]),
            (PolyQuotient(2, f2(0, 0, 0, 1, 0, 1)), [f2(0, 0, 1, 1)]),
            (PolyQuotient(3, f3(0, 0, 0, 0, 1)), [f3(0, 0, 1)]),
            (PolyQuotient(3, f3(0, 0, 1, 2, 1)), [f3(0, 1, 1)]),
        ]
        instances += [
            (xy33, [parse_element(xy33, "x^2*y")]),
            (xy33, [parse_element(xy33, "x^2*y"), parse_element(xy33, "x^2*y^2")]),
            (xy22, [parse_element(xy22, "x"), parse_element(xy22, "y")]),
        ]
        return instances
    if conjecture == 4:
        return [
            # cross-backend pattern (2, 1): x^2 y against x^2 (x+1)
            (
                xy33,
                [parse_element(xy33, "x^2*y")],
                PolyQuotient(2, f2(0, 0, 1, 0, 1)),
                [f2(0, 0, 1, 1)],
            ),
            # exact-exact, two primes: 12 against x^2 (x+1) over F_2
            (
                IntegersMod(72),
                [12],
                PolyQuotient(2, f2(0, 0, 0, 1, 0, 1)),
                [f2(0, 0, 1, 1)],
            ),
            # exact-exact, single prime, cross characteristic
            (IntegersMod(64), [8], PolyQuotient(3, f3(0, 0, 0, 0, 1)), [f3(0, 0, 0, 1)]),
            # mismatched patterns
            (IntegersMod(64), [8], IntegersMod(36), [6]),
            # maximal ideal gate
            (IntegersMod(16), [2], IntegersMod(81), [3]),
            # inexact-inexact, prime monomial ideals on both sides
            (
                xy22,
                [parse_element(xy22, "y")],
                xy22,
                [parse_element(xy22, "x")],
            ),
        ]
    raise ValueError("conjecture id must be 1, 2, 3, or 4")


def parse_instance_line(conjecture: int, line: str, specs: dict | None = None):
    """One instance per line; fields separated by '|'.

    conjecture 1: spec | spec
    conjectures 2, 3: spec | gen, gen, ...
    conjecture 4: spec | gens | spec | gens

    specs, when given, maps each ring text already parsed to its spec and
    gains the texts this line parses, so that the lines of one file parse
    each ring text once and share its spec object.
    """
    parts = [p.strip() for p in line.split("|")]
    if conjecture == 1:
        if len(parts) != 2:
            raise ValueError("conjecture 1 instances need two ring specs")
        return (_parse_spec(parts[0], specs), _parse_spec(parts[1], specs))
    if conjecture in (2, 3):
        if len(parts) != 2:
            raise ValueError("conjecture 2/3 instances need a spec and generators")
        return _parse_ring_and_gens(*parts, specs)
    if conjecture == 4:
        if len(parts) != 4:
            raise ValueError("conjecture 4 instances need two spec/generator pairs")
        return (*_parse_ring_and_gens(*parts[:2], specs), *_parse_ring_and_gens(*parts[2:], specs))
    raise ValueError("conjecture id must be 1, 2, 3, or 4")


def _parse_spec(text: str, specs: dict | None):
    if specs is None:
        return parse_ring_spec(text)
    if text not in specs:
        specs[text] = parse_ring_spec(text)
    return specs[text]


def _parse_ring_and_gens(spec: str, gens: str, specs: dict | None):
    ambient = _parse_spec(spec, specs)
    return ambient, [parse_element(ambient, g.strip()) for g in gens.split(",")]
