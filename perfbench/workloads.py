"""The four benchmark workloads: fixed pools of operations and a seeded draw.

Every workload is built so that a seed changes the inputs but not the work:
a seed picks among isomorphic variants of each ring (same size, same class
structure, different labels) and shuffles the order of the operations.  The
multiset of per-operation costs is therefore the same for every seed, which
keeps medians and percentiles comparable across seeds, while each seed still
sends the program different text.  Every variant of every operation is in
``golden.json``, so outputs are checked for any seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import comb

WORKLOADS = ("int-verify", "poly-oracle", "conjecture1", "basis-queries")

INSTANCES = "{instances}"  # placeholder for the conjecture-1 instance file
REPORT = "{report}"  # placeholder for its --report file


@dataclass(frozen=True)
class Op:
    """One CLI request, run in-process through zdgraph.cli.run."""

    argv: tuple[str, ...]
    warm: tuple[str, ...] = ()  # ring specs whose annihilator scan the op needs
    iso_check: str | None = None  # univariate spec: oracle graph must match the basis route

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Plan:
    workload: str
    seed: int
    ops: tuple[Op, ...]
    instances: tuple[str, ...] = ()  # conjecture 1 only: the instance file's lines
    properties: dict = field(default_factory=dict, compare=False)


# --- ring text helpers ----------------------------------------------------------


def _poly_text(coeffs: list[int]) -> str:
    """Pretty form of a polynomial given constant-first coefficients."""
    terms = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if not c:
            continue
        mono = "" if e == 0 else ("x" if e == 1 else f"x^{e}")
        if not mono:
            terms.append(str(c))
        else:
            terms.append(mono if c == 1 else f"{c}*{mono}")
    return "+".join(terms)


def shifted_power(p: int, k: int, a: int) -> str:
    """F_p[x]/((x+a)^k): isomorphic to F_p[x]/(x^k) for every a."""
    coeffs = [comb(k, i) * pow(a, k - i, p) % p for i in range(k + 1)]
    return f"F{p}[x]/({_poly_text(coeffs)})"


def bivariate_size(p: int, generators: tuple[tuple[int, int], ...]) -> int:
    top_a = max(a for a, _ in generators)
    top_b = max(b for _, b in generators)
    standard = sum(
        1
        for a in range(top_a + 1)
        for b in range(top_b + 1)
        if not any(a >= ga and b >= gb for ga, gb in generators)
    )
    return p**standard


def _bivariate(p: int, generators: tuple[tuple[int, int], ...]) -> str:
    def mono(a: int, b: int) -> str:
        parts = [v if e == 1 else f"{v}^{e}" for v, e in (("x", a), ("y", b)) if e]
        return "*".join(parts)

    text = ",".join(mono(a, b) for a, b in generators)
    return f"F{p}[x,y]/({text})"


def _swap(generators):
    return tuple((b, a) for a, b in generators)


def ring_size(spec: str) -> int:
    """Element count of a spec produced by this module."""
    if spec.startswith("Z/"):
        return int(spec[2:])
    p = int(spec[1 : spec.index("[")])
    if "[x,y]" in spec:
        body = spec[spec.index("(") + 1 : -1]
        gens = []
        for mono in body.split(","):
            a = b = 0
            for part in mono.split("*"):
                var, _, exp = part.partition("^")
                if var == "x":
                    a = int(exp or 1)
                else:
                    b = int(exp or 1)
            gens.append((a, b))
        return bivariate_size(p, tuple(gens))
    lead = spec[spec.index("/(") + 2 : -1].split("+")[0]
    degree = int(lead.partition("^")[2] or 1)
    return p**degree


# --- int-verify -------------------------------------------------------------------

VERIFY_MAX_N = 400


def _int_verify(rng: random.Random) -> tuple[list[Op], list[str], dict]:
    # Inputs are fixed: the seed is recorded but changes nothing.
    warm = tuple(f"Z/{n}" for n in range(2, VERIFY_MAX_N + 1))
    ops = [Op(("verify", "--max-n", str(VERIFY_MAX_N)), warm=warm)]
    props = {"rings": len(warm), "ring_sizes": _summary(range(2, VERIFY_MAX_N + 1))}
    return ops, [], props


# --- poly-oracle ------------------------------------------------------------------

GRAPH = "graph"  # graph SPEC --format json
COMPRESS = "compress"  # compress SPEC --loops --format json

# (variants, op sequence, count): a seed draws `count` distinct variants of
# the slot and runs the sequence on each.  The variants of a slot are
# isomorphic rings, so they cost the same.  A ring's ops always run in the
# listed order (the first pays the scan, the rest find it cached); only the
# interleaving of the rings' streams is shuffled, so cold and warm ops are
# the same ones for any seed.
#
# The costs form plateaus, so that the median and the 90th percentile of
# operation latency each fall inside a run of similar-cost operations for
# any number of rounds: 5 cold scans of 1024- and 2197-element rings on top,
# 2 mid-cost ops, 12 cold scans of 841-element rings in the middle and 8
# cheap ops at the bottom.
_F2_QUINTICS_SQUARED = (  # g(x)^2 = g(x^2) over F2, g an irreducible quintic
    "F2[x]/(x^10+x^6+1)",
    "F2[x]/(x^10+x^4+1)",
    "F2[x]/(x^10+x^8+x^6+x^4+1)",
    "F2[x]/(x^10+x^8+x^6+x^2+1)",
    "F2[x]/(x^10+x^8+x^4+x^2+1)",
    "F2[x]/(x^10+x^6+x^4+x^2+1)",
)


def _shifted(p, k, count=None):
    return tuple(shifted_power(p, k, a) for a in range(count or p))


def _bivariate_pair(p, generators):
    return tuple(_bivariate(p, g) for g in (generators, _swap(generators)))


POLY_SLOTS = (
    (_shifted(13, 3), (GRAPH,), 4),
    (_F2_QUINTICS_SQUARED, (GRAPH,), 1),
    (_bivariate_pair(2, ((5, 0), (0, 2))), (COMPRESS, GRAPH, COMPRESS), 1),
    (_shifted(29, 2), (GRAPH,), 12),
    (_bivariate_pair(2, ((3, 0), (2, 1), (0, 3))), (COMPRESS, GRAPH, COMPRESS), 1),
    (_bivariate_pair(2, ((4, 0), (0, 2))), (COMPRESS, COMPRESS), 1),
)

# iso queries on rings no other op touches, so each pays both scans.
# A variant is an orientation of the pair.
POLY_ISO_SLOTS = (
    (_bivariate_pair(2, ((4, 0), (1, 1), (0, 3))), ("--loops",)),
    (_bivariate_pair(3, ((2, 0), (1, 1), (0, 4))), ()),
)


def _poly_op(kind: str, spec: str) -> Op:
    if kind == GRAPH:
        iso_check = None if "[x,y]" in spec else spec
        return Op(("graph", spec, "--format", "json"), warm=(spec,), iso_check=iso_check)
    return Op(("compress", spec, "--loops", "--format", "json"), warm=(spec,))


def _iso_op(pair, flags) -> Op:
    return Op(("iso", pair[0], pair[1], *flags), warm=pair)


def poly_pool() -> list[Op]:
    ops = []
    for variants, sequence, _ in POLY_SLOTS:
        for spec in variants:
            ops.extend(_poly_op(kind, spec) for kind in sorted(set(sequence)))
    for pair, flags in POLY_ISO_SLOTS:
        ops.append(_iso_op(pair, flags))
        ops.append(_iso_op(pair[::-1], flags))
    return ops


def _poly_oracle(rng: random.Random):
    streams = []
    for variants, sequence, count in POLY_SLOTS:
        for spec in rng.sample(variants, count):
            streams.append([_poly_op(kind, spec) for kind in sequence])
    for pair, flags in POLY_ISO_SLOTS:
        streams.append([_iso_op(pair if rng.random() < 0.5 else pair[::-1], flags)])
    ops = _interleave(rng, streams)
    seen: set[str] = set()
    calls = repeats = 0
    for op in ops:
        for spec in op.warm:
            calls += 1
            repeats += spec in seen
            seen.add(spec)
    props = {
        "ops": len(ops),
        "mix": _mix(ops),
        "distinct_rings": len(seen),
        "ring_sizes": _summary(ring_size(s) for s in seen),
        "univariate_rings": sum("[x,y]" not in s for s in seen),
        "oracle_calls": calls,
        "oracle_calls_on_seen_ring_share": repeats / calls,
    }
    return ops, [], props


def _interleave(rng: random.Random, streams: list[list[Op]]) -> list[Op]:
    """A uniformly random merge that keeps each stream's own order."""
    labels = [i for i, stream in enumerate(streams) for _ in stream]
    rng.shuffle(labels)
    cursors = [iter(stream) for stream in streams]
    return [next(cursors[i]) for i in labels]


# --- conjecture1 ------------------------------------------------------------------

CONJ_INTEGERS = (12, 16, 18, 20, 24, 27, 28, 32, 36, 44, 45, 48, 50, 60, 64, 72, 81, 96, 100, 125, 128)
# (p, k): F_p[x]/((x+a)^k), size-matched to Z/p^k, whose full graph is isomorphic
# to that of F_p[x]/(x^k) and of Z/p^k, so the pair reaches the search.
CONJ_POLYS = ((2, 4), (2, 5), (2, 6), (2, 7), (3, 3), (3, 4), (5, 3))
CONJ_VARIANTS = 3
# Each same-size cross-family pair appears this many times in addition to
# once among all pairs, making about 15% of the file such pairs.
CONJ_CROSS_REPEATS = 8


def _conj_slots() -> list[tuple[str, ...]]:
    slots = [(f"Z/{n}",) for n in CONJ_INTEGERS]
    slots += [_shifted(p, k, min(p, CONJ_VARIANTS)) for p, k in CONJ_POLYS]
    return slots


def conj_pool() -> list[str]:
    """Every instance line any seed can produce."""
    slots = _conj_slots()
    lines = []
    for i, left in enumerate(slots):
        for right in slots[i + 1 :]:
            lines.extend(f"{a} | {b}" for a in left for b in right)
    return lines


def _conjecture1(rng: random.Random):
    chosen = [rng.choice(variants) for variants in _conj_slots()]
    pairs = [(a, b) for i, a in enumerate(chosen) for b in chosen[i + 1 :]]
    cross = [
        (f"Z/{p**k}", spec)
        for (p, k), spec in zip(CONJ_POLYS, chosen[len(CONJ_INTEGERS) :])
    ]
    pairs += cross * CONJ_CROSS_REPEATS
    rng.shuffle(pairs)
    lines = [f"{a} | {b}" for a, b in pairs]
    warm = tuple(dict.fromkeys(s for pair in pairs for s in pair))
    op = Op(("conjecture", "1", "--instances", INSTANCES, "--report", REPORT), warm=warm)
    cross_set = set(cross)
    props = {
        "pairs": len(pairs),
        "distinct_pairs": len(set(pairs)),
        "distinct_rings": len(warm),
        "ring_sizes": _summary(ring_size(s) for s in warm),
        "same_size_cross_family_share": sum(p in cross_set for p in pairs) / len(pairs),
        "ring_lookups_on_seen_ring_share": 1 - len(warm) / (2 * len(pairs)),
    }
    return [op], lines, props


# --- basis-queries ----------------------------------------------------------------


def _modulus(exponents, primes) -> int:
    out = 1
    for p, e in zip(primes, exponents):
        out *= p**e
    return out


BASIS_VERTICES: dict[str, int] = {}  # compressed-graph vertex count of every pool ring


def _pool(signature, specs) -> tuple[str, ...]:
    """A pool of rings whose moduli share one exponent signature."""
    vertices = 1
    for e in signature:
        vertices *= e + 1
    BASIS_VERTICES.update(dict.fromkeys(specs, vertices - 2))
    return tuple(specs)


def _moduli(signature, prime_sets) -> tuple[str, ...]:
    return _pool(signature, [f"Z/{_modulus(signature, ps)}" for ps in prime_sets])


# Each pool holds moduli with one exponent signature (so one graph shape and
# one cost); the seed picks which modulus, and so which labels, each op sees.
_SIG_BIG = (4, 2, 2, 1, 1, 1, 1, 1)  # 1438 vertices
_SIG_ISO = (4, 2, 1, 1, 1, 1)  # 238 vertices
_SIG_MID = (2, 2, 2, 1, 1, 1, 1)  # 430 vertices
_SIG_NONISO = ((3, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1))  # 62 vertices each, not isomorphic
_SMALL_SIGS = ((3, 2, 1, 1), (2, 2, 1, 1, 1), (3, 1, 1, 1, 1), (4, 2, 1, 1, 1), (2, 1, 1, 1, 1, 1))

# Leading primes differ, so every signature gets a distinct modulus per set;
# the sets also differ among their first six primes, for all-ones signatures.
_PRIME_SETS = (
    (2, 3, 5, 7, 11, 13, 17, 19),
    (3, 2, 5, 7, 11, 17, 13, 23),
    (5, 2, 3, 7, 13, 19, 11, 29),
    (7, 2, 3, 5, 11, 23, 13, 31),
)

BASIS_BIG = _moduli(_SIG_BIG, _PRIME_SETS)
BASIS_ISO = _moduli(_SIG_ISO, _PRIME_SETS)
BASIS_MID = _moduli(_SIG_MID, _PRIME_SETS)
BASIS_NONISO = tuple(_moduli(sig, _PRIME_SETS[:3]) for sig in _SIG_NONISO)
BASIS_SMALL = tuple(s for sig in _SMALL_SIGS for s in _moduli(sig, _PRIME_SETS[:2]))
# p*q with p just above 8*10^6 and q below p^2: trial division runs to p.
BASIS_SEMIPRIMES = _pool(
    (1, 1),
    [
        f"Z/{p * q}"
        for p, q in zip(
            (8000009, 8000017, 8000023, 8000033, 8000051, 8000053),
            (600000001, 600000007, 600000017, 600000019, 600000041, 600000077),
        )
    ],
)
# x^3 (x+1)^2 g over F2 with g irreducible of degree 20 (signature (3,2,1),
# like Z/360), and x^2 (x+2) g over F3 with g irreducible of degree 12
# (signature (2,1,1), like Z/60).
BASIS_F2 = _pool(
    (3, 2, 1),
    [
        "F2[x]/(x^25+x^23+x^8+x^6+x^5+x^3)",
        "F2[x]/(x^25+x^23+x^8+x^7+x^4+x^3)",
        "F2[x]/(x^25+x^23+x^9+x^6+x^4+x^3)",
        "F2[x]/(x^25+x^23+x^10+x^8+x^5+x^3)",
        "F2[x]/(x^25+x^23+x^11+x^9+x^7+x^6+x^4+x^3)",
        "F2[x]/(x^25+x^23+x^11+x^7+x^6+x^5+x^4+x^3)",
    ],
)
BASIS_F3 = _pool(
    (2, 1, 1),
    [
        "F3[x]/(x^15+2*x^14+x^5+2*x^4+2*x^3+x^2)",
        "F3[x]/(x^15+2*x^14+2*x^5+x^4+2*x^3+x^2)",
        "F3[x]/(x^15+2*x^14+x^7+2*x^6+x^4+2*x^2)",
        "F3[x]/(x^15+2*x^14+x^7+2*x^6+2*x^4+2*x^3+2*x^2)",
        "F3[x]/(x^15+2*x^14+x^7+2*x^6+2*x^5+2*x^4+x^3+x^2)",
        "F3[x]/(x^15+2*x^14+x^7+2*x^6+2*x^5+x^2)",
    ],
)
Z360 = _pool((3, 2, 1), ["Z/360"])
Z60 = _pool((2, 1, 1), ["Z/60"])

TABLE = ("--format", "table")
JSON = ("--format", "json")
DOT = ("--format", "dot")
LOOPS_TABLE = ("--loops", "--format", "table")
LOOPS_JSON = ("--loops", "--format", "json")
LOOPS_DOT = ("--loops", "--format", "dot")

# (pool, flags) per compress op, and (left pool, right pool, flags) per iso op.
BASIS_COMPRESS = (
    (BASIS_BIG, LOOPS_TABLE),
    *((BASIS_SEMIPRIMES, fmt) for fmt in (TABLE, JSON, DOT, TABLE, JSON, DOT)),
    *((BASIS_MID, fmt) for fmt in (TABLE, LOOPS_JSON, DOT, LOOPS_TABLE)),
    (BASIS_F2, LOOPS_JSON),
    (BASIS_F2, TABLE),
    (BASIS_F3, TABLE),
    *((BASIS_SMALL, fmt) for fmt in (TABLE, JSON, DOT, LOOPS_TABLE, LOOPS_DOT) * 2),
)
BASIS_ISO_OPS = (
    *((BASIS_ISO, BASIS_ISO, flags) for flags in (("--loops",), (), ("--loops",), ())),
    (BASIS_F2, Z360, ("--loops",)),
    (BASIS_F3, Z60, ()),
    (BASIS_NONISO[0], BASIS_NONISO[1], ("--loops",)),
    (BASIS_NONISO[1], BASIS_NONISO[0], ()),
)


def basis_pool() -> list[Op]:
    ops = {}
    for pool, flags in BASIS_COMPRESS:
        for spec in pool:
            op = Op(("compress", spec, *flags))
            ops[op.key] = op
    for left, right, flags in BASIS_ISO_OPS:
        for a in left:
            for b in right:
                if a != b:
                    op = Op(("iso", a, b, *flags))
                    ops[op.key] = op
    return list(ops.values())


def _basis_queries(rng: random.Random):
    ops = [Op(("compress", rng.choice(pool), *flags)) for pool, flags in BASIS_COMPRESS]
    for left, right, flags in BASIS_ISO_OPS:
        a = rng.choice(left)
        b = rng.choice([s for s in right if s != a])
        ops.append(Op(("iso", a, b, *flags)))
    rng.shuffle(ops)
    props = {
        "ops": len(ops),
        "mix": _mix(ops),
        "families": {
            "integer_composite": sum(
                1 for op in ops for s in op.argv[1:3] if s.startswith("Z/") and s not in BASIS_SEMIPRIMES
            ),
            "integer_semiprime": sum(1 for op in ops for s in op.argv[1:3] if s in BASIS_SEMIPRIMES),
            "polynomial": sum(1 for op in ops for s in op.argv[1:3] if s.startswith("F")),
        },
        "basis_vertices": _basis_vertex_summary(ops),
    }
    return ops, [], props


def _basis_vertex_summary(ops: list[Op]) -> dict:
    per_graph = [BASIS_VERTICES[s] for op in ops for s in op.argv[1:3] if s in BASIS_VERTICES]
    return {**_summary(per_graph), "total": sum(per_graph)}


# --- shared -----------------------------------------------------------------------


def _mix(ops: list[Op]) -> dict:
    out: dict[str, int] = {}
    for op in ops:
        out[op.argv[0]] = out.get(op.argv[0], 0) + 1
    return dict(sorted(out.items()))


def _summary(values) -> dict:
    values = sorted(values)
    return {
        "count": len(values),
        "min": values[0],
        "median": values[len(values) // 2],
        "max": values[-1],
    }


_BUILDERS = {
    "int-verify": _int_verify,
    "poly-oracle": _poly_oracle,
    "conjecture1": _conjecture1,
    "basis-queries": _basis_queries,
}


def make_plan(workload: str, seed: int) -> Plan:
    """The inputs of one workload for one seed; equal seeds give equal plans."""
    rng = random.Random(f"{workload}/{seed}")
    ops, lines, props = _BUILDERS[workload](rng)
    return Plan(workload, seed, tuple(ops), tuple(lines), props)
