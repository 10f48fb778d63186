"""Seeded inputs and independent reference answers for the benchmark.

Each workload is a list of *rounds*; a round is a fixed list of cases and the
benchmark always runs whole rounds, so every run sees the same mix of input
sizes and document families.  Where the seed draws inputs whose cost varies
(random documents, random literal signs), several distinct rounds are drawn
and cycled, so one run averages over more than one draw.

The engine only ever receives the generated query text and document.  The
references below never build an automaton: they come from closed forms,
``str.find``, brute-force assignment search and substring comparison.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

from spanex import (
    ConjunctiveQuery,
    Span,
    SpanTuple,
    UnionQuery,
    brute_force_sat,
    gen_3cnf_query,
    query_to_source,
)

DENSE_QUERY = "SELECT x FROM /.* x{.*} .*/"
SPARSE_QUERY = "SELECT x FROM /.* x{ab} .*/"
STREQ_QUERY = "SELECT x, y FROM /.* x{.*} .* y{.*} .*/ WHERE x == y"

# Three sizes in a geometric progression per enumeration workload: the
# per-query median then falls inside the middle size's cluster, and the
# smallest and largest sizes give the delay slope.
DENSE_LENGTHS = (120, 170, 240)
SPARSE_LENGTHS = (2000, 3464, 6000)

# 3CNF instances as (clauses, whether the seed draws the literal signs).  The
# cost of the compiled join depends on how clauses share variables and, by up
# to 20 %, on the variable order, so both are fixed.  The 3-clause instance is
# the round's largest join (about 200 MB, half the round's time), and its cost
# varies 2x with the signs, so its signs are fixed too.  Two cheap instances
# balance the two costly ones, so the per-query median falls in the middle of
# the 4-variable instances rather than at their slow edge.
SAT_INSTANCES = (
    (((1, 2, 3), (1, 2, 3)), True),            # 2 clauses, 3 variables
    (((1, 2, 3), (1, 2, 3)), True),
    (((1, 2, 3), (2, 3, 4)), True),            # 2 clauses, 4 variables
    (((1, 2, 3), (2, 3, 4)), True),
    (((1, 2, 3), (2, 3, 4)), True),
    (((1, 2, 3), (2, 3, 4)), True),
    (((1, 2, 3), (3, 4, 5)), True),            # 2 clauses, 5 variables
    (((1, -2, 3), (-2, 3, -4), (-1, 3, 4)), False),  # 3 clauses, 4 variables
)

STREQ_RANDOM_LENGTHS = (16, 16, 20, 20)
# (ab)^10 is the largest automaton of a round, so the peak memory of a run
# does not depend on which random documents the seed drew.
STREQ_PERIODS = (("ab", 10), ("aab", 6))
# The shortest unary document whose equality-path estimate, sum of k^2 for
# k = 1..39 = 20,540, exceeds the default budget of 20,000 paths.
STREQ_UNARY_LENGTH = 38


@dataclass(frozen=True)
class Case:
    """One query run: the text and document the engine receives, the input
    family it was drawn from, and how to compute its expected answer."""

    family: str
    text: str
    doc: str
    reference: Callable[[], frozenset]


WORKLOADS = {}


def workload(name: str, pool: int):
    def register(draw_round):
        WORKLOADS[name] = (draw_round, pool)
        return draw_round
    return register


def generate(name: str, seed: int) -> list[list[Case]]:
    """The workload's rounds for this seed (same seed, same inputs)."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")
    draw_round, pool = WORKLOADS[name]
    rng = random.Random(f"{name}/{seed}")
    return [draw_round(rng) for _ in range(pool)]


# ---------------------------------------------------------------------------
# enum-dense: every span of a document
# ---------------------------------------------------------------------------


def _all_spans_reference(length: int) -> frozenset:
    expected = frozenset(SpanTuple({"x": Span(b, e)})
                         for b in range(1, length + 2)
                         for e in range(b, length + 2))
    if len(expected) != (length + 1) * (length + 2) // 2:
        raise AssertionError("all-spans reference disagrees with its closed form")
    return expected


@workload("enum-dense", pool=1)
def _dense_round(rng: random.Random) -> list[Case]:
    # `.` matches every letter, so the answer and its cost depend only on
    # the document length; the seed draws the letters.
    return [Case(f"random-ab-{n}", DENSE_QUERY,
                 "".join(rng.choice("ab") for _ in range(n)),
                 lambda n=n: _all_spans_reference(n))
            for n in DENSE_LENGTHS]


# ---------------------------------------------------------------------------
# enum-sparse: few answers over a long document
# ---------------------------------------------------------------------------


def _planted_doc(rng: random.Random, length: int) -> str:
    """Random {a,b,c} text with exactly length // 9 occurrences of "ab" (the
    expected count for uniform letters), so every draw has the same number
    of answers."""
    hits = length // 9
    # choose hit start positions among non-overlapping slots
    slots = sorted(rng.sample(range(length - hits), hits))
    starts = {slot + i for i, slot in enumerate(slots)}
    chars: list[str] = []
    while len(chars) < length:
        if len(chars) in starts:
            chars += "ab"
            continue
        pool = "ac" if chars and chars[-1] == "a" else "abc"
        chars.append(rng.choice(pool))
    return "".join(chars)


def _occurrence_reference(doc: str) -> frozenset:
    expected = set()
    at = doc.find("ab")
    while at >= 0:
        expected.add(SpanTuple({"x": Span(at + 1, at + 3)}))
        at = doc.find("ab", at + 1)
    return frozenset(expected)


@workload("enum-sparse", pool=2)
def _sparse_round(rng: random.Random) -> list[Case]:
    cases = []
    for n in SPARSE_LENGTHS:
        doc = _planted_doc(rng, n)
        cases.append(Case(f"planted-abc-{n}", SPARSE_QUERY, doc,
                          lambda doc=doc: _occurrence_reference(doc)))
    return cases


# ---------------------------------------------------------------------------
# join-sat: 3CNF satisfiability as a join of clause atoms
# ---------------------------------------------------------------------------


def _sat_reference(clauses, n_vars: int) -> frozenset:
    """Every satisfying assignment, encoded as gen_3cnf_query encodes it:
    a variable's empty span sits before the letter for false, after it for
    true."""
    expected = set()
    for bits in itertools.product((False, True), repeat=n_vars):
        if all(any(bits[abs(lit) - 1] == (lit > 0) for lit in clause)
               for clause in clauses):
            expected.add(SpanTuple({f"x{v + 1}": Span(2, 2) if bit else Span(1, 1)
                                    for v, bit in enumerate(bits)}))
    if bool(expected) != brute_force_sat(clauses):
        raise AssertionError("assignment search disagrees with brute_force_sat")
    return frozenset(expected)


@workload("join-sat", pool=6)
def _sat_round(rng: random.Random) -> list[Case]:
    cases = []
    for shape, draw_signs in SAT_INSTANCES:
        n_vars = max(abs(lit) for clause in shape for lit in clause)
        clauses = [tuple(rng.choice((1, -1)) * lit if draw_signs else lit for lit in clause)
                   for clause in shape]
        boolean, doc = gen_3cnf_query(clauses)
        # Select every variable instead of (): the compiled join is the same,
        # and the answer (all satisfying assignments) has enough tuples for
        # inter-tuple delays.
        names = tuple(f"x{v}" for v in range(1, n_vars + 1))
        query = UnionQuery((ConjunctiveQuery(names, boolean.disjuncts[0].atoms),))
        cases.append(Case(f"3cnf-{len(shape)}c{n_vars}v", query_to_source(query), doc,
                          lambda c=tuple(clauses), n=n_vars: _sat_reference(c, n)))
    return cases


# ---------------------------------------------------------------------------
# streq: string equality between two spans
# ---------------------------------------------------------------------------


def _equal_pairs_reference(doc: str) -> frozenset:
    """All (x, y) with x ending no later than y begins and equal text."""
    by_text: dict[str, list[Span]] = {}
    n = len(doc)
    for b in range(1, n + 2):
        for e in range(b, n + 2):
            by_text.setdefault(doc[b - 1:e - 1], []).append(Span(b, e))
    return frozenset(SpanTuple({"x": x, "y": y})
                     for spans in by_text.values()
                     for x in spans for y in spans if x.end <= y.begin)


@workload("streq", pool=4)
def _streq_round(rng: random.Random) -> list[Case]:
    docs = [(f"random-ab-{n}", "".join(rng.choice("ab") for _ in range(n)))
            for n in STREQ_RANDOM_LENGTHS]
    # periodic and unary documents: the structure is fixed, the seed draws
    # which letters spell it
    spelling = str.maketrans("ab", "".join(rng.sample("abc", 2)))
    for period, repeats in STREQ_PERIODS:
        docs.append((f"periodic-{period}", period.translate(spelling) * repeats))
    docs.append((f"unary-{STREQ_UNARY_LENGTH}", rng.choice("abc") * STREQ_UNARY_LENGTH))
    return [Case(family, STREQ_QUERY, doc, lambda doc=doc: _equal_pairs_reference(doc))
            for family, doc in docs]
