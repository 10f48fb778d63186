"""Traced run: replays each query as the chain of public spanex calls that
``eval_query(strategy="auto")`` makes, timing every call from outside.

One span per public call (name, parent, start, end on the process CPU
clock), all spans of a query sharing its query id.  A layer's self time is a
span's duration minus its children's.  Counters (automaton sizes, match-graph
size, ``EnumerationStats``) are read at the same boundaries.  The replayed
answer must equal the untraced answer on every query, and every counter must
repeat exactly when the query is replayed a second time.
"""

from __future__ import annotations

import array
import signal
import statistics
import time
from collections import Counter
from contextlib import contextmanager

from spanex import (
    EnumerationStats,
    EqualityBudgetError,
    NotFunctionalError,
    PlanOptions,
    build_equality_automaton,
    build_match_graph,
    check_functional,
    compile_regex,
    enumerate_graph,
    eval_canonical,
    eval_query,
    join,
    parse_query,
    plan_query,
    project,
    trim,
    union_vsa,
)

clock = time.process_time_ns
stamp = time.perf_counter_ns  # inter-tuple gaps, as in the untraced run

COMPILED = "compiled"
LAYERS = ("query", "formula", "compiler", "vsa", "enumerator")
STATS_FIELDS = ("tuples", "max_node_set", "scan_steps", "fill_steps",
                "cold_transitions")


class Span:
    __slots__ = ("query", "parent", "name", "start", "end", "failed")

    def __init__(self, query: int, parent: int | None, name: str):
        self.query = query
        self.parent = parent
        self.name = name
        self.start = clock()
        self.end = 0
        self.failed = False


class Tracer:
    """Spans kept in memory; written out when the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.query = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = Span(self.query, self._open[-1] if self._open else None, name)
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        except BaseException:
            record.failed = True
            raise
        finally:
            record.end = clock()
            self._open.pop()


def _count_automaton(counts: Counter, stage: str, automaton) -> None:
    counts[f"{stage}_states"] += automaton.n_states
    counts[f"{stage}_transitions"] += len(automaton.transitions)


def _compile_cq(tr: Tracer, cq, doc: str, budget, counts: Counter):
    """``query.compile_cq``: check and compile each atom, fold the binary
    joins, apply the equality selection, project."""
    counts["compile_attempts"] += 1
    with tr.span("query.compile_cq"):
        atoms = []
        for atom in cq.atoms:
            with tr.span("formula.check_functional"):
                report = check_functional(atom)
            if not report.ok:
                raise NotFunctionalError(report.violation)
            with tr.span("compiler.compile_regex"):
                automaton = compile_regex(atom, check=False)
            _count_automaton(counts, "atom", automaton)
            atoms.append(automaton)
        with tr.span("vsa.trim"):
            joined = trim(atoms[0])
        for automaton in atoms[1:]:
            with tr.span("compiler.join"):
                joined = join(joined, automaton)
            _count_automaton(counts, "join", joined)
        if cq.equalities:
            try:
                with tr.span("compiler.build_equality_automaton"):
                    equality = build_equality_automaton(doc, cq.equalities,
                                                        path_budget=budget)
            except EqualityBudgetError:
                counts["fallbacks"] += 1
                raise
            _count_automaton(counts, "eq", equality)
            with tr.span("compiler.eq_join"):
                joined = join(joined, equality)
            _count_automaton(counts, "eq_join", joined)
        with tr.span("compiler.project"):
            return project(joined, cq.projected_set)


def _enumerate(tr: Tracer, automaton, doc: str, counts: Counter, stamps) -> list:
    """``enumerate_spans``: build the match graph, then drain
    ``enumerate_graph``, the first ``next()`` in its own span."""
    _count_automaton(counts, "final", automaton)
    with tr.span("enumerator.build_match_graph"):
        graph = build_match_graph(automaton, doc)
    counts["graph_nodes"] += graph.node_count
    counts["graph_edges"] += graph.edge_count
    stats = EnumerationStats()
    stream = enumerate_graph(graph, stats)
    rows = []
    with tr.span("enumerator.first_tuple"):
        first = next(stream, None)
    if first is not None:
        stamps.append(stamp())
        rows.append(first)
        with tr.span("enumerator.drain"):
            for row in stream:
                stamps.append(stamp())
                rows.append(row)
    for field in STATS_FIELDS:
        value = getattr(stats, field)
        key = f"enum_{field}"
        counts[key] = max(counts[key], value) if field == "max_node_set" else counts[key] + value
    return rows


def traced_eval(tr: Tracer, text: str, doc: str, counts: Counter, stamps) -> list:
    """The answer of ``eval_query(parse_query(text), doc)`` under the default
    plan options, computed through the same public calls."""
    with tr.span("query.eval_query"):
        with tr.span("query.parse_query"):
            query = parse_query(text)
        with tr.span("query.plan_query"):
            decisions = plan_query(query)
        counts["planned"] += len(decisions)
        counts["planned_compiled"] += decisions.count(COMPILED)
        budget = PlanOptions().eq_path_budget
        if all(decision == COMPILED for decision in decisions):
            try:
                automata = [_compile_cq(tr, cq, doc, budget, counts)
                            for cq in query.disjuncts]
            except EqualityBudgetError:
                pass
            else:
                if len(automata) == 1:
                    united = automata[0]
                else:
                    with tr.span("compiler.union_vsa"):
                        united = union_vsa(*automata)
                return _enumerate(tr, united, doc, counts, stamps)
        # mixed route: each disjunct on its own, compiled ones retried
        rows: list = []
        seen: set = set()
        for cq, decision in zip(query.disjuncts, decisions):
            part = None
            if decision == COMPILED:
                try:
                    automaton = _compile_cq(tr, cq, doc, budget, counts)
                except EqualityBudgetError:
                    pass
                else:
                    part = _enumerate(tr, automaton, doc, counts, stamps)
            if part is None:
                with tr.span("query.eval_canonical"):
                    part = eval_canonical(cq, doc)
            for row in part:
                if row not in seen:
                    seen.add(row)
                    rows.append(row)
        return rows


class _OverBudget(Exception):
    pass


def _over_budget(signum, frame):
    raise _OverBudget


def _timed_strategy(text: str, doc: str, strategy: str, cap_ns: int | None = None):
    """CPU nanoseconds of parse plus drained ``eval_query`` under a forced
    strategy, or None when it ran past ``cap_ns``."""
    start = clock()
    try:
        if cap_ns is not None:
            signal.setitimer(signal.ITIMER_PROF, cap_ns / 1e9)
        try:
            for _ in eval_query(parse_query(text), doc, strategy=strategy):
                pass
        finally:
            if cap_ns is not None:
                signal.setitimer(signal.ITIMER_PROF, 0)
    except _OverBudget:
        return None
    return clock() - start


def _equality_paths(text: str, doc: str) -> int:
    """Assignment paths the equality automata of the query need on ``doc``
    (the engine's own estimate, read from a zero budget)."""
    paths = 0
    for cq in parse_query(text).disjuncts:
        if cq.equalities:
            try:
                build_equality_automaton(doc, cq.equalities, path_budget=0)
            except EqualityBudgetError as err:
                paths += err.estimate
    return paths


class TracedRun:
    """Accumulates per-query records and spans over a traced run."""

    def __init__(self):
        self.tracer = Tracer()
        self.records: list[dict] = []
        self.first_counts: dict = {}
        self.eq_paths: dict = {}
        self.delays_by_len: dict[int, array.array] = {}
        self.problems: list[str] = []

    def run_case(self, key, case, expected) -> bool:
        """Trace one query; returns whether every check held."""
        # untraced, end to end
        start = clock()
        answer = list(eval_query(parse_query(case.text), case.doc, strategy="auto"))
        auto_ns = clock() - start

        tr = self.tracer
        tr.query += 1
        first_span = len(tr.spans)
        counts: Counter = Counter()
        stamps = array.array("q")
        replayed = traced_eval(tr, case.text, case.doc, counts, stamps)
        root = tr.spans[first_span]
        # the same chain again, untimed, must give identical counters
        repeat: Counter = Counter()
        traced_eval(Tracer(), case.text, case.doc, repeat, array.array("q"))

        canonical_ns = _timed_strategy(case.text, case.doc, "canonical")
        compiled_ns = _timed_strategy(case.text, case.doc, "compiled", cap_ns=canonical_ns)
        if key not in self.eq_paths:
            self.eq_paths[key] = _equality_paths(case.text, case.doc)

        ok = True
        if len(answer) != len(expected) or set(answer) != expected:
            self.problems.append(f"{case.family}: eval_query answer differs from reference")
            ok = False
        if len(replayed) != len(set(replayed)) or set(replayed) != set(answer):
            self.problems.append(f"{case.family}: traced chain answer differs from eval_query")
            ok = False
        if repeat != counts or self.first_counts.setdefault(key, counts) != counts:
            self.problems.append(f"{case.family}: counters did not repeat exactly")
            ok = False

        delays = self.delays_by_len.setdefault(len(case.doc), array.array("q"))
        delays.extend(b - a for a, b in zip(stamps, stamps[1:]))
        self.records.append({
            "query": tr.query,
            "family": case.family,
            "doc_len": len(case.doc),
            "tuples": len(answer),
            "eq_paths": self.eq_paths[key],
            "auto_ns": auto_ns,
            "traced_ns": root.end - root.start,
            "canonical_ns": canonical_ns,
            "compiled_ns": compiled_ns,
            "counts": dict(counts),
        })
        return ok

    def metrics(self) -> dict[str, float]:
        spans = self.tracer.spans
        child_ns = [0] * len(spans)
        for span in spans:
            if span.parent is not None:
                child_ns[span.parent] += span.end - span.start
        total: Counter = Counter()
        self_total: Counter = Counter()
        waste_ns = 0
        for i, span in enumerate(spans):
            duration = span.end - span.start
            total[span.name] += duration
            self_total[span.name.split(".")[0]] += duration - child_ns[i]
            if span.name == "query.compile_cq" and span.failed:
                waste_ns += duration
        records = self.records
        n = len(records)
        counts: Counter = Counter()
        for record in records:
            for name, value in record["counts"].items():
                counts[name] = (max(counts[name], value) if name == "enum_max_node_set"
                                else counts[name] + value)

        def per_query_s(span_name: str) -> float:
            return total[span_name] / 1e9 / n

        def ratio(numerator: float, denominator: float) -> float:
            return numerator / denominator if denominator else 0.0

        eq_records = [r for r in records if r["eq_paths"]]
        steps = counts["enum_scan_steps"] + counts["enum_fill_steps"]
        enum_tuples = counts["enum_tuples"]
        best_ns = sum(r["canonical_ns"] if r["compiled_ns"] is None
                      else min(r["canonical_ns"], r["compiled_ns"]) for r in records)
        sized = sorted(length for length, d in self.delays_by_len.items() if d)
        growth = (ratio(statistics.median(self.delays_by_len[sized[-1]]),
                        statistics.median(self.delays_by_len[sized[0]]))
                  if sized else 0.0)

        metrics = {f"{layer}.self_s": self_total[layer] / 1e9 / n for layer in LAYERS}
        metrics.update({
            "query.parse_s": per_query_s("query.parse_query"),
            "formula.check_s": per_query_s("formula.check_functional"),
            "compiler.compile_s": per_query_s("compiler.compile_regex"),
            "compiler.atom_states": counts["atom_states"] / n,
            "compiler.join_s": per_query_s("compiler.join"),
            "compiler.join_states": counts["join_states"] / n,
            "compiler.join_transitions": counts["join_transitions"] / n,
            "compiler.eq_automaton_s": per_query_s("compiler.build_equality_automaton"),
            "compiler.eq_automaton_states": counts["eq_states"] / n,
            "compiler.eq_useful_ratio": ratio(sum(r["tuples"] for r in eq_records),
                                              sum(r["eq_paths"] for r in eq_records)),
            "compiler.eq_join_s": per_query_s("compiler.eq_join"),
            "compiler.project_s": per_query_s("compiler.project"),
            "query.fallbacks": ratio(counts["fallbacks"], counts["compile_attempts"]),
            "query.fallback_waste_s": waste_ns / 1e9 / n,
            "query.plan_compiled_share": ratio(counts["planned_compiled"], counts["planned"]),
            "query.plan_regret": ratio(sum(r["auto_ns"] for r in records), best_ns),
            "query.canonical_s": per_query_s("query.eval_canonical"),
            "vsa.final_states": counts["final_states"] / n,
            "vsa.final_transitions": counts["final_transitions"] / n,
            "enumerator.graph_build_s": per_query_s("enumerator.build_match_graph"),
            "enumerator.graph_nodes": counts["graph_nodes"] / n,
            "enumerator.graph_edges": counts["graph_edges"] / n,
            "enumerator.first_tuple_s": per_query_s("enumerator.first_tuple"),
            "enumerator.enum_s": (per_query_s("enumerator.first_tuple")
                                  + per_query_s("enumerator.drain")),
            "enumerator.scan_steps_per_tuple": ratio(counts["enum_scan_steps"], enum_tuples),
            "enumerator.fill_steps_per_tuple": ratio(counts["enum_fill_steps"], enum_tuples),
            "enumerator.useful_step_ratio": ratio(enum_tuples, steps),
            "enumerator.cold_transitions": counts["enum_cold_transitions"] / n,
            "enumerator.max_node_set": counts["enum_max_node_set"],
            "enumerator.delay_growth": growth,
            "trace.overhead_ratio": ratio(sum(r["traced_ns"] for r in records),
                                          sum(r["auto_ns"] for r in records)),
        })
        return metrics

    def dump(self) -> dict:
        return {
            "spans": [[s.query, s.parent, s.name, s.start, s.end, s.failed]
                      for s in self.tracer.spans],
            "queries": self.records,
        }


@contextmanager
def cpu_cap_signal():
    """Route SIGPROF to the over-budget exception for the traced run."""
    previous = signal.signal(signal.SIGPROF, _over_budget)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)
