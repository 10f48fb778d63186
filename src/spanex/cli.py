"""Command-line front end.

    spanex eval     --query Q.spq --input DOC [--format tsv|json|count] …
    spanex check    --formula F
    spanex compile  --formula F --dump OUT
    spanex analyze  --formula F --key x
    spanex bench    --query Q.spq --input DOC --report out.csv
    spanex gen      {3cnf|clique|streq-clique} … --out PREFIX

Exit codes: 0 success; 1 "negative" verdicts (empty result of a Boolean
query, non-key variable); 2 errors, including non-functional formulas.
"""

from __future__ import annotations

import argparse
import array
import gc
import itertools
import json
import os
import re
import statistics
import sys
import time

from .compiler import EqualityBudgetError, check_functional, compile_regex, is_key_attribute
from .enumerator import enumerate_graph
from .formula import parse_formula
from .harness import gen_3cnf_query, gen_clique_query, gen_streq_clique_query
from .model import Span
from .query import (
    UnionQuery,
    compile_query,
    eval_query,
    parse_query,
    query_to_source,
)
from .vsa import dump_vsa


class CliError(Exception):
    pass


# ---------------------------------------------------------------------------
# Input helpers
# ---------------------------------------------------------------------------


def _read_document(args) -> str:
    if getattr(args, "input_text", None) is not None:
        return args.input_text
    if not args.input:
        raise CliError("missing --input (or --input-text)")
    try:
        with open(args.input, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise CliError(f"cannot read document: {err}") from err
    if not args.keep_trailing_newline and text.endswith("\n"):
        text = text[:-1]
    return text


def _read_query(args) -> UnionQuery:
    if getattr(args, "query_text", None) is not None:
        source = args.query_text
    else:
        if not args.query:
            raise CliError("missing --query (or --query-text)")
        try:
            with open(args.query, encoding="utf-8") as handle:
                source = handle.read()
        except OSError as err:
            raise CliError(f"cannot read query: {err}") from err
    return parse_query(source)


def _span_json(span: Span) -> list[int]:
    return [span.begin, span.end]


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def cmd_eval(args) -> int:
    if args.limit is not None and args.limit < 0:
        raise CliError(f"--limit must be non-negative, got {args.limit}")
    query = _read_query(args)
    doc = _read_document(args)
    columns = list(query.projection)
    stream = itertools.islice(eval_query(query, doc, strategy=args.strategy),
                              args.limit)

    out = sys.stdout
    count = 0
    if args.format == "count":
        count = sum(1 for _ in stream)
        out.write(f"{count}\n")
        out.flush()
    else:
        # take the first row before any output, so that a query that fails
        # to evaluate writes its error alone
        first = next(stream, None)
        rows = () if first is None else itertools.chain((first,), stream)
        if args.format == "tsv":
            header = "\t".join(columns) if columns else "()"
            out.write(f"# {header}\n")
            out.flush()
        for row in rows:
            if args.format == "tsv":
                if columns:
                    out.write("\t".join(str(row[c]) for c in columns) + "\n")
                else:
                    out.write("()\n")
            else:
                out.write(json.dumps(
                    {c: _span_json(row[c]) for c in columns},
                    sort_keys=True) + "\n")
            out.flush()
            count += 1
    if not query.projection and count == 0 and args.limit != 0:
        return 1
    return 0


# ---------------------------------------------------------------------------
# check / compile / analyze
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    formula = parse_formula(args.formula)
    report = check_functional(formula)
    if report.ok:
        print("functional")
        return 0
    violation = report.violation
    print(f"not functional: {violation.reason} (variable {violation.variable})")
    return 2


def cmd_compile(args) -> int:
    formula = parse_formula(args.formula)
    automaton = compile_regex(formula)
    text = dump_vsa(automaton)
    if args.dump == "-":
        sys.stdout.write(text)
    else:
        with open(args.dump, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.dump}")
    return 0


def cmd_analyze(args) -> int:
    formula = parse_formula(args.formula)
    automaton = compile_regex(formula)
    if args.key not in automaton.variables:
        raise CliError(f"variable {args.key!r} not in the formula")
    report = is_key_attribute(automaton, args.key)
    if report.is_key:
        print(f"{args.key} is a key attribute")
        return 0
    doc, left, right = report.witness
    print(f"{args.key} is not a key attribute")
    print(f"witness document: {doc!r}")
    print(f"  tuple 1: {left}")
    print(f"  tuple 2: {right}")
    return 1


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


_BENCH_CHUNK = 1 << 21  # timestamps per buffer; sized so typical runs never grow mid-stream


def cmd_bench(args) -> int:
    """Benchmark the streaming enumeration of a query (compiled route).

    Report CSV rows: the preprocessing time (:func:`~spanex.query.compile_query`,
    the compile and match-graph build that ``eval`` runs), the latency of the
    first result (frontier determinization included),
    one row per inter-tuple gap, the tuple count, and the gaps' max and median.

    Delays are CPU time of this process, and timestamps land in
    preallocated fixed-width buffers: wall-clock gaps in a shared machine
    mostly measure the scheduler, and letting the harness allocate one
    Python object per tuple shows up as page-fault spikes in the tail of
    long runs, drowning the enumerator's own worst case.
    """
    query = _read_query(args)
    doc = _read_document(args)

    t0 = time.perf_counter_ns()
    graph, _ = compile_query(query, doc)
    preprocess = time.perf_counter_ns() - t0
    rows = enumerate_graph(graph)

    clock = time.process_time_ns
    chunks = [array.array("q", bytes(8 * _BENCH_CHUNK))]
    count = 0
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        buf = chunks[0]
        fill = 0
        start = clock()
        for _ in rows:
            if fill == _BENCH_CHUNK:
                buf = array.array("q", bytes(8 * _BENCH_CHUNK))
                chunks.append(buf)
                fill = 0
            buf[fill] = clock()
            fill += 1
            count += 1
    finally:
        if was_enabled:
            gc.enable()

    stamps = list(itertools.islice(itertools.chain.from_iterable(chunks), count))
    lines = ["metric,index,nanoseconds", f"preprocess,,{preprocess}"]
    if count:
        lines.append(f"first_result,,{stamps[0] - start}")
        gaps = [b - a for a, b in zip(stamps, stamps[1:])]
        for i, gap in enumerate(gaps, start=2):
            lines.append(f"tuple,{i},{gap}")
        lines.append(f"tuple_count,,{count}")
        if gaps:
            lines.append(f"max_delay,,{max(gaps)}")
            lines.append(f"median_delay,,{int(statistics.median(gaps))}")
    text = "\n".join(lines) + "\n"
    with open(args.report, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"{count} tuples; preprocess {preprocess / 1e6:.2f} ms; "
          f"report written to {args.report}")
    return 0


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


_SIGNED = re.compile(r"[+-]?[0-9]+")
_UNSIGNED = re.compile(r"[0-9]+")


def _parse_clauses(text: str) -> list[tuple[int, int, int]]:
    clauses = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split()
        bad = [part for part in parts if not _SIGNED.fullmatch(part)]
        if bad:
            raise CliError(f"bad clause {chunk!r}: {bad[0]!r} is not a decimal literal")
        clauses.append(tuple(map(int, parts)))
    if not clauses:
        raise CliError("no clauses given")
    return clauses


def _parse_edges(text: str) -> list[tuple[int, int]]:
    edges = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [part.strip() for part in chunk.split("-")]
        if len(parts) != 2 or not all(map(_UNSIGNED.fullmatch, parts)):
            raise CliError(f"bad edge {chunk!r}: expected U-V, two decimal numbers")
        edges.append((int(parts[0]), int(parts[1])))
    return edges


def cmd_gen(args) -> int:
    if args.kind == "3cnf":
        if not args.clauses:
            raise CliError("3cnf needs --clauses \"l1 l2 l3; l1 l2 l3; …\"")
        query, doc = gen_3cnf_query(_parse_clauses(args.clauses))
    else:
        if args.nodes is None:
            raise CliError("clique generators need --nodes")
        graph = (args.nodes, _parse_edges(args.edges or ""))
        if args.kind == "clique":
            query, doc = gen_clique_query(graph, args.k)
        else:
            query, doc = gen_streq_clique_query(graph, args.k)
    query_path = args.out + ".spq"
    doc_path = args.out + ".doc"
    with open(query_path, "w", encoding="utf-8") as handle:
        handle.write(query_to_source(query) + "\n")
    with open(doc_path, "w", encoding="utf-8") as handle:
        handle.write(doc + "\n")
    print(f"wrote {query_path} and {doc_path}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def _add_document_flags(parser) -> None:
    parser.add_argument("--input", help="document file (UTF-8)")
    parser.add_argument("--input-text", help="document given inline")
    parser.add_argument("--keep-trailing-newline", action="store_true",
                        help="do not strip one trailing newline from the file")


def _add_query_flags(parser) -> None:
    parser.add_argument("--query", help="query file (.spq)")
    parser.add_argument("--query-text", help="query given inline")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spanex",
        description="Evaluate capture-variable regex queries over documents.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a query, stream the tuples")
    _add_query_flags(p_eval)
    _add_document_flags(p_eval)
    p_eval.add_argument("--format", choices=("tsv", "json", "count"),
                        default="tsv")
    p_eval.add_argument("--strategy", choices=("auto", "canonical", "compiled"),
                        default="auto")
    p_eval.add_argument("--limit", type=int, default=None,
                        help="stop after this many tuples")
    p_eval.set_defaults(func=cmd_eval)

    p_check = sub.add_parser("check", help="test a formula for functionality")
    p_check.add_argument("--formula", required=True)
    p_check.set_defaults(func=cmd_check)

    p_compile = sub.add_parser("compile",
                               help="compile a formula, write the automaton dump")
    p_compile.add_argument("--formula", required=True)
    p_compile.add_argument("--dump", required=True,
                           help="output path, or - for stdout")
    p_compile.set_defaults(func=cmd_compile)

    p_analyze = sub.add_parser("analyze", help="key-attribute analysis")
    p_analyze.add_argument("--formula", required=True)
    p_analyze.add_argument("--key", required=True,
                           help="variable to test for being a key attribute")
    p_analyze.set_defaults(func=cmd_analyze)

    p_bench = sub.add_parser("bench",
                             help="measure enumeration delays, write a CSV report")
    _add_query_flags(p_bench)
    _add_document_flags(p_bench)
    p_bench.add_argument("--report", required=True, help="CSV output path")
    p_bench.set_defaults(func=cmd_bench)

    p_gen = sub.add_parser("gen", help="generate reduction instances")
    p_gen.add_argument("kind", choices=("3cnf", "clique", "streq-clique"))
    p_gen.add_argument("--clauses",
                       help="3cnf: semicolon-separated clauses of 3 ints")
    p_gen.add_argument("--nodes", type=int, help="clique: node count")
    p_gen.add_argument("--edges", help="clique: comma-separated U-V pairs")
    p_gen.add_argument("--k", type=int, default=3, help="clique size")
    p_gen.add_argument("--out", required=True,
                       help="output prefix (writes PREFIX.spq and PREFIX.doc)")
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, EqualityBudgetError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input too long or too deeply nested to process", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to /dev/null so
        # the flush at interpreter shutdown does not fail a second time
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (AttributeError, ValueError, OSError):
            pass  # stdout is not a real file, as under a capturing test
        return 0
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
