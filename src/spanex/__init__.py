"""spanex: evaluate capture-variable regular expressions and queries over
documents, streaming every matching span tuple.

Typical use::

    from spanex import compile_regex, enumerate_spans, parse_formula

    automaton = compile_regex(parse_formula("a* x{a*} a*"))
    for tup in enumerate_spans(automaton, "aaa"):
        print(tup)

Queries (joins, unions, string-equality filters) go through
:func:`parse_query` and :func:`eval_query`.
"""

from .model import (
    CLOSED,
    EMPTY_TUPLE,
    OPEN,
    Span,
    SpanTuple,
    WAITING,
    all_spans,
    span_text,
)
from .formula import (
    Alt,
    Any,
    Bind,
    Cat,
    Empty,
    Epsilon,
    Formula,
    FormulaSyntaxError,
    Star,
    Sym,
    formula_to_source,
    formula_variables,
    parse_formula,
)
from .vsa import (
    ANY,
    FunctionalityReport,
    NotFunctionalAutomaton,
    NotFunctionalError,
    VSA,
    VsaFormatError,
    dump_vsa,
    load_vsa,
    trim,
)
from .compiler import (
    EqualityBudgetError,
    KeyReport,
    apply_selections,
    build_equality_automaton,
    check_functional,
    compile_regex,
    is_key_attribute,
    join,
    join_many,
    project,
    union_vsa,
)
from .enumerator import (
    EnumerationStats,
    MatchGraph,
    build_match_graph,
    enumerate_graph,
    enumerate_spans,
)
from .query import (
    ConjunctiveQuery,
    PlanOptions,
    QuerySyntaxError,
    UnionQuery,
    eval_canonical,
    eval_query,
    parse_query,
    plan_query,
    query_to_source,
)
from .harness import (
    brute_force_sat,
    gen_3cnf_query,
    gen_clique_query,
    gen_streq_clique_query,
)

__version__ = "0.1.0"

__all__ = [
    "ANY",
    "Alt",
    "Any",
    "Bind",
    "CLOSED",
    "Cat",
    "ConjunctiveQuery",
    "EMPTY_TUPLE",
    "Empty",
    "EnumerationStats",
    "Epsilon",
    "EqualityBudgetError",
    "Formula",
    "FormulaSyntaxError",
    "FunctionalityReport",
    "KeyReport",
    "MatchGraph",
    "NotFunctionalAutomaton",
    "NotFunctionalError",
    "OPEN",
    "PlanOptions",
    "QuerySyntaxError",
    "Span",
    "SpanTuple",
    "Star",
    "Sym",
    "UnionQuery",
    "VSA",
    "VsaFormatError",
    "WAITING",
    "all_spans",
    "apply_selections",
    "brute_force_sat",
    "build_equality_automaton",
    "build_match_graph",
    "check_functional",
    "compile_regex",
    "dump_vsa",
    "enumerate_graph",
    "enumerate_spans",
    "eval_canonical",
    "eval_query",
    "formula_to_source",
    "formula_variables",
    "gen_3cnf_query",
    "gen_clique_query",
    "gen_streq_clique_query",
    "is_key_attribute",
    "join",
    "join_many",
    "load_vsa",
    "parse_formula",
    "parse_query",
    "plan_query",
    "project",
    "query_to_source",
    "span_text",
    "trim",
    "union_vsa",
]
