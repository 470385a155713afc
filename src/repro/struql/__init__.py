"""STRUQL: Strudel's declarative query and restructuring language.

Typical use::

    from repro.struql import parse, evaluate

    site_graph = evaluate(SITE_QUERY_TEXT, data_graph)
"""

from .ast import (
    Alternation,
    AnyLabel,
    CollectClause,
    CollectionCond,
    ComparisonCond,
    Concat,
    Condition,
    Const,
    EdgeCond,
    LabelIs,
    LabelPredicate,
    LinkClause,
    NotCond,
    PathCond,
    PathExpr,
    PredicateCond,
    Program,
    Query,
    SkolemTerm,
    Star,
    Var,
    any_path,
    format_query,
)
from .builtins import (
    register_label_predicate,
    register_object_predicate,
)
from .eval import (
    Binding,
    Metrics,
    OperatorStats,
    QueryEngine,
    SplitStats,
    Value,
    evaluate,
    make_engine,
    query_bindings,
    register_engine_factory,
)
from .explain import explain
from .footprint import COARSE, DependencyIndex, Footprint, RecordingView, path_alphabet
from .optimizer import choose_path_direction, estimate_cost, order_conditions
from .parser import parse, parse_query, validate_query
from .paths import compile_path, sources_to_many, targets_from_many
from .plancache import PlanCache, clear_plan_cache, global_plan_cache

# imported for its side effect too: registers the SQL-pushdown engine
# factory for SqlGraph sources (must follow the .eval import)
from .sqlcompile import (
    PushdownReport,
    SqlQueryEngine,
    explain_pushdown,
)

__all__ = [
    "Alternation",
    "AnyLabel",
    "Binding",
    "COARSE",
    "CollectClause",
    "CollectionCond",
    "ComparisonCond",
    "Concat",
    "Condition",
    "Const",
    "DependencyIndex",
    "EdgeCond",
    "Footprint",
    "LabelIs",
    "LabelPredicate",
    "LinkClause",
    "Metrics",
    "NotCond",
    "OperatorStats",
    "PathCond",
    "PathExpr",
    "PlanCache",
    "PredicateCond",
    "Program",
    "PushdownReport",
    "Query",
    "QueryEngine",
    "RecordingView",
    "SkolemTerm",
    "SplitStats",
    "SqlQueryEngine",
    "Star",
    "Value",
    "Var",
    "any_path",
    "choose_path_direction",
    "clear_plan_cache",
    "compile_path",
    "estimate_cost",
    "evaluate",
    "explain",
    "explain_pushdown",
    "format_query",
    "global_plan_cache",
    "make_engine",
    "order_conditions",
    "parse",
    "path_alphabet",
    "parse_query",
    "query_bindings",
    "register_engine_factory",
    "register_label_predicate",
    "register_object_predicate",
    "sources_to_many",
    "targets_from_many",
    "validate_query",
]
