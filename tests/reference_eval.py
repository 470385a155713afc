"""A naive reference evaluator for STRUQL where-clauses: the test oracle.

Paper section 2.2: "The meaning of the where-clause is a relation defined
by the set of assignments from variables in the query to oid and label
values in the data graph that satisfy all conditions."
:func:`reference_bindings` computes it the obvious way: dict rows, one
condition at a time in the order given, a nested loop per row, and
duplicates dropped at the end (first occurrence wins); no frame slots,
caches, metrics, deadlines, footprints or planner.  Given the same
condition order, the engine's block operators and the SQL pushdown must
return the same rows in the same order.

The enumeration order is the contract:

* collection ``C(x)`` with ``x`` unbound walks ``collection(C)``;
* edge ``s -> l -> t`` with ``s`` bound walks ``targets(s, l)`` (known
  label) or ``out_edges(s)``; else with ``t`` bound it walks
  ``in_edges`` of each of ``coercion_probes(t)`` in turn, keeping the
  first ``(source, label)`` pair; else with ``l`` known it walks
  ``edges_with_label(l)``; anything else walks ``edges()``;
* path ``s -> R -> t`` with ``s`` bound walks ``targets_from``; with
  only ``t`` bound it walks ``sources_to`` per coercion probe, keeping
  first occurrences; with neither bound it walks ``targets_from`` of
  every node in ``nodes()`` order;
* ``=`` with one side unbound binds it to the other side's value.

A variable repeated inside one edge or path (``x -> "n" -> x``) must
take one value: a match that would give it two unequal values is
dropped, and an equal one keeps the first position's value (source,
then label, then target).

With ``use_indexes=False`` every edge condition is a filtered ``edges()``
scan, membership tests the ``collection(C)`` list, and a path with only
its target bound tests every node in ``nodes()`` order.  This full-scan
mode is the naive baseline of experiment E5; the engine has no such
mode, and its rows equal this mode's as a set, not in order.  Negations run
their inner conditions in written order: only emptiness matters.

:func:`reference_evaluate` drives construction the same naive way: every
nested block extends its parent's full rows, and every extended row
applies every create, link and collect clause of its block, duplicates
included, with no skipping and no memo beyond the result graph's own
Skolem registry.  ``nodes_created``/``edges_created`` count, per
application, a Skolem node or a link edge the result did not have;
nodes and edges imported with a data-graph node are not counted.

:class:`WrittenOrderEngine` is the engine with its planner off: every
where-clause, nested ones included, runs in the order written, which
pins the plan a test compares against this reference.
"""

from functools import lru_cache

from repro.errors import ImmutableNodeError, StruqlEvaluationError
from repro.graph import (
    Atom, AtomType, Graph, Oid, atoms_equal, coercion_probes, compare_atoms,
)
from repro.struql import builtins
from repro.struql.ast import (
    CollectionCond, ComparisonCond, Const, EdgeCond, NotCond, PathCond, PredicateCond,
    SkolemTerm, Var,
)
from repro.struql.eval import Metrics, QueryEngine
from repro.struql.paths import compile_path

from .reference_constraints import path_exists, reverse_expr, sources_to, targets_from


class WrittenOrderEngine(QueryEngine):
    """A :class:`QueryEngine` that runs conditions in written order."""

    def _plan(self, conditions, bound):
        return list(conditions)


def reference_bindings(graph, ordered_conditions, initial=None, use_indexes=True):
    """The binding relation of ``ordered_conditions`` over ``graph``, as a
    list of dicts, evaluated in exactly the order given."""
    rows = [dict(row) for row in (initial if initial is not None else [{}])]
    for condition in ordered_conditions:
        rows = [new for row in rows for new in _extend(graph, condition, row, use_indexes)]
    unique = {}
    for row in rows:
        unique.setdefault(frozenset(row.items()), row)
    return list(unique.values())


def reference_evaluate(program, graph, plan=lambda conditions, bound: conditions):
    """Evaluate ``program`` over ``graph`` row at a time; returns the
    result graph and the construction :class:`Metrics`.

    Each nested block gets its parent's full, unprojected rows, and
    every row applies all of its block's clauses.  ``plan(conditions,
    bound)`` orders each where-clause (default: as written), with
    ``bound`` the variables the rows it extends have bound.
    """
    result, metrics = Graph(), Metrics()

    def construct(constructor, query, rows):
        for row in rows:
            constructor.construct_row(query, row)
        for block in query.blocks:
            bound = frozenset(name for row in rows for name in row)
            block_rows = reference_bindings(graph, plan(block.where, bound), rows)
            construct(constructor, block, block_rows)

    for query in program.queries:
        rows = reference_bindings(graph, plan(query.where, frozenset()))
        construct(RowConstructor(result, metrics, graph), query, rows)
    return result, metrics


class RowConstructor:
    """Paper section 2.2's construction, one row at a time: create the
    row's Skolem nodes, then its edges, then its collection members."""

    def __init__(self, result, metrics, source):
        self.result, self.metrics, self.source = result, metrics, source
        self.imported = set()

    def construct_row(self, query, row):
        for term in query.create:
            self.skolem(term, row)
        for link in query.link:
            self.link(link, row)
        for collect in query.collect:
            if isinstance(collect.node, SkolemTerm):
                node = self.skolem(collect.node, row)
            else:
                node = self.node_var(collect.node.name, row)
            self.result.add_to_collection(collect.collection, node)

    def skolem(self, term, row):
        args = []
        for arg in term.args:
            value = arg.atom if isinstance(arg, Const) else row.get(arg.name)
            if value is None:
                raise StruqlEvaluationError(f"Skolem argument {arg.name!r} unbound in {term}")
            args.append(_as_value(value))
        before = self.result.node_count
        oid = self.result.skolem(term.function, *args)
        self.metrics.nodes_created += self.result.node_count - before
        return oid

    def node_var(self, name, row):
        value = row.get(name)
        if not isinstance(value, Oid):
            raise StruqlEvaluationError(f"variable {name!r} does not denote a node (got {value!r})")
        if not self.result.has_node(value):
            self.import_subgraph(value)
        return value

    def import_subgraph(self, root):
        if root in self.imported or not self.source.has_node(root):
            self.result.add_node(root)
            return
        reached = self.source.reachable(root)
        for oid in reached:
            self.result.add_node(oid)
            self.imported.add(oid)
        for oid in reached:
            for label, target in self.source.out_edges(oid):
                self.result.add_edge(oid, label, target)

    def link(self, link, row):
        if isinstance(link.source, SkolemTerm):
            source = self.skolem(link.source, row)
        else:
            source = row.get(link.source.name)
            if not isinstance(source, Oid):
                raise StruqlEvaluationError(
                    f"link source {link.source.name!r} does not denote a node (got {source!r})"
                )
            if source not in self.result.skolems:
                raise ImmutableNodeError(
                    f"link source {source} is an existing node; STRUQL only adds "
                    "edges out of new (Skolem-created) nodes"
                )
        label = link.label
        if isinstance(label, Var):
            label = row.get(label.name)
            if isinstance(label, Atom):
                label = label.as_string()
            elif not isinstance(label, str):
                raise StruqlEvaluationError(f"arc variable {link.label.name!r} is not bound to a label")
        target = link.target
        if isinstance(target, SkolemTerm):
            target = self.skolem(target, row)
        elif isinstance(target, Const):
            target = target.atom
        elif isinstance(row.get(target.name), Oid):
            target = self.node_var(target.name, row)
        else:
            target = row.get(target.name)
            if target is None:
                raise StruqlEvaluationError(f"link target {link.target.name!r} unbound")
            target = _as_value(target)
        before = self.result.edge_count
        self.result.add_edge(source, label, target)
        self.metrics.edges_created += self.result.edge_count - before


def _extend(graph, condition, row, use_indexes):
    if isinstance(condition, CollectionCond):
        return _collection(graph, condition, row, use_indexes)
    if isinstance(condition, EdgeCond):
        return _edge(graph, condition, row, use_indexes)
    if isinstance(condition, PathCond):
        return _path(graph, condition, row, use_indexes)
    if isinstance(condition, ComparisonCond):
        return _comparison(condition, row)
    if isinstance(condition, PredicateCond):
        predicate = builtins.object_predicate(condition.name)
        return [row] if predicate(_as_value(row[condition.var.name])) else []
    if isinstance(condition, NotCond):
        names = condition.variables()
        seed = {name: value for name, value in row.items() if name in names}
        inner = reference_bindings(graph, condition.inner, [seed], use_indexes)
        return [] if inner else [row]
    raise TypeError(f"unknown condition {condition!r}")


# STRUQL equality coerces atoms; oids compare by identity.


def _as_value(value):
    """Arc-variable labels are plain strings; as values they are STRING atoms."""
    return Atom(AtomType.STRING, value) if isinstance(value, str) else value


def _term(term, row):
    return term.atom if isinstance(term, Const) else row.get(term.name)


def _equal(left, right):
    if isinstance(left, Oid) or isinstance(right, Oid):
        return left == right
    return atoms_equal(_as_value(left), _as_value(right))


def _probes(value):
    """Exact spellings an index probe for ``value`` must try, in order."""
    return (value,) if isinstance(value, Oid) else coercion_probes(_as_value(value))


def _compare(left, right, op):
    if op in ("=", "!="):
        return _equal(left, right) == (op == "=")
    left, right = _as_value(left), _as_value(right)
    if not (isinstance(left, Atom) and isinstance(right, Atom)):
        return False  # oids are not ordered
    sign = compare_atoms(left, right)
    return {"<": sign < 0, "<=": sign <= 0, ">": sign > 0, ">=": sign >= 0}[op]


def _collection(graph, condition, row, use_indexes):
    name, var = condition.collection, condition.var.name
    if var not in row:
        return [{**row, var: member} for member in graph.collection(name)]
    value = row[var]
    if use_indexes:
        hit = isinstance(value, Oid) and graph.in_collection(name, value)
    else:
        hit = value in graph.collection(name)
    return [row] if hit else []


def _edge(graph, condition, row, use_indexes):
    label = condition.label
    if isinstance(label, Var):
        label = row.get(label.name)
        if isinstance(label, Atom):
            label = label.as_string()
        elif isinstance(label, Oid):
            return []  # an oid never labels an edge
    source = row.get(condition.source.name)
    target = _term(condition.target, row)
    out = []
    matches = _edge_matches(graph, source, label, target, use_indexes)
    for edge_source, edge_label, edge_target in matches:
        new, fresh = dict(row), {}
        writes = []
        if source is None:
            writes.append((condition.source.name, edge_source))
        if label is None:
            writes.append((condition.label.name, edge_label))
        if target is None:
            writes.append((condition.target.name, edge_target))
        for name, value in writes:
            if name in fresh and not _equal(fresh[name], value):
                break
            fresh.setdefault(name, value)
        else:
            new.update(fresh)
            out.append(new)
    return out


def _edge_matches(graph, source, label, target, use_indexes):
    if not use_indexes:
        for s, l, t in graph.edges():
            if source in (None, s) and label in (None, l):
                if target is None or _equal(t, target):
                    yield s, l, t
    elif source is not None:
        if not (isinstance(source, Oid) and graph.has_node(source)):
            return
        if label is None:
            pairs = graph.out_edges(source)
        else:
            pairs = ((label, edge_target) for edge_target in graph.targets(source, label))
        for edge_label, edge_target in pairs:
            if target is None or _equal(edge_target, target):
                yield source, edge_label, edge_target
    elif target is not None:
        seen = set()
        for probe in _probes(target):
            for edge_source, edge_label in graph.in_edges(probe):
                if label in (None, edge_label) and (edge_source, edge_label) not in seen:
                    seen.add((edge_source, edge_label))
                    yield edge_source, edge_label, probe
    elif label is not None:
        for edge_source, edge_target in graph.edges_with_label(label):
            yield edge_source, label, edge_target
    else:
        yield from graph.edges()


@lru_cache(maxsize=256)
def _nfa(path, backward=False):
    return compile_path(reverse_expr(path) if backward else path)


def _path(graph, condition, row, use_indexes):
    forward = _nfa(condition.path)
    source_name = condition.source.name
    source = row.get(source_name)
    target = _term(condition.target, row)
    if source is not None:
        if not (isinstance(source, Oid) and graph.has_node(source)):
            return []
        if target is not None:
            hit = any(path_exists(graph, forward, source, p) for p in _probes(target))
            return [row] if hit else []
        reached = targets_from(graph, forward, source)
        return [{**row, condition.target.name: value} for value in reached]
    if target is not None:
        probes = _probes(target)
        if use_indexes:
            backward = _nfa(condition.path, backward=True)
            found = [s for p in probes for s in sources_to(graph, backward, p)]
        else:
            found = [
                node for node in graph.nodes()
                if any(path_exists(graph, forward, node, p) for p in probes)
            ]
        return [{**row, source_name: node} for node in dict.fromkeys(found)]
    if condition.target.name == source_name:
        return [
            {**row, source_name: node}
            for node in list(graph.nodes())
            if node in targets_from(graph, forward, node)
        ]
    return [
        {**row, source_name: node, condition.target.name: value}
        for node in list(graph.nodes())
        for value in targets_from(graph, forward, node)
    ]


def _comparison(condition, row):
    left, right = _term(condition.left, row), _term(condition.right, row)
    if left is None or right is None:
        # only "=" is ever planned with an unbound side: it binds that side
        unbound, value = (condition.left, right) if left is None else (condition.right, left)
        assert condition.op == "=" and value is not None, str(condition)
        return [{**row, unbound.name: value}]
    return [row] if _compare(left, right, condition.op) else []
