"""The site-management facade: Strudel's three separated tasks in one API.

A :class:`SiteDefinition` bundles what the paper keeps separate on
purpose: (1) where the data comes from (a data graph, usually produced by
the mediator), (2) the site-definition STRUQL query, and (3) the HTML
templates plus root objects.  :meth:`SiteBuilder.build` runs the whole
pipeline of the paper's Fig. 1:

    data graph --site-definition query--> site graph --HTML generator-->
    browsable web site

Multiple *versions* of a site come from either applying different queries
to the same data graph or different template sets to the same site graph
(section 6.1: "all versions share one site graph, but each version has
its own HTML templates"); see :mod:`repro.core.versions` for the
derivation helpers and diff measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from ..errors import SiteAnalysisError, SiteDefinitionError
from ..graph import Graph, Oid, collection_paused
from ..struql import Metrics, Program, QueryEngine, evaluate, make_engine, parse
from ..template import GeneratedSite, HtmlGenerator, TemplateSet
from .constraints import CheckResult, Formula, check
from .incremental import DynamicSite
from .schema import SiteSchema
from .stats import SiteStats, measure_site


@dataclass
class SiteDefinition:
    """A complete declarative site specification."""

    name: str
    query: Union[Program, str]
    templates: TemplateSet
    roots: List[Union[Oid, str]] = field(default_factory=list)
    constraints: List[Union[Formula, str]] = field(default_factory=list)

    def program(self) -> Program:
        if isinstance(self.query, str):
            self.query = parse(self.query)
        return self.query

    def site_schema(self) -> SiteSchema:
        """The abstract structure of sites this definition generates."""
        return SiteSchema.from_program(self.program())


@dataclass
class BuiltSite:
    """Everything one build produces."""

    definition: SiteDefinition
    data_graph: Graph
    site_graph: Graph
    generated: GeneratedSite
    constraint_results: Dict[str, CheckResult] = field(default_factory=dict)

    @property
    def pages(self) -> Dict[str, str]:
        return self.generated.pages

    def stats(self, sources: int = 0) -> SiteStats:
        return measure_site(
            self.definition.name,
            self.definition.program(),
            templates=self.definition.templates,
            data_graph=self.data_graph,
            site_graph=self.site_graph,
            generated=self.generated,
            sources=sources,
        )

    def write(self, directory: str) -> List[str]:
        return self.generated.write(directory)


class SiteBuilder:
    """Builds browsable sites from one data graph.

    The builder holds the data graph (task 1's output) and any number of
    registered definitions; building is side-effect free on the data
    graph, so the same builder serves all versions of a site.
    """

    def __init__(self, data_graph: Graph) -> None:
        self.data_graph = data_graph
        self._definitions: Dict[str, SiteDefinition] = {}
        # one warm engine for every build: plans and statistics carry
        # across rebuilds and are invalidated by the graph epoch
        self._engine = make_engine(data_graph)

    # ------------------------------------------------------------ #

    def define(self, definition: SiteDefinition) -> SiteDefinition:
        """Register a site definition under its name."""
        if definition.name in self._definitions:
            raise SiteDefinitionError(
                f"site {definition.name!r} is already defined"
            )
        self._definitions[definition.name] = definition
        return definition

    def definition(self, name: str) -> SiteDefinition:
        try:
            return self._definitions[name]
        except KeyError:
            raise SiteDefinitionError(f"no site named {name!r}") from None

    def definition_names(self) -> List[str]:
        return list(self._definitions)

    # ------------------------------------------------------------ #
    # the pipeline

    def site_graph(self, name: str, metrics: Optional[Metrics] = None) -> Graph:
        """Stage 2: evaluate the site-definition query -> site graph."""
        definition = self.definition(name)
        graph = evaluate(
            definition.program(), self.data_graph, metrics=metrics, engine=self._engine
        )
        graph.name = f"{name}.site"
        return graph

    def analyze(self, name: str, include_data: bool = True, suppress=()):
        """Statically analyze a registered definition -- no build.

        Runs the full :class:`~repro.analysis.Analyzer` pass (query type
        checking against this builder's data graph, schema reachability,
        template lint, constraint verification) and returns the
        :class:`~repro.analysis.DiagnosticReport`.  ``include_data=False``
        skips the data-dependent vocabulary checks (useful when the data
        graph is huge or not yet loaded).
        """
        from ..analysis import Analyzer  # deferred: analysis imports core

        definition = self.definition(name)
        analyzer = Analyzer.for_definition(
            definition,
            data_graph=self.data_graph if include_data else None,
        )
        return analyzer.run(suppress=suppress)

    @collection_paused()
    def build(
        self,
        name: str,
        site_graph: Optional[Graph] = None,
        check_constraints: bool = True,
        metrics: Optional[Metrics] = None,
        gate: bool = False,
    ) -> BuiltSite:
        """Run the full pipeline for a registered definition.

        Passing ``site_graph`` reuses an existing site graph (how an
        alternative template set re-renders one structure); otherwise the
        query is evaluated fresh.  ``metrics`` collects the evaluation
        counters of this build.
        ``gate=True`` runs :meth:`analyze` first and raises
        :class:`~repro.errors.SiteAnalysisError` (carrying the report)
        when any error-severity finding exists -- the pre-build gate.
        """
        definition = self.definition(name)
        if gate:
            report = self.analyze(name)
            if not report.ok:
                raise SiteAnalysisError(report)
        if site_graph is None:
            site_graph = self.site_graph(name, metrics=metrics)
        roots = definition.roots or _default_roots(definition)
        generator = HtmlGenerator(site_graph, definition.templates)
        generated = generator.generate(roots, site_name=name)
        results: Dict[str, CheckResult] = {}
        if check_constraints:
            for constraint in definition.constraints:
                results[str(constraint)] = check(constraint, site_graph)
        return BuiltSite(
            definition=definition,
            data_graph=self.data_graph,
            site_graph=site_graph,
            generated=generated,
            constraint_results=results,
        )

    def dynamic_site(self, name: str, cache: bool = True) -> DynamicSite:
        """A click-time evaluated version of a registered definition."""
        return DynamicSite(self.definition(name).program(), self.data_graph, cache=cache)


def _default_roots(definition: SiteDefinition) -> List[Union[Oid, str]]:
    """Default page roots: instances of every zero-argument Skolem
    function of the definition (RootPage() and friends)."""
    roots: List[Union[Oid, str]] = [
        f"{function}()" for function in definition.site_schema().root_functions()
    ]
    if not roots:
        raise SiteDefinitionError(
            f"site {definition.name!r} has no zero-argument Skolem function; "
            "specify roots explicitly"
        )
    return roots
