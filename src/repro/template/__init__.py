"""Strudel's HTML-template language: plain HTML plus SFMT / SIF / SFOR."""

from .ast import (
    AttrExpr,
    Conditional,
    Directives,
    Format,
    Literal,
    Loop,
    Node,
    Template,
)
from .eval import (
    ANCHOR_ATTRIBUTES,
    FragmentKey,
    PageRegistry,
    Renderer,
)
from .generator import (
    TEMPLATE_ATTRIBUTE,
    GeneratedSite,
    HtmlGenerator,
    TemplateSet,
    generate_site,
)
from .parser import parse_attr_expr, parse_template

__all__ = [
    "ANCHOR_ATTRIBUTES",
    "AttrExpr",
    "Conditional",
    "Directives",
    "Format",
    "FragmentKey",
    "GeneratedSite",
    "HtmlGenerator",
    "Literal",
    "Loop",
    "Node",
    "PageRegistry",
    "Renderer",
    "TEMPLATE_ATTRIBUTE",
    "Template",
    "TemplateSet",
    "generate_site",
    "parse_attr_expr",
    "parse_template",
]
