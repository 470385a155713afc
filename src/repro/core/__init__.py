"""The paper's primary contribution: declarative site management.

Site definitions, site schemas, integrity constraints, dynamic
("click-time") evaluation, versions, and the measurements the paper
reports per site.
"""

from .constraints import (
    And,
    CheckResult,
    ClassAtom,
    Exists,
    ForAll,
    Formula,
    Implies,
    Not,
    Or,
    PathAtom,
    Verdict,
    check,
    enforce,
    parse_constraint,
    verify_static,
)
from .incremental import (
    BrowseSession,
    ClickMetrics,
    DynamicSite,
    ExpandedEdge,
    LazySiteGraph,
    NodeInstance,
    RefreshResult,
)
from .maintenance import MaintenanceReport, SiteMaintainer
from .regen import RegeneratingSite, RegenReport
from .schema import NS, SchemaCreation, SchemaEdge, SiteSchema
from .server import PageServer
from .site import BuiltSite, SiteBuilder, SiteDefinition
from .stats import SiteStats, measure_site
from .versions import VersionDiff, derive_version, diff_definitions

__all__ = [
    "And",
    "BrowseSession",
    "BuiltSite",
    "CheckResult",
    "ClassAtom",
    "ClickMetrics",
    "DynamicSite",
    "Exists",
    "ExpandedEdge",
    "ForAll",
    "Formula",
    "Implies",
    "LazySiteGraph",
    "MaintenanceReport",
    "NS",
    "NodeInstance",
    "Not",
    "PageServer",
    "RefreshResult",
    "RegenReport",
    "RegeneratingSite",
    "SiteMaintainer",
    "Or",
    "PathAtom",
    "SchemaCreation",
    "SchemaEdge",
    "SiteBuilder",
    "SiteDefinition",
    "SiteSchema",
    "SiteStats",
    "Verdict",
    "VersionDiff",
    "check",
    "derive_version",
    "diff_definitions",
    "enforce",
    "measure_site",
    "parse_constraint",
    "verify_static",
]
