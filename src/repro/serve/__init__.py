"""The concurrent serving tier: a real HTTP front-end for Strudel sites.

Section 7 of the paper asks for dynamic evaluation at click time; the
ROADMAP asks for "heavy traffic from millions of users".  This package
closes the network gap between the two: a threaded stdlib HTTP server
(:class:`SiteServer`) in front of the existing page machinery
(:class:`~repro.core.server.PageServer` /
:class:`~repro.core.regen.RegeneratingSite`), with

* N worker threads, each owning a warm engine, pulling connections from
  a bounded queue (:class:`~repro.serve.http.PooledHTTPServer`);
* a shared read-mostly page cache organized in immutable *generations*
  (:class:`~repro.serve.cache.GenerationCache`): readers always see one
  consistent snapshot, mutations publish a new generation atomically;
* editor mutations routed through a background :class:`Refresher`
  thread -- never the request path -- which replays the delta-driven
  incremental machinery and swaps the generation when done;
* admission control (:class:`AdmissionControl`) shedding overload with
  proper 503 semantics, and the resilience layer's circuit breaker and
  last-known-good behavior surfaced as degradation headers;
* request deadlines stamped at admission and enforced cooperatively by
  every evaluation layer (structured 504s, never a hung worker), with a
  :class:`Watchdog` thread as the backstop for requests a deadline
  failed to free, plus ``/healthz`` / ``/readyz`` probes.
"""

from .admission import AdmissionControl
from .cache import Generation, GenerationCache, PageEntry
from .core import ServeCore
from .http import PooledHTTPServer, SiteServer
from .locks import RWLock
from .refresher import EditTicket, Refresher
from .watchdog import Watchdog

__all__ = [
    "AdmissionControl",
    "EditTicket",
    "Generation",
    "GenerationCache",
    "PageEntry",
    "PooledHTTPServer",
    "Refresher",
    "RWLock",
    "ServeCore",
    "SiteServer",
    "Watchdog",
]
