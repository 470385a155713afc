"""The shared page cache: immutable generations, swapped atomically.

A :class:`Generation` is one consistent snapshot of the site's pages --
the rendered bytes of every page at one data-graph epoch.  Readers
grab the current generation once per request and serve entirely from
it, so a request can never observe a torn mix of pre- and post-edit
pages: either it started before the swap and serves the old snapshot,
or after and serves the new one.

Two completeness regimes share the type:

* **complete** generations (the static backend) carry every page of the
  site up front; a lookup miss is an honest 404.
* **incomplete** generations (the dynamic backend) start empty and fill
  lazily as worker engines render pages at click time.  Fills are
  idempotent -- rendering is deterministic, so two workers racing on the
  same path write byte-identical entries -- and are dropped once the
  generation has been superseded.

The :class:`GenerationCache` holds the current generation behind a lock
used only at publish time; readers call :meth:`~GenerationCache.current`
which is a single attribute read.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple


@dataclass(frozen=True)
class PageEntry:
    """One servable response: status code, body bytes, and a degradation
    kind (``ok`` | ``stale`` | ``error-page`` | ``not-found``)."""

    status: int
    body: bytes
    kind: str = "ok"


class Generation:
    """One immutable-once-published snapshot of the site's pages."""

    def __init__(
        self,
        gen_id: int,
        epoch: int,
        pages: Optional[Dict[str, PageEntry]] = None,
        complete: bool = True,
        origin: str = "build",
    ) -> None:
        self.gen_id = gen_id
        #: data-graph epoch this generation is consistent with
        self.epoch = epoch
        self.complete = complete
        self.origin = origin
        self.created = time.time()
        #: set when this generation outlived a failed refresh and is
        #: being served as last-known-good (readers surface a header)
        self.stale = False
        self._pages: Dict[str, PageEntry] = pages if pages is not None else {}
        #: filename -> the HTML string each static page was encoded from
        self._sources: Dict[str, str] = {}
        self._fill_lock = threading.Lock()
        self.fills = 0
        self.fill_races = 0

    # ------------------------------------------------------------ #

    def lookup(self, path: str) -> Optional[PageEntry]:
        return self._pages.get(path)

    def fill(self, path: str, entry: PageEntry) -> None:
        """Install a lazily rendered page (incomplete generations only).

        Renders are deterministic, so concurrent fills of the same path
        carry identical bytes; the first one wins and the race is only
        counted."""
        with self._fill_lock:
            if path in self._pages:
                self.fill_races += 1
                return
            self._pages[path] = entry
            self.fills += 1

    def paths(self) -> List[str]:
        with self._fill_lock:
            return sorted(self._pages)

    @property
    def page_count(self) -> int:
        return len(self._pages)

    @classmethod
    def from_static_pages(
        cls,
        gen_id: int,
        epoch: int,
        pages: Dict[str, str],
        origin: str = "build",
        previous: Optional["Generation"] = None,
    ) -> "Generation":
        """A complete generation from a static build's filename->HTML
        map.  Every page is served at ``/<filename>``; the index page is
        additionally served at ``/``.

        A page whose HTML is the very string object ``previous`` was
        built from keeps ``previous``'s (frozen) entry instead of being
        encoded again -- an identity test, so it is exact and costs
        nothing for the pages an edit did not re-render."""
        sources = previous._sources if previous is not None else {}
        entries: Dict[str, PageEntry] = {}
        for filename, html in pages.items():
            path = "/" + filename
            if sources.get(filename) is html:
                entry = previous._pages[path]  # type: ignore[union-attr]
            else:
                entry = PageEntry(200, html.encode("utf-8"))
            entries[path] = entry
            if filename == "index.html":
                entries["/"] = entry
        generation = cls(gen_id, epoch, entries, complete=True, origin=origin)
        generation._sources = dict(pages)
        return generation


class GenerationCache:
    """Holds the current generation; readers see swaps atomically."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._current: Optional[Generation] = None
        self.published = 0
        #: (gen_id, origin, pages, unix time) of recent publishes
        self.history: List[Tuple[int, str, int, float]] = []
        self._history_cap = 64

    def current(self) -> Generation:
        generation = self._current
        if generation is None:
            raise RuntimeError("no generation published yet")
        return generation

    def publish(self, generation: Generation) -> Optional[Generation]:
        """Atomically swap in ``generation``; returns the one it
        replaced (now drained: no new reader can observe it)."""
        with self._lock:
            previous = self._current
            self._current = generation
            self.published += 1
            self.history.append(
                (
                    generation.gen_id,
                    generation.origin,
                    generation.page_count,
                    generation.created,
                )
            )
            del self.history[: -self._history_cap]
            return previous

    def stats(self) -> Dict[str, object]:
        generation = self._current
        return {
            "published": self.published,
            "current_generation": generation.gen_id if generation else None,
            "current_epoch": generation.epoch if generation else None,
            "current_pages": generation.page_count if generation else 0,
            "current_origin": generation.origin if generation else None,
            "current_complete": generation.complete if generation else None,
            "current_stale": generation.stale if generation else None,
            "fills": generation.fills if generation else 0,
        }
