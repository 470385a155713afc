"""Pausing CPython's cyclic garbage collector during bulk graph builds.

A build allocates hundreds of thousands of container objects -- index
dicts, adjacency lists, binding rows, oids -- and frees almost none of
them until it ends.  Every 700 net allocations the collector scans the
young generation, and the older generations are rescanned as the heap
grows, so a cold build spent an eighth of its time re-walking a heap in
which it found nothing: the objects a build creates form no reference
cycles, and reference counting frees all of its garbage.

:func:`collection_paused` turns automatic collection off for the length
of a build.  Wrapping, mediation and site building run inside it.

Switching the collector back on is not enough by itself: every
container the build allocated is still in the young generation, so the
first allocation after the pause would run one young collection over
the whole build heap (24 ms after a 2,000-entry cold build).  The
outermost exit therefore moves the heap into the oldest generation
first (``gc.freeze()`` then ``gc.unfreeze()``, two list splices).
Reference counting still frees it, and a later full collection still
sees any cycle in it.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from typing import Iterator

#: guards the two module-level fields below; ``gc.disable``/``enable``
#: switch one process-wide flag, so the nesting state must be shared by
#: every thread rather than owned by a caller
_lock = threading.Lock()
_depth = 0
_was_enabled = False


@contextmanager
def collection_paused() -> Iterator[None]:
    """Suspend automatic cyclic garbage collection inside the block.

    The collector switch is process-wide, so the pause is counted in
    module-level state under a :class:`threading.Lock`: the outermost
    entry -- in any thread -- records ``gc.isenabled()`` and disables
    the collector, and the outermost exit restores the recorded value.
    So the pause nests, holds while several threads build at once (the
    collector stays off until the last of them leaves), survives an
    exception, and leaves a collector the caller had disabled disabled.

    Code inside the block must not depend on cycles being reclaimed; a
    build allocates none (reference counting still frees everything
    else immediately).

    The outermost exit moves every tracked object into the oldest
    generation, so no young collection walks the build heap.  A caller
    that froze objects itself (``gc.freeze()`` before forking workers)
    keeps them frozen: the move is skipped while anything is frozen.
    """
    global _depth, _was_enabled
    with _lock:
        if _depth == 0:
            _was_enabled = gc.isenabled()
            gc.disable()
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                if not gc.get_freeze_count():
                    gc.freeze()
                    gc.unfreeze()
                if _was_enabled:
                    gc.enable()
