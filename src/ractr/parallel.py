"""Independent work items dealt to every usable core for one call.

numpy's loops release the GIL, so threads of one process run on every core
it may use. Items are dealt round-robin, so each share mixes early and late
items. The calling thread runs one share, and the others run on threads that
live for the call. A caller keeps its results the same on any number of cores
by making each item's result independent of the share that runs it.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:                      # not on this platform
        return os.cpu_count() or 1


def deal(work: Callable[[Sequence], None], items: Sequence) -> None:
    """Call work(share) on min(usable cores, len(items)) round-robin shares of
    items, the first on the calling thread, and return once every share is
    done; a share's exception is raised here. One share runs inline and
    starts no thread."""
    shares = min(_usable_cores(), len(items))
    if shares <= 1:
        work(items)
        return
    with ThreadPoolExecutor(shares - 1, thread_name_prefix="ractr-worker") as pool:
        others = [pool.submit(work, items[i::shares]) for i in range(1, shares)]
        work(items[::shares])
    for share in others:                        # every share has finished
        share.result()
