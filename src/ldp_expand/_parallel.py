"""Optional thread parallelism for independent work items.

LDP_EXPAND_THREADS caps the pool size (default 1 = serial).  Results are
collected by index, so parallel and serial runs produce identical output.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def thread_count() -> int:
    raw = os.environ.get("LDP_EXPAND_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def parallel_map(fn, items):
    items = list(items)
    workers = min(thread_count(), len(items)) if items else 1
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def prefetched(fn, items):
    """Yield ``fn(item)`` for each item in order.  With two or more threads
    the next result is computed on one worker thread while the caller uses
    the current one, so ``fn`` should release the GIL for its bulk work."""
    items = list(items)
    if thread_count() < 2 or len(items) < 2:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=1) as pool:
        pending = pool.submit(fn, items[0])
        for item in items[1:]:
            current = pending.result()
            pending = pool.submit(fn, item)
            yield current
        yield pending.result()
