"""Small shared utilities."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

PHYSICAL_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def require_memory(nbytes, what):
    """Refuse, in one line, work estimated at ``nbytes`` above the physical memory."""
    if nbytes > PHYSICAL_MEMORY:
        gib = nbytes / 2 ** 30 if nbytes < 2 ** 1000 else float("inf")
        raise ValueError(f"{what} needs about {gib:.3g} GiB, above the "
                         f"{PHYSICAL_MEMORY / 2 ** 30:.3g} GiB of physical memory")


def ordered_map(fn, items, threads=1):
    """Map ``fn`` over ``items``, optionally on a thread pool, always
    returning results in input order so reductions are deterministic."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def fmt_float(x) -> str:
    """17-significant-digit decimal, round-trip exact for doubles."""
    return format(float(x), ".17g")
