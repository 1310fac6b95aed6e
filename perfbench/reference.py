"""A fixed reference load that measures the host's speed next to each call.

The host the benchmark was sized on (2 virtual cores shared with other
tenants) runs the same pure-Python code up to 1.5 times slower for seconds
to minutes at a time, in CPU time as in wall time, so the slowdown is not
time stolen from the process but a slower core.  Timed figures taken in
the two states differ by more than any bound a regression gate could use.

So every timed call is followed by one pass of `work()`, code that shares
nothing with catledger but has a similar profile: small dataclass
instances, dicts keyed by tuples, frozenset unions, generator pairs, float
arithmetic and float formatting.  A call's wall time is then rescaled to
the speed of a host on which `work()` takes exactly REF_MS:

    scaled = wall * REF_MS / (median wall of work() in the calls around it)

On the sizing host the raw median latency of `sim-categorical` calls moved
between 34 and 55 ms from one 5-second stretch to the next, while its ratio
to `work()` stayed within 8%.  `work()` runs with the garbage collector
off, so memory that catledger keeps alive cannot slow it down and hide the
cost it puts on catledger's own calls.
"""

from __future__ import annotations

import gc
import itertools
import statistics
import time
from dataclasses import dataclass

# wall time of one work() on the reference host; close to its wall time on
# the sizing host in its fast state, so scaled figures read like host ms
REF_MS = 2.0
WINDOW = 4  # calls on each side whose reference passes scale a call


@dataclass
class _Edge:
    id: int
    src: int
    dst: int
    weight: float = 0.0


def _work() -> float:
    total = 0.0
    for _ in range(6):
        edges = [_Edge(i, i % 17, (i * 7) % 17, i * 0.5) for i in range(300)]
        groups: dict[tuple[int, int], list[_Edge]] = {}
        for edge in edges:
            groups.setdefault((edge.src, edge.dst), []).append(edge)
        union: frozenset = frozenset()
        for group in groups.values():
            union = union | frozenset(edge.id for edge in group)
        pairs = [
            (a.id, b.id) for a, b in itertools.product(edges[:40], edges[:40]) if a.dst == b.src
        ]
        total += sum(edge.weight * 1.0001 for edge in edges) + len(union) + len(pairs)
        total += len(",".join(repr(edge.weight / 3.0) for edge in edges[:100]))
    return total


def work_ns() -> int:
    """Wall time of one reference pass, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        _work()
        return time.perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()


def scale(samples_ns: list[int], refs_ns: list[int]) -> list[float]:
    """Each sample rescaled to the reference host by the passes around it."""
    ref_ns = REF_MS * 1e6
    scaled = []
    for index, sample in enumerate(samples_ns):
        near = refs_ns[max(0, index - WINDOW) : index + WINDOW + 1]
        scaled.append(sample * ref_ns / statistics.median(near))
    return scaled
