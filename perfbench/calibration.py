"""Machine-speed calibration for the pipeline benchmark.

The benchmark shares a few cores of a host with other tenants, and their
load changes this machine's single-thread speed by up to 2x, in spells
of seconds to minutes; no statistic over one run removes a spell that
spans it.  So every timed sample is bracketed by a fixed calibration
loop, and its time is divided by the loop's slowdown against
:data:`REFERENCE_SECONDS`: the benchmark reports times at a fixed
reference speed, which a change to the program moves and a neighbour's
load does not.

The loop is pure Python over fixed data and touches no program code, so
no change to the program can move it.  Its mix — JSON decoding, building
dicts and tuples, and point-in-polygon tests — is the mix of the
pipeline's set-up and point location, which dominate its time.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import time

#: Time of one :func:`kernel` call at the reference speed.  Fixed: a
#: change of this constant rescales every reported time.
REFERENCE_SECONDS = 0.008
#: Kernel calls per calibration; the median is kept.
CALLS = 5

#: Every slowdown measured in this process, for the run's report.
SLOWDOWNS: list[float] = []

_rng = random.Random(20240607)
_CENTRES = [(_rng.random() * 100, _rng.random() * 100) for _ in range(40)]
_POLYGONS = [
    [
        (
            cx + math.cos(2 * math.pi * k / 12) * (5 + _rng.random()),
            cy + math.sin(2 * math.pi * k / 12) * (5 + _rng.random()),
        )
        for k in range(12)
    ]
    for cx, cy in _CENTRES
]
_PAYLOAD = json.dumps(
    [
        {"id": f"r{index}", "vertices": [list(v) for v in polygon]}
        for index, polygon in enumerate(_POLYGONS)
    ]
)
_POINTS = [(_rng.random() * 100, _rng.random() * 100) for _ in range(150)]


def _inside(x: float, y: float, vertices) -> bool:
    hit = False
    j = len(vertices) - 1
    for i in range(len(vertices)):
        xi, yi = vertices[i]
        xj, yj = vertices[j]
        if (yi > y) != (yj > y) and x < (xj - xi) * (y - yi) / (yj - yi) + xi:
            hit = not hit
        j = i
    return hit


def kernel() -> int:
    """The fixed calibration work: a few milliseconds."""
    regions = {
        region["id"]: [tuple(v) for v in region["vertices"]]
        for region in json.loads(_PAYLOAD)
    }
    hits = 0
    for x, y in _POINTS:
        for vertices in regions.values():
            hits += _inside(x, y, vertices)
    return hits


def slowdown(calls: int = CALLS) -> float:
    """This moment's time of the kernel over its reference time."""
    times = []
    for _ in range(calls):
        started = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - started)
    factor = statistics.median(times) / REFERENCE_SECONDS
    SLOWDOWNS.append(factor)
    return factor


def bracketed(measure):
    """Run ``measure()``; return its result and the slowdown around it.

    The slowdown is the mean of one calibration right before the call
    and one right after it; a time taken inside ``measure`` divided by
    it is that time at the reference speed.
    """
    before = slowdown()
    result = measure()
    after = slowdown()
    return result, (before + after) / 2
