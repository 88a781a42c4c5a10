"""Seeded workload generators for the pipeline benchmark.

Each workload is made from a seed into plain input files — DSM JSON
files and positioning feeds — plus a ``manifest.json`` naming them and the
knobs the run uses.  The measured program sees only those files.  The
same seed (and, for the live workload, the same ``--seconds``) always
gives byte-identical inputs.

The generators drive the repository's own Vita-style simulator
(:class:`repro.simulation.MobilitySimulator`) over the demo buildings.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.buildings import MallConfig, build_airport, build_mall, build_office
from repro.dsm import save_dsm
from repro.positioning import (
    RawPositioningRecord,
    inject_dropout,
    write_csv,
    write_jsonl,
)
from repro.simulation import (
    BROWSER,
    SHOPPER,
    TRAVELER,
    WORKER,
    MobilitySimulator,
)
from repro.timeutil import HOUR, TimeRange

#: Live feed speed-up: data seconds released per wall second.  Fixed once
#: so that the seed code is busy about half of the paced wall time.
LIVE_SPEEDUP = 3000.0
#: Share of ``--seconds`` the paced live feed lasts; the timed recoveries,
#: each re-running phase one over the whole journal, take the rest.
LIVE_FEED_SHARE = 0.7

#: Per workload: what it stresses and the knobs it names.  Everything not
#: named here runs at the library default.
WORKLOADS: dict[str, dict] = {
    "batch-mall-csv": {
        "kind": "batch",
        "why": (
            "phase one is >99% of wall: cleaning, splitting, point location; "
            "no IPC, ~no phase two. 3-floor mall, 24 shoppers/browsers x 250 "
            "records over 10 h, CSV, serial engine defaults"
        ),
        "venue": "mall",
        "floors": 3,
        "devices": 24,
        "device_records": 250,
        "profiles": ["shopper", "browser"],
        "hours": [9, 19],
        "format": "csv",
        "engine": {},
    },
    "batch-airport-procs": {
        "kind": "batch",
        "why": (
            "the only workload paying worker IPC (pool start, pickles) and "
            "giving phase two gaps: 6-gate airport, 24 travelers x 250 records "
            "with dropout, JSONL, processes x2"
        ),
        "venue": "airport",
        "gates": 6,
        "devices": 24,
        "device_records": 250,
        "profiles": ["traveler"],
        "hours": [9, 19],
        "format": "jsonl",
        "dropout": {"gap_seconds": 240.0, "gap_count": 4},
        "engine": {"backend": "processes", "workers": 2},
    },
    "live-2venue-durable": {
        "kind": "live",
        "why": (
            "dispatch, window cuts, fold/roll/retire and WAL/snapshot writes "
            "beside translation, then recovery: mall+office open-loop feed, "
            "300 s windows, window:12"
        ),
        "venues": {
            "mall": {"floors": 3, "profiles": ["shopper", "browser"],
                     "records_per_second": 500, "device_records": 250,
                     "steady": True},
            "office": {"floors": 2, "profiles": ["worker"],
                       "records_per_second": 200, "device_records": 250,
                       "steady": True},
        },
        "start_hour": 8,
        "speedup": LIVE_SPEEDUP,
        "window_seconds": 300.0,
        "retention": "window:12",
        "format": "csv",
    },
}

_PROFILES = {
    "shopper": SHOPPER,
    "browser": BROWSER,
    "traveler": TRAVELER,
    "worker": WORKER,
}


def _building(venue: str, params: dict):
    if venue == "mall":
        return build_mall(MallConfig(floors=params["floors"]))
    if venue == "airport":
        return build_airport(gate_count=params["gates"])
    if venue == "office":
        return build_office(floors=params["floors"])
    raise ValueError(f"unknown venue {venue!r}")


def _write_feed(records, path: Path, fmt: str) -> int:
    records = sorted(records)
    if fmt == "csv":
        return write_csv(records, path)
    return write_jsonl(records, path)


def _visitors(
    model,
    params: dict,
    window: TimeRange,
    target: int,
    seed: int,
    prefix: str = "",
):
    """Simulated devices arriving in ``window`` until ``target`` records.

    Every device keeps exactly its first ``params["device_records"]``
    records and shorter visits are redrawn, so the devices — and the
    engine's chunks of them — weigh the same whatever the seed, and the
    feed holds exactly ``target`` records.  With ``params["steady"]`` the
    devices arrive at even spacing across the window (a live feed then
    has no idle stretches that would merge windows); otherwise they
    arrive uniformly at random, the first at the window's opening.
    ``params["dropout"]``, when present, punches gaps into every device
    before its records are counted.
    """
    simulator = MobilitySimulator(model, seed=seed)
    profiles = [_PROFILES[name] for name in params["profiles"]]
    dropout = params.get("dropout")
    keep = params["device_records"]
    spacing = (window.end - window.start) * keep / target
    rng = np.random.default_rng(seed)
    records: list[RawPositioningRecord] = []
    devices = 0
    while len(records) < target:
        profile = profiles[int(rng.integers(0, len(profiles)))]
        arrival = float(rng.uniform(window.start, window.end - 1800.0))
        if params.get("steady"):
            arrival = window.start + devices * spacing
        elif devices == 0:
            arrival = window.start
        device = simulator.simulate_device(
            f"{prefix}3a.{devices:04x}.14",
            profile,
            start_time=arrival,
            seed=int(rng.integers(0, 2**31 - 1)),
        )
        sequence = device.raw
        if dropout is not None:
            sequence, _ = inject_dropout(
                sequence,
                gap_seconds=dropout["gap_seconds"],
                gap_count=dropout["gap_count"],
                seed=int(rng.integers(0, 2**31 - 1)),
            )
        if len(sequence.records) < keep:
            continue
        devices += 1
        records.extend(sequence.records[: min(keep, target - len(records))])
    return records, devices


def _batch(params: dict, seed: int, out: Path) -> dict:
    venue = params["venue"]
    model = _building(venue, params)
    dsm_path = out / f"{venue}-dsm.json"
    save_dsm(model, dsm_path)
    start, end = params["hours"]
    records, devices = _visitors(
        model, params, TimeRange(start * HOUR, end * HOUR),
        params["devices"] * params["device_records"], seed,
    )
    feed_path = out / f"{venue}-feed.{params['format']}"
    count = _write_feed(records, feed_path, params["format"])
    return {
        "dsm": {venue: dsm_path.name},
        "feed": feed_path.name,
        "records": count,
        "devices": devices,
    }


def _live(params: dict, seed: int, seconds: float, out: Path) -> dict:
    feed_seconds = seconds * LIVE_FEED_SHARE
    start = params["start_hour"] * HOUR
    window = TimeRange(start, start + feed_seconds * params["speedup"])
    dsm = {}
    records: list[RawPositioningRecord] = []
    devices = 0
    for offset, (venue, venue_params) in enumerate(params["venues"].items()):
        model = _building(venue, venue_params)
        dsm_path = out / f"{venue}-dsm.json"
        save_dsm(model, dsm_path)
        dsm[venue] = dsm_path.name
        target = round(venue_params["records_per_second"] * feed_seconds)
        visits, count = _visitors(
            model, venue_params, window, target, seed * 10 + offset,
            prefix=f"{venue}:",
        )
        records.extend(visits)
        devices += count
    feed_path = out / f"live-feed.{params['format']}"
    count = _write_feed(records, feed_path, params["format"])
    stamps = [record.timestamp for record in records]
    return {
        "dsm": dsm,
        "feed": feed_path.name,
        # The last devices run past the window, so the paced feed lasts
        # a little longer than its share of ``--seconds``.
        "feed_seconds": (max(stamps) - min(stamps)) / params["speedup"],
        "records": count,
        "devices": devices,
    }


def generate(name: str, seed: int, seconds: float, out: Path) -> dict:
    """Write workload ``name``'s inputs under ``out``; return its manifest."""
    params = WORKLOADS[name]
    out.mkdir(parents=True, exist_ok=True)
    if params["kind"] == "batch":
        files = _batch(params, seed, out)
    else:
        files = _live(params, seed, seconds, out)
    manifest = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "params": params,
        **files,
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2), encoding="utf-8"
    )
    return manifest
