"""Measure one generated workload in a process of its own.

Usage (``run.py`` starts this; it is not meant to be typed)::

    python3 perfbench/measure.py WORK_DIR SECONDS TRACE RESULT_JSON

``WORK_DIR`` holds the inputs and ``manifest.json`` that
:mod:`workloads` generated.  The run sets up, drives the workload through
the public entry points for about ``SECONDS`` of measured time, checks
every output against its reference outside the timed region, and writes
the metrics to ``RESULT_JSON``.  With ``TRACE`` = 1 it measures untraced
and traced runs of the workload (alternating iterations for a batch, one
after the other for live), the traced ones with the :mod:`tracing`
wrappers installed, and reports per-layer metrics.

Running in its own process keeps the generator's memory out of the peak
RSS and gives every run a cold interpreter, as a ``trips`` command has.
"""

from __future__ import annotations

import contextlib
import gc
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro.core import Translator  # noqa: E402
from repro.dsm import load_dsm  # noqa: E402
from repro.engine import Engine, EngineConfig  # noqa: E402
from repro.live import LiveConfig, LiveTranslationService  # noqa: E402
from repro.positioning import (  # noqa: E402
    CsvFileSource,
    JsonlFileSource,
    PositioningSequence,
    RecordStream,
)

import calibration  # noqa: E402
import tracing  # noqa: E402

#: Set-up repetitions before the measured iterations; each batch
#: iteration adds one more, and a live run repeats them after recovery,
#: so the samples spread over the run.
SETUP_REPEATS = 10
#: Fewest measured batch iterations, whatever ``SECONDS`` says.
MIN_ITERATIONS = 3
#: Fewest untraced/traced iteration pairs in a traced batch run.
MIN_TRACED_PAIRS = 3
#: Fewest recoveries timed per live run (each opens a fresh service on
#: the finished run's state directory); more follow while the part of
#: ``SECONDS`` the paced feed left over lasts.
MIN_RECOVERIES = 5
#: Wall time before the first paced record is due.
LIVE_LEAD_SECONDS = 0.05
#: Shortest sleep of the paced feed: records fall due in ticks this long.
LIVE_TICK_SECONDS = 0.005
PERCENTILE = 90
#: The paced live feed calibrates after every this many windows, and
#: each window's slowdown is the median of the calibrations at most
#: ``LIVE_CALIBRATION_SPAN`` windows away.
LIVE_CALIBRATION_EVERY = 2
LIVE_CALIBRATION_SPAN = 5

SOURCES = {"csv": CsvFileSource, "jsonl": JsonlFileSource}

#: End-to-end metrics and their units (``--trace 0``).
END_TO_END = {
    "records_per_s": "rec/s",
    "cpu_ms_per_krecord": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "service_records_per_s": "rec/s",
    "window_latency_p50_ms": "ms",
    "window_latency_p90_ms": "ms",
    "recovery_s": "s",
}

#: Per-layer metrics and their units (``--trace 1``).
PER_LAYER = {
    "positioning.parse_s": "s",
    "positioning.group_s": "s",
    "engine.self_s": "s",
    "engine.phase_one_s": "s",
    "engine.barrier_s": "s",
    "engine.phase_two_s": "s",
    "engine.pool_open_s": "s",
    "engine.ipc_bytes_out": "B",
    "engine.ipc_bytes_in": "B",
    "engine.worker_busy_share": "ratio",
    "cleaning.self_s": "s",
    "cleaning.speed_checks": "count",
    "cleaning.speed_check_s": "s",
    "cleaning.invalid": "count",
    "cleaning.repaired": "count",
    "dsm.walking_distance_calls": "count",
    "dsm.walking_distance_s": "s",
    "dsm.locate_calls": "count",
    "dsm.locate_s": "s",
    "columnar.prime_s": "s",
    "columnar.batch_build_s": "s",
    "annotation.self_s": "s",
    "annotation.split_s": "s",
    "annotation.snippets": "count",
    "annotation.match_s": "s",
    "annotation.identify_s": "s",
    "complementing.shard_build_s": "s",
    "complementing.knowledge_build_s": "s",
    "complementing.complement_s": "s",
    "complementing.gaps": "count",
    "complementing.inferred": "count",
    "knowledge.fold_s": "s",
    "knowledge.roll_s": "s",
    "knowledge.retired_epochs": "count",
    "live.service_p50_ms": "ms",
    "live.dispatch_s": "s",
    "live.cut_s": "s",
    "live.queue_wait_p90_ms": "ms",
    "live.generator_lag_max_s": "s",
    "durability.wal_append_s": "s",
    "durability.wal_bytes": "B",
    "durability.snapshot_s": "s",
    "durability.snapshots": "count",
    "durability.snapshot_bytes": "B",
    "durability.recovery_load_s": "s",
    "durability.recovery_phase_one_s": "s",
    "durability.replayed_windows": "count",
    "trace.spans": "count",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.phase_one_untraced_s": "s",
    "trace.phase_one_layers_s": "s",
}

#: Span names whose self time is a per-layer ``_s`` metric.
SELF_TIME_SPANS = {
    "positioning.group_s": "positioning.group",
    "cleaning.self_s": "cleaning",
    "cleaning.speed_check_s": "cleaning.speed_check",
    "dsm.walking_distance_s": "dsm.walking_distance",
    "dsm.locate_s": "dsm.locate",
    "columnar.prime_s": "columnar.prime",
    "columnar.batch_build_s": "columnar.batch_build",
    "annotation.self_s": "annotation",
    "annotation.split_s": "annotation.split",
    "annotation.match_s": "annotation.match",
    "annotation.identify_s": "annotation.identify",
    "complementing.shard_build_s": "complementing.shard_build",
    "complementing.knowledge_build_s": "complementing.knowledge_build",
    "complementing.complement_s": "complementing.complement",
    "knowledge.fold_s": "knowledge.fold",
    "knowledge.roll_s": "knowledge.roll",
    "live.dispatch_s": "live.dispatch",
    "durability.wal_append_s": "durability.wal_append",
    "durability.snapshot_s": "durability.snapshot",
}

#: Engine spans whose self time is orchestration glue, not a layer.
ENGINE_SPANS = (
    "engine.translate_batch",
    "engine.translate_increment",
    "engine.phase_one",
    "engine.complement",
    "engine.phase_one_chunk",
)

CALL_COUNTS = {
    "cleaning.speed_checks": "cleaning.speed_check",
    "dsm.walking_distance_calls": "dsm.walking_distance",
    "dsm.locate_calls": "dsm.locate",
}


# ----------------------------------------------------------------------
# Process accounting
# ----------------------------------------------------------------------
def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def engine_stamp(config: EngineConfig, translator: Translator, stats) -> dict:
    """The effective knobs a result was measured under."""
    return {
        "record_layout": config.record_layout,
        "knowledge_build": config.knowledge_build,
        "inference_compiled": (
            translator.config.complementing.inference.compiled
        ),
        "backend": stats.backend,
        "workers": stats.workers,
    }


def phase_seconds(stats) -> tuple[float, float, float]:
    return (
        stats.phase("clean+annotate").seconds,
        stats.phase("knowledge").seconds,
        stats.phase("complement").seconds,
    )


def output_counts(results) -> dict[str, int]:
    """Quality counts read off the public per-device results."""
    counts = {
        "cleaning.invalid": 0,
        "cleaning.repaired": 0,
        "complementing.gaps": 0,
        "complementing.inferred": 0,
    }
    for result in results:
        report = result.cleaning.report
        counts["cleaning.invalid"] += report.invalid_count
        counts["cleaning.repaired"] += report.repaired_count
        if result.complement is not None:
            counts["complementing.gaps"] += result.complement.gaps_found
            counts["complementing.inferred"] += (
                result.complement.inferred_semantics
            )
    return counts


def layer_metrics(
    tracer: tracing.Tracer,
    summary: tracing.SpanSummary,
    scale: float,
    extra: dict[str, float],
) -> dict[str, float]:
    """Per-layer values from a trace, divided by ``scale`` iterations."""
    values = {name: 0.0 for name in PER_LAYER}
    for metric, span in SELF_TIME_SPANS.items():
        values[metric] = summary.self_time.get(span, 0.0)
    for metric, span in CALL_COUNTS.items():
        values[metric] = summary.calls.get(span, 0)
    values["annotation.snippets"] = tracer.counters["annotation.snippets"]
    values["knowledge.retired_epochs"] = tracer.counters[
        "knowledge.retired_epochs"
    ]
    values["engine.self_s"] = sum(
        summary.self_time.get(span, 0.0) for span in ENGINE_SPANS
    )
    values["engine.pool_open_s"] = summary.total.get("engine.pool_open", 0.0)
    values["engine.ipc_bytes_out"] = tracer.counters["engine.ipc_bytes_out"]
    values["engine.ipc_bytes_in"] = tracer.counters["engine.ipc_bytes_in"]
    values["durability.snapshots"] = tracer.counters["durability.snapshots"]
    values["durability.snapshot_bytes"] = tracer.counters[
        "durability.snapshot_bytes"
    ]
    values["positioning.parse_s"] = summary.total.get("positioning.parse", 0.0)
    values["trace.spans"] = sum(summary.calls.values())
    values.update(extra)
    per_run = {
        "live.service_p50_ms",
        "live.queue_wait_p90_ms",
        "live.generator_lag_max_s",
        "engine.worker_busy_share",
    }
    return {
        name: (value if name in per_run else value / scale)
        for name, value in values.items()
    }


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------
class BatchRun:
    """``trips translate``-shaped batch: source -> group -> engine."""

    def __init__(self, manifest: dict, work: Path):
        self.manifest = manifest
        self.params = manifest["params"]
        (dsm_name,) = manifest["dsm"].values()
        self.dsm_path = work / dsm_name
        self.feed_path = work / manifest["feed"]
        self.config = EngineConfig(**self.params["engine"])
        self.setups: list[float] = []
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.stamp: dict = {}

    def setup(self) -> Translator:
        def build():
            started = time.perf_counter()
            translator = Translator(load_dsm(self.dsm_path))
            return translator, time.perf_counter() - started

        gc.collect()
        (translator, seconds), slow = calibration.bracketed(build)
        self.setups.append(seconds / slow)
        return translator

    def translate(self, translator: Translator, tracer=None):
        source = SOURCES[self.params["format"]](self.feed_path)
        if tracer is None:
            records = list(source.iter_records())
        else:
            with tracer.span("positioning.parse"):
                records = list(source.iter_records())
        sequences = PositioningSequence.group_records(records)
        return Engine(translator, self.config).translate_batch(sequences)

    def iteration(self, tracer=None) -> dict:
        translator = self.setup()

        def translate():
            with tracing_on(tracer):
                cpu_before = cpu_seconds()
                started = time.perf_counter()
                batch = self.translate(translator, tracer)
                wall = time.perf_counter() - started
                cpu = cpu_seconds() - cpu_before
            return batch, wall, cpu

        gc.collect()
        (batch, wall, cpu), slow = calibration.bracketed(translate)
        row = {
            "wall": wall,
            "cpu": cpu,
            "slowdown": slow,
            "engine": batch.elapsed_seconds,
            "records": batch.total_records,
            "phases": phase_seconds(batch.stats),
            "workers": batch.stats.workers,
        }
        if not self.stamp:
            self.stamp = engine_stamp(self.config, translator, batch.stats)
            row["peak_rss_mb"] = peak_rss_mb()
        self.check(batch)
        row["counts"] = output_counts(batch.results)
        return row

    def check(self, batch) -> None:
        """Count devices whose result differs from the inline reference."""
        if self.reference is None:
            source = SOURCES[self.params["format"]](self.feed_path)
            sequences = PositioningSequence.group_records(
                list(source.iter_records())
            )
            translator = Translator(load_dsm(self.dsm_path))
            self.reference = translator.translate_batch(sequences)
        expected = self.reference.results
        self.attempted += len(expected)
        if (
            len(batch.results) != len(expected)
            or batch.knowledge != self.reference.knowledge
        ):
            self.failed += len(expected)
            return
        self.failed += sum(
            1 for got, want in zip(batch.results, expected) if got != want
        )

    def measure(self, budget: float) -> list[dict]:
        """Untraced iterations until ``budget`` seconds were measured."""
        rows: list[dict] = []
        spent = 0.0
        while len(rows) < MIN_ITERATIONS or spent < budget:
            rows.append(self.iteration())
            spent += rows[-1]["wall"]
        return rows

    def measure_traced(
        self, budget: float, tracer: tracing.Tracer
    ) -> tuple[list[dict], list[dict]]:
        """Alternate untraced and traced iterations until ``budget``.

        Pairing the two keeps slow drift of the machine out of the
        tracing overhead (traced wall minus untraced wall).
        """
        plain: list[dict] = []
        traced: list[dict] = []
        spent = 0.0
        while len(traced) < MIN_TRACED_PAIRS or spent < budget:
            plain.append(self.iteration())
            traced.append(self.iteration(tracer))
            spent += plain[-1]["wall"] + traced[-1]["wall"]
        return plain, traced


def run_batch(manifest: dict, work: Path, seconds: float, trace: bool) -> dict:
    run = BatchRun(manifest, work)
    for _ in range(SETUP_REPEATS):
        run.setup()
    if trace:
        return traced_batch(run, manifest, seconds)
    rows = run.measure(seconds)
    # Medians over the run's identical iterations, each at the reference
    # speed.  The fastest iteration would read whichever lucky moment of
    # the shared machine the run caught.
    wall = statistics.median(row["wall"] / row["slowdown"] for row in rows)
    cpu = statistics.median(row["cpu"] / row["slowdown"] for row in rows)
    engine = statistics.median(row["engine"] / row["slowdown"] for row in rows)
    records = rows[0]["records"]
    metrics = {
        "records_per_s": records / wall,
        "cpu_ms_per_krecord": cpu * 1e6 / records,
        "setup_s": statistics.median(run.setups),
        "peak_rss_mb": rows[0]["peak_rss_mb"],
        "service_records_per_s": records / engine,
        # One batch is one window over the whole feed: every device's
        # semantics arrive with it, and a crashed batch keeps no
        # journal, so resuming means running it again.
        "window_latency_p50_ms": wall * 1e3,
        "window_latency_p90_ms": wall * 1e3,
        "recovery_s": wall,
    }
    samples = {name: len(rows) for name in metrics}
    samples["setup_s"] = len(run.setups)
    samples["peak_rss_mb"] = 1
    return {
        "metrics": metrics,
        "samples": samples,
        "records": rows[0]["records"],
        "iteration_walls": [row["wall"] for row in rows],
        "attempted": run.attempted,
        "failed": run.failed,
        "stamp": run.stamp,
    }


def traced_batch(run: BatchRun, manifest: dict, seconds: float) -> dict:
    tracer = tracing.Tracer()
    plain, traced = run.measure_traced(seconds, tracer)
    write_spans(tracer, manifest)
    summary = tracer.summary()
    n = len(traced)
    untraced_wall = statistics.median(row["wall"] for row in plain)
    traced_wall = statistics.median(row["wall"] for row in traced)
    phase_one = sum(row["phases"][0] for row in traced)
    extra = {
        "engine.phase_one_s": phase_one,
        "engine.barrier_s": sum(row["phases"][1] for row in traced),
        "engine.phase_two_s": sum(row["phases"][2] for row in traced),
        "engine.worker_busy_share": tracer.counters["engine.worker_busy_s"]
        / (traced[0]["workers"] * phase_one),
        "trace.untraced_wall_s": untraced_wall * n,
        "trace.traced_wall_s": traced_wall * n,
        "trace.overhead_s": (traced_wall - untraced_wall) * n,
        "trace.phase_one_untraced_s": (
            statistics.median(row["phases"][0] for row in plain) * n
        ),
        "trace.phase_one_layers_s": summary.below.get(
            "engine.phase_one_chunk", 0.0
        ),
    }
    for row in traced:
        for name, value in row["counts"].items():
            extra[name] = extra.get(name, 0) + value
    return {
        "metrics": layer_metrics(tracer, summary, n, extra),
        "samples": {"untraced_iterations": len(plain), "traced_iterations": n},
        "records": traced[0]["records"],
        "attempted": run.attempted,
        "failed": run.failed,
        "stamp": run.stamp,
    }


# ----------------------------------------------------------------------
# Live workload
# ----------------------------------------------------------------------
class PacedFeed:
    """Open-loop record release: record ``i`` is due at ``t0 + offset_i``.

    ``offset_i`` is the record's data time since the first record divided
    by the speed-up.  Every record already due is handed out without
    sleeping, so a late generator catches up instead of drifting.
    """

    def __init__(self, records, speedup: float):
        first = records[0].timestamp
        self.records = records
        self.offsets = [(r.timestamp - first) / speedup for r in records]
        self.t0 = 0.0
        self.lag_max = 0.0
        self.waited = 0.0

    def due(self, index: int) -> float:
        return self.t0 + self.offsets[index]

    def __iter__(self):
        self.t0 = time.perf_counter() + LIVE_LEAD_SECONDS
        for record, offset in zip(self.records, self.offsets):
            due = self.t0 + offset
            now = time.perf_counter()
            if now < due:
                # Release in ticks: waking for every record would make the
                # feed thread fight the translating thread for the GIL.
                time.sleep(max(due - now, LIVE_TICK_SECONDS))
                after = time.perf_counter()
                self.waited += after - now
                now = after
            if now - due > self.lag_max:
                self.lag_max = now - due
            yield record


class LiveRun:
    """Open-loop durable live service, then close, reopen and finalize."""

    def __init__(self, manifest: dict, work: Path):
        self.manifest = manifest
        self.params = manifest["params"]
        self.work = work
        self.engine_config = EngineConfig()
        self.live_config = LiveConfig(
            window_seconds=self.params["window_seconds"]
        )
        self.setups: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.stamp: dict = {}
        self._dirs = 0

    def translators(self) -> dict[str, Translator]:
        return {
            venue: Translator(load_dsm(self.work / name))
            for venue, name in self.manifest["dsm"].items()
        }

    def service(self, state_dir: Path) -> LiveTranslationService:
        return LiveTranslationService(
            self.translators(),
            self.engine_config,
            self.live_config,
            retention=self.params["retention"],
            state_dir=state_dir,
        )

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.work / f"state-{self._dirs}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def setup(self) -> tuple[LiveTranslationService, Path]:
        def build():
            started = time.perf_counter()
            service = self.service(state_dir)
            service.open()
            return service, time.perf_counter() - started

        state_dir = self.fresh_dir()
        gc.collect()
        (service, seconds), slow = calibration.bracketed(build)
        self.setups.append(seconds / slow)
        return service, state_dir

    def sample_setups(self) -> None:
        for _ in range(SETUP_REPEATS):
            service, state_dir = self.setup()
            service.close()
            shutil.rmtree(state_dir, ignore_errors=True)

    def serve(self, records, tracer=None) -> dict:
        service, state_dir = self.setup()
        feed = PacedFeed(records, self.params["speedup"])
        windows: list[dict] = []
        counts: dict[str, int] = {}
        phases = [0.0, 0.0, 0.0]  # engine phase one, barrier, phase two

        def on_window(window) -> None:
            done = time.perf_counter()
            cpu_now = cpu_seconds()
            results = {}
            for venue, batch in window.venues.items():
                results[venue] = len(batch)
                for name, value in output_counts(batch.results).items():
                    counts[name] = counts.get(name, 0) + value
                for index, value in enumerate(phase_seconds(batch.stats)):
                    phases[index] += value
            windows.append(
                {
                    "done": done,
                    "cpu": cpu_now,
                    "records": window.records,
                    "elapsed": window.elapsed_seconds,
                    "results": results,
                }
            )
            if not self.stamp:
                venue, batch = next(iter(window.venues.items()))
                self.stamp = engine_stamp(
                    self.engine_config,
                    service.dispatcher.translator(venue),
                    batch.stats,
                )
            # Calibrate between windows, where the service is mostly idle;
            # the next window's CPU is counted from after the calibration.
            if len(windows) % LIVE_CALIBRATION_EVERY == 0:
                windows[-1]["slowdown"] = calibration.slowdown(1)
            windows[-1]["cpu_end"] = cpu_seconds()

        gc.collect()
        with tracing_on(tracer):
            cpu_before = cpu_seconds()
            service.serve(RecordStream(iter(feed)), on_window=on_window)
            cpu = cpu_seconds() - cpu_before
            finalized = service.finalize()
        stats = service.stats
        service.close()
        peak = peak_rss_mb()

        marks = [
            (index, window["slowdown"])
            for index, window in enumerate(windows)
            if "slowdown" in window
        ]
        latencies = []
        released = 0
        cpu_mark = cpu_before
        for index, window in enumerate(windows):
            released += window["records"]
            window["latency"] = window["done"] - feed.due(released - 1)
            latencies.append(window["latency"])
            # CPU of every thread since the previous window was delivered:
            # the feed, the window cut, the translation and the journal.
            window["cpu_per_record"] = (
                window["cpu"] - cpu_mark
            ) / window["records"]
            cpu_mark = window["cpu_end"]
            window["slowdown"] = statistics.median(
                slow
                for mark, slow in marks
                if abs(mark - index) <= LIVE_CALIBRATION_SPAN
            )
        return {
            "state_dir": state_dir,
            "finalized": finalized,
            "windows": windows,
            "latencies": latencies,
            "cpu": cpu,
            "wall": windows[-1]["done"] - feed.t0,
            "busy": sum(window["elapsed"] for window in windows),
            "records": stats.records,
            "wal_bytes": stats.wal_bytes,
            "peak_rss_mb": peak,
            "feed": feed,
            "counts": counts,
            "phases": phases,
        }

    def recover(
        self, served: dict, repeats: int, budget: float = 0.0, tracer=None
    ) -> list[float]:
        """Reopen on the finished state dir; check the recovered finalize.

        Times at least ``repeats`` recoveries, and more until they took
        ``budget`` seconds together; returns their times at the
        reference speed.
        """
        times: list[float] = []
        spent = 0.0
        # A crashed service recovers in a fresh process.  Freezing the
        # finished run's objects keeps them out of the collector's passes
        # during recovery, as if they were not there.
        gc.collect()
        gc.freeze()
        try:
            while len(times) < repeats or spent < budget:
                repeat = len(times)
                service = self.service(served["state_dir"])

                def reopen():
                    started = time.perf_counter()
                    with recovery_span(tracer):
                        service.open()
                    return time.perf_counter() - started

                gc.collect()
                with tracing_on(tracer):
                    seconds, slow = calibration.bracketed(reopen)
                    times.append(seconds / slow)
                    spent += seconds
                    recovered = service.finalize() if repeat == 0 else None
                if recovered is not None:
                    self.check(served, recovered)
                service.close()
                del service, recovered
        finally:
            gc.unfreeze()
        return times

    def check(self, served: dict, recovered: dict) -> None:
        """Count windows whose recovered results differ from the live run."""
        windows = served["windows"]
        self.attempted += len(windows)
        expected = served["finalized"]
        bad_venues = {
            venue
            for venue, batch in expected.items()
            if venue not in recovered
            or recovered[venue].knowledge != batch.knowledge
            or len(recovered[venue].results) != len(batch.results)
        }
        if served["records"] != len(served["feed"].records):
            self.failed += len(windows)
            return
        offsets = {venue: 0 for venue in expected}
        for window in windows:
            bad = False
            for venue, count in window["results"].items():
                start = offsets[venue]
                offsets[venue] += count
                if venue in bad_venues:
                    bad = True
                    continue
                got = recovered[venue].results[start:start + count]
                want = expected[venue].results[start:start + count]
                if got != want:
                    bad = True
            self.failed += bad


def run_live(manifest: dict, work: Path, seconds: float, trace: bool) -> dict:
    run = LiveRun(manifest, work)
    run.sample_setups()
    source = SOURCES[manifest["params"]["format"]](work / manifest["feed"])
    records = list(source.iter_records())
    served = run.serve(records)
    if trace:
        recoveries = run.recover(served, 1)
    else:
        recoveries = run.recover(
            served, MIN_RECOVERIES, seconds - manifest["feed_seconds"]
        )
    run.sample_setups()
    latencies = served["latencies"]
    if not tracing.percentile_admissible(len(latencies), PERCENTILE):
        raise SystemExit(
            f"only {len(latencies)} windows: p{PERCENTILE} needs "
            f"{tracing.MIN_SAMPLES_BEYOND} samples beyond it"
        )
    count = served["records"]
    if not trace:
        rows = served["windows"]
        at_reference = [row["latency"] / row["slowdown"] for row in rows]
        metrics = {
            # Delivered rate: set by the release schedule, not by the
            # machine's speed, so it is not calibrated.
            "records_per_s": count / served["wall"],
            "cpu_ms_per_krecord": statistics.median(
                row["cpu_per_record"] / row["slowdown"] for row in rows
            ) * 1e6,
            "setup_s": statistics.median(run.setups),
            "peak_rss_mb": served["peak_rss_mb"],
            "service_records_per_s": statistics.median(
                row["records"] / row["elapsed"] * row["slowdown"]
                for row in rows
            ),
            "window_latency_p50_ms": tracing.percentile(at_reference, 50) * 1e3,
            "window_latency_p90_ms": (
                tracing.percentile(at_reference, PERCENTILE) * 1e3
            ),
            # Median of the identical recoveries, as for batch iterations.
            "recovery_s": statistics.median(recoveries),
        }
        windows = len(latencies)
        return {
            "metrics": metrics,
            "samples": {
                "records_per_s": 1,
                "cpu_ms_per_krecord": windows,
                "setup_s": len(run.setups),
                "peak_rss_mb": 1,
                "service_records_per_s": windows,
                "window_latency_p50_ms": windows,
                "window_latency_p90_ms": windows,
                "recovery_s": len(recoveries),
            },
            "records": count,
            "recovery_times": recoveries,
            "windows": windows,
            "busy_share": served["busy"] / served["wall"],
            "generator_lag_max_s": served["feed"].lag_max,
            "attempted": run.attempted,
            "failed": run.failed,
            "stamp": run.stamp,
        }

    untraced_busy = served["busy"]
    untraced_phase_one = served["phases"][0]
    del served
    gc.collect()
    tracer = tracing.Tracer()
    with tracing_on(tracer), tracer.span("positioning.parse"):
        list(source.iter_records())
    served = run.serve(records, tracer)
    busy = tracer.counters["engine.worker_busy_s"]
    run.recover(served, 1, tracer=tracer)
    write_spans(tracer, manifest)
    summary = tracer.summary()
    # Translation runs on whichever executor thread is free, so the
    # window spans come back grouped by thread: order them by start.
    window_starts = sorted(
        start
        for name, start, _end, parent, _thread in tracer.spans()
        if name == "live.window" and parent < 0
    )
    waits = [
        start - cut
        for cut, start in zip(tracer.marks["live.cut_end"], window_starts)
    ]
    cut_total = summary.total.get("live.cut", 0.0)
    extra = {
        "positioning.parse_s": summary.total.get("positioning.parse", 0.0),
        "engine.phase_one_s": served["phases"][0],
        "engine.barrier_s": served["phases"][1],
        "engine.phase_two_s": served["phases"][2],
        "engine.worker_busy_share": busy / served["phases"][0],
        "live.service_p50_ms": tracing.percentile(
            summary.durations["live.window"], 50
        ) * 1e3,
        "live.cut_s": cut_total - served["feed"].waited,
        "live.queue_wait_p90_ms": tracing.percentile(waits, PERCENTILE) * 1e3,
        "live.generator_lag_max_s": served["feed"].lag_max,
        "durability.wal_bytes": served["wal_bytes"],
        "durability.recovery_load_s": sum(
            summary.total_by_root.get(("live.recovery", name), 0.0)
            for name in ("durability.journal_open", "durability.journal_load")
        ),
        "durability.recovery_phase_one_s": summary.total_by_root.get(
            ("live.recovery", "engine.phase_one"), 0.0
        ),
        "durability.replayed_windows": tracer.counters[
            "durability.replayed_windows"
        ],
        "trace.untraced_wall_s": untraced_busy,
        "trace.traced_wall_s": served["busy"],
        "trace.overhead_s": served["busy"] - untraced_busy,
        "trace.phase_one_untraced_s": untraced_phase_one,
        "trace.phase_one_layers_s": summary.below_by_root.get(
            ("live.window", "engine.phase_one_chunk"), 0.0
        ),
    }
    for name in (
        "cleaning.invalid",
        "cleaning.repaired",
        "complementing.gaps",
        "complementing.inferred",
    ):
        extra[name] = served["counts"].get(name, 0)
    return {
        "metrics": layer_metrics(tracer, summary, 1, extra),
        "samples": {"windows": len(served["windows"])},
        "records": count,
        "attempted": run.attempted,
        "failed": run.failed,
        "stamp": run.stamp,
    }


# ----------------------------------------------------------------------
@contextlib.contextmanager
def tracing_on(tracer: "tracing.Tracer | None"):
    """Install the tracing wrappers for the block (no-op without a tracer)."""
    if tracer is None:
        yield
        return
    patches = tracing.install(tracer)
    try:
        yield
    finally:
        patches.restore()


def recovery_span(tracer: "tracing.Tracer | None"):
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span("live.recovery")


def write_spans(tracer: tracing.Tracer, manifest: dict) -> None:
    out = HERE.parent / ".perfbench" / "traces"
    tracer.write(out / f"{manifest['workload']}-seed{manifest['seed']}.json.gz")


RUNNERS = {"batch": run_batch, "live": run_live}


def main(argv: list[str]) -> int:
    work, seconds, trace, result_path = (
        Path(argv[0]), float(argv[1]), argv[2] == "1", Path(argv[3])
    )
    manifest = json.loads((work / "manifest.json").read_text())
    runner = RUNNERS[manifest["params"]["kind"]]
    result = runner(manifest, work, seconds, trace)
    result["correct"] = result["failed"] == 0 and result["attempted"] > 0
    result["slowdown"] = statistics.median(calibration.SLOWDOWNS)
    result_path.write_text(json.dumps(result, indent=2), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
