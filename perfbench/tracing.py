"""Benchmark-side span tracing: wrappers around the pipeline's public calls.

The traced run of a workload installs wrappers from this file around the
public functions of each layer (``RawDataCleaner.clean``,
``Topology.walking_distance``, ``KnowledgeStore.fold``, ...), records one
span per call and restores the originals afterwards.  Nothing in the
program is edited; in-program spans are a separate piece of work.

A span is ``(name, start, end, parent)``.  Spans are kept in memory, one
buffer per thread (a span's parent is the innermost open span of the same
thread), and written out once at the end of the run.  A span's **self
time** is its duration minus the durations of its direct children, so the
self times of every span under a root add up to the root's duration.

Only the process that installed the wrappers records.  Pool workers
forked from it inherit the patched classes, but their wrappers call
straight through: on the ``processes`` backend the trace is caller-side
only.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import os
import pickle
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

#: Fewest samples a reported percentile must leave beyond it.
MIN_SAMPLES_BEYOND = 10


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def _rank(count: int, percentile: float) -> int:
    """1-based nearest rank; rounding first keeps 99.9% of 10000 at 9990."""
    return max(1, math.ceil(round(percentile / 100.0 * count, 9)))


def samples_beyond(count: int, percentile: float) -> int:
    """Samples strictly above the nearest-rank ``percentile`` of ``count``."""
    if count <= 0:
        return 0
    return count - _rank(count, percentile)


def percentile_admissible(count: int, percentile: float) -> bool:
    """Whether ``count`` samples leave at least ten beyond ``percentile``."""
    return samples_beyond(count, percentile) >= MIN_SAMPLES_BEYOND


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (which must be non-empty)."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), pct) - 1]


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def self_times(
    starts: list[float], ends: list[float], parents: list[int]
) -> list[float]:
    """Per-span self time: duration minus the direct children's durations.

    ``parents[i]`` is the index of span ``i``'s parent, or ``-1`` for a
    root.  Children are always recorded after their parent.
    """
    result = [end - start for start, end in zip(starts, ends)]
    for index, parent in enumerate(parents):
        if parent >= 0:
            result[parent] -= ends[index] - starts[index]
    return result


@dataclass
class _ThreadBuffer:
    names: list[int] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)
    stack: list[int] = field(default_factory=list)


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self) -> None:
        self._recording = True
        os.register_at_fork(after_in_child=self._stop_recording)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._buffers: list[_ThreadBuffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.counters: dict[str, float] = defaultdict(float)
        #: ``perf_counter`` readings of benchmark-chosen moments, by name.
        self.marks: dict[str, list[float]] = defaultdict(list)

    # -- recording -----------------------------------------------------
    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            return self._name_ids[name]

    def _buffer(self) -> _ThreadBuffer:
        buffer = getattr(self._local, "buffer", None)
        if buffer is None:
            buffer = _ThreadBuffer()
            self._local.buffer = buffer
            with self._lock:
                self._buffers.append(buffer)
        return buffer

    def _stop_recording(self) -> None:
        self._recording = False

    def recording(self) -> bool:
        """False in forked pool workers: they pass calls straight through."""
        return self._recording

    def begin(self, name_id: int) -> int:
        buffer = self._buffer()
        index = len(buffer.names)
        buffer.names.append(name_id)
        buffer.parents.append(buffer.stack[-1] if buffer.stack else -1)
        buffer.ends.append(0.0)
        buffer.stack.append(index)
        buffer.starts.append(time.perf_counter())
        return index

    def end(self, index: int) -> None:
        now = time.perf_counter()
        buffer = self._local.buffer
        buffer.ends[index] = now
        buffer.stack.pop()

    def span(self, name: str) -> "_SpanContext":
        """Context manager recording one benchmark-side span."""
        return _SpanContext(self, self.name_id(name))

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    # -- reading -------------------------------------------------------
    def spans(self) -> list[tuple[str, float, float, int, int]]:
        """Every span as ``(name, start, end, parent, thread)``.

        ``parent`` indexes into the returned list (``-1`` for roots).
        """
        out: list[tuple[str, float, float, int, int]] = []
        for thread, buffer in enumerate(self._buffers):
            offset = len(out)
            for name, start, end, parent in zip(
                buffer.names, buffer.starts, buffer.ends, buffer.parents
            ):
                out.append(
                    (
                        self.names[name],
                        start,
                        end,
                        parent + offset if parent >= 0 else -1,
                        thread,
                    )
                )
        return out

    def summary(self) -> "SpanSummary":
        return SpanSummary.from_spans(self.spans())

    def write(self, path: Path) -> None:
        """Write every span and counter as gzipped JSON."""
        spans = self.spans()
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fields": ["name", "start", "end", "parent", "thread"],
            "spans": spans,
            "counters": dict(self.counters),
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


class _SpanContext:
    __slots__ = ("tracer", "name_id", "index")

    def __init__(self, tracer: Tracer, name_id: int) -> None:
        self.tracer = tracer
        self.name_id = name_id
        self.index = -1

    def __enter__(self) -> "_SpanContext":
        self.index = self.tracer.begin(self.name_id)
        return self

    def __exit__(self, *exc_info) -> None:
        self.tracer.end(self.index)


@dataclass
class SpanSummary:
    """Per-name totals over a span list."""

    calls: dict[str, int]
    total: dict[str, float]
    self_time: dict[str, float]
    durations: dict[str, list[float]]
    #: Self time of every span below a span of the keyed name (the named
    #: span's own self time excluded), e.g. the layers inside phase one.
    below: dict[str, float]
    #: ``total`` and ``below`` split by the name of each span's root.
    total_by_root: dict[tuple[str, str], float]
    below_by_root: dict[tuple[str, str], float]

    @classmethod
    def from_spans(cls, spans) -> "SpanSummary":
        starts = [span[1] for span in spans]
        ends = [span[2] for span in spans]
        parents = [span[3] for span in spans]
        own = self_times(starts, ends, parents)
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        durations: dict[str, list[float]] = defaultdict(list)
        below: dict[str, float] = defaultdict(float)
        total_by_root: dict[tuple[str, str], float] = defaultdict(float)
        below_by_root: dict[tuple[str, str], float] = defaultdict(float)
        # Root name and distinct ancestor names per span; parents are
        # recorded before their children.
        roots: list[str] = []
        ancestors: list[tuple[str, ...]] = []
        for index, (name, start, end, parent, _) in enumerate(spans):
            above: tuple[str, ...] = ()
            root = name
            if parent >= 0:
                root = roots[parent]
                above = ancestors[parent]
                if spans[parent][0] not in above:
                    above = above + (spans[parent][0],)
            roots.append(root)
            ancestors.append(above)
            calls[name] += 1
            total[name] += end - start
            total_by_root[root, name] += end - start
            self_time[name] += own[index]
            durations[name].append(end - start)
            for ancestor in above:
                below[ancestor] += own[index]
                below_by_root[root, ancestor] += own[index]
        return cls(
            calls, total, self_time, durations, below,
            total_by_root, below_by_root,
        )


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _span_wrapper(tracer: Tracer, name: str, fn, on_result=None):
    name_id = tracer.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.recording():
            return fn(*args, **kwargs)
        index = tracer.begin(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if on_result is not None:
            on_result(tracer, result)
        return result

    return wrapper


def _map_wrapper(tracer: Tracer, fn, measure_ipc: bool):
    """Wrap ``ExecutionBackend.map``: IPC bytes and worker busy time.

    Payloads and results are pickled a second time, on the caller, only
    to measure their size.
    """
    from repro.core.translator import PhaseOneChunk

    @functools.wraps(fn)
    def wrapper(self, task, payloads):
        if not tracer.recording():
            yield from fn(self, task, payloads)
            return

        def counted():
            for payload in payloads:
                if measure_ipc:
                    tracer.count(
                        "engine.ipc_bytes_out", len(pickle.dumps(payload))
                    )
                yield payload

        for result in fn(self, task, counted()):
            if measure_ipc:
                tracer.count("engine.ipc_bytes_in", len(pickle.dumps(result)))
            if isinstance(result, PhaseOneChunk) and result.seconds:
                tracer.count("engine.worker_busy_s", result.seconds)
            yield result

    return wrapper


class Patches:
    """Installed wrappers, restorable in reverse order."""

    def __init__(self) -> None:
        self._undo: list = []

    def method(self, cls, name: str, make) -> None:
        """Replace ``cls.name`` (possibly inherited) with ``make(fn)``."""
        raw = None
        for klass in cls.__mro__:
            if name in klass.__dict__:
                raw = klass.__dict__[name]
                break
        if raw is None:
            raise AttributeError(f"{cls.__name__} has no {name!r}")
        owned = name in cls.__dict__
        if isinstance(raw, classmethod):
            patched = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            patched = staticmethod(make(raw.__func__))
        else:
            patched = make(raw)
        setattr(cls, name, patched)
        if owned:
            self._undo.append(lambda: setattr(cls, name, raw))
        else:
            self._undo.append(lambda: delattr(cls, name))

    def function(self, module, name: str, make) -> None:
        original = getattr(module, name)
        setattr(module, name, make(original))
        self._undo.append(lambda: setattr(module, name, original))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def _count_len(counter: str):
    def on_result(tracer: Tracer, result) -> None:
        tracer.count(counter, len(result))

    return on_result


def _count_load(tracer: Tracer, result) -> None:
    _, entries = result
    tracer.count("durability.replayed_windows", len(entries))


def install(tracer: Tracer) -> Patches:
    """Wrap every traced public function; returns the undo handle."""
    from repro.columnar import batch as columnar_batch
    from repro.columnar import kernels as columnar_kernels
    from repro.columnar import locate as columnar_locate
    from repro.core import translator as translator_module
    from repro.core.annotation import annotator, event_model, spatial, splitting
    from repro.core.cleaning import cleaner, speed
    from repro.core.complementing import knowledge
    from repro.dsm import model as dsm_model
    from repro.dsm import topology
    from repro.durability import journal
    from repro.engine import backends
    from repro.engine import engine as engine_module
    from repro.knowledge import store
    from repro.live import dispatch, service
    from repro.positioning import sequence, stream

    patches = Patches()

    def spans(name, on_result=None):
        return lambda fn: _span_wrapper(tracer, name, fn, on_result)

    for module in (translator_module, engine_module):
        patches.function(
            module, "run_phase_one_chunk", spans("engine.phase_one_chunk")
        )
        patches.function(
            module, "run_phase_two_chunk", spans("complementing.complement")
        )
    patches.function(
        engine_module,
        "run_phase_one_chunk_columnar",
        spans("engine.phase_one_chunk"),
    )
    method_spans = [
        (engine_module.Engine, "translate_batch", "engine.translate_batch"),
        (engine_module.Engine, "translate_increment", "engine.translate_increment"),
        (engine_module.Engine, "phase_one", "engine.phase_one"),
        (engine_module.Engine, "complement", "engine.complement"),
        (backends.ProcessBackend, "open", "engine.pool_open"),
        (sequence.PositioningSequence, "group_records", "positioning.group"),
        (cleaner.RawDataCleaner, "clean", "cleaning"),
        (columnar_kernels.ColumnarCleaner, "clean", "cleaning"),
        (speed.SpeedValidator, "transition_feasible", "cleaning.speed_check"),
        (
            columnar_kernels.ColumnarSpeedValidator,
            "transition_feasible",
            "cleaning.speed_check",
        ),
        (topology.Topology, "walking_distance", "dsm.walking_distance"),
        (dsm_model.DigitalSpaceModel, "partition_at", "dsm.locate"),
        (dsm_model.DigitalSpaceModel, "primary_region_at", "dsm.locate"),
        (dsm_model.DigitalSpaceModel, "nearest_partition", "dsm.locate"),
        (columnar_locate.LocatorSession, "prime", "columnar.prime"),
        (columnar_batch.RecordBatch, "from_sequences", "columnar.batch_build"),
        (annotator.MobilitySemanticsAnnotator, "annotate", "annotation"),
        (spatial.SpatialMatcher, "match", "annotation.match"),
        (event_model.HeuristicEventIdentifier, "identify", "annotation.identify"),
        (
            knowledge.PartialKnowledge,
            "from_sequences",
            "complementing.shard_build",
        ),
        (
            knowledge.MobilityKnowledge,
            "from_partials",
            "complementing.knowledge_build",
        ),
        (store.KnowledgeStore, "fold", "knowledge.fold"),
        (dispatch.VenueDispatcher, "split", "live.dispatch"),
        (service.LiveTranslationService, "process_window", "live.window"),
        (service.LiveTranslationService, "finalize", "live.finalize"),
        (journal.DurableStateJournal, "append_window", "durability.wal_append"),
        (journal.DurableStateJournal, "open", "durability.journal_open"),
    ]
    for cls, name, label in method_spans:
        patches.method(cls, name, spans(label))
    # ColumnarSplitter inherits this method, so one wrapper covers both.
    patches.method(
        splitting.DensitySplitter,
        "split",
        spans("annotation.split", _count_len("annotation.snippets")),
    )
    patches.method(
        store.KnowledgeStore,
        "roll",
        spans("knowledge.roll", _count_len("knowledge.retired_epochs")),
    )
    patches.method(
        journal.DurableStateJournal,
        "load",
        spans("durability.journal_load", _count_load),
    )

    def snapshot_wrapper(fn):
        inner = _span_wrapper(tracer, "durability.snapshot", fn)

        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            result = inner(self, *args, **kwargs)
            if tracer.recording():
                tracer.count("durability.snapshots")
                tracer.count(
                    "durability.snapshot_bytes",
                    self.snapshot_path.stat().st_size,
                )
            return result

        return wrapper

    patches.method(journal.DurableStateJournal, "write_snapshot", snapshot_wrapper)

    def cut_wrapper(fn):
        inner = _span_wrapper(tracer, "live.cut", fn)

        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            batch = inner(self, *args, **kwargs)
            if batch and tracer.recording():
                tracer.marks["live.cut_end"].append(time.perf_counter())
            return batch

        return wrapper

    patches.method(stream.RecordStream, "take_window", cut_wrapper)

    for cls, ipc in (
        (backends.SerialBackend, False),
        (backends.ProcessBackend, True),
    ):
        patches.method(
            cls, "map", lambda fn, ipc=ipc: _map_wrapper(tracer, fn, ipc)
        )
    return patches
