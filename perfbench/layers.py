"""Per-layer measurement for the traced pass.

Three instruments, each used in its own round so none inflates what
another measures:

* :class:`LayerProbe` under :func:`instrumented` times public calls — the
  benchmark's own calls (``run_campaign``, ``render_figures_from_store``)
  and the methods the program calls on its public classes
  (``System.__init__/drain/finish``, ``SimulatorSnapshot.capture/restore``,
  ``CheckpointStore.put/get``, ``generate_streams``, the campaign
  executors).  Around every drain it takes exact work counts from the
  system (events, misses, link crossings, bytes, reissues, persistent
  requests, retired ops).  The kernel runs unchanged, so ``sim.drain_s``
  is the time of ``Simulator.run`` itself.
* :func:`event_split` runs every stock ``Simulator`` drain under
  ``install_profiler`` and counts its events by the layer of the
  callback's class.  The profiler replaces the kernel's run loop, so this
  round gives counts only.
* :class:`SampledProfile` runs ``cProfile`` over every seventh operation
  of a round and groups self time by ``repro`` subpackage.
"""

from __future__ import annotations

import cProfile
import contextlib
import pstats
import sys
import time
from collections import defaultdict

from suite import NullProbe

#: Subpackages reported as ``prof.<name>_s``; anything else is ``other``.
PROFILED_PACKAGES = (
    "sim", "interconnect", "core", "coherence", "cache", "memory",
    "processor", "protocols", "predict", "workloads", "system", "testing",
    "faults", "lineage", "observe", "snapshot", "campaign", "analysis",
)

#: Kernel-event layers: subpackage of the callback's class -> layer.
EVENT_LAYERS = {
    "interconnect": "interconnect",
    "core": "protocol",
    "coherence": "protocol",
    "protocols": "protocol",
    "predict": "protocol",
    "processor": "processor",
}

#: Exact work counted around every drain, read from the system.
WORK_FIELDS = ("events", "ops", "l2_misses", "crossings", "bytes",
               "reissues", "persistent")


def system_work(system) -> tuple:
    counters = system.counters
    traffic = system.traffic
    return (
        system.sim.events_fired,
        sum(sequencer.completed_ops for sequencer in system.sequencers),
        counters.get("l2_miss"),
        sum(traffic.crossings_by_category().values()),
        traffic.total_bytes(),
        counters.get("reissued_request"),
        counters.get("persistent_request"),
    )


def package_of_module(module: str) -> str | None:
    parts = module.split(".")
    if len(parts) >= 3 and parts[0] == "repro":
        return parts[1]
    return None


def class_layers() -> dict:
    """Class name -> event layer, for every class in a loaded module."""
    layers = {}
    for module_name, module in list(sys.modules.items()):
        package = package_of_module(module_name)
        if package is None:
            continue
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module_name:
                layers.setdefault(value.__name__,
                                  EVENT_LAYERS.get(package, "other"))
    return layers


class LayerProbe(NullProbe):
    """Stage host times and exact work counts of one traced round."""

    def __init__(self) -> None:
        self.times = defaultdict(float)
        self.counts = defaultdict(int)
        self.work = dict.fromkeys(WORK_FIELDS, 0)
        #: Callback label ("Class.method") -> events, from the profiler.
        self.callbacks = defaultdict(int)
        #: Class name -> layer for instrumentation subclasses created
        #: at run time (not attributes of any module).
        self.live_layers = {}
        self.blob_bytes = []

    @contextlib.contextmanager
    def stage(self, name):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.times[name] += time.perf_counter() - started

    def add(self, name, value):
        self.counts[name] += value

    def events_executed(self):
        return self.work["events"]

    def note_live_classes(self, system) -> None:
        """Map run-time subclasses to the layer of their static base."""
        known = [(system.network, "interconnect")]
        known += [(link, "interconnect") for link in system.network.all_links()]
        known += [(node, "protocol") for node in system.nodes]
        known += [(seq, "processor") for seq in system.sequencers]
        for obj, layer in known:
            self.live_layers.setdefault(type(obj).__name__, layer)

    def metrics(self, layers_by_class: dict) -> dict:
        """Every probe-derived per-layer metric (name -> (value, unit))."""
        work = self.work
        times = self.times
        events = work["events"]
        misses = work["l2_misses"]

        def per(value, base):
            return value / base if base else 0.0

        by_layer = dict.fromkeys(
            ("interconnect", "protocol", "processor", "other"), 0
        )
        layers = {**layers_by_class, **self.live_layers}
        for label, count in self.callbacks.items():
            layer = layers.get(label.split(".", 1)[0], "other")
            by_layer[layer] += count
        profiled = sum(by_layer.values())
        blobs = self.blob_bytes
        return {
            "sim.drain_s": (times["sim.drain_s"], "s"),
            "sim.events_per_s": (per(events, times["sim.drain_s"]), "1/s"),
            "workloads.gen_s": (times["workloads.gen_s"], "s"),
            "system.build_s": (times["system.build_s"], "s"),
            "system.finish_s": (times["system.finish_s"], "s"),
            "snapshot.capture_s": (times["snapshot.capture_s"], "s"),
            "snapshot.restore_s": (times["snapshot.restore_s"], "s"),
            "snapshot.checkpoint_put_s": (times["snapshot.checkpoint_put_s"], "s"),
            "snapshot.checkpoint_get_s": (times["snapshot.checkpoint_get_s"], "s"),
            "snapshot.blob_kb": (per(sum(blobs), len(blobs)) / 1024, "KB"),
            "campaign.overhead_s": (
                times["campaign.run_s"] - times["campaign.executor_s"]
                if times["campaign.run_s"] else 0.0, "s",
            ),
            "campaign.replay_s": (times["campaign.replay_s"], "s"),
            "analysis.render_s": (times["analysis.render_s"], "s"),
            "sim.events": (events, "count"),
            "sim.events_per_op": (per(events, work["ops"]), "count"),
            "sim.events_per_miss": (per(events, misses), "count"),
            **{
                f"sim.events.{layer}": (count, "count")
                for layer, count in by_layer.items()
            },
            "sim.events.unprofiled": (events - profiled, "count"),
            "interconnect.crossings_per_miss": (per(work["crossings"], misses), "count"),
            "interconnect.bytes_per_miss": (per(work["bytes"], misses), "B"),
            "cache.l2_misses": (misses, "count"),
            "core.reissues": (work["reissues"], "count"),
            "core.persistent_requests": (work["persistent"], "count"),
            "snapshot.warmup_events": (self.counts["snapshot.warmup_events"], "count"),
            "snapshot.events_saved": (self.counts["snapshot.events_saved"], "count"),
            "lineage.events": (self.counts["lineage.events"], "count"),
            "model.sim_runtime_ns": (self.counts["model.sim_runtime_ns"], "ns"),
        }


def _patch(owner, name, make_wrapper, undo):
    original = owner.__dict__[name]
    setattr(owner, name, make_wrapper(original))
    undo.append((owner, name, original))


@contextlib.contextmanager
def instrumented(probe: LayerProbe):
    """Time the program's public calls into ``probe`` while active."""
    from repro.campaign import executors
    from repro.snapshot import CheckpointStore, SimulatorSnapshot
    from repro.system import builder
    from repro.system.builder import System

    times = probe.times
    undo = []

    def timed(stage):
        def wrap(function):
            def wrapper(*args, **kwargs):
                started = time.perf_counter()
                try:
                    return function(*args, **kwargs)
                finally:
                    times[stage] += time.perf_counter() - started
            return wrapper
        return wrap

    def wrap_drain(drain):
        def wrapper(system, *args, **kwargs):
            before = system_work(system)
            started = time.perf_counter()
            try:
                return drain(system, *args, **kwargs)
            finally:
                times["sim.drain_s"] += time.perf_counter() - started
                for field, old, new in zip(WORK_FIELDS, before,
                                           system_work(system)):
                    probe.work[field] += new - old
        return wrapper

    def wrap_capture(capture):
        function = capture.__func__

        def wrapper(cls, *args, **kwargs):
            started = time.perf_counter()
            try:
                snapshot = function(cls, *args, **kwargs)
            finally:
                times["snapshot.capture_s"] += time.perf_counter() - started
            probe.blob_bytes.append(snapshot.size_bytes)
            return snapshot
        return classmethod(wrapper)

    try:
        _patch(System, "__init__", timed("system.build_s"), undo)
        _patch(System, "drain", wrap_drain, undo)
        _patch(System, "finish", timed("system.finish_s"), undo)
        _patch(builder, "generate_streams", timed("workloads.gen_s"), undo)
        _patch(SimulatorSnapshot, "capture", wrap_capture, undo)
        _patch(SimulatorSnapshot, "restore", timed("snapshot.restore_s"), undo)
        _patch(CheckpointStore, "put", timed("snapshot.checkpoint_put_s"), undo)
        _patch(CheckpointStore, "get", timed("snapshot.checkpoint_get_s"), undo)
        registry = executors.EXECUTORS
        for kind in list(registry):
            original = registry[kind]
            registry[kind] = timed("campaign.executor_s")(original)
            undo.append((registry, kind, original))
        yield probe
    finally:
        _restore(undo)


def _restore(undo):
    for owner, name, original in reversed(undo):
        if isinstance(owner, dict):
            owner[name] = original
        else:
            setattr(owner, name, original)


@contextlib.contextmanager
def event_split(probe: LayerProbe):
    """Count each stock-kernel drain's events by callback while active."""
    from repro.sim.kernel import Simulator, install_profiler
    from repro.system.builder import System

    def wrap_drain(drain):
        def wrapper(system, *args, **kwargs):
            sim = system.sim
            probe.note_live_classes(system)
            if type(sim) is not Simulator:
                return drain(system, *args, **kwargs)
            profile = install_profiler(sim)
            try:
                return drain(system, *args, **kwargs)
            finally:
                # Hand the kernel back untouched, so a snapshot of this
                # system carries no profiler state.
                sim.__class__ = Simulator
                sim._profile = None
                for label, (count, _wall) in profile.categories.items():
                    probe.callbacks[label] += count
        return wrapper

    undo = []
    try:
        _patch(System, "drain", wrap_drain, undo)
        yield probe
    finally:
        _restore(undo)


class SampledProfile(NullProbe):
    """A probe that runs cProfile over every ``every``-th operation.

    Rounds call :meth:`operation_boundary` before their first operation
    and after each one; the profiler is on between boundaries ``k`` and
    ``k + 1`` when ``k`` is a multiple of ``every``.  Profiling a sample
    keeps the traced run of the largest workload inside its time limit.
    Seven shares no factor with the 8 bars per ``figure_grid`` workload or
    the 5 calls per ``fork_family`` pair, so the sample rotates over every
    protocol and over checkpoint misses and hits.
    """

    def __init__(self, every: int = 7) -> None:
        self.every = every
        self.profiler = cProfile.Profile()
        self.boundaries = 0
        self.active = False

    def operation_boundary(self):
        if self.active:
            self.profiler.disable()
            self.active = False
        if self.boundaries % self.every == 0:
            self.profiler.enable()
            self.active = True
        self.boundaries += 1

    def metrics(self) -> dict:
        """Self time by ``repro`` subpackage, as ``prof.<pkg>_s``."""
        if self.active:
            self.profiler.disable()
            self.active = False
        self_time = dict.fromkeys(PROFILED_PACKAGES + ("other",), 0.0)
        for (filename, _line, _name), row in pstats.Stats(self.profiler).stats.items():
            package = "other"
            marker = filename.rfind("/repro/")
            if marker >= 0:
                rest = filename[marker + len("/repro/"):]
                head = rest.split("/", 1)[0]
                if "/" in rest and head in self_time:
                    package = head
            self_time[package] += row[2]
        return {
            f"prof.{package}_s": (seconds, "s")
            for package, seconds in self_time.items()
        }
