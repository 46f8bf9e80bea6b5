"""Span recorder for the traced benchmark run.

The benchmark measures layers from the outside: :class:`Tracer` replaces
each layer's public entry point with a wrapper that records one span per
call and puts the original back on :meth:`Tracer.uninstall`. Nothing in
``src/`` knows it is being traced, and the untraced run installs nothing.

A span is ``(id, name, start, end, parent, thread, run)``. ``parent`` is
the innermost open span on the same thread (a per-thread stack), so
children nest strictly inside their parent and a span's self time is its
duration minus the summed durations of its direct children. ``run`` is
the benchmark's id for the operation the span served; runtime threads
inherit it from the thread that started them. Spans stay in memory until
:meth:`Tracer.write` dumps them after the measurement.
"""

from __future__ import annotations

import gzip
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable

#: Mailbox.take callers, by thread-name prefix.
WAIT_ROLES = (("slave:", "runtime.slave_wait"), ("master:", "runtime.master_wait"),
              ("head", "runtime.head_wait"))


class Tracer:
    """In-memory spans and counters, plus the wrappers that produce them."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.handles: list[Any] = []
        #: Run id for threads the benchmark did not tag (retrieval pools);
        #: set only while a single operation is in flight.
        self.fallback_run: str | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[Any, str, Any, bool]] = []

    # -- per-thread state ----------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_run(self, run: str | None) -> None:
        """Tag spans recorded on this thread with ``run``."""
        self._local.run = run

    def current_run(self) -> str | None:
        return getattr(self._local, "run", None) or self.fallback_run

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    # -- wrapping ------------------------------------------------------------

    def span(self, name: str, fn: Callable, on_call: Callable | None = None) -> Callable:
        """Return ``fn`` wrapped to record a span named ``name``.

        ``on_call(args, kwargs, result)`` runs after the call for layer
        counters (units reduced, bytes read).
        """
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                thread = threading.current_thread()
                spans.append((span_id, name, start, end, parent, thread.name,
                              self.current_run()))
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: str,
              on_call: Callable | None = None) -> None:
        """Replace ``owner.attr`` (a class or module attribute) with a
        span-recording wrapper until :meth:`uninstall`."""
        self.patch_call(owner, attr, lambda fn: self.span(name, fn, on_call))

    def patch_call(self, owner: Any, attr: str, wrapper: Callable) -> None:
        """Replace ``owner.attr`` with ``wrapper(original)`` until uninstall."""
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else None
        setattr(owner, attr, wrapper(getattr(owner, attr)))
        self._restore.append((owner, attr, original, had_own))

    def uninstall(self) -> None:
        for owner, attr, original, had_own in reversed(self._restore):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._restore.clear()

    def tag_thread_start(self, fn: Callable) -> Callable:
        """Wrap a node's ``start`` so the thread it spawns inherits the
        starting thread's run id (the node's thread target is ``_run``)."""
        tracer = self

        def start(node, *args, **kwargs):
            run = tracer.current_run()
            body = node._run

            def tagged():
                tracer.set_run(run)
                body()

            node._run = tagged
            return fn(node, *args, **kwargs)

        return start

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name; ``Mailbox.take`` spans are split
        by the role of the thread that blocked in them."""
        child_time: dict[int, float] = defaultdict(float)
        for span_id, _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _, thread, _ in self.spans:
            if name == "runtime.take":
                name = next((metric for prefix, metric in WAIT_ROLES
                             if thread.startswith(prefix)), "runtime.other_wait")
            totals[name] += (end - start) - child_time[span_id]
        return totals

    def inclusive_times(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for _, name, start, end, _, _, _ in self.spans:
            totals[name] += end - start
        return totals

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[1]] += 1
        return out

    def write(self, path: str) -> None:
        """Dump every span as one JSON object per line (gzip)."""
        keys = ("id", "name", "start", "end", "parent", "thread", "run")
        with gzip.open(path, "wt", compresslevel=1) as out:
            for span in sorted(self.spans):
                out.write(json.dumps(dict(zip(keys, span))))
                out.write("\n")


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the benchmark reports on.

    Application kernels are wrapped per bundle (:func:`wrap_app`), since
    each run carries its own app instance.
    """
    import repro.facade as facade
    from repro.core.reduction import ReductionObject
    from repro.core.scheduler import HeadScheduler
    from repro.core.sync import SyncCodec
    from repro.data.dataset import DatasetReader
    from repro.runtime.driver import CloudBurstingRuntime
    from repro.runtime.head import HeadNode
    from repro.runtime.master import MasterNode
    from repro.runtime.slave import SlaveWorker
    from repro.runtime.transport import Mailbox
    from repro.service import JobService
    from repro.sim.multisite import MultiSiteSimulation
    from repro.sim.simulation import CloudBurstSimulation
    from repro.storage.objectstore import ObjectStore

    def on_read_job(args, kwargs, result):
        job = args[1]
        tracer.count("data.read_jobs")
        from_site = kwargs.get("from_site")
        if from_site is not None and from_site != job.site:
            tracer.count("data.remote_reads")

    def on_storage_read(args, kwargs, result):
        tracer.count("storage.read_bytes", len(result))

    def on_submit(args, kwargs, handle):
        tracer.handles.append(handle)

    tracer.patch(facade, "build_dataset", "data.build_dataset")
    tracer.patch(DatasetReader, "read_job", "data.read_job", on_read_job)
    tracer.patch(ObjectStore, "read_view", "storage.read", on_storage_read)
    tracer.patch(ObjectStore, "read_range", "storage.read", on_storage_read)
    tracer.patch(ObjectStore, "put", "storage.put")
    tracer.patch(HeadScheduler, "request_jobs", "core.scheduler.request")
    for cls in _subclasses(ReductionObject):
        if "merge" in vars(cls):
            tracer.patch(cls, "merge", "core.reduction.merge")
        if "to_bytes" in vars(cls):
            tracer.patch(cls, "to_bytes", "core.reduction.serialize")
    tracer.patch(SyncCodec, "encode", "core.sync.encode")
    tracer.patch(SyncCodec, "decode", "core.sync.decode")
    tracer.patch(CloudBurstingRuntime, "run", "runtime.pass")
    tracer.patch(Mailbox, "take", "runtime.take")
    for node in (HeadNode, MasterNode, SlaveWorker):
        tracer.patch_call(node, "start", tracer.tag_thread_start)
    tracer.patch(JobService, "submit", "service.submit", on_submit)
    tracer.patch(CloudBurstSimulation, "run", "sim.run")
    tracer.patch(MultiSiteSimulation, "run", "sim.run")


def wrap_app(tracer: Tracer, app: Any) -> None:
    """Record the bundle's kernels on this app instance only."""

    def on_kernel(args, kwargs, result):
        tracer.count("apps.kernel_units", len(args[1]))

    for attr, name, hook in (("decode_chunk", "apps.decode", None),
                             ("local_reduction", "apps.kernel", on_kernel),
                             ("global_reduction", "apps.global", None)):
        setattr(app, attr, tracer.span(name, getattr(app, attr), hook))


def _subclasses(cls: type) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
