"""The benchmark's four workloads.

Each workload builds its inputs from the seed in :meth:`prepare`, computes
what its results must equal (the serial oracle, or the recorded paper
makespans) outside any timed region, and then measures closed-loop
operations in :meth:`window` until the time is up. A window returns a
:class:`Measurement`; ``run.py`` turns it into metrics.

* ``kmeans-iter`` is kernel-bound: decode and ``local_reduction`` dominate
  and the reduction object is only k x d.
* ``pagerank-wan`` ships an 8 MiB reduction object through the
  tree/delta/zlib sync path every pass, so the sync codec dominates.
* ``service-burst`` runs tiny jobs through the job service, where
  per-job control traffic, dataset materialization and dispatch dominate.
* ``paper-sim`` runs the paper's whole simulated evaluation and none of
  the runtime.

All runtime work uses thread slaves; the process substrate is left out on
purpose so that no workload pins it in place.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import repro
from repro import (
    CacheOptions,
    ComputeSpec,
    DatasetSpec,
    JobService,
    MiddlewareTuning,
    PlacementSpec,
    RunConfig,
    SyncOptions,
    TenantSpec,
)
from repro.apps import make_bundle
from repro.bench.configs import figure3_configs, figure4_configs, paper_dataset
from repro.bench.experiments import PAPER_APPS, Figure3Run, Figure4Run
from repro.bench.validate import _fig3_claims, _fig4_claims
from repro.cluster.variability import EC2_VARIABILITY
from repro.facade import run_direct
from repro.sim.multisite import CrossPath, MultiSiteConfig, MultiSiteSimulation, SiteSpec
from repro.sim.storagemodel import StorePath
from repro.units import MB

import tracing

#: The seed whose paper-sim makespans ``expected_makespans.json`` records.
DEFAULT_SEED = 2011
EXPECTED_MAKESPANS = Path(__file__).with_name("expected_makespans.json")


@dataclass
class Op:
    """One measured operation: a run, or one simulation."""

    run_id: str
    round: int  # the stretch of the window it completed in
    latency: float  # submit (or call) to result, seconds
    units: int  # data units reduced, summed over passes
    reduce_s: float  # time spent reducing them (RunResult.wall_seconds)
    ok: bool


@dataclass
class Measurement:
    """What one window measured.

    The window is cut into rounds (one run, one evaluation, or a fixed
    stretch of a concurrent loop) so that throughput can be reported as a
    median over rounds, which a burst of interference on the host moves
    less than a mean.
    """

    ops: list[Op] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    round_seconds: dict[int, float] = field(default_factory=dict)
    elapsed: float = 0.0
    failures: list[str] = field(default_factory=list)
    #: Layer counters the program reports itself (RunTelemetry, SimReport),
    #: summed over operations.
    counts: Counter = field(default_factory=Counter)

    def record_failure(self, run_id: str, message: str) -> None:
        self.failures.append(f"{run_id}: {message}")


def dataset(units: int, record_bytes: int, files: int, chunks_per_file: int) -> DatasetSpec:
    per_chunk = units // (files * chunks_per_file)
    return DatasetSpec(
        total_bytes=units * record_bytes,
        num_files=files,
        chunk_bytes=per_chunk * record_bytes,
        record_bytes=record_bytes,
    )


def telemetry_counts(result: Any) -> Counter:
    t = result.telemetry
    return Counter(
        cache_hits=t.cache_hits,
        cache_misses=t.cache_misses,
        bytes_saved=t.bytes_saved,
        sync_uploads=t.sync_uploads,
        sync_bytes_sent=t.sync_bytes_sent,
        sync_bytes_saved=t.sync_bytes_saved,
        jobs_reexecuted=t.jobs_reexecuted,
        slaves_failed=t.slaves_failed,
        bytes_copied=t.bytes_copied,
        jobs_stolen=t.total_stolen,
    )


class RunLoop:
    """One closed-loop caller: ``repro.run`` on fresh inputs, one at a time.

    Setup per run is bundle generation plus everything ``repro.run`` does
    before its first pass (the call's wall time minus
    ``RunResult.wall_seconds``). Every result is compared with the serial
    oracle on the same seed.
    """

    loop = "closed"
    clients = 1

    def __init__(self, name: str, app: str, units: int, files: int,
                 chunks_per_file: int, passes: int, params: dict,
                 config: dict, rtol: float, atol: float) -> None:
        self.name = name
        self.app = app
        self.units = units
        self.files = files
        self.chunks_per_file = chunks_per_file
        self.passes = passes
        self.params = params
        self.config_kwargs = config
        self.rtol = rtol
        self.atol = atol
        self.inputs = {
            "app": app, "units": units, "files": files,
            "chunks": files * chunks_per_file, "passes": passes,
            "app_params": params, "placement_local": 0.5,
            "slaves": "2 local + 2 cloud (thread)",
            "options": {k: repr(v) for k, v in config.items()},
        }

    def _bundle(self):
        return make_bundle(self.app, self.units, seed=self.seed, **self.params)

    def prepare(self, seed: int) -> None:
        self.seed = seed
        bundle = self._bundle()
        self.dataset = dataset(self.units, bundle.schema.record_bytes,
                               self.files, self.chunks_per_file)
        self.config = RunConfig(seed=seed, iterations=self.passes,
                                compute=ComputeSpec(2, 2),
                                placement=PlacementSpec(0.5),
                                **self.config_kwargs)
        oracle = repro.run(bundle, self.dataset, RunConfig(
            mode="serial", seed=seed, iterations=self.passes))
        self.expected = np.asarray(oracle.value)
        self.serial_units_per_s = self.units * self.passes / oracle.wall_seconds
        # One untimed run first, so the window's first run does not pay
        # for first-touch allocation; its result is checked all the same.
        self.warmup = self.window(0.0, None)

    def check(self, result: Any) -> str | None:
        if result.passes != self.passes:
            return f"ran {result.passes} passes, expected {self.passes}"
        value = np.asarray(result.value)
        if value.shape != self.expected.shape:
            return f"result shape {value.shape} != oracle {self.expected.shape}"
        if not np.allclose(value, self.expected, rtol=self.rtol, atol=self.atol):
            worst = float(np.max(np.abs(value - self.expected)))
            return f"result differs from the serial oracle by up to {worst:g}"
        return None

    def window(self, seconds: float, tracer: tracing.Tracer | None) -> Measurement:
        out = Measurement()
        for i in itertools.count():
            if i > 0 and nearest_end(out, seconds):
                break
            run_id = f"{self.name}-{'t' if tracer else 'u'}{i}"
            if tracer is not None:
                tracer.set_run(run_id)
                tracer.fallback_run = run_id
            started = time.perf_counter()
            bundle = self._bundle()
            if tracer is not None:
                tracing.wrap_app(tracer, bundle.app)
            called = time.perf_counter()
            try:
                result = repro.run(bundle, self.dataset, self.config)
            except Exception as exc:  # noqa: BLE001 - a failed operation, counted
                done = time.perf_counter()
                out.elapsed += done - started
                out.round_seconds[i] = done - started
                out.ops.append(Op(run_id, i, done - called, 0, 0.0, False))
                out.record_failure(run_id, f"{type(exc).__name__}: {exc}")
                continue
            done = time.perf_counter()
            out.elapsed += done - started
            out.round_seconds[i] = done - started
            problem = self.check(result)
            if problem is not None:
                out.record_failure(run_id, problem)
            out.ops.append(Op(run_id, i, done - called, self.units * result.passes,
                              result.wall_seconds, problem is None))
            out.setups.append((called - started) + (done - called - result.wall_seconds))
            out.counts.update(telemetry_counts(result))
        return out

    def finish(self) -> list[str]:
        return [f"warm-up {f}" for f in self.warmup.failures]


def nearest_end(out: Measurement, seconds: float) -> bool:
    """Whether a closed loop should stop: the window ends at whichever
    round boundary lies nearest to ``seconds``, so that a run measures
    about as long as it was asked to whatever the length of a round."""
    typical = statistics.median(out.round_seconds.values())
    return out.elapsed + typical / 2 >= seconds


class ServiceBurst:
    """Tiny runs through one ``JobService(workers=2)``, two clients each
    keeping one run in flight, three tenants weighted 1:2:1."""

    name = "service-burst"
    loop = "closed"
    clients = 2
    apps = ("wordcount", "histogram", "knn")
    tenants = (("tenant-a", 1.0), ("tenant-b", 2.0), ("tenant-c", 1.0))
    #: Submission order over tenants, in proportion to their weights.
    tenant_cycle = ("tenant-a", "tenant-b", "tenant-b", "tenant-c")
    units = 16_384
    files = 4
    chunks_per_file = 32
    #: Throughput is the median over stretches of this many seconds.
    round_seconds = 2.0
    warmup_seconds = 1.0
    inputs = {
        "apps": list(apps), "units": units, "files": files,
        "chunks": files * chunks_per_file, "placement_local": "1/6",
        "slaves": "1 local + 1 cloud (thread)", "retrieval_threads": 1,
        "service_workers": 2, "tenant_weights": [w for _, w in tenants],
    }

    def prepare(self, seed: int) -> None:
        self.seed = seed
        self.datasets = {}
        self.expected = {}
        serial_s = 0.0
        for app in self.apps:
            bundle = make_bundle(app, self.units, seed=seed)
            self.datasets[app] = dataset(self.units, bundle.schema.record_bytes,
                                         self.files, self.chunks_per_file)
            oracle = repro.run(bundle, self.datasets[app],
                               RunConfig(mode="serial", seed=seed))
            self.expected[app] = oracle.value
            serial_s += oracle.wall_seconds
        self.serial_units_per_s = self.units * len(self.apps) / serial_s
        # A short untimed stretch first, so that the window starts warm;
        # its results are checked all the same.
        self.warmup = self.window(self.warmup_seconds, None)

    def _config(self, run_id: str) -> RunConfig:
        # The run id travels as the config name so a traced executor can
        # tag the service worker thread that executes the run.
        return RunConfig(
            seed=self.seed, name=run_id,
            placement=PlacementSpec(1 / 6),
            compute=ComputeSpec(local_cores=1, cloud_cores=1),
            tuning=MiddlewareTuning(retrieval_threads=1),
        )

    def window(self, seconds: float, tracer: tracing.Tracer | None) -> Measurement:
        out = Measurement()
        lock = threading.Lock()
        numbers = itertools.count()
        bundles = {app: make_bundle(app, self.units, seed=self.seed)
                   for app in self.apps}
        executor = run_direct
        if tracer is not None:
            for bundle in bundles.values():
                tracing.wrap_app(tracer, bundle.app)

            def executor(app, data, config):
                tracer.set_run(config.name)
                return run_direct(app, data, config)

        def client(service: JobService, deadline: float) -> None:
            while time.perf_counter() < deadline:
                with lock:
                    i = next(numbers)
                app = self.apps[i % len(self.apps)]
                run_id = f"{self.name}-{'t' if tracer else 'u'}{i}"
                if tracer is not None:
                    tracer.set_run(run_id)
                config = self._config(run_id)
                started = time.perf_counter()
                try:
                    handle = service.submit(
                        bundles[app], self.datasets[app], config,
                        tenant=self.tenant_cycle[i % len(self.tenant_cycle)])
                    result = handle.result()
                except Exception as exc:  # noqa: BLE001 - a failed operation, counted
                    done = time.perf_counter()
                    with lock:
                        out.ops.append(Op(run_id, window_of(done), done - started,
                                          0, 0.0, False))
                        out.record_failure(run_id, f"{type(exc).__name__}: {exc}")
                    continue
                done = time.perf_counter()
                latency = done - started
                status = handle.status()
                ok = _same(result.value, self.expected[app])
                with lock:
                    if not ok:
                        out.record_failure(run_id, f"{app} result differs from the serial oracle")
                    out.ops.append(Op(run_id, window_of(done), latency, self.units,
                                      result.wall_seconds, ok))
                    out.setups.append(status.finished_at - status.started_at
                                      - result.wall_seconds)
                    out.counts.update(telemetry_counts(result))

        rounds = max(1, int(seconds // self.round_seconds))
        stretch = seconds / rounds

        def window_of(done: float) -> int:
            return min(int((done - begun) / stretch), rounds - 1)

        with JobService(workers=2, executor=executor, name=self.name) as service:
            for tenant, weight in self.tenants:
                service.register(TenantSpec(tenant, weight=weight))
            begun = time.perf_counter()
            deadline = begun + seconds
            threads = [threading.Thread(target=client, args=(service, deadline),
                                        name=f"bench-client:{c}")
                       for c in range(self.clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=seconds + 120)
                if thread.is_alive():
                    raise RuntimeError(f"{thread.name} did not finish")
            out.elapsed = time.perf_counter() - begun
        out.round_seconds = {r: stretch for r in range(rounds)}
        # Runs still in flight at the deadline finish in the last round.
        out.round_seconds[rounds - 1] += out.elapsed - seconds
        return out

    def finish(self) -> list[str]:
        return [f"warm-up {f}" for f in self.warmup.failures]


def _same(value: Any, expected: Any) -> bool:
    """Exact equality for dict, list and integer-array results."""
    if isinstance(expected, np.ndarray):
        return isinstance(value, np.ndarray) and np.array_equal(value, expected)
    return value == expected


def simulate(app: str, data: DatasetSpec, config: RunConfig) -> Any:
    """One paper simulation through the facade; returns its ``SimReport``."""
    return repro.run(app, data, config).sim_report


def two_providers_config(seed: int) -> MultiSiteConfig:
    """The three-site layout of ``examples/two_providers.py``."""
    campus_disk = StorePath(name="campus-disk", bandwidth=600 * MB,
                            per_connection_cap=18 * MB, request_latency=0.0005,
                            seek_time=0.008, random_penalty=1.6)
    provider_a = StorePath(name="providerA", bandwidth=700 * MB,
                           per_connection_cap=5 * MB, request_latency=0.045)
    provider_b = StorePath(name="providerB", bandwidth=500 * MB,
                           per_connection_cap=4 * MB, request_latency=0.055)
    wan = StorePath(name="wan", bandwidth=120 * MB, per_connection_cap=3 * MB,
                    request_latency=0.065, file_service_cap=64 * MB)
    sites = (
        SiteSpec(name="campus", cores=16, data_files=10, storage=campus_disk),
        SiteSpec(name="provider-a", cores=12, data_files=12, storage=provider_a,
                 compute_slowdown=1.1, variability=EC2_VARIABILITY,
                 intra_bandwidth=400 * MB),
        SiteSpec(name="provider-b", cores=12, data_files=10, storage=provider_b,
                 compute_slowdown=1.25, variability=EC2_VARIABILITY,
                 intra_bandwidth=300 * MB),
    )
    names = [s.name for s in sites]
    return MultiSiteConfig(
        name="two-providers", app="pagerank", dataset=paper_dataset("pagerank"),
        sites=sites,
        cross_paths=tuple(CrossPath(src=a, dst=b, path=wan)
                          for a in names for b in names if a != b),
        head_site="campus", seed=seed,
    )


class PaperSim:
    """The paper's evaluation in ``mode="simulate"``: Figure 3 and Figure 4
    for knn, kmeans and pagerank (27 simulations) plus the three-site
    simulation, repeated whole until the time is up."""

    name = "paper-sim"
    loop = "closed"
    clients = 1
    simulations_per_evaluation = 28
    inputs = {"apps": list(PAPER_APPS), "figures": [3, 4], "scale": 1.0,
              "simulations_per_evaluation": simulations_per_evaluation,
              "multisite": "examples/two_providers.py layout"}

    def prepare(self, seed: int) -> None:
        """One untimed evaluation at the default seed, whose makespans must
        match the recorded ones; it also warms the simulator up before
        the window."""
        self.seed = seed
        self.serial_units_per_s = None
        check = Measurement()
        makespans = self.evaluate(DEFAULT_SEED, check, 0, None)
        recorded = json.loads(EXPECTED_MAKESPANS.read_text())["makespans"]
        self.problems = list(check.failures)
        for key in sorted(set(recorded) | set(makespans)):
            want, got = recorded.get(key), makespans.get(key)
            if want is None or got is None or not np.isclose(got, want, rtol=1e-9, atol=0.0):
                self.problems.append(
                    f"makespan {key} at seed {DEFAULT_SEED}: got {got}, recorded {want}")

    @staticmethod
    def simulations(seed: int) -> list[tuple[str, int, Callable[[], Any]]]:
        """Every simulation of one evaluation as ``(key, units, simulate)``;
        ``simulate()`` runs it and returns its report."""
        out = []
        for app in PAPER_APPS:
            for figure, configs in (("fig3", figure3_configs(app, seed=seed)),
                                    ("fig4", figure4_configs(app, seed=seed))):
                for label, experiment in configs.items():
                    config = RunConfig(mode="simulate", name=label, seed=seed,
                                       placement=experiment.placement,
                                       compute=experiment.compute,
                                       tuning=experiment.tuning)
                    out.append((f"{app}/{figure}/{label}", experiment.dataset.total_units,
                                functools.partial(simulate, app, experiment.dataset, config)))
        multisite = two_providers_config(seed)
        out.append(("two-providers", multisite.dataset.total_units,
                    MultiSiteSimulation(multisite).run))
        return out

    def evaluate(self, seed: int, out: Measurement, evaluation: int,
                 tracer: tracing.Tracer | None) -> dict[str, float]:
        """Simulate one whole evaluation; returns makespans by key.

        Each simulation runs from freshly built inputs, as a user running
        one experiment would build it; a build takes about a millisecond.
        An evaluation's set-up is the sum of its builds: the host's speed
        for interpreted code switches between two levels every few
        seconds, and a single build would land on one of them. The round
        lasts as long as its simulations, set-up excluded.
        """
        reports = {}
        setup = 0.0
        out.round_seconds[evaluation] = 0.0
        for i in range(self.simulations_per_evaluation):
            began = time.perf_counter()
            key, units, run = self.simulations(seed)[i]
            setup += time.perf_counter() - began
            run_id = f"{self.name}-{'t' if tracer else 'u'}{evaluation}-{key}"
            if tracer is not None:
                tracer.set_run(run_id)
            began = time.perf_counter()
            reports[key] = run()
            took = time.perf_counter() - began
            out.round_seconds[evaluation] += took
            out.ops.append(Op(run_id, evaluation, took, units, took, True))
        out.setups.append(setup)
        out.elapsed += out.round_seconds[evaluation]
        for report in reports.values():
            out.counts["jobs_stolen"] += sum(
                c.jobs_stolen for c in report.clusters.values())
            out.counts["sim_events"] += report.events_processed
        failed = [c for c in self.claims(reports) if not c.passed]
        for claim in failed:
            out.record_failure(f"{self.name}-{evaluation}",
                               f"claim {claim.claim_id} fails: {claim.measured}")
        if failed:
            for op in out.ops:
                if op.round == evaluation:
                    op.ok = False
        return {key: report.makespan for key, report in reports.items()}

    @staticmethod
    def claims(reports: dict) -> list:
        fig3 = {app: Figure3Run(app=app) for app in PAPER_APPS}
        fig4 = {app: Figure4Run(app=app) for app in PAPER_APPS}
        for key, report in reports.items():
            if key == "two-providers":
                continue
            app, figure, label = key.split("/", 2)
            runs = fig3 if figure == "fig3" else fig4
            runs[app].reports[label] = report
        return _fig3_claims(fig3) + _fig4_claims(fig4)

    def window(self, seconds: float, tracer: tracing.Tracer | None) -> Measurement:
        out = Measurement()
        for evaluation in itertools.count():
            if evaluation > 0 and nearest_end(out, seconds):
                break
            self.evaluate(self.seed, out, evaluation, tracer)
        return out

    def finish(self) -> list[str]:
        return self.problems


WORKLOADS = {
    "kmeans-iter": lambda: RunLoop(
        "kmeans-iter",
        app="kmeans", units=2 ** 21, files=8, chunks_per_file=32, passes=8,
        params={"k": 8, "dims": 4}, config={"cache": CacheOptions(bytes=64 * 2 ** 20)},
        # float32 centroids; merge order may move the float64 sums by an ulp
        rtol=1e-5, atol=1e-6,
    ),
    "pagerank-wan": lambda: RunLoop(
        "pagerank-wan",
        app="pagerank", units=2 ** 20, files=8, chunks_per_file=8, passes=5,
        params={"n_pages": 2 ** 20},
        config={"sync": SyncOptions(topology="tree", encoding="delta", compress="zlib")},
        # float64 ranks; merge order moves them by ~1e-12 relative
        rtol=1e-9, atol=0.0,
    ),
    "service-burst": ServiceBurst,
    "paper-sim": PaperSim,
}
