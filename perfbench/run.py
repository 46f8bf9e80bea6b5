#!/usr/bin/env python3
"""The repository benchmark.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload kmeans-iter --seed 1 --seconds 26 --trace 0

or every workload, each in its own process::

    python3 perfbench/run.py --workload all --seed 1 --seconds 26

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` measures the workload twice for half the time each, once
plain and once with span-recording wrappers around each layer's entry
points, and reports the per-layer metrics and the tracing overhead.

Standard output carries one line: a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full report
(host context, sample counts, failed checks) goes to standard error and
to ``.perfbench/`` in the checkout, next to the span dump of a traced run.
The exit code is 0 only when every operation succeeded and every result
matched its reference.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
#: Workloads and metrics as BENCHMARK.json declares them: each metric's
#: name, unit and direction, and each workload's one-line reason.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
#: The end-to-end metrics (printed with --trace 0) and the per-layer ones
#: (--trace 1). Per-layer times and counts are per operation (per run; per
#: simulation in paper-sim), except ``runtime.pass_s`` (per pass) and
#: ``sim.run_s`` (per simulation).
END_TO_END = {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=2011)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (linear interpolation between samples)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def host_context(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": seed,
    }


def cpu_ticks() -> list[int] | None:
    """The aggregate CPU line of /proc/stat (Linux), or None elsewhere."""
    try:
        with open("/proc/stat") as stat:
            return [int(x) for x in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_fraction(before: list[int] | None, after: list[int] | None) -> float | None:
    """Share of CPU time the hypervisor gave to other guests in between."""
    if before is None or after is None or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def end_to_end(m) -> tuple[dict, dict]:
    """Metric values and their sample counts from an untraced window."""
    ok = [op for op in m.ops if op.ok]
    if not ok:
        raise RuntimeError("no operation succeeded; nothing to measure")
    latencies = [op.latency for op in ok]
    runs, units = [], []
    for r, seconds in m.round_seconds.items():
        done = [op for op in ok if op.round == r]
        runs.append(len(done) / seconds)
        if done:
            units.append(sum(op.units for op in done) / sum(op.reduce_s for op in done))
    values = {
        "units_per_s": statistics.median(units),
        "runs_per_s": statistics.median(runs),
        "latency_p50_s": statistics.median(latencies),
        "latency_p95_s": quantile(latencies, 95),
        "setup_s": statistics.median(m.setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {name: len(ok) for name in values}
    samples["units_per_s"] = len(units)
    samples["runs_per_s"] = len(runs)
    samples["setup_s"] = len(m.setups)
    samples["peak_rss_mb"] = 1
    return values, samples


def per_layer(workload, plain, traced, tracer) -> tuple[dict, dict]:
    """Per-operation layer metrics from a traced window; ``plain`` is the
    untraced window run just before it, for the overhead ratio."""
    n = len(traced.ops)
    own = tracer.self_times()
    incl = tracer.inclusive_times()
    calls = tracer.calls()
    counts = tracer.counts
    program = traced.counts

    def ratio(num: float, den: float, empty: float = 0.0) -> float:
        return num / den if den else empty

    statuses = [h.status() for h in tracer.handles]
    queue_waits = [s.started_at - s.submitted_at for s in statuses if s.finished_at]
    execs = [s.finished_at - s.started_at for s in statuses if s.finished_at]
    events = program["sim_events"]
    sync_dense = program["sync_bytes_sent"] + program["sync_bytes_saved"]
    cache_lookups = program["cache_hits"] + program["cache_misses"]
    serial = workload.serial_units_per_s
    values = {
        "apps.decode_s": own["apps.decode"] / n,
        "apps.decode_calls": calls["apps.decode"] / n,
        "apps.kernel_s": own["apps.kernel"] / n,
        "apps.kernel_calls": calls["apps.kernel"] / n,
        "apps.kernel_units_per_s": ratio(counts["apps.kernel_units"], own["apps.kernel"]),
        "data.read_job_s": own["data.read_job"] / n,
        "data.read_jobs": counts["data.read_jobs"] / n,
        "data.remote_reads": counts["data.remote_reads"] / n,
        "data.bytes_copied": program["bytes_copied"] / n,
        "data.build_dataset_s": own["data.build_dataset"] / n,
        "storage.read_s": own["storage.read"] / n,
        "storage.reads": calls["storage.read"] / n,
        "storage.read_bytes": counts["storage.read_bytes"] / n,
        "storage.put_s": own["storage.put"] / n,
        "cache.hit_ratio": ratio(program["cache_hits"], cache_lookups),
        "cache.bytes_saved": program["bytes_saved"] / n,
        "core.scheduler.request_s": own["core.scheduler.request"] / n,
        "core.scheduler.requests": calls["core.scheduler.request"] / n,
        "core.scheduler.jobs_stolen": program["jobs_stolen"] / n,
        "core.reduction.merge_s": own["core.reduction.merge"] / n,
        "core.reduction.merges": calls["core.reduction.merge"] / n,
        "core.reduction.serialize_s": own["core.reduction.serialize"] / n,
        "core.sync.encode_s": own["core.sync.encode"] / n,
        "core.sync.decode_s": own["core.sync.decode"] / n,
        "core.sync.uploads": program["sync_uploads"] / n,
        "core.sync.wire_bytes": program["sync_bytes_sent"] / n,
        # Without a sync codec every upload travels dense.
        "core.sync.wire_ratio": ratio(program["sync_bytes_sent"], sync_dense, 1.0),
        "runtime.pass_s": ratio(incl["runtime.pass"], calls["runtime.pass"]),
        "runtime.slave_wait_s": own["runtime.slave_wait"] / n,
        "runtime.master_wait_s": own["runtime.master_wait"] / n,
        "runtime.head_wait_s": own["runtime.head_wait"] / n,
        "runtime.messages": calls["runtime.take"] / n,
        "runtime.jobs_reexecuted": program["jobs_reexecuted"] / n,
        "runtime.slaves_failed": program["slaves_failed"] / n,
        "service.submit_s": own["service.submit"] / n,
        "service.queue_wait_p50_s": statistics.median(queue_waits) if queue_waits else 0.0,
        "service.exec_p50_s": statistics.median(execs) if execs else 0.0,
        "sim.run_s": ratio(incl["sim.run"], calls["sim.run"]),
        "sim.events": events / n,
        "sim.events_per_s": ratio(events, incl["sim.run"]),
        "baselines.serial_units_per_s": serial if serial is not None else 0.0,
        "trace.overhead_ratio": (
            statistics.median(op.latency for op in traced.ops)
            / statistics.median(op.latency for op in plain.ops)),
    }
    samples = {name: n for name in values}
    samples["service.queue_wait_p50_s"] = samples["service.exec_p50_s"] = len(execs)
    samples["baselines.serial_units_per_s"] = 1 if serial is not None else 0
    return values, samples


def run_one(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    host = host_context(args.seed)
    load_before = os.getloadavg()
    workload = workloads.WORKLOADS[args.workload]()
    workload.prepare(args.seed)
    ticks_before = cpu_ticks()
    started = time.perf_counter()
    tracer = None
    if args.trace:
        plain = workload.window(args.seconds / 2, None)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            measured = workload.window(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        windows = (plain, measured)
    else:
        measured = workload.window(args.seconds, None)
        windows = (measured,)
    measured_s = time.perf_counter() - started
    steal = steal_fraction(ticks_before, cpu_ticks())
    final_checks = workload.finish()
    load_after = os.getloadavg()

    attempted = sum(len(w.ops) for w in windows)
    failed = sum(1 for w in windows for op in w.ops if not op.ok)
    failures = [f for w in windows for f in w.failures] + final_checks
    if final_checks:
        # The untimed checks (warm-up, default-seed makespans) are one
        # more operation, and it failed.
        attempted += 1
        failed += 1
    if args.trace:
        values, samples = per_layer(workload, plain, measured, tracer)
        declared = PER_LAYER
    else:
        values, samples = end_to_end(measured)
        declared = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, (unit, _) in declared.items()}
    correct = failed == 0 and not failures

    nproc = host["nproc"] or 1
    warnings = [f"load average {load:.2f} exceeds nproc={nproc}; figures from a "
                f"busy host are not comparable"
                for load in (load_before[0], load_after[0]) if load > nproc]
    if steal is not None and steal > 0.05:
        warnings.append(f"the hypervisor stole {steal:.0%} of CPU time during "
                        f"the measurement; figures are not comparable")
    report = {
        "workload": args.workload,
        "why": next(w["why"] for w in SPEC["workloads"] if w["name"] == args.workload),
        "loop": workload.loop,
        "clients": workload.clients,
        "inputs": workload.inputs,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "measured_s": measured_s,
        "host": {**host, "load_before": load_before, "load_after": load_after,
                 "steal_fraction": steal},
        "warnings": warnings,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": failures,
        "metrics": [
            {"name": name, "value": values[name], "unit": unit, "better": better,
             "workload": args.workload, "samples": samples[name]}
            for name, (unit, better) in declared.items()
        ],
        "ops": [[op.round, op.latency, op.units, op.reduce_s, op.ok]
                for op in measured.ops],
        "round_seconds": measured.round_seconds,
        "setups": measured.setups,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if tracer is not None:
        tracer.write(str(OUT_DIR / f"{stem}.spans.jsonl.gz"))
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(report), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, so peak memory is per workload."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.strip().splitlines()
        if child.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited with {child.returncode}",
                  file=sys.stderr)
            return 2
        results[name] = json.loads(lines[-1])
        status = max(status, child.returncode)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'repro'} is missing; run the benchmark "
              f"from a full checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
