#!/usr/bin/env python3
"""The repository's benchmark: one workload per invocation.

    python3 perfbench/run.py --workload compile_cold --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root.  Prints one line per metric
(``metric <name> <value> <unit>``), one per correctness check, the
environment stamp, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  ``--smoke`` shrinks every size for a quick check.
Results and traced spans are also written under ``perfbench/out/``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

#: what a user's process imports before its first request
IMPORTS = "import numpy, repro, repro.core, repro.runtime, repro.service"
IMPORT_REPEATS = 3

#: largest share of the traced request total the per-layer self times
#: may miss or double-count
ACCOUNTING_TOLERANCE = 0.02


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and one set-up, for quick checks")
    return parser.parse_args(argv)


def timed_loop(workload, clock, seed, seconds, record, setups):
    """Set up, then run units for ``seconds``.

    The other ``setups - 1`` set-ups (measured, then torn down) and the
    workload's sampled checks run between units, so their timings are
    spread over the run like the units' rather than taken in one moment
    of a drifting host.
    """
    def extra_setup():
        extra, secs = clock.measure(workload.setup, clock, seed, record)
        record.setup.append(secs)
        workload.teardown(extra)

    state, secs = clock.measure(workload.setup, clock, seed, record)
    record.setup.append(secs)
    start = time.perf_counter()
    done = 0
    while (done < workload.min_units
           or time.perf_counter() - start < seconds
           or not workload.enough(record)):
        workload.unit(clock, state, record)
        done += 1
        if len(record.setup) < setups:
            extra_setup()
        progress = (time.perf_counter() - start) / seconds if seconds else 1
        workload.sample(clock, state, record, min(1.0, progress))
    while len(record.setup) < setups:
        extra_setup()
    return state


def import_seconds() -> float:
    """Median time a fresh interpreter takes to import the program."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    times = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORTS], env=env, check=True,
                       timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def end_to_end(record, import_s, suite):
    """The end-to-end metrics of one untraced run."""
    def case_sum(samples):
        return sum(statistics.median(v) for v in samples.values())

    return {
        "setup_s": import_s + statistics.median(record.setup),
        "compile_s": case_sum(record.compile),
        "code_bytes": record.exact["code_bytes"],
        "simulate_s": case_sum(record.simulate),
        "checked_run_s": case_sum(record.checked),
        "model_makespan": record.exact["model_makespan"],
        "messages": record.exact["messages"],
        "words": record.exact["words"],
        "request_p50_ms": suite.percentile(record.requests, 0.5) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced(workload, seed, seconds, suite, tracer_mod, stats):
    """Per-layer metrics from a traced run, and its overhead.

    An untraced timed loop comes first; then a fresh set-up, one unit
    and the checks run traced (a fixed amount of work, so the per-layer
    counts repeat exactly).  Returns (per-layer metrics, record, tracer).
    """
    untraced = suite.Record()
    state = timed_loop(workload, suite.Clock(), seed, seconds, untraced, 1)
    workload.teardown(state)

    tracer = tracer_mod.Tracer()
    layers = LayerCounts(tracer)
    record = suite.Record()
    clock = suite.Clock(tracer)
    before = stats.STATS.snapshot()
    peak = stats.STATS.peak_system_size
    stats.STATS.peak_system_size = 0
    state = None
    tracer.install()
    try:
        state, _secs = clock.measure(workload.setup, clock, seed, record)
        workload.unit(clock, state, record)
        workload.checks(clock, state, record)
    finally:
        tracer.uninstall()
        if state is not None:
            workload.teardown(state)
        delta = stats.delta_since(before)
        delta["peak_system_size"] = stats.STATS.peak_system_size
        stats.STATS.peak_system_size = max(
            peak, stats.STATS.peak_system_size
        )

    metrics = layers.metrics(delta)
    selfs = tracer.self_times()
    for layer in {layer for layer, _m, _a in tracer_mod.ENTRY_POINTS}:
        metrics[tracer_mod.self_metric(layer)] = selfs.get(layer, 0.0)
    metrics["bench.self_s"] = selfs.get(tracer_mod.ROOT, 0.0)
    total = sum(tracer.request_totals.values())
    error = abs(sum(selfs.values()) - total) / total
    record.check(
        f"per-layer self times account for the traced total "
        f"within {ACCOUNTING_TOLERANCE:.0%}",
        error <= ACCOUNTING_TOLERANCE,
    )
    metrics["trace.request_total_s"] = total
    metrics["trace.accounting_error_frac"] = error
    metrics["trace.unattributed_frac"] = metrics["bench.self_s"] / total
    metrics["trace.overhead_frac"] = (
        record.units[0] / statistics.median(untraced.units) - 1.0
    )
    metrics["trace.spans"] = len(tracer.spans)
    record.attempted += untraced.attempted
    record.failed += untraced.failed
    record.errors += untraced.errors
    for name, ok in untraced.checks.items():
        record.check(name, ok)
    return metrics, record, tracer


class LayerCounts:
    """Counts taken at the traced layer boundaries."""

    def __init__(self, tracer):
        self.lwt_leaves = 0
        self.disk_gets = self.disk_hits = self.disk_bytes = 0
        self.runs = []
        tracer.observers.update({
            "dataflow.lwt": self._lwt,
            "polyhedra.diskcache_get": self._get,
            "polyhedra.diskcache_put": self._put,
            "runtime.machine": lambda result, _args: self.runs.append(
                result),
        })

    def _lwt(self, tree, _args):
        self.lwt_leaves += len(tree.leaves)

    def _get(self, blob, _args):
        self.disk_gets += 1
        self.disk_hits += blob is not None

    def _put(self, _none, args):
        self.disk_bytes += len(args[3])  # (cache, kind, key, payload)

    def metrics(self, delta):
        def ratio(num, den):
            return num / den if den else 0.0

        def total(attr):
            return sum(run.stat_sum(attr) for run in self.runs)

        sent = total("messages_sent")
        retrans = total("retransmissions")
        return {
            "dataflow.lwt_leaves": self.lwt_leaves,
            "polyhedra.eliminations": delta["eliminations"],
            "polyhedra.pairs_materialized": delta["pairs_materialized"],
            "polyhedra.pairs_filtered": delta["pairs_filtered"],
            "polyhedra.peak_system_size": delta["peak_system_size"],
            "polyhedra.simplify_calls": delta["simplify_calls"],
            "polyhedra.projection_hit_ratio": ratio(
                delta["projection_cache_hits"],
                delta["projection_cache_hits"]
                + delta["projection_cache_misses"]),
            "polyhedra.feasibility_hit_ratio": ratio(
                delta["feasibility_cache_hits"],
                delta["feasibility_cache_hits"]
                + delta["feasibility_cache_misses"]),
            "core.commsets_built": delta["commsets_built"],
            "core.commsets_pruned_ratio": ratio(
                delta["commsets_empty_pruned"], delta["commsets_built"]),
            "codegen.loops_emitted": delta["codegen_loops_emitted"],
            "codegen.guards_emitted": delta["codegen_guards_emitted"],
            "polyhedra.diskcache_hit_ratio": ratio(
                self.disk_hits, self.disk_gets),
            "polyhedra.diskcache_bytes_written": self.disk_bytes,
            "core.result_hit_ratio": ratio(
                delta["result_cache_hits"],
                delta["result_cache_hits"] + delta["result_cache_misses"]),
            "runtime.sim_events": sum(r.sim_events for r in self.runs),
            "runtime.sched_wakeups": sum(
                r.sched_wakeups or 0 for r in self.runs),
            "runtime.model_compute": total("compute_time"),
            "runtime.model_send": total("send_time"),
            "runtime.model_recv": total("recv_time"),
            "runtime.model_stall": total("stall_time"),
            "runtime.model_fence": total("fence_time"),
            "runtime.model_recovery": total("recovery_time"),
            "runtime.model_checkpoint": total("checkpoint_time"),
            "runtime.retransmissions": retrans,
            "runtime.duplicates_dropped": total("duplicates_dropped"),
            "runtime.corrupt_dropped": total("corrupt_dropped"),
            "runtime.first_try_ratio": ratio(sent, sent + retrans),
            "runtime.checkpoints": sum(r.checkpoints for r in self.runs),
            "runtime.restarts": sum(r.restarts for r in self.runs),
            "runtime.work_wasted": sum(r.work_wasted for r in self.runs),
            "runtime.log_bytes_peak": max(
                (r.log_bytes_peak for r in self.runs), default=0),
        }


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks")]
    try:
        import stamp
        import suite
        import tracer as tracer_mod
        from repro.polyhedra import stats
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in suite.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(suite.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workload = suite.WORKLOADS[args.workload](smoke=args.smoke, workdir=OUT)
    env = stamp.environment(ROOT, args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        metrics, record, tracer = traced(
            workload, args.seed, args.seconds, suite, tracer_mod, stats
        )
        tracer.write(os.path.join(OUT, f"spans-{tag}.jsonl.gz"), env)
        declared = spec["per_layer"]
    else:
        import_s = import_seconds()
        record = suite.Record()
        clock = suite.Clock(rescale=True)
        state = timed_loop(workload, clock, args.seed, args.seconds,
                           record, 1 if args.smoke else workload.setups)
        try:
            workload.checks(clock, state, record)
        finally:
            workload.teardown(state)
        # the imports ran before the first host-speed sample
        metrics = end_to_end(record, import_s * clock.factor(), suite)
        record.extra["host.factor"] = (clock.factor(), "ratio")
        record.extra["host.reference_ms"] = (
            statistics.median(clock.host.samples) * 1e3, "ms")
        declared = spec["end_to_end"]

    names = {m["name"] for m in declared}
    if set(metrics) != names:
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ names)}"
                         " differ from BENCHMARK.json")
    units = {m["name"]: m["unit"] for m in declared}
    record.extra["failed_frac"] = (record.failed / record.attempted, "ratio")
    print("env " + json.dumps(env, sort_keys=True))
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"workload {workload.name}: {why.get(workload.name, '')}")
    for name in sorted(metrics):
        print(f"metric {name} {metrics[name]!r} {units[name]}")
    for name, (value, unit) in sorted(record.extra.items()):
        print(f"metric {name} {value!r} {unit}")
    for name, ok in sorted(record.checks.items()):
        print(f"check {'ok' if ok else 'FAILED'} {name}")
    for error in record.errors:
        print(f"error {error}")
    correct = all(record.checks.values()) and record.failed == 0
    result = {
        "correct": correct,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump({"env": env, "checks": record.checks,
                   "extra": record.extra, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
