"""The benchmark's own tests.

Run from the repository root with ``python3 -m pytest -q perfbench/tests``
(the tier-1 suite does not collect them).  Every workload runs at smoke
size in a child process, as the benchmark is run for real.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "benchmarks"), os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: per-layer metrics derived from wall time; every other one is exact
TIMED = {"trace.overhead_frac", "trace.accounting_error_frac",
         "trace.unattributed_frac"}
EXACT_END_TO_END = ("code_bytes", "model_makespan", "messages", "words")


def smoke(workload, trace, seed=3):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "0", "--trace",
         str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs():
    """Two smoke invocations per workload and mode, same seed."""
    return {
        (w, trace): [smoke(w, trace), smoke(w, trace)]
        for w in WORKLOADS for trace in (0, 1)
    }


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(runs, workload, trace):
    lines, result = runs[(workload, trace)][0]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"], [l for l in lines if "FAILED" in l]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    printed = {
        line.split()[1]: line.split()[3]
        for line in lines if line.startswith("metric ")
    }
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert printed[name] == unit
    assert set(result["metrics"]) == {m["name"] for m in declared}
    assert any(line.startswith("env ") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_metrics_repeat_across_invocations(runs, workload):
    (_l1, first), (_l2, second) = runs[(workload, 0)]
    for name in EXACT_END_TO_END:
        assert first["metrics"][name] == second["metrics"][name], name
    (_l1, first), (_l2, second) = runs[(workload, 1)]
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        if metric["unit"] == "s" or name in TIMED:
            continue
        assert first["metrics"][name] == second["metrics"][name], name


def test_end_to_end_metrics_are_never_zero(runs):
    for workload in WORKLOADS:
        for _lines, result in runs[(workload, 0)]:
            for name, metric in result["metrics"].items():
                assert metric["value"] > 0, (workload, name)


def _bindings(tracer_mod):
    """Every name an entry point is bound under, and its current value."""
    out = {}
    for _layer, module_name, attr in tracer_mod.ENTRY_POINTS:
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            out[(cls, meth)] = cls.__dict__[meth]
            continue
        fn = getattr(module, attr)
        for mod in list(sys.modules.values()):
            for name, value in list(getattr(mod, "__dict__", {}).items()):
                if value is fn:
                    out[(mod, name)] = value
    return out


@pytest.mark.parametrize("workload", ["compile_cold", "run_faults"])
def test_untraced_run_after_traced_run_is_unaffected(workload):
    import run
    import suite
    import tracer as tracer_mod
    from repro.polyhedra import stats

    def untraced():
        wl = suite.WORKLOADS[workload](smoke=True, workdir=BENCH + "/out")
        record = suite.Record()
        state = run.timed_loop(wl, suite.Clock(), 5, 0, record, 1)
        wl.checks(suite.Clock(), state, record)
        wl.teardown(state)
        return record

    before = untraced()
    bindings = _bindings(tracer_mod)
    wl = suite.WORKLOADS[workload](smoke=True, workdir=BENCH + "/out")
    _metrics, traced_record, tracer = run.traced(
        wl, 5, 0, suite, tracer_mod, stats
    )
    assert traced_record.checks and all(traced_record.checks.values())
    spans = len(tracer.spans)
    assert spans > 0
    after = untraced()
    assert len(tracer.spans) == spans  # nothing traced any more
    assert _bindings(tracer_mod) == bindings
    for name, mod in list(sys.modules.items()):
        if name.startswith("repro") or name in ("workloads", "suite"):
            for value in vars(mod).values():
                assert not hasattr(value, "__wrapped_layer__"), name
    assert after.exact == before.exact
    assert after.case_exact == before.case_exact
    assert all(after.checks.values()) and after.failed == 0
