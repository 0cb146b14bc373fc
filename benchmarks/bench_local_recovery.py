"""Crash recovery: wasted work and recovery time as the machine grows.

Recovery (sender-based message logging) restarts only the crashed rank
while live ranks keep executing, so the work one crash discards is
~O(1 rank) regardless of machine size.  This bench injects one
mid-run crash into fig2 (P up to 256) and LU (P up to 64) on the
discrete-event scheduler and measures:

* ``work_wasted`` -- recomputed processor-time discarded by recovery;
* ``wasted_fraction`` -- that work over the clean run's total
  processor-time (the figure of merit: it shrinks as P grows);
* ``recovery_time`` -- restart latency charged to the clock;
* ``log_bytes_peak`` -- the sender-log memory recovery pays for (after
  checkpoint-commit truncation).

Every cell must stay **bit-identical** to the fault-free oracle.
Results merge into the ``local_recovery`` section of
``BENCH_resilience.json`` (read-modify-write; other benches own the
other sections).  The CI guard: on every row, ``wasted_fraction <=
1/P`` -- recovery discards at most about one rank's share of the work.
"""

import json
import os

import numpy as np

from repro.runtime import CheckpointPolicy, FaultPlan, run_spmd
from workloads import IPSC, block_for, fig2_compiled, lu_compiled

BENCH_JSON = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_resilience.json"
)

#: (workload, builder kwargs, params) per machine size.  fig2 scales
#: its block size with P; LU distributes rows i2 onto P ranks (N >= P,
#: so P=256 would need N>=256 -- O(N^3) sequential oracle work -- and
#: is measured on fig2 only).
CASES = [
    ("fig2", 16, {"N": 256, "T": 2, "P": 16}),
    ("fig2", 64, {"N": 1024, "T": 2, "P": 64}),
    ("fig2", 256, {"N": 4096, "T": 2, "P": 256}),
    ("lu", 16, {"N": 32, "P": 16}),
    ("lu", 64, {"N": 64, "P": 64}),
]

#: rank killed halfway through the clean makespan, in every case
CRASH_RANK = 1
CRASH_FRACTION = 0.5
POLICY = CheckpointPolicy(every_ops=50)


def _build(workload, params):
    if workload == "fig2":
        _p, _c, spmd = fig2_compiled(n=params["N"], p=params["P"])
        return spmd
    _p, _c, spmd = lu_compiled()
    return spmd


def _identical(a, b) -> bool:
    return all(
        np.array_equal(a.arrays[myp][n], b.arrays[myp][n], equal_nan=True)
        for myp in a.arrays
        for n in a.arrays[myp]
    )


def sweep():
    rows = []
    for workload, p, params in CASES:
        spmd = _build(workload, params)
        clean = run_spmd(spmd, params, cost=IPSC)
        total_work = sum(clean.clocks.values())
        # halfway through the *victim's* execution (pipelined ranks can
        # finish well before the machine-wide makespan)
        plan = FaultPlan(
            crashes={
                CRASH_RANK: clean.clocks[(CRASH_RANK,)] * CRASH_FRACTION
            }
        )
        result = run_spmd(
            spmd, params, cost=IPSC,
            fault_plan=plan, checkpoint=POLICY, max_restarts=8,
        )
        assert _identical(clean, result), (
            f"{workload} P={p}: wrong values after recovery"
        )
        assert result.restarts == 1
        rows.append(
            {
                "workload": workload,
                "P": p,
                "clean_makespan": clean.makespan,
                "makespan": result.makespan,
                "slowdown": result.makespan / clean.makespan,
                "restarts": result.restarts,
                "recovery_time": result.recovery_time,
                "work_wasted": result.work_wasted,
                "wasted_fraction": result.work_wasted / total_work,
                "log_bytes_peak": result.log_bytes_peak,
                "log_bytes_per_rank": result.log_bytes_peak / p,
            }
        )
    return rows


def _merge_into_bench_json(section):
    """Read-modify-write: preserve sections other benches own."""
    data = {}
    if os.path.exists(BENCH_JSON):
        with open(BENCH_JSON) as fh:
            data = json.load(fh)
    data["local_recovery"] = section
    with open(BENCH_JSON, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)


def test_local_recovery(benchmark, report):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    report("Crash recovery "
           "(one rank dies at 50% of its clean finish clock; "
           "bit-identical at every cell)")
    report(
        f"{'workload':>8} {'P':>5} {'slowdown':>9} "
        f"{'recovery-t':>10} {'wasted':>10} {'wasted%':>8} "
        f"{'bound%':>7} {'log-peak':>9}"
    )
    for row in rows:
        report(
            f"{row['workload']:>8} {row['P']:>5} "
            f"{row['slowdown']:>8.2f}x {row['recovery_time']:>10.0f} "
            f"{row['work_wasted']:>10.0f} "
            f"{row['wasted_fraction']:>7.2%} "
            f"{1 / row['P']:>6.2%} "
            f"{row['log_bytes_peak']:>9}"
        )

    _merge_into_bench_json(
        {
            "crash_rank": CRASH_RANK,
            "crash_fraction": CRASH_FRACTION,
            "every_ops": POLICY.every_ops,
            "rows": rows,
            "guard": "wasted_fraction <= 1/P on every row",
        }
    )

    by = {(r["workload"], r["P"]): r for r in rows}
    for row in rows:
        # the price: recovery holds sender logs in memory
        assert row["log_bytes_peak"] > 0
        # CI guard: one crash discards about one rank's work, not P
        assert row["wasted_fraction"] <= 1 / row["P"], (
            f"{row['workload']} P={row['P']}: recovery wasted "
            f"{row['wasted_fraction']:.4f} of the work "
            f"(bound 1/P = {1 / row['P']:.4f})"
        )
    # the wasted fraction shrinks as the machine grows
    fig2 = [by[("fig2", p)]["wasted_fraction"] for p in (16, 64, 256)]
    assert fig2 == sorted(fig2, reverse=True)
