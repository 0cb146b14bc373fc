"""Fault injector tests: determinism, rate calibration, stream
independence, and reproducibility of whole fault-injected runs."""

import numpy as np
import pytest

from repro.codegen import generate_spmd
from repro.decomp import block_loop
from repro.lang import parse
from repro.runtime import FaultPlan, run_spmd

FIG2 = """
array X[N + 1]
assume N >= 3
assume T >= 0
for t = 0 to T do
  for i = 3 to N do
    X[i] = X[i - 3]
"""


def fig2_spmd():
    prog = parse(FIG2)
    stmt = prog.statements()[0]
    comp = block_loop(stmt, ["i"], [32])
    return generate_spmd(prog, {stmt.name: comp}), prog


class TestDecisionStream:
    def test_same_seed_same_decisions(self):
        a = FaultPlan(seed=42, drop_rate=0.3, dup_rate=0.2, reorder_rate=0.2)
        b = FaultPlan(seed=42, drop_rate=0.3, dup_rate=0.2, reorder_rate=0.2)
        for i in range(200):
            key = ((0,), (1,), ("t", i), 0)
            assert a.drops(*key) == b.drops(*key)
            assert a.duplicates(*key) == b.duplicates(*key)
            assert a.delay(*key) == b.delay(*key)
            assert a.drops_ack(*key) == b.drops_ack(*key)

    def test_different_seed_different_decisions(self):
        a = FaultPlan(seed=1, drop_rate=0.5)
        b = FaultPlan(seed=2, drop_rate=0.5)
        diffs = sum(
            a.drops((0,), (1,), ("t", i), 0) != b.drops((0,), (1,), ("t", i), 0)
            for i in range(200)
        )
        assert diffs > 50  # independent coin flips

    def test_rates_calibrated(self):
        plan = FaultPlan(seed=9, drop_rate=0.25)
        n = 4000
        dropped = sum(
            plan.drops((0,), (1,), ("t", i), 0) for i in range(n)
        )
        assert 0.20 < dropped / n < 0.30

    def test_attempts_are_independent(self):
        """A dropped first attempt must not doom the retransmission."""
        plan = FaultPlan(seed=3, drop_rate=0.5)
        outcomes = {
            (plan.drops((0,), (1,), ("t", i), 0),
             plan.drops((0,), (1,), ("t", i), 1))
            for i in range(200)
        }
        assert outcomes == {(False, False), (False, True),
                            (True, False), (True, True)}

    def test_delay_bounds(self):
        plan = FaultPlan(seed=5, reorder_rate=1.0, max_delay=50.0)
        for i in range(100):
            d = plan.delay((0,), (1,), ("t", i), 0)
            assert 0.0 <= d < 50.0
        quiet = FaultPlan(seed=5, reorder_rate=0.0)
        assert all(
            quiet.delay((0,), (1,), ("t", i), 0) == 0.0 for i in range(50)
        )

    def test_stall_bounds(self):
        plan = FaultPlan(seed=5, stall_rate=1.0, stall_time=100.0)
        for i in range(50):
            s = plan.stall((2,), i)
            assert 50.0 <= s < 150.0
        assert FaultPlan(seed=5).stall((2,), 3) == 0.0

    @pytest.mark.parametrize("field", ["max_delay", "stall_time"])
    @pytest.mark.parametrize(
        "value", [-1.0, float("nan"), float("inf"), float("-inf")]
    )
    def test_delays_must_be_finite_and_non_negative(self, field, value):
        """An infinite reorder delay would push clocks (and the
        makespan) to inf; NaN would poison every comparison."""
        with pytest.raises(ValueError, match="finite and non-negative"):
            FaultPlan(**{field: value})

    def test_ack_rate_defaults_to_drop_rate(self):
        assert FaultPlan(drop_rate=0.4).effective_ack_drop_rate == 0.4
        assert (
            FaultPlan(drop_rate=0.4, ack_drop_rate=0.1)
            .effective_ack_drop_rate == 0.1
        )

    def test_describe(self):
        text = FaultPlan(seed=7, drop_rate=0.2, dup_rate=0.1).describe()
        assert "seed=7" in text and "drop=20%" in text and "dup=10%" in text
        assert "no faults" in FaultPlan(seed=1).describe()


class TestRunReproducibility:
    def test_fault_injected_run_is_deterministic(self):
        """Same seed, same faults, same clocks -- across thread
        schedules (the decision stream is hash-driven, not RNG-state
        driven)."""
        spmd, _ = fig2_spmd()
        params = {"N": 70, "T": 2, "P": 3}
        plan = FaultPlan(seed=11, drop_rate=0.2, dup_rate=0.1,
                         reorder_rate=0.15)
        a = run_spmd(spmd, params, fault_plan=plan)
        b = run_spmd(spmd, params, fault_plan=plan)
        assert a.makespan == b.makespan
        assert a.stat_sum("retransmissions") == b.stat_sum("retransmissions")
        assert a.stat_sum("acks_lost") == b.stat_sum("acks_lost")
        assert a.stat_sum("timeout_time") == b.stat_sum("timeout_time")
        for myp in a.arrays:
            assert np.array_equal(
                a.arrays[myp]["X"], b.arrays[myp]["X"], equal_nan=True
            )

    def test_different_fault_seeds_change_the_run(self):
        spmd, _ = fig2_spmd()
        params = {"N": 70, "T": 2, "P": 3}
        runs = [
            run_spmd(
                spmd, params,
                fault_plan=FaultPlan(seed=s, drop_rate=0.2),
            )
            for s in (1, 2, 3, 4)
        ]
        keys = {
            (r.makespan, r.stat_sum("retransmissions")) for r in runs
        }
        assert len(keys) > 1  # at least one seed behaves differently

    def test_stalls_slow_the_clock_only(self):
        spmd, _ = fig2_spmd()
        params = {"N": 70, "T": 2, "P": 3}
        quiet = run_spmd(spmd, params)
        stalled = run_spmd(
            spmd, params,
            fault_plan=FaultPlan(seed=2, stall_rate=1.0, stall_time=500.0),
        )
        assert stalled.makespan > quiet.makespan
        assert stalled.stat_sum("fault_stall_time") > 0
        assert stalled.total_messages == quiet.total_messages
        for myp in quiet.arrays:
            assert np.array_equal(
                quiet.arrays[myp]["X"], stalled.arrays[myp]["X"],
                equal_nan=True,
            )


class TestCrashDecisionStream:
    def test_crash_decisions_deterministic(self):
        a = FaultPlan(seed=21, crash_rate=0.3)
        b = FaultPlan(seed=21, crash_rate=0.3)
        for i in range(200):
            assert a.crashes_at((0,), i, 0) == b.crashes_at((0,), i, 0)

    def test_crash_rate_calibrated(self):
        plan = FaultPlan(seed=9, crash_rate=0.25)
        n = 4000
        hits = sum(plan.crashes_at((0,), i, 0) for i in range(n))
        assert 0.20 < hits / n < 0.30

    def test_crash_stream_independent_of_network_streams(self):
        """The crash stream must not correlate with drop decisions."""
        plan = FaultPlan(seed=4, drop_rate=0.5, crash_rate=0.5)
        agree = sum(
            plan.crashes_at((0,), i, 0)
            == plan.drops((0,), (1,), ("t", i), 0)
            for i in range(400)
        )
        assert 120 < agree < 280  # ~50% if independent

    def test_incarnation_changes_the_stream(self):
        plan = FaultPlan(seed=13, crash_rate=0.5)
        diffs = sum(
            plan.crashes_at((1,), i, 0) != plan.crashes_at((1,), i, 1)
            for i in range(200)
        )
        assert diffs > 50

    def test_no_crash_faults_property(self):
        assert not FaultPlan(drop_rate=0.5).any_crash_faults
        assert FaultPlan(crash_rate=0.01).any_crash_faults
        assert FaultPlan(crashes={2: 9.0}).any_crash_faults

    def test_plan_stays_hashable_with_crashes(self):
        plan = FaultPlan(crashes={0: 10.0, (1,): 20.0})
        assert hash(plan) == hash(FaultPlan(crashes={(1,): 20.0, 0: 10.0}))
