"""Crash recovery: sender-based message logging end-to-end.

The contract under test: a crash rolls back **one rank** -- the
crashed processor restarts from its own
latest digest-valid snapshot while every live rank keeps executing,
and the final arrays are still bit-identical to the fault-free oracle.
Live senders re-serve logged messages in the recorded delivery order;
the crashed rank's duplicate re-sends are absorbed by the existing
ARQ/stash dedup.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import (
    CheckpointPolicy,
    CostModel,
    FaultPlan,
    LogOverflowError,
    Machine,
    MessageLog,
    TransportError,
    run_spmd,
)
from repro.runtime import chaos
from tests.runtime.test_crash_recovery import (
    FIG2_PARAMS,
    fig2_spmd,
    lu_spmd,
    pipe_spmd,
)
from tests.runtime.trace_workloads import (
    WORKLOADS,
    compiled_spmd,
    same_arrays,
)


def crash_run(spmd, params, plan, **kw):
    kw.setdefault("checkpoint", CheckpointPolicy(every_ops=25))
    kw.setdefault("max_restarts", 10)
    return run_spmd(spmd, params, fault_plan=plan, **kw)


class TestLocalRecoveryConformance:
    """All five conformance workloads x {scalar, vector}: a mid-run
    crash still produces the fault-free oracle's arrays bit for bit,
    and the PR 5 trace invariants hold."""

    @pytest.mark.parametrize("vectorize", [False, True],
                             ids=["scalar", "vector"])
    @pytest.mark.parametrize("name", sorted(chaos.WORKLOADS))
    def test_bit_identical_to_fault_free_oracle(self, name, vectorize):
        base_scenario = chaos.WORKLOADS[name]
        scenario = chaos.Scenario(
            name=base_scenario.name,
            source=base_scenario.source,
            comps=base_scenario.comps,
            params=base_scenario.params,
            vectorize=vectorize,
        )
        spmd = scenario.build()
        base = run_spmd(spmd, scenario.params, trace=True)
        rank = sorted(base.arrays)[0]
        plan = FaultPlan(crashes={rank: base.makespan / 2})
        res = crash_run(spmd, scenario.params, plan, trace=True)
        assert res.restarts == 1
        assert res.crash_events[0].myp == rank
        assert same_arrays(base, res)
        assert chaos._invariant_violation(res) is None

    @pytest.mark.parametrize("vectorize", [False, True],
                             ids=["scalar", "vector"])
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_early_put_programs_recover_bit_identically(
        self, name, vectorize
    ):
        """Early-put programs: replayed puts from the message log land
        in the restarted rank's stash ahead of its fences, and the
        answer is still the fault-free oracle's."""
        _build, params = WORKLOADS[name]
        spmd = compiled_spmd(name, vectorize=vectorize, early_puts=True)
        base = run_spmd(spmd, params, trace=True)
        rank = sorted(base.arrays)[0]
        plan = FaultPlan(crashes={rank: base.makespan / 2})
        res = crash_run(spmd, params, plan, trace=True)
        assert res.restarts == 1
        assert res.crash_events[0].myp == rank
        assert same_arrays(base, res)
        assert chaos._invariant_violation(res) is None

    def test_repeated_runs_agree_on_recovery_accounting(self):
        """Local recovery is deterministic: repeated runs report the
        same restarts, wasted work and recovery time."""
        spmd = fig2_spmd()
        base = run_spmd(spmd, FIG2_PARAMS)
        plan = FaultPlan(crashes={1: base.makespan / 2})
        runs = [crash_run(spmd, FIG2_PARAMS, plan) for _ in range(2)]
        assert len({r.restarts for r in runs}) == 1
        assert len({r.work_wasted for r in runs}) == 1
        assert len({r.recovery_time for r in runs}) == 1
        assert len({r.log_bytes_peak for r in runs}) == 1


class TestRecoveryCost:
    """The headline: recovery costs about one rank's work, not P."""

    def test_only_the_crashed_rank_pays(self):
        spmd = fig2_spmd()
        base = run_spmd(spmd, FIG2_PARAMS)
        plan = FaultPlan(crashes={1: base.makespan / 2})
        res = crash_run(spmd, FIG2_PARAMS, plan, trace=True)
        assert same_arrays(base, res)
        assert res.work_wasted > 0
        # one restart, on the crashed rank; the live ranks never rewind
        restarts = res.trace.by_kind("restart")
        assert [ev.rank for ev in restarts] == [(1,)]
        assert res.recovery_time == restarts[0].duration
        assert sum(
            s.recovery_time for s in res.stats.values()
        ) == res.recovery_time
        assert all(
            s.recovery_time == 0
            for myp, s in res.stats.items() if myp != (1,)
        )
        # the sender log is live only when a store exists; a crash run
        # must have logged something
        assert res.log_bytes_peak > 0

    def test_fault_free_run_reports_zero_recovery(self):
        res = run_spmd(fig2_spmd(), FIG2_PARAMS)
        assert res.restarts == 0
        assert res.work_wasted == 0.0
        assert res.log_bytes_peak == 0

    def test_recovery_keyword_accepts_only_local(self):
        spmd = fig2_spmd()
        Machine(spmd.program, spmd.space, FIG2_PARAMS, recovery="local")
        for mode in ("global", "quantum"):
            with pytest.raises(ValueError, match="was removed"):
                Machine(spmd.program, spmd.space, FIG2_PARAMS,
                        recovery=mode)
            with pytest.raises(ValueError, match="was removed"):
                run_spmd(spmd, FIG2_PARAMS, recovery=mode)


class TestCrashDuringRecovery:
    """Second failures while a local replay is still in flight."""

    def test_same_rank_crashes_twice(self):
        """Crash decisions re-roll per incarnation: seed 38 at rate
        0.03 kills rank (1,) and then kills its restarted incarnation
        again (found by sweep; pinned for determinism)."""
        spmd = fig2_spmd()
        base = run_spmd(spmd, FIG2_PARAMS)
        plan = FaultPlan(seed=38, crash_rate=0.03)
        res = crash_run(
            spmd, FIG2_PARAMS, plan,
            checkpoint=CheckpointPolicy(every_ops=20),
        )
        assert res.restarts == 2
        assert [e.myp for e in res.crash_events] == [(1,), (1,)]
        assert res.crash_events[0].incarnation == 0
        assert res.crash_events[1].incarnation == 1
        assert same_arrays(base, res)

    def test_different_rank_crashes_during_replay(self):
        """Rank 1 dies inside rank 0's recovery window (the restart
        penalty alone is 2000 time units; the second crash lands 500
        after the first)."""
        spmd = fig2_spmd()
        base = run_spmd(spmd, FIG2_PARAMS)
        t = base.makespan * 0.4
        plan = FaultPlan(crashes={0: t, 1: t + 500.0})
        res = crash_run(
            spmd, FIG2_PARAMS, plan,
            checkpoint=CheckpointPolicy(every_ops=20),
        )
        assert res.restarts == 2
        assert {e.myp for e in res.crash_events} == {(0,), (1,)}
        first, second = sorted(res.crash_events,
                               key=lambda e: e.model_time)
        assert second.model_time < first.model_time + \
            CostModel().restart_penalty
        assert same_arrays(base, res)

    def test_gives_up_past_the_restart_budget(self):
        from repro.runtime import CrashError

        spmd = fig2_spmd()
        plan = FaultPlan(seed=1, crash_rate=0.9)
        with pytest.raises(CrashError) as info:
            crash_run(
                spmd, FIG2_PARAMS, plan,
                checkpoint=CheckpointPolicy(every_ops=10),
                max_restarts=2,
            )
        assert "local recovery gave up" in str(info.value)


PROGRAMS = {
    "fig2": (fig2_spmd, {"N": 70, "T": 2, "P": 3}),
    "lu": (lu_spmd, {"N": 12, "P": 4}),
    "pipe": (pipe_spmd, {"N": 40, "P": 3}),
}


class TestCrashScheduleSweepProperty:
    """Hypothesis sweep over fig2/LU/pipe crash schedules: any single
    scheduled crash, any rank, any checkpoint cadence --
    local recovery always lands on the crash-free answer, bit for
    bit.

    Crashes are scheduled at a fraction of the *target rank's own*
    finish clock, not of the overall makespan: a rank that finishes
    early (fig2's rank 0 retires at ~0.6 of the makespan) can never
    fire a crash scheduled after its retirement, which would make
    ``restarts >= 1`` vacuously false -- that semantics is pinned by
    ``test_crash_after_retirement_never_fires`` below."""

    @settings(max_examples=12, deadline=None)
    @given(
        name=st.sampled_from(sorted(PROGRAMS)),
        rank=st.integers(0, 2),
        frac=st.sampled_from([0.25, 0.5, 0.75]),
        every_ops=st.sampled_from([10, 25, 60]),
    )
    def test_local_recovery_matches_crash_free(
        self, name, rank, frac, every_ops
    ):
        from repro.runtime.analysis import decompose

        build, params = PROGRAMS[name]
        spmd = build()
        base = run_spmd(spmd, params)
        finish = decompose(base)[(rank,)].total()
        plan = FaultPlan(crashes={rank: finish * frac})
        res = crash_run(
            spmd, params, plan,
            checkpoint=CheckpointPolicy(every_ops=every_ops),
        )
        assert res.restarts >= 1
        assert same_arrays(base, res)

    def test_crash_after_retirement_never_fires(self):
        """A crash scheduled past a rank's finish clock is a no-op:
        the processor already retired, so nothing restarts and the
        answer is untouched (matches the chaos harness, which only
        requires cleanliness, never a restart count)."""
        from repro.runtime.analysis import decompose

        spmd = fig2_spmd()
        base = run_spmd(spmd, FIG2_PARAMS)
        finish = decompose(base)[(0,)].total()
        assert finish < base.makespan  # rank 0 really does retire early
        plan = FaultPlan(crashes={0: (finish + base.makespan) / 2})
        res = crash_run(spmd, FIG2_PARAMS, plan)
        assert res.restarts == 0
        assert same_arrays(base, res)


class TestLogOverflow:
    """Satellite 1: capped sender logs fail structurally, truncation
    at checkpoint commit keeps honest caps alive."""

    def test_tiny_cap_raises_with_coordinates(self):
        spmd = fig2_spmd()
        with pytest.raises(LogOverflowError) as info:
            run_spmd(
                spmd, FIG2_PARAMS,
                checkpoint=CheckpointPolicy(every_ops=25),
                log_bytes_cap=8,
            )
        err = info.value
        assert isinstance(err, TransportError)
        assert err.cap == 8
        assert err.logged_bytes > 8
        assert isinstance(err.src, tuple) and isinstance(err.dest, tuple)
        text = str(err)
        assert str(err.src) in text and str(err.dest) in text

    def test_truncation_keeps_honest_caps_alive(self):
        """bytes_peak is measured *after* checkpoint-commit truncation,
        so capping every channel at the observed total peak must leave
        a crash run recoverable."""
        spmd = fig2_spmd()
        base = run_spmd(spmd, FIG2_PARAMS)
        plan = FaultPlan(crashes={1: base.makespan / 2})
        free = crash_run(spmd, FIG2_PARAMS, plan)
        assert free.log_bytes_peak > 0
        capped = crash_run(
            spmd, FIG2_PARAMS, plan,
            log_bytes_cap=free.log_bytes_peak,
        )
        assert capped.restarts == 1
        assert capped.log_bytes_peak <= free.log_bytes_peak
        assert same_arrays(base, capped)

    def test_message_log_validation_and_accounting(self):
        with pytest.raises(ValueError):
            MessageLog(bytes_cap=0)
        log = MessageLog()
        assert log.bytes_total == 0 and log.bytes_peak == 0

    def test_cli_rejects_nonpositive_cap(self):
        import argparse

        from repro.__main__ import _pos_int

        # --log-bytes-cap routes through the >=1 argparse type
        with pytest.raises(argparse.ArgumentTypeError):
            _pos_int("0")


class TestPoolIntegrity:
    """Satellite 2: envelope/wire-buffer pool hygiene across
    incarnations.  A crash mid-flight must never leave a payload-
    bearing shell in the recycling pool, where a later incarnation
    could re-serve stale words."""

    def test_pool_holds_no_payloads_after_crash(self):
        spmd = fig2_spmd()
        base = run_spmd(spmd, FIG2_PARAMS)
        plan = FaultPlan(crashes={1: base.makespan / 2})
        machine = Machine(
            spmd.program, spmd.space, FIG2_PARAMS,
            fault_plan=plan,
            checkpoint=CheckpointPolicy(every_ops=25),
            max_restarts=10,
        )
        res = machine.run(spmd.node)
        assert res.restarts == 1
        pool = machine._envelope_pool
        assert pool
        assert all(env.payload is None for env in pool)
        assert all(
            np.array_equal(base.arrays[myp][name],
                           res.arrays[myp][name], equal_nan=True)
            for myp in base.arrays for name in base.arrays[myp]
        )


class TestChaosCrashTrials:
    """The chaos harness explores crash schedules and can replay them
    from JSON reproducers."""

    def test_explore_covers_crash_schedules_cleanly(self):
        rep = chaos.explore(
            workloads=["fig2"], seeds=0, targeted=False,
        )
        assert rep.ok
        # 2 ranks x 2 fractions
        assert rep.trials == 4

    def test_crash_reproducer_round_trips(self):
        scenario = chaos.WORKLOADS["fig2"]
        plan = FaultPlan(crashes={1: 1156.0})
        doc = chaos._make_reproducer(
            scenario, "reliable", plan,
            expected="oracle", observed="clean",
            checkpoint=chaos._CRASH_POLICY,
        )
        rebuilt = chaos.plan_from_json(doc["plan"])
        assert rebuilt.crashes == plan.crashes
        assert "recovery" not in doc
        policy = chaos._policy_from_json(doc["checkpoint"])
        assert policy == chaos._CRASH_POLICY
        reproduced, observed = chaos.replay_reproducer(doc)
        assert reproduced and observed == "clean"

    @pytest.mark.parametrize("recovery", ["global", "local"])
    def test_old_reproducer_recovery_field_is_ignored(self, recovery):
        """Reproducers written while a recovery mode was recorded
        still replay; the field no longer selects anything."""
        scenario = chaos.WORKLOADS["fig2"]
        doc = chaos._make_reproducer(
            scenario, "reliable", FaultPlan(crashes={1: 1156.0}),
            expected="oracle", observed="clean",
            checkpoint=chaos._CRASH_POLICY,
        )
        doc["recovery"] = recovery
        reproduced, observed = chaos.replay_reproducer(doc)
        assert reproduced and observed == "clean"

    def test_finding_describe_names_transport(self):
        finding = chaos.ChaosFinding(
            scenario="fig2", transport="reliable",
            expected="oracle", observed="array-mismatch",
            plan=FaultPlan(crashes={0: 100.0}), events=1,
            reproducer={},
        )
        assert "fig2 [reliable]" in finding.describe()
