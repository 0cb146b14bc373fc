"""Execution equivalence: every codegen mode must be *exactly* the
machine the paper's experiments ran on.

The vectorized emitter (numpy block operations with closed-form cost
charging) is a performance feature only: for every workload of the
unified conformance matrix (``trace_workloads``) it must produce
bit-identical final arrays, an equal makespan, and identical
per-processor ``ProcStats`` compared to the scalar configuration.  Any
drift -- a clock charged in a different order, a skipped guard, a
payload copied differently -- fails here.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen import SPMDOptions, generate_spmd
from repro.decomp import block, block_loop
from repro.lang import parse
from repro.runtime import CostModel, Machine, run_spmd

from .trace_workloads import (
    FIG2_SRC,
    RELIABILITY,
    STENCIL_SRC,
    VECTORIZE,
    WORKLOADS,
    assert_identical_runs,
    assert_same_arrays,
    compiled_spmd,
)


def sweep(name, params):
    base = None
    for vec in VECTORIZE:
        result = run_spmd(compiled_spmd(name, vectorize=vec), params)
        if base is None:
            base = result
        else:
            assert_identical_runs(base, result, f"vectorize={vec}")
    return base


class TestCodegenEquivalence:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_bit_identical_across_combos(self, name):
        _build, params = WORKLOADS[name]
        sweep(name, params)

    def test_vectorized_lu_actually_vectorizes(self):
        """Guard against the sweep silently degenerating: LU must
        compile to block execution, and fig2's self-dependent compute
        must not (distance-3 RAW makes gather-before-scatter wrong)."""
        lu = compiled_spmd("lu", vectorize=True)
        assert "proc.execute_block(" in lu.source
        fig2 = compiled_spmd("fig2", vectorize=True)
        compute_lines = [
            ln for ln in fig2.source.splitlines() if "execute" in ln
        ]
        assert compute_lines
        assert all("execute_stmt" in ln for ln in compute_lines)

    def test_initial_data_layouts_survive_codegen_modes(self):
        """Overlap layouts + preload communication through both
        codegen modes."""
        program = parse(STENCIL_SRC, name="stencil")
        stmt = program.statements()[0]
        comps = {stmt.name: block_loop(stmt, ["i"], [8])}
        layout = {
            "A": block(program.arrays["A"], [8]),
            "B": block(program.arrays["B"], [8]),
        }
        params = {"N": 30, "T": 1, "P": 4}
        base = None
        for vec in VECTORIZE:
            spmd = generate_spmd(
                program, comps, initial_data=layout,
                options=SPMDOptions(vectorize=vec),
            )
            result = run_spmd(spmd, params, initial_data=layout)
            if base is None:
                base = result
            else:
                assert_identical_runs(base, result, f"vectorize={vec}")


@st.composite
def random_pipeline(draw):
    shift = draw(st.integers(0, 4))
    block_size = draw(st.sampled_from([4, 8, 12]))
    nprocs = draw(st.integers(1, 3))
    n = draw(st.integers(16, 28))
    size = n + shift + 2
    src = (
        f"array A[{size}]\n"
        f"array B[{size}]\n"
        f"for i = 0 to {n} do\n"
        f"  s1: A[i] = i + 2\n"
        f"for j = {shift} to {n} do\n"
        f"  s2: B[j] = A[j - {shift}] + B[j]\n"
    )
    return src, block_size, nprocs


class TestRandomProgramEquivalence:
    @settings(max_examples=8, deadline=None)
    @given(random_pipeline())
    def test_random_pipeline_identical_everywhere(self, case):
        src, block_size, nprocs = case
        prog = parse(src)
        s1 = prog.statement("s1")
        s2 = prog.statement("s2")
        comps = {"s1": block_loop(s1, ["i"], [block_size])}
        comps["s2"] = block_loop(
            s2, ["j"], [block_size], space=comps["s1"].space
        )
        init = {"B": block(prog.arrays["B"], [block_size])}

        def build(options):
            return generate_spmd(
                prog, comps, initial_data=init, options=options
            )

        compiled = {
            vec: build(SPMDOptions(vectorize=vec))
            for vec in (False, True)
        }
        base = None
        for vec in VECTORIZE:
            result = run_spmd(compiled[vec], {"P": nprocs}, initial_data=init)
            if base is None:
                base = result
            else:
                assert_identical_runs(base, result, f"vectorize={vec}")


class TestEarlyPutEquivalence:
    """Early puts change verbs, never placement: priced so a fence
    costs exactly one receive overhead, an early-put program is the
    same machine as its two-sided twin on every transport."""

    @pytest.mark.parametrize("reliability", RELIABILITY)
    @pytest.mark.parametrize("vec", VECTORIZE, ids=["scalar", "vector"])
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_same_machine_when_a_fence_costs_a_receive(
        self, name, vec, reliability
    ):
        _build, params = WORKLOADS[name]
        cost = CostModel(fence_time=CostModel().recv_overhead)
        runs = {
            early: run_spmd(
                compiled_spmd(name, vectorize=vec, early_puts=early),
                params, cost=cost, reliability=reliability, trace=True,
            )
            for early in (False, True)
        }
        two_sided, early = runs[False], runs[True]
        label = f"{name} vec={vec} {reliability}"
        assert early.makespan == two_sided.makespan, label
        assert early.clocks == two_sided.clocks, label
        assert_same_arrays(early, two_sided, label)
        assert early.total_messages == two_sided.total_messages, label
        assert early.total_words == two_sided.total_words, label
        # every point-to-point transmission is either a put or a send
        e_counts, t_counts = early.trace.counts(), two_sided.trace.counts()
        assert e_counts.get("put", 0) + e_counts.get("send", 0) == (
            t_counts.get("send", 0)
        ), label
        assert early.stat_sum("puts") == e_counts.get("put", 0), label
        # each fenced receive replaces exactly one plain receive: the
        # receive overhead moves into the fence bucket, none is lost
        assert early.stat_sum("fence_time") + early.stat_sum(
            "recv_time"
        ) == two_sided.stat_sum("recv_time"), label


class TestScheduler:
    @pytest.mark.parametrize("backend", ["fibers", "threads", "coop"])
    def test_unknown_backend_rejected(self, backend):
        prog = parse(FIG2_SRC)
        stmt = prog.statements()[0]
        comp = block_loop(stmt, ["i"], [32])
        with pytest.raises(ValueError, match="only execution engine"):
            Machine(
                prog, comp.space, {"N": 70, "T": 0, "P": 2},
                backend=backend,
            )
