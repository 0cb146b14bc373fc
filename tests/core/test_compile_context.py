"""Per-compile state (repro.polyhedra.stats.CompileContext).

Each compile numbers its fresh names from zero and counts its own
engine work, so ``CompileResult.poly_stats`` is exact whatever ran
before it or beside it on other threads, and the process totals in
``stats.STATS`` still see every compile.
"""

import threading

from repro.codegen import generate_spmd
from repro.core import canonical_bytes, compile_distributed
from repro.decomp import block_loop, onto
from repro.lang import parse
from repro.polyhedra import (
    feasibility_cache_clear,
    projection_cache_clear,
    stats,
    var,
)
from repro.polyhedra.stats import STATS, CompileContext, current_context
from repro.runtime.chaos import WORKLOADS


def _job(name, block=8):
    program = parse(WORKLOADS[name].source, name=name)
    if name == "lu":
        s1, s2 = program.statement("s1"), program.statement("s2")
        comps = {"s1": onto(s1, [var("i2")])}
        comps["s2"] = onto(s2, [var("i2")], space=comps["s1"].space)
    elif name == "pipe":
        s1, s2 = program.statement("s1"), program.statement("s2")
        comps = {"s1": block_loop(s1, ["i"], [block])}
        comps["s2"] = block_loop(s2, ["j"], [block], space=comps["s1"].space)
    else:
        stmt = program.statements()[0]
        comps = {stmt.name: block_loop(stmt, ["i"], [block])}
    return program, comps


def _cold_compile(name, block=8):
    projection_cache_clear()
    feasibility_cache_clear()
    return compile_distributed(*_job(name, block))


ADDITIVE = [k for k in STATS.snapshot() if k != "peak_system_size"]


class TestContext:
    def test_fresh_ids_count_per_family(self):
        with CompileContext() as ctx:
            assert current_context() is ctx
            assert [ctx.fresh_id("a"), ctx.fresh_id("a")] == [0, 1]
            assert ctx.fresh_id("b") == 0
        assert current_context().stats is STATS

    def test_exit_folds_into_the_replaced_context(self):
        with CompileContext() as outer:
            with CompileContext() as inner:
                current_context().stats.eliminations += 2
                current_context().stats.observe_system_size(7)
            assert inner.stats.eliminations == 2
            assert outer.stats.eliminations == 2
            assert outer.stats.peak_system_size == 7
            outer.stats.observe_system_size(3)
            assert outer.stats.peak_system_size == 7

    def test_generate_spmd_numbers_names_from_zero(self):
        program, comps = _job("fig8")
        alone = generate_spmd(program, comps)
        with CompileContext() as ctx:
            for family in ("omega", "lexmax", "buffer", "offset"):
                ctx.fresh_id(family)
            nested = generate_spmd(program, comps)
        assert nested.c_text == alone.c_text
        assert nested.source == alone.source


class TestPolyStats:
    def test_poly_stats_do_not_depend_on_earlier_compiles(self):
        alone = _cold_compile("fig2").poly_stats
        _cold_compile("lu")
        after_lu = _cold_compile("fig2").poly_stats
        assert after_lu == alone
        assert alone["peak_system_size"] > 0

    def test_concurrent_compiles_fold_exactly_into_stats(self):
        names = ["fig2", "fig8", "lu", "stencil", "pipe", "fig2"]
        jobs = {n: _job(n) for n in names}
        expected = {n: canonical_bytes(compile_distributed(*jobs[n]))
                    for n in jobs}
        projection_cache_clear()  # the threads race on cold memos
        feasibility_cache_clear()
        before = stats.snapshot()
        results, failures = [], []

        def client(offset):
            try:
                for k in range(len(names)):
                    name = names[(offset + k) % len(names)]
                    results.append((name, compile_distributed(*jobs[name])))
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(exc)

        threads = [threading.Thread(target=client, args=(t,))
                   for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        assert not failures
        assert len(results) == 4 * len(names)
        delta = stats.delta_since(before)
        for key in ADDITIVE:
            total = sum(r.poly_stats[key] for _, r in results)
            assert delta[key] == total, key
        assert STATS.peak_system_size >= max(
            r.poly_stats["peak_system_size"] for _, r in results
        )
        for name, result in results:
            assert canonical_bytes(result) == expected[name], name

