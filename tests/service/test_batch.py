"""Parallel batch compilation (repro.service.compile_many).

The contract: pooled compiles are bit-identical to sequential ones,
results come back in job order, per-worker poly_stats merge into one
batch-wide delta, and any number of pools hammering one cache directory
neither deadlocks nor cross-corrupts.
"""

import threading

import pytest

from repro.core import compile_distributed, results_equal
from repro.core.serialize import SerializeError
from repro.runtime.chaos import WORKLOADS
from repro.service import CompileJob, compile_many

from .conftest import conformance_job


@pytest.fixture(scope="module")
def sequential_results(conformance_jobs):
    return [
        compile_distributed(
            job.program, job.comps,
            initial_data=job.initial_data, options=job.options,
        )
        for job in conformance_jobs
    ]


class TestBitIdentity:
    def test_pooled_equals_sequential_on_conformance_workloads(
        self, conformance_jobs, sequential_results
    ):
        batch = compile_many(
            [conformance_job(name) for name in sorted(WORKLOADS)],
            workers=2,
        )
        assert len(batch) == len(conformance_jobs)
        assert batch.workers == 2
        for job, seq, pooled in zip(
            conformance_jobs, sequential_results, batch
        ):
            assert results_equal(seq, pooled), (
                f"pooled compile of {job.label} diverged from sequential"
            )

    def test_sequential_path_equals_sequential(
        self, conformance_jobs, sequential_results
    ):
        batch = compile_many(
            [conformance_job(name) for name in sorted(WORKLOADS)],
            workers=1,
        )
        assert batch.workers == 1
        for seq, got in zip(sequential_results, batch):
            assert results_equal(seq, got)

    def test_pooled_node_program_executes(self, sequential_results):
        from repro import check_against_sequential

        job = conformance_job("fig2")
        batch = compile_many([job], workers=2)
        outcome = check_against_sequential(
            batch[0].spmd, job.comps, WORKLOADS["fig2"].params
        )
        assert outcome.makespan > 0


class TestStatsAndCache:
    def test_poly_stats_merge(self):
        jobs = [conformance_job("fig2"), conformance_job("stencil")]
        batch = compile_many(jobs, workers=2)
        assert batch.poly_stats  # non-empty merged delta
        total = sum(
            r.poly_stats.get("eliminations", 0) for r in batch
        )
        assert batch.poly_stats.get("eliminations", 0) == total
        assert total > 0
        assert batch.poly_stats["peak_system_size"] == max(
            r.poly_stats["peak_system_size"] for r in batch
        )

    def test_pool_warms_shared_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        jobs = [conformance_job("fig2"), conformance_job("pipe")]
        cold = compile_many(jobs, workers=2, cache_dir=cache_dir)
        assert not any(r.from_cache for r in cold)
        warm = compile_many(
            [conformance_job("fig2"), conformance_job("pipe")],
            workers=2, cache_dir=cache_dir,
        )
        assert all(r.from_cache for r in warm)
        for a, b in zip(cold, warm):
            assert results_equal(a, b)

    def test_unpicklable_job_fails_fast(self, conformance_jobs):
        job = conformance_job("fig2")
        job.program.statements()[0].fn_spec = None
        with pytest.raises(SerializeError, match="fn_spec"):
            compile_many([job, conformance_job("pipe")], workers=2)


class TestConcurrentPools:
    def test_two_pools_share_one_cache_dir(self, tmp_path):
        """Two process pools racing on one cache directory: no
        deadlock, no cross-corruption -- every result is bit-identical
        to its sequential reference."""
        cache_dir = str(tmp_path / "shared")
        names = sorted(WORKLOADS)
        reference = {}
        for name in names:
            job = conformance_job(name)
            reference[name] = compile_distributed(
                job.program, job.comps, options=job.options
            )

        outcomes = {}
        errors = []

        def run(tag, order):
            try:
                batch = compile_many(
                    [conformance_job(n) for n in order],
                    workers=2, cache_dir=cache_dir,
                )
                outcomes[tag] = (order, list(batch))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append((tag, exc))

        threads = [
            threading.Thread(target=run, args=("fwd", names)),
            threading.Thread(
                target=run, args=("rev", list(reversed(names)))
            ),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=600)
        assert not any(t.is_alive() for t in threads), (
            "concurrent pools deadlocked on the shared cache"
        )
        assert not errors, f"pool raised: {errors}"
        for _tag, (order, results) in outcomes.items():
            for name, result in zip(order, results):
                assert results_equal(reference[name], result), (
                    f"{name} cross-corrupted under concurrent writers"
                )
