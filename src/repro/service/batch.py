"""Parallel batch compilation over a process pool.

``compile_many`` fans a list of :class:`CompileJob` requests out to a
``ProcessPoolExecutor``.  Each worker runs the ordinary
``compile_distributed`` pipeline -- fresh-name counters reset per
compile, so a pooled compile is bit-identical to a sequential one (the
batch tests assert this with ``serialize.results_equal``).  When a
``cache_dir`` is given, every worker activates the same persistent
cache, so the pool collectively warms one store and later jobs hit
artifacts published by earlier workers.

Jobs cross the process boundary as single pickled units, which
preserves the identity relations inside them (the ``CompDecomp``
entries reference the very ``Statement`` objects inside the program).
Results come back as ``serialize.dump_result`` artifact bytes -- the
same format the disk cache stores -- and are rebuilt in the parent, so
workers never need to pickle live node-program closures.
"""

from __future__ import annotations

import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core import compiler as _compiler
from ..core import serialize
from ..decomp import CompDecomp, DataDecomp
from ..ir import Program
from ..polyhedra import diskcache, stats


@dataclass
class CompileJob:
    """One compile request: the exact arguments of ``compile_distributed``."""

    program: Program
    comps: Dict[str, CompDecomp]
    initial_data: Optional[Dict[str, DataDecomp]] = None
    options: Optional[object] = None
    #: free-form tag echoed back on the result's position; purely for
    #: the caller's bookkeeping (benchmarks label jobs by workload).
    label: str = ""


@dataclass
class BatchResult:
    """Results of one ``compile_many`` call, in job order."""

    results: List[_compiler.CompileResult]
    #: every job's poly_stats folded together (workers count
    #: independently; the merge makes the batch look like one
    #: sequential run to ``stats.summary``).
    poly_stats: Dict[str, int] = field(default_factory=dict)
    seconds: float = 0.0
    workers: int = 1

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, idx):
        return self.results[idx]


def merge_poly_stats(deltas: Sequence[Dict[str, int]]) -> Dict[str, int]:
    """Fold per-compile counters into one batch-wide set, the way a
    compile context folds into its parent (peak system size: the max)."""
    merged = stats.PolyStats()
    for delta in deltas:
        merged.add(stats.PolyStats(**delta))
    return merged.snapshot()


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

def _worker_init(paths: List[str], cache_dir: Optional[str],
                 max_bytes: Optional[int]) -> None:
    """Run once per pool worker: make ``repro`` importable (spawn start
    methods do not inherit a mutated ``sys.path``) and point the worker
    at the shared persistent cache."""
    for p in reversed(paths):
        if p not in sys.path:
            sys.path.insert(0, p)
    if cache_dir is not None:
        diskcache.activate(cache_dir, max_bytes=max_bytes)


def _worker_compile(job: CompileJob) -> Tuple[bytes, bool, float]:
    """Compile one job; ship the result back as artifact bytes.

    Returns ``(dump_result bytes, from_cache, compile_seconds)``.  The
    artifact bytes are the cache's storage format, so anything a worker
    can return, the parent can rebuild bit-identically.
    """
    result = _compiler.compile_distributed(
        job.program, job.comps,
        initial_data=job.initial_data, options=job.options,
    )
    return (
        serialize.dump_result(result),
        result.from_cache,
        result.compile_seconds,
    )


# ---------------------------------------------------------------------------
# driver side
# ---------------------------------------------------------------------------

def compile_many(
    jobs: Sequence[CompileJob],
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    max_bytes: Optional[int] = None,
) -> BatchResult:
    """Compile ``jobs`` in parallel; results come back in job order.

    ``workers=None`` sizes the pool to ``min(len(jobs), cpu_count)``;
    ``workers<=1`` (or a single job) compiles sequentially in-process,
    which is also the fallback that keeps the API usable where process
    pools are unavailable.  ``cache_dir`` activates one shared
    persistent cache in every worker (and in-process for the sequential
    path), so the batch warms the store as it runs.
    """
    jobs = list(jobs)
    start = time.perf_counter()
    if workers is None:
        workers = min(len(jobs), os.cpu_count() or 1) or 1
    workers = max(1, int(workers))

    if workers == 1 or len(jobs) <= 1:
        with diskcache.using(cache_dir, max_bytes=max_bytes):
            results = [
                _compiler.compile_distributed(
                    job.program, job.comps,
                    initial_data=job.initial_data, options=job.options,
                )
                for job in jobs
            ]
        return BatchResult(
            results,
            poly_stats=merge_poly_stats([r.poly_stats for r in results]),
            seconds=time.perf_counter() - start,
            workers=1,
        )

    for job in jobs:  # fail fast, before any worker is spawned
        serialize.check_program_picklable(job.program)

    src_paths = [p for p in sys.path if p]
    results: List[_compiler.CompileResult] = []
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_worker_init,
        initargs=(src_paths, cache_dir, max_bytes),
    ) as pool:
        futures = [pool.submit(_worker_compile, job) for job in jobs]
        for fut in futures:
            blob, from_cache, seconds = fut.result()
            result = serialize.load_result(blob)
            result.from_cache = from_cache
            result.compile_seconds = seconds
            results.append(result)
    return BatchResult(
        results,
        poly_stats=merge_poly_stats([r.poly_stats for r in results]),
        seconds=time.perf_counter() - start,
        workers=workers,
    )
