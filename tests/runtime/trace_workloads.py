"""The unified conformance matrix: workloads, axes and oracle helpers.

One module owns the grid every conformance suite sweeps --
``(workload, vectorize)`` -- plus the shared
oracle/invariant assertions, so the execution-equivalence, trace,
fault, corruption and local-recovery suites all check the *same*
machine configurations and any divergence is attributable to the
subsystem a suite isolates (and benchmarks/workloads.py mirrors the
same programs).

Axes:

* ``WORKLOADS`` -- the five paper workloads with pinned parameters;
* ``VECTORIZE`` -- {scalar, vector} codegen;
* ``EARLY_PUTS`` -- {two-sided, early-put} codegen;
* ``RELIABILITY`` -- the fault-free-capable transports, ``direct``
  (no protocol) and ``reliable`` (ARQ); both carry early-put programs.

Helpers: :func:`compiled_spmd` caches compilations across suites
(keyed by workload x vectorize x early_puts), :func:`same_arrays` /
:func:`assert_same_arrays` / :func:`assert_identical_runs` are the
bit-exactness oracles, and :func:`assert_trace_invariants` bundles the
PR 5 accounting identities (decomposition sums to the finish clock,
comm matrix reconciles with ProcStats, no unmatched receives).
"""

import numpy as np

from repro.codegen import SPMDOptions, generate_spmd
from repro.decomp import block_loop, onto
from repro.lang import parse
from repro.polyhedra import var
from repro.runtime.analysis import (
    Decomposition,
    comm_matrix,
    unmatched_receives,
)

FIG2_SRC = """
array X[N + 1]
assume N >= 3
assume T >= 0
for t = 0 to T do
  for i = 3 to N do
    X[i] = X[i - 3]
"""

FIG8_SRC = """
array X[N + 1]
assume N >= 3
assume T >= 0
for t = 0 to T do
  for i = 3 to N do
    X[i] = f(X[i], X[i - 1], X[i - 2], X[i - 3])
"""

LU_SRC = """
array X[N + 1][N + 1]
assume N >= 1
for i1 = 0 to N do
  for i2 = i1 + 1 to N do
    s1: X[i2][i1] = X[i2][i1] / X[i1][i1]
    for i3 = i1 + 1 to N do
      s2: X[i2][i3] = X[i2][i3] - X[i2][i1] * X[i1][i3]
"""

PIPE_SRC = """
array X[N + 1]
array Y[N + 1]
assume N >= 2
for i = 0 to N do
  s1: X[i] = i + 1
for j = 1 to N do
  s2: Y[j] = Y[j] + X[j - 1]
"""

STENCIL_SRC = """
array A[N + 2]
array B[N + 2]
assume N >= 1
for t = 1 to T do
  for i = 1 to N do
    B[i] = (A[i - 1] + A[i] + A[i + 1]) / 3
"""


def build_fig2(options):
    program = parse(FIG2_SRC, name="figure2")
    stmt = program.statements()[0]
    comps = {stmt.name: block_loop(stmt, ["i"], [16])}
    return generate_spmd(program, comps, options=options)


def build_fig8(options):
    program = parse(FIG8_SRC, name="figure8")
    stmt = program.statements()[0]
    comps = {stmt.name: block_loop(stmt, ["i"], [16])}
    return generate_spmd(program, comps, options=options)


def build_lu(options):
    program = parse(LU_SRC, name="lu")
    comps = {"s1": onto(program.statement("s1"), [var("i2")])}
    comps["s2"] = onto(
        program.statement("s2"), [var("i2")], space=comps["s1"].space
    )
    return generate_spmd(program, comps, options=options)


def build_pipe(options):
    program = parse(PIPE_SRC, name="pipe")
    s1 = program.statement("s1")
    s2 = program.statement("s2")
    comps = {"s1": block_loop(s1, ["i"], [16])}
    comps["s2"] = block_loop(s2, ["j"], [16], space=comps["s1"].space)
    return generate_spmd(program, comps, options=options)


def build_stencil(options):
    program = parse(STENCIL_SRC, name="stencil")
    stmt = program.statements()[0]
    comps = {stmt.name: block_loop(stmt, ["i"], [16])}
    return generate_spmd(program, comps, options=options)


#: the paper's workloads x parameter sets used throughout the trace
#: suites (matching test_exec_equivalence.WORKLOADS)
WORKLOADS = {
    "fig2": (build_fig2, {"N": 70, "T": 2, "P": 3}),
    "fig8": (build_fig8, {"N": 70, "T": 2, "P": 3}),
    "lu": (build_lu, {"N": 24, "P": 3}),
    "pipe": (build_pipe, {"N": 44, "P": 2}),
    "stencil": (build_stencil, {"N": 64, "T": 3, "P": 2}),
}

#: both codegen modes: scalar and vectorized
VECTORIZE = (False, True)

#: both communication disciplines: two-sided receives and early puts
EARLY_PUTS = (False, True)

#: the transports a fault-free run can use; ``unreliable`` is absent
#: because it provides no delivery guarantee
RELIABILITY = ("direct", "reliable")

#: the full conformance grid: one row per machine configuration
GRID = [(name, vec) for name in sorted(WORKLOADS) for vec in VECTORIZE]

#: the grid extended by communication discipline and transport
MACHINE_GRID = [
    (name, vec, early, reliability)
    for name, vec in GRID
    for early in EARLY_PUTS
    for reliability in RELIABILITY
]

#: communication-event kinds: invariant across scalar/vectorized
#: codegen (vectorization only merges compute events; it must never
#: change what is communicated or when)
COMM_KINDS = (
    "pack",
    "send",
    "put",
    "multicast",
    "retransmit",
    "timeout",
    "ack-lost",
    "recv-wait",
    "fence-wait",
    "recv-complete",
    "unpack",
    "get",
    "mc-hit",
)


def compiled(build):
    """{vectorize: SPMD} for one builder."""
    return {
        vec: build(SPMDOptions(vectorize=vec)) for vec in (False, True)
    }


_COMPILED = {}


def compiled_spmd(name, vectorize=False, early_puts=False):
    """A cached compile of workload ``name`` -- the suites sweep the
    same few programs hundreds of times, so share the artifacts."""
    key = (name, vectorize, early_puts)
    if key not in _COMPILED:
        build, _params = WORKLOADS[name]
        _COMPILED[key] = build(
            SPMDOptions(vectorize=vectorize, early_puts=early_puts)
        )
    return _COMPILED[key]


def same_arrays(a, b) -> bool:
    """Bit-exact final-array comparison between two RunResults."""
    return all(
        np.array_equal(a.arrays[myp][name], b.arrays[myp][name],
                       equal_nan=True)
        for myp in a.arrays
        for name in a.arrays[myp]
    )


def assert_same_arrays(got, want, label=""):
    assert set(got.arrays) == set(want.arrays), label
    for myp, arrays in want.arrays.items():
        for name, arr in arrays.items():
            assert np.array_equal(
                got.arrays[myp][name], arr, equal_nan=True
            ), f"{label}: array {name} differs on processor {myp}"


def assert_identical_runs(base, other, label=""):
    """The strong oracle: same makespan, arrays and per-proc stats."""
    assert other.makespan == base.makespan, (
        f"{label}: makespan {other.makespan} != {base.makespan}"
    )
    assert_same_arrays(other, base, label)
    assert set(other.stats) == set(base.stats)
    for myp in base.stats:
        assert other.stats[myp] == base.stats[myp], (
            f"{label}: ProcStats differ on processor {myp}:\n"
            f"  base:  {base.stats[myp]}\n"
            f"  other: {other.stats[myp]}"
        )


def assert_trace_invariants(result, label=""):
    """The fault-compatible PR 5 accounting identities."""
    trace = result.trace
    for myp, stats in result.stats.items():
        deco = Decomposition.from_stats(stats)
        assert deco.total() == result.clocks[myp], label
        if result.restarts == 0:
            assert Decomposition.from_trace(trace, myp) == deco, label
    matrix = comm_matrix(trace)
    assert matrix.total_messages == result.total_messages, label
    assert matrix.total_words == result.total_words, label
    for myp, stats in result.stats.items():
        sent = matrix.sent_by(myp)
        assert sent.messages == stats.messages_sent, label
        assert sent.words == stats.words_sent, label
        assert sent.retransmissions == stats.retransmissions, label
    assert unmatched_receives(trace) == [], label
