"""The compiled sequential oracle against a tree-walking reference.

``run`` and ``live_out_writes`` execute the loop nest compiled to Python
source (``repro.ir.compiled``); ``Statement.execute`` runs a compiled
instance function.  ``reference`` below is the per-instance interpreter
they replaced: ``Access.evaluate`` plus ``stmt.fn``.  Every case must
give bit-identical arrays and an equal live-out map.
"""

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings

from repro.codegen import SPMDOptions
from repro.core import canonical_bytes, compile_distributed, dump_result
from repro.decomp import block_loop
from repro.ir import (
    Access,
    Array,
    Loop,
    Program,
    Statement,
    WriteInstance,
    allocate_arrays,
    live_out_writes,
    run,
)
from repro.lang import parse
from repro.polyhedra import LinExpr, var
from repro.runtime import CheckpointPolicy, check_against_sequential
from repro.runtime.chaos import WORKLOADS
from tests.codegen.test_spmd_property import (
    random_pipeline_program,
    random_selfref_program,
)


def reference(program, params, arrays):
    """The tree walk: per-instance ``Access.evaluate`` and ``stmt.fn``."""
    env, writers = dict(params), {}

    def walk(nodes):
        for node in nodes:
            if isinstance(node, Statement):
                values = [arrays[a.array.name][a.evaluate(env)] for a in node.reads]
                loc = node.lhs.evaluate(env)
                arrays[node.lhs.array.name][loc] = node.fn(values, env)
                writers[(node.lhs.array.name, loc)] = WriteInstance(
                    node.name, tuple(env[v] for v in node.iter_vars))
                continue
            for value in range(node.lower.evaluate(env), node.upper.evaluate(env) + 1):
                env[node.var] = value
                walk(node.body)
            env.pop(node.var, None)

    walk(program.body)
    return arrays, writers


def assert_matches_reference(program, params, seed=0):
    want, want_writers = reference(
        program, params, allocate_arrays(program, params, seed)
    )
    writers = {}
    got = run(program, params, seed=seed, writers=writers)
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name
    # equal maps, in the same (first-write) order
    assert list(writers.items()) == list(want_writers.items())
    assert list(live_out_writes(program, params).items()) == list(
        want_writers.items()
    )
    plain = run(program, params, seed=seed)
    for name in want:
        assert plain[name].tobytes() == want[name].tobytes(), name


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_conformance_programs(name):
    scenario = WORKLOADS[name]
    assert_matches_reference(
        parse(scenario.source, name=name), scenario.params, seed=3
    )


class TestGeneratedNests:
    @settings(max_examples=15, deadline=None)
    @given(random_pipeline_program())
    def test_pipelines(self, case):
        src, _block, nprocs = case
        assert_matches_reference(parse(src), {"P": nprocs})

    @settings(max_examples=15, deadline=None)
    @given(random_selfref_program())
    def test_self_reference(self, case):
        src, _block, nprocs = case
        assert_matches_reference(parse(src), {"P": nprocs})


BOUNDS = """
array A[N + 12]
assume N >= 0
for i = 0 - 3 to N - 5 do
  A[i + 3] = A[i + 4] + i
for j = N to 2 do
  A[j] = A[j + 1] * 2
for k = 0 to N do
  for m = k + 2 to k + 1 do
    A[m] = 7
  A[k - N - 1] = A[k] + k
"""


@pytest.mark.parametrize("n", [0, 1, 3, 7])
def test_empty_ranges_and_negative_bounds(n):
    # ``A[k - N - 1]`` indexes from the end: numpy's wrap-around, the
    # same in both
    assert_matches_reference(parse(BOUNDS), {"N": n})


def test_guarded_statements():
    src = """
array X[N + 1]
array Y[N + 1]
assume N >= 3
for i = 0 to N do
  if X[i] > X[0] then
    X[i] = X[0]
    Y[i] = X[i] + Y[i]
"""
    assert_matches_reference(parse(src), {"N": 11}, seed=5)


def test_opaque_call_reading_loop_variables():
    src = """
array A[N + 1][N + 1]
assume N >= 2
for i = 1 to N do
  for j = 0 to i do
    A[i][j] = g(A[i - 1][j], i, j * 2) + i - j
"""
    assert_matches_reference(parse(src), {"N": 9})


def test_four_deep_nest():
    src = """
array A[N + 1][N + 1][N + 1]
array S[N + 1]
assume N >= 1
for a = 0 to N do
  for b = a to N do
    for c = 0 to b - a do
      for d = c to N do
        A[a][b][c] = A[a][b][c] + A[b][c][d] * d
        S[d] = S[d] + A[a][b][c]
"""
    assert_matches_reference(parse(src), {"N": 4})


def test_colliding_names_parse():
    src = """
array env[range + 3]
array fn[range + 3]
for _v0 = 0 to range do
  for _a0 = 0 to _v0 do
    env[_a0 + 1] = fn[_v0] + env[_a0] + _v0
    fn[_v0 + 1] = g(env[_v0], _a0)
"""
    assert_matches_reference(parse(src), {"range": 6})


def _recording_fn(log):
    """A plain Python callable (no ``fn_spec``) that logs the ``env`` it
    is handed and depends on it."""

    def fn(values, env):
        log.append(tuple(sorted(env.items())))
        return sum(values) + sum(env.values()) * 0.5

    return fn


def _odd_names_program(fn):
    """Loop, array and parameter names that are no Python identifiers."""
    arr = Array("x-y", (LinExpr({"N'": 1}, 2), LinExpr({"N'": 1}, 2)))
    out = Array("out put", (LinExpr({"N'": 1}, 2),))
    i, j = var("loop i"), var("env")
    stmt = Statement(
        Access(arr, (i + 1, j)), [Access(arr, (i, j)), Access(out, (j,))], fn
    )
    tail = Statement(Access(out, (i,)), [Access(arr, (i, i))], fn)
    inner = Loop("env", LinExpr({"loop i": 1}), LinExpr({"N'": 1}), [stmt])
    return Program(
        "odd",
        [Loop("loop i", 0, LinExpr({"N'": 1}), [inner, tail])],
        params=("N'",),
    )


def test_non_identifier_names_and_plain_callable():
    ref_log, log = [], []
    ref_prog = _odd_names_program(_recording_fn(ref_log))
    prog = _odd_names_program(_recording_fn(log))
    params = {"N'": 4}
    want, want_writers = reference(
        ref_prog, params, allocate_arrays(ref_prog, params, 1)
    )
    writers = {}
    got = run(prog, params, seed=1, writers=writers)
    for name in want:
        assert got[name].tobytes() == want[name].tobytes()
    assert list(writers.items()) == list(want_writers.items())
    # fn saw exactly the environment the tree walk hands it
    assert log == ref_log and log
    assert live_out_writes(prog, params) == want_writers


def test_missing_parameter_raises_key_error():
    program = parse(WORKLOADS["fig2"].source)
    with pytest.raises(KeyError, match="T"):
        run(program, {"N": 10})
    with pytest.raises(KeyError, match="T"):
        live_out_writes(program, {"N": 10})


def test_live_out_writes_calls_no_fn():
    calls = []
    prog = _odd_names_program(_recording_fn(calls))
    assert live_out_writes(prog, {"N'": 3})
    assert calls == []


def test_statement_execute_matches_evaluate():
    program = parse(WORKLOADS["lu"].source)
    params = {"N": 6}
    arrays = allocate_arrays(program, params, 2)
    want = {k: v.copy() for k, v in arrays.items()}
    s2 = program.statement("s2")
    env = dict(params, i1=1, i2=3, i3=4)
    s2.execute(arrays, env)
    values = [want[a.array.name][a.evaluate(env)] for a in s2.reads]
    want["X"][s2.lhs.evaluate(env)] = s2.fn(values, env)
    assert arrays["X"].tobytes() == want["X"].tobytes()


def test_ir_imports_nothing_from_codegen():
    """The oracle is independent of the code it checks: loading
    ``repro.ir`` (without the package's eager ``__init__``) and running
    it pulls in no ``repro.codegen`` module."""
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    code = f"""
import sys, types
pkg = types.ModuleType("repro")
pkg.__path__ = [{os.path.join(os.path.abspath(src), "repro")!r}]
sys.modules["repro"] = pkg
import repro.ir
from repro.lang import parse
prog = parse({WORKLOADS["lu"].source!r})
arrays = repro.ir.run(prog, {{"N": 4}}, writers={{}})
repro.ir.live_out_writes(prog, {{"N": 4}})
prog.statements()[0].execute(arrays, {{"N": 4, "i1": 0, "i2": 1}})
print(sorted(m for m in sys.modules if m.startswith("repro.codegen")))
"""
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"


class TestCompiledStatementPickling:
    """A statement whose compiled ``execute`` function is cached still
    pickles, and the cache leaves no trace in compile artifacts."""

    def test_cached_function_is_not_state(self):
        program = parse(WORKLOADS["fig8"].source, name="fig8")
        stmt = program.statements()[0]
        comps = {stmt.name: block_loop(stmt, ["i"], [16])}
        result = compile_distributed(
            program, comps, options=SPMDOptions(vectorize=True)
        )
        # canonical_bytes first: calling it can itself change the
        # dump_result bytes that follow (pickle memo sharing)
        canon = canonical_bytes(result)
        dumped = dump_result(result)
        params = WORKLOADS["fig8"].params
        # a checkpoint policy pins the scalar per-statement path
        check_against_sequential(
            result.spmd, comps, params,
            checkpoint=CheckpointPolicy(every_ops=25),
        )
        assert stmt._compiled is not None
        assert stmt.vector_fn is None
        assert dump_result(result) == dumped
        assert canonical_bytes(result) == canon

        clone = pickle.loads(pickle.dumps(stmt))
        assert clone._compiled is None
        arrays = allocate_arrays(program, params, 4)
        copies = {k: v.copy() for k, v in arrays.items()}
        env = dict(params, t=1, i=9)
        stmt.execute(arrays, env)
        clone.execute(copies, env)
        assert arrays["X"].tobytes() == copies["X"].tobytes()
        assert not np.array_equal(
            arrays["X"], allocate_arrays(program, params, 4)["X"]
        )
