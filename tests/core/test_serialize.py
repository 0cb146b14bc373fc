"""Stable serialization of compile artifacts (repro.core.serialize).

The cache's correctness rests on three properties tested here: results
round-trip through bytes bit-identically (including the executable node
program), the canonical rendering is deterministic across compiles, and
version skew or damage raises ``SerializeError`` (which the disk cache
treats as a miss) instead of yielding a wrong artifact.
"""

import pickle

import pytest

from repro import block_loop, check_against_sequential, parse
from repro.codegen import SPMDOptions
from repro.core import (
    SCHEMA_VERSION,
    SerializeError,
    canonical_bytes,
    compile_distributed,
    dump_result,
    job_key,
    load_result,
    results_equal,
)
from repro.core.serialize import check_program_picklable
from repro.ir import Statement

FIG2 = """
array X[N + 1]
assume N >= 3
assume T >= 0
for t = 0 to T do
  for i = 3 to N do
    X[i] = X[i - 3]
"""

FIG8 = """
array X[N + 1]
assume N >= 3
assume T >= 0
for t = 0 to T do
  for i = 3 to N do
    X[i] = f(X[i], X[i - 1], X[i - 2], X[i - 3])
"""


def _compiled(src, block=16, options=None):
    program = parse(src, name="unit")
    stmt = program.statements()[0]
    comps = {stmt.name: block_loop(stmt, ["i"], [block])}
    return program, comps, compile_distributed(
        program, comps, options=options
    )


class TestRoundTrip:
    def test_round_trip_is_bit_identical(self):
        _, _, result = _compiled(FIG2)
        clone = load_result(dump_result(result))
        assert results_equal(result, clone)
        assert clone.spmd.c_text == result.spmd.c_text
        assert clone.spmd.source == result.spmd.source
        assert clone.schema_version == SCHEMA_VERSION

    def test_round_trip_preserves_poly_stats_and_timing(self):
        _, _, result = _compiled(FIG2)
        clone = load_result(dump_result(result))
        assert clone.poly_stats == result.poly_stats
        assert clone.compile_seconds == result.compile_seconds

    def test_dump_does_not_depend_on_call_history(self):
        """Systems pickle without their lazily cached canonical form, so
        computing ``canonical_bytes`` first cannot change the dump."""
        _, _, result = _compiled(FIG8, block=8)
        before = dump_result(result)
        canon = canonical_bytes(result)
        assert dump_result(result) == before
        assert canonical_bytes(load_result(before)) == canon

    def test_reloaded_node_program_executes(self):
        """The node function is rebuilt from source; the rebuilt
        program must still validate against sequential execution."""
        _, comps, result = _compiled(FIG2)
        clone = load_result(dump_result(result))
        outcome = check_against_sequential(
            clone.spmd, comps, {"N": 40, "T": 1, "P": 3}
        )
        assert outcome.makespan > 0

    def test_opaque_call_statements_round_trip(self):
        """fig8's f(...) call parses to an fn_spec like any other RHS."""
        _, comps, result = _compiled(FIG8)
        clone = load_result(dump_result(result))
        assert results_equal(result, clone)
        outcome = check_against_sequential(
            clone.spmd, comps, {"N": 24, "T": 1, "P": 2}
        )
        assert outcome.makespan > 0


class TestEquality:
    def test_recompile_is_canonical_equal(self):
        """Two fresh compiles of the same job render identically --
        fresh-name counters reset per compile, interning history does
        not leak into the canonical form."""
        _, _, a = _compiled(FIG2)
        _, _, b = _compiled(FIG2)
        assert results_equal(a, b)
        assert canonical_bytes(a) == canonical_bytes(b)

    def test_different_jobs_are_not_equal(self):
        _, _, a = _compiled(FIG2, block=16)
        _, _, b = _compiled(FIG2, block=32)
        assert not results_equal(a, b)

    def test_options_change_inequality(self):
        _, _, a = _compiled(FIG2)
        _, _, b = _compiled(FIG2, options=SPMDOptions(aggregate=False))
        assert not results_equal(a, b)


class TestJobKey:
    def test_same_job_same_key(self):
        pa = parse(FIG2, name="unit")
        sa = pa.statements()[0]
        ca = {sa.name: block_loop(sa, ["i"], [16])}
        pb = parse(FIG2, name="unit")
        sb = pb.statements()[0]
        cb = {sb.name: block_loop(sb, ["i"], [16])}
        assert job_key(pa, ca) == job_key(pb, cb)

    def test_block_size_changes_key(self):
        program = parse(FIG2, name="unit")
        stmt = program.statements()[0]
        k16 = job_key(program, {stmt.name: block_loop(stmt, ["i"], [16])})
        k32 = job_key(program, {stmt.name: block_loop(stmt, ["i"], [32])})
        assert k16 != k32

    def test_options_change_key(self):
        program = parse(FIG2, name="unit")
        stmt = program.statements()[0]
        comps = {stmt.name: block_loop(stmt, ["i"], [16])}
        assert job_key(program, comps) != job_key(
            program, comps, options=SPMDOptions(multicast=False)
        )
        # explicit defaults == omitted options
        assert job_key(program, comps) == job_key(
            program, comps, options=SPMDOptions()
        )


class TestSchemaGuard:
    def test_truncated_bytes_raise(self):
        _, _, result = _compiled(FIG2)
        blob = dump_result(result)
        with pytest.raises(SerializeError):
            load_result(blob[: len(blob) // 2])

    def test_garbage_bytes_raise(self):
        with pytest.raises(SerializeError):
            load_result(b"not an artifact")

    def test_schema_mismatch_raises(self):
        _, _, result = _compiled(FIG2)
        payload = pickle.loads(dump_result(result))
        payload["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(SerializeError, match="schema"):
            load_result(pickle.dumps(payload))

    def test_payload_without_schema_raises(self):
        with pytest.raises(SerializeError):
            load_result(pickle.dumps({"spmd": {}}))

    def test_raw_callable_statement_is_uncacheable(self):
        program = parse(FIG2, name="unit")
        stmt = program.statements()[0]
        stmt.fn_spec = None  # as if built from a raw Python callable
        with pytest.raises(SerializeError, match="fn_spec"):
            check_program_picklable(program)


class TestStatementPickling:
    def test_parsed_statement_round_trips_executable(self):
        program = parse(FIG8, name="unit")
        stmt = program.statements()[0]
        clone = pickle.loads(pickle.dumps(stmt))
        assert isinstance(clone, Statement)
        assert clone.fn is not None
        values = [2.0, 3.0, 4.0, 5.0]
        assert clone.fn(values, {}) == stmt.fn(values, {})
