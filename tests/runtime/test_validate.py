"""check_against_sequential's owner check reports exactly the wrong
owned locations."""

import re

import pytest

from repro.codegen import generate_spmd
from repro.decomp import block_loop
from repro.lang import parse
from repro.runtime import check_against_sequential
from repro.runtime import validate as validate_mod
from tests.runtime.trace_workloads import FIG2_SRC


def test_one_wrong_owned_location_is_reported(monkeypatch):
    program = parse(FIG2_SRC, name="figure2")
    stmt = program.statements()[0]
    comps = {stmt.name: block_loop(stmt, ["i"], [16])}
    spmd = generate_spmd(program, comps)
    run_spmd = validate_mod.run_spmd

    def corrupting(*args, **kwargs):
        result = run_spmd(*args, **kwargs)
        # X[10] is last written in block 0, so processor (0,) owns it
        result.arrays[(0,)]["X"][10] += 1.0
        return result

    monkeypatch.setattr(validate_mod, "run_spmd", corrupting)
    with pytest.raises(AssertionError) as info:
        check_against_sequential(spmd, comps, {"N": 70, "T": 2, "P": 3})
    message = str(info.value)
    assert message.startswith("1 owned locations hold wrong values; first: [")
    assert re.search(r"\[\('X', \(10,\), \(0,\), ", message)
    assert message.count("('X'") == 1
