"""End-to-end validation: generated SPMD output vs. sequential semantics.

The strongest whole-system check in the repository: run the node
program on the simulator, then verify that every array element is held
with the correct final value by the processor that owns it -- where the
owner of an element is the processor that executed its last write
(derived from the computation decompositions), or every final owner
under an explicit final data decomposition.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

import numpy as np

from ..decomp import DataDecomp
from ..ir import Program, run
from .checkpoint import CheckpointPolicy
from .faults import FaultPlan
from .machine import CostModel, Machine, RunResult


def run_spmd(
    spmd,
    params: Mapping[str, int],
    initial_data: Optional[Dict[str, DataDecomp]] = None,
    cost: Optional[CostModel] = None,
    seed: int = 0,
    timeout: float = 60.0,
    fault_plan: Optional[FaultPlan] = None,
    reliability=None,
    max_retries: int = 10,
    checkpoint: Optional[CheckpointPolicy] = None,
    max_restarts: int = 3,
    backend: str = "event",
    trace=None,
    checksums: Optional[bool] = None,
    recovery: str = "local",
    log_bytes_cap: Optional[int] = None,
) -> RunResult:
    """Execute a generated SPMD program on the simulator.

    ``fault_plan``/``reliability``/``max_retries`` configure the
    reliability subsystem; ``checkpoint``/``max_restarts`` configure
    fail-stop crash tolerance (see :class:`~.machine.Machine`).
    ``backend`` accepts only ``"event"``, the discrete-event
    scheduler that is the one execution engine.
    ``trace=True`` (or a caller-owned
    :class:`~.trace.TraceBuffer`) records the typed event trace on
    ``RunResult.trace``; off by default and observably free.
    ``checksums`` forces self-checking transports on/off (``None`` =
    auto: on exactly when the plan can corrupt payloads/snapshots).
    ``recovery`` accepts only ``"local"``: a crash restarts only the
    crashed rank, re-served from the sender message log;
    ``log_bytes_cap`` bounds that log per channel (structured
    :class:`~.transport.LogOverflowError` on overflow).
    Defaults keep the historical zero-overhead direct channel.
    """
    machine = Machine(
        spmd.program,
        spmd.space,
        params,
        cost=cost,
        timeout=timeout,
        fault_plan=fault_plan,
        reliability=reliability,
        max_retries=max_retries,
        checkpoint=checkpoint,
        max_restarts=max_restarts,
        backend=backend,
        trace=trace,
        checksums=checksums,
        recovery=recovery,
        log_bytes_cap=log_bytes_cap,
    )
    return machine.run(spmd.node, initial_data=initial_data, seed=seed)


def check_against_sequential(
    spmd,
    comps,
    params: Mapping[str, int],
    initial_data: Optional[Dict[str, DataDecomp]] = None,
    final_data: Optional[Dict[str, DataDecomp]] = None,
    seed: int = 0,
    cost: Optional[CostModel] = None,
    rtol: float = 1e-9,
    fault_plan: Optional[FaultPlan] = None,
    reliability=None,
    max_retries: int = 10,
    timeout: float = 60.0,
    checkpoint: Optional[CheckpointPolicy] = None,
    max_restarts: int = 3,
    backend: str = "event",
    trace=None,
    checksums: Optional[bool] = None,
    recovery: str = "local",
    log_bytes_cap: Optional[int] = None,
) -> RunResult:
    """Run and assert correctness; returns the RunResult on success.

    For every location written during execution, the physical processor
    that executed the last write must hold the sequential value.  With
    ``final_data``, every final owner must hold it instead (requires
    finalization communication in the generated program).

    With a ``fault_plan``, this is the reliability subsystem's
    strongest end-to-end check: the generated program must produce the
    exact sequential answer *through* a lossy, duplicating, reordering
    network.
    """
    program: Program = spmd.program
    writers: dict = {}
    expected = run(program, params, seed=seed, writers=writers)
    result = run_spmd(
        spmd,
        params,
        initial_data=initial_data,
        seed=seed,
        cost=cost,
        timeout=timeout,
        fault_plan=fault_plan,
        reliability=reliability,
        max_retries=max_retries,
        checkpoint=checkpoint,
        max_restarts=max_restarts,
        backend=backend,
        trace=trace,
        checksums=checksums,
        recovery=recovery,
        log_bytes_cap=log_bytes_cap,
    )
    space = spmd.space
    stmts = {stmt.name: stmt for stmt in program.statements()}
    # every (location, owner) pair in live-out order, compared at once
    checked = []
    for (array_name, location), write in writers.items():
        if final_data and array_name in final_data:
            decomp = final_data[array_name]
            owners = [
                decomp.space.to_physical(tuple(o), params)
                for o in decomp.owners(location, params)
            ]
        else:
            env = dict(params)
            env.update(zip(stmts[write.stmt].iter_vars, write.iteration))
            virtual = comps[write.stmt].owner(env)
            owners = [space.to_physical(virtual, params)]
        want = expected[array_name][location]
        for owner in owners:
            got = result.arrays[tuple(owner)][array_name][location]
            checked.append((array_name, location, tuple(owner), want, got))
    close = np.isclose(
        np.array([c[4] for c in checked]),
        np.array([c[3] for c in checked]),
        rtol=rtol,
        equal_nan=False,
    )
    mismatches = [c for c, ok in zip(checked, close) if not ok]
    if mismatches:
        sample = mismatches[:10]
        raise AssertionError(
            f"{len(mismatches)} owned locations hold wrong values; "
            f"first: {sample}"
        )
    return result
