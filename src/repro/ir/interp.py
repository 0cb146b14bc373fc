"""Sequential reference execution and dataflow oracle.

``run`` executes a program sequentially on dense numpy arrays -- the
semantics every generated SPMD program must reproduce.  It and
``live_out_writes`` run the loop nest compiled to Python source once
per call (:mod:`.compiled`).  ``run_traced`` walks the IR tree and
additionally records, for every dynamic read instance, the write
instance that produced the value read.  That trace is exactly the
ground truth a Last Write Tree must predict, so tests can validate the
LWT analysis against observed execution on small parameter values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from .compiled import compile_program
from .loops import Statement
from .program import Program


@dataclass(frozen=True)
class WriteInstance:
    """A dynamic write: statement name + iteration vector."""

    stmt: str
    iteration: Tuple[int, ...]


@dataclass(frozen=True)
class ReadInstance:
    """A dynamic read: statement, iteration, which read access, location."""

    stmt: str
    iteration: Tuple[int, ...]
    access_index: int
    location: Tuple[int, ...]


@dataclass
class Trace:
    """Observed last-write relation: read instance -> write instance or None."""

    last_writer: Dict[ReadInstance, Optional[WriteInstance]] = field(
        default_factory=dict
    )
    write_count: int = 0
    read_count: int = 0


def allocate_arrays(
    program: Program,
    params: Mapping[str, int],
    seed: int = 0,
) -> Dict[str, np.ndarray]:
    """Fresh arrays with reproducible pseudo-random initial contents.

    Initial contents are nontrivial so that dataflow mistakes (reading a
    stale or foreign value) change results detectably.
    """
    rng = np.random.default_rng(seed)
    arrays: Dict[str, np.ndarray] = {}
    for array in program.arrays.values():
        shape = array.shape(params)
        arrays[array.name] = rng.uniform(0.5, 2.0, size=shape)
    return arrays


def run(
    program: Program,
    params: Mapping[str, int],
    arrays: Optional[Dict[str, np.ndarray]] = None,
    seed: int = 0,
    writers: Optional[Dict[Tuple[str, Tuple[int, ...]], WriteInstance]] = None,
) -> Dict[str, np.ndarray]:
    """Execute sequentially; returns the (mutated) arrays.

    Passing a dict as ``writers`` also fills it, in the same pass, with
    the live-out map :func:`live_out_writes` returns.
    """
    if arrays is None:
        arrays = allocate_arrays(program, params, seed)
    if writers is None:
        compile_program(program)(params, arrays, None)
    else:
        raw: dict = {}
        compile_program(program, record=True)(params, arrays, raw)
        writers.update(_write_instances(raw))
    return arrays


def _write_instances(raw: dict):
    for key, (stmt, *iteration) in raw.items():
        yield key, WriteInstance(stmt, tuple(iteration))


def run_traced(
    program: Program,
    params: Mapping[str, int],
    arrays: Optional[Dict[str, np.ndarray]] = None,
    seed: int = 0,
) -> Tuple[Dict[str, np.ndarray], Trace]:
    """Execute sequentially while recording the exact last-write relation."""
    if arrays is None:
        arrays = allocate_arrays(program, params, seed)
    env: Dict[str, int] = dict(params)
    trace = Trace()
    writers: Dict[Tuple[str, Tuple[int, ...]], WriteInstance] = {}

    def walk(nodes):
        for node in nodes:
            if isinstance(node, Statement):
                iteration = tuple(env[v] for v in node.iter_vars)
                for ridx, access in enumerate(node.reads):
                    loc = access.evaluate(env)
                    key = (access.array.name, loc)
                    read = ReadInstance(node.name, iteration, ridx, loc)
                    trace.last_writer[read] = writers.get(key)
                    trace.read_count += 1
                node.execute(arrays, env)
                wloc = node.lhs.evaluate(env)
                writers[(node.lhs.array.name, wloc)] = WriteInstance(
                    node.name, iteration
                )
                trace.write_count += 1
            else:
                low = node.lower.evaluate(env)
                high = node.upper.evaluate(env)
                for value in range(low, high + 1):
                    env[node.var] = value
                    walk(node.body)
                env.pop(node.var, None)

    walk(program.body)
    return arrays, trace


def live_out_writes(
    program: Program, params: Mapping[str, int]
) -> Dict[Tuple[str, Tuple[int, ...]], WriteInstance]:
    """Which write instance owns each location at program exit.

    The ground truth for finalization (Section 4.4.3): locations never
    written do not appear in the result.  No statement body runs.
    """
    raw: dict = {}
    compile_program(program, body=False, record=True)(params, None, raw)
    return dict(_write_instances(raw))
