"""Affine loop-nest intermediate representation.

Programs in the paper's domain (Section 4.1): loop nests with affine
bounds, statements with affine array accesses, symbolic parameters.
Includes the sequential reference execution that defines the
semantics every generated SPMD program must match (loop nests compiled
to Python source, ``compiled.py``), and a traced tree-walking variant
that observes the exact last-write relation for validating the
dataflow analysis.
"""

from .arrays import Access, Array
from .interp import (
    ReadInstance,
    Trace,
    WriteInstance,
    allocate_arrays,
    live_out_writes,
    run,
    run_traced,
)
from .loops import Loop, Statement, common_loops, textually_before
from .program import Program

__all__ = [
    "Access",
    "Array",
    "Loop",
    "Program",
    "ReadInstance",
    "Statement",
    "Trace",
    "WriteInstance",
    "allocate_arrays",
    "common_loops",
    "live_out_writes",
    "run",
    "run_traced",
    "textually_before",
]
