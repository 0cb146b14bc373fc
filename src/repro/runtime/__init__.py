"""Distributed-memory machine simulator (substitute for the iPSC/860).

Layered as a small distributed runtime:

* :mod:`~repro.runtime.machine` -- processors, clocks, cost model,
  PGAS-style put/get windows with fences;
* :mod:`~repro.runtime.scheduler` -- the discrete-event scheduler that
  runs every processor as a coroutine;
* :mod:`~repro.runtime.transport` -- direct / unreliable / reliable
  message transports (sequence numbers, ack/retransmit, dedup);
* :mod:`~repro.runtime.faults` -- deterministic fault injection
  (network faults and fail-stop processor crashes);
* :mod:`~repro.runtime.checkpoint` -- checkpoint/restart of the
  crashed processor for crash tolerance;
* :mod:`~repro.runtime.diagnostics` -- progress monitoring, structured
  deadlock and crash reports;
* :mod:`~repro.runtime.collective` -- all-to-all data reorganization;
* :mod:`~repro.runtime.trace` / :mod:`~repro.runtime.analysis` --
  typed event tracing with comm-matrix, makespan-decomposition and
  critical-path analyses (Chrome ``trace_event`` export);
* :mod:`~repro.runtime.chaos` -- deterministic fault-space exploration
  with shrinking minimal reproducers;
* :mod:`~repro.runtime.validate` -- validation against sequential
  execution.
"""

from .analysis import (
    CommEdge,
    CommMatrix,
    CriticalPath,
    Decomposition,
    comm_matrix,
    critical_path,
    decompose,
    summarize,
)
from .checkpoint import CheckpointPolicy, CheckpointStore
from .collective import CollectiveStats, ReorganizeError, reorganize
from .diagnostics import (
    CrashError,
    CrashEvent,
    CrashReport,
    DeadlockError,
    DeadlockReport,
    ProgressMonitor,
)
from .faults import FaultPlan, ProcessorCrashed
from .machine import (
    CostModel,
    Machine,
    ProcStats,
    Processor,
    RunResult,
)
from .chaos import (
    ChaosFinding,
    ChaosReport,
    explore,
    load_reproducer,
    replay_reproducer,
)
from .scheduler import EventScheduler
from .trace import TraceBuffer, TraceEvent, match_messages
from .transport import (
    CorruptionError,
    DirectTransport,
    Envelope,
    LogOverflowError,
    LogRecord,
    MessageLog,
    ReliableTransport,
    Transport,
    TransportError,
    UnreliableTransport,
    payload_checksum,
)
from .validate import check_against_sequential, run_spmd

__all__ = [
    "ChaosFinding",
    "ChaosReport",
    "CheckpointPolicy",
    "CheckpointStore",
    "CollectiveStats",
    "CommEdge",
    "CommMatrix",
    "EventScheduler",
    "CorruptionError",
    "CostModel",
    "CriticalPath",
    "Decomposition",
    "CrashError",
    "CrashEvent",
    "CrashReport",
    "DeadlockError",
    "DeadlockReport",
    "DirectTransport",
    "Envelope",
    "FaultPlan",
    "LogOverflowError",
    "LogRecord",
    "Machine",
    "MessageLog",
    "ProcStats",
    "Processor",
    "ProcessorCrashed",
    "ProgressMonitor",
    "ReliableTransport",
    "ReorganizeError",
    "RunResult",
    "TraceBuffer",
    "TraceEvent",
    "Transport",
    "TransportError",
    "UnreliableTransport",
    "check_against_sequential",
    "comm_matrix",
    "critical_path",
    "decompose",
    "explore",
    "load_reproducer",
    "match_messages",
    "payload_checksum",
    "replay_reproducer",
    "reorganize",
    "run_spmd",
    "summarize",
]
