"""Layer spans recorded from outside the program.

The tracer wraps each layer's entry point under every name it is looked
up by: the defining module, and every module (or package) that bound the
same function object with ``from ... import``.  Methods are wrapped on
their class.  :meth:`Tracer.uninstall` puts every original back.

A span is ``[layer, start, end, parent, request]``: ``parent`` is the
index of the enclosing span (``-1`` for a request's root span) and
``request`` the id of the benchmark request it belongs to.  Spans stay
in memory until :meth:`Tracer.write` stores them at the end of the run.
A layer's self time is its spans' durations minus the time their child
spans cover.  A call that re-enters the layer of the innermost open span
(``emit_c`` recursing, ``send`` called by ``put``) joins that span.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List

#: (layer, defining module, attribute) -- the layer entry points.  Layer
#: names are the repository's module names; each layer's per-layer time
#: metric is ``<layer>_s`` (self time) unless SELF_METRIC names another.
ENTRY_POINTS = (
    ("lang.parse", "repro.lang.parser", "parse"),
    ("dataflow.lwt", "repro.dataflow.lwt", "last_write_tree"),
    ("polyhedra.lexmax", "repro.polyhedra.lexmax", "parametric_lexmax"),
    ("polyhedra.lexmax", "repro.polyhedra.lexmax", "parametric_lexmin"),
    ("polyhedra.omega_feasible", "repro.polyhedra.omega", "integer_feasible"),
    ("polyhedra.fm", "repro.polyhedra.fourier_motzkin", "eliminate"),
    ("polyhedra.fm", "repro.polyhedra.fourier_motzkin", "eliminate_many"),
    ("polyhedra.scan", "repro.polyhedra.scan", "scan"),
    ("core.commsets", "repro.core.commsets", "from_leaf"),
    ("core.commsets", "repro.core.commsets", "initial_comm"),
    ("core.redundancy", "repro.core.redundancy", "eliminate_self_reuse"),
    ("core.redundancy", "repro.core.redundancy", "canonicalize_senders"),
    ("core.aggregation", "repro.core.aggregation", "build_plan"),
    ("codegen.spmd", "repro.codegen.spmd", "generate_spmd"),
    ("codegen.emit_py", "repro.codegen.cast", "compile_node_program"),
    ("codegen.emit_c", "repro.codegen.cast", "emit_c"),
    ("polyhedra.diskcache_get", "repro.polyhedra.diskcache",
     "DiskCache.get_bytes"),
    ("polyhedra.diskcache_put", "repro.polyhedra.diskcache",
     "DiskCache.put_bytes"),
    ("core.serialize_load", "repro.core.serialize", "load_result"),
    ("core.serialize_dump", "repro.core.serialize", "dump_result"),
    ("service.handle", "repro.service.server", "CompileServer.handle_line"),
    ("runtime.validate", "repro.runtime.validate", "check_against_sequential"),
    ("runtime.machine", "repro.runtime.validate", "run_spmd"),
    ("runtime.machine", "repro.runtime.machine", "Machine.run"),
    ("runtime.execute", "repro.runtime.machine", "Processor.execute_stmt"),
    ("runtime.execute", "repro.runtime.machine", "Processor.execute_block"),
    ("runtime.send", "repro.runtime.machine", "Processor.send"),
    ("runtime.send", "repro.runtime.machine", "Processor.multicast"),
    # the event backend finishes every receive here (Processor.recv is
    # the threaded backend's blocking wait, which it never calls)
    ("runtime.recv", "repro.runtime.machine", "Processor._recv_finish"),
    ("runtime.checkpoint", "repro.runtime.checkpoint",
     "CheckpointStore.snapshot"),
    ("ir.interp", "repro.ir.interp", "run"),
    ("ir.live_out", "repro.ir.interp", "live_out_writes"),
)

#: self-time metric name per layer, where it differs from ``<layer>_s``
SELF_METRIC = {
    "codegen.spmd": "codegen.spmd_self_s",
    "service.handle": "service.handle_self_s",
    "runtime.machine": "runtime.machine_self_s",
    "runtime.validate": "runtime.validate_self_s",
    "ir.interp": "ir.interp_s",
}

#: the root span of every benchmark request; its self time is the time
#: no wrapped layer accounts for (harness code and unwrapped callees)
ROOT = "bench"


def self_metric(layer: str) -> str:
    return SELF_METRIC.get(layer, layer + "_s")


class Tracer:
    """Spans and boundary counts for one traced region."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._request = -1
        self._patches: List[tuple] = []
        #: per-layer observers: ``fn(result, args)`` after each span
        self.observers: Dict[str, Callable] = {}
        #: request id -> wall seconds measured around it by the harness
        self.request_totals: Dict[int, float] = {}

    # -- requests ----------------------------------------------------------

    def request(self, fn: Callable, *args, **kwargs):
        """Run ``fn`` as one benchmark request under a root span.

        A request made inside another is part of the outer one.
        """
        if self._stack:
            return fn(*args, **kwargs)
        self._request += 1
        rid = self._request
        start = time.perf_counter()
        try:
            return self._span(ROOT, fn, args, kwargs)
        finally:
            self.request_totals[rid] = time.perf_counter() - start

    def _span(self, layer, fn, args, kwargs):
        spans, stack = self.spans, self._stack
        if stack and spans[stack[-1]][0] == layer:
            return fn(*args, **kwargs)
        record = [layer, 0.0, 0.0, stack[-1] if stack else -1,
                  self._request]
        stack.append(len(spans))
        spans.append(record)
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            stack.pop()
        observe = self.observers.get(layer)
        if observe is not None:
            observe(result, args)
        return result

    # -- wrapping ----------------------------------------------------------

    def install(self) -> None:
        # every (module, name) binding of every loaded function, by id
        bindings: Dict[int, List[tuple]] = defaultdict(list)
        for mod in list(sys.modules.values()):
            for name, value in list(getattr(mod, "__dict__", {}).items()):
                if callable(value):
                    bindings[id(value)].append((mod, name))
        for layer, module_name, attr in ENTRY_POINTS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(layer, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(layer, original)
            for mod, name in bindings[id(original)]:
                self._patch(mod, name, original, wrapper)

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        span = self._span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return span(layer, fn, args, kwargs)

        traced.__wrapped_layer__ = layer
        return traced

    def _patch(self, owner, name, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- accounting --------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Per-layer self time: span durations minus child coverage."""
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent, _rid in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for idx, (layer, start, end, _parent, _rid) in enumerate(self.spans):
            out[layer] += (end - start) - child_time[idx]
        return dict(out)

    def write(self, path: str, stamp: dict) -> None:
        """Store the stamp, then every span (gzip JSON lines)."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"env": stamp}) + "\n")
            for layer, start, end, parent, rid in self.spans:
                fh.write(json.dumps(
                    {"name": layer, "start": start, "end": end,
                     "parent": parent, "request": rid}
                ) + "\n")
