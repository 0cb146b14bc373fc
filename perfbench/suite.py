"""The benchmark's four workloads.

Each workload has a set-up (timed, repeated for ``setup_s``), a unit of
timed work repeated for ``--seconds``, and checks that run outside every
timed region.  Every timed call goes through
:meth:`Clock.measure`, which makes it one traced request when a tracer
is on.  The workloads call only public entry points: ``parse`` (through
the paper builders), ``generate_spmd``/``compile_distributed``,
``CompileServer.handle_line``, ``run_spmd`` and
``check_against_sequential``.  The programs and decompositions come from
``benchmarks/workloads.py`` and the compile catalog from
``benchmarks/bench_compile_service.py``, reused rather than copied.
"""

from __future__ import annotations

import gc
import json
import random
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

import workloads as paper  # benchmarks/workloads.py
from bench_compile_service import CATALOG
from repro.codegen import SPMDOptions
from repro.core import compile_distributed
from repro.core.serialize import canonical_bytes
from repro.lang import parse
from repro.polyhedra import (
    diskcache,
    feasibility_cache_clear,
    projection_cache_clear,
)
from repro.runtime import (
    CheckpointPolicy,
    CrashError,
    DeadlockError,
    FaultPlan,
    TransportError,
    check_against_sequential,
    run_spmd,
)
from repro.service import CompileServer
from repro.service.server import comps_from_blocks

#: what counts as one failed operation (it does not abort the run): a
#: failed validation or a structured runtime error
RUN_FAILURES = (AssertionError, DeadlockError, CrashError, TransportError)

#: small parameters for validating every catalog program, the ones the
#: conformance suites pin (tests/runtime/trace_workloads.py)
SMALL = {
    "fig2": {"N": 70, "T": 2, "P": 3},
    "fig8": {"N": 70, "T": 2, "P": 3},
    "lu": {"N": 24, "P": 3},
    "pipe": {"N": 44, "P": 2},
    "stencil": {"N": 64, "T": 3, "P": 2},
}

#: the LU N=96 P=16 row of BENCH_runtime.json's ``overlap`` section
#: (``makespan_base``, ``messages``); run_clean must reproduce it
LU_OVERLAP_MAKESPAN = 162959.0
LU_OVERLAP_MESSAGES = 2798

#: rounds of small validation runs (one between units, the rest at the
#: end); the per-case median is what ``simulate_s``/``checked_run_s`` sum
VALIDATION_REPEATS = 5

RUN = {"cost": paper.IPSC, "backend": "event"}

#: a model time rank 1 reaches in the probe's fig2 run
PROBE_CRASH_AT = 1500.0


#: the reference workload's time on the nominal host, how often it is
#: sampled (host seconds between samples) and how many recent samples
#: give the current host speed
REFERENCE_MS = 5.0
REFERENCE_EVERY = 0.25
REFERENCE_WINDOW = 8


def reference_work():
    """A fixed piece of plain Python (dicts, tuples, calls, a sort).

    It uses no repository code, so no change to the program moves it;
    only the speed of the host does.
    """
    table = {}
    for i in range(3000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i * i % 7
    return sorted(table.items(), key=lambda kv: (kv[1], kv[0]))[0]


class HostSpeed:
    """Samples :func:`reference_work` between requests.

    The host's speed drifts by tens of percent within a minute (see
    README.md), and the drift moves the reference and the program alike.
    ``factor`` is the nominal over the recent reference time.
    """

    def __init__(self):
        self.samples: List[float] = []
        self._last = float("-inf")

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last < REFERENCE_EVERY:
            return
        start = time.perf_counter()
        reference_work()
        self._last = time.perf_counter()
        self.samples.append(self._last - start)

    def factor(self) -> float:
        recent = self.samples[-REFERENCE_WINDOW:]
        return REFERENCE_MS / 1e3 / statistics.median(recent)


class Clock:
    """Times benchmark requests; with a tracer, each is one traced request.

    With ``rescale``, it samples the host's speed between outermost
    requests and reports each request's time rescaled to the nominal
    host: seconds on a host where :func:`reference_work` takes
    ``REFERENCE_MS``.  Traced runs keep raw host time.
    """

    def __init__(self, tracer=None, rescale=False):
        self.tracer = tracer
        self.host = HostSpeed() if rescale else None
        self.raw_total = self.reported_total = 0.0
        self._depth = 0

    def measure(self, fn, *args, **kwargs):
        if self._depth == 0 and self.host is not None:
            self.host.maybe_sample()
        self._depth += 1
        start = time.perf_counter()
        try:
            if self.tracer is None:
                result = fn(*args, **kwargs)
            else:
                result = self.tracer.request(fn, *args, **kwargs)
        finally:
            self._depth -= 1
        raw = time.perf_counter() - start
        secs = raw if self.host is None else raw * self.host.factor()
        if self._depth == 0:
            self.raw_total += raw
            self.reported_total += secs
        return result, secs

    def factor(self) -> float:
        """Reported over raw time, over every outermost request."""
        return self.reported_total / self.raw_total


@dataclass
class Record:
    """Everything one workload process measured and checked."""

    setup: List[float] = field(default_factory=list)
    #: compile seconds by case; ``compile_s`` sums the case medians
    compile: Dict[str, List[float]] = field(default_factory=dict)
    requests: List[float] = field(default_factory=list)
    units: List[float] = field(default_factory=list)
    simulate: Dict[str, List[float]] = field(default_factory=dict)
    checked: Dict[str, List[float]] = field(default_factory=dict)
    exact: Dict[str, float] = field(default_factory=dict)
    case_exact: Dict[str, tuple] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: Dict[str, bool] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    extra: Dict[str, tuple] = field(default_factory=dict)

    def check(self, name: str, ok: bool) -> None:
        """A named check holds only if it held every time it was made."""
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        self.errors.append(f"{what}: {type(exc).__name__}: {exc}")

    def set_exact(self, name: str, value: float) -> None:
        """An exact metric; every unit must reproduce it."""
        if name in self.exact:
            self.check(f"{name} identical across passes",
                       self.exact[name] == value)
        self.exact[name] = value


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (the one the compile server reports)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def validate(clock, record, cases, seed, repeats):
    """Time ``run_spmd`` and ``check_against_sequential`` on each case.

    ``cases`` holds ``(case, spmd, comps, params, run_kwargs)``.  The
    repeats go round the cases, so each case's samples spread over the
    whole validation rather than one moment of the host.  Each repeat is
    two operations.  A case's model numbers must repeat exactly and
    match its checked run's.  Returns the last run of each case.
    """
    last = {}
    for _ in range(repeats):
        gc.collect()  # so no round inherits another phase's garbage
        for case, spmd, comps, params, run_kw in cases:
            run = _validate_once(clock, record, case, spmd, comps, params,
                                 seed, run_kw)
            if run is not None:
                last[case] = run
    return last


def _validate_once(clock, record, case, spmd, comps, params, seed, run_kw):
    record.attempted += 2
    try:
        run, sim = clock.measure(
            run_spmd, spmd, params, seed=seed, **RUN, **run_kw
        )
    except RUN_FAILURES as exc:
        record.fail(f"{case} run_spmd", exc)
        run = None
    else:
        record.simulate.setdefault(case, []).append(sim)
    try:
        checked, secs = clock.measure(
            check_against_sequential, spmd, comps, params, seed=seed,
            **RUN, **run_kw,
        )
    except RUN_FAILURES as exc:
        record.fail(f"{case} check_against_sequential", exc)
        return None
    record.checked.setdefault(case, []).append(secs)
    if run is None:
        return None
    numbers = (run.makespan, run.total_messages, run.total_words)
    record.check(f"{case}: checked run repeats the run's model numbers",
                 numbers == (checked.makespan, checked.total_messages,
                             checked.total_words))
    if case in record.case_exact:
        record.check(f"{case}: model numbers repeat exactly",
                     record.case_exact[case] == numbers)
    record.case_exact[case] = numbers
    return run


def total_model_numbers(record) -> None:
    """Sum the per-case model numbers into the exact metrics."""
    values = list(record.case_exact.values())
    record.exact["model_makespan"] = sum(v[0] for v in values)
    record.exact["messages"] = sum(v[1] for v in values)
    record.exact["words"] = sum(v[2] for v in values)


class Workload:
    name = ""
    #: units the timed loop runs at least, whatever ``--seconds`` says
    min_units = 2
    #: set-ups per run; ``setup_s`` and a set-up's ``compile_s`` are
    #: their medians
    setups = 5

    def __init__(self, smoke: bool = False, workdir: Optional[str] = None):
        self.smoke = smoke
        self.workdir = workdir

    def setup(self, clock, seed, record):
        raise NotImplementedError

    def unit(self, clock, state, record) -> None:
        raise NotImplementedError

    def enough(self, record) -> bool:
        """Whether the timed loop has the samples its metrics need."""
        return True

    def sample(self, clock, state, record, progress) -> None:
        """Work spread over the timed loop, run between units;
        ``progress`` is the share of ``--seconds`` gone."""

    def check(self, clock, state, record) -> None:
        raise NotImplementedError

    def checks(self, clock, state, record) -> None:
        """The workload's checks, then the whole-path probe."""
        self.check(clock, state, record)
        path_probe(clock, record, self.workdir, state["seed"])

    def teardown(self, state) -> None:
        pass


class _Validated:
    """Validation rounds spread evenly over the timed loop; ``check``
    runs the rounds the loop did not reach."""

    def sample(self, clock, state, record, progress):
        due = int(VALIDATION_REPEATS * progress) - state["rounds"]
        if due > 0:
            self._validate(clock, state, record, due)

    def finish_validation(self, clock, state, record):
        self._validate(clock, state, record,
                       max(0, VALIDATION_REPEATS - state["rounds"]))
        total_model_numbers(record)


def path_probe(clock, record, workdir, seed):
    """Check the whole request path once, at tiny size.

    One fig2 job is served twice by a fresh compile server (a miss, then
    a hit with the same code); the artifact loaded back from its cache
    runs under a seeded fault plan with one crash, checkpoints and local
    recovery, and validates against the sequential interpreter.  Every
    workload ends with it, so every layer runs at least once in every
    traced run; its time is in no end-to-end metric.
    """
    name, src, var, block = "fig2", paper.FIG2_SRC, "i", 8
    cache_dir = tempfile.mkdtemp(prefix="probe-", dir=workdir)
    try:
        server = CompileServer(cache_dir=cache_dir)
        line = ServeZipf.request(0, name, src, var, block)
        replies = []
        for _ in range(2):
            record.attempted += 1
            text, _secs = clock.measure(server.handle_line, line)
            replies.append(json.loads(text))
        record.check(
            "path probe: a repeated request is a hit with the same code",
            all(r.get("ok") for r in replies)
            and [r.get("from_cache") for r in replies] == [False, True]
            and replies[0].get("code") == replies[1].get("code"),
        )
        (comps, result), _secs = clock.measure(
            ServeZipf._load, server.disk, name, src, var, block
        )
        plan = FaultPlan(seed=RunFaults.FAULT_SEED,
                         crashes={1: PROBE_CRASH_AT},
                         **RunFaults.RATES)
        record.attempted += 1
        try:
            run, _secs = clock.measure(
                check_against_sequential, result.spmd, comps, SMALL[name],
                seed=seed, fault_plan=plan, reliability="reliable",
                checkpoint=CheckpointPolicy(every_ops=10), recovery="local",
                **RUN,
            )
        except RUN_FAILURES as exc:
            record.fail("path probe", exc)
        else:
            record.check("path probe: the crash fired and recovered",
                         run.restarts >= 1)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


# -- compile_cold -------------------------------------------------------------


class CompileCold(_Validated, Workload):
    name = "compile_cold"

    def catalog(self):
        if self.smoke:  # the cheap half of the catalog
            return [spec for spec in CATALOG if spec[0] != "lu"][:4]
        return CATALOG

    def setup(self, clock, seed, record):
        specs = self.catalog()
        jobs = [paper.service_job(*spec) for spec in specs]
        # catalog order in every run: a job compiles faster after a
        # similar one (caches other than the two memos stay warm), so a
        # seeded order would move the per-job times between seeds; the
        # seed draws the validation runs' arrays
        return {"specs": specs, "jobs": jobs,
                "canonical": {}, "results": {}, "seed": seed, "rounds": 0}

    def unit(self, clock, state, record):
        total = 0.0
        code_bytes = 0
        for idx, job in enumerate(state["jobs"]):
            projection_cache_clear()
            feasibility_cache_clear()
            record.attempted += 1
            try:
                result, secs = clock.measure(
                    compile_distributed, job.program, job.comps,
                    options=job.options,
                )
            except Exception as exc:  # any compile error is one failure
                record.fail(f"compile {job.label}", exc)
                continue
            record.requests.append(secs)
            total += secs
            code_bytes += len(result.spmd.source)
            blob = canonical_bytes(result)
            first = state["canonical"].setdefault(idx, blob)
            record.check("canonical bytes identical across passes",
                         blob == first)
            state["results"][idx] = result
        record.compile.setdefault("catalog", []).append(total)
        record.units.append(total)
        record.set_exact("code_bytes", code_bytes)

    def _validate(self, clock, state, record, rounds):
        """Validate every compiled job at small parameters."""
        cases = [
            (job.label, state["results"][idx].spmd, job.comps,
             SMALL[spec[0]], {})
            for idx, (spec, job) in enumerate(zip(state["specs"],
                                                  state["jobs"]))
            if idx in state["results"]
        ]
        validate(clock, record, cases, state["seed"], rounds)
        state["rounds"] += rounds

    def check(self, clock, state, record):
        self.finish_validation(clock, state, record)


# -- run_clean / run_faults ---------------------------------------------------


class _Runs(Workload):
    """Precompiled programs run and validated on the event backend."""

    def cases(self):
        """(case, builder, builder kwargs, params) per program."""
        raise NotImplementedError

    def run_kwargs(self, state, case) -> dict:
        return {}

    def setup(self, clock, seed, record):
        projection_cache_clear()
        feasibility_cache_clear()
        programs = {}
        total = 0.0
        for case, build, kwargs, params in self.cases():
            (program, comps, spmd), secs = clock.measure(build, **kwargs)
            total += secs
            programs[case] = (comps, spmd, params)
        record.compile.setdefault("programs", []).append(total)
        record.set_exact(
            "code_bytes",
            sum(len(spmd.source) for _c, spmd, _p in programs.values()),
        )
        return {"programs": programs, "seed": seed, "last": {}}

    def unit(self, clock, state, record):
        # one unit is one request: run and validate every program once
        cases = [
            (case, spmd, comps, params, self.run_kwargs(state, case))
            for case, (comps, spmd, params) in state["programs"].items()
        ]
        before = clock.reported_total
        state["last"].update(
            validate(clock, record, cases, state["seed"], 1)
        )
        spent = clock.reported_total - before
        record.requests.append(spent)
        record.units.append(spent)

    def check(self, clock, state, record):
        total_model_numbers(record)


class RunClean(_Runs):
    name = "run_clean"

    def cases(self):
        vec = SPMDOptions(vectorize=True)
        if self.smoke:
            return [
                ("lu", paper.lu_compiled, {"options": vec},
                 {"N": 24, "P": 4}),
                ("fig2", paper.fig2_compiled,
                 {"options": vec, "n": 256, "p": 16},
                 {"N": 256, "T": 2, "P": 16}),
            ]
        return [
            ("lu", paper.lu_compiled, {"options": vec}, {"N": 96, "P": 16}),
            ("fig2", paper.fig2_compiled,
             {"options": vec, "n": 4096, "p": 256},
             {"N": 4096, "T": 3, "P": 256}),
        ]

    def check(self, clock, state, record):
        super().check(clock, state, record)
        if not self.smoke:
            makespan, messages, _words = record.case_exact.get(
                "lu", (None, None, None)
            )
            record.check("LU N=96 P=16 reproduces the overlap row",
                         makespan == LU_OVERLAP_MAKESPAN
                         and messages == LU_OVERLAP_MESSAGES)


class RunFaults(_Runs):
    name = "run_faults"

    #: the plan drops, duplicates, reorders and corrupts at these rates
    #: and crashes rank 1 once at CRASH_AT[case].  Its seed is fixed, so
    #: the model numbers and the ARQ/recovery counts repeat exactly for
    #: every ``--seed`` (which draws the arrays) and compare across
    #: commits; exploring fault schedules is ``repro chaos``'s job.
    FAULT_SEED = 1993
    RATES = {"drop_rate": 0.05, "dup_rate": 0.05, "reorder_rate": 0.05,
             "corrupt_rate": 0.02}
    #: model times inside rank 1's lifetime, so every crash fires
    CRASH_AT = {"lu": 20000.0, "fig2": 3000.0}
    POLICY = CheckpointPolicy(every_ops=200)

    def cases(self):
        early = SPMDOptions(vectorize=True, early_puts=True)
        if self.smoke:
            return [
                ("lu", paper.lu_compiled, {"options": early},
                 {"N": 16, "P": 4}),
                ("fig2", paper.fig2_compiled,
                 {"options": early, "n": 256, "p": 8},
                 {"N": 256, "T": 2, "P": 8}),
            ]
        return [
            ("lu", paper.lu_compiled, {"options": early}, {"N": 48, "P": 8}),
            ("fig2", paper.fig2_compiled,
             {"options": early, "n": 2048, "p": 32},
             {"N": 2048, "T": 2, "P": 32}),
        ]

    def run_kwargs(self, state, case):
        index = sorted(state["programs"]).index(case)
        plan = FaultPlan(
            seed=self.FAULT_SEED + index, crashes={1: self.CRASH_AT[case]},
            **self.RATES,
        )
        return {"fault_plan": plan, "reliability": "reliable",
                "checkpoint": self.POLICY, "recovery": "local"}

    def check(self, clock, state, record):
        super().check(clock, state, record)
        for case, (comps, spmd, params) in state["programs"].items():
            faulty = state["last"].get(case)
            record.attempted += 1
            try:
                clean, _secs = clock.measure(
                    run_spmd, spmd, params, seed=state["seed"], **RUN
                )
            except RUN_FAILURES as exc:
                record.fail(f"{case} clean run", exc)
                continue
            record.check(
                "faulty arrays bit-identical to the clean run",
                faulty is not None and all(
                    np.array_equal(clean.arrays[p][a], faulty.arrays[p][a],
                                   equal_nan=True)
                    for p in clean.arrays for a in clean.arrays[p]
                ),
            )
            record.check("every planned crash fired and recovered",
                         faulty is not None and faulty.restarts >= 1)


# -- serve_zipf ---------------------------------------------------------------


class ServeZipf(_Validated, Workload):
    name = "serve_zipf"

    ZIPF_S = 1.1
    #: requests per unit; each unit holds one first-time job per program
    BLOCK = 100
    #: the hit p99 needs at least ten samples beyond it
    MIN_HITS = 1100
    PROGRAMS = (
        ("fig2", paper.FIG2_SRC, "i"),
        ("fig8", paper.FIG8_SRC, "i"),
        ("stencil", paper.STENCIL_SRC, "i"),
        # comps_from_blocks blocks one variable in every statement, so
        # LU is blocked on i2 (both statements have it); pipe cannot be
        ("lu", paper.LU_SRC, "i2"),
    )
    BLOCKS = {"fig2": (8, 16, 32), "fig8": (8, 16), "stencil": (8, 16, 32),
              "lu": (16,)}
    #: first-time block sizes start here, clear of every catalog block
    MISS_BLOCK0 = 40
    #: each set-up warms the catalog with cold compiles, the costliest
    setups = 3

    def catalog(self):
        out = []
        for name, src, var in self.PROGRAMS:
            for block in self.BLOCKS[name][: 1 if self.smoke else None]:
                out.append((name, src, var, block))
        return out

    @staticmethod
    def request(rid, name, src, var, block):
        return json.dumps({"id": rid, "program": src, "name": name,
                           "blocks": {var: block}, "emit": "python"})

    def setup(self, clock, seed, record):
        projection_cache_clear()
        feasibility_cache_clear()
        cache_dir = tempfile.mkdtemp(prefix="serve-", dir=self.workdir)
        server = CompileServer(cache_dir=cache_dir)
        state = {"dir": cache_dir, "server": server, "seed": seed,
                 "rng": random.Random(seed), "code": {}, "next_miss": 0,
                 "misses": [], "hits": [], "miss_lat": [], "rid": 0,
                 "catalog": self.catalog(), "cases": None, "rounds": 0}
        for name, src, var, block in state["catalog"]:
            self._send(clock, state, record, name, src, var, block,
                       expect_hit=False)
        record.set_exact("code_bytes",
                         sum(len(code) for code in state["code"].values()))
        return state

    def _send(self, clock, state, record, name, src, var, block, expect_hit):
        state["rid"] += 1
        line = self.request(state["rid"], name, src, var, block)
        record.attempted += 1
        text, secs = clock.measure(state["server"].handle_line, line)
        reply = json.loads(text)
        key = (name, block)
        if not reply.get("ok"):
            record.fail(f"request {key}", RuntimeError(reply.get("error")))
            return reply, secs
        record.check("hits come from the cache, misses do not",
                     reply["from_cache"] == expect_hit)
        if expect_hit:
            record.check("every hit's code equals the miss reply",
                         reply["code"] == state["code"].get(key))
        else:
            state["code"][key] = reply["code"]
        return reply, secs

    def unit(self, clock, state, record):
        rng = state["rng"]
        catalog = state["catalog"]
        weights = [1.0 / (rank + 1) ** self.ZIPF_S
                   for rank in range(len(catalog))]
        kinds = rng.choices(range(len(catalog)), weights=weights,
                            k=self.BLOCK - len(self.PROGRAMS))
        # one first-time job per program, at seeded positions
        for name, src, var in self.PROGRAMS:
            kinds.insert(rng.randrange(len(kinds) + 1), (name, src, var))
        before = clock.reported_total
        for kind in kinds:
            if isinstance(kind, tuple):
                name, src, var = kind
                block = self.MISS_BLOCK0 + state["next_miss"]
                state["next_miss"] += 1
                state["misses"].append((name, src, var, block))
                _reply, secs = self._send(clock, state, record, name, src,
                                          var, block, expect_hit=False)
                state["miss_lat"].append(secs)
                record.compile.setdefault(name, []).append(secs)
            else:
                name, src, var, block = catalog[kind]
                _reply, secs = self._send(clock, state, record, name, src,
                                          var, block, expect_hit=True)
                state["hits"].append(secs)
            record.requests.append(secs)
        record.units.append(clock.reported_total - before)
        record.extra["hits"] = (len(state["hits"]), "count")
        record.extra["misses"] = (len(state["miss_lat"]), "count")
        record.extra["serve_hit_p50_ms"] = (
            percentile(state["hits"], 0.50) * 1e3, "ms")
        record.extra["serve_hit_p99_ms"] = (
            percentile(state["hits"], 0.99) * 1e3, "ms")
        record.extra["serve_miss_p50_ms"] = (
            percentile(state["miss_lat"], 0.50) * 1e3, "ms")
        record.extra["serve_requests_per_s"] = (
            len(record.requests) / sum(record.requests), "1/s")

    def enough(self, record):
        return self.smoke or record.extra["hits"][0] >= self.MIN_HITS

    def check(self, clock, state, record):
        # every first-time job, asked again, is a hit with the same code
        for name, src, var, block in state["misses"]:
            self._send(clock, state, record, name, src, var, block,
                       expect_hit=True)
        self.finish_validation(clock, state, record)

    def _validate(self, clock, state, record, rounds):
        """Every served catalog artifact runs and validates at small size."""
        if state["cases"] is None:
            state["cases"] = []
            for name, src, var, block in state["catalog"]:
                (comps, result), _secs = clock.measure(
                    self._load, state["server"].disk, name, src, var, block
                )
                record.check("served artifacts load from the cache",
                             result.from_cache and result.spmd.source
                             == state["code"][(name, block)])
                state["cases"].append((f"{name}/b{block}", result.spmd,
                                       comps, SMALL[name], {}))
        validate(clock, record, state["cases"], state["seed"], rounds)
        state["rounds"] += rounds

    @staticmethod
    def _load(disk, name, src, var, block):
        """Compile a served job again with the server's cache active."""
        program = parse(src, name=name)
        comps = comps_from_blocks(program, {var: block})
        with diskcache.activated(disk):
            return comps, compile_distributed(program, comps)

    def teardown(self, state):
        shutil.rmtree(state["dir"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (CompileCold, RunClean, ServeZipf, RunFaults)}
