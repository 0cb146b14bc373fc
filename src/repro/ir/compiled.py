"""Loop nests and statements compiled to Python source.

The sequential oracle (:func:`repro.ir.interp.run`,
:func:`~repro.ir.interp.live_out_writes`) and the runtime's scalar
statement path (:meth:`repro.ir.loops.Statement.execute`) would
otherwise evaluate every bound and subscript through
``LinExpr.evaluate`` once per statement instance.  Instead, the IR is
turned into Python source once -- loop bounds and subscripts become
integer arithmetic on locals -- and compiled, the way the paper's code
generator (Section 5) turns affine sets into loop code.

Right-hand sides stay opaque: the generated code calls the unchanged
``stmt.fn(values, env)``, with ``env`` holding the parameters and the
enclosing loop variables exactly as the tree-walking interpreter held
them, so the parser's closures remain the only definition of RHS
semantics.  Generated locals are numbered (``_v0``, ``_p0``, ``_a0``,
``_f0``); user names appear only as string literals, so a loop, array
or parameter named ``env``, ``range`` or ``fn`` cannot collide with
them.

This module imports nothing from ``repro.codegen``: the oracle must
stay independent of the SPMD code it checks (see DESIGN.md).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from ..polyhedra import LinExpr
from .arrays import Access
from .loops import Statement


class _Source:
    """Lines of one generated function plus its numbered names.

    ``scope`` maps a user variable to the local holding it.  A variable
    no enclosing loop binds is a parameter: it is read once, into a
    ``_p<k>`` local, from ``env`` at function entry (a missing one
    raises ``KeyError`` naming it).
    """

    def __init__(self):
        self.prologue: List[str] = []
        self.lines: List[str] = []
        self.params: Dict[str, str] = {}
        self.arrays: Dict[str, str] = {}
        self.fns: List[Callable] = []
        self.loops = 0

    def name(self, var: str, scope: Dict[str, str]) -> str:
        local = scope.get(var)
        if local is None:
            local = self.params.get(var)
        if local is None:
            local = self.params[var] = f"_p{len(self.params)}"
            self.prologue.append(f"{local} = env[{var!r}]")
        return local

    def array(self, name: str) -> str:
        local = self.arrays.get(name)
        if local is None:
            local = self.arrays[name] = f"_a{len(self.arrays)}"
            self.prologue.append(f"{local} = arrays[{name!r}]")
        return local

    def expr(self, expr: LinExpr, scope: Dict[str, str]) -> str:
        parts = []
        for var, coeff in sorted(expr.terms()):
            local = self.name(var, scope)
            parts.append(local if coeff == 1 else f"{coeff} * {local}")
        if expr.const or not parts:
            parts.append(str(expr.const))
        return " + ".join(parts)

    def index(self, access: Access, scope: Dict[str, str]) -> str:
        """The subscript as a tuple display: the same key
        ``Access.evaluate`` produces, for any rank (``()`` for 0)."""
        subs = [self.expr(e, scope) for e in access.indices]
        if len(subs) == 1:
            return f"({subs[0]},)"
        return f"({', '.join(subs)})"

    def read(self, access: Access, scope: Dict[str, str]) -> str:
        return f"{self.array(access.array.name)}[{self.index(access, scope)}]"

    def build(self, signature: str, globals_: dict) -> Callable:
        text = f"def _generated({signature}):\n" + "".join(
            f"    {line}\n" for line in self.prologue + self.lines
        )
        exec(compile(text, "<repro.ir.compiled>", "exec"), globals_)
        return globals_.pop("_generated")  # no function <-> globals cycle


def _emit_statement(
    src: _Source,
    stmt: Statement,
    scope: Dict[str, str],
    pad: str,
    fn: str,
    record: bool,
) -> None:
    """One statement instance: gather reads, call ``fn``, store, and
    (``record``) note this instance as the location's last writer.
    ``fn`` empty means no body: only the writer is recorded."""
    out = src.lines
    target = src.index(stmt.lhs, scope)
    if record:
        out.append(f"{pad}_l = {target}")
        target = "_l"
    if fn:
        reads = ", ".join(src.read(a, scope) for a in stmt.reads)
        lhs = src.array(stmt.lhs.array.name)
        out.append(f"{pad}{lhs}[{target}] = {fn}([{reads}], env)")
    if record:
        iteration = "".join(f", {scope[v]}" for v in stmt.iter_vars)
        out.append(
            f"{pad}writers[{stmt.lhs.array.name!r}, _l] = "
            f"({stmt.name!r}{iteration})"
        )


def compile_program(
    program, body: bool = True, record: bool = False
) -> Callable:
    """``program``'s whole loop nest as one function
    ``f(params, arrays, writers)``.

    ``body`` runs every statement instance on ``arrays`` in sequential
    order (``env`` is a copy of ``params`` that also binds the enclosing
    loop variables, as ``fn`` expects).  ``record`` fills ``writers``
    with ``(array name, location) -> (stmt name, *iteration)`` for the
    last write of each location; ``body=False`` records without reading
    ``arrays`` or calling any ``fn``.
    """
    src = _Source()
    src.prologue.append("env = dict(params)")

    def walk(nodes: Sequence, scope: Dict[str, str], depth: int) -> None:
        pad = "    " * depth
        for node in nodes:
            if isinstance(node, Statement):
                fn = ""
                if body:
                    fn = f"_f{len(src.fns)}"
                    src.prologue.append(f"{fn} = _F[{len(src.fns)}]")
                    src.fns.append(node.fn)
                _emit_statement(src, node, scope, pad, fn, record)
                continue
            local = f"_v{src.loops}"
            src.loops += 1
            low = src.expr(node.lower, scope)
            high = src.expr(node.upper + 1, scope)
            src.lines.append(f"{pad}for {local} in range({low}, {high}):")
            src.lines.append(f"{pad}    env[{node.var!r}] = {local}")
            walk(node.body, {**scope, node.var: local}, depth + 1)
            src.lines.append(f"{pad}env.pop({node.var!r}, None)")

    walk(program.body, {}, 0)
    return src.build("params, arrays, writers", {"_F": tuple(src.fns)})


def compile_statement(stmt: Statement) -> Callable:
    """One instance of ``stmt`` as ``f(arrays, env, fn)``: reads its
    subscript variables from ``env`` and calls ``fn(values, env)``."""
    src = _Source()
    _emit_statement(src, stmt, {}, "", "fn", record=False)
    return src.build("arrays, env, fn", {})
