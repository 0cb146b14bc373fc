"""Communication sets (paper Definition 3, Theorems 2-4).

A communication set M is a set of tuples (i_r, p_r, i_s, p_s, a):
processor p_s must send the value in location a produced in its
iteration i_s to processor p_r for use in iteration i_r.  Everything is
one System of linear inequalities over five variable groups:

* reader iteration  -- the read statement's loop variables (plain names)
* reader processor  -- ``p0$r .. p{q-1}$r``
* sender iteration  -- the writer's loop variables suffixed ``$s``
* sender processor  -- ``p0$s .. p{q-1}$s``
* array element     -- ``a0 .. a{m-1}``

The inequality ``p_s != p_r`` is not convex; each communication set
carries one branch of the disjunction (Section 4.4.2's M2> / M2<).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..dataflow import LastWriteTree, LWTLeaf
from ..decomp import CompDecomp, DataDecomp, ProcSpace
from ..ir import Access, Statement
from ..polyhedra import (
    InfeasibleError,
    LinExpr,
    System,
    integer_feasible,
)
from ..polyhedra.stats import current_context

SEND_SUFFIX = "$s"
RECV_SUFFIX = "$r"


def proc_names(space: ProcSpace, side: str) -> Tuple[str, ...]:
    suffix = SEND_SUFFIX if side == "send" else RECV_SUFFIX
    return tuple(f"p{k}{suffix}" for k in range(space.rank))


def array_names(rank: int) -> Tuple[str, ...]:
    return tuple(f"a{k}" for k in range(rank))


@dataclass
class CommSet:
    """One convex communication set plus its variable-group metadata.

    Constructions (including ``with_system`` refinements) and sets
    discarded as integer-empty are counted in
    :mod:`repro.polyhedra.stats`.
    """

    system: System
    space: ProcSpace
    read_stmt: Statement
    read_access: Access
    write_stmt: Optional[Statement]  # None: data from the initial layout
    level: int                       # dependence level (0 = preload)
    loop_independent: bool
    recv_iter_vars: Tuple[str, ...]
    send_iter_vars: Tuple[str, ...]
    recv_proc_vars: Tuple[str, ...]
    send_proc_vars: Tuple[str, ...]
    data_vars: Tuple[str, ...]
    aux_vars: Tuple[str, ...] = ()
    label: str = ""
    finalization: bool = False

    def __post_init__(self) -> None:
        current_context().stats.commsets_built += 1

    def all_vars(self) -> Tuple[str, ...]:
        return (
            self.recv_iter_vars
            + self.recv_proc_vars
            + self.send_iter_vars
            + self.send_proc_vars
            + self.data_vars
            + self.aux_vars
        )

    def is_empty(self) -> bool:
        if integer_feasible(self.system):
            return False
        current_context().stats.commsets_empty_pruned += 1
        return True

    def with_system(self, system: System, label: Optional[str] = None) -> "CommSet":
        return replace(
            self, system=system, label=self.label if label is None else label
        )

    def describe(self) -> str:
        src = self.write_stmt.name if self.write_stmt else "initial"
        kind = "indep" if self.loop_independent else f"level {self.level}"
        return (
            f"CommSet[{self.label}] {src} -> {self.read_stmt.name} "
            f"({kind}): {self.system}"
        )


def _different_processor_branches(
    base: System, send_vars: Sequence[str], recv_vars: Sequence[str]
) -> List[Tuple[str, System]]:
    """Split ``p_s != p_r`` into disjoint convex branches.

    For each processor dimension k: equality on dims < k, then
    ``p_k$s < p_k$r`` and ``p_k$s > p_k$r`` branches.
    """
    out: List[Tuple[str, System]] = []
    prefix = base
    for k, (ps, pr) in enumerate(zip(send_vars, recv_vars)):
        for op, tag in (("<", f"d{k}<"), (">", f"d{k}>")):
            try:
                branch = prefix.copy()
                if op == "<":
                    branch.add_lt(LinExpr.var(ps), LinExpr.var(pr))
                else:
                    branch.add_lt(LinExpr.var(pr), LinExpr.var(ps))
            except InfeasibleError:
                continue
            if integer_feasible(branch):
                out.append((tag, branch))
        nxt = prefix.copy()
        try:
            nxt.add_eq(LinExpr.var(ps), LinExpr.var(pr))
        except InfeasibleError:
            return out
        prefix = nxt
    return out


# ---------------------------------------------------------------------------
# Theorem 3: communication from a last-write relation
# ---------------------------------------------------------------------------

def from_leaf(
    leaf: LWTLeaf,
    read_access: Access,
    read_comp: CompDecomp,
    write_comp: CompDecomp,
    assumptions: Optional[System] = None,
    label: str = "",
) -> List[CommSet]:
    """Theorem 3: the communication set satisfying one last-write leaf.

    ``(i_r, p_r), (i_s, p_s) in C``, ``(i_s, i_r)`` in the leaf's
    relation, ``a = f_r(i_r) = f_w(i_s)``, ``p_s != p_r``.
    """
    if leaf.is_bottom():
        raise ValueError("bottom leaves use initial_comm (Theorem 4)")
    stmt = read_comp.stmt
    writer = leaf.writer
    space = read_comp.space
    recv_p = proc_names(space, "recv")
    send_p = proc_names(space, "send")
    a_names = array_names(writer.lhs.array.rank)

    system = leaf.context.copy()
    if assumptions is not None:
        system = system.intersect(assumptions)
    # reader side: C(i_r, p_r)
    system = system.intersect(read_comp.system(recv_p))
    # sender side: C(i_s, p_s) over suffixed writer vars
    system = system.intersect(write_comp.system(send_p, iter_suffix=SEND_SUFFIX))
    # last-write mapping: i_s == leaf.mapping(i_r)
    for v in writer.iter_vars:
        system.add_eq(LinExpr.var(v + SEND_SUFFIX), leaf.mapping[v])
    # data location: a == f_w(i_s) (equals f_r(i_r) by the relation);
    # using the write access keeps finalization and reads uniform.
    w_access = writer.lhs.rename(
        {v: v + SEND_SUFFIX for v in writer.iter_vars}
    )
    for name, expr in zip(a_names, w_access.indices):
        system.add_eq(LinExpr.var(name), expr)

    branches = _different_processor_branches(system, send_p, recv_p)
    out = []
    for tag, branch in branches:
        out.append(
            CommSet(
                system=branch,
                space=space,
                read_stmt=stmt,
                read_access=read_access,
                write_stmt=writer,
                level=leaf.level,
                loop_independent=leaf.loop_independent,
                recv_iter_vars=stmt.iter_vars,
                send_iter_vars=tuple(
                    v + SEND_SUFFIX for v in writer.iter_vars
                ),
                recv_proc_vars=recv_p,
                send_proc_vars=send_p,
                data_vars=a_names,
                aux_vars=leaf.aux_vars,
                label=f"{label}{tag}",
            )
        )
    return out


# ---------------------------------------------------------------------------
# Theorem 4: communication for values defined outside the loop
# ---------------------------------------------------------------------------

def initial_comm(
    leaf: LWTLeaf,
    read_access: Access,
    read_comp: CompDecomp,
    initial_data: DataDecomp,
    assumptions: Optional[System] = None,
    skip_if_reader_owns: bool = True,
    label: str = "",
) -> List[CommSet]:
    """Theorem 4: load non-local initial data before the nest.

    The sender is any owner of the element under the initial data
    decomposition; sends can precede the whole computation (i_s = 0).
    ``skip_if_reader_owns`` applies the Section 6.1.3 rule: when the
    data decomposition replicates data, drop elements whose reader
    already holds a copy.
    """
    stmt = read_comp.stmt
    space = read_comp.space
    recv_p = proc_names(space, "recv")
    send_p = proc_names(space, "send")
    a_names = array_names(read_access.array.rank)

    system = leaf.context.copy()
    if assumptions is not None:
        system = system.intersect(assumptions)
    system = system.intersect(read_comp.system(recv_p))
    # a == f_r(i_r)
    for name, expr in zip(a_names, read_access.indices):
        system.add_eq(LinExpr.var(name), expr)
    # sender owns a under D_initial
    system = system.intersect(initial_data.system(a_names, send_p))

    branches = _different_processor_branches(system, send_p, recv_p)
    out: List[CommSet] = []
    for tag, branch in branches:
        commset = CommSet(
            system=branch,
            space=space,
            read_stmt=stmt,
            read_access=read_access,
            write_stmt=None,
            level=0,
            loop_independent=False,
            recv_iter_vars=stmt.iter_vars,
            send_iter_vars=(),
            recv_proc_vars=recv_p,
            send_proc_vars=send_p,
            data_vars=a_names,
            aux_vars=leaf.aux_vars,
            label=f"{label}init{tag}",
        )
        out.append(commset)
    if skip_if_reader_owns and initial_data.is_replicated():
        out = [
            cs.with_system(sys_)
            for cs in out
            for sys_ in _drop_reader_owned(cs, initial_data)
        ]
    return out


def _drop_reader_owned(
    commset: CommSet, decomp: DataDecomp
) -> List[System]:
    """Subtract elements where (a, p_r) is already in D (Section 6.1.3)."""
    member = decomp.system(commset.data_vars, commset.recv_proc_vars)
    regions: List[System] = []
    prefix = commset.system
    negatable = list(member.equalities), list(member.inequalities)
    work = prefix
    for eq in negatable[0]:
        for branch_expr in (eq - 1, -eq - 1):
            try:
                region = work.copy()
                region.add_inequality(branch_expr)
            except InfeasibleError:
                continue
            if integer_feasible(region):
                regions.append(region)
        try:
            work = work.copy()
            work.add_equality(eq)
        except InfeasibleError:
            return regions
    for ineq in negatable[1]:
        try:
            region = work.copy()
            region.add_inequality(-ineq - 1)
        except InfeasibleError:
            region = None
        if region is not None and integer_feasible(region):
            regions.append(region)
        try:
            work = work.copy()
            work.add_inequality(ineq)
        except InfeasibleError:
            return regions
    return regions


# ---------------------------------------------------------------------------
# Theorem 2: the location-centric form
# ---------------------------------------------------------------------------

def location_centric_comm(
    read_access: Access,
    read_comp: CompDecomp,
    data: DataDecomp,
    assumptions: Optional[System] = None,
    label: str = "",
) -> List[CommSet]:
    """Theorem 2: communication derived from a data decomposition alone.

    Every read iteration whose element lives on another processor under
    D fetches it from an owner -- regardless of whether the value ever
    changes.  This is the location-centric system's view (Section 2.1 /
    4.4.1); comparing its element counts against the Theorem-3 sets is
    the paper's core quantitative argument.
    """
    from ..dataflow.lwt import LWTLeaf

    trivial = LWTLeaf(context=System(), writer=None, level=0)
    return initial_comm(
        trivial,
        read_access,
        read_comp,
        data,
        assumptions=assumptions,
        skip_if_reader_owns=True,
        label=f"{label}loc",
    )


# ---------------------------------------------------------------------------
# Concrete enumeration (validation & measurement)
# ---------------------------------------------------------------------------

def enumerate_commset(
    commset: CommSet, params: Mapping[str, int], clamp: int = 4096
) -> List[Dict[str, int]]:
    """All concrete tuples of the set at given parameter values.

    Used by tests (cross-checking generated code) and benchmarks
    (message/volume counts).
    """
    from ..polyhedra import enumerate_points

    try:
        bound = commset.system.substitute(dict(params))
    except InfeasibleError:
        return []
    order = [v for v in commset.all_vars() if v in bound.variables()]
    leftover = set(bound.variables()) - set(order)
    order = list(order) + sorted(leftover)
    out = []
    for point in enumerate_points(bound, order, clamp=clamp):
        out.append(point)
    return out
