"""Group reuse via uniformly generated references (paper Section 6.1.2).

Uniformly generated references [13] access the same array through
affine functions differing only in constant terms (``X[i]`` and
``X[i+3]``).  The paper represents such a family by its convex hull --
one access with bounded offset variables -- and analyzes the whole
family with a single Last Write Tree (Figure 9), so that values shared
*across* member accesses are transferred once.

``uniform_families`` detects the families among a statement's reads;
``hull_tree`` builds the family's tree;
``family_commsets`` derives group-minimized communication sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..dataflow import LastWriteTree, last_write_tree
from ..decomp import CompDecomp
from ..ir import Access, Program, Statement
from ..polyhedra import LinExpr, System
from ..polyhedra.stats import current_context
from .commsets import CommSet, from_leaf
from .redundancy import eliminate_self_reuse

@dataclass
class UniformFamily:
    """A maximal set of uniformly generated reads of one statement.

    ``hull_access``: the representative access ``f(i) - u`` with one
    offset variable per dimension that varies; ``offset_domain`` bounds
    the offsets by the member constants' min/max (the convex hull --
    possibly covering more than the members, as the paper notes).
    """

    stmt: Statement
    members: Tuple[int, ...]          # indices into stmt.reads
    hull_access: Access
    offset_domain: System
    offset_vars: Tuple[str, ...]

    @property
    def array(self):
        return self.hull_access.array


def uniform_families(stmt: Statement) -> List[UniformFamily]:
    """Partition a statement's reads into uniformly generated families.

    Families with a single member are returned too (their hull is the
    access itself, with no offset variables), so callers can treat all
    reads uniformly.
    """
    remaining = list(range(len(stmt.reads)))
    out: List[UniformFamily] = []
    while remaining:
        seed = remaining[0]
        members = [
            ridx
            for ridx in remaining
            if stmt.reads[ridx].is_uniform_with(stmt.reads[seed])
        ]
        for m in members:
            remaining.remove(m)
        out.append(_build_family(stmt, tuple(members)))
    return out


def _build_family(stmt: Statement, members: Tuple[int, ...]) -> UniformFamily:
    base = stmt.reads[members[0]]
    rank = base.array.rank
    # per dimension: constant offsets of each member relative to base
    deltas = [
        tuple(
            (stmt.reads[m].indices[k] - base.indices[k]).const
            for m in members
        )
        for k in range(rank)
    ]
    indices: List[LinExpr] = []
    offset_vars: List[str] = []
    domain = System()
    for k in range(rank):
        lo, hi = min(deltas[k]), max(deltas[k])
        if lo == hi:
            indices.append(base.indices[k] + lo)
            continue
        u = f"u{current_context().fresh_id('offset')}"
        offset_vars.append(u)
        # hull member = base + offset, offset in [lo, hi]
        indices.append(base.indices[k] + LinExpr.var(u))
        domain.add_range(LinExpr.var(u), lo, hi)
    return UniformFamily(
        stmt=stmt,
        members=members,
        hull_access=Access(base.array, tuple(indices)),
        offset_domain=domain,
        offset_vars=tuple(offset_vars),
    )


def hull_tree(program: Program, family: UniformFamily) -> LastWriteTree:
    """One Last Write Tree for the whole family (paper Figure 9)."""
    return last_write_tree(
        program,
        family.stmt,
        family.hull_access,
        extra_domain=family.offset_domain
        if family.offset_vars
        else None,
        extra_vars=family.offset_vars,
    )


def family_commsets(
    program: Program,
    family: UniformFamily,
    read_comp: CompDecomp,
    comps: Dict[str, CompDecomp],
    minimize: bool = True,
) -> List[CommSet]:
    """Group-minimized communication sets for a reference family.

    Offsets join the lexmin variables so each value-copy crosses once
    even when several member accesses consume it (group reuse).
    """
    tree = hull_tree(program, family)
    out: List[CommSet] = []
    for leaf in tree.writer_leaves():
        sets = from_leaf(
            leaf,
            family.hull_access,
            read_comp,
            comps[leaf.writer.name],
            assumptions=program.assumptions,
            label=f"{family.stmt.name}.fam.",
        )
        for cs in sets:
            if minimize:
                out.extend(
                    eliminate_self_reuse(
                        cs, extra_min_vars=list(family.offset_vars)
                    )
                )
            else:
                out.append(cs)
    return [cs for cs in out if not cs.is_empty()]
