"""Parametric integer lexicographic maximization.

The Last Write Tree needs, for each read instance, the lexicographically
last write instance satisfying a linear system -- as a *function* of the
read instance.  Feautrier solves this with full parametric integer
programming; the paper uses the faster Maydan-Amarasinghe-Lam algorithm
that handles the common cases exactly.  This module is in the same
spirit: it produces quasi-affine solutions (affine pieces, plus floor
auxiliaries for non-unit coefficients), case-splitting when several
upper bounds compete, and raises :class:`LexMaxUnsupportedError` for
systems outside its domain rather than approximating.

A solution is a list of :class:`LexPiece`.  Piece contexts are mutually
disjoint; their union is exactly the parameter region where the system
is satisfiable.  Auxiliary variables are *functionally determined* by
the parameters (each is a floor of an affine expression), so downstream
set subtraction can carry their definitions along and negate only the
genuine conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .affine import LinExpr
from .fourier_motzkin import eliminate_exact_flag, extract_bounds
from .omega import integer_feasible
from .stats import current_context
from .system import InfeasibleError, System


class LexMaxUnsupportedError(Exception):
    """The system falls outside the supported (common-case) domain."""


@dataclass
class LexPiece:
    """One quasi-affine piece of a parametric lexmax solution.

    ``conditions``: constraints on the parameters under which this piece
    applies (to be negated when subtracting the piece from a domain).
    ``aux_defs``: sandwich constraints ``b*q <= g <= b*q + b - 1`` that
    *define* each auxiliary variable as ``q = floor(g/b)``; never negated.
    ``mapping``: optimized variable -> affine expression over parameters
    and auxiliaries.
    """

    conditions: System
    mapping: Dict[str, LinExpr]
    aux_defs: System = field(default_factory=System)
    aux_vars: Tuple[str, ...] = ()

    def full_context(self) -> System:
        return self.conditions.intersect(self.aux_defs)

    def __str__(self) -> str:
        maps = ", ".join(f"{v} = {e}" for v, e in self.mapping.items())
        return f"[{maps}] when {self.conditions}"


def _project_exact(system: System, names: Sequence[str]) -> System:
    """FM-project ``names`` out; raise if any step is integer-inexact.

    Routed through the shared elimination engine so the projections are
    redundancy-pruned and counted; exactness is still judged over the
    full pre-filter pair set (see ``eliminate_exact_flag``).
    """
    current = system
    for name in names:
        if not current.involves(name):
            continue
        current, exact = eliminate_exact_flag(current, name)
        if not exact:
            raise LexMaxUnsupportedError(
                f"inexact projection eliminating {name}"
            )
    return current


def parametric_lexmax(
    system: System,
    opt_vars: Sequence[str],
    context: Optional[System] = None,
) -> List[LexPiece]:
    """Maximize ``opt_vars`` lexicographically; parameters are all other
    variables of ``system``.

    ``context`` holds known parameter constraints (used only to discard
    empty pieces early).
    """
    return _parametric_lexopt(system, opt_vars, context, maximize=True)


def parametric_lexmin(
    system: System,
    opt_vars: Sequence[str],
    context: Optional[System] = None,
) -> List[LexPiece]:
    """Minimize ``opt_vars`` lexicographically (mirror of lexmax).

    Used by self-reuse redundancy elimination (Section 6.1.1): of all
    read instances consuming the same value on the same processor, keep
    the lexicographically first.
    """
    return _parametric_lexopt(system, opt_vars, context, maximize=False)


def _parametric_lexopt(
    system: System,
    opt_vars: Sequence[str],
    context: Optional[System],
    maximize: bool,
) -> List[LexPiece]:
    context = context or System()
    pieces: List[LexPiece] = []

    def solve(
        current: System,
        remaining: List[str],
        conditions: System,
        mapping: Dict[str, LinExpr],
        aux_defs: System,
        aux_vars: Tuple[str, ...],
    ) -> None:
        if not remaining:
            # Whatever constraints remain involve only parameters and
            # auxiliaries: they are the existence conditions.
            final_conditions = conditions.copy()
            try:
                for eq in current.equalities:
                    final_conditions.add_equality(eq)
                for ineq in current.inequalities:
                    final_conditions.add_inequality(ineq)
            except InfeasibleError:
                return
            probe = final_conditions.intersect(aux_defs).intersect(context)
            if not integer_feasible(probe):
                return
            pieces.append(
                LexPiece(final_conditions, dict(mapping), aux_defs, aux_vars)
            )
            return

        var = remaining[0]
        rest = remaining[1:]
        if not current.involves(var):
            raise LexMaxUnsupportedError(
                f"optimized variable {var} is unconstrained"
            )
        # Project away the *later* optimized variables so the bounds on
        # ``var`` involve parameters only.
        try:
            projected = _project_exact(current, rest)
        except InfeasibleError:
            return  # this branch's system is empty

        bounds = extract_bounds(projected, var)
        if maximize:
            if not bounds.uppers:
                raise LexMaxUnsupportedError(f"{var} unbounded above")
            candidates = _dedup(bounds.uppers)
        else:
            if not bounds.lowers:
                raise LexMaxUnsupportedError(f"{var} unbounded below")
            candidates = _dedup(bounds.lowers)
        for idx, (b, g) in enumerate(candidates):
            # Branch: this bound is the binding one -- the strict
            # min-of-uppers (max: strict against earlier candidates) or
            # max-of-lowers (min) -- the standard disjoint split.
            branch_conditions = conditions.copy()
            branch_aux_defs = aux_defs.copy()
            branch_aux_vars = aux_vars
            try:
                if b == 1:
                    value: LinExpr = g
                else:
                    q = f"$q{current_context().fresh_id('lexmax')}"
                    value = LinExpr.var(q)
                    if maximize:
                        # q = floor(g/b):  b*q <= g <= b*q + b - 1
                        branch_aux_defs.add_inequality(g - value * b)
                        branch_aux_defs.add_inequality(value * b + b - 1 - g)
                    else:
                        # q = ceil(g/b):  g <= b*q <= g + b - 1
                        branch_aux_defs.add_inequality(value * b - g)
                        branch_aux_defs.add_inequality(g + b - 1 - value * b)
                    branch_aux_vars = branch_aux_vars + (q,)
                for jdx, (b2, g2) in enumerate(candidates):
                    if jdx == idx:
                        continue
                    strict = jdx < idx
                    if maximize:
                        # value <= floor(g2/b2)  <=>  b2*value <= g2
                        # (strict: <= g2 - b2)
                        branch_conditions.add_inequality(
                            g2 - value * b2 - (b2 if strict else 0)
                        )
                    else:
                        # value >= ceil(g2/b2)  <=>  b2*value >= g2
                        # (strict: >= g2 + b2)
                        branch_conditions.add_inequality(
                            value * b2 - g2 - (b2 if strict else 0)
                        )
            except InfeasibleError:
                continue
            try:
                substituted = current.substitute({var: value})
            except InfeasibleError:
                continue
            new_mapping = dict(mapping)
            new_mapping[var] = value
            solve(
                substituted,
                rest,
                branch_conditions,
                new_mapping,
                branch_aux_defs,
                branch_aux_vars,
            )

    solve(system, list(opt_vars), System(), {}, System(), ())
    return pieces


def _dedup(
    bounds: List[Tuple[int, LinExpr]]
) -> List[Tuple[int, LinExpr]]:
    seen = []
    for item in bounds:
        if item not in seen:
            seen.append(item)
    return seen


# ---------------------------------------------------------------------------
# Disjoint set subtraction (used by the LWT driver)
# ---------------------------------------------------------------------------

def subtract_piece(
    regions: List[System], piece: LexPiece
) -> List[System]:
    """Remove a piece's context from each region, exactly.

    The result is a disjoint union of systems covering
    ``region \\ conditions``.  Auxiliary definitions are conjoined into
    every residual region (auxiliaries are functions of the parameters,
    so this changes nothing semantically), which lets us negate the
    conditions one by one.
    """
    out: List[System] = []
    for region in regions:
        out.extend(_subtract(region, piece))
    return out


def _subtract(region: System, piece: LexPiece) -> List[System]:
    base = region.intersect(piece.aux_defs)
    negatable: List[Tuple[LinExpr, bool]] = []
    for eq in piece.conditions.equalities:
        negatable.append((eq, True))
    for ineq in piece.conditions.inequalities:
        negatable.append((ineq, False))

    residues: List[System] = []
    prefix = base.copy()
    for expr, is_eq in negatable:
        if is_eq:
            # region AND prefix AND (expr >= 1  OR  expr <= -1)
            for branch_expr in (expr - 1, -expr - 1):
                try:
                    branch = prefix.copy()
                    branch.add_inequality(branch_expr)
                except InfeasibleError:
                    continue
                if integer_feasible(branch):
                    residues.append(branch)
            try:
                prefix.add_equality(expr)
            except InfeasibleError:
                return residues
        else:
            try:
                branch = prefix.copy()
                branch.add_inequality(-expr - 1)
            except InfeasibleError:
                branch = None
            if branch is not None and integer_feasible(branch):
                residues.append(branch)
            try:
                prefix.add_inequality(expr)
            except InfeasibleError:
                return residues
    return residues
