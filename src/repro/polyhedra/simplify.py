"""Redundancy elimination for inequality systems (paper Section 5.1).

Naive Fourier-Motzkin floods a system with redundant constraints --
quadratically many per elimination step, most of them implied by the
rest.  This module provides the pruning levels the elimination engine
(and anyone holding a :class:`~repro.polyhedra.system.System`) applies:

``NONE``
    no pruning (the ablation baseline);
``SUBSUME``
    *syntactic subsumption*: of several inequalities with the same
    normalized coefficient vector keep only the tightest constant, and
    drop inequalities already implied by an equality over the same
    vector.  Cheap (one dict pass) and exactly semantics-preserving.
``SEMANTIC``
    additionally drop any inequality whose integer negation is
    rationally infeasible with the rest of the system -- the paper's
    superfluous-constraint test, run with the cheap rational (not
    integer) engine.  Still exact: only constraints implied over the
    integers are removed.

``SUBSUME`` is the engine default: it never changes which constraints
*survive* downstream bound pruning, so generated code is unchanged
while the quadratic flood is contained.  ``SEMANTIC`` buys smaller
systems at higher cost per call; feasibility-only paths use it freely.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .affine import LinExpr
from .stats import current_context
from .system import InfeasibleError, System

#: pruning levels
NONE = 0
SUBSUME = 1
SEMANTIC = 2

#: the engine-wide default applied inside ``eliminate``
DEFAULT_LEVEL = SUBSUME


def set_default_level(level: int) -> int:
    """Set the engine-wide pruning default; returns the previous level.

    Used by ablation benchmarks (``NONE`` recovers the naive engine);
    ``eliminate``/``eliminate_many`` and the Omega descent read the
    default at call time.
    """
    global DEFAULT_LEVEL
    previous = DEFAULT_LEVEL
    DEFAULT_LEVEL = level
    return previous


def subsume_inequalities(exprs: List[LinExpr],
                         equalities: List[LinExpr]) -> List[LinExpr]:
    """Keep only the tightest inequality per coefficient vector.

    ``expr = v . x + k >= 0``: for a fixed vector ``v`` the smallest
    ``k`` is the tightest bound; the others are implied.  An inequality
    whose vector matches an equality (up to sign) is implied by it when
    the resulting constant is non-negative.  Order of survivors follows
    the first appearance of their vector, which keeps downstream scans
    deterministic.

    Raises InfeasibleError when an equality-matched inequality is a
    negative constant on the equality's affine hull (the system cannot
    have solutions).
    """
    from .system import canonical_equality  # cycle-free runtime import

    stats = current_context().stats
    eq_consts: Dict[Tuple, int] = {}
    for eq in equalities:
        canon = canonical_equality(eq)
        vec, k = canon.key
        eq_consts[vec] = k
        neg_vec, neg_k = (-canon).key
        eq_consts[neg_vec] = neg_k

    best: Dict[Tuple, int] = {}   # coefficient vector -> index of tightest
    alive: List[Optional[LinExpr]] = []
    for expr in exprs:
        vec, k = expr.key
        if vec in eq_consts:
            # the equality pins v.x = -k_eq, so expr evaluates to k - k_eq
            value = k - eq_consts[vec]
            if value < 0:
                raise InfeasibleError(
                    f"{expr} >= 0 contradicts an equality of the system"
                )
            stats.subsumed_dropped += 1
            continue
        slot = best.get(vec)
        if slot is None:
            best[vec] = len(alive)
            alive.append(expr)
            continue
        stats.subsumed_dropped += 1
        if k < alive[slot].const:
            # the newcomer is tighter: it survives *at its own position*
            # (exactly the constraint downstream bound-pruning would
            # have kept), the older weaker one dies.
            alive[slot] = None
            best[vec] = len(alive)
            alive.append(expr)
    return [e for e in alive if e is not None]


def semantic_prune(system: System) -> System:
    """Drop inequalities whose negation is rationally infeasible.

    Tests constraints last-to-first against the survivors (mirroring
    :func:`repro.polyhedra.omega.remove_redundant`, but with the cheap
    rational engine): removing an implied constraint cannot make any
    remaining constraint non-redundant, so one backward pass suffices
    for pairwise-implied groups once subsumption ran first.
    """
    from .fourier_motzkin import rational_feasible  # cycle: runtime import

    kept = list(system.inequalities)
    idx = len(kept) - 1
    while idx >= 0 and len(kept) > 1:
        candidate = kept[idx]
        probe = System(
            system.equalities, kept[:idx] + kept[idx + 1:]
        )
        try:
            probe.add_inequality(-candidate - 1)
            redundant = not rational_feasible(probe)
        except InfeasibleError:
            redundant = True
        if redundant:
            kept.pop(idx)
            current_context().stats.semantic_dropped += 1
        idx -= 1
    out = System()
    out.equalities = list(system.equalities)
    out.inequalities = kept
    return out


def simplify(system: System, level: int = DEFAULT_LEVEL) -> System:
    """Return an equivalent system with redundant inequalities removed.

    Exact over the integers at every level; raises InfeasibleError if
    pruning exposes a syntactic contradiction.
    """
    current_context().stats.simplify_calls += 1
    if level <= NONE:
        return system
    pruned = subsume_inequalities(system.inequalities, system.equalities)
    if len(pruned) != len(system.inequalities):
        out = System()
        out.equalities = list(system.equalities)
        out.inequalities = pruned
    else:
        out = system
    if level >= SEMANTIC and len(out.inequalities) > 1:
        out = semantic_prune(out)
    return out
