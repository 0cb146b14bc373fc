"""Exact integer reasoning on linear systems (the Omega test).

The paper (Section 5.1) checks whether a system of inequalities has an
*integer* solution with Fourier-Motzkin elimination plus branch-and-bound.
We implement the refined form of that idea, Pugh's Omega test:

* equalities are eliminated exactly (unit-coefficient substitution, with
  a coefficient-reduction rewrite for the general case);
* inequalities are eliminated by FM, which is exact when one coefficient
  of each combined pair is 1;
* otherwise the *dark shadow* proves feasibility, the *real shadow*
  proves infeasibility, and the residual gap is searched exhaustively
  with splinter equalities (the branch-and-bound of the paper).

This module also provides the superfluous-constraint test the paper
describes: a constraint is redundant iff the system with the constraint's
negation has no integer solution.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .affine import LinExpr
from . import simplify as _simplify_mod
from .fourier_motzkin import LRUMemo, extract_bounds
from .simplify import SUBSUME, simplify
from .stats import current_context
from .system import InfeasibleError, System


class OmegaDepthError(Exception):
    """Raised when the feasibility search exceeds its recursion budget."""


def _fresh_aux(prefix: str = "omega") -> str:
    # every prefix shares the one "omega" numbering
    return f"${prefix}{current_context().fresh_id('omega')}"


# ---------------------------------------------------------------------------
# Equality elimination
# ---------------------------------------------------------------------------

def _solve_unit_equality(eq: LinExpr) -> Optional[Tuple[str, LinExpr]]:
    """If some variable has coefficient +-1, return (var, replacement)."""
    for name, coeff in eq.terms():
        if coeff == 1:
            return name, LinExpr.var(name) - eq
        if coeff == -1:
            return name, eq + LinExpr.var(name)
    return None


def eliminate_equalities(system: System) -> System:
    """Return an equisatisfiable system with no equalities.

    Exact over the integers.  Uses unit-coefficient substitution when
    available and the classic coefficient-reduction rewrite otherwise
    (introducing fresh auxiliary variables, which are existentially
    quantified like every other variable here).

    Raises InfeasibleError when an equality has no integer solution
    (gcd test).
    """
    current = system.copy()
    while current.equalities:
        eq = current.equalities[0]
        tail = current.equalities[1:]
        g = eq.content()
        if g == 0:
            # constant equality; System() raises on construction, but
            # substitution can create these.
            if eq.const != 0:
                raise InfeasibleError(f"{eq} == 0")
            current.equalities.pop(0)
            continue
        if eq.const % g:
            raise InfeasibleError(f"gcd test fails for {eq} == 0")
        if g > 1:
            eq = eq.divide_exact(g)
        unit = _solve_unit_equality(eq)
        if unit is not None:
            name, replacement = unit
            env = {name: replacement}
            rest = System()
            for other in tail:
                rest.add_equality(other.substitute(env))
            for ineq in current.inequalities:
                rest.add_inequality(ineq.substitute(env))
            current = rest
            continue
        # Coefficient reduction: pick the variable with the smallest
        # |coefficient|; rewrite x_k in terms of a fresh variable y so the
        # equality's other coefficients drop below |a_k|.
        name, a_k = min(eq.terms(), key=lambda item: abs(item[1]))
        # y = x_k + sum(q_i * x_i) + q_c  where a_i = q_i*a_k + r_i
        y = _fresh_aux("eq")
        new_eq = LinExpr.var(y, a_k)
        x_k_replacement = LinExpr.var(y)
        for other_name, a_i in eq.terms():
            if other_name == name:
                continue
            q_i = _floor_div(a_i, a_k)
            r_i = a_i - q_i * a_k
            new_eq = new_eq + LinExpr.var(other_name, r_i)
            x_k_replacement = x_k_replacement - LinExpr.var(other_name, q_i)
        q_c = _floor_div(eq.const, a_k)
        r_c = eq.const - q_c * a_k
        new_eq = new_eq + r_c
        x_k_replacement = x_k_replacement - q_c
        env = {name: x_k_replacement}
        rest = System()
        rest.add_equality(new_eq)
        for other in tail:
            rest.add_equality(other.substitute(env))
        for ineq in current.inequalities:
            rest.add_inequality(ineq.substitute(env))
        current = rest
    return current


def _floor_div(a: int, b: int) -> int:
    """Mathematical floor division (Python's // already floors)."""
    return a // b


# ---------------------------------------------------------------------------
# Integer feasibility
# ---------------------------------------------------------------------------

#: memo for integer_feasible, keyed on (canonical system key, max_depth).
#: Feasibility is a pure function of the constraint set, so the memo is
#: never invalidated -- the LRU bound only limits memory.
_FEASIBILITY_MEMO = LRUMemo(maxsize=8192)


def feasibility_cache_clear() -> None:
    """Drop every memoized integer-feasibility verdict."""
    _FEASIBILITY_MEMO.clear()


def set_feasibility_memo_size(maxsize: int) -> int:
    """Resize and clear the memo (0 disables it); returns the old size.

    Mirrors ``fourier_motzkin.set_projection_cache_size`` so ablation
    benchmarks can switch the whole cache layer off.
    """
    return _FEASIBILITY_MEMO.resize(maxsize)


def integer_feasible(system: System, max_depth: int = 60) -> bool:
    """Does the system have an integer solution?  (All vars existential.)

    Verdicts are memoized on the system's canonical form: the compiler
    asks the same emptiness questions many times (communication-set
    pruning, bound pruning, redundancy checks).  A search that exhausts
    its recursion budget (:class:`OmegaDepthError`) is *not* cached --
    a caller with a larger budget must be able to retry.
    """
    key = (system.canonical_key(), max_depth)
    stats = current_context().stats
    hit = _FEASIBILITY_MEMO.get(key)
    if hit is not None:
        stats.feasibility_cache_hits += 1
        return hit
    stats.feasibility_cache_misses += 1
    from . import diskcache  # deferred: diskcache imports stats

    disk = diskcache.active()
    verdict: Optional[bool] = None
    if disk is not None:
        stored = disk.get_bytes("feas", repr(key))
        if stored == b"\x01":
            verdict = True
        elif stored == b"\x00":
            verdict = False
    if verdict is None:
        try:
            verdict = _feasible(system, max_depth)
        except InfeasibleError:
            verdict = False
        if disk is not None:
            disk.put_bytes(
                "feas", repr(key), b"\x01" if verdict else b"\x00"
            )
    _FEASIBILITY_MEMO.put(key, verdict)
    return verdict


def is_empty(system: System) -> bool:
    """True iff the system has no integer solution."""
    return not integer_feasible(system)


def _var_choice_stats(system: System) -> Dict[str, Tuple[int, int, bool]]:
    """Per-variable ``(lowers, uppers, exact)`` in one constraint pass.

    ``exact`` is Pugh's condition -- the variable's elimination is exact
    when it has no lower (or no upper) bound, or every lower (or every
    upper) coefficient is 1.  The system is assumed equality-free.
    """
    acc: Dict[str, List] = {}
    for ineq in system.inequalities:
        for var, coeff in ineq.terms():
            slot = acc.get(var)
            if slot is None:
                slot = acc[var] = [0, 0, True, True]
            if coeff > 0:
                slot[0] += 1
                slot[2] = slot[2] and coeff == 1
            else:
                slot[1] += 1
                slot[3] = slot[3] and coeff == -1
    return {
        var: (lo, hi, lo == 0 or hi == 0 or all_lo or all_hi)
        for var, (lo, hi, all_lo, all_hi) in acc.items()
    }


def _feasible(system: System, depth: int) -> bool:
    if depth <= 0:
        raise OmegaDepthError("omega test recursion budget exhausted")
    current = eliminate_equalities(system)
    # Subsumption pruning is always safe on feasibility-only paths (it
    # is exactly semantics-preserving) and keeps the FM descent small.
    # Follows the engine-wide default so ablation runs (prune NONE)
    # really disable it, but never recurses into the semantic level.
    try:
        current = simplify(
            current, level=min(_simplify_mod.DEFAULT_LEVEL, SUBSUME)
        )
    except InfeasibleError:
        return False
    choice = _var_choice_stats(current)
    if not choice:
        return True  # no constraints left that could fail

    # Choose the next variable: prefer one whose elimination is exact,
    # with the smallest FM fan-out; ties break on the name so the
    # search is reproducible.
    name = min(
        choice,
        key=lambda n: (not choice[n][2], choice[n][0] * choice[n][1], n),
    )
    bounds = extract_bounds(current, name)

    if not bounds.lowers or not bounds.uppers:
        # Unbounded in one direction: drop all constraints on the var.
        return _feasible(bounds.rest, depth - 1)

    real, dark, exact = _shadows(bounds)
    if exact:
        return real is not None and _feasible(real, depth - 1)
    if dark is not None:
        try:
            if _feasible(dark, depth - 1):
                return True
        except InfeasibleError:
            pass
    if real is None or not _feasible(real, depth - 1):
        return False
    # Gray zone: splinter.  For each lower bound a*v >= f we know any
    # integer solution must have a*v = f + i for some
    # 0 <= i <= (a*b_max - a - b_max) / b_max  (Pugh).
    b_max = max(b for b, _ in bounds.uppers)
    for a, f in bounds.lowers:
        limit = (a * b_max - a - b_max) // b_max
        for i in range(limit + 1):
            branch = system.copy()
            branch.add_equality(LinExpr.var(name, a) - f - i)
            try:
                if _feasible(branch, depth - 1):
                    return True
            except InfeasibleError:
                continue
    return False


def _shadows(bounds) -> Tuple[Optional[System], Optional[System], bool]:
    """Real shadow, dark shadow, and whether FM elimination was exact.

    Either shadow may come out syntactically infeasible (a negative
    constant constraint); that is reported as None.  An infeasible real
    shadow means the system is infeasible; an infeasible dark shadow
    only means the dark-shadow shortcut cannot prove feasibility.
    """
    real: Optional[System] = bounds.rest.copy()
    dark: Optional[System] = bounds.rest.copy()
    exact = True
    pairs = len(bounds.lowers) * len(bounds.uppers)
    stats = current_context().stats
    stats.eliminations += 1
    stats.pairs_considered += pairs
    stats.pairs_materialized += pairs
    for a, f in bounds.lowers:
        for b, g in bounds.uppers:
            combined = g * a - f * b
            if real is not None:
                try:
                    real.add_inequality(combined)
                except InfeasibleError:
                    real = None
            if dark is not None:
                try:
                    dark.add_inequality(combined - (a - 1) * (b - 1))
                except InfeasibleError:
                    dark = None
            if a != 1 and b != 1:
                exact = False
    if real is not None:
        stats.observe_system_size(real.size())
    return real, dark, exact


# ---------------------------------------------------------------------------
# Implication / redundancy
# ---------------------------------------------------------------------------

def negate_inequality(expr: LinExpr) -> LinExpr:
    """The integer negation of ``expr >= 0`` is ``-expr - 1 >= 0``."""
    return -expr - 1


def implies_inequality(system: System, expr: LinExpr) -> bool:
    """Does ``system`` imply ``expr >= 0`` over the integers?"""
    try:
        probe = system.copy()
        probe.add_inequality(negate_inequality(expr))
    except InfeasibleError:
        return True
    return is_empty(probe)


def implies_equality(system: System, expr: LinExpr) -> bool:
    """Does ``system`` imply ``expr == 0`` over the integers?"""
    for branch_expr in (expr - 1, -expr - 1):
        try:
            probe = system.copy()
            probe.add_inequality(branch_expr)
        except InfeasibleError:
            continue
        if not is_empty(probe):
            return False
    return True


def remove_redundant(system: System) -> System:
    """Drop every inequality implied by the rest of the system.

    This is the paper's superfluous-constraint elimination: replace the
    constraint with its negation and test for integer solutions.
    """
    kept = list(system.inequalities)
    changed = True
    while changed:
        changed = False
        for idx in range(len(kept) - 1, -1, -1):
            candidate = kept[idx]
            probe = System(system.equalities, kept[:idx] + kept[idx + 1:])
            if implies_inequality(probe, candidate):
                kept.pop(idx)
                changed = True
    out = System()
    out.equalities = list(system.equalities)
    out.inequalities = kept
    return out


# ---------------------------------------------------------------------------
# Sampling (used heavily by tests and by set-size measurement)
# ---------------------------------------------------------------------------

def _var_interval(system: System, name: str, clamp: int) -> Tuple[int, int]:
    """Rational bounds of ``name`` in the projection of ``system``."""
    from .fourier_motzkin import eliminate  # local import to avoid cycle

    current = system.copy()
    for other in list(current.variables()):
        if other != name and current.involves(other):
            current = eliminate(current, other)
    bounds = extract_bounds(current, name)
    lo, hi = -clamp, clamp
    for a, f in bounds.lowers:
        if f.is_constant():
            lo = max(lo, -(-f.const // a))  # ceil(f/a)
    for b, g in bounds.uppers:
        if g.is_constant():
            hi = min(hi, g.const // b)
    return lo, hi


def sample_point(
    system: System,
    order: Optional[List[str]] = None,
    clamp: int = 64,
) -> Optional[Dict[str, int]]:
    """Find one integer point of the system, or None.

    Intended for tests and small measurement tasks; explores variables
    in ``order`` (default: sorted), clamping unbounded directions to
    ``[-clamp, clamp]``.
    """
    variables = sorted(system.variables()) if order is None else list(order)
    variables = [v for v in variables if system.involves(v)]

    def search(current: System, remaining: List[str], env: Dict[str, int]):
        if not remaining:
            return dict(env) if not current.variables() else None
        name = remaining[0]
        if not current.involves(name):
            env[name] = 0
            result = search(current, remaining[1:], env)
            if result is None:
                del env[name]
            return result
        try:
            lo, hi = _var_interval(current, name, clamp)
        except InfeasibleError:
            return None
        for value in range(lo, hi + 1):
            try:
                reduced = current.substitute({name: value})
            except InfeasibleError:
                continue
            env[name] = value
            result = search(reduced, remaining[1:], env)
            if result is not None:
                return result
            del env[name]
        return None

    return search(system, variables, {})


def enumerate_points(
    system: System,
    order: List[str],
    clamp: int = 512,
) -> Iterable[Dict[str, int]]:
    """Enumerate all integer points, lexicographically in ``order``.

    The workhorse behind set-size measurements in benchmarks (message
    counts, transfer volumes).  All variables of the system must appear
    in ``order``; unbounded directions are clamped (and that clamping is
    a bug in the caller's setup, not a feature).
    """
    order = list(order)
    missing = set(system.variables()) - set(order)
    if missing:
        raise ValueError(f"enumerate_points: unordered variables {missing}")

    def walk(current: System, remaining: List[str], env: Dict[str, int]):
        if not remaining:
            yield dict(env)
            return
        name = remaining[0]
        if not current.involves(name):
            # Degenerate: a variable with no constraints would make the
            # set infinite; treat as the single value 0.
            env[name] = 0
            yield from walk(current, remaining[1:], env)
            del env[name]
            return
        try:
            lo, hi = _var_interval(current, name, clamp)
        except InfeasibleError:
            return
        for value in range(lo, hi + 1):
            try:
                reduced = current.substitute({name: value})
            except InfeasibleError:
                continue
            env[name] = value
            yield from walk(reduced, remaining[1:], env)
            del env[name]

    yield from walk(system, order, {})
