"""Symbolic-coefficient inequalities (paper Section 5.1 extension).

"We allow the coefficients in the linear inequalities to be of the form
+-(b0 + b1*u1 + ... + bm*um) where b >= 0 are integers and u > 0 are
symbolic constants.  The scope of our technique is limited to those
cases where the result of the projection also has coefficients that are
linear combinations of symbolic constants."

This module implements exactly that: inequalities whose coefficients
are non-negative linear forms in declared positive *size parameters*
(block sizes ``B``, machine sizes ``P``).  Fourier-Motzkin elimination
combines bounds by cross-multiplying coefficients; a combination whose
coefficient product would leave the linear class raises
:class:`SymbolicUnsupportedError` -- the paper's stated scope limit,
surfaced rather than mis-handled.

It powers symbolic block sizes in decompositions: the Figure 7 loop
bounds can be produced with a *symbolic* block::

    for i = max(3, B*p) to min(N, B*p + B - 1)

without fixing ``B`` at compile time (see ``symbolic_block_scan``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .affine import LinExpr


class SymbolicUnsupportedError(Exception):
    """The projection result would not be linear in the size parameters."""


@dataclass(frozen=True)
class SymCoef:
    """A coefficient ``b0 + sum(b_m * u_m)`` with b >= 0, u > 0.

    ``terms`` maps size-parameter names to non-negative integers.
    """

    const: int = 0
    terms: Tuple[Tuple[str, int], ...] = ()

    @staticmethod
    def of(value) -> "SymCoef":
        if isinstance(value, SymCoef):
            return value
        if isinstance(value, int):
            return SymCoef(const=value)
        if isinstance(value, str):
            return SymCoef(terms=((value, 1),))
        raise TypeError(value)

    def __post_init__(self):
        clean = tuple(
            sorted((n, c) for n, c in dict(self.terms).items() if c)
        )
        object.__setattr__(self, "terms", clean)

    def is_integer(self) -> bool:
        return not self.terms

    def is_zero(self) -> bool:
        return self.const == 0 and not self.terms

    def is_positive(self) -> bool:
        """Positive for every valuation (b >= 0, u >= 1)?"""
        if any(c < 0 for _n, c in self.terms) or self.const < 0:
            return False
        return self.const > 0 or any(c > 0 for _n, c in self.terms)

    def __add__(self, other: "SymCoef") -> "SymCoef":
        other = SymCoef.of(other)
        merged = dict(self.terms)
        for name, coeff in other.terms:
            merged[name] = merged.get(name, 0) + coeff
        return SymCoef(self.const + other.const, tuple(merged.items()))

    def __mul__(self, other) -> "SymCoef":
        """Product -- only defined while it stays linear."""
        other = SymCoef.of(other)
        if self.is_integer():
            return SymCoef(
                other.const * self.const,
                tuple((n, c * self.const) for n, c in other.terms),
            )
        if other.is_integer():
            return other.__mul__(self)
        raise SymbolicUnsupportedError(
            f"coefficient product ({self}) * ({other}) is not linear"
        )

    def evaluate(self, env: Mapping[str, int]) -> int:
        return self.const + sum(c * env[n] for n, c in self.terms)

    def __str__(self) -> str:
        parts = [f"{c}*{n}" if c != 1 else n for n, c in self.terms]
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


@dataclass(frozen=True)
class SymExpr:
    """``sum(coef[v] * v) + const`` with SymCoef coefficients."""

    coeffs: Tuple[Tuple[str, SymCoef], ...] = ()
    const: SymCoef = field(default_factory=SymCoef)

    @staticmethod
    def build(
        coeffs: Mapping[str, object] = (), const: object = 0
    ) -> "SymExpr":
        cleaned = tuple(
            sorted(
                (v, SymCoef.of(c))
                for v, c in dict(coeffs).items()
                if not SymCoef.of(c).is_zero()
            )
        )
        return SymExpr(cleaned, SymCoef.of(const))

    def coeff(self, var: str) -> SymCoef:
        for v, c in self.coeffs:
            if v == var:
                return c
        return SymCoef()

    def drop(self, var: str) -> "SymExpr":
        return SymExpr(
            tuple((v, c) for v, c in self.coeffs if v != var), self.const
        )

    def __add__(self, other: "SymExpr") -> "SymExpr":
        merged: Dict[str, SymCoef] = dict(self.coeffs)
        for v, c in other.coeffs:
            merged[v] = merged.get(v, SymCoef()) + c
        return SymExpr.build(merged, self.const + other.const)

    def scale(self, factor: SymCoef) -> "SymExpr":
        return SymExpr(
            tuple((v, c * factor) for v, c in self.coeffs),
            self.const * factor,
        )

    def negate(self) -> "SymExpr":
        minus_one = SymCoef(const=-1)

        def neg(c: SymCoef) -> SymCoef:
            return SymCoef(-c.const, tuple((n, -k) for n, k in c.terms))

        return SymExpr(
            tuple((v, neg(c)) for v, c in self.coeffs), neg(self.const)
        )

    def evaluate(self, env: Mapping[str, int]) -> int:
        total = self.const.evaluate(env)
        for v, c in self.coeffs:
            total += c.evaluate(env) * env[v]
        return total

    def __str__(self) -> str:
        parts = [f"({c})*{v}" for v, c in self.coeffs]
        parts.append(f"({self.const})")
        return " + ".join(parts)


@dataclass
class SymSystem:
    """A conjunction of ``expr >= 0`` with symbolic coefficients."""

    inequalities: List[SymExpr] = field(default_factory=list)

    def add(self, expr: SymExpr) -> None:
        self.inequalities.append(expr)

    def bounds_on(
        self, var: str
    ) -> Tuple[List[Tuple[SymCoef, SymExpr]], List[Tuple[SymCoef, SymExpr]],
               List[SymExpr]]:
        """Split into lowers ``A*v >= f``, uppers ``A*v <= g``, rest.

        Coefficient signs must be syntactically known (the Section 5.1
        form guarantees it); an indefinite coefficient raises.
        """
        lowers: List[Tuple[SymCoef, SymExpr]] = []
        uppers: List[Tuple[SymCoef, SymExpr]] = []
        rest: List[SymExpr] = []
        for ineq in self.inequalities:
            coef = ineq.coeff(var)
            if coef.is_zero():
                rest.append(ineq)
                continue
            other = ineq.drop(var)
            if coef.is_positive():
                # coef*v + other >= 0  =>  coef*v >= -other
                lowers.append((coef, other.negate()))
                continue
            neg = SymCoef(-coef.const, tuple((n, -c) for n, c in coef.terms))
            if neg.is_positive():
                # -neg*v + other >= 0  =>  neg*v <= other
                uppers.append((neg, other))
                continue
            raise SymbolicUnsupportedError(
                f"indefinite coefficient {coef} of {var}"
            )
        return lowers, uppers, rest

    def eliminate(self, var: str) -> "SymSystem":
        """One Fourier-Motzkin step with symbolic cross-multiplication.

        Raises SymbolicUnsupportedError when a combination's
        coefficients leave the linear class (the paper's scope limit).
        """
        from .stats import current_context

        stats = current_context().stats
        lowers, uppers, rest = self.bounds_on(var)
        stats.symbolic_pairs_considered += len(lowers) * len(uppers)
        out = SymSystem(list(rest))
        seen = set(out.inequalities)
        for a, f in lowers:
            for b, g in uppers:
                # a*v >= f, b*v <= g  =>  a*g - b*f >= 0
                combined = g.scale(a) + f.scale(b).negate()
                if combined in seen:
                    continue
                seen.add(combined)
                stats.symbolic_pairs_materialized += 1
                out.add(combined)
        return out

    def satisfies(self, env: Mapping[str, int]) -> bool:
        return all(ineq.evaluate(env) >= 0 for ineq in self.inequalities)

    def __str__(self) -> str:
        return "{ " + " ; ".join(
            f"{i} >= 0" for i in self.inequalities
        ) + " }"


@dataclass
class SymBound:
    """A loop bound ``ceil(expr / divisor)`` / ``floor(expr / divisor)``."""

    expr: SymExpr
    divisor: SymCoef

    def render(self, kind: str) -> str:
        if self.divisor.is_integer() and self.divisor.const == 1:
            return str(self.expr)
        return f"{kind}({self.expr}, {self.divisor})"


@dataclass
class SymScanLevel:
    var: str
    lowers: List[SymBound]
    uppers: List[SymBound]

    def describe(self) -> str:
        lo = [b.render("ceild") for b in self.lowers]
        hi = [b.render("floord") for b in self.uppers]
        lo_text = lo[0] if len(lo) == 1 else "max(" + ", ".join(lo) + ")"
        hi_text = hi[0] if len(hi) == 1 else "min(" + ", ".join(hi) + ")"
        return f"for {self.var} = {lo_text} to {hi_text}"


def symbolic_scan(
    system: SymSystem, order: Sequence[str]
) -> List[SymScanLevel]:
    """Ancourt-Irigoin scanning with symbolic coefficients.

    Returns the loop bounds outermost-first; every elimination must
    stay within the linear-coefficient class.
    """
    work = system
    levels_reversed: List[SymScanLevel] = []
    ordered = list(order)
    for idx, var in enumerate(reversed(ordered)):
        lowers, uppers, _rest = work.bounds_on(var)
        levels_reversed.append(
            SymScanLevel(
                var,
                [SymBound(f, a) for a, f in lowers],
                [SymBound(g, b) for b, g in uppers],
            )
        )
        if idx < len(ordered) - 1:
            # the outermost variable needs no elimination (no bounds
            # depend on it) -- and eliminating it could leave the
            # linear class (e.g. a B*B product), which the paper's
            # restriction forbids
            work = work.eliminate(var)
    return list(reversed(levels_reversed))


def symbolic_block_scan(
    loop_var: str,
    loop_lower: int,
    loop_upper_param: str,
    block_param: str,
    proc_var: str = "p",
) -> List[SymScanLevel]:
    """The Figure 7 computation scan with a *symbolic* block size.

    Builds { B*p <= i <= B*p + B - 1, lower <= i <= N, p >= 0 } and
    scans it in (p, i) order, yielding::

        for p = 0 to floord(N, B)
        for i = max(ceil(lower), B*p) to min(N, B*p + B - 1)
    """
    i, p, N, B = loop_var, proc_var, loop_upper_param, block_param
    sys_ = SymSystem()
    # i >= lower
    sys_.add(SymExpr.build({i: 1}, -loop_lower))
    # i <= N
    sys_.add(SymExpr.build({i: 1}, 0).negate() + SymExpr.build({N: 1}))
    # B*p <= i
    sys_.add(
        SymExpr.build({i: 1}) + SymExpr.build({p: SymCoef.of(B)}).negate()
    )
    # i <= B*p + B - 1
    sys_.add(
        SymExpr.build({p: SymCoef.of(B)}, SymCoef.of(B))
        + SymExpr.build({}, -1)
        + SymExpr.build({i: 1}).negate()
    )
    # p >= 0
    sys_.add(SymExpr.build({p: 1}))
    return symbolic_scan(sys_, [p, i])
