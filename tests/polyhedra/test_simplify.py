"""Redundancy pruning, caching, and engine-statistics tests (PR 2).

Property-style checks that the fast engine is *exact*: every pruning
level and every cache layer must preserve the integer point set of the
systems it touches, cross-checked against brute-force enumeration with
``System.satisfies``.
"""

import itertools
import sys
import threading

import pytest

from repro.polyhedra import (
    InfeasibleError,
    LRUMemo,
    LinExpr,
    NONE,
    SEMANTIC,
    SUBSUME,
    System,
    eliminate,
    eliminate_exact_flag,
    eliminate_many,
    feasibility_cache_clear,
    integer_feasible,
    projection_cache_clear,
    projection_cache_info,
    set_feasibility_memo_size,
    set_projection_cache_size,
    simplify,
    stats,
    var,
)


def points(system, names, radius=6):
    """Brute-force integer point set over a small box, via satisfies()."""
    out = set()
    for values in itertools.product(range(-radius, radius + 1),
                                    repeat=len(names)):
        env = dict(zip(names, values))
        if system.satisfies(env):
            out.add(values)
    return out


def triangle():
    """1 <= x <= y <= 5, plus a redundant copy of each bound."""
    s = System()
    s.add_inequality(var("x") - 1)           # x >= 1
    s.add_inequality(var("x"))               # x >= 0   (redundant)
    s.add_inequality(var("y") - var("x"))    # y >= x
    s.add_inequality(-var("y") + 5)          # y <= 5
    s.add_inequality(-var("y") + 9)          # y <= 9   (redundant)
    return s


class TestSimplifyExactness:
    @pytest.mark.parametrize("level", [NONE, SUBSUME, SEMANTIC])
    def test_levels_preserve_point_set(self, level):
        s = triangle()
        pruned = simplify(s, level=level)
        assert points(pruned, ["x", "y"]) == points(s, ["x", "y"])

    def test_subsume_keeps_tightest(self):
        pruned = simplify(triangle(), level=SUBSUME)
        # x >= 0 and y <= 9 die; x >= 1, y >= x, y <= 5 survive
        assert len(pruned.inequalities) == 3

    def test_semantic_drops_implied_sum(self):
        s = System()
        s.add_inequality(var("x"))                  # x >= 0
        s.add_inequality(var("y"))                  # y >= 0
        s.add_inequality(var("x") + var("y") + 5)   # implied by the two
        assert len(simplify(s, level=SUBSUME).inequalities) == 3
        pruned = simplify(s, level=SEMANTIC)
        assert len(pruned.inequalities) == 2
        assert points(pruned, ["x", "y"]) == points(s, ["x", "y"])

    def test_equality_implied_inequality_dropped(self):
        s = System()
        s.add_equality(var("x") - var("y"))      # x = y
        s.add_inequality(var("x") - var("y"))    # x >= y: implied
        pruned = simplify(s, level=SUBSUME)
        assert pruned.inequalities == []

    def test_equality_contradicting_inequality_raises(self):
        s = System()
        s.add_equality(var("x") - var("y"))           # x = y
        s.inequalities.append(var("y") - var("x") - 1)  # y >= x + 1
        with pytest.raises(InfeasibleError):
            simplify(s, level=SUBSUME)


class TestPrunedProjection:
    """Projection with pruning = projection without, as point sets."""

    @pytest.mark.parametrize("level", [NONE, SUBSUME, SEMANTIC])
    def test_eliminate_preserves_shadow(self, level):
        s = triangle()
        s.add_inequality(var("z") - var("x"))    # z >= x
        s.add_inequality(-var("z") + var("y"))   # z <= y
        shadow = eliminate(s, "z", prune=level)
        assert not shadow.involves("z")
        assert points(shadow, ["x", "y"]) == {
            p[:2] for p in points(s, ["x", "y", "z"])
        }

    @pytest.mark.parametrize("level", [SUBSUME, SEMANTIC])
    def test_eliminate_many_matches_unpruned(self, level):
        # non-unit coefficients: the real shadow over-approximates the
        # integer shadow, but pruning must not change it at all
        s = triangle()
        s.add_inequality(var("z") * 2 - var("x"))     # 2z >= x
        s.add_inequality(-var("z") * 3 + var("y"))    # 3z <= y
        shadow = eliminate_many(s, ["z", "x"], prune=level)
        baseline = eliminate_many(s, ["z", "x"], prune=NONE)
        assert points(shadow, ["y"]) == points(baseline, ["y"])
        true_shadow = {p[1:2] for p in points(s, ["x", "y", "z"])}
        assert true_shadow <= points(shadow, ["y"])

    def test_exact_flag_survives_pruning(self):
        # unit coefficients on one side: FM is exact, and pruning must
        # not obscure that
        s = triangle()
        s.add_inequality(var("z") - var("x"))
        s.add_inequality(-var("z") * 2 + var("y"))
        _, exact = eliminate_exact_flag(s, "z")
        assert exact
        # coefficients > 1 on both sides: the real shadow is inexact
        t = System()
        t.add_inequality(var("z") * 2 - var("x"))     # 2z >= x
        t.add_inequality(-var("z") * 3 + var("y"))    # 3z <= y
        t.add_inequality(var("x") + 10)
        t.add_inequality(-var("x") + 10)
        _, exact = eliminate_exact_flag(t, "z")
        assert not exact


class TestProjectionCache:
    def test_hit_on_canonically_equal_system(self):
        projection_cache_clear()
        a = triangle()
        b = System()  # same constraints, different construction order
        for ineq in reversed(triangle().inequalities):
            b.add_inequality(ineq)
        before = projection_cache_info()
        shadow_a = eliminate(a, "x")
        shadow_b = eliminate(b, "x")
        after = projection_cache_info()
        assert after["hits"] == before["hits"] + 1
        assert shadow_a.canonical_key() == shadow_b.canonical_key()

    def test_renamed_system_is_a_different_entry(self):
        projection_cache_clear()
        s = triangle()
        shadow = eliminate(s, "x")
        renamed = s.rename({"x": "u", "y": "v"})
        before = projection_cache_info()
        shadow_r = eliminate(renamed, "u")
        after = projection_cache_info()
        # alpha-renaming changes the canonical key: no (false) hit, and
        # the result is exactly the renamed shadow
        assert after["hits"] == before["hits"]
        assert after["misses"] == before["misses"] + 1
        assert (shadow_r.canonical_key()
                == shadow.rename({"y": "v"}).canonical_key())

    def test_cached_result_is_a_private_copy(self):
        projection_cache_clear()
        s = triangle()
        first = eliminate(s, "x")
        first.add_inequality(var("y") - 4)  # mutate the returned system
        second = eliminate(triangle(), "x")  # served from the cache
        assert len(second.inequalities) < len(first.inequalities)


class TestFeasibilityMemo:
    def test_memo_hit_and_disable(self):
        feasibility_cache_clear()
        s = triangle()
        before = stats.snapshot()
        assert integer_feasible(s)
        assert integer_feasible(s)
        delta = stats.delta_since(before)
        assert delta["feasibility_cache_hits"] >= 1
        saved = set_feasibility_memo_size(0)
        try:
            before = stats.snapshot()
            assert integer_feasible(triangle())
            assert integer_feasible(triangle())
            delta = stats.delta_since(before)
            assert delta["feasibility_cache_hits"] == 0
        finally:
            set_feasibility_memo_size(saved)


class TestLRUMemo:
    def test_eviction_and_resize(self):
        memo = LRUMemo(maxsize=2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1  # touch: "b" is now the oldest
        assert memo.put("c", 3) == 1
        assert memo.get("b") is None and memo.get("c") == 3
        assert memo.resize(0) == 2
        assert len(memo) == 0

    def test_concurrent_projections_through_a_tiny_memo(self):
        """Eight threads project through a size-2 projection cache,
        switching threads as often as the interpreter allows: no thread
        sees an exception from a racing eviction and every result (hit
        or miss) is the stored projection."""
        systems = []
        for k in range(3):
            s = triangle()
            s.add_inequality(var("y") - 2 - k)     # y >= 2 + k
            systems.append(s)
        expected = [eliminate(s, "x").canonical_key() for s in systems]
        errors, wrong = [], []

        def worker(seed):
            try:
                for i in range(1500):
                    k = (seed + i) % len(systems)
                    got = eliminate(systems[k], "x").canonical_key()
                    if got != expected[k]:
                        wrong.append(k)
            except Exception as exc:
                errors.append(exc)

        saved_size = projection_cache_info()["maxsize"]
        saved_interval = sys.getswitchinterval()
        set_projection_cache_size(2)
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,))
                       for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(saved_interval)
            set_projection_cache_size(saved_size)
        assert not errors
        assert not wrong
        assert projection_cache_info()["size"] == 0


class TestSystemDedup:
    def test_scaled_equality_deduplicated(self):
        s = System()
        s.add_equality(var("x") * 2 - var("y") * 2)
        s.add_equality(var("x") - var("y"))
        assert len(s.equalities) == 1

    def test_hash_consed_exprs_are_interned(self):
        a = var("x") * 3 + var("y") - 7
        b = var("y") + var("x") * 3 - 7
        assert a is b

    def test_stats_count_elimination_work(self):
        before = stats.snapshot()
        s = triangle()
        s.add_inequality(var("z") - var("x"))
        s.add_inequality(-var("z") + var("y"))
        projection_cache_clear()
        eliminate(s, "z")
        delta = stats.delta_since(before)
        assert delta["eliminations"] >= 1
        assert delta["pairs_considered"] >= delta["pairs_materialized"]
        assert delta["pairs_materialized"] >= 1
