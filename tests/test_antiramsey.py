import dataclasses
import itertools

import numpy as np
import pytest

import hyperindep as hi
from hyperindep import antiramsey
from hyperindep.antiramsey import ColorClass, load_coloring, save_coloring
from hyperindep.errors import InvariantError, MatchingInfeasibleError, RegimeViolationWarning


def fresh_coloring(n, ell=2, u=None):
    return hi.Coloring(n=n, ell=ell, bounds={s: (u or n) for s in range(2, ell + 1)}, classes=[])


def small_random_coloring(n, u, seed, k=2):
    params = hi.MatchingColoringParams(k=k, u=u, seed=seed)
    return hi.matching_coloring(n, params)


class TestMatchingColoring:
    def test_single_perfect_matching(self):
        c = hi.matching_coloring(6, hi.MatchingColoringParams(k=2, u=3, seed=1))
        assert len(c.classes) == 1
        cls = c.classes[0]
        assert len(cls.edges) == 3
        assert sorted(v for e in cls.edges for v in e) == list(range(6))

    def test_validates_by_construction(self):
        for seed in range(5):
            c = small_random_coloring(64, 8, seed)
            assert hi.validate_coloring(c) == []

    def test_broken_construction_raises(self, monkeypatch):
        broken = [{"rule": "a", "class": 0, "detail": "repeated vertex"}]
        monkeypatch.setattr(antiramsey, "validate_coloring", lambda c: broken)
        with pytest.raises(InvariantError, match="broke its own constraints"):
            small_random_coloring(64, 8, seed=0)

    def test_class_sizes_bounded(self):
        c = hi.matching_coloring(64, hi.MatchingColoringParams(k=2, u=8, seed=2))
        for cls in c.classes:
            assert len(cls.edges) <= 8
            used = [v for e in cls.edges for v in e]
            assert len(used) == len(set(used))

    def test_bound_above_feasible_matching_is_capped(self):
        c = hi.matching_coloring(20, hi.MatchingColoringParams(k=2, u=20, seed=4))
        for cls in c.classes:
            assert len(cls.edges) <= 10

    def test_infeasible_when_nothing_fits(self):
        with pytest.raises(MatchingInfeasibleError):
            hi.matching_coloring(2, hi.MatchingColoringParams(k=3, u=1, seed=5))

    def test_c0_range_checked(self):
        with pytest.raises(ValueError):
            hi.MatchingColoringParams(k=2, u=4, c0=0.5).resolved_c0()


class TestValidateColoring:
    def test_sharing_vertex_flagged(self):
        c = fresh_coloring(4)
        c.classes.append(ColorClass(2, [(0, 1), (1, 2)]))
        v = hi.validate_coloring(c)
        assert any(x["rule"] == "a" and "1" in x["detail"] for x in v)

    def test_mixed_sizes_flagged(self):
        c = fresh_coloring(5, ell=3)
        c.classes.append(ColorClass(2, [(0, 1), (2, 3, 4)]))
        assert any(x["rule"] == "b" for x in hi.validate_coloring(c))

    def test_bound_overflow_flagged(self):
        c = fresh_coloring(6, u=1)
        c.classes.append(ColorClass(2, [(0, 1), (2, 3)]))
        assert any(x["rule"] == "c" for x in hi.validate_coloring(c))


class TestCollisions:
    def test_tiny_probe_always_multicolored(self):
        c = small_random_coloring(20, 4, 1)
        assert hi.collisions(c, []).multicolored
        assert hi.collisions(c, [3]).multicolored

    def test_pair_inside_detected(self):
        c = fresh_coloring(6)
        c.classes.append(ColorClass(2, [(0, 1), (2, 3)]))
        rep = hi.collisions(c, [0, 1, 2, 3])
        assert not rep.multicolored
        assert rep.y == {0: 1}
        assert rep.colored_inside == 2

    def test_flag_agrees_with_conflict_hypergraph(self):
        rng = np.random.default_rng(0)
        agree = 0
        for trial in range(1000):
            c = small_random_coloring(16, 3, seed=trial % 40)
            size = int(rng.integers(0, 13))
            probe = [int(v) for v in rng.choice(16, size=size, replace=False)]
            g, mapping = hi.conflict_hypergraph(c, probe)
            via_graph = g.edge_count() == 0
            assert hi.collisions(c, probe).multicolored == via_graph
            agree += 1
        assert agree == 1000


class TestConflictHypergraph:
    def test_fresh_coloring_edgeless(self):
        g, _ = hi.conflict_hypergraph(fresh_coloring(10), range(10))
        assert g.edge_count() == 0

    def test_single_pair_gives_4_edge(self):
        c = fresh_coloring(6)
        c.classes.append(ColorClass(2, [(0, 1), (2, 3)]))
        g, mapping = hi.conflict_hypergraph(c, range(5))
        assert g.edge_count(4) == 1
        (e,) = g.edges(4)
        assert sorted(mapping[v] for v in e) == [0, 1, 2, 3]

    def test_matches_quadratic_scan(self):
        rng = np.random.default_rng(5)
        for seed in range(6):
            c = small_random_coloring(18, 4, seed)
            probe = sorted(int(v) for v in rng.choice(18, size=12, replace=False))
            g, mapping = hi.conflict_hypergraph(c, probe)
            probe_set = set(probe)
            want = set()
            for cls in c.classes:
                inside = [e for e in cls.edges if probe_set.issuperset(e)]
                for e1, e2 in itertools.combinations(inside, 2):
                    want.add(tuple(sorted(set(e1) | set(e2))))
            got = {tuple(sorted(int(mapping[v]) for v in e)) for e in g.edges()}
            assert got == want

    def test_unions_deduplicated(self):
        c = fresh_coloring(4)
        c.classes.append(ColorClass(2, [(0, 1), (2, 3)]))
        c.classes.append(ColorClass(2, [(0, 2), (1, 3)]))
        g, _ = hi.conflict_hypergraph(c, range(4))
        assert g.edge_count(4) == 1  # both pairs produce {0,1,2,3}


class TestPlanAndFind:
    def test_plan_poly_formula(self):
        plan = hi.plan_conflict_build(256, {2: 16}, regime="poly")
        assert plan.s == 2
        assert plan.p == pytest.approx((1 / (256 * 16)) ** (1 / 3))

    def test_plan_log_formula(self):
        n, u = 1024, 1024
        plan = hi.plan_conflict_build(n, {2: u}, regime="log")
        omega = (u**2 / n) ** (1 / (2 * 3 * 5))
        assert plan.omega == pytest.approx(omega)
        assert plan.p == pytest.approx((1 / (n * u)) ** (1 / 3) * omega)
        assert plan.log_ok

    def test_log_regime_falls_back_when_u_small(self):
        c = small_random_coloring(64, 2, seed=1)
        plan = hi.plan_conflict_build(64, {2: 2}, regime="log")
        assert not plan.log_ok
        with pytest.warns(RegimeViolationWarning):
            found, report = hi.find_multicolored(c, plan, seed=2)
        assert report["regime"] == "poly"
        assert hi.collisions(c, found).multicolored

    def test_fresh_coloring_returns_whole_sample(self):
        c = fresh_coloring(128)
        plan = hi.plan_conflict_build(128, {2: 128}, regime="log")
        found, report = hi.find_multicolored(c, plan, seed=3)
        assert report["method"] == "whole-sample"
        assert len(found) == report["R"]

    @pytest.mark.parametrize(
        "fresh, message", [(True, "without conflict edges"), (False, "finder returned")]
    )
    def test_collision_in_result_raises(self, monkeypatch, fresh, message):
        n = 96
        plan = hi.plan_conflict_build(n, {2: 12}, regime="poly")
        if fresh:
            c = fresh_coloring(n)
        else:
            c = small_random_coloring(n, 12, seed=1)
            plan = dataclasses.replace(plan, p=0.4)
            assert hi.conflict_hypergraph(c, range(n))[0].edge_count() > 0
        collided = hi.CollisionReport(x=1, y={0: 1}, colored_inside=2, multicolored=False)
        monkeypatch.setattr(antiramsey, "collisions", lambda coloring, probe: collided)
        with pytest.raises(InvariantError, match=message):
            hi.find_multicolored(c, plan, seed=2)

    def test_every_run_multicolored(self):
        for seed in range(10):
            c = small_random_coloring(96, 12, seed)
            plan = hi.plan_conflict_build(96, {2: 12}, regime="auto")
            found, _ = hi.find_multicolored(c, plan, seed=seed + 100)
            assert hi.collisions(c, found).multicolored

    def test_bounded_by_exhaustive_on_tiny(self):
        for seed in range(6):
            c = small_random_coloring(10, 3, seed)
            exact = hi.exact_f_delta(c)
            plan = hi.plan_conflict_build(10, {2: 3}, regime="poly")
            for fseed in range(8):
                found, _ = hi.find_multicolored(c, plan, seed=fseed)
                assert len(found) <= exact

    def test_conflict_bridge(self):
        # independent in the conflict hypergraph on R implies multicolored
        rng = np.random.default_rng(9)
        for seed in range(8):
            c = small_random_coloring(14, 3, seed)
            probe = sorted(int(v) for v in rng.choice(14, size=10, replace=False))
            g, mapping = hi.conflict_hypergraph(c, probe)
            res = hi.exact_alpha(g)
            chosen = [int(mapping[v]) for v in res.witness]
            assert hi.collisions(c, chosen).multicolored


class TestExactFDelta:
    def test_fresh_is_everything(self):
        assert hi.exact_f_delta(fresh_coloring(5)) == 5

    def test_single_pair_class(self):
        c = fresh_coloring(4)
        c.classes.append(ColorClass(2, [(0, 1), (2, 3)]))
        assert hi.exact_f_delta(c) == 3

    def test_fresh_singletons_do_not_change_value(self):
        c = small_random_coloring(11, 3, seed=2)
        before = hi.exact_f_delta(c)
        c2 = hi.Coloring(c.n, c.ell, dict(c.bounds), list(c.classes))
        c2.classes.append(ColorClass(2, [(0, 1)]))
        assert hi.exact_f_delta(c2) == before

    def test_budget(self):
        c = small_random_coloring(20, 5, seed=3)
        with pytest.raises(hi.errors.BudgetExceededError):
            hi.exact_f_delta(c, budget=10)


class TestEstimateF:
    def test_stats_table(self):
        stats = hi.estimate_f(128, {2: 128}, regime="log", reps=4, seed=1, trials=20)
        assert stats["s"] == 2 and stats["reps"] == 4
        assert stats["min"] <= stats["median"] <= stats["max"]
        assert stats["shape_log"] > stats["shape_poly"] > 0
        assert len(stats["sizes"]) == 4

    def test_deterministic(self):
        a = hi.estimate_f(96, {2: 96}, reps=3, seed=7, trials=10)
        b = hi.estimate_f(96, {2: 96}, reps=3, seed=7, trials=10)
        assert a == b


class TestMultiSize:
    def _two_size_coloring(self, n=40, seed=0):
        a = hi.matching_coloring(n, hi.MatchingColoringParams(k=2, u=6, seed=seed))
        b = hi.matching_coloring(n, hi.MatchingColoringParams(k=3, u=4, seed=seed + 1))
        merged = hi.Coloring(
            n=n,
            ell=3,
            bounds={2: 6, 3: 4},
            classes=list(a.classes) + list(b.classes),
        )
        return merged

    def test_merged_coloring_valid(self):
        c = self._two_size_coloring()
        assert hi.validate_coloring(c) == []

    def test_conflict_layers(self):
        c = self._two_size_coloring(seed=3)
        g, _ = hi.conflict_hypergraph(c, range(c.n))
        assert set(g.sizes) <= {4, 5, 6}
        # unions of same-class pairs are disjoint, so sizes are exactly 2i
        assert 5 not in g.sizes

    def test_plan_picks_dominant_size(self):
        plan = hi.plan_conflict_build(40, {2: 6, 3: 4}, regime="poly")
        want = max((2, 3), key=lambda i: (40 ** (i - 1) * {2: 6, 3: 4}[i]) ** (1 / (2 * i - 1)))
        assert plan.s == want

    def test_find_multicolored_multi_size(self):
        c = self._two_size_coloring(seed=5)
        plan = hi.plan_conflict_build(c.n, c.bounds, regime="poly")
        for seed in range(5):
            found, report = hi.find_multicolored(c, plan, seed=seed, trials=20)
            assert hi.collisions(c, found).multicolored


class TestUpperBoundShadow:
    def test_multicolored_fraction_nonincreasing_in_probe_size(self):
        # the construction's point: moderately large probe sets almost always
        # trap a same-colored pair, and larger probes only get worse
        n = 4096
        u = int(n**0.7)
        c = hi.matching_coloring(n, hi.MatchingColoringParams(k=2, u=u, seed=31))
        us, vs, cid = [], [], []
        for idx, cls in enumerate(c.classes):
            for a, b in cls.edges:
                us.append(a)
                vs.append(b)
                cid.append(idx)
        us = np.array(us)
        vs = np.array(vs)
        cid = np.array(cid)
        nclasses = len(c.classes)
        rng = np.random.default_rng(7)
        fractions = []
        for x in (8, 16, 32, 64, 128):
            good = 0
            samples = 300
            for _ in range(samples):
                mask = np.zeros(n, dtype=bool)
                mask[rng.choice(n, size=x, replace=False)] = True
                inside = mask[us] & mask[vs]
                if not inside.any():
                    good += 1
                    continue
                counts = np.bincount(cid[inside], minlength=nclasses)
                if counts.max() <= 1:
                    good += 1
            fractions.append(good / samples)
        for a, b in zip(fractions, fractions[1:]):
            assert b <= a + 0.02, f"fractions rose along the grid: {fractions}"
        assert fractions[-1] < fractions[0]


class TestColoringFiles:
    def test_round_trip(self, tmp_path):
        c = small_random_coloring(30, 5, seed=4)
        path = tmp_path / "coloring.json"
        save_coloring(c, path)
        back = load_coloring(path)
        assert back.n == c.n and back.ell == c.ell and back.bounds == c.bounds
        assert [(cls.size, cls.edges) for cls in back.classes] == [
            (cls.size, cls.edges) for cls in c.classes
        ]
