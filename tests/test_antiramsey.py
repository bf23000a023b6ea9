import dataclasses
import itertools
import json

import numpy as np
import pytest

import hyperindep as hi
from hyperindep import antiramsey
from hyperindep.antiramsey import ColorClass, load_coloring, save_coloring
from hyperindep.errors import (
    ColoringParseError,
    InvariantError,
    MatchingInfeasibleError,
    OutOfRangeError,
    RegimeViolationWarning,
)


def fresh_coloring(n, ell=2, u=None, classes=()):
    bounds = {s: (u or n) for s in range(2, ell + 1)}
    return hi.Coloring(n=n, ell=ell, bounds=bounds, classes=classes)


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
        c = fresh_coloring(4, classes=[ColorClass(2, [(0, 1), (1, 2)])])
        v = hi.validate_coloring(c)
        assert any(x["rule"] == "a" and "1" in x["detail"] for x in v)

    def test_mixed_sizes_flagged(self):
        c = fresh_coloring(5, ell=3, classes=[ColorClass(2, [(0, 1), (2, 3, 4)])])
        assert any(x["rule"] == "b" for x in hi.validate_coloring(c))

    def test_bound_overflow_flagged(self):
        c = fresh_coloring(6, u=1, classes=[ColorClass(2, [(0, 1), (2, 3)])])
        assert any(x["rule"] == "c" for x in hi.validate_coloring(c))


class TestCollisions:
    def test_tiny_probe_always_multicolored(self):
        c = small_random_coloring(20, 4, 1)
        assert hi.collisions(c, []).multicolored
        assert hi.collisions(c, [3]).multicolored

    def test_pair_inside_detected(self):
        c = fresh_coloring(6, classes=[ColorClass(2, [(0, 1), (2, 3)])])
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
        c = fresh_coloring(6, classes=[ColorClass(2, [(0, 1), (2, 3)])])
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
        c = fresh_coloring(
            4, classes=[ColorClass(2, [(0, 1), (2, 3)]), ColorClass(2, [(0, 2), (1, 3)])]
        )
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
        c = fresh_coloring(4, classes=[ColorClass(2, [(0, 1), (2, 3)])])
        assert hi.exact_f_delta(c) == 3

    def test_fresh_singletons_do_not_change_value(self):
        c = small_random_coloring(11, 3, seed=2)
        before = hi.exact_f_delta(c)
        c2 = hi.Coloring(c.n, c.ell, dict(c.bounds), [*c.classes, ColorClass(2, [(0, 1)])])
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


# ----------------------------------------------------------------------
# the array paths against per-edge references
# ----------------------------------------------------------------------


def reference_matching_coloring(n, params):
    """The construction one matching at a time, on tuples."""
    k, u = params.k, params.u
    size = min(u, n // k)
    rng = antiramsey._rng(params.seed, 31)
    taken, classes = set(), []
    for _ in range(params.matching_count(n)):
        flat = rng.choice(n, size=k * size, replace=False)
        blocks = sorted(map(tuple, np.sort(flat.reshape(size, k), axis=1).tolist()))
        fresh = [e for e in blocks if e not in taken]
        if fresh:
            taken.update(fresh)
            classes.append((k, tuple(fresh)))
    return classes


def reference_records(n, bounds, classes):
    """The three coloring conditions, edge by edge."""
    violations = []
    for cid, (_, edges) in enumerate(classes):
        sizes = {len(e) for e in edges}
        if len(sizes) > 1:
            violations.append({"rule": "b", "class": cid, "detail": f"mixed sizes {sorted(sizes)}"})
        used = {}
        for e in edges:
            if len(e) != len(set(e)):
                violations.append({"rule": "a", "class": cid, "detail": f"repeated vertex in {e}"})
            if any(v < 0 or v >= n for v in e):
                violations.append({"rule": "a", "class": cid, "detail": f"vertex out of range in {e}"})
            for v in e:
                if v in used:
                    violations.append(
                        {"rule": "a", "class": cid, "detail": f"vertex {v} shared by {used[v]} and {e}"}
                    )
                used[v] = e
        for s in sorted(sizes):
            cap = bounds.get(s)
            count = sum(1 for e in edges if len(e) == s)
            if cap is None:
                violations.append({"rule": "c", "class": cid, "detail": f"no bound for size {s}"})
            elif count > cap:
                violations.append(
                    {"rule": "c", "class": cid, "detail": f"{count} size-{s} edges exceed u_{s}={cap}"}
                )
    seen = {}
    for cid, (_, edges) in enumerate(classes):
        for e in edges:
            if e in seen:
                violations.append(
                    {"rule": "a", "class": cid, "detail": f"edge {e} already colored by class {seen[e]}"}
                )
            seen[e] = cid
    return violations


def reference_collisions(classes, probe):
    xs = set(probe)
    y, colored_inside = {}, 0
    for cid, (_, edges) in enumerate(classes):
        inside = sum(1 for e in edges if xs.issuperset(e))
        colored_inside += inside
        if inside >= 2:
            y[cid] = inside * (inside - 1) // 2
    return hi.CollisionReport(x=len(xs), y=y, colored_inside=colored_inside, multicolored=not y)


def reference_conflict(classes, subset):
    ids = sorted(set(subset))
    pos = {v: i for i, v in enumerate(ids)}
    unions = set()
    for _, edges in classes:
        inside = [e for e in edges if set(ids).issuperset(e)]
        for e1, e2 in itertools.combinations(inside, 2):
            unions.add(tuple(sorted(pos[v] for v in e1 + e2)))
    return hi.Hypergraph(len(ids), sorted(unions))


def _outcome(build):
    """What ``build()`` returns, or the type and text of what it raises."""
    try:
        return build()
    except Exception as exc:
        return type(exc), str(exc)


CORRUPTIONS = ("shared", "repeated", "range", "two-classes", "mixed", "over-bound", "empty")


def corrupt(classes, n, k, kind, rng):
    """A copy of ``classes`` (a list of (size, edges)) broken in one way."""
    classes = [(size, list(edges)) for size, edges in classes]
    cid = int(rng.choice([i for i, (_, edges) in enumerate(classes) if edges]))
    edges = classes[cid][1]
    j = int(rng.integers(len(edges)))
    e = list(edges[j])
    if kind == "shared" and len(edges) > 1:
        e[int(rng.integers(k))] = edges[(j + 1) % len(edges)][0]
    elif kind == "repeated":
        e[-1] = e[0]
    elif kind == "range":
        e[int(rng.integers(k))] = int(rng.choice([-1, n, n + 7]))
    elif kind == "two-classes":
        other = (cid + 1) % len(classes)
        classes[other][1].insert(int(rng.integers(len(classes[other][1]) + 1)), edges[j])
    elif kind == "mixed":
        e = e + [int(rng.integers(n))]
    elif kind == "over-bound":
        edges.extend(edges[: int(rng.integers(1, 4))])
    elif kind == "empty":
        classes.insert(int(rng.integers(len(classes) + 1)), (k, []))
    edges[j] = tuple(e)
    return classes


def random_colorings():
    """Matching colorings with k = 2 and 3, then copies with one to three
    corruptions each."""
    rng = np.random.default_rng(12)
    for seed in range(40):
        k = 2 + seed % 2
        n = int(rng.integers(3 * k, 30))
        u = int(rng.integers(1, n // k + 2))
        c = small_random_coloring(n, u, seed, k=k)
        classes = [(cls.size, cls.edges) for cls in c.classes]
        yield n, c.bounds, classes
        for kind in CORRUPTIONS:
            broken = classes
            for extra in range(int(rng.integers(1, 4))):
                broken = corrupt(broken, n, k, kind if extra == 0 else rng.choice(CORRUPTIONS), rng)
            yield n, c.bounds, broken


class TestArrayPaths:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matching_coloring_matches_reference(self, k):
        for n, u, seed in [(3 * k, 1, 0), (20, 3, 1), (64, 16, 2), (256, 256, 3), (97, 5, 4)]:
            c = hi.matching_coloring(n, hi.MatchingColoringParams(k=k, u=u, seed=seed))
            want = reference_matching_coloring(n, hi.MatchingColoringParams(k=k, u=u, seed=seed))
            assert [(cls.size, cls.edges) for cls in c.classes] == want

    def test_validate_matches_reference(self):
        refused = 0
        for n, bounds, classes in random_colorings():
            c = hi.Coloring(n, max(bounds), bounds, [ColorClass(s, e) for s, e in classes])
            want = reference_records(n, bounds, classes)
            got = hi.validate_coloring(c)
            assert (got == []) == (want == [])
            assert got == want
            refused += bool(want)
        assert refused >= 200  # nearly every corrupted copy is refused

    def test_collisions_and_conflicts_match_reference(self):
        rng = np.random.default_rng(13)
        for n, bounds, classes in random_colorings():
            c = hi.Coloring(n, max(bounds), bounds, [ColorClass(s, e) for s, e in classes])
            probes = [range(n)] + [
                rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False).tolist()
                for _ in range(3)
            ]
            for probe in probes:
                assert hi.collisions(c, probe) == reference_collisions(classes, probe)
                got = _outcome(lambda: hi.conflict_hypergraph(c, probe)[0])
                assert got == _outcome(lambda: reference_conflict(classes, probe))

    def test_exact_f_delta_matches_brute_force(self):
        for seed in range(8):
            c = small_random_coloring(9, 2 + seed % 3, seed, k=2 + seed % 2)
            want = max(
                len(x)
                for r in range(c.n + 1)
                for x in itertools.combinations(range(c.n), r)
                if hi.collisions(c, x).multicolored
            )
            assert hi.exact_f_delta(c) == want

    @pytest.mark.parametrize("span", [5, 2**31], ids=["packed", "lexsort"])
    def test_row_runs_is_a_stable_lexicographic_order(self, span):
        rng = np.random.default_rng(span % 97)
        rows = rng.integers(-span, span, size=(300, 3))
        rows[100:200] = rows[:100]
        order, new = antiramsey._row_runs(rows)
        want = sorted(range(len(rows)), key=lambda i: (tuple(rows[i]), i))
        assert order.tolist() == want
        ranked = [tuple(rows[i]) for i in want]
        assert new.tolist() == [i == 0 or ranked[i] != ranked[i - 1] for i in range(len(rows))]

    def test_classes_are_read_only(self):
        c = small_random_coloring(30, 5, seed=4)
        with pytest.raises(AttributeError):
            c.classes.append(ColorClass(2, ((0, 1),)))
        with pytest.raises(ValueError):
            c.ids[0] = 1

    def test_id_beyond_int32_refused(self):
        with pytest.raises(OutOfRangeError):
            hi.Coloring(4, 2, {2: 2}, [ColorClass(2, [(0, 2**31)])])


class TestColoringParseErrors:
    DOC = {"schema_version": 1, "n": 4, "ell": 2, "u": {"2": 2}, "classes": []}

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{", "not valid JSON"),
            ("[]", "expected a JSON object"),
            (json.dumps({k: v for k, v in DOC.items() if k != "u"}), "missing key 'u'"),
            (json.dumps({k: v for k, v in DOC.items() if k != "schema_version"}), "missing key 'schema_version'"),
            (json.dumps({**DOC, "schema_version": 2}), "unknown schema_version 2"),
            (json.dumps({**DOC, "n": "4"}), "'n' is not an integer"),
            (json.dumps({**DOC, "ell": True}), "'ell' is not an integer"),
            (json.dumps({**DOC, "u": [2]}), "'u' is not an object"),
            (json.dumps({**DOC, "u": {"x": 2}}), "'u' key 'x' is not an edge size"),
            (json.dumps({**DOC, "u": {"2": 2.5}}), "'u': '2' is not an integer"),
            (json.dumps({**DOC, "classes": {}}), "'classes' is not a list"),
            (json.dumps({**DOC, "classes": [[0, 1]]}), "class 0: expected a JSON object"),
            (json.dumps({**DOC, "classes": [{"edges": []}]}), "class 0: missing key 'size'"),
            (json.dumps({**DOC, "classes": [{"size": 2, "edges": [[0, 1], 2]}]}), "class 0, edge 1: expected"),
            (json.dumps({**DOC, "classes": [{"size": 2, "edges": [[0, "x"]]}]}), "class 0, edge 0: expected"),
            (json.dumps({**DOC, "classes": [{"size": 2, "edges": [[0, 1.0]]}]}), "class 0, edge 0: expected"),
            (json.dumps({**DOC, "classes": [{"size": 2, "edges": [[0, 2**31]]}]}), "class 0, edge 0: expected"),
        ],
    )
    def test_bad_file_raises(self, tmp_path, text, message):
        path = tmp_path / "c.json"
        path.write_text(text, encoding="ascii")
        with pytest.raises(ColoringParseError, match=message):
            load_coloring(path)

    def test_malformed_rules_still_load(self, tmp_path):
        # the coloring rules are validate_coloring's to report, not the loader's
        path = tmp_path / "c.json"
        doc = {**self.DOC, "classes": [{"size": 2, "edges": [[0, 1], [1, 9], [3, 3, 3]]}]}
        path.write_text(json.dumps(doc), encoding="ascii")
        rules = [v["rule"] for v in hi.validate_coloring(load_coloring(path))]
        assert rules == ["b", "a", "a", "a", "a", "a", "c"]
