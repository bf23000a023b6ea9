import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperindep as hi
from hyperindep import nibble
from hyperindep.errors import InvariantError, StepFailedError, WindowUnreachableError
from hyperindep.nibble import NibbleSchedule, greedy_hitting_set

from conftest import random_small_hypergraph

E = math.e


def girth5(n, t, seed=0):
    return hi.generate(hi.GenSpec("girth5_graph", n, {2: float(t)}, seed=seed))


def reference_hitting_set(vertex_sets):
    """The rescanning rule: pick the vertex in the most unhit sets, ties to
    the lowest id, by a full scan of every count per pick."""
    hits = {}
    for vs in vertex_sets:
        for v in vs:
            hits[v] = hits.get(v, 0) + 1
    chosen = set()
    active = [True] * len(vertex_sets)
    remaining = len(vertex_sets)
    while remaining:
        v = max(hits, key=lambda u: (hits[u], -u))
        chosen.add(v)
        for idx, vs in enumerate(vertex_sets):
            if active[idx] and v in vs:
                active[idx] = False
                remaining -= 1
                for u in vs:
                    if u in hits:
                        hits[u] -= 1
        del hits[v]
    return chosen


def reference_spencer(h, T, seed, trials):
    """Sample-then-delete by scanning every edge of every trial."""
    p = min(1.0, 1.0 / (2.0 * T))
    best = None
    for trial in range(trials):
        mask = nibble._rng(seed, trial).random(h.n) < p
        alive = [set(e) for e in h.edge_tuples() if all(mask[v] for v in e)]
        removed = reference_hitting_set(alive)
        witness = tuple(int(v) for v in np.flatnonzero(mask) if v not in removed)
        # larger set first, ties to the lexicographically smaller witness
        if best is None or (-len(witness), witness) < (-len(best), best):
            best = witness
    return best


def spencer_matches_reference(h, T=None, seed=0, trials=20):
    rep = hi.spencer_solve(h, T=T, seed=seed, trials=trials)
    assert rep.verified
    assert rep.witness == reference_spencer(h, rep.params["T"], seed, trials)
    return rep


class TestSpencer:
    def test_edgeless_keeps_everything(self):
        h = hi.new_hypergraph(10, [])
        rep = hi.spencer_solve(h, T=0.5, seed=1, trials=5)
        assert rep.size == 10 and rep.verified

    def test_k4_bound(self):
        rep = hi.spencer_solve(hi.fixture("k4"), T=3, seed=7, trials=50)
        assert rep.size >= math.ceil(4 / 12) == 1
        assert rep.verified

    def test_three_uniform_reaches_bound(self):
        h = hi.generate(hi.GenSpec("uniform_random", 60, {3: 4.0}, seed=3))
        T = max(h.average_degree(3)[1], 0.5)
        rep = hi.spencer_solve(h, seed=9, trials=200)
        assert rep.size >= math.ceil(60 / (4 * T))
        assert rep.verified

    def test_T_below_max_degree_rejected(self):
        with pytest.raises(ValueError):
            hi.spencer_solve(hi.fixture("k4"), T=1.0)

    def test_deterministic(self):
        h = hi.generate(hi.GenSpec("uniform_random", 80, {2: 3.0}, seed=4))
        a = hi.spencer_solve(h, seed=5, trials=30)
        b = hi.spencer_solve(h, seed=5, trials=30)
        assert a.witness == b.witness

    def test_edgeless_matches_reference(self):
        rep = spencer_matches_reference(hi.new_hypergraph(9, []), seed=3)
        assert rep.params["p"] == 1.0 and rep.size == 9

    def test_p_one_at_the_T_floor(self):
        # t_max = 2*2/10 = 0.4 < 0.5, so T sits at the 0.5 floor and p = 1:
        # every trial keeps every vertex and deletes one hitting set
        h = hi.new_hypergraph(10, [(0, 1), (1, 2)])
        rep = spencer_matches_reference(h, seed=4, trials=3)
        assert rep.params["T"] == 0.5 and rep.params["p"] == 1.0
        assert rep.witness == (0, 2, 3, 4, 5, 6, 7, 8, 9)

    def test_empty_sample_trial(self):
        h = hi.new_hypergraph(6, [(0, 1, 2), (3, 4)])
        T, trials = 200.0, 6
        samples = [nibble._rng(2, t).random(h.n) < 1 / (2 * T) for t in range(trials)]
        assert not any(m.any() for m in samples), "pick a seed whose trials all sample nothing"
        rep = spencer_matches_reference(h, T=T, seed=2, trials=trials)
        assert rep.witness == ()

    def test_mixed_instances_match_reference(self):
        for seed in range(6):
            h = random_small_hypergraph(seed + 200, n_max=14)
            spencer_matches_reference(h, seed=seed, trials=15)
        h = hi.generate(hi.GenSpec("uniform_random", 120, {2: 2.0, 3: 3.0}, seed=8))
        spencer_matches_reference(h, seed=1, trials=40)

    def test_induced_and_disjoint_copies(self):
        h = hi.generate(hi.GenSpec("uniform_random", 90, {2: 2.0, 3: 2.0}, seed=9))
        sub, _ = h.induced(range(5, 90, 2))
        spencer_matches_reference(sub, seed=2, trials=25)
        copies = sub.disjoint_copies(3)
        spencer_matches_reference(copies, seed=3, trials=25)

    def test_row_order_not_assumed(self):
        h = hi.generate(hi.GenSpec("uniform_random", 60, {2: 2.0, 3: 2.0}, seed=10))
        rng = np.random.default_rng(0)
        shuffled = {s: h.edge_array(s)[rng.permutation(h.edge_count(s))] for s in h.sizes}
        h2 = hi.Hypergraph._from_arrays(h.n, shuffled)
        a = hi.spencer_solve(h, seed=6, trials=30)
        b = spencer_matches_reference(h2, seed=6, trials=30)
        assert a.witness == b.witness


set_systems = st.lists(st.sets(st.integers(0, 12), min_size=1, max_size=5), max_size=25)


class TestGreedyHittingSet:
    def test_empty_list(self):
        assert greedy_hitting_set([]) == set() == reference_hitting_set([])

    def test_empty_set_raises(self):
        with pytest.raises(ValueError):
            greedy_hitting_set([{1, 2}, set()])

    @given(set_systems)
    @settings(max_examples=300, deadline=None)
    def test_matches_rescan(self, sets):
        got = greedy_hitting_set(sets)
        assert got == reference_hitting_set(sets)
        assert all(vs & got for vs in sets)

    @given(set_systems.filter(bool), st.data())
    @settings(max_examples=100, deadline=None)
    def test_duplicate_sets(self, sets, data):
        doubled = sets + [set(vs) for vs in data.draw(st.lists(st.sampled_from(sets), min_size=1))]
        assert greedy_hitting_set(doubled) == reference_hitting_set(doubled)

    @given(st.lists(st.integers(0, 20), max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_singletons(self, vertices):
        sets = [{v} for v in vertices]
        assert greedy_hitting_set(sets) == reference_hitting_set(sets) == set(vertices)

    @given(st.lists(st.sets(st.integers(0, 3), min_size=1, max_size=3), max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_tie_heavy(self, sets):
        assert greedy_hitting_set(sets) == reference_hitting_set(sets)

    def test_ties_go_to_the_lowest_id(self):
        # all three vertices tie at two sets, so 1 goes first; then 2 and 3
        # tie at one
        assert greedy_hitting_set([{1, 2}, {2, 3}, {1, 3}]) == {1, 2}


class TestGreedy:
    def test_edgeless(self):
        assert hi.greedy_solve(hi.new_hypergraph(7, [])).size == 7

    def test_k4(self):
        assert hi.greedy_solve(hi.fixture("k4")).size == 1

    def test_petersen_range(self, petersen):
        size = hi.greedy_solve(petersen).size
        assert 3 <= size <= hi.exact_alpha(petersen).alpha

    def test_maximal(self):
        h = hi.generate(hi.GenSpec("uniform_random", 40, {2: 2.0, 3: 2.0}, seed=6))
        rep = hi.greedy_solve(h)
        assert rep.verified
        chosen = set(rep.witness)
        for v in range(h.n):
            if v not in chosen:
                assert not h.is_independent(chosen | {v}), f"vertex {v} extends the set"


def caro_wei(h):
    """Sum of 1/(d(v)+1) over the vertices of a graph."""
    degrees = np.zeros(h.n, dtype=np.int64)
    for e in h.edge_tuples():
        degrees[list(e)] += 1
    return float((1.0 / (degrees + 1)).sum())


class TestCaroWei:
    """Min-degree greedy on a graph reaches the Caro-Wei bound."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        p = float(rng.random())
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
        h = hi.new_hypergraph(n, pairs)
        assert hi.greedy_solve(h).size >= caro_wei(h) - 1e-9

    @pytest.mark.parametrize(
        "h",
        [
            hi.fixture("petersen"),
            hi.fixture("k4"),
            hi.fixture("c5"),
            hi.generate(hi.GenSpec("girth5_graph", 500, {2: 6.0}, seed=4)),
            hi.generate(hi.GenSpec("uniform_random", 300, {2: 8.0}, seed=1)),
            hi.generate(hi.GenSpec("linear_random", 300, {2: 4.0}, seed=7)),
        ],
        ids=["petersen", "k4", "c5", "girth5", "uniform", "linear"],
    )
    def test_graph_fixtures(self, h):
        assert h.sizes == [2]
        assert hi.greedy_solve(h).size >= caro_wei(h) - 1e-9


class TestPruneHighDegree:
    def test_star_center_removed(self):
        star = hi.new_hypergraph(10, [(0, i) for i in range(1, 10)])
        sub, mapping, removed = hi.prune_high_degree(star, {2: 5})
        assert list(removed) == [0]
        assert sub.n == 9 and sub.edge_count() == 0

    def test_identity_below_caps(self, petersen):
        sub, mapping, removed = hi.prune_high_degree(petersen, {2: 3})
        assert len(removed) == 0 and sub == petersen

    def test_residual_degrees_below_caps(self):
        h = hi.generate(hi.GenSpec("uniform_random", 150, {2: 4.0, 3: 2.0}, seed=8))
        caps = {2: 5.0, 3: 6.0}
        sub, _, _ = hi.prune_high_degree(h, caps)
        for i in sub.sizes:
            assert int(sub.degrees(i).max(initial=0)) <= caps[i]


class TestSchedule:
    def test_weight_constant_for_graphs(self):
        sched = NibbleSchedule.practical(2, 50.0)
        assert all(sched.slice_weight(r) == 1.0 for r in range(6))

    def test_weight_positive_decreasing_k3(self):
        sched = NibbleSchedule.practical(3, 50.0)
        ws = [sched.slice_weight(r) for r in range(8)]
        assert all(w > 0 for w in ws)
        assert all(a > b for a, b in zip(ws, ws[1:]))

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_weights_telescope(self, k):
        sched = NibbleSchedule.paper_literal(k, math.exp(500))
        rounds = sched.rounds()
        assert rounds, "paper schedule should admit rounds at huge T"
        total = sum(sched.slice_weight(r) for r in rounds)
        a = 1.0 / (k - 1)
        expect = (rounds[-1] + 1) ** a - rounds[0] ** a
        assert total == pytest.approx(expect, abs=1e-9)

    def test_paper_constants(self):
        T = math.exp(200)
        sched = NibbleSchedule.paper_literal(3, T)
        assert sched.s == pytest.approx(0.2)
        assert sched.r_max == pytest.approx(2.0)
        assert sched.eps == pytest.approx(1 / (1e6 * 200))
        assert sched.cap_slack == 1.0

    def test_caps_positive_beyond_start(self):
        sched = NibbleSchedule.practical(4, 60.0)
        for r in sched.rounds():
            caps = sched.caps(r + 1)
            assert all(c > 0 for c in caps.values())

    def test_density_decay(self):
        sched = NibbleSchedule.practical(2, 40.0)
        rounds = sched.rounds()
        ts = [sched.round_density(r) for r in rounds]
        assert all(a > b for a, b in zip(ts, ts[1:]))
        assert all(t >= sched.min_round_density for t in ts)

    def test_empty_below_e(self):
        assert NibbleSchedule.practical(2, 2.0).rounds() == []


class TestSubsamplePrepare:
    def test_edgeless_paper_s1(self):
        # s = 0.001 ln T = 1 asks for T = e^1000, beyond float range; pin the
        # start round directly and keep every other constant paper-literal
        h = hi.new_hypergraph(1000, [])
        T = math.exp(700)
        sched = dataclasses.replace(NibbleSchedule.paper_literal(2, T), s=1.0)
        sub, mapping, info = hi.subsample_prepare(h, sched, seed=2)
        lo, hi_ = info["window"]
        assert lo <= sub.n <= hi_
        assert info["pruned"] == 0

    def test_huge_degree_vertex_removed(self):
        edges = [(0, i) for i in range(1, 51)] + [(51 + 2 * j, 52 + 2 * j) for j in range(20)]
        h = hi.new_hypergraph(100, edges)
        sched = NibbleSchedule.practical(2, 2.0)
        sub, mapping, info = hi.subsample_prepare(h, sched, seed=3)
        assert 0 not in mapping  # the center violates every cap
        assert info["pruned"] >= 1

    def test_caps_hold_on_output(self):
        h = hi.generate(hi.GenSpec("mixed_linear", 400, {2: 3.0, 3: 2.0}, seed=4))
        T = max(h.average_degree(i)[1] for i in h.sizes)
        sched = NibbleSchedule.practical(3, max(T, 1.5))
        sub, _, info = hi.subsample_prepare(h, sched, seed=5)
        for i in sub.sizes:
            assert int(sub.degrees(i).max(initial=0)) <= info["caps"][i] + 1e-9

    def test_trim_drops_the_highest_residual_degrees(self):
        h = hi.generate(hi.GenSpec("uniform_random", 3000, {2: 3.0, 3: 6.0}, seed=1))
        T = h.degree_profile().t_max
        sched = NibbleSchedule.practical(3, T)
        sub, mapping, info = hi.subsample_prepare(h, sched, seed=1)
        # rebuild the attempt's pruned sample, which the trim then cut to size
        sample = np.flatnonzero(nibble._rng(1, 900, info["attempt"]).random(h.n) < info["p"])
        pre, pre_map = h.induced(sample)
        pruned, pruned_map, _ = hi.prune_high_degree(pre, info["caps"])
        kept = np.isin(pre_map[pruned_map], mapping)
        assert sub.n == info["window"][1] < pruned.n == len(kept)
        deg = pruned.total_degrees()
        assert deg[~kept].min() >= deg[kept].max()

    def test_window_unreachable_reports_best(self):
        h = girth5(300, 4.0, seed=6)
        sched = dataclasses.replace(NibbleSchedule.practical(2, 4.0), cap_slack=0.01)
        with pytest.raises(WindowUnreachableError) as info:
            hi.subsample_prepare(h, sched, seed=7)
        best_h, best_map, best_info = info.value.best_attempt
        assert best_h.n < 0.75 * h.n


class TestNibbleStep:
    def test_edgeless_slice_meets_formula(self):
        n = 272
        h = hi.new_hypergraph(n, [])
        sched = NibbleSchedule.practical(2, 10.0)
        step = hi.nibble_step(h, sched, 0.0, seed=3)
        need = (0.99 / E) * sched.slice_weight(0.0) * n / sched.round_density(0.0)
        assert len(step.independent) >= need
        assert step.rest.n == math.floor(n / E)

    def test_girth5_postconditions_reverified(self):
        h = girth5(5000, 10.0, seed=8)
        sched = NibbleSchedule.practical(2, h.average_degree(2)[1])
        step = hi.nibble_step(h, sched, 0.0, seed=11)
        n = h.n
        # P1
        assert h.is_independent(step.independent)
        # P2: no edge inside I union V* unless inside V*
        members = set(step.independent)
        vstar = set(int(v) for v in step.mapping)
        assert not (members & vstar)
        for e in h.edges():
            inside_union = all(v in members or v in vstar for v in e)
            if inside_union:
                assert all(v in vstar for v in e)
        # P3
        lo = (n / E) * (1 - sched.eps)
        assert lo - 1e-9 <= step.rest.n <= math.floor(n / E)
        # P4
        caps = sched.caps(1.0)
        for i in step.rest.sizes:
            assert int(step.rest.degrees(i).max(initial=0)) <= caps[i] + 1e-9

    def test_paper_windows_fail_at_desk_scale(self):
        h = girth5(100, 4.0, seed=9)
        sched = NibbleSchedule.paper_literal(2, 100.0)
        with pytest.raises(StepFailedError):
            hi.nibble_step(h, sched, sched.s, seed=10)

    def test_deterministic(self):
        h = girth5(2000, 8.0, seed=12)
        sched = NibbleSchedule.practical(2, 8.0)
        a = hi.nibble_step(h, sched, 0.0, seed=13)
        b = hi.nibble_step(h, sched, 0.0, seed=13)
        assert a.independent == b.independent
        assert np.array_equal(a.mapping, b.mapping)


class TestUncrowdedSolve:
    def test_edgeless_returns_everything(self):
        rep = hi.uncrowded_solve(hi.new_hypergraph(40, []), seed=1)
        assert rep.size == 40 and rep.verified

    def test_small_T_equals_greedy(self):
        h = girth5(200, 2.0, seed=2)
        rep = hi.uncrowded_solve(h, seed=3)
        assert any(ev.get("event") == "empty_schedule" for ev in rep.trace)
        assert rep.witness == hi.greedy_solve(h).witness

    def test_runs_rounds_and_verifies(self):
        h = girth5(4096, 8.0, seed=4)
        rep = hi.uncrowded_solve(h, seed=5)
        rounds = [ev for ev in rep.trace if ev.get("event") == "round"]
        assert len(rounds) >= 2
        assert rep.verified
        assert rep.size > hi.spencer_solve(h, seed=6, trials=50).size

    def test_trace_records_union_growth(self):
        h = girth5(3000, 8.0, seed=7)
        rep = hi.uncrowded_solve(h, seed=8)
        ext = [ev for ev in rep.trace if ev.get("event") == "extended"]
        assert len(ext) == 1 and ext[0]["final"] >= ext[0]["core"]

    @pytest.mark.parametrize("mode", ["Practical", "paper_literal", ""])
    def test_unknown_mode_raises(self, mode):
        with pytest.raises(ValueError, match="unknown mode"):
            hi.uncrowded_solve(girth5(400, 4.0, seed=1), mode=mode)

    def test_deterministic(self):
        h = girth5(1500, 6.0, seed=9)
        a = hi.uncrowded_solve(h, seed=10)
        b = hi.uncrowded_solve(h, seed=10)
        assert a.witness == b.witness


class TestBest:
    @staticmethod
    def report(witness, verified=True):
        return nibble.SolveReport("m", 0, {}, tuple(witness), verified)

    def test_larger_set_wins(self):
        small, large = self.report([0, 1]), self.report([5, 6, 7])
        assert nibble._best([small, large]) is large

    def test_tie_goes_to_the_smaller_witness(self):
        low, high = self.report([0, 9]), self.report([1, 2])
        assert nibble._best([high, low]) is low

    def test_exact_tie_keeps_the_earlier(self):
        first, second = self.report([3, 4]), self.report([3, 4])
        assert nibble._best([first, second]) is first

    def test_unverified_skipped(self):
        fake, real = self.report([0, 1, 2], verified=False), self.report([0])
        assert nibble._best([fake, real]) is real


class TestLinearSolve:
    def test_k4_fallback_still_verified(self):
        with pytest.warns(UserWarning):
            rep = hi.linear_solve(hi.fixture("k4"), T=3.0, seed=1)
        assert rep.size >= 1 and rep.verified

    def test_unknown_mode_raises_before_the_fallback(self, monkeypatch):
        calls = []
        monkeypatch.setattr(nibble, "greedy_solve", lambda g: calls.append(g))
        with pytest.raises(ValueError, match="unknown mode 'Paper'"):
            hi.linear_solve(hi.fixture("k4"), seed=1, mode="Paper")
        assert calls == []

    def test_two_cycle_falls_back(self):
        h = hi.new_hypergraph(6, [(0, 1, 2), (1, 2, 3), (3, 4), (4, 5)])
        with pytest.warns(UserWarning, match="2-cycle"):
            rep = hi.linear_solve(h, seed=1)
        assert rep.params["fallback"] == "input has a 2-cycle"
        assert rep.verified and rep.size == hi.greedy_solve(h).size

    def test_edgeless(self):
        rep = hi.linear_solve(hi.new_hypergraph(25, []), seed=2)
        assert rep.size == 25

    def test_mixed_linear_residual_uncrowded(self):
        h = hi.generate(hi.GenSpec("mixed_linear", 5000, {2: 4.0, 3: 4.0}, seed=3))
        rep = hi.linear_solve(h, seed=4, trials=30)
        info = [ev for ev in rep.trace if ev.get("event") == "cycles_removed"]
        assert len(info) == 1 and info[0]["residual_uncrowded"]
        assert rep.verified

    def test_pruning_constants_by_mode(self):
        practical = nibble._pruning_constants(3, "practical")
        assert practical == {2: 1.0, 3: 1.0}
        paper = nibble._pruning_constants(3, "paper")
        for i in (2, 3):
            want = min(
                1.0, 2.0**-9 * 3**-6 * math.comb(2, i - 1) * 10.0 ** (-3 * (3 - i) / 2)
            )
            assert paper[i] == pytest.approx(want)

    def test_cycle_deletion_left_a_cycle_raises(self, monkeypatch):
        h = hi.generate(hi.GenSpec("mixed_linear", 300, {2: 4.0, 3: 4.0}, seed=1))
        monkeypatch.setattr(nibble, "greedy_hitting_set", lambda sets: set())
        with pytest.raises(InvariantError, match="short cycle"):
            hi.linear_solve(h, seed=1)

    def test_tail_witness_not_independent_raises(self, monkeypatch):
        h = hi.generate(hi.GenSpec("mixed_linear", 300, {2: 4.0, 3: 4.0}, seed=1))
        real = nibble.uncrowded_solve

        def everything(sub, **kwargs):
            rep = real(sub, **kwargs)
            rep.witness = tuple(range(sub.n))
            return rep

        monkeypatch.setattr(nibble, "uncrowded_solve", everything)
        with pytest.raises(InvariantError, match="not independent"):
            hi.linear_solve(h, seed=1)

    def test_greedy_runs_once_under_best_of(self, monkeypatch):
        h = hi.generate(hi.GenSpec("mixed_linear", 800, {2: 4.0, 3: 4.0}, seed=2))
        calls = []
        real = nibble.greedy_solve
        monkeypatch.setattr(nibble, "greedy_solve", lambda g: calls.append(g) or real(g))
        # the pipeline under best_of trusts the dispatch's precondition checks
        checks = []
        for name in ("has_two_cycle", "graph_layer_ok"):
            method = getattr(hi.Hypergraph, name)
            spy = lambda g, m=method, name=name: checks.append((name, g)) or m(g)
            monkeypatch.setattr(hi.Hypergraph, name, spy)
        rep = hi.best_of(h, seed=3, trials=20)
        assert rep.params["dispatch"]["graph_layer_ok"] and len(calls) == 1
        on_input = sorted(name for name, g in checks if g is h)
        assert on_input == ["graph_layer_ok", "has_two_cycle"]
        # a call that fails on its parameters pays for no greedy run
        with pytest.raises(ValueError, match="unknown mode 'Paper'"):
            hi.linear_solve(h, seed=4, mode="Paper")
        assert len(calls) == 1
        hi.linear_solve(h, seed=4)
        assert len(calls) == 2

    def test_deterministic(self):
        h = hi.generate(hi.GenSpec("mixed_linear", 1200, {2: 3.0, 3: 3.0}, seed=5))
        a = hi.linear_solve(h, seed=6, trials=20)
        b = hi.linear_solve(h, seed=6, trials=20)
        assert a.witness == b.witness


class TestBestOf:
    def test_at_least_greedy(self):
        for seed in range(4):
            h = random_small_hypergraph(seed + 40, n_max=12)
            assert hi.best_of(h, seed=seed, trials=30).size >= hi.greedy_solve(h).size

    def test_petersen(self, petersen):
        rep = hi.best_of(petersen, seed=3)
        assert 3 <= rep.size <= 4

    def test_dispatch_recorded(self):
        h = girth5(400, 4.0, seed=7)
        rep = hi.best_of(h, seed=8, trials=20)
        assert rep.params["dispatch"]["uncrowded"]

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_soundness(self, seed):
        h = random_small_hypergraph(seed, n_max=11)
        rep = hi.best_of(h, seed=seed, trials=15)
        assert rep.verified
        assert h.is_independent(rep.witness)
