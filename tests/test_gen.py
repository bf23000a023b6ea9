import itertools
import tracemalloc

import numpy as np
import pytest

import hyperindep as hi
from hyperindep.errors import BudgetExceededError, InfeasibleError, UnknownFixtureError
from hyperindep.gen import _Girth5Builder


class TestComplete:
    def test_k4(self):
        h = hi.generate(hi.GenSpec("complete", 4, {2: 0.0}))
        assert h == hi.fixture("k4")
        assert h.edge_count(2) == 6

    def test_mixed_sizes(self):
        h = hi.generate(hi.GenSpec("complete", 5, {2: 0.0, 3: 0.0}))
        assert h.edge_count(2) == 10
        assert h.edge_count(3) == 10


class TestUniformRandom:
    def test_density_near_target(self):
        h = hi.generate(hi.GenSpec("uniform_random", 400, {2: 4.0}, seed=1))
        assert h.average_degree(2)[1] == pytest.approx(4.0, rel=0.10)

    def test_mixed_layer_counts(self):
        h = hi.generate(hi.GenSpec("uniform_random", 200, {2: 2.0, 3: 2.0}, seed=2))
        assert h.edge_count(2) > 0 and h.edge_count(3) > 0


class TestLinearRandom:
    def test_always_linear(self):
        for seed in range(5):
            h = hi.generate(hi.GenSpec("linear_random", 100, {3: 2.0}, seed=seed))
            assert h.cycle_census(2).two_cycles == 0

    def test_density_within_ten_percent(self):
        h = hi.generate(hi.GenSpec("linear_random", 400, {3: 2.0}, seed=3))
        assert h.average_degree(3)[1] == pytest.approx(2.0, rel=0.10)


class TestUncrowdedRandom:
    def test_census_all_zero(self):
        for seed in range(4):
            h = hi.generate(
                hi.GenSpec("uncrowded_random", 70, {2: 1.5, 3: 1.5}, seed=seed)
            )
            census = h.cycle_census(4)
            assert census.is_uncrowded

    def test_matches_exhaustive_enumeration(self):
        h = hi.generate(hi.GenSpec("uncrowded_random", 40, {2: 1.2, 3: 1.2}, seed=9))
        for j in (2, 3, 4):
            assert len(hi.enumerate_cycles_exhaustive(h, j)) == 0


class TestShadowRule:
    """A row passes the builder's test (every pair of it at shadow distance
    >= 4) iff adding it to an uncrowded hypergraph keeps it uncrowded; the
    cycle census is the independent reference."""

    def test_agrees_with_census(self):
        closes = {"none": 0, 2: 0, 3: 0, 4: 0}
        for seed in range(4):
            n = 30 + 10 * seed
            h = hi.generate(hi.GenSpec("uncrowded_random", n, {2: 1.0, 3: 0.8, 4: 0.6}, seed=seed))
            edges = h.edge_tuples()
            builder = _Girth5Builder(n)
            for e in edges:
                assert builder.add_row(list(e))
            rng = np.random.default_rng(seed)
            for _ in range(150):
                row = tuple(sorted(rng.choice(n, size=int(rng.integers(2, 5)), replace=False).tolist()))
                if row in edges:
                    continue
                passes = all(builder.can_add(a, b) for a, b in itertools.combinations(row, 2))
                census = hi.Hypergraph(n, edges + [row]).cycle_census(4)
                assert passes == census.is_uncrowded, (seed, row)
                shortest = 2 if census.two_cycles else 3 if census.three_total else 4
                closes["none" if passes else shortest] += 1
        # every kind of rejection, and acceptances, were exercised
        assert min(closes.values()) > 50, closes


class TestMemoryGuard:
    @pytest.mark.parametrize("model,targets", [("girth5_graph", {2: 3.0}), ("uncrowded_random", {3: 3.0})])
    def test_raises_before_allocating(self, model, targets):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match="GiB"):
                hi.generate(hi.GenSpec(model, 100_000, targets, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_limit_sits_near_92700(self):
        with pytest.raises(BudgetExceededError):
            _Girth5Builder(92_800)


class TestGirth5Builder:
    def test_added_edge_fails_the_ball_test(self):
        builder = _Girth5Builder(40)
        builder.add(3, 17)
        builder.add(17, 25)
        assert not builder.forbidden
        for u, v in ((3, 17), (17, 3), (17, 25), (25, 17)):
            assert not builder.can_add(u, v)
        assert builder.can_add(3, 30)


class TestGirth5:
    def test_layer_ok_and_density(self):
        h = hi.generate(hi.GenSpec("girth5_graph", 600, {2: 5.0}, seed=4))
        assert h.graph_layer_ok()
        assert h.average_degree(2)[1] == pytest.approx(5.0, rel=0.10)

    def test_infeasible_when_too_dense(self):
        # girth-5 graphs have at most ~ (1/2) n^{3/2} edges; ask for far more
        with pytest.raises(InfeasibleError) as info:
            hi.generate(hi.GenSpec("girth5_graph", 30, {2: 14.0}, seed=5))
        assert info.value.achieved["edges"] < info.value.achieved["target"]


class TestMixedLinear:
    def test_structure(self):
        h = hi.generate(hi.GenSpec("mixed_linear", 300, {2: 3.0, 3: 2.0}, seed=6))
        assert h.cycle_census(2).two_cycles == 0
        assert h.graph_layer_ok()
        assert h.average_degree(2)[1] == pytest.approx(3.0, rel=0.10)
        assert h.average_degree(3)[1] == pytest.approx(2.0, rel=0.10)


class TestDeterminism:
    @pytest.mark.parametrize(
        "model,targets",
        [
            ("uniform_random", {2: 2.0, 3: 1.5}),
            ("linear_random", {3: 1.5}),
            ("uncrowded_random", {3: 1.2}),
            ("girth5_graph", {2: 4.0}),
            ("mixed_linear", {2: 2.0, 3: 1.5}),
        ],
    )
    def test_same_seed_same_bytes(self, model, targets):
        spec = hi.GenSpec(model, 120, targets, seed=11)
        a = hi.serialize_nhg(hi.generate(spec))
        b = hi.serialize_nhg(hi.generate(spec))
        assert a == b

    def test_different_seeds_differ(self):
        a = hi.generate(hi.GenSpec("uniform_random", 100, {2: 3.0}, seed=1))
        b = hi.generate(hi.GenSpec("uniform_random", 100, {2: 3.0}, seed=2))
        assert a != b


class TestFixtures:
    def test_fano_is_projective_plane(self):
        fano = hi.fixture("fano")
        assert fano.n == 7 and fano.edge_count(3) == 7
        for a, b in itertools.combinations([frozenset(e) for e in fano.edge_tuples()], 2):
            assert len(a & b) == 1

    def test_petersen(self):
        petersen = hi.fixture("petersen")
        assert petersen.n == 10 and petersen.edge_count(2) == 15
        assert petersen.graph_layer_ok()
        assert all(int(d) == 3 for d in petersen.degrees(2))

    def test_complete3u5(self):
        assert hi.fixture("complete3u5").edge_count(3) == 10

    def test_c5_k4(self):
        assert hi.fixture("c5").edge_count(2) == 5
        assert hi.fixture("k4").edge_count(2) == 6

    def test_unknown_name(self):
        with pytest.raises(UnknownFixtureError):
            hi.fixture("heawood")


class TestSpecValidation:
    def test_bad_model(self):
        with pytest.raises(ValueError):
            hi.GenSpec("steiner", 10, {3: 1.0})

    def test_bad_size(self):
        with pytest.raises(ValueError):
            hi.GenSpec("uniform_random", 10, {1: 1.0})

    def test_negative_target(self):
        with pytest.raises(ValueError):
            hi.GenSpec("uniform_random", 10, {2: -1.0})

    def test_n_below_k(self):
        with pytest.raises(ValueError):
            hi.GenSpec("uniform_random", 3, {4: 1.0})
