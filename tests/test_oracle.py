import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperindep as hi
from hyperindep.errors import BudgetExceededError, InvariantError

from conftest import brute_force_alpha, random_small_hypergraph


class TestExactAlpha:
    def test_c5(self):
        assert hi.exact_alpha(hi.fixture("c5")).alpha == 2

    def test_complete_3_uniform(self):
        assert hi.exact_alpha(hi.fixture("complete3u5")).alpha == 2

    def test_fano_matches_subset_enumeration(self, fano):
        want = brute_force_alpha(fano)
        assert want == 4  # confirmed by the enumeration above
        assert hi.exact_alpha(fano).alpha == want

    def test_petersen_matches_subset_enumeration(self, petersen):
        assert hi.exact_alpha(petersen).alpha == brute_force_alpha(petersen) == 4

    def test_witness_is_independent_and_max_size(self, fano):
        res = hi.exact_alpha(fano)
        assert fano.is_independent(res.witness)
        assert len(res.witness) == res.alpha

    def test_edgeless(self):
        res = hi.exact_alpha(hi.new_hypergraph(6, []))
        assert res.alpha == 6
        assert res.witness == tuple(range(6))

    def test_dependent_witness_raises(self, monkeypatch, fano):
        monkeypatch.setattr(hi.Hypergraph, "is_independent", lambda self, vs: False)
        with pytest.raises(InvariantError, match="dependent witness"):
            hi.exact_alpha(fano)

    def test_budget_flagged(self):
        h = random_small_hypergraph(123, n_max=12)
        res = hi.exact_alpha(h, node_budget=1)
        assert not res.complete
        assert h.is_independent(res.witness)

    def test_deterministic(self, petersen):
        a = hi.exact_alpha(petersen)
        b = hi.exact_alpha(petersen)
        assert a.witness == b.witness and a.nodes_explored == b.nodes_explored

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force(self, seed):
        h = random_small_hypergraph(seed, n_max=9)
        assert hi.exact_alpha(h).alpha == brute_force_alpha(h)


class TestExhaustiveCycles:
    def test_two_edges_sharing_two_vertices(self):
        h = hi.new_hypergraph(4, [(0, 1, 2), (1, 2, 3)])
        wit = hi.enumerate_cycles_exhaustive(h, 2)
        assert len(wit) == 1
        assert len(set(wit[0].link_vertices)) == 2

    def test_c4_has_one_4_cycle_no_3_cycles(self):
        h = hi.new_hypergraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert len(hi.enumerate_cycles_exhaustive(h, 3)) == 0
        assert len(hi.enumerate_cycles_exhaustive(h, 4)) == 1

    def test_witnesses_satisfy_definition(self):
        h = random_small_hypergraph(77, n_max=9)
        for j in (2, 3, 4):
            for w in hi.enumerate_cycles_exhaustive(h, j):
                assert len(w.edges) == j
                assert len(set(w.edges)) == j
                links = w.link_vertices
                assert len(set(links)) == j
                for idx in range(j):
                    nxt = w.edges[(idx + 1) % j]
                    assert links[idx] in set(w.edges[idx]) & set(nxt)

    def test_budget(self):
        h = hi.fixture("complete3u5")
        with pytest.raises(BudgetExceededError):
            hi.enumerate_cycles_exhaustive(h, 4, tuple_budget=3)

    def test_matches_census_on_linear_3_uniform(self):
        h = hi.generate(hi.GenSpec("linear_random", 12, {3: 1.2}, seed=5))
        census = h.cycle_census(4)
        assert len(hi.enumerate_cycles_exhaustive(h, 2)) == census.two_cycles == 0
        assert len(hi.enumerate_cycles_exhaustive(h, 3)) == census.three_total
        assert len(hi.enumerate_cycles_exhaustive(h, 4)) == census.four_total


class TestOracleDominates:
    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_solvers_never_beat_oracle(self, seed):
        h = random_small_hypergraph(seed, n_max=10)
        alpha = hi.exact_alpha(h).alpha
        assert hi.greedy_solve(h).size <= alpha
        assert hi.spencer_solve(h, seed=seed, trials=20).size <= alpha
        assert hi.best_of(h, seed=seed, trials=20).size <= alpha
