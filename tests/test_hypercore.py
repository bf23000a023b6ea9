import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperindep as hi
from hyperindep import hypercore
from hyperindep.errors import (
    BudgetExceededError,
    DuplicateEdgeError,
    EdgeSizeError,
    NhgParseError,
    OutOfRangeError,
)

from conftest import random_small_hypergraph


class TestConstruction:
    def test_basic(self):
        h = hi.new_hypergraph(4, [{0, 1}, {1, 2, 3}])
        assert h.edge_count(2) == 1
        assert h.edge_count(3) == 1
        assert h.k == 3

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            hi.new_hypergraph(3, [(0, 1), (1, 0)])

    def test_bad_size(self):
        with pytest.raises(EdgeSizeError):
            hi.new_hypergraph(2, [(0,)])

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            hi.new_hypergraph(3, [(0, 5)])

    def test_edge_order_irrelevant(self):
        a = hi.new_hypergraph(4, [(0, 1), (2, 3)])
        b = hi.new_hypergraph(4, [(3, 2), (1, 0)])
        assert a == b

    def test_edge_tuples_hold_python_ints_in_canonical_order(self):
        h = hi.new_hypergraph(5, [(4, 3, 2), (1, 0), (3, 0)])
        assert h.edge_tuples() == [(0, 1), (0, 3), (2, 3, 4)]
        assert all(type(v) is int for e in h.edge_tuples() for v in e)
        assert list(h.edges(3)) == [(2, 3, 4)]

    def test_isolated_vertices_counted(self):
        h = hi.new_hypergraph(10, [(0, 1)])
        assert h.n == 10


class TestDegrees:
    def test_k4_average_degree(self):
        h = hi.fixture("k4")
        assert h.average_degree(2) == (3.0, 3.0)

    def test_edgeless(self):
        h = hi.new_hypergraph(5, [])
        assert h.average_degree(2) == (0.0, 0.0)
        assert h.average_degree(4) == (0.0, 0.0)

    def test_fano_average_degree(self, fano):
        t_pow, t = fano.average_degree(3)
        assert t_pow == 3.0
        assert t == pytest.approx(math.sqrt(3.0))

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_degree_handshake(self, seed):
        h = random_small_hypergraph(seed)
        for i in h.sizes:
            assert int(h.degrees(i).sum()) == i * h.edge_count(i)


class TestIndependence:
    def test_k4_pair_not_independent(self):
        assert not hi.fixture("k4").is_independent({0, 1})

    def test_empty_always_independent(self, fano):
        assert fano.is_independent(set())

    def test_fano_line_not_independent(self, fano):
        line = fano.edge_tuples()[0]
        assert not fano.is_independent(line)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_induced_edge_count(self, seed):
        h = random_small_hypergraph(seed)
        rng = np.random.default_rng(seed + 1)
        vs = [int(v) for v in rng.choice(h.n, size=max(1, h.n // 2), replace=False)]
        sub, _ = h.induced(vs)
        assert h.is_independent(vs) == (sub.edge_count() == 0)


class TestInduced:
    def test_triangle_from_k4(self):
        sub, mapping = hi.fixture("k4").induced([0, 1, 2])
        assert sub.n == 3
        assert sub.edge_count(2) == 3
        assert list(mapping) == [0, 1, 2]

    def test_empty_subset(self, fano):
        sub, mapping = fano.induced([])
        assert sub.n == 0
        assert sub.edge_count() == 0
        assert len(mapping) == 0

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_filter(self, seed):
        h = random_small_hypergraph(seed)
        rng = np.random.default_rng(seed + 2)
        keep = sorted(int(v) for v in rng.choice(h.n, size=max(1, h.n // 2), replace=False))
        sub, mapping = h.induced(keep)
        back = {new: old for new, old in enumerate(mapping)}
        got = {tuple(sorted(back[v] for v in e)) for e in sub.edges()}
        keep_set = set(keep)
        want = {e for e in h.edges() if keep_set.issuperset(e)}
        assert got == want


class TestEdgesInside:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_filter(self, seed):
        h = random_small_hypergraph(seed)
        rng = np.random.default_rng(seed + 3)
        # shuffled rows: the incidence ids must not assume sorted blocks
        h = hi.Hypergraph._from_arrays(
            h.n, {s: h.edge_array(s)[rng.permutation(h.edge_count(s))] for s in h.sizes}
        )
        vs = np.sort(rng.choice(h.n, size=int(rng.integers(0, h.n + 1)), replace=False))
        got = sorted(tuple(e) for e in h.edges_inside(vs))
        want = sorted(e for e in h.edges() if set(vs.tolist()).issuperset(e))
        assert got == want

    def test_edgeless_and_empty(self, fano):
        assert hi.Hypergraph(4).edges_inside(np.arange(4)) == []
        assert fano.edges_inside(np.array([], dtype=np.int64)) == []

    def test_whole_vertex_set(self, fano):
        assert sorted(map(tuple, fano.edges_inside(np.arange(fano.n)))) == fano.edge_tuples()


class TestDisjointCopies:
    def test_single_copy_identity(self, fano):
        assert fano.disjoint_copies(1) == fano

    def test_c5_alpha_triples(self):
        c5 = hi.fixture("c5")
        h3 = c5.disjoint_copies(3)
        assert h3.n == 15
        assert hi.exact_alpha(h3).alpha == 3 * hi.exact_alpha(c5).alpha == 6

    def test_average_degree_preserved(self):
        h = random_small_hypergraph(7)
        copies = h.disjoint_copies(4)
        for i in h.sizes:
            assert copies.average_degree(i) == pytest.approx(h.average_degree(i))

    def test_copy_must_be_positive(self, fano):
        with pytest.raises(OutOfRangeError):
            fano.disjoint_copies(0)

    def test_overflow_guard(self):
        huge = hi.new_hypergraph(2**30, [])
        with pytest.raises(OverflowError):
            huge.disjoint_copies(4)


class TestCycleCensus:
    def test_shared_pair_is_two_cycle(self):
        h = hi.new_hypergraph(4, [(0, 1, 2), (1, 2, 3)])
        assert h.cycle_census(2).two_cycles == 1
        assert h.has_two_cycle()

    def test_triangle_graph(self):
        h = hi.new_hypergraph(3, [(0, 1), (1, 2), (0, 2)])
        census = h.cycle_census(3)
        assert census.three_cycles == {(2, 2, 2): 1}

    def test_k4_counts(self):
        census = hi.fixture("k4").cycle_census(4)
        assert census.two_cycles == 0
        assert census.three_cycles == {(2, 2, 2): 4}
        assert census.four_cycles == {(2, 2, 2, 2): 3}

    def test_c4_counts(self):
        h = hi.new_hypergraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        census = h.cycle_census(4)
        assert census.three_total == 0
        assert census.four_cycles == {(2, 2, 2, 2): 1}

    def test_fano_counts(self, fano):
        census = fano.cycle_census(4, want_witnesses=True)
        assert census.two_cycles == 0
        # 35 line triples minus the 7 concurrent ones
        assert census.three_cycles == {(3, 3, 3): 28}
        for w in census.witnesses:
            assert len(set(w.link_vertices)) == w.length

    def test_petersen_uncrowded(self, petersen):
        census = petersen.cycle_census(4)
        assert census.is_uncrowded
        assert petersen.graph_layer_ok()

    def test_witness_structure(self):
        h = hi.new_hypergraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        census = h.cycle_census(4, want_witnesses=True)
        (w,) = census.witnesses
        assert w.signature == (2, 2, 2, 2)
        for idx, e in enumerate(w.edges):
            assert w.link_vertices[idx] in set(e) & set(w.edges[(idx + 1) % 4])

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_census_equals_exhaustive(self, seed):
        h = random_small_hypergraph(seed, n_max=9)
        census = h.cycle_census(4, want_witnesses=True)
        for j, got in (
            (2, census.two_cycles),
            (3, census.three_total),
            (4, census.four_total),
        ):
            oracle = hi.enumerate_cycles_exhaustive(h, j)
            want = len(oracle)
            assert got == want, f"j={j} census {got} != exhaustive {want}"
            # the same cycles, as edge sets, and each witness is a cycle
            found = [w for w in census.witnesses if w.length == j]
            assert {frozenset(w.edges) for w in found} == {frozenset(w.edges) for w in oracle}
            for w in found:
                assert len(set(w.link_vertices)) == j
                for idx, link in enumerate(w.link_vertices):
                    assert link in set(w.edges[idx]) & set(w.edges[(idx + 1) % j])

    def test_witness_order_is_canonical(self):
        h = hi.generate(hi.GenSpec("uniform_random", 40, {2: 2.0, 3: 2.5}, seed=1))
        ids = {e: i for i, e in enumerate(h.edge_tuples())}
        witnesses = h.cycle_census(4, want_witnesses=True).witnesses
        keys = [(w.length, sorted(ids[e] for e in w.edges)) for w in witnesses]
        assert {length for length, _ in keys} == {2, 3, 4}
        assert keys == sorted(keys)

    def test_memory_budget_raises_before_listing(self):
        # 200,000 edges through vertex 0 make 2 * 10**10 edge pairs
        rows = np.column_stack([np.zeros(200_000), np.arange(1, 200_001)]).astype(np.int32)
        h = hi.Hypergraph._from_arrays(200_001, {2: rows})
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match="GiB"):
                h.cycle_census(2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_linearity_characterization(self, seed):
        h = random_small_hypergraph(seed)
        sets = [frozenset(e) for e in h.edge_tuples()]
        pairwise = all(
            len(a & b) <= 1 for a, b in itertools.combinations(sets, 2)
        )
        assert (h.cycle_census(2).two_cycles == 0) == pairwise
        assert h.has_two_cycle() == (not pairwise)
        # _from_arrays keeps rows as given: permuted within, shuffled rows agree
        rng = np.random.default_rng(seed)
        raw = hi.Hypergraph._from_arrays(
            h.n,
            {s: rng.permuted(h.edge_array(s), axis=1)[rng.permutation(h.edge_count(s))]
             for s in h.sizes},
        )
        assert raw.has_two_cycle() == (not pairwise)


class TestGraphLayer:
    def test_petersen(self, petersen):
        assert petersen.graph_layer_ok()

    def test_c4(self):
        assert not hi.new_hypergraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]).graph_layer_ok()

    def test_star_acyclic(self):
        star = hi.new_hypergraph(6, [(0, i) for i in range(1, 6)])
        assert star.graph_layer_ok()

    def test_triangle(self):
        assert not hi.new_hypergraph(3, [(0, 1), (1, 2), (0, 2)]).graph_layer_ok()

    def test_ignores_larger_edges(self):
        h = hi.new_hypergraph(5, [(0, 1, 2), (1, 2, 3), (2, 3, 4)])
        assert h.graph_layer_ok()

    def test_matching_has_no_wedges(self):
        assert hi.new_hypergraph(8, [(0, 1), (2, 3), (4, 5), (6, 7)]).graph_layer_ok()

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_census_on_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 12))
        edges = set()
        for _ in range(int(rng.integers(0, 2 * n))):
            u, v = rng.choice(n, size=2, replace=False)
            edges.add((min(u, v), max(u, v)))
        h = hi.Hypergraph(n, sorted(edges))
        census = h.cycle_census(4)
        assert h.graph_layer_ok() == (census.three_total == 0 and census.four_total == 0)
        # _from_arrays keeps rows as given: flipped, shuffled rows agree
        rows = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
        flip = rng.random(len(rows)) < 0.5
        rows[flip] = rows[flip, ::-1]
        raw = hi.Hypergraph._from_arrays(n, {2: rows[rng.permutation(len(rows))]})
        assert raw.graph_layer_ok() == h.graph_layer_ok()


class TestNhgFormat:
    def test_round_trip(self, fano):
        assert hi.parse_nhg(hi.serialize_nhg(fano)) == fano

    def test_round_trip_bytes_stable(self, petersen):
        text = hi.serialize_nhg(petersen)
        assert hi.serialize_nhg(hi.parse_nhg(text)) == text

    def test_comments_and_blank_lines(self):
        text = "nhg 1\n# a comment\nn 3\n\ne 0 1\n"
        assert hi.parse_nhg(text) == hi.new_hypergraph(3, [(0, 1)])

    @pytest.mark.parametrize(
        "text",
        [
            "n 3\ne 0 1\n",
            "nhg 2\nn 3\n",
            "nhg 1\nn x\n",
            "nhg 1\nn 3\ne 1 0\n",
            "nhg 1\nn 3\ne 0\n",
            "nhg 1\nn 3\nv 0 1\n",
            "nhg 1\nn 2\ne 0 5\n",
            "nhg 1\nn 3\ne 0 1\ne 0 1\n",
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(NhgParseError):
            hi.parse_nhg(text)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_random(self, seed):
        h = random_small_hypergraph(seed)
        assert hi.parse_nhg(hi.serialize_nhg(h)) == h

    @given(
        st.lists(
            st.one_of(
                st.text(alphabet="nhge 0123456789\n#-\r+_\t", max_size=12),
                st.integers(10**19, 10**20 - 1).map(str),
            ),
            max_size=20,
        ).map("".join)
    )
    @settings(max_examples=150, deadline=None)
    def test_parser_never_crashes(self, text):
        try:
            hi.parse_nhg(text)
        except NhgParseError:
            pass

    def test_count_beyond_int_digit_limit_rejected(self):
        with pytest.raises(NhgParseError, match="bad vertex count"):
            hi.parse_nhg("nhg 1\nn " + "9" * 5000 + "\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("nhg 1\nn 7 x\n", "bad vertex count"),
            ("nhg 1\nn 7 8\n", "bad vertex count"),
            ("nhg 1\nn 1_0\n", "bad vertex count"),
            ("nhg 1\nn \u0663\n", "bad vertex count"),
            ("nhg 1\nn 30\ne 1_0 11\n", "line 3: non-integer vertex id"),
            ("nhg 1\nn 30\ne 1 2\ne 3 1_1\n", "line 4: non-integer vertex id"),
            ("nhg 1\nn 3\ne 0 \u0661\n", "line 3: non-integer vertex id"),
            ("nhg 1\nn 3\ne 0 \uff11\n", "line 3: non-integer vertex id"),
        ],
    )
    def test_only_ascii_decimals_read(self, text, message):
        with pytest.raises(NhgParseError, match=message):
            hi.parse_nhg(text)

    def test_signed_decimals_still_read(self):
        assert hi.parse_nhg("nhg 1\nn +3\ne 0 +2\n") == hi.new_hypergraph(3, [(0, 2)])

    def test_ids_beyond_int32_rejected(self):
        with pytest.raises(NhgParseError, match="int32"):
            hi.parse_nhg("nhg 1\nn 99999999999\ne 0 3000000000\n")


def _outcome(build):
    """What ``build()`` returns, or the type and text of what it raises."""
    try:
        return build()
    except Exception as exc:
        return type(exc), str(exc)


# id tokens of a .nhg edge line: mostly plain ids, sometimes a token the
# canonical layout never has but int() takes, or one that no reader takes
_ID_TOKENS = st.one_of(
    st.integers(-1, 9).map(str),
    st.sampled_from(["+1", "1_0", "\t2", "3\r", "x", "", "99999999999999999999"]),
)


@st.composite
def nhg_texts(draw):
    """Serialized small hypergraphs, then a few edits: comments, blank
    lines, CRLF, extra or doubled whitespace, reversed ids, replaced ids,
    duplicated lines and other count lines."""
    h = random_small_hypergraph(draw(st.integers(0, 10_000)), n_max=10)
    lines = hi.serialize_nhg(h).split("\n")[:-1]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines) - 1))
        edit = draw(
            st.sampled_from(
                ["comment", "blank", "cr", "space", "double", "tokens", "swap", "dup", "count"]
            )
        )
        if edit == "swap" and lines[at].startswith("e "):
            lines[at] = "e " + " ".join(lines[at].split()[:0:-1])
        elif edit == "comment":
            lines.insert(at, "# c")
        elif edit == "blank":
            lines.insert(at, draw(st.sampled_from(["", " ", "\t"])))
        elif edit == "cr":
            lines[at] += "\r"
        elif edit == "space":
            lines[at] = draw(st.sampled_from([" ", "\t"])) + lines[at] + draw(st.sampled_from(["", " "]))
        elif edit == "double":
            lines[at] = lines[at].replace(" ", "  ", 1)
        elif edit == "tokens":
            lines[at] = "e " + " ".join(draw(st.lists(_ID_TOKENS, max_size=4)))
        elif edit == "dup":
            lines.insert(at, lines[at])
        else:
            lines[1] = "n " + draw(st.sampled_from(["-1", "+7", "1", "7 x", "99999999999999999999"]))
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))


class TestArrayPaths:
    """The array reader and canonicalizer against the line parser and the
    edge loop they fall back to."""

    @given(nhg_texts())
    @settings(max_examples=300, deadline=None)
    def test_array_reader_matches_line_parser(self, text):
        want = _outcome(lambda: hypercore._parse_nhg_lines(text))
        assert _outcome(lambda: hi.parse_nhg(text)) == want
        h = hypercore._parse_canonical_nhg(text)
        assert h is None or h == want

    @given(st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_constructor_matches_loop(self, seed):
        h = random_small_hypergraph(seed, n_max=30)
        n, rng = h.n, np.random.default_rng(seed)
        defect = [0.0, 0.02, 0.1][seed % 3]
        edges = []
        for i in rng.permutation(h.edge_count()):
            row = [int(v) for v in rng.permutation(h.edge_tuples()[i])]
            if rng.random() < defect:
                row[0] = int(rng.choice([row[-1], n, -1, 2**40]))
            kind = int(rng.integers(5))
            if kind == 0:
                edges.append(tuple(row))
            elif kind == 1:
                edges.append([np.int64(v) for v in row])
            elif kind == 2:
                edges.append(frozenset(row))
            elif kind == 3:
                edges.append(np.array(row, dtype=np.int64))
            else:
                edges.append(list(row))
            if rng.random() < defect:
                edges.append(edges[int(rng.integers(len(edges)))])
        want = _outcome(
            lambda: hi.Hypergraph._from_arrays(
                n, hypercore._canonical_loop(n, [tuple(e) for e in edges])
            )
        )
        assert _outcome(lambda: hi.Hypergraph(n, edges)) == want
        assert _outcome(lambda: hi.Hypergraph(n, (e for e in edges))) == want
        assert _outcome(lambda: hi.Hypergraph(n, [iter(e) for e in edges])) == want

    @pytest.mark.parametrize(
        "spec",
        [
            hi.GenSpec("girth5_graph", 400, {2: 6.0}, seed=1),
            hi.GenSpec("mixed_linear", 400, {2: 3.0, 3: 3.0, 4: 1.5}, seed=2),
        ],
    )
    def test_canonical_text_stays_on_arrays(self, spec, monkeypatch):
        h = hi.generate(spec)
        text = hi.serialize_nhg(h)

        def refuse(*args):
            raise AssertionError("left the array path")

        monkeypatch.setattr(hypercore, "_parse_nhg_lines", refuse)
        monkeypatch.setattr(hypercore, "_canonical_loop", refuse)
        assert hi.parse_nhg(text) == h
        assert hi.Hypergraph(h.n, reversed(h.edge_tuples())) == h

    def test_few_edges_take_no_numpy_work(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("took the array path")

        monkeypatch.setattr(hypercore, "_canonical_rows", refuse)
        monkeypatch.setattr(hypercore, "_ints", refuse)
        assert hi.Hypergraph(5).edge_count() == 0
        assert hi.Hypergraph(5, []).edge_count() == 0
        assert hi.Hypergraph(5, [(3, 1)]).edge_tuples() == [(1, 3)]
        assert hi.Hypergraph(20, [(i, i + 1) for i in range(hypercore._ARRAY_MIN_EDGES - 1)]).k == 2
