"""Exact ground truth on small instances.

``exact_alpha`` is a bitmask branch-and-bound for the independence number;
``enumerate_cycles_exhaustive`` tests every edge tuple directly against the
cycle definition. Both are deliberately independent of the fast paths they
are used to cross-check: the enumerator walks all combinations rather than
the incidence structure, and resolves distinct link vertices by trying raw
assignments instead of matching.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import BudgetExceededError, InvariantError
from .hypercore import CycleWitness, Hypergraph

__all__ = ["ExactResult", "exact_alpha", "enumerate_cycles_exhaustive"]


@dataclass(frozen=True)
class ExactResult:
    """Independence number with a witness and search statistics.

    ``complete`` is False when the node budget ran out, in which case
    ``alpha`` is only a lower bound.
    """

    alpha: int
    witness: tuple[int, ...]
    nodes_explored: int
    complete: bool


def exact_alpha(h: Hypergraph, node_budget: int = 5_000_000) -> ExactResult:
    """Exact maximum independent set by branch and bound.

    Branches on a vertex of maximum total degree among edges that can still
    be violated (ties to the lowest id). Vertices in no such edge are taken
    greedily, and an edge with all but one vertex chosen forces the last one
    out; both steps preserve exactness. Prunes on |chosen| + |available|,
    starting from a greedy incumbent.
    """
    n = h.n
    edge_masks = [0] * h.edge_count()
    vert_edges: list[list[int]] = [[] for _ in range(n)]
    for eid, e in enumerate(h.edge_tuples()):
        m = 0
        for v in e:
            m |= 1 << v
            vert_edges[v].append(eid)
        edge_masks[eid] = m
    full = (1 << n) - 1

    from .nibble import _greedy_core

    incumbent = _greedy_core(h)
    best_size = len(incumbent)
    best_mask = 0
    for v in incumbent:
        best_mask |= 1 << v
    nodes = 0
    budget_hit = False

    def popcount(x: int) -> int:
        return x.bit_count()

    def search(avail: int, chosen: int) -> None:
        nonlocal best_size, best_mask, nodes, budget_hit
        if budget_hit:
            return
        nodes += 1
        if nodes > node_budget:
            budget_hit = True
            return

        # propagation to a fixpoint; `chosen` stays independent throughout
        while True:
            excluded = full & ~(avail | chosen)
            forced_out = 0
            covered = 0
            for em in edge_masks:
                if em & excluded:
                    continue  # edge contains an excluded vertex, can never fill
                rem = em & avail
                covered |= rem
                if rem and popcount(rem) == 1 and (em & ~chosen & ~rem) == 0:
                    forced_out |= rem  # all other vertices chosen: last one is out
            if forced_out:
                avail &= ~forced_out
                continue
            free = avail & ~covered
            if free:
                chosen |= free
                avail &= ~free
                continue
            break

        size = popcount(chosen)
        if size > best_size:
            best_size, best_mask = size, chosen
        if not avail:
            return
        if size + popcount(avail) <= best_size:
            return

        excluded = full & ~(avail | chosen)
        best_v, best_deg = -1, -1
        for v in _iter_bits(avail):
            d = 0
            for eid in vert_edges[v]:
                if not (edge_masks[eid] & excluded):
                    d += 1
            if d > best_deg:
                best_v, best_deg = v, d
        v_bit = 1 << best_v

        # include branch, unless it would complete an edge
        ok = True
        for eid in vert_edges[best_v]:
            if (edge_masks[eid] & ~(chosen | v_bit)) == 0:
                ok = False
                break
        if ok:
            search(avail & ~v_bit, chosen | v_bit)
        search(avail & ~v_bit, chosen)

    search(full, 0)
    witness = tuple(_iter_bits(best_mask))
    if not h.is_independent(witness):
        raise InvariantError("branch and bound returned a dependent witness")
    return ExactResult(best_size, witness, nodes, not budget_hit)


def _iter_bits(mask: int):
    v = 0
    while mask:
        if mask & 1:
            yield v
        mask >>= 1
        v += 1


def _distinct_links(slots: list[set[int]]) -> tuple[int, ...] | None:
    """Try every raw assignment of one vertex per slot, requiring all distinct."""
    for combo in itertools.product(*(sorted(s) for s in slots)):
        if len(set(combo)) == len(combo):
            return combo
    return None


def _cyclic_orders(j: int):
    """Distinct cyclic arrangements of j items up to rotation and reflection."""
    if j == 2:
        return [(0, 1)]
    if j == 3:
        return [(0, 1, 2)]
    return [(0, 1, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)]


def enumerate_cycles_exhaustive(
    h: Hypergraph, j: int, tuple_budget: int = 20_000_000
) -> list[CycleWitness]:
    """All j-cycles (j in 2..4) by testing every edge combination directly.

    A combination counts once if some cyclic arrangement has nonempty
    consecutive intersections and pairwise distinct link vertices. For j = 4
    only combinations in which no three edges form a 3-cycle are reported,
    matching the census convention.
    """
    if j not in (2, 3, 4):
        raise ValueError("cycle length must be 2, 3 or 4")
    edges = h.edge_tuples()
    sets = [set(e) for e in edges]
    m = len(edges)
    count_combos = 0
    out: list[CycleWitness] = []

    # intersection flags between edges; a cyclic arrangement needs every
    # member to meet at least two others (its cyclic neighbours), so most
    # combinations can be discarded before any assignment search
    touch = [0] * m
    for a in range(m):
        for b in range(a + 1, m):
            if sets[a] & sets[b]:
                touch[a] |= 1 << b
                touch[b] |= 1 << a

    def arrangement_links(ids: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        for order in _cyclic_orders(len(ids)):
            arranged = [ids[i] for i in order]
            slots = []
            ok = True
            for a, b in zip(arranged, arranged[1:] + arranged[:1]):
                shared = sets[a] & sets[b]
                if not shared:
                    ok = False
                    break
                slots.append(shared)
            if not ok:
                continue
            links = _distinct_links(slots)
            if links is not None:
                return tuple(arranged), links
        return None

    def is_three(ids: tuple[int, int, int]) -> bool:
        return arrangement_links(ids) is not None

    need = 1 if j == 2 else 2
    for combo in itertools.combinations(range(m), j):
        count_combos += 1
        if count_combos > tuple_budget:
            raise BudgetExceededError("cycle enumeration exceeded its tuple budget")
        combo_mask = 0
        for e in combo:
            combo_mask |= 1 << e
        if any((touch[e] & combo_mask).bit_count() < need for e in combo):
            continue
        if j == 4 and any(is_three(t) for t in itertools.combinations(combo, 3)):
            continue
        found = arrangement_links(combo)
        if found is None:
            continue
        arranged, links = found
        out.append(CycleWitness(tuple(edges[e] for e in arranged), links))
    return out
