import random
import time
from collections import deque
from itertools import combinations, permutations, product

import pytest

import polybinom.chromatic
import polybinom.graphs
from polybinom import caps
from polybinom.chromatic import chromatic_analysis
from polybinom.errors import CapExceeded, InputFormatError
from polybinom.graphs import (
    Multigraph,
    acyclic_orientations_up_to_reversal,
    complete_graph,
    cycle_graph,
    cyclomatic_number,
    dipole,
    enumerate_totally_cyclic_orientations,
    format_graph_file,
    graph_certificate,
    in_degree_sequence_count,
    parse_graph_file,
    path_graph,
)
from polybinom.posets import Poset, antichain, chain
from polybinom.survey import connected_graph_classes, flow_fixture_set


def delete_edge(g: Multigraph, e: int) -> Multigraph:
    if not 0 <= e < g.edge_count:
        raise IndexError(f"edge index {e} out of range")
    return Multigraph(g.vertex_count, g.edges[:e] + g.edges[e + 1 :])


def component_ids(g: Multigraph) -> list[int]:
    """Oracle of the search's components: a union-find, numbering the
    components by their lowest vertex.  Loops attach to their own vertex."""
    parent = list(range(g.vertex_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    roots: dict[int, int] = {}
    return [roots.setdefault(find(v), len(roots)) for v in range(g.vertex_count)]


def as_direction(mask: int, m: int) -> tuple[int, ...]:
    """The direction tuple of an orientation mask of m edges: entry e is
    bit e, 1 where edge e is reversed."""
    return tuple(mask >> e & 1 for e in range(m))


def component_count(g: Multigraph) -> int:
    return len(set(component_ids(g)))


def bridges_by_deletion(g: Multigraph) -> tuple[int, ...]:
    """The per-edge oracle of `Multigraph.bridges`: every edge whose deleted
    copy of the graph has more components, counted by the union-find."""
    return tuple(
        i for i, (u, v) in enumerate(g.edges)
        if u != v and component_count(delete_edge(g, i)) > component_count(g)
    )


def enumerate_acyclic_orientations(g: Multigraph) -> list[tuple[int, ...]]:
    """Oracle: all orientations with no coherently oriented cycle, each as its
    order, by the same backtracking search as
    `acyclic_orientations_up_to_reversal` with edge 0 left free.

    A backtracking search over the edges in index order keeps, per vertex,
    the bitmask of the vertices it reaches.  Edge e may point t -> h only if
    h does not already reach t; every vertex that reaches t then gains all
    that h reaches.  At a leaf the reachability masks are the transitive
    closure of the orientation, returned as the tuple ``above[v] = reach[v]``
    minus v.  A loop is itself a directed cycle, so a graph with loops has
    none.
    """
    if g.has_loops:
        return []
    edges, m, d = g.edges, g.edge_count, g.vertex_count
    orders = []
    stack = [(0, tuple(1 << v for v in range(d)))]
    while stack:
        e, reach = stack.pop()
        if e == m:
            orders.append(tuple(r & ~(1 << v) for v, r in enumerate(reach)))
            continue
        u, v = edges[e]
        for t, h in ((u, v), (v, u)):
            if not reach[h] >> t & 1:
                gain = reach[h]
                stack.append((e + 1, tuple(r | gain if r >> t & 1 else r for r in reach)))
    return orders


class TestStructure:
    def test_cyclomatic_numbers(self):
        assert cyclomatic_number(dipole(2)) == 1
        assert cyclomatic_number(Multigraph(4, ())) == 0
        assert cyclomatic_number(dipole(3)) == 2
        assert cyclomatic_number(complete_graph(4)) == 3

    def test_endpoint_validation(self):
        with pytest.raises(ValueError):
            Multigraph(2, ((0, 2),))

    def test_components_and_bridges(self):
        g = Multigraph(4, ((0, 1), (2, 3)))
        assert g.component_count == 2
        assert not g.is_connected
        assert set(g.bridges) == {0, 1}
        assert cycle_graph(4).is_bridgeless
        loops_only = Multigraph(2, ((0, 0),))
        assert loops_only.component_count == 2  # the loop does not join 0 and 1
        assert loops_only.is_bridgeless

    def test_bridges_match_the_deletion_oracle(self):
        graphs = [g for level in connected_graph_classes(6) for g in level] + [g for _, g in flow_fixture_set()] + [
            Multigraph(1, ((0, 0),)),
            Multigraph(3, ((0, 0), (0, 1), (1, 1), (1, 2), (2, 2))),  # loops on a path
            Multigraph(3, ((0, 1), (1, 0), (1, 2))),  # an antiparallel twin and a bridge
            Multigraph(5, ()),  # isolated vertices only
            Multigraph(7, ((0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 6))),  # components and isolated 3
            Multigraph(6, ((5, 4), (4, 3), (3, 5), (3, 2), (2, 1), (1, 0), (0, 2))),  # two triangles, one bridge
            Multigraph(4, ((0, 1), (0, 1), (1, 2), (2, 3), (2, 3), (2, 3))),
            Multigraph(0, ()),
        ]
        assert len(graphs) == 143 + 6 + 8
        rng = random.Random(19)
        for _ in range(300):  # multigraphs with loops, twins and several components
            d = rng.randint(1, 8)
            graphs.append(Multigraph(d, tuple((rng.randrange(d), rng.randrange(d)) for _ in range(rng.randint(0, 12)))))
        for g in graphs:
            assert g.bridges == bridges_by_deletion(g), g
            assert g.component_count == component_count(g), g
        assert Multigraph(6, ((5, 4), (4, 3), (3, 5), (3, 2), (2, 1), (1, 0), (0, 2))).bridges == (3,)

    def test_bridge_search_is_linear(self):
        # 4000 parallel edges: the search visits each once, where one deleted
        # copy per edge took seconds
        g = dipole(4000)
        start = time.perf_counter()
        assert g.bridges == ()
        assert time.perf_counter() - start < 0.5
        assert path_graph(4000).bridges == tuple(range(3999))


def cycle_space_graphs() -> list[Multigraph]:
    """Every connected class to d = 6, the flow fixtures, loops, parallel and
    antiparallel twins, disconnected graphs and a long cycle."""
    graphs = [g for level in connected_graph_classes(6) for g in level] + [g for _, g in flow_fixture_set()] + [
        Multigraph(1, ((0, 0), (0, 0))),  # loops only: no tree edge
        Multigraph(3, ((0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0))),  # loops on a triangle
        Multigraph(4, complete_graph(4).edges * 2),
        Multigraph(4, complete_graph(4).edges + tuple((v, u) for u, v in complete_graph(4).edges)),
        Multigraph(3, ((0, 1), (1, 0), (1, 2))),  # an antiparallel twin and a bridge
        Multigraph(7, ((0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 4), (6, 5))),  # two components, isolated 3
        Multigraph(5, ()),
        cycle_graph(70),
    ]
    rng = random.Random(23)
    for _ in range(200):  # multigraphs with loops, twins and several components
        d = rng.randint(1, 8)
        graphs.append(Multigraph(d, tuple((rng.randrange(d), rng.randrange(d)) for _ in range(rng.randint(0, 12)))))
    return graphs


def assert_is_a_spanning_forest(g: Multigraph, tree: tuple[int, ...], cotree: tuple[int, ...]) -> None:
    assert sorted(tree + cotree) == list(range(g.edge_count))
    assert list(tree) == sorted(tree) and list(cotree) == sorted(cotree)
    assert component_count(Multigraph(g.vertex_count, tuple(g.edges[e] for e in tree))) == component_count(g)
    assert len(tree) == g.vertex_count - component_count(g)  # spanning and acyclic


class TestCycleSpace:
    """`Multigraph.cycle_space` against conservation and the fundamental cuts."""

    @pytest.fixture(scope="class")
    def graphs(self):
        return cycle_space_graphs()

    def test_each_cotree_column_is_a_circulation(self, graphs):
        for g in graphs:
            tree, cotree, rows, cls, flipped = g.cycle_space
            assert_is_a_spanning_forest(g, tree, cotree)
            for col, c in enumerate(cotree):
                values = {c: 1}
                for t, r, flip in zip(tree, cls, flipped):
                    values[t] = -rows[r][col] if flip else rows[r][col]
                balance = [0] * g.vertex_count
                for e, x in values.items():
                    u, v = g.edges[e]
                    balance[u] -= x
                    balance[v] += x
                assert balance == [0] * g.vertex_count, (g, c)

    def test_each_tree_row_is_its_class_row_up_to_sign(self, graphs):
        for g in graphs:
            tree, cotree, rows, cls, flipped = g.cycle_space
            assert list(rows) == sorted(set(rows)) and sorted(set(cls)) == list(range(len(rows)))
            for t, r, flip in zip(tree, cls, flipped):
                # the fundamental cut of t: the side of its head in the forest without t
                ids = component_ids(Multigraph(g.vertex_count, tuple(g.edges[f] for f in tree if f != t)))
                side = ids[g.edges[t][1]]
                row = tuple((ids[u] == side) - (ids[v] == side) for u, v in (g.edges[c] for c in cotree))
                assert flip == next((x < 0 for x in row if x), False), (g, t)
                assert rows[r] == (tuple(-x for x in row) if flip else row), (g, t)

    def test_a_bridge_is_a_zero_row(self):
        g = Multigraph(6, ((5, 4), (4, 3), (3, 5), (3, 2), (2, 1), (1, 0), (0, 2)))
        tree, cotree, rows, cls, flipped = g.cycle_space
        assert rows[cls[tree.index(3)]] == (0, 0)
        assert not flipped[tree.index(3)]
        assert len(tree) == 5 and len(cotree) == 2


class TestDeleteContract:
    def test_deletion(self):
        assert delete_edge(complete_graph(3), 1).edges == ((0, 1), (1, 2))
        assert delete_edge(dipole(2), 0).edges == ((0, 1),)
        assert delete_edge(Multigraph(1, ((0, 0),)), 0).edges == ()


class TestOrientations:
    def test_acyclic_counts(self):
        assert len(enumerate_acyclic_orientations(complete_graph(3))) == 6
        assert len(enumerate_acyclic_orientations(path_graph(3))) == 4
        assert enumerate_acyclic_orientations(Multigraph(1, ((0, 0),))) == []

    def test_parallel_edges_must_codirect(self):
        acyclic = enumerate_acyclic_orientations(dipole(2))
        assert len(acyclic) == 2
        # both edges 0 -> 1 (0 < 1) or both 1 -> 0 (1 < 0)
        assert sorted(acyclic) == [(0, 0b01), (0b10, 0)]

    def test_totally_cyclic_counts(self):
        assert len(enumerate_totally_cyclic_orientations(dipole(2))) == 2
        assert len(enumerate_totally_cyclic_orientations(dipole(3))) == 6
        assert enumerate_totally_cyclic_orientations(path_graph(4)) == []

    def test_loop_is_coherent_cycle(self):
        g = Multigraph(1, ((0, 0),))
        assert len(enumerate_totally_cyclic_orientations(g)) == 2

    def test_indegree_sequences(self):
        for k, sequences in ((2, 1), (3, 2)):
            g = dipole(k)
            assert in_degree_sequence_count(g, enumerate_totally_cyclic_orientations(g)) == sequences
        assert in_degree_sequence_count(dipole(2), []) == 0

    def test_indegree_rejects_a_mask_with_a_bit_past_the_edges(self):
        # one bit per edge: a mask of a larger graph is refused, not read short
        assert in_degree_sequence_count(dipole(2), [0b00, 0b11]) == 2
        for masks in ([0b00, 0b100], [0b1000], [-1]):
            with pytest.raises(ValueError, match="outside the 2 edges"):
                in_degree_sequence_count(dipole(2), masks)
        with pytest.raises(ValueError):
            in_degree_sequence_count(Multigraph(3, ()), [1])

    def test_indegree_matches_a_direct_count(self):
        # loops, antiparallel twins and isolated vertices included
        for g in (
            Multigraph(3, ((0, 1), (1, 1), (1, 2), (2, 0), (0, 0))),
            Multigraph(4, ((0, 1), (1, 0), (1, 2), (2, 1))),
            Multigraph(5, complete_graph(4).edges * 2),
        ):
            masks = enumerate_totally_cyclic_orientations(g)
            sequences = set()
            for mask in masks:
                degrees = [0] * g.vertex_count
                for (u, v), bit in zip(g.edges, as_direction(mask, g.edge_count)):
                    degrees[u if bit else v] += 1
                sequences.add(tuple(degrees))
            assert in_degree_sequence_count(g, masks) == len(sequences) > 0, g

    def test_cap(self, monkeypatch):
        # the cap bounds the count |chi(-1)|, not m: 25 parallel edges have
        # only 2 acyclic orientations
        assert chromatic_analysis(dipole(25)).acyclic_count == 2
        # K4 has 24: admitted at a cap of 24, refused at a cap of 23 (24 = cap+1)
        monkeypatch.setattr(caps, "ACYCLIC_ORIENTATION_CAP", 24)
        assert chromatic_analysis(complete_graph(4)).acyclic_count == 24
        monkeypatch.setattr(caps, "ACYCLIC_ORIENTATION_CAP", 23)
        with pytest.raises(CapExceeded, match="graph has 24 acyclic orientations; cap is 23"):
            chromatic_analysis(complete_graph(4))

    def test_totally_cyclic_cap(self, monkeypatch):
        with pytest.raises(CapExceeded, match="needs 2\\^25 candidates; cap is m <= 24"):
            enumerate_totally_cyclic_orientations(dipole(25))
        monkeypatch.setattr(caps, "ORIENTATION_EDGE_CAP", 3)
        assert len(enumerate_totally_cyclic_orientations(dipole(3))) == 6
        with pytest.raises(CapExceeded):
            enumerate_totally_cyclic_orientations(dipole(4))

    def test_cap_is_checked_before_enumerating(self, monkeypatch):
        def refuse(g):
            raise AssertionError("enumerated above the cap")

        monkeypatch.setattr(polybinom.chromatic, "acyclic_orientations_up_to_reversal", refuse)
        # K9 has 9! = 362,880 acyclic orientations
        assert caps.ACYCLIC_ORIENTATION_CAP < 362_880
        with pytest.raises(CapExceeded, match="graph has 362880 acyclic orientations"):
            chromatic_analysis(complete_graph(9))


def arcs(g: Multigraph, direction: tuple[int, ...]) -> list[tuple[int, int]]:
    """The (tail, head) of every edge: bit 0 keeps the stored pair, 1 reverses it."""
    return [(v, u) if bit else (u, v) for (u, v), bit in zip(g.edges, direction)]


def directions(g: Multigraph) -> list[tuple[int, ...]]:
    """All 2^m direction vectors in bitmask order."""
    m = g.edge_count
    return [tuple((mask >> e) & 1 for e in range(m)) for mask in range(1 << m)]


def _is_acyclic(d: int, arcs) -> bool:
    # Kahn's algorithm: every vertex is peeled off only if no cycle remains
    indeg = [0] * d
    out: list[list[int]] = [[] for _ in range(d)]
    for t, h in arcs:
        out[t].append(h)
        indeg[h] += 1
    queue = deque(v for v in range(d) if indeg[v] == 0)
    seen = 0
    while queue:
        v = queue.popleft()
        seen += 1
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == d


def acyclic_by_scan(g: Multigraph) -> list[tuple[int, ...]]:
    """Oracle: every one of the 2^m direction vectors, kept if acyclic."""
    return [o for o in directions(g) if _is_acyclic(g.vertex_count, arcs(g, o))]


def posets_by_scan(g: Multigraph) -> list[tuple[int, ...]]:
    """Oracle: the order of each acyclic orientation, closed by `Poset.from_relation`."""
    return sorted(Poset.from_relation(g.vertex_count, arcs(g, o)).above for o in acyclic_by_scan(g))


def posets_by_search(g: Multigraph) -> list[tuple[int, ...]]:
    """The search's orders, each accepted by the validation of `Poset`."""
    orders = enumerate_acyclic_orientations(g)
    for above in orders:
        assert Poset(g.vertex_count, above).above == above
    return sorted(orders)


SCAN_ORACLE_MULTIGRAPHS = {
    "dipole3": dipole(3),
    "antiparallel": Multigraph(3, ((0, 1), (1, 0), (1, 2))),  # antiparallel twins as stored
    "k4_twin": Multigraph(4, complete_graph(4).edges + ((1, 0),)),
    "triangle_twins": Multigraph(3, ((0, 1), (1, 2), (2, 0), (2, 1), (0, 2))),
    "two_blocks": Multigraph(5, ((3, 1), (1, 4), (4, 3), (0, 2), (2, 0), (0, 3))),
    "loop": Multigraph(3, ((0, 1), (1, 1), (1, 2))),
    "edgeless": Multigraph(4, ()),
}


class TestAcyclicScanOracle:
    def test_d6_family(self):
        for level in connected_graph_classes(6):
            for g in level:
                assert posets_by_search(g) == posets_by_scan(g), g

    @pytest.mark.parametrize("g", SCAN_ORACLE_MULTIGRAPHS.values(), ids=SCAN_ORACLE_MULTIGRAPHS.keys())
    def test_multigraphs(self, g):
        assert posets_by_search(g) == posets_by_scan(g)


def assert_halves_the_oracle(g: Multigraph) -> None:
    """The search lists one order of each reversal pair of the full oracle,
    the one in which edge 0 points as stored; the reverse orientation
    induces the dual order, whose ``above`` masks are the ``below`` ones."""
    half = acyclic_orientations_up_to_reversal(g)
    full = enumerate_acyclic_orientations(g)
    posets = [Poset(g.vertex_count, above) for above in half]
    assert [p.above for p in posets] == half
    if not g.edges:
        # the empty orientation is its own reverse
        assert half == full == [(0,) * g.vertex_count]
        return
    reverses = [p.below for p in posets]
    assert sorted(half + reverses) == sorted(full), g
    assert not set(half) & set(reverses), g
    u, v = g.edges[0]
    assert all(above[u] >> v & 1 for above in half), g


# two triangles, edge 0 in the second with a parallel twin, and an isolated vertex
DISCONNECTED = Multigraph(7, ((4, 3), (0, 1), (1, 2), (2, 0), (3, 5), (5, 4), (4, 3)))


class TestAcyclicOrientationsUpToReversal:
    def test_d6_family(self):
        for level in connected_graph_classes(6):
            for g in level:
                assert_halves_the_oracle(g)

    @pytest.mark.parametrize(
        "g",
        [*SCAN_ORACLE_MULTIGRAPHS.values(), DISCONNECTED],
        ids=[*SCAN_ORACLE_MULTIGRAPHS, "disconnected"],
    )
    def test_multigraphs(self, g):
        assert_halves_the_oracle(g)

    def test_counts_stand_for_both_orientations(self):
        assert len(acyclic_orientations_up_to_reversal(complete_graph(3))) == 3
        assert chromatic_analysis(complete_graph(3)).acyclic_count == 6
        assert chromatic_analysis(DISCONNECTED).acyclic_count == len(enumerate_acyclic_orientations(DISCONNECTED))

    def test_edgeless_graph_has_one_orientation(self):
        assert acyclic_orientations_up_to_reversal(Multigraph(4, ())) == [(0, 0, 0, 0)]
        assert chromatic_analysis(Multigraph(4, ())).acyclic_count == 1

    def test_ten_vertices(self):
        # d = CHROMATIC_VERTEX_CAP packs 10 fields of 10 bits: a cycle, a tree,
        # and a seeded graph whose full count is under the cap
        d = caps.CHROMATIC_VERTEX_CAP
        assert d == 10
        rng = random.Random(31)
        tree = Multigraph(d, tuple((rng.randrange(v), v) for v in range(1, d)))
        dense = Multigraph(d, tuple(rng.sample(list(combinations(range(d), 2)), 20)))
        assert dense.is_connected
        assert len(enumerate_acyclic_orientations(dense)) <= caps.ACYCLIC_ORIENTATION_CAP
        for g, half in ((cycle_graph(d), 2 ** (d - 1) - 1), (tree, 2 ** (d - 2)), (dense, None)):
            assert_halves_the_oracle(g)
            if half is not None:
                assert len(acyclic_orientations_up_to_reversal(g)) == half

    @pytest.mark.parametrize(
        "g",
        [
            Multigraph(1, ((0, 0),)),
            Multigraph(4, ((0, 1), (1, 2), (2, 2), (2, 3))),
            Multigraph(3, ((0, 1), (1, 2), (0, 0), (1, 0))),
        ],
        ids=["lone_loop", "loop_on_a_path", "loop_and_antiparallel_twin"],
    )
    def test_loops_leave_none(self, g):
        assert acyclic_orientations_up_to_reversal(g) == [] == enumerate_acyclic_orientations(g)

    def test_antiparallel_twin_of_edge_0(self):
        # the twin must point as edge 0 does, against its own storage
        g = Multigraph(4, ((0, 1), (1, 2), (2, 3), (3, 0), (1, 0)))
        assert_halves_the_oracle(g)
        assert all(above[0] >> 1 & 1 and not above[1] >> 0 & 1 for above in acyclic_orientations_up_to_reversal(g))
        assert len(acyclic_orientations_up_to_reversal(g)) == len(acyclic_orientations_up_to_reversal(cycle_graph(4)))

    def test_isolated_vertices(self):
        for g in (Multigraph(1, ()), Multigraph(10, ()), Multigraph(6, ((4, 2), (2, 5), (5, 4)))):
            assert_halves_the_oracle(g)
        # the isolated vertices 0, 1 and 3 are comparable to nothing
        for above in acyclic_orientations_up_to_reversal(Multigraph(6, ((4, 2), (2, 5), (5, 4)))):
            assert above[0] == above[1] == above[3] == 0
            assert not any(a >> v & 1 for a in above for v in (0, 1, 3))
        assert acyclic_orientations_up_to_reversal(Multigraph(0, ())) == [()]


def _edge_on_coherent_cycle(g: Multigraph, direction: tuple[int, ...], e: int) -> bool:
    # direct characterization: a simple directed path head -> tail closes a
    # coherent cycle through e (such a path can never reuse e itself)
    oriented = arcs(g, direction)
    tail, head = oriented[e]
    if tail == head:
        return True
    adj = [[] for _ in range(g.vertex_count)]
    for t, h in oriented:
        if t != h:
            adj[t].append(h)
    seen = {head}
    stack = [head]
    while stack:
        v = stack.pop()
        if v == tail:
            return True
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return False


class TestTotallyCyclicEquivalence:
    @pytest.mark.parametrize(
        "g",
        [
            dipole(2),
            dipole(3),
            complete_graph(3),
            complete_graph(4),
            cycle_graph(5),
            path_graph(4),
            Multigraph(4, ((0, 1), (1, 2), (2, 0), (2, 3), (3, 0), (1, 3))),
            Multigraph(3, ((0, 1), (0, 1), (1, 2), (1, 2))),
            Multigraph(5, ((0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2))),
            # two nontrivial components and an isolated vertex
            Multigraph(7, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 3), (5, 3), (4, 5))),
            Multigraph(3, ((1, 1),)),  # no edge but a loop on a vertex of its own
        ],
    )
    def test_strong_components_match_edge_cycles(self, g):
        # both characterizations agree on every one of the 2^m orientations,
        # and the enumeration keeps bitmask order
        cyclic = [
            o for o in directions(g)
            if all(_edge_on_coherent_cycle(g, o, e) for e in range(g.edge_count))
        ]
        assert [as_direction(o, g.edge_count) for o in enumerate_totally_cyclic_orientations(g)] == cyclic


def _reach_mask(root: int, adjacency: list[int]) -> int:
    seen = frontier = 1 << root
    while frontier:
        step = 0
        for v, out in enumerate(adjacency):
            if frontier >> v & 1:
                step |= out
        frontier = step & ~seen
        seen |= step
    return seen


def totally_cyclic_by_scan(g: Multigraph) -> list[tuple[int, ...]]:
    """Oracle: every one of the 2^m direction vectors in bitmask order, kept
    if each component with two or more vertices is reached from its lowest
    vertex forward and backward."""
    m, d = g.edge_count, g.vertex_count
    members: dict[int, int] = {}
    for v, c in enumerate(component_ids(g)):
        members[c] = members.get(c, 0) | 1 << v
    components = [((c & -c).bit_length() - 1, c) for c in members.values() if c & c - 1]
    out = []
    for mask in range(1 << m):
        forward = [0] * d
        backward = [0] * d
        for e, (u, v) in enumerate(g.edges):
            if mask >> e & 1:
                u, v = v, u
            forward[u] |= 1 << v
            backward[v] |= 1 << u
        if all(_reach_mask(r, forward) == c and _reach_mask(r, backward) == c for r, c in components):
            out.append(tuple(mask >> e & 1 for e in range(m)))
    return out


class TestTotallyCyclicScanOracle:
    """The search lists exactly what the 2^m scan keeps, in the same order."""

    def test_d6_family(self):
        for level in connected_graph_classes(6):
            for g in level:
                assert [as_direction(o, g.edge_count) for o in enumerate_totally_cyclic_orientations(g)] == (
                    totally_cyclic_by_scan(g)
                ), g

    @pytest.mark.parametrize(
        "g",
        [
            dipole(3),
            Multigraph(3, ((0, 1), (1, 0), (1, 2), (2, 1))),  # antiparallel twins as stored
            Multigraph(3, ((0, 1), (0, 1), (1, 2), (1, 2))),
            Multigraph(3, ((0, 1), (1, 1), (1, 2), (2, 0), (0, 0))),  # loops on a triangle
            Multigraph(3, ((1, 1),)),  # no edge but a loop on a vertex of its own
            # two nontrivial components and an isolated vertex
            Multigraph(7, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 3), (5, 3), (4, 5))),
            Multigraph(4, complete_graph(4).edges * 2),
            Multigraph(4, complete_graph(4).edges + tuple((v, u) for u, v in complete_graph(4).edges)),
            Multigraph(4, complete_graph(4).edges + ((0, 1),)),
            Multigraph(4, ()),
        ],
        ids=["dipole3", "antiparallel", "parallel_path", "loops", "lone_loop", "two_components",
             "k4_doubled", "k4_doubled_antiparallel", "k4_one_twin", "edgeless"],
    )
    def test_multigraphs(self, g):
        masks = enumerate_totally_cyclic_orientations(g)
        assert [as_direction(o, g.edge_count) for o in masks] == totally_cyclic_by_scan(g)
        assert masks == sorted(masks)

    def test_bridge(self, monkeypatch):
        def search(*args):
            raise AssertionError("searched a graph with a bridge")

        # two triangles joined by an edge, and a triangle and a dipole joined by one
        bridged = (
            Multigraph(6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3))),
            Multigraph(5, ((3, 1), (1, 4), (4, 3), (0, 2), (2, 0), (0, 3))),
        )
        for g in bridged:
            assert totally_cyclic_by_scan(g) == []
        monkeypatch.setattr(polybinom.graphs, "_reaches", search)
        for g in bridged:
            assert enumerate_totally_cyclic_orientations(g) == []

    def test_long_cycle(self):
        # 2^20 orientations, two of them totally cyclic: the search pays
        # for the two, as stored and all reversed
        start = time.perf_counter()
        assert enumerate_totally_cyclic_orientations(cycle_graph(20)) == [0, 2**20 - 1]
        assert time.perf_counter() - start < 1.0


class TestOrientationToPoset:
    """The search hands over each acyclic orientation as the order it induces."""

    def test_directed_path_is_chain(self):
        # the orientation 0 -> 1 -> 2 is among the four of the path
        assert chain(3).above in enumerate_acyclic_orientations(path_graph(3))

    def test_transitive_closure(self):
        # 0 -> 1 -> 2 on the path: no edge joins 0 and 2, yet 0 < 2
        orders = enumerate_acyclic_orientations(path_graph(3))
        (above,) = [a for a in orders if a[0] >> 1 & 1 and a[1] >> 2 & 1]
        assert above == (0b110, 0b100, 0)

    def test_edgeless_gives_antichain(self):
        assert enumerate_acyclic_orientations(Multigraph(3, ())) == [antichain(3).above]

    def test_cyclic_rejected(self):
        # either directed triangle would leave the reachability masks
        # (0b110, 0b101, 0b011), which are no order; the search lists only
        # the 2^3 - 2 acyclic orientations, each an order `Poset` accepts
        orders = enumerate_acyclic_orientations(cycle_graph(3))
        assert len(orders) == 6
        assert (0b110, 0b101, 0b011) not in orders
        for above in orders:
            Poset(3, above)


def invariant_by_refinement(g: Multigraph) -> tuple[int, ...]:
    """Oracle of `_graph_invariant`: degrees (a loop counts twice) refined by
    the sorted ranks of the neighbours, renormalized to ranks 0.. each round,
    until a round changes nothing."""
    n = g.vertex_count
    adj: list[list[int]] = [[] for _ in range(n)]
    deg = [0] * n
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
        if u != v:
            adj[u].append(v)
            adj[v].append(u)

    def normalize(values) -> tuple[int, ...]:
        ranks = {x: i for i, x in enumerate(sorted(set(values)))}
        return tuple(ranks[x] for x in values)

    inv = normalize(deg)
    while True:
        nxt = normalize([(inv[v], tuple(sorted(inv[w] for w in adj[v]))) for v in range(n)])
        if nxt == inv:
            return inv
        inv = nxt


def certificate_by_relabelings(g: Multigraph) -> tuple:
    """Oracle of `graph_certificate`: the smallest sorted edge list over every
    relabeling that puts the invariant's classes on consecutive slots in
    class order, each permuted every way."""
    inv = invariant_by_refinement(g)
    classes = [[v for v in range(g.vertex_count) if inv[v] == c] for c in sorted(set(inv))]
    best = None
    for arrangement in product(*(permutations(members) for members in classes)):
        slot = {v: s for s, v in enumerate(v for members in arrangement for v in members)}
        edges = tuple(sorted(tuple(sorted((slot[u], slot[v]))) for u, v in g.edges))
        if best is None or edges < best:
            best = edges
    return (g.vertex_count, best)


def family_candidates(max_d: int) -> list[Multigraph]:
    """Every graph the growth of `connected_graph_classes(max_d)` certifies:
    each class on d-1 vertices with a new vertex joined to each nonempty
    subset of the old ones."""
    classes = [g for level in connected_graph_classes(max_d - 1) for g in level]
    return [
        Multigraph(d, g.edges + tuple((u, d - 1) for u in range(d - 1) if mask >> u & 1))
        for d in range(2, max_d + 1)
        for g in classes if g.vertex_count == d - 1
        for mask in range(1, 1 << (d - 1))
    ]


def random_multigraph(rng: random.Random, d: int, max_m: int) -> Multigraph:
    """Loops, parallel and antiparallel twins, and isolated vertices all occur."""
    if not d:
        return Multigraph(0, ())
    return Multigraph(d, tuple((rng.randrange(d), rng.randrange(d)) for _ in range(rng.randint(0, max_m))))


def relabeled(g: Multigraph, rng: random.Random) -> Multigraph:
    """g under a random relabeling, with its edges shuffled and each one
    stored either way round."""
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u]) for u, v in g.edges]
    rng.shuffle(edges)
    return Multigraph(g.vertex_count, tuple(edges))


class TestCertificates:
    def test_isomorphic_relabelings_share_certificate(self):
        g1 = Multigraph(4, ((0, 1), (1, 2), (2, 3)))
        g2 = Multigraph(4, ((3, 2), (2, 1), (0, 1)))
        assert graph_certificate(g1) == graph_certificate(g2)

    def test_distinct_graphs_differ(self):
        assert graph_certificate(path_graph(4)) != graph_certificate(cycle_graph(4))
        assert graph_certificate(dipole(2)) != graph_certificate(path_graph(2))

    def test_family_growth_matches_the_relabeling_oracle(self):
        # the certificate is the kept representative's edge list
        candidates = family_candidates(6)
        assert len(candidates) == 759
        for g in candidates:
            assert graph_certificate(g) == certificate_by_relabelings(g), g

    def test_multigraphs_match_the_relabeling_oracle(self):
        rng = random.Random(2025)
        graphs = [random_multigraph(rng, rng.randint(0, 7), 14) for _ in range(2000)] + [
            Multigraph(0, ()),
            Multigraph(5, ()),
            Multigraph(3, ((1, 1), (1, 1), (0, 0))),
            Multigraph(4, complete_graph(4).edges + tuple((v, u) for u, v in complete_graph(4).edges)),
            Multigraph(6, ((0, 1), (0, 1), (0, 1), (2, 3), (2, 3), (4, 5), (4, 4))),
            # tied branches that reach single-vertex cells with different edge lists
            Multigraph(8, ((0, 4), (0, 6), (1, 5), (1, 7), (2, 3), (2, 4), (2, 6), (3, 5), (3, 7), (5, 6))),
            Multigraph(9, ((6, 8), (1, 4), (5, 2), (2, 6), (1, 3), (0, 3))),
        ]
        for g in graphs:
            assert graph_certificate(g) == certificate_by_relabelings(g), g

    def test_relabelings_share_the_certificate(self):
        rng = random.Random(77)
        d7 = [g for level in connected_graph_classes(7) for g in level if g.vertex_count == 7]
        sample = rng.sample(d7, 60) + [complete_graph(8), cycle_graph(8), Multigraph(8, complete_graph(8).edges * 2)]
        for _ in range(60):
            sample.append(Multigraph(8, tuple(pair for pair in combinations(range(8), 2) if rng.random() < 0.5)))
            sample.append(random_multigraph(rng, 8, 16))
        for g in sample:
            certificate = graph_certificate(g)
            for _ in range(3):
                assert graph_certificate(relabeled(g, rng)) == certificate, g


class TestFileFormat:
    def test_round_trip_is_deterministic(self):
        text = "vertices 3\n# a comment\nedge 0 1\nedge 1 2\nedge 0 0\n"
        g1 = parse_graph_file(text)
        g2 = parse_graph_file(text)
        assert g1 == g2
        assert g1.edges == ((0, 1), (1, 2), (0, 0))
        assert parse_graph_file(format_graph_file(g1)) == g1

    def test_errors_carry_line_numbers(self):
        with pytest.raises(InputFormatError) as err:
            parse_graph_file("vertices 2\nedge 0 5\n")
        assert err.value.line == 2
        with pytest.raises(InputFormatError):
            parse_graph_file("edge 0 1\n")
        with pytest.raises(InputFormatError) as err:
            parse_graph_file("vertices 2\nfrobnicate\n")
        assert err.value.line == 2
