import hashlib
import random
import tracemalloc
from collections import deque
from itertools import chain, combinations, product

import numpy as np
import pytest

import polybinom.flows as flows
import polybinom.graphs as graphs
from polybinom import caps
from polybinom.checks import flow_checks
from polybinom.errors import CapExceeded, NotApplicable
from polybinom.flows import (
    FlowResult,
    flow_analysis,
    kochol_tables,
    modular_flow_count,
)
from polybinom.graphs import (
    Multigraph,
    complete_graph,
    cycle_graph,
    cyclomatic_number,
    dipole,
    enumerate_totally_cyclic_orientations,
    in_degree_sequence_count,
    path_graph,
)
from polybinom.survey import connected_graph_classes, flow_fixture_set

from test_graphs import as_direction

THETA = dipole(3)
K4_DOUBLED = Multigraph(4, complete_graph(4).edges + ((0, 1),))
PETERSEN = Multigraph(
    10,
    tuple((i, (i + 1) % 5) for i in range(5))
    + tuple((i, i + 5) for i in range(5))
    + tuple((5 + i, 5 + (i + 2) % 5) for i in range(5)),
)


def per_bound(columns: dict[int, tuple[int, ...]], top: int) -> dict[int, dict[int, int]]:
    """The Kochol table at each bound n = 1..top, as the per-bound oracles
    give it, from the columns of `kochol_tables`: the nonzero entries at n,
    in column order."""
    return {n: {o: column[n - 1] for o, column in columns.items() if column[n - 1]} for n in range(1, top + 1)}


def with_directions(tables: dict[int, dict[int, int]], m: int) -> dict[int, dict[tuple[int, ...], int]]:
    """Kochol tables keyed by direction tuples, as the oracles key theirs,
    in the tables' own order."""
    return {n: {as_direction(o, m): k for o, k in table.items()} for n, table in tables.items()}


def integral(g: Multigraph, n: int) -> int:
    """Nowhere-zero integer flows with 0 < |x| < n: the Kochol bucket sum."""
    return sum(per_bound(kochol_tables(g, n), n)[n].values())


def cycle_matrix(g: Multigraph) -> tuple[list[int], list[int], np.ndarray]:
    """The Kochol oracles' own basis: tree edges, cotree edges and the signed
    fundamental-cycle matrix M of a breadth-first forest, one row per tree
    edge and one column per cotree edge.  `Multigraph.cycle_space` uses the
    depth-first forest of the bridge search, so the scans and these oracles
    share no basis.

    The cycle of a cotree edge (u, v) runs along the edge u -> v and back
    through the forest from v to u, climbing from the deeper end until the
    two meet; a tree edge picks up +1 when the return path traverses it
    tail-to-head.
    """
    d = g.vertex_count
    incident: list[list[tuple[int, int]]] = [[] for _ in range(d)]
    for i, (u, v) in enumerate(g.edges):
        if u != v:
            incident[u].append((i, v))
            incident[v].append((i, u))
    parent, parent_edge, depth = [-1] * d, [-1] * d, [-1] * d
    tree: list[int] = []
    for root in range(d):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for ei, w in incident[v]:
                if depth[w] < 0:
                    depth[w] = depth[v] + 1
                    parent[w], parent_edge[w] = v, ei
                    tree.append(ei)
                    queue.append(w)
    in_tree = set(tree)
    cotree = [i for i in range(g.edge_count) if i not in in_tree]
    tree_pos = {e: i for i, e in enumerate(tree)}
    M = np.zeros((len(tree), len(cotree)), dtype=np.int64)
    for col, ce in enumerate(cotree):
        u, v = g.edges[ce]
        x, y = v, u  # walk the return path v ... u; a loop's cycle is the edge itself
        while x != y:
            if depth[x] >= depth[y]:
                t, p = parent_edge[x], parent[x]
                M[tree_pos[t], col] += 1 if g.edges[t] == (x, p) else -1
                x = p
            else:
                t, p = parent_edge[y], parent[y]
                # traversed against the climb direction on the u-side
                M[tree_pos[t], col] += 1 if g.edges[t] == (p, y) else -1
                y = p
    return tree, cotree, M


CHUNK = 1 << 20


def _candidate_chunks(value_sets: list[np.ndarray]):
    """Cartesian product of per-coordinate value sets, yielded in chunks."""
    xi = len(value_sets)
    if xi == 0:
        yield np.zeros((1, 0), dtype=np.int64)
        return
    total = int(np.prod([len(vs) for vs in value_sets]))
    if total <= CHUNK:
        grids = np.meshgrid(*value_sets, indexing="ij")
        yield np.stack([grid.ravel() for grid in grids], axis=1).astype(np.int64)
        return
    for head in value_sets[0]:
        for rest in _candidate_chunks(value_sets[1:]):
            block = np.empty((rest.shape[0], xi), dtype=np.int64)
            block[:, 0] = head
            block[:, 1:] = rest
            yield block


def kochol_table_at(g: Multigraph, n: int) -> dict[tuple[int, ...], int]:
    """Independent oracle for one table of `kochol_tables`: the per-bound scan.

    Builds every cotree vector with 0 < |x| < n, forces the tree values
    through the full cycle matrix, and buckets the kept flows by their sign
    rows; no series classes, no half products and no levels.
    """
    m = g.edge_count
    if m == 0 or n == 1:
        return {}
    tree, cotree, M = cycle_matrix(g)
    span = np.concatenate([np.arange(-(n - 1), 0), np.arange(1, n)]).astype(np.int64)
    buckets: dict[tuple[int, ...], int] = {}
    for cand in _candidate_chunks([span for _ in cotree]):
        forced = cand @ M.T
        ok = ((forced != 0) & (np.abs(forced) < n)).all(axis=1)
        cand, forced = cand[ok], forced[ok]
        if cand.shape[0] == 0:
            continue
        edge_vals = np.empty((cand.shape[0], m), dtype=np.int64)
        edge_vals[:, tree] = forced
        edge_vals[:, cotree] = cand
        # sort the sign rows, packed 8 edges a byte, and count equal runs
        signs = np.packbits(edge_vals < 0, axis=1)
        signs = signs[np.lexsort(signs.T[::-1])]
        starts = np.flatnonzero(np.r_[True, (signs[1:] != signs[:-1]).any(axis=1)])
        counts = np.diff(np.r_[starts, signs.shape[0]])
        rows = np.unpackbits(signs[starts], axis=1, count=m)
        for row, cnt in zip(map(tuple, rows.tolist()), counts.tolist()):
            buckets[row] = buckets.get(row, 0) + cnt
    return dict(sorted(buckets.items()))


def flow_instances() -> list[tuple[str, Multigraph]]:
    """Every instance `run_flow_survey(6)` checks, plus the xi = 6 CLI graphs
    and fixtures off the survey: a loop, a disconnected graph, a doubled edge."""
    survey = [(f"class{i}", g) for i, g in enumerate(chain.from_iterable(connected_graph_classes(6)))]
    survey += flow_fixture_set()
    checked = [
        (name, g) for name, g in survey
        if g.is_bridgeless and 1 <= cyclomatic_number(g) <= caps.FLOW_XI_SURVEY_CAP
    ]
    triangle = cycle_graph(3).edges
    return checked + [
        ("K5", complete_graph(5)),
        ("petersen", PETERSEN),
        ("K4_doubled", K4_DOUBLED),
        ("theta_looped", Multigraph(2, THETA.edges + ((1, 1),))),
        ("two_triangles", Multigraph(6, triangle + tuple((u + 3, v + 3) for u, v in triangle))),
    ]


@pytest.fixture(scope="module")
def one_scan_tables():
    """(name, graph, the tables of `kochol_tables` at xi+2) for every flow instance."""
    tops = [(name, g, cyclomatic_number(g) + 2) for name, g in flow_instances()]
    return [(name, g, per_bound(kochol_tables(g, top), top)) for name, g, top in tops]


def dense_integral(g: Multigraph, n: int) -> int:
    vals = [v for v in range(-(n - 1), n) if v != 0]
    count = 0
    for assign in product(vals, repeat=g.edge_count):
        bal = [0] * g.vertex_count
        for (u, v), x in zip(g.edges, assign):
            bal[u] -= x
            bal[v] += x
        if all(b == 0 for b in bal):
            count += 1
    return count


DENSE_EDGE_CAP = 8


def modular_flow_count_dense(g: Multigraph, n: int) -> int:
    """Independent oracle: scan all of Z_n^E and test conservation directly."""
    m = g.edge_count
    if m > DENSE_EDGE_CAP:
        raise CapExceeded(f"dense scan cap is {DENSE_EDGE_CAP} edges, got {m}")
    if m == 0:
        return 1
    if n == 1:
        return 0
    d = g.vertex_count
    count = 0
    for assignment in product(range(1, n), repeat=m):
        balance = [0] * d
        for (u, v), x in zip(g.edges, assignment):
            balance[u] -= x
            balance[v] += x
        if all(b % n == 0 for b in balance):
            count += 1
    return count


def positive_flow_count(g: Multigraph, direction: tuple[int, ...], n: int) -> int:
    """Integer flows strictly positive along the orientation, values < n.

    Pure-Python route used to validate the bucketed table independently.
    """
    if g.edge_count == 0:
        return 1 if n >= 1 else 0
    if n == 1:
        return 0
    tree, cotree, M = cycle_matrix(g)
    sign = [1 if b == 0 else -1 for b in direction]
    count = 0
    for tvals in product(range(1, n), repeat=len(cotree)):
        cvals = [sign[e] * t for e, t in zip(cotree, tvals)]
        ok = True
        for row, te in enumerate(tree):
            forced = int(sum(M[row, col] * cvals[col] for col in range(len(cotree))))
            if not 0 < sign[te] * forced < n:
                ok = False
                break
        if ok:
            count += 1
    return count


def scan_halves(g: Multigraph, values, keep, positive_last: bool = False) -> tuple[int, int, int]:
    """(shared rows, kept combinations of half a, of half b) of one flow
    scan, by the filter's definition and by brute force over the class rows
    of `Multigraph.cycle_space`.

    A row is local to a half when all its nonzero entries lie in the half's
    coordinates; a zero row counts for half a.  Half a is the first split of
    `combinations(range(xi), xi // 2)` with the most rows local to one half,
    and half b the rest.  A half keeps the value combinations that `keep`
    passes on each of its local rows; with `positive_last`, half b keeps
    only those whose last value is positive.
    """
    _, cotree, rows, _, _ = g.cycle_space
    xi = len(cotree)

    def within(row, cols):
        return all(c in cols for c, x in enumerate(row) if x)

    def rest(cols):
        return tuple(c for c in range(xi) if c not in cols)

    cols_a = max(
        combinations(range(xi), xi // 2),
        key=lambda cols: sum(within(row, cols) or within(row, rest(cols)) for row in rows),
    )
    cols_b = rest(cols_a)
    local_a = [row for row in rows if within(row, cols_a)]
    local_b = [row for row in rows if within(row, cols_b) and not within(row, cols_a)]
    kept = []
    for cols, local, last in ((cols_a, local_a, False), (cols_b, local_b, positive_last)):
        kept.append(sum(
            all(keep(sum(row[c] * x for c, x in zip(cols, combo))) for row in local) and (not last or combo[-1] > 0)
            for combo in product(values, repeat=len(cols))
        ))
    return len(rows) - len(local_a) - len(local_b), kept[0], kept[1]


def integral_halves(g: Multigraph, top: int) -> tuple[int, int, int]:
    """`scan_halves` of the Kochol scan at `top`."""
    span = [*range(1 - top, 0), *range(1, top)]
    return scan_halves(g, span, lambda s: 0 < abs(s) < top, positive_last=True)


def recorded_pair_scans(monkeypatch) -> list[tuple[int, int, np.ndarray, np.ndarray]]:
    """Wrap `flows._kept_pairs`: for each call, (rows, pairs tested, a, b)."""
    calls, kept = [], flows._kept_pairs

    def recorded(a, b, top):
        calls.append((a.shape[0], a.shape[1] * b.shape[1], a.copy(), b.copy()))
        return kept(a, b, top)

    monkeypatch.setattr(flows, "_kept_pairs", recorded)
    return calls


class TestCounts:
    def test_modular_fixtures(self):
        assert modular_flow_count(dipole(2), 4) == 3
        assert modular_flow_count(THETA, 4) == 6
        assert modular_flow_count(path_graph(3), 5) == 0  # bridges force zero

    def test_integral_fixtures(self):
        assert integral(dipole(2), 3) == 4
        assert integral(THETA, 3) == 6
        assert integral(THETA, 4) == 18

    def test_trivial_moduli(self):
        assert modular_flow_count(dipole(2), 1) == 0
        assert integral(dipole(2), 1) == 0
        assert modular_flow_count(Multigraph(3, ()), 1) == 1

    def test_cotree_matches_dense_scan(self):
        graphs = [
            dipole(2),
            THETA,
            complete_graph(4),
            cycle_graph(4),
            Multigraph(4, ((0, 1), (1, 2), (2, 0), (2, 3), (3, 0))),
            Multigraph(3, ((0, 1), (0, 1), (1, 2), (1, 2), (0, 2))),
        ]
        for g in graphs:
            for n in (2, 3, 4):
                assert modular_flow_count(g, n) == modular_flow_count_dense(g, n)
                assert integral(g, n) == dense_integral(g, n)

    def test_loops_contribute_multiplicative_factors(self):
        base = THETA
        looped = Multigraph(2, base.edges + ((0, 0),))
        for n in (2, 3, 4):
            assert modular_flow_count(looped, n) == (n - 1) * modular_flow_count(base, n)
            assert integral(looped, n) == 2 * (n - 1) * integral(base, n)

    def test_orientation_independence(self):
        # flipping stored pairs changes the reference orientation only
        rng = random.Random(9)
        graphs = [THETA, complete_graph(4), K4_DOUBLED, cycle_graph(5)]
        for g in graphs:
            flipped = Multigraph(
                g.vertex_count,
                tuple((v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges),
            )
            for n in (2, 3, 4):
                assert modular_flow_count(g, n) == modular_flow_count(flipped, n)
                assert integral(g, n) == integral(flipped, n)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            modular_flow_count(dipole(10), 3)
        # an even number of parallel edges carries exactly one Z_2 flow
        assert modular_flow_count_dense(dipole(DENSE_EDGE_CAP), 2) == 1
        with pytest.raises(CapExceeded):
            modular_flow_count_dense(dipole(DENSE_EDGE_CAP + 1), 2)

    def test_xi_cap_is_the_largest_the_candidate_budget_admits(self):
        # flow_analysis scans the integral count up to n = xi+2, whose grid
        # has (2(n-1))^xi = (2(xi+1))^xi candidates
        def largest_grid(xi):
            return (2 * (xi + 1)) ** xi

        cap = caps.FLOW_XI_CAP
        assert largest_grid(cap) <= caps.FLOW_CANDIDATE_BUDGET < largest_grid(cap + 1)
        with pytest.raises(CapExceeded, match=f"exceeds cap {cap}"):
            flow_analysis(dipole(cap + 2))


class TestFlowAnalysis:
    def test_double_edge(self):
        r = flow_analysis(dipole(2))
        assert [r.phi_star.value(n) for n in (1, 2, 3)] == [0, 1, 2]
        assert r.phi_star.entries == (0, 0, 1)
        assert r.phi_split.p == (1, 1, 1)
        assert r.phi_split.q == (1, 1)
        assert [r.f_star.value(n) for n in (1, 2, 3)] == [0, 2, 4]
        assert r.f_star.entries == (0, 0, 2)
        assert r.f_split.p == (2, 2, 2)
        assert r.f_split.q == (2, 2)
        assert r.tc_orientation_count == 2
        assert r.indegree_sequence_count == 1
        assert flow_checks(dipole(2)).checks["constants_match_oracles"] == "pass"

    def test_theta(self):
        r = flow_analysis(THETA)
        assert r.phi_star.entries == (0, 0, 0, 2)
        assert r.phi_split.p == (2, 2, 2, 2)
        assert r.phi_split.q == (2, 2, 2)
        assert r.f_star.entries == (0, 0, 0, 6)
        assert r.f_split.p == (6, 6, 6, 6)
        assert r.f_split.q == (6, 6, 6)
        assert r.tc_orientation_count == 6
        assert r.indegree_sequence_count == 2

    def test_k4(self):
        r = flow_analysis(complete_graph(4))
        for n in range(1, 6):
            assert r.phi_star.value(n) == (n - 1) * (n - 2) * (n - 3)

    def test_bridge_not_applicable(self):
        with pytest.raises(NotApplicable) as err:
            flow_analysis(path_graph(3))
        assert err.value.reason == "bridge"

    def test_acyclic_not_applicable(self):
        with pytest.raises(NotApplicable) as err:
            flow_analysis(Multigraph(1, ()))
        assert err.value.reason == "xi=0"

    def test_vertex_cap_is_checked_at_its_boundary(self):
        # isolated vertices carry no flow: a padded double edge keeps its answer
        cap = caps.FLOW_VERTEX_CAP
        r = flow_analysis(Multigraph(cap, dipole(2).edges))
        assert (r.phi_star.entries, r.f_star.entries) == ((0, 0, 1), (0, 0, 2))
        # above the cap even a graph with a bridge is refused by the cap
        for g in (Multigraph(cap + 1, dipole(2).edges), Multigraph(cap + 1, path_graph(3).edges)):
            with pytest.raises(CapExceeded, match=f"flow cap is {cap} vertices, got {cap + 1}"):
                flow_analysis(g)
        with pytest.raises(CapExceeded, match="flow cap"):
            kochol_tables(Multigraph(cap + 1, dipole(2).edges), 3)

    def test_vertex_cap_padding_keeps_the_orientation_oracles(self, monkeypatch):
        # Petersen padded to the cap, as stored and with its ten vertices
        # spread to every hundredth label, keeps its 1,920 totally cyclic
        # orientations, in order, and 240 in-degree sequences; every
        # reachability test of the search reads one mask per end of an
        # edge, not one per vertex
        widths = []
        reaches = graphs._reaches

        def counted(root, target, first, adjacency):
            widths.append(len(adjacency))
            return reaches(root, target, first, adjacency)

        monkeypatch.setattr(graphs, "_reaches", counted)
        padded = Multigraph(caps.FLOW_VERTEX_CAP, PETERSEN.edges)
        spread = Multigraph(caps.FLOW_VERTEX_CAP, tuple((100 * u, 100 * v) for u, v in PETERSEN.edges))
        counts = []
        for g in (PETERSEN, padded, spread):
            tc = enumerate_totally_cyclic_orientations(g)
            counts.append((tc, in_degree_sequence_count(g, tc)))
        assert counts[0] == counts[1] == counts[2]
        assert (len(counts[0][0]), counts[0][1]) == (1920, 240)
        assert widths and set(widths) == {10}

    def test_refusals_keep_their_order(self):
        # a bridge is reported before an xi above the cap
        over = Multigraph(3, dipole(caps.FLOW_XI_CAP + 2).edges + ((1, 2),))
        with pytest.raises(NotApplicable) as err:
            flow_analysis(over)
        assert err.value.reason == "bridge"
        # the public scans still check the xi cap when called directly
        for scan in (modular_flow_count, kochol_tables):
            with pytest.raises(CapExceeded, match=f"exceeds cap {caps.FLOW_XI_CAP}"):
                scan(dipole(caps.FLOW_XI_CAP + 2), 3)

    def test_component_count_is_computed_once(self, computed):
        g = Multigraph(5, K4_DOUBLED.edges + ((4, 4),))
        searched, spaces = computed(Multigraph, "_search"), computed(Multigraph, "cycle_space")
        flow_analysis(g)
        assert [h is g for h in searched].count(True) == 1
        # one search and one cycle space per call, both of g
        assert searched == spaces == [g]

    def test_the_split_is_chosen_once_per_instance(self, computed):
        # the xi + 1 modular scans and the integral scan share one split
        g = complete_graph(5)
        splits = computed(Multigraph, "cotree_split")
        flow_analysis(g)
        assert splits == [g]

    def test_non_integral_phi_rejected(self, monkeypatch):
        # C(n, 3) is integer-valued and of degree xi = 3, and fits the node,
        # but phi must have integer monomial coefficients
        monkeypatch.setattr(
            "polybinom.flows.modular_flow_count", lambda g, n: n * (n - 1) * (n - 2) // 6
        )
        checked = flow_checks(complete_graph(4))
        assert checked.result.phi_node == checked.result.phi_star.value(5) == 10
        assert checked.checks["phi_degree_is_xi"] == "fail"

    def test_modular_count_of_lower_degree_fails_a_check(self, monkeypatch):
        # n - 1 has integer coefficients and fits the theta graph's node
        # n = 4, but its degree is 1, not xi = 2: its star entries sum to 0
        monkeypatch.setattr("polybinom.flows.modular_flow_count", lambda g, n: n - 1)
        checked = flow_checks(THETA)
        assert sum(checked.result.phi_star.entries) == 0
        assert checked.checks["phi_degree_is_xi"] == "fail"

    def test_modular_node_miscount_fails_a_check(self, monkeypatch):
        # the theta graph has phi = (n-1)(n-2): counts 0, 0, 2 at n = 1..3
        # and 6 at the node n = 4; a count of 7 there fits no quadratic
        # through the first three
        monkeypatch.setattr("polybinom.flows.modular_flow_count", lambda g, n: [0, 0, 2, 7][n - 1])
        checked = flow_checks(THETA)
        assert (checked.result.phi_star.value(4), checked.result.phi_node) == (6, 7)
        assert checked.failures == ["phi_degree_is_xi"]

    def test_integral_node_miscount_fails_a_check(self, monkeypatch):
        # one flow too many at the top bound breaks the node of f and of
        # that orientation's column
        def miscounted(g, top):
            columns = kochol_tables(g, top)
            first = next(iter(columns))
            *below, at_top = columns[first]
            columns[first] = (*below, at_top + 1)
            return columns

        monkeypatch.setattr("polybinom.flows.kochol_tables", miscounted)
        checked = flow_checks(THETA)
        assert checked.result.f_node == checked.result.f_star.value(4) + 1
        assert checked.failures == ["f_degree_is_xi", "kochol_sums_match_f"]

    def test_audits_pass_on_fixtures(self):
        for g in (dipole(2), THETA, dipole(4), dipole(5), complete_graph(4), K4_DOUBLED):
            checked = flow_checks(g)
            assert isinstance(checked.result, FlowResult)
            assert checked.checks["constants_match_oracles"] == "pass"
            assert [a.family for a in checked.audits if a.verdict == "fail"] == []


class TestTutteOracle:
    # an external oracle: phi_G(n) = (-1)^xi T_G(0, 1-n), and T_G(0, 2)
    # counts the totally cyclic orientations
    def test_phi_and_totally_cyclic_count_match_networkx(self):
        nx = pytest.importorskip("networkx")
        pytest.importorskip("sympy")  # networkx builds the Tutte polynomial in sympy
        bridgeless = [
            g for g in chain.from_iterable(connected_graph_classes(5)) if g.is_bridgeless and cyclomatic_number(g) >= 1
        ]
        for g in bridgeless + [g for _, g in flow_fixture_set()]:
            nxg = nx.MultiGraph()
            nxg.add_nodes_from(range(g.vertex_count))
            nxg.add_edges_from(g.edges)
            tutte = nx.tutte_polynomial(nxg)
            r = flow_analysis(g)
            for n in range(1, r.xi + 3):
                t = int(tutte.subs({"x": 0, "y": 1 - n}))
                assert r.phi_star.value(n) == (-1) ** r.xi * t, (g, n)
            totally_cyclic = int(tutte.subs({"x": 0, "y": 2}))
            assert r.tc_orientation_count == totally_cyclic, g
            assert len(per_bound(r.kochol, r.xi + 2)[r.xi + 2]) == totally_cyclic, g


class TestKochol:
    def test_theta_each_orientation_contributes_once(self):
        table = per_bound(kochol_tables(THETA, 3), 3)[3]
        assert len(table) == 6
        assert set(table.values()) == {1}
        assert sum(table.values()) == dense_integral(THETA, 3)

    def test_double_edge_n2(self):
        # keys are masks, listed as their directions sort: (0, 1) before (1, 0)
        columns = kochol_tables(dipole(2), 2)
        assert columns == {0b10: (0, 1), 0b01: (0, 1)}
        assert list(columns) == [0b10, 0b01]

    def test_columns_never_decrease(self):
        # entry n - 1 of a column counts the flows of its orientation with
        # 0 < |x| < n, so a larger bound never counts fewer
        columns = kochol_tables(complete_graph(4), 5)
        assert columns and all(type(column) is tuple and len(column) == 5 for column in columns.values())
        assert all(list(column) == sorted(column) for column in columns.values())

    def test_n1_empty(self):
        assert kochol_tables(THETA, 1) == {}

    def test_a_forest_has_empty_tables(self):
        assert kochol_tables(path_graph(3), 4) == {}

    def test_a_bridge_forces_zero_past_the_sums_type(self):
        # every tree row is zero, so every sum fits int8, but the bound does
        # not: a zero sum must still be dropped
        g = Multigraph(2, ((0, 0), (0, 1)))
        assert kochol_tables(g, 300) == {}
        assert modular_flow_count(g, 300) == 0

    def test_more_edges_than_an_int64_code_holds(self):
        # 69 tree edges in series: one class row, one key bit; the masks are
        # Python ints, so the all-reversed one is 2^70 - 1, not a wrapped -1
        columns = kochol_tables(cycle_graph(70), 3)
        assert per_bound(columns, 3) == {1: {}, 2: {0: 1, 2**70 - 1: 1}, 3: {0: 2, 2**70 - 1: 2}}
        assert all(type(o) is int for o in columns)

    def test_long_cycle_keys_are_the_two_directions(self):
        tables = per_bound(kochol_tables(cycle_graph(20), 3), 3)
        assert [list(table) for table in tables.values()] == [[], [0, 2**20 - 1], [0, 2**20 - 1]]
        assert list(tables[3]) == enumerate_totally_cyclic_orientations(cycle_graph(20))

    @pytest.mark.parametrize(
        "g",
        [
            Multigraph(3, ((0, 1), (1, 0), (1, 2), (2, 1))),  # antiparallel twins as stored
            Multigraph(3, ((0, 1), (1, 1), (1, 2), (2, 0), (0, 0))),  # loops on a triangle
            Multigraph(2, THETA.edges + ((1, 1),)),
            K4_DOUBLED,
        ],
        ids=["antiparallel", "loops", "theta_looped", "k4_doubled"],
    )
    def test_multigraph_keys_match_the_oracle(self, g):
        xi = cyclomatic_number(g)
        tables = per_bound(kochol_tables(g, xi + 2), xi + 2)
        oracle = {n: kochol_table_at(g, n) for n in range(1, xi + 3)}
        directed = with_directions(tables, g.edge_count)
        assert directed == oracle
        assert [list(t) for t in directed.values()] == [list(t) for t in oracle.values()]
        assert set(tables[xi + 2]) == set(enumerate_totally_cyclic_orientations(g))

    def test_keys_are_totally_cyclic(self):
        for g in (THETA, complete_graph(4), K4_DOUBLED):
            tc = set(enumerate_totally_cyclic_orientations(g))
            xi = cyclomatic_number(g)
            tables = per_bound(kochol_tables(g, xi + 2), xi + 2)
            for n in (2, 3, 4):
                assert set(tables[n]) <= tc
            # every open flow polytope has dimension xi, so interior points
            # from n = xi+1 on
            assert set(tables[xi + 2]) == tc

    def test_buckets_match_per_orientation_recount(self):
        # the one-pass table must agree with independent per-orientation counts
        for g in (dipole(2), THETA, complete_graph(4)):
            tables = per_bound(kochol_tables(g, 3), 3)
            for n in (2, 3):
                for o in enumerate_totally_cyclic_orientations(g):
                    assert tables[n].get(o, 0) == positive_flow_count(g, as_direction(o, g.edge_count), n)

    def test_one_scan_matches_the_per_bound_scan(self, one_scan_tables):
        # equal as dicts and in key order, at every bound n = 1..xi+2
        for name, g, tables in one_scan_tables:
            oracle = {n: kochol_table_at(g, n) for n in range(1, cyclomatic_number(g) + 3)}
            tables = with_directions(tables, g.edge_count)
            assert tables == oracle, name
            assert [list(t) for t in tables.values()] == [list(t) for t in oracle.values()], name

    def test_the_oracles_use_another_forest(self):
        # on K4 the breadth-first forest is a star at 0 and the search's
        # depth-first one a path, so one sign slip cannot pass both
        g = complete_graph(4)
        assert (cycle_matrix(g)[0], g.cycle_space[0]) == ([0, 1, 2], (0, 3, 5))

    def test_tables_are_pinned_on_every_bridgeless_class_to_d7(self):
        # the per-bound oracle above is too slow past d = 6, so the tables
        # (key order included) and the modular counts of the 350 bridgeless
        # classes with d <= 7 and xi <= 6, plus the fixtures, are pinned by
        # a digest of the scan's output, frozen before its block kernel was
        # rewritten and while its keys were direction tuples
        digest, count = hashlib.sha256(), 0
        for g in [*chain.from_iterable(connected_graph_classes(7)), *(g for _, g in flow_fixture_set())]:
            xi = cyclomatic_number(g)
            if g.is_bridgeless and 1 <= xi <= 6:
                tables = with_directions(per_bound(kochol_tables(g, xi + 2), xi + 2), g.edge_count)
                tables = [list(table.items()) for table in tables.values()]
                digest.update(repr((tables, [modular_flow_count(g, n) for n in range(1, xi + 3)])).encode())
                count += 1
        assert count == 356
        assert digest.hexdigest()[:16] == "de590ce5c6afee90"

    def test_one_scan_below_the_top_bound(self):
        # a top bound past xi+2 gives the same lower tables
        for g in (THETA, K4_DOUBLED, Multigraph(2, THETA.edges + ((0, 0),))):
            xi = cyclomatic_number(g)
            assert with_directions(per_bound(kochol_tables(g, xi + 4), xi + 4), g.edge_count) == {
                n: kochol_table_at(g, n) for n in range(1, xi + 5)
            }

    @pytest.mark.parametrize("g, top", [(dipole(2), 129), (THETA, 65)])
    def test_tree_sums_reaching_128(self, g, top):
        # the largest tree value is exactly 128, which int8 cannot hold: the
        # scan must widen, or the flows at x = +-128 get the wrong sign
        tables = with_directions(per_bound(kochol_tables(g, top), top), g.edge_count)
        assert [tables[n] for n in (top - 1, top)] == [kochol_table_at(g, n) for n in (top - 1, top)]

    def test_sum_identity_across_range(self):
        # f = sum_o P_o with each P_o recounted by the pure-Python route
        for g in (dipole(4), K4_DOUBLED):
            r = flow_analysis(g)
            tc = enumerate_totally_cyclic_orientations(g)
            tables = with_directions(per_bound(r.kochol, r.xi + 2), g.edge_count)
            for n in range(1, r.xi + 3):
                assert sum(positive_flow_count(g, as_direction(o, g.edge_count), n) for o in tc) == r.f_star.value(n)
                assert tables[n] == kochol_table_at(g, n)


class TestClosedForms:
    # values at n = 2 with closed forms that share no code with the scans
    def test_f2_counts_eulerian_orientations(self, one_scan_tables):
        for name, g, tables in one_scan_tables:
            eulerian = 0
            for o in enumerate_totally_cyclic_orientations(g):
                balance = [0] * g.vertex_count
                for (u, v), bit in zip(g.edges, as_direction(o, g.edge_count)):
                    tail, head = (v, u) if bit else (u, v)
                    balance[tail] += 1
                    balance[head] -= 1
                eulerian += not any(balance)
            assert sum(tables[2].values()) == eulerian, name

    def test_phi2_is_one_exactly_when_every_degree_is_even(self, one_scan_tables):
        for name, g, _ in one_scan_tables:
            degree = [0] * g.vertex_count
            for u, v in g.edges:
                degree[u] += 1
                degree[v] += 1
            assert modular_flow_count(g, 2) == all(d % 2 == 0 for d in degree), name


class TestPairKernel:
    # `_kept_pairs` keeps 0 < |s| < top by one unsigned compare of |s| - 1
    @pytest.mark.parametrize("dtype, top", [(np.int8, 100), (np.int8, 127), (np.int16, 1000), (np.int16, 32767)])
    def test_range_test_at_its_edges(self, dtype, top):
        low = int(np.iinfo(dtype).min)  # -128 in int8: its abs wraps to itself
        sums = [0, 1, -1, top - 1, 1 - top, top, -top, low]
        a = np.array([sums], dtype)  # one row: combination i of half a sums to sums[i]
        (start, first, ok, peak), = flows._kept_pairs(a, np.zeros((1, 1), dtype), top)
        kept = [0 < abs(s) < top for s in sums]
        assert start == first == 0 and ok[:, 0].tolist() == kept
        assert peak[ok].tolist() == [abs(s) - 1 for s, k in zip(sums, kept) if k]

    def test_a_pair_is_kept_only_when_every_row_passes(self):
        a = np.array([[1, 2, -3, 0], [0, 4, 1, -2]], np.int8)
        b = np.array([[0, -2, 1], [1, -1, 3]], np.int8)
        (_, _, ok, peak), = flows._kept_pairs(a, b, 4)
        sums = a[:, :, None] + b[:, None, :]  # row, i, j
        passes = ((sums != 0) & (np.abs(sums) < 4)).all(axis=0)
        assert ok.tolist() == passes.tolist() and passes.any()
        assert peak[ok].tolist() == (np.abs(sums).max(axis=0)[passes] - 1).tolist()

    @pytest.mark.parametrize(
        "g, block",
        [
            (complete_graph(4), 100),
            # three combinations of half a per block of the integral scan
            (complete_graph(4), 3 * integral_halves(complete_graph(4), 5)[2]),
            (complete_graph(5), 3 * 1372),
            # one combination of half a per block: the same codes recur
            # across 1,666 blocks, which the running table folds together
            (complete_graph(5), integral_halves(complete_graph(5), 8)[2]),
        ],
    )
    def test_any_block_size_gives_the_same_counts(self, monkeypatch, g, block):
        # the block size bounds memory only: several blocks, a partial last
        # one included, give the default block's tables and counts
        xi = cyclomatic_number(g)
        tables = kochol_tables(g, xi + 2)
        counts = [modular_flow_count(g, n) for n in range(1, xi + 3)]
        scans, kept = [], flows._kept_pairs

        def recorded(a, b, top):
            scans.append([])
            for start, first, ok, peak in kept(a, b, top):
                scans[-1].append(ok.shape[0])
                yield start, first, ok, peak

        monkeypatch.setattr(flows, "_PAIR_BLOCK", block)
        monkeypatch.setattr(flows, "_kept_pairs", recorded)
        blocked = kochol_tables(g, xi + 2)
        assert blocked == tables
        assert list(blocked) == list(tables)
        assert len(scans[0]) > 1  # the integral scan
        assert [modular_flow_count(g, n) for n in range(1, xi + 3)] == counts
        assert any(len(heights) > 1 and heights[-1] < heights[0] for heights in scans)

    @pytest.mark.parametrize("g", [complete_graph(5), PETERSEN, K4_DOUBLED, THETA], ids=["K5", "petersen", "K4_doubled", "theta"])
    def test_tiles_of_half_b_give_the_same_counts(self, monkeypatch, g):
        # a block narrower than half b pairs one combination of half a with
        # a tile of half b, a partial last tile included
        xi = cyclomatic_number(g)
        tables = kochol_tables(g, xi + 2)
        counts = [modular_flow_count(g, n) for n in range(1, xi + 3)]
        firsts, kept = [], flows._kept_pairs

        def recorded(a, b, top):
            for start, first, ok, peak in kept(a, b, top):
                firsts.append(first)
                assert ok.size <= flows._PAIR_BLOCK
                yield start, first, ok, peak

        monkeypatch.setattr(flows, "_kept_pairs", recorded)
        monkeypatch.setattr(flows, "_PAIR_BLOCK", integral_halves(g, xi + 2)[2] * 2 // 5)
        blocked = kochol_tables(g, xi + 2)
        assert list(blocked.items()) == list(tables.items())
        assert max(firsts) > 0
        firsts.clear()
        modular = scan_halves(g, range(1, xi + 2), lambda s: s % (xi + 2) != 0)[2]
        monkeypatch.setattr(flows, "_PAIR_BLOCK", modular * 2 // 5)
        assert [modular_flow_count(g, n) for n in range(1, xi + 3)] == counts
        assert max(firsts) > 0


BOWTIE = Multigraph(5, ((0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)))
OCTAHEDRON = Multigraph(6, tuple(e for e in complete_graph(6).edges if e not in ((0, 1), (2, 3), (4, 5))))


def traced_peak(scan, *args) -> int:
    """The tracemalloc peak, in bytes, of one call of `scan`."""
    tracemalloc.start()
    try:
        scan(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestScanMemory:
    # one scan holds its narrow halves, one block's arrays and one running
    # table of codes, whatever xi and the share of pairs kept
    def test_k5_scan_holds_one_block(self):
        # a block of 2^16 pairs holds about 2 MB with every pair kept; a
        # block sized by its int8 grid alone takes about 11 MB here
        assert traced_peak(kochol_tables, complete_graph(5), 8) < 4_000_000

    def test_a_wide_half_b_is_scanned_in_tiles(self, monkeypatch):
        # at top 300, half b of K4 holds 133,653 combinations, two blocks'
        # worth: the pair scan adds one block's arrays to the halves it
        # reads, where one combination of half a against all of half b
        # added about 4.8 MB; and the scan starts holding only the codes,
        # levels and shared sums, where the dead halves and the positive
        # mask held about 4.0 MB
        held, kept = [], flows._kept_pairs

        def recorded(a, b, top):
            assert b.shape[1] > 2 * flows._PAIR_BLOCK
            held.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return kept(a, b, top)

        monkeypatch.setattr(flows, "_kept_pairs", recorded)
        assert traced_peak(kochol_tables, complete_graph(4), 300) - held[0] < 3_000_000
        assert held[0] < 3_000_000

    def test_octahedron_scan_at_the_xi_cap(self):
        # xi = 7, the largest scan the caps admit: int64 halves, or every
        # block's codes held to the end, take about 16 MB here
        assert cyclomatic_number(OCTAHEDRON) == caps.FLOW_XI_CAP
        assert traced_peak(kochol_tables, OCTAHEDRON, 9) < 6_000_000

    def test_block_tables_fold_into_one_running_table(self, monkeypatch):
        # with one combination of half a per block, no fold holds more than
        # three times the distinct codes (twice the last fold, plus one
        # block's), however many blocks there are
        tables = kochol_tables(complete_graph(5), 8)
        folds, merged = [], flows._merged

        def recorded(codes, counts):
            found, total = merged(codes, counts)
            folds.append((sum(map(len, codes)), len(found), int(total.sum())))
            return found, total

        monkeypatch.setattr(flows, "_PAIR_BLOCK", integral_halves(complete_graph(5), 8)[2])
        monkeypatch.setattr(flows, "_merged", recorded)
        blocked = kochol_tables(complete_graph(5), 8)
        assert list(blocked.items()) == list(tables.items())
        distinct = folds[-1][1]
        assert len(folds) > 1
        assert all(held <= 3 * distinct for held, _, _ in folds)
        # a fold keeps every count: the running table only grows
        assert [kept for _, _, kept in folds] == sorted(kept for _, _, kept in folds)



class TestLocalRows:
    # a class row whose nonzero entries all lie in one half is tested once
    # per combination of that half, before any pair is formed
    def test_petersen_scans_fewer_rows_and_pairs(self, monkeypatch):
        calls = recorded_pair_scans(monkeypatch)
        kochol_tables(PETERSEN, 8)
        (rows, pairs, _, _), = calls
        # a scan without the filter tests all 9 class rows on half of the
        # 14^3 x 14^3 pairs
        assert len(PETERSEN.cycle_space[2]) == 9
        assert rows < 9 and pairs < 14**6 // 2
        shared, kept_a, kept_b = integral_halves(PETERSEN, 8)
        assert (rows, pairs) == (shared, kept_a * kept_b)

    def test_local_rows_never_reach_the_pair_kernel(self, monkeypatch):
        # a row the pair kernel sees has nonzero sums in both halves, so it
        # depends on both; and it sees as many rows as the halves share
        calls = recorded_pair_scans(monkeypatch)
        classes = chain.from_iterable(connected_graph_classes(5))
        graphs = [g for g in classes if g.is_bridgeless and cyclomatic_number(g)]
        for g in graphs + [complete_graph(5), PETERSEN, K4_DOUBLED, BOWTIE]:
            calls.clear()
            top = cyclomatic_number(g) + 2
            kochol_tables(g, top)
            (rows, _, a, b), = calls
            assert rows == integral_halves(g, top)[0]
            assert (a != 0).any(axis=1).all() and (b != 0).any(axis=1).all()

    @pytest.mark.parametrize(
        "g",
        [
            cycle_graph(3),  # xi = 1: half a has no coordinate
            BOWTIE,  # two triangles at a vertex: every row is local
            Multigraph(3, cycle_graph(3).edges + ((1, 1),)),  # a loop: a coordinate on no row
            Multigraph(2, ((0, 0), (0, 1))),  # a bridge: a zero row
        ],
    )
    def test_edge_cases_keep_their_tables_and_counts(self, monkeypatch, g):
        xi = cyclomatic_number(g)
        calls = recorded_pair_scans(monkeypatch)
        tables = with_directions(per_bound(kochol_tables(g, xi + 2), xi + 2), g.edge_count)
        oracle = {n: kochol_table_at(g, n) for n in range(1, xi + 3)}
        assert tables == oracle
        assert [list(t) for t in tables.values()] == [list(t) for t in oracle.values()]
        assert [modular_flow_count(g, n) for n in range(1, xi + 4)] == [
            modular_flow_count_dense(g, n) for n in range(1, xi + 4)
        ]
        # no row reaches the pair kernel; a bridge's zero row leaves half a
        # with no combination, so no pair is tested either
        assert calls and all(rows == 0 for rows, *_ in calls)
        assert g.is_bridgeless or all(pairs == 0 for _, pairs, *_ in calls)
