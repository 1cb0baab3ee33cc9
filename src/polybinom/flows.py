"""Nowhere-zero flow counting, flow polynomials, and their split audits.

Flows are parametrized by the cycle space: fix a spanning forest, assign
free values to the cotree edges, and read off the forced tree-edge values
from the fundamental-cycle matrix.  That bounds the modular count at
(n-1)^xi candidates and the integral scan at (2(n-1))^xi, with xi the
cyclomatic number.

The integral scan is the Kochol table: it buckets every nowhere-zero integer
flow by the totally cyclic orientation along which it is strictly positive.
Bucket o at bound n is P_o(n), the interior lattice-point count of an open
flow polytope, so each column is a polynomial of degree <= xi, and the
integral flow polynomial is their sum, f(n) = sum_o P_o(n).

The reference orientation of every edge is its stored (tail, head) pair, so
re-ordering pairs is exactly a change of reference orientation; counts must
not depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from . import caps
from .decompositions import (
    InequalityReport,
    InequalityRow,
    SymmetricSplit,
    check_partial_sum_inequalities,
    chain_report,
    nonnegativity_report,
    symmetric_split,
)
from .errors import CapExceeded, NotApplicable
from .graphs import (
    Multigraph,
    cyclomatic_number,
    enumerate_totally_cyclic_orientations,
    in_degree_sequence_count,
)
from .polynomials import Polynomial, StarVector, inverse_transform, star_from_values

__all__ = [
    "FlowResult",
    "flow_analysis",
    "kochol_orientation_counts",
    "modular_flow_count",
]

_CHUNK = 1 << 20


def _spanning_forest(g: Multigraph) -> tuple[list[int], list[int], list[int], list[int]]:
    """BFS forest in edge-index order: (tree edges, cotree edges, parent, parent_edge)."""
    d = g.vertex_count
    incident: list[list[tuple[int, int]]] = [[] for _ in range(d)]
    for i, (u, v) in enumerate(g.edges):
        if u != v:
            incident[u].append((i, v))
            incident[v].append((i, u))
    parent = [-1] * d
    parent_edge = [-1] * d
    visited = [False] * d
    tree: list[int] = []
    from collections import deque

    for root in range(d):
        if visited[root]:
            continue
        visited[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for ei, w in incident[v]:
                if not visited[w]:
                    visited[w] = True
                    parent[w] = v
                    parent_edge[w] = ei
                    tree.append(ei)
                    queue.append(w)
    tree_set = set(tree)
    cotree = [i for i in range(g.edge_count) if i not in tree_set]
    return tree, cotree, parent, parent_edge


def _depths(d: int, parent: Sequence[int]) -> list[int]:
    depth = [0] * d
    for v in range(d):
        w, steps = v, 0
        while parent[w] != -1:
            w = parent[w]
            steps += 1
        depth[v] = steps
    return depth


def _cycle_matrix(g: Multigraph) -> tuple[list[int], list[int], np.ndarray]:
    """Tree/cotree split plus the signed fundamental-cycle matrix M.

    M has one row per tree edge, one column per cotree edge; the forced tree
    value is M @ (cotree values).  The cycle of a cotree edge (u, v) runs
    along the edge u -> v and back through the forest from v to u; a tree
    edge picks up +1 when the return path traverses it tail-to-head.
    """
    tree, cotree, parent, parent_edge = _spanning_forest(g)
    tree_pos = {e: i for i, e in enumerate(tree)}
    depth = _depths(g.vertex_count, parent)
    M = np.zeros((len(tree), len(cotree)), dtype=np.int64)
    for col, ce in enumerate(cotree):
        u, v = g.edges[ce]
        if u == v:
            continue  # a loop's cycle is the edge itself
        x, y = v, u  # walk the return path v ... u
        while x != y:
            if depth[x] >= depth[y]:
                t = parent_edge[x]
                p = parent[x]
                sign = 1 if g.edges[t] == (x, p) else -1
                M[tree_pos[t], col] += sign
                x = p
            else:
                t = parent_edge[y]
                p = parent[y]
                # traversed against the climb direction on the u-side
                sign = 1 if g.edges[t] == (p, y) else -1
                M[tree_pos[t], col] += sign
                y = p
    return tree, cotree, M


def _candidate_chunks(value_sets: list[np.ndarray]) -> Iterator[np.ndarray]:
    """Cartesian product of per-coordinate value sets, yielded in chunks."""
    xi = len(value_sets)
    total = 1
    for vs in value_sets:
        total *= len(vs)
    if total > caps.FLOW_CANDIDATE_BUDGET:
        raise CapExceeded(f"flow enumeration needs {total} candidates (budget {caps.FLOW_CANDIDATE_BUDGET})")
    if xi == 0:
        yield np.zeros((1, 0), dtype=np.int64)
        return
    if total <= _CHUNK:
        grids = np.meshgrid(*value_sets, indexing="ij")
        yield np.stack([grid.ravel() for grid in grids], axis=1).astype(np.int64)
        return
    for head in value_sets[0]:
        for chunk in _candidate_chunks(value_sets[1:]):
            block = np.empty((chunk.shape[0], xi), dtype=np.int64)
            block[:, 0] = head
            block[:, 1:] = chunk
            yield block


def _check_caps(g: Multigraph, n: int) -> int:
    if n < 1:
        raise ValueError("flow modulus/bound must be a positive integer")
    xi = cyclomatic_number(g)
    if xi > caps.FLOW_XI_CAP:
        raise CapExceeded(f"cyclomatic number {xi} exceeds cap {caps.FLOW_XI_CAP}")
    return xi


def modular_flow_count(g: Multigraph, n: int) -> int:
    """Nowhere-zero flows with values in Z_n under the reference orientation."""
    _check_caps(g, n)
    if g.edge_count == 0:
        return 1
    if n == 1:
        return 0
    tree, cotree, M = _cycle_matrix(g)
    values = [np.arange(1, n, dtype=np.int64) for _ in cotree]
    total = 0
    for cand in _candidate_chunks(values):
        if tree:
            forced = (cand @ M.T) % n
            ok = (forced != 0).all(axis=1)
            total += int(ok.sum())
        else:
            total += cand.shape[0]
    return total


def kochol_orientation_counts(g: Multigraph, n: int) -> dict[tuple[int, ...], int]:
    """Integer flows 0 < |x| < n bucketed by the orientation they traverse.

    Every nowhere-zero integer flow is strictly positive along exactly one
    orientation (flip each edge carrying a negative value), so the bucket of
    a direction vector is precisely the count of its strictly positive flows
    bounded by n, and the buckets sum to the integral flow count f(n).
    """
    _check_caps(g, n)
    m = g.edge_count
    if m == 0 or n == 1:
        return {}
    tree, cotree, M = _cycle_matrix(g)
    span = np.concatenate([np.arange(-(n - 1), 0), np.arange(1, n)]).astype(np.int64)
    values = [span for _ in cotree]
    buckets: dict[tuple[int, ...], int] = {}
    for cand in _candidate_chunks(values):
        if tree:
            forced = cand @ M.T
            ok = ((forced != 0) & (np.abs(forced) < n)).all(axis=1)
            cand, forced = cand[ok], forced[ok]
        else:
            forced = np.zeros((cand.shape[0], 0), dtype=np.int64)
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


# ---------------------------------------------------------------------------
# flow polynomials and their audits


@dataclass(frozen=True)
class FlowResult:
    graph: Multigraph
    xi: int
    phi: Polynomial
    f: Polynomial
    phi_star: StarVector
    f_star: StarVector
    phi_split: SymmetricSplit
    f_split: SymmetricSplit
    indegree_sequence_count: int
    tc_orientation_set: frozenset[tuple[int, ...]]
    audits: tuple[InequalityReport, ...] = field(compare=False)
    kochol: dict[int, dict[tuple[int, ...], int]] = field(compare=False)  # n = 1..xi+2
    constants_match_oracle: bool = True

    @property
    def tc_orientation_count(self) -> int:
        return len(self.tc_orientation_set)

    def to_json(self) -> dict:
        return {
            "graph": self.graph.to_json(),
            "xi": self.xi,
            "phi": self.phi.to_json(),
            "f": self.f.to_json(),
            "phi_star": self.phi_star.to_json(),
            "f_star": self.f_star.to_json(),
            "alpha": list(self.phi_split.p),
            "beta": list(self.phi_split.q),
            "c": list(self.f_split.p),
            "d": list(self.f_split.q),
            "totally_cyclic_orientations": self.tc_orientation_count,
            "indegree_sequences": self.indegree_sequence_count,
            "constants_match_oracle": self.constants_match_oracle,
            "audits": [r.to_json() for r in self.audits],
        }


def _tagged(report: InequalityReport, vector: str) -> InequalityReport:
    """Distinguish the same family audited on two different vectors."""
    return InequalityReport(
        f"{report.family}[{vector}]", report.relation, report.parameters, report.rows
    )


def _entrywise_dominance(upper: Sequence[int], lower: Sequence[int], family: str, hi: int):
    rows = tuple(
        InequalityRow(j, upper[j], lower[j] if j < len(lower) else 0,
                      upper[j] >= (lower[j] if j < len(lower) else 0))
        for j in range(1, hi + 1)
    )
    return InequalityReport(family, ">=", {"range": f"1..{hi}"}, rows)


def flow_analysis(g: Multigraph) -> FlowResult:
    """Both flow polynomials with their star vectors, splits, and audits.

    Preconditions: no bridges (a bridge forces the zero polynomial) and
    xi >= 1; violations raise NotApplicable with a machine-readable reason.
    An xi above `caps.FLOW_XI_CAP` raises CapExceeded from the first count.
    The star vectors come from the counts at n = 1..xi+2, the last one an
    overdetermination node.  The integral count f(n) is the sum of the Kochol
    table at n; the tables are kept on the result, one column P_o per
    orientation, each a polynomial of degree <= xi.
    """
    if g.bridges():
        raise NotApplicable("bridge", "a bridge admits no nowhere-zero flow")
    xi = cyclomatic_number(g)
    if xi == 0:
        raise NotApplicable("xi=0", "no cycles; both flow polynomials are constant 1")

    phi_star = star_from_values([modular_flow_count(g, n) for n in range(1, xi + 3)], xi, start=1)
    kochol = {n: kochol_orientation_counts(g, n) for n in range(1, xi + 3)}
    f_star = star_from_values([sum(table.values()) for table in kochol.values()], xi, start=1)
    phi = inverse_transform(phi_star)
    if not phi.is_integral:
        raise ValueError(f"flow polynomial has non-integer coefficients: {phi.pretty()}")
    # f is a sum of Ehrhart polynomials of open polytopes: integer-valued but
    # with rational monomial coefficients in general
    f = inverse_transform(f_star)
    phi_split = symmetric_split(phi_star.entries, xi + 1)
    f_split = symmetric_split(f_star.entries, xi + 1)

    tc = enumerate_totally_cyclic_orientations(g)
    tc_count = len(tc)
    indeg_count = in_degree_sequence_count(g, tc)
    constants_ok = (
        phi_split.p[0] == indeg_count
        and phi_split.q[0] == indeg_count
        and f_split.p[0] == tc_count
        and f_split.q[0] == tc_count
        and phi_star.entries[xi + 1] == indeg_count
        and f_star.entries[xi + 1] == tc_count
    )
    audits = (
        nonnegativity_report(phi_star.entries, "modular_star_nonnegative"),
        nonnegativity_report(f_star.entries, "integral_star_nonnegative"),
        chain_report(phi_split.p, xi, "modular_chain_alpha"),
        chain_report(phi_split.q, xi - 1, "modular_chain_beta"),
        chain_report(f_split.p, xi, "integral_chain_c"),
        chain_report(f_split.q, xi - 1, "integral_chain_d"),
        nonnegativity_report(phi_split.p, "modular_alpha_positive", minimum=1),
        nonnegativity_report(phi_split.q, "modular_beta_positive", minimum=1),
        nonnegativity_report(f_split.p, "integral_c_positive", minimum=1),
        nonnegativity_report(f_split.q, "integral_d_positive", minimum=1),
        _entrywise_dominance(phi_split.p, phi_split.q, "modular_alpha_ge_beta", xi),
        _entrywise_dominance(f_split.p, f_split.q, "integral_c_ge_d", xi),
        _tagged(check_partial_sum_inequalities(phi_star.entries, xi, "flow_tail_sums_base"), "phi"),
        _tagged(check_partial_sum_inequalities(phi_star.entries, xi, "flow_tail_sums_shifted"), "phi"),
        _tagged(check_partial_sum_inequalities(f_star.entries, xi, "flow_tail_sums_base"), "f"),
        _tagged(check_partial_sum_inequalities(f_star.entries, xi, "flow_tail_sums_shifted"), "f"),
        check_partial_sum_inequalities(phi_star.entries, xi, "flow_mirror"),
    )

    return FlowResult(
        g, xi, phi, f, phi_star, f_star, phi_split, f_split,
        indeg_count, frozenset(tc),
        audits, kochol, constants_ok,
    )
