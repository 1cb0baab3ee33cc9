"""Multigraphs, structural queries, and exhaustive orientation enumeration.

Graphs are immutable: a vertex count plus an ordered tuple of endpoint
pairs.  Pairs are unordered as edges but their stored order is meaningful
as the reference orientation for flow computations (tail = first, head =
second), so it is preserved verbatim from input.

A graph is traversed once: one depth-first search, cached on the graph,
counts its components, finds its bridges and records a spanning forest,
and the cycle space that the flow scans read is built from that forest, as
is the split of its cotree coordinates that they share.

Acyclic and totally cyclic orientations are enumerated by backtracking
searches with no dead ends, so their cost follows their output: at most m
steps per orientation.  The acyclic search lists one orientation per
reversal pair, the one in which edge 0 points as stored, keeps its
reachability masks packed in one integer, and hands each orientation over
as the order it induces, a tuple of ``above`` bitmasks already transitively
closed, which the order-star walks of `posets` read as they are; the
totally cyclic one fixes edges in a mixed graph that stays strongly
connected (Boesch & Tindell 1980), on the ends of non-loop edges alone.  A
totally cyclic orientation is one integer mask: bit e is set when edge e is
reversed, clear when it keeps its stored (tail, head).  The in-degree oracle and the Kochol tables of `flows`
read the same masks.

Graph certificates, which deduplicate the graph families, come from one
individualization-refinement search over bitmask cells instead of trying
every relabeling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

from . import caps
from .errors import CapExceeded, InputFormatError

__all__ = [
    "Multigraph",
    "acyclic_orientations_up_to_reversal",
    "complete_graph",
    "cycle_graph",
    "cyclomatic_number",
    "dipole",
    "enumerate_totally_cyclic_orientations",
    "format_graph_file",
    "graph_certificate",
    "in_degree_sequence_count",
    "parse_graph_file",
    "path_graph",
]


@dataclass(frozen=True)
class Multigraph:
    """Labeled multigraph; loops (u == u) and parallel edges allowed."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        edges = tuple((int(u), int(v)) for u, v in self.edges)
        for u, v in edges:
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range for {self.vertex_count} vertices")
        object.__setattr__(self, "edges", edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def has_loops(self) -> bool:
        return any(u == v for u, v in self.edges)

    @cached_property
    def _search(self) -> tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """The one traversal of the graph: (root count, bridges, parent of
        each vertex, tree edge into each vertex), -1 at the roots.

        One iterative depth-first search with low-links (Tarjan 1974), O(n + m),
        rooted at each unvisited vertex in index order, so its roots count the
        components and its tree edges span a forest.  A tree edge is a bridge
        iff no edge from below it reaches its parent or higher.  Edges are told
        apart by index, so a parallel twin of a tree edge is a back edge and
        neither is a bridge; loops are skipped, and a vertex with only loops is
        a component of its own.
        """
        d = self.vertex_count
        incident: list[list[tuple[int, int]]] = [[] for _ in range(d)]
        for i, (u, v) in enumerate(self.edges):
            if u != v:
                incident[u].append((v, i))
                incident[v].append((u, i))
        entry = [-1] * d  # discovery time
        low = [0] * d  # the earliest discovery time reached from the subtree
        parent = [-1] * d
        via = [-1] * d  # the tree edge into each vertex
        clock = roots = 0
        out = []
        for root in range(d):
            if entry[root] >= 0:
                continue
            roots += 1
            entry[root] = low[root] = clock
            clock += 1
            stack = [(root, iter(incident[root]))]  # vertex, edges left
            while stack:
                v, left = stack[-1]
                for w, i in left:
                    if i == via[v]:
                        continue
                    if entry[w] < 0:
                        entry[w] = low[w] = clock
                        clock += 1
                        parent[w], via[w] = v, i
                        stack.append((w, iter(incident[w])))
                        break
                    if entry[w] < low[v]:
                        low[v] = entry[w]
                else:
                    stack.pop()
                    p = parent[v]
                    if p >= 0:
                        if low[v] < low[p]:
                            low[p] = low[v]
                        if low[v] > entry[p]:
                            out.append(via[v])
        return roots, tuple(sorted(out)), tuple(parent), tuple(via)

    @property
    def component_count(self) -> int:
        """The roots of the search; loops join no two vertices."""
        return self._search[0]

    @property
    def is_connected(self) -> bool:
        return self.component_count <= 1

    @property
    def bridges(self) -> tuple[int, ...]:
        """Edge indices whose deletion increases the component count, read off
        the search.  The graph is searched once: the survey, `flow_analysis`,
        the totally cyclic search and every cap check read the same result."""
        return self._search[1]

    @cached_property
    def cycle_space(self) -> tuple[
        tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...], tuple[int, ...], tuple[bool, ...]
    ]:
        """The fundamental cycles of the search's forest, by series class:
        (tree edges, cotree edges, class rows, class of each tree edge, True
        where the tree edge's row is the negated class row).

        The forced value of tree edge t in a flow is row t of the signed
        fundamental-cycle matrix M times the cotree values.  The cycle of a
        cotree edge (u, v) runs along it from u to v and back through the
        forest from v to u; a tree edge counts +1 where that return path runs
        tail to head.  With R[w] the signed path from w up to its root, the
        column of (u, v) is R[v] - R[u]: the part above the two ends' lowest
        common ancestor cancels, and a loop's column is zero.  Each column
        walks two root paths, so the matrix costs O(xi d).

        Tree edges whose rows agree up to sign are in series: they carry equal
        or opposite values in every flow, so a scan tests one row per class.
        A row is flipped when its first nonzero entry is negative, and the
        class rows are the distinct flipped rows in sorted order; a bridge's
        row is zero.  A graph of cyclomatic number xi has at most 3 xi series
        classes besides that one, however many edges it has.  Computed once per graph: every
        flow count of `flow_analysis` and its Kochol scan read it.
        """
        _, _, parent, via = self._search
        tree = sorted(e for e in via if e >= 0)
        in_tree = set(tree)
        cotree = [e for e in range(self.edge_count) if e not in in_tree]
        position = {e: r for r, e in enumerate(tree)}
        matrix = [[0] * len(cotree) for _ in tree]
        for col, e in enumerate(cotree):
            for w, sign in zip(self.edges[e], (-1, 1)):  # -R[u], then +R[v]
                while via[w] >= 0:
                    t = via[w]
                    matrix[position[t]][col] += sign if self.edges[t][0] == w else -sign
                    w = parent[w]
        flipped = tuple(next((x < 0 for x in row if x), False) for row in matrix)
        rows = [tuple(-x for x in row) if flip else tuple(row) for row, flip in zip(matrix, flipped)]
        classes = sorted(set(rows))
        index = {row: r for r, row in enumerate(classes)}
        return tuple(tree), tuple(cotree), tuple(classes), tuple(index[row] for row in rows), flipped

    @cached_property
    def cotree_split(self) -> tuple[
        tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]
    ]:
        """The split of the cotree coordinates that every flow scan shares:
        (half a, half b, the class rows local to a, those local to b, the
        shared rows), rows numbered as in `cycle_space`.

        A row is local to a half when all its nonzero entries lie in that
        half's coordinates, so the half alone fixes its sum; a zero row, a
        bridge's, is local to half a.  Half a takes xi // 2 coordinates: of
        `itertools.combinations(range(xi), xi // 2)`, the first with the most
        local rows, scored by the rows' supports alone.  Half b takes the
        rest, in increasing order.  Chosen once per graph: the xi + 2 scans of
        `flow_analysis` read the same split.
        """
        _, cotree, rows, _, _ = self.cycle_space
        xi = len(cotree)
        supports = [sum(1 << c for c, x in enumerate(row) if x) for row in rows]

        def local_rows(cols: tuple[int, ...]) -> int:
            inside = sum(1 << c for c in cols)
            return sum(1 for s in supports if not s & inside or not s & ~inside)

        cols_a = max(combinations(range(xi), xi // 2), key=local_rows)
        inside = sum(1 << c for c in cols_a)
        return (
            cols_a,
            tuple(c for c in range(xi) if c not in cols_a),
            tuple(r for r, s in enumerate(supports) if not s & ~inside),
            tuple(r for r, s in enumerate(supports) if s and not s & inside),
            tuple(r for r, s in enumerate(supports) if s & inside and s & ~inside),
        )

    @property
    def is_bridgeless(self) -> bool:
        return not self.bridges

    def to_json(self) -> dict:
        return {"vertices": self.vertex_count, "edges": [list(e) for e in self.edges]}


def complete_graph(d: int) -> Multigraph:
    return Multigraph(d, tuple((u, v) for u in range(d) for v in range(u + 1, d)))


def path_graph(d: int) -> Multigraph:
    return Multigraph(d, tuple((i, i + 1) for i in range(d - 1)))


def cycle_graph(d: int) -> Multigraph:
    return Multigraph(d, tuple((i, (i + 1) % d) for i in range(d)))


def dipole(k: int) -> Multigraph:
    """Two vertices joined by k parallel edges."""
    return Multigraph(2, tuple((0, 1) for _ in range(k)))


def cyclomatic_number(g: Multigraph) -> int:
    """|E| - |V| + number of components: the cycle-space dimension."""
    return g.edge_count - g.vertex_count + g.component_count


# ---------------------------------------------------------------------------
# orientations


def acyclic_orientations_up_to_reversal(g: Multigraph) -> list[tuple[int, ...]]:
    """One acyclic orientation per reversal pair, each as its order: those in
    which edge 0 points as stored, tail -> head.

    Reversing every edge maps the acyclic orientations onto themselves, the
    reverse of o inducing the dual of the order of o, and for m >= 1 no
    orientation is its own reverse.  So fixing edge 0 keeps exactly one of
    each pair, and a graph with m >= 1 edges has twice as many acyclic
    orientations as are listed.  An edgeless graph has one, the empty
    orientation, which is listed.

    A backtracking search over the edges in index order keeps, per vertex,
    the bitmask of the vertices it reaches, all d of them packed into one
    integer: field v, bits v*d to v*d + d-1, holds what v reaches.  Edge e
    may point t -> h only if h does not already reach t; every vertex that
    reaches t then gains all that h reaches.  Shifting the state right by t
    and masking one bit per field (``col``) leaves bit v*d set exactly where
    v reaches t, and multiplying that by h's field, which is below 2^d, lays
    a copy of it into each such field with no carry between fields, so one
    OR closes the arc.  An acyclic partial orientation always extends (an
    edge whose ends reach each other would close a cycle already), so the
    search has no dead ends and its cost follows the output, at most m steps
    per listed orientation.  Callers cap the full count, |chi_G(-1)|
    (Stanley 1973), before they search.

    At a leaf the reachability masks are the transitive closure of the
    orientation, so it is returned as the tuple ``above[v] = reach[v]`` minus
    v, each field cut out by a precomputed (shift, mask) pair: the ``above``
    masks of the strict order it induces on the vertices (``Poset(d, above)``
    accepts every one), in search order.  The order determines the
    orientation (the ends of every edge are comparable), so no order is
    listed twice.

    A loop is itself a directed cycle, so a graph with loops has none.
    Antiparallel twins form a 2-cycle, so parallel edges must agree in
    direction; the reachability test enforces that, twins of edge 0
    included.
    """
    if g.has_loops:
        return []
    edges, m, d = g.edges, g.edge_count, g.vertex_count
    full = (1 << d) - 1
    col = sum(1 << v * d for v in range(d))
    reach = sum(1 << v * d + v for v in range(d))
    if m:
        u, v = edges[0]
        reach |= 1 << u * d + v
    # the two arcs t -> h of each edge, as (t, the offset of h's field)
    arcs = [((u, v * d), (v, u * d)) for u, v in edges]
    unpack = [(v * d, full ^ 1 << v) for v in range(d)]
    orders = []
    stack = [(min(m, 1), reach)]
    while stack:
        e, reach = stack.pop()
        if e == m:
            orders.append(tuple([reach >> shift & mask for shift, mask in unpack]))
            continue
        e += 1
        for t, field in arcs[e - 1]:
            if not reach >> field + t & 1:
                stack.append((e, reach | (reach >> t & col) * (reach >> field & full)))
    return orders


def enumerate_totally_cyclic_orientations(g: Multigraph) -> list[int]:
    """The orientations whose components are all strongly connected, as
    masks in increasing order: bit e of a mask is set when edge e is
    reversed, 0 keeping its stored (tail, head).

    That is equivalent to every edge lying on a coherently oriented cycle: a
    strongly connected component closes a cycle through each of its arcs,
    and an arc on a coherent cycle forces mutual reachability along it.  A
    bridge lies on no cycle, so a graph with one has none.

    Otherwise a backtracking search starts from every non-loop edge as two
    opposite arcs, so every component is strongly connected, and fixes the
    edges from m-1 down to 0, bit 0 first, which lists the masks in
    increasing order.  Fixing an edge as t -> h drops the arc h -> t; the
    components stay strongly connected iff h still reaches t, which a
    reachability search answers unless a parallel h -> t arc remains.  A
    bridgeless, strongly connected mixed graph always has a strongly
    connected orientation (Boesch & Tindell, Amer. Math. Monthly 1980), so
    every kept prefix extends: the search has no dead ends and costs at most
    m steps per orientation.  For the same reason, when one direction of an
    edge fails, the other holds without a test.  Loops are coherently cyclic
    in either direction, and both directions are counted as distinct
    orientations.
    """
    m = g.edge_count
    if m > caps.ORIENTATION_EDGE_CAP:
        raise CapExceeded(
            f"orientation enumeration needs 2^{m} candidates; cap is m <= {caps.ORIENTATION_EDGE_CAP}"
        )
    if g.bridges:
        return []
    # for each edge, the other edges joining the same two vertices
    twins = [
        [f for f in range(m) if f != e and {*g.edges[f]} == {u, v}] for e, (u, v) in enumerate(g.edges)
    ]
    # arcs join only the ends of non-loop edges, so the search is over those
    # alone and a step copies one mask per end; a loop never reads its labels
    index = _end_index(g)
    edges = [(index[u], index[v]) if u != v else (-1, -1) for u, v in g.edges]
    adjacency = [0] * len(index)
    for u, v in edges:
        if u != v:
            adjacency[u] |= 1 << v
            adjacency[v] |= 1 << u
    out = []
    stack = [(m, 0, adjacency)]
    while stack:
        e, mask, adjacency = stack.pop()
        if e == 0:
            out.append(mask)
            continue
        e -= 1
        u, v = edges[e]
        failed = False
        # bit 0 is pushed last, so it is searched first
        for bit, t, h in ((1, v, u), (0, u, v)):
            # a parallel h -> t arc remains while a twin is unfixed or points that way
            if t == h or twins[e] and any(f < e or edges[f][mask >> f & 1] == h for f in twins[e]):
                stack.append((e, mask | bit << e, adjacency))
                continue
            row = adjacency[h] & ~(1 << t)
            # no dead ends: when the first direction failed, the second holds
            if failed or _reaches(h, t, row, adjacency):
                dropped = adjacency.copy()  # a pushed list is never changed
                dropped[h] = row
                stack.append((e, mask | bit << e, dropped))
            else:
                failed = True
    return out


def _reaches(root: int, target: int, first: int, adjacency: list[int]) -> bool:
    """Whether target is reachable from root, whose out-neighbours are the
    mask `first`, along the adjacency masks; stops once target is seen."""
    seen, frontier = 1 << root, first
    while frontier and not frontier >> target & 1:
        seen |= frontier
        step = 0
        while frontier:
            low = frontier & -frontier
            step |= adjacency[low.bit_length() - 1]
            frontier ^= low
        frontier = step & ~seen
    return frontier != 0


def bit_sums(masks: Iterable[int], weights: Sequence[int], start: int = 0) -> list[int]:
    """start plus the sum of weights[i] over the set bits i, for each mask.

    One table per byte of the weights holds the 256 sums of its bits, so a
    mask costs one lookup per byte, however many bits it has set.
    """
    tables = []
    for k in range(0, len(weights), 8):
        sums = [0]
        for w in weights[k:k + 8]:
            sums += [s + w for s in sums]
        tables.append((k, sums))
    return [start + sum([sums[mask >> k & 255] for k, sums in tables]) for mask in masks]


def _end_index(g: Multigraph) -> dict[int, int]:
    """The ends of g's non-loop edges, numbered 0, 1, ... in vertex order."""
    return {w: i for i, w in enumerate(sorted({w for u, v in g.edges if u != v for w in (u, v)}))}


def in_degree_sequence_count(g: Multigraph, masks: Sequence[int]) -> int:
    """Number of distinct vertex-indexed in-degree vectors of the
    orientations, each a mask as `enumerate_totally_cyclic_orientations`
    lists them.

    Only the ends of non-loop edges can change their in-degree (a loop adds
    one to its vertex either way), so a vector is packed over them alone,
    one field of m.bit_length() bits each, which holds any in-degree: the
    stored orientation's code, plus, for each reversed edge (u, v), one at
    u's field less one at v's.  `bit_sums` adds those up a byte of the mask
    at a time, so isolated vertices cost nothing.
    """
    m = g.edge_count
    if any(mask >> m for mask in masks):
        raise ValueError(f"an orientation mask has a bit outside the {m} edges")
    field = {w: 1 << m.bit_length() * i for w, i in _end_index(g).items()}
    stored = sum(field[v] for u, v in g.edges if u != v)
    reversal = [field[u] - field[v] if u != v else 0 for u, v in g.edges]
    return len(set(bit_sums(masks, reversal, stored)))


# ---------------------------------------------------------------------------
# canonical graph certificates (isomorphism dedup of the graph families)


def _graph_invariant(g: Multigraph) -> list[int]:
    """The rank of each vertex's class under iterated 1-neighborhood
    refinement: vertices are first ranked by degree (a loop counts twice),
    then each round by their rank and the sorted ranks of their neighbours
    (loops skipped, parallel edges counted), until a round splits no class.
    Ranks follow the sorted keys, so the ordered classes are an isomorphism
    invariant."""
    n = g.vertex_count
    degree = [0] * n
    adjacent: list[list[int]] = [[] for _ in range(n)]
    for u, v in g.edges:
        degree[u] += 1
        degree[v] += 1
        if u != v:
            adjacent[u].append(v)
            adjacent[v].append(u)
    keys: list = degree
    classes, inv = 0, []
    while True:
        ranks = {k: i for i, k in enumerate(sorted(set(keys)))}
        if len(ranks) == classes:  # the ranks refine the last ones in order, so they are the same
            return inv
        inv = [ranks[k] for k in keys]
        classes = len(ranks)
        if classes == n:
            return inv
        keys = [(inv[v], tuple(sorted([inv[w] for w in adjacent[v]]))) for v in range(n)]


def graph_certificate(g: Multigraph) -> tuple[int, tuple[tuple[int, int], ...]]:
    """``(d, edges)``, equal exactly for isomorphic graphs: the smallest
    sorted edge list, each edge as (i, j) with i <= j, over the relabelings
    that sort the vertices by `_graph_invariant`, each class on a block of
    consecutive slots in class order.

    One individualization-refinement search (McKay, *Practical graph
    isomorphism*, 1981) finds it without trying every such relabeling.  Read
    a relabeled graph as its row-major code: row k is the loop count at slot
    k, then the edge multiplicity from slot k to each later slot, so the
    pairs come in the order a sorted edge list lists them.  Two relabelings
    of one graph have equally many edges, so at the first pair where their
    multiplicities differ, the one with more copies of that pair lists it
    again where the other lists a later pair: the largest code is the
    smallest edge list.

    The search fills the slots in order.  A branch splits the unplaced
    vertices into cells, ordered blocks of the slots left, starting from the
    invariant's classes.  Slot k takes a vertex v of the first cell, and
    every cell is split by its multiplicity to v, largest first, which gives
    v its largest row k: per cell, the count of each multiplicity from the
    largest down.  Only the branches with the largest row so far are kept,
    and tied branches with the same cells are kept once, since the rows to
    come read only the unplaced vertices.  Kept branches agree on every row
    so far, hence on the sizes of their cells; once every cell is one
    vertex, each fixes a relabeling, and the smallest edge list among them
    is the certificate.
    """
    d = g.vertex_count
    loops = [0] * d
    # layers[c - 1][v]: the vertices joined to v by at least c edges
    layers: list[list[int]] = []
    for u, v in g.edges:
        if u == v:
            loops[u] += 1
            continue
        for layer in layers:
            if not layer[u] >> v & 1:
                break
        else:
            layer = [0] * d
            layers.append(layer)
        layer[u] |= 1 << v
        layer[v] |= 1 << u
    # largest c first: a cell less its parts for larger c, masked by layer c,
    # is its part of multiplicity exactly c
    layers.reverse()
    cells = [0] * d
    for v, c in enumerate(_graph_invariant(g)):
        cells[c] |= 1 << v
    branches = {tuple(c for c in cells if c): ()}  # cells -> the vertices placed so far
    while True:
        # kept branches have cells of the same sizes: one shows if all are single vertices
        cells, order = next(iter(branches.items()))
        if len(cells) == d - len(order):
            break
        best, grown = None, {}
        for cells, order in branches.items():
            first, *others = cells
            rest = first
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                row = [loops[v]]
                split = []
                for cell in (first ^ low, *others):
                    for layer in layers:
                        part = cell & layer[v]
                        row.append(part.bit_count())
                        if part:
                            split.append(part)
                            cell ^= part
                    if cell:
                        split.append(cell)
                if best is None or row > best:
                    best, grown = row, {}
                if row == best:
                    grown.setdefault(tuple(split), order + (v,))
        branches = grown
    slot = [0] * d
    edge_lists = []
    for cells, order in branches.items():
        for s, v in enumerate(order + tuple(c.bit_length() - 1 for c in cells)):
            slot[v] = s
        edge_lists.append(sorted(
            (slot[u], slot[v]) if slot[u] <= slot[v] else (slot[v], slot[u]) for u, v in g.edges
        ))
    return (d, tuple(min(edge_lists)))


# ---------------------------------------------------------------------------
# file format: `vertices <n>` then `edge <u> <v>` lines; `#` comments


def parse_graph_file(text: str) -> Multigraph:
    vertex_count: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "vertices":
            if vertex_count is not None:
                raise InputFormatError("duplicate 'vertices' line", lineno)
            if len(fields) != 2 or not fields[1].isdecimal():
                raise InputFormatError("expected 'vertices <n>'", lineno)
            try:
                vertex_count = int(fields[1])
            except ValueError:  # more digits than int() converts
                raise InputFormatError("vertex count is too large", lineno)
        elif fields[0] == "edge":
            if vertex_count is None:
                raise InputFormatError("'edge' before 'vertices'", lineno)
            if len(fields) != 3:
                raise InputFormatError("expected 'edge <u> <v>'", lineno)
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise InputFormatError("edge endpoints must be integers", lineno)
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise InputFormatError(
                    f"endpoint out of range 0..{vertex_count - 1}", lineno
                )
            edges.append((u, v))
        else:
            raise InputFormatError(f"unknown directive {fields[0]!r}", lineno)
    if vertex_count is None:
        raise InputFormatError("missing 'vertices <n>' line")
    return Multigraph(vertex_count, tuple(edges))


def format_graph_file(g: Multigraph) -> str:
    lines = [f"vertices {g.vertex_count}"]
    lines += [f"edge {u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"
