"""Nowhere-zero flow counting, flow polynomials, and their palindromic splits.

Flows are parametrized by the cycle space: fix a spanning forest, assign
free values to the cotree edges, and read off the forced tree-edge values
from the fundamental-cycle matrix.  The forest is the one of the graph's
bridge search, and the matrix, grouped into series classes, is
`Multigraph.cycle_space`, built once per graph: every scan of one instance
reads the same cycle space.  That bounds the modular count at
(n-1)^xi candidates and the integral scan at (2(n-1))^xi, with xi the
cyclomatic number.  No scan builds its candidates: the cotree coordinates
are split in two halves, each half's value combinations carry their partial
tree sums, and pairs of combinations are tested in blocks.  A class row
whose nonzero entries all lie in one half is local to it: that half alone
fixes its sum, so each half first drops the combinations that fail one of
its local rows.  The split is the one with the most local rows,
`Multigraph.cotree_split`, chosen once per graph.  Pairs are tested on the
shared rows only.  One block's buffers are allocated once per scan; each
shared row's sums are added into them, and a pair is kept by one unsigned
compare of its largest |sum| - 1 (which wraps to the largest value at a
zero sum).  The integral scan then reads only its kept pairs again, row by
row.

A scan's memory is bounded by a fixed budget, whatever xi and the share of
pairs kept: the halves are built in the narrowest integer type that holds
their sums, a block's size is set by its worst case in bytes, every pair
kept (`_PAIR_BLOCK`), and the integral scan folds its blocks' counts into
one running table, which holds at most three times the distinct
(orientation, level) codes.

The integral scan is the Kochol table: it buckets every nowhere-zero integer
flow by the totally cyclic orientation along which it is strictly positive.
Bucket o at bound n is P_o(n), the interior lattice-point count of an open
flow polytope, so each column is a polynomial of degree <= xi, and the
integral flow polynomial is their sum, f(n) = sum_o P_o(n).  There is one
scan, at the top bound n = xi+2; the tables at the lower bounds are read off
each flow's largest |x|.  The scan tests half the pairs: x -> -x maps the
flows positive along o onto those positive along the reverse orientation -o,
level for level, so P_o = P_{-o}, and only the flows that are positive
on one cotree coordinate are scanned, each counted for o and for -o.

The reference orientation of every edge is its stored (tail, head) pair, so
re-ordering pairs is exactly a change of reference orientation; counts must
not depend on it.

This module only computes: every audit of the splits, and the comparison of
their constant terms with the orientation oracles, is built in
`polybinom.checks`.  `FlowResult` holds integers only: the star vectors,
their splits, the counts at the node and the Kochol columns.  Like chi, phi
and f are built as `Polynomial`s only where they are shown; the checks read
their star vectors, except for phi's integer coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterator

import numpy as np

from . import caps
from .decompositions import SymmetricSplit, symmetric_split
from .errors import CapExceeded, NotApplicable
from .graphs import (
    Multigraph,
    bit_sums,
    cyclomatic_number,
    enumerate_totally_cyclic_orientations,
    in_degree_sequence_count,
)
from .polynomials import StarVector, inverse_transform, star_from_values

__all__ = [
    "FlowResult",
    "flow_analysis",
    "kochol_tables",
    "modular_flow_count",
]

# pairs of half combinations tested at once, sized by a block's worst case,
# every pair kept: 3 B per pair for the int8 sum, peak and verdict buffers
# (allocated once per scan and overwritten row by row) and about 28 B per
# kept pair for the index, level, code and sign arrays of `kochol_tables`
# and `np.unique`'s copy.  So a block holds about 2 MB at most: with every
# pair forced kept, `kochol_tables` on K5 traces a 2.1 MB peak, 27.8 B per
# pair of its full blocks above the scan with none kept.  Half b is tiled
# only when it is wider than a block, which no scan of `flow_analysis` is:
# half b holds at most 16^4 / 2 = 32,768 combinations there (xi = 7, its
# last coordinate positive).
_PAIR_BLOCK = 1 << 16


def _check_vertex_cap(g: Multigraph) -> None:
    if g.vertex_count > caps.FLOW_VERTEX_CAP:
        raise CapExceeded(f"flow cap is {caps.FLOW_VERTEX_CAP} vertices, got {g.vertex_count}")


def _check_caps(g: Multigraph, n: int) -> int:
    if n < 1:
        raise ValueError("flow modulus/bound must be a positive integer")
    _check_vertex_cap(g)
    xi = cyclomatic_number(g)
    if xi > caps.FLOW_XI_CAP:
        raise CapExceeded(f"cyclomatic number {xi} exceeds cap {caps.FLOW_XI_CAP}")
    return xi


def _class_rows(g: Multigraph) -> np.ndarray:
    """The series-class rows of `Multigraph.cycle_space`, one column per cotree edge."""
    _, cotree, rows, _, _ = g.cycle_space
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(cotree))


def _half_sums(
    rows: np.ndarray, split: tuple, values: np.ndarray, keep: Callable[[np.ndarray], np.ndarray]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each half of `split` (`Multigraph.cotree_split`), the value
    combinations of its coordinates (one column each, every coordinate
    taking each of `values`) that pass its local rows, and their partial
    sums along `rows` (one row each).

    `keep` maps one row's sums to True where they may stand in a flow, and
    each half drops the combinations that fail it on one of its local rows,
    once per combination; only the shared rows are left to test per pair.
    Combinations and sums are built in the narrowest signed type holding
    every sum, one coordinate at a time, so a half takes a few bytes per
    combination and row.

    A candidate is a pair of combinations, one per half, and its forced
    tree values are the sums of their columns, so the (len(values))^xi
    candidates are never built.
    """
    xi = rows.shape[1]
    total = len(values) ** xi
    if total > caps.FLOW_CANDIDATE_BUDGET:
        raise CapExceeded(f"flow enumeration needs {total} candidates (budget {caps.FLOW_CANDIDATE_BUDGET})")
    cols_a, cols_b, local_a, local_b, _ = split
    v = len(values)
    values = _small(values, int(np.abs(values).max()) * max(1, int(np.abs(rows).sum(axis=1).max(initial=0))))
    halves = []
    for cols, local in ((cols_a, local_a), (cols_b, local_b)):
        k = len(cols)
        combos = np.empty((k, v**k), values.dtype)
        for c, column in enumerate(combos):  # C order: the last coordinate varies fastest
            column.reshape(v**c, v, v ** (k - 1 - c))[:] = values[:, None]
        sums = np.zeros((len(rows), v**k), values.dtype)
        for column, weights in zip(combos, rows.T[list(cols)].astype(values.dtype)):
            sums += weights[:, None] * column
        if local:
            kept = np.ones(v**k, bool)
            for r in local:
                kept &= keep(sums[r])
            combos, sums = combos[:, kept], sums[:, kept]
        halves.append((combos, sums))
    return halves


def _kept_pairs(a: np.ndarray, b: np.ndarray, top: int) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Pairs (i, j) of half combinations whose sums s = a[r, i] + b[r, j]
    satisfy 0 < |s| < top on every row r, in blocks of at most `_PAIR_BLOCK`
    pairs: a few combinations of half a against all of half b, or, when b
    is wider, one of half a against a tile of b.  Yields the first i and the
    first j of the block, the verdict over (i, j), and the peak over (i, j),
    which at a kept pair is its largest |s| - 1 over the rows.  Both are
    views of buffers allocated once, which the next block overwrites.  The
    scans pass only the rows the halves share, their local rows being tested
    per combination by `_half_sums`; with no row, every pair is kept, with
    peak 0.

    a and b share a signed integer type that holds every sum and +-top.
    Each row's sums are added into one buffer, which takes |s| - 1 in place.
    Read unsigned, that is |s| - 1 exactly, also at the type's minimum (int8
    -128, whose abs wraps to itself), and the largest unsigned value at
    s = 0.  So a pair passes every row exactly when the unsigned maximum
    over its rows is below top - 1: one compare per block.
    """
    unsigned = np.dtype(f"u{a.dtype.itemsize}")
    tile = max(1, min(b.shape[1], _PAIR_BLOCK))
    step = _PAIR_BLOCK // tile
    shape = (min(step, a.shape[1]), tile)
    sums, peak, ok = np.empty(shape, a.dtype), np.zeros(shape, a.dtype), np.empty(shape, bool)
    sums_u, peak_u = sums.view(unsigned), peak.view(unsigned)
    for start, first in product(range(0, a.shape[1], step), range(0, b.shape[1], tile)):
        block, block_b = a[:, start:start + step], b[:, first:first + tile]
        at = np.s_[:block.shape[1], :block_b.shape[1]]
        for r, (ra, rb) in enumerate(zip(block, block_b)):
            s = sums[at] if r else peak[at]  # the first row writes the peak itself
            np.add(ra[:, None], rb, out=s)
            np.abs(s, out=s)
            np.subtract(s, 1, out=s)
            if r:
                np.maximum(peak_u[at], sums_u[at], out=peak_u[at])
        np.less(peak_u[at], top - 1, out=ok[at])
        yield start, first, ok[at], peak[at]


def _small(values: np.ndarray, bound: int) -> np.ndarray:
    """`values` in the narrowest signed integer type holding -bound..bound."""
    return values.astype(np.result_type(np.min_scalar_type(-bound - 1), np.int8))


def modular_flow_count(g: Multigraph, n: int) -> int:
    """Nowhere-zero flows with values in Z_n under the reference orientation."""
    _check_caps(g, n)
    if g.edge_count == 0:
        return 1
    if n == 1:
        return 0
    split = g.cotree_split
    shared = list(split[4])
    (_, a), (_, b) = _half_sums(_class_rows(g), split, np.arange(1, n), lambda s: s % n != 0)
    # with residues a in [0, n) and b - n in [-n, 0), a shared row's sum is
    # 0 mod n exactly when it is 0 or -n: the pairs kept have 0 < |s| < n
    a, b = _small(a[shared] % n, n), _small(b[shared] % n - n, n)
    return sum(int(np.count_nonzero(ok)) for _, _, ok, _ in _kept_pairs(a, b, n))


def _half_codes(cols: tuple[int, ...], local: tuple[int, ...], combos: np.ndarray, sums: np.ndarray,
                xi: int, shift: int) -> tuple[np.ndarray, np.ndarray]:
    """Each combination's code and level, from the values its half alone
    fixes: the sign of its coordinate c at bit `shift` + c and of its local
    row r's sum at bit `shift` + xi + r, and the largest |value|."""
    code, level = np.zeros(combos.shape[1], np.int64), np.zeros(combos.shape[1], combos.dtype)
    for bit, fixed in zip([*cols, *(xi + r for r in local)], [*combos, *sums[list(local)]]):
        code |= np.left_shift(fixed < 0, shift + bit)
        np.maximum(level, np.abs(fixed), out=level)
    return code, level


def _merged(codes: list[np.ndarray], counts: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct codes of the listed tables, each with its summed count."""
    found, at = np.unique(np.concatenate(codes), return_inverse=True)
    total = np.zeros(len(found), np.int64)
    np.add.at(total, at, np.concatenate(counts))
    return found, total


def kochol_tables(g: Multigraph, top: int) -> dict[int, tuple[int, ...]]:
    """The Kochol table at every bound n = 1..top, from one scan at `top`:
    one column (P_o(1), ..., P_o(top)) per orientation o that carries a flow.

    Entry n - 1 of column o counts the integer flows 0 < |x| < n that
    traverse o, keyed by its mask as `enumerate_totally_cyclic_orientations`
    lists it: bit e is set when edge e is reversed.  Every nowhere-zero
    integer flow is strictly positive along exactly one orientation (flip
    each edge carrying a negative value), so the entries at n sum to the
    integral flow count f(n).  A forest, or top = 1, gives no column.  The
    scan keeps each flow with |x| < top once, under its orientation and its
    level max |x|, and counts it in its column from entry `level` on.  Only
    the flows whose last coordinate of half b is positive are scanned: the
    twin -x of such a flow has the same level and is positive along the
    reversed orientation, so each kept (orientation, level) is credited to
    both.  A half with no combination left, as at a bridge's zero row,
    gives no column.

    A kept flow's code is its orientation key above its level.  Key bit j is
    the sign of cotree coordinate j, and bit xi + r the sign of series class
    r.  Each half combination carries the bits of its coordinates and of its
    local rows, and its level, the largest |value| among them; a kept pair
    ORs its halves' bits with the sign of each shared row's sum, built row
    by row over the kept pairs only, and its level is the largest of the
    halves' levels and the block's peak.  A block pairs a few consecutive
    combinations of half a with all of half b, or one with a tile of half
    b, so half a's values are repeated along the kept pairs of each block
    row and only half b's are gathered.  Codes are counted per block, and
    the block tables are folded into one running table whenever they have
    doubled past the last fold,
    so the scan holds one block's arrays and no more codes than twice the
    distinct (orientation, level) codes plus one block's, however many
    blocks there are.  The columns then come
    from one count per (orientation, level), cumulated over the levels; each
    key becomes its orientation mask once, by `bit_sums`, a Python int
    however many edges there are, and the columns are listed
    lexicographically in their orientations' directions, edge 0 first: by
    the mask with its m bits reversed, built by `bit_sums` as well.
    """
    xi = _check_caps(g, top)
    m = g.edge_count
    if xi == 0 or top == 1:  # a forest carries no nowhere-zero flow
        return {}
    tree, cotree, _, cls, flipped = g.cycle_space
    cols_a, cols_b, local_a, local_b, shared = split = g.cotree_split
    rows = _class_rows(g)
    span = np.concatenate([np.arange(-(top - 1), 0), np.arange(1, top)])
    (combos_a, sums_a), (combos_b, sums_b) = _half_sums(rows, split, span, lambda s: (s != 0) & (np.abs(s) < top))
    # x and -x are both kept or both dropped, so scan only the flows that
    # are positive on one cotree coordinate, half b's last
    positive = combos_b[-1] > 0
    combos_b, sums_b = combos_b[:, positive], sums_b[:, positive]
    if not combos_a.shape[1] or not combos_b.shape[1]:  # a zero row: no flow at all
        return {}
    shared = list(shared)
    bound = (top - 1) * int(np.abs(rows[shared]).sum(axis=1).max(initial=0))
    a, b = _small(sums_a[shared], max(bound, top)), _small(sums_b[shared], max(bound, top))
    # at most 4 xi key bits and the level's: every code fits an int64
    shift = (top - 1).bit_length()
    code_a, level_a = _half_codes(cols_a, local_a, combos_a, sums_a, xi, shift)
    code_b, level_b = _half_codes(cols_b, local_b, combos_b, sums_b, xi, shift)
    # the scan reads only the codes, levels and shared sums: free the halves
    del combos_a, sums_a, combos_b, sums_b, positive
    level_a, level_b, minus_b = level_a.astype(a.dtype), level_b.astype(a.dtype), -b
    codes, counts, held = [], [], 0
    for start, first, ok, peak in _kept_pairs(a, b, top):
        # the kept pairs in row order: block row i keeps per_row[i] pairs,
        # all with combination start + i of half a
        (k, width), rows_a = ok.shape, slice(start, start + ok.shape[0])
        j = np.flatnonzero(ok)
        level = peak.take(j)
        per_row = np.diff(np.searchsorted(j, np.arange(1, k + 1) * width), prepend=0)
        j -= np.repeat(np.arange(k) * width - first, per_row)  # now half b's combination
        level += 1
        np.maximum(level, level_a[rows_a].repeat(per_row), out=level)
        np.maximum(level, level_b.take(j), out=level)
        code = code_a[rows_a].repeat(per_row)
        code |= level
        negative, bit = np.empty(len(j), bool), np.empty_like(code)
        for r, ra, rb in zip(shared, a, minus_b):
            # x < -b: the class sum is negative
            np.less(ra[rows_a].repeat(per_row), rb.take(j), out=negative)
            np.left_shift(negative, shift + xi + r, out=bit)
            code |= bit
        # the block's temporaries set the peak memory: free them before half
        # b's codes are gathered, and j before np.unique sorts a copy
        del level, negative, bit
        code |= code_b.take(j)
        del j
        found, count = np.unique(code, return_counts=True)
        codes.append(found)
        counts.append(count)
        held += len(found)
        if held > 2 * len(codes[0]):  # doubled past the last fold
            found, count = _merged(codes, counts)
            codes, counts, held = [found], [count], len(found)

    code = np.concatenate(codes)
    key = code >> shift
    # the twin -x has the same level and every key bit flipped
    key = np.concatenate([key, key ^ ((1 << (xi + len(rows))) - 1)])
    level = np.tile(code & ((1 << shift) - 1), 2)
    keys, at = np.unique(key, return_inverse=True)
    per_level = np.zeros((len(keys), top), dtype=np.int64)
    np.add.at(per_level, (at, level), np.tile(np.concatenate(counts), 2))
    below = per_level.cumsum(axis=1)  # column n - 1: the flows with level < n
    keys = keys.tolist()

    def masks(bit: Callable[[int], int]) -> list[int]:
        # edge e is reversed where its key bit differs from its flip, so a
        # mask is linear in the key bits: the flipped tree edges, plus
        # 2^bit(e) for each set key bit of an edge e, negated on a flipped one
        weights = [1 << bit(e) for e in cotree] + [0] * len(rows)
        for t, c, flip in zip(tree, cls, flipped):
            weights[xi + c] += -(1 << bit(t)) if flip else 1 << bit(t)
        return bit_sums(keys, weights, sum(1 << bit(t) for t, flip in zip(tree, flipped) if flip))

    # lexicographic in the directions, edge 0 first: edge 0 the highest bit
    order = sorted(range(len(keys)), key=masks(lambda e: m - 1 - e).__getitem__)
    forward = masks(lambda e: e)
    return {forward[i]: tuple(column) for i, column in zip(order, below[order].tolist())}


# ---------------------------------------------------------------------------
# flow polynomials


@dataclass(frozen=True)
class FlowResult:
    graph: Multigraph
    xi: int
    phi_star: StarVector
    f_star: StarVector
    phi_split: SymmetricSplit
    f_split: SymmetricSplit
    phi_node: int  # the counts at n = xi+2, which the polynomials must fit
    f_node: int
    indegree_sequence_count: int
    tc_orientation_set: frozenset[int]  # masks, bit e set where edge e is reversed
    # mask -> the column (P_o(1), ..., P_o(xi+2)) of `kochol_tables`
    kochol: dict[int, tuple[int, ...]] = field(compare=False)

    @property
    def tc_orientation_count(self) -> int:
        return len(self.tc_orientation_set)

    def to_json(self) -> dict:
        return {
            "graph": self.graph.to_json(),
            "xi": self.xi,
            "phi": inverse_transform(self.phi_star).to_json(),
            "f": inverse_transform(self.f_star).to_json(),
            "phi_star": self.phi_star.to_json(),
            "f_star": self.f_star.to_json(),
            "alpha": list(self.phi_split.p),
            "beta": list(self.phi_split.q),
            "c": list(self.f_split.p),
            "d": list(self.f_split.q),
            "totally_cyclic_orientations": self.tc_orientation_count,
            "indegree_sequences": self.indegree_sequence_count,
        }


def flow_analysis(g: Multigraph) -> FlowResult:
    """Both flow polynomials with their star vectors, splits, and orientation oracles.

    Preconditions: no bridges (a bridge forces the zero polynomial) and
    xi >= 1; violations raise NotApplicable with a machine-readable reason.
    The caps are checked before any scan: `caps.FLOW_VERTEX_CAP` before any
    pass over the vertices, then, after the bridge and xi = 0 tests, an xi
    above `caps.FLOW_XI_CAP`, then the edge cap of the totally cyclic
    enumeration, which runs before the flow scans.  The graph is searched
    once, for its components, bridges and spanning forest, and builds its
    cycle space once; every later check and all xi + 2 scans read them.
    The star vectors come from the counts at n = 1..xi+1, which determine a
    polynomial of degree <= xi, and the counts at n = xi+2 are kept on the
    result as overdetermination nodes; `polybinom.checks` judges whether the
    polynomials fit them, and whether phi has integer coefficients.  The
    integral count f(n) is the sum of the Kochol columns' entries at n, and
    all xi+2 entries of every column come from one scan at n = xi+2; the
    columns are kept on the result, one P_o per orientation, each a
    polynomial of degree <= xi.
    """
    _check_vertex_cap(g)
    if g.bridges:
        raise NotApplicable("bridge", "a bridge admits no nowhere-zero flow")
    xi = cyclomatic_number(g)
    if xi == 0:
        raise NotApplicable("xi=0", "no cycles; both flow polynomials are constant 1")
    _check_caps(g, xi + 2)
    tc = enumerate_totally_cyclic_orientations(g)

    *phi_counts, phi_node = [modular_flow_count(g, n) for n in range(1, xi + 3)]
    kochol = kochol_tables(g, xi + 2)
    # one pass over the columns; an empty table gives xi+2 zeros, so that
    # f's node is always judged
    *f_counts, f_node = [sum(entries) for entries in zip(*kochol.values())] or [0] * (xi + 2)
    phi_star = star_from_values(phi_counts, xi, start=1)
    f_star = star_from_values(f_counts, xi, start=1)
    phi_split = symmetric_split(phi_star.entries, xi + 1)
    f_split = symmetric_split(f_star.entries, xi + 1)

    return FlowResult(
        g, xi, phi_star, f_star, phi_split, f_split, phi_node, f_node,
        in_degree_sequence_count(g, tc), frozenset(tc), kochol,
    )
