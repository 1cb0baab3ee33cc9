"""Every cap and enumeration budget, declared once.

Modules read these as ``caps.NAME`` at call time, so lowering one binding
(``monkeypatch.setattr(caps, NAME, value)``) moves the cap everywhere it is
enforced.  Exceeding a cap raises `CapExceeded` (CLI exit 3).  The relations
between caps that the code relies on are tested in ``tests/test_exports.py``.
"""

__all__ = [
    "ACYCLIC_ORIENTATION_CAP",
    "CHROMATIC_VERTEX_CAP",
    "FLOW_CANDIDATE_BUDGET",
    "FLOW_VERTEX_CAP",
    "FLOW_XI_CAP",
    "FLOW_XI_SURVEY_CAP",
    "GRAPH_SURVEY_CAP",
    "ORDER_POLY_ELEMENT_CAP",
    "ORIENTATION_EDGE_CAP",
    "POINT_ENUMERATION_BUDGET",
    "POSET_SURVEY_CAP",
]

# graphs ---------------------------------------------------------------------

# The totally cyclic search takes at most m steps per orientation it lists:
# about 3 us per orientation on 16 parallel edges (65,534 of them), 3 us on
# K6 (22,320) and 7 us on the Petersen graph (1,920; medians of 9 runs,
# Python 3.11, one core).  So m <= 24 bounds its output: at most 2^m - 2
# masks once some edge is not a loop (a vertex can be made a source or a
# sink), 2^m for loops alone.
ORIENTATION_EDGE_CAP = 24

# chromatic ------------------------------------------------------------------

# The partition DP of `chromatic_star` visits every subset of every vertex
# set, 3^d steps (59,049 at d = 10).  It must not exceed
# ORDER_POLY_ELEMENT_CAP: the order-star cross-route of `chromatic` walks
# the order ideals of each acyclic orientation as a poset on all d vertices.
# The sampled graph and flow surveys refuse a --max-size above it before any
# draw, since each draw lists all d(d-1)/2 vertex pairs.
CHROMATIC_VERTEX_CAP = 10
# The search lists one orientation per reversal pair and the order-polynomial
# cross-route walks each listed order once.  `graph_checks` then costs about
# 0.010 ms per acyclic orientation, counting both of each pair, at d = 8
# (K8, 8! = 40,320 orientations, 0.39 s, median of 6 runs) and 0.022 to
# 0.025 ms at d = 10 (four seeded random graphs with 31k to 49k orientations,
# one run; Python 3.11, 2 shared cores).  The walks dominate: the acyclic
# search alone takes 0.08 to 0.13 s on K8.  So this cap bounds the
# cross-route of a `chromatic` run by about 1.2 s.  For information only:
# with the cap lifted, K9 (362,880) took 4.3 s and 77 MB peak RSS in one run.
ACYCLIC_ORIENTATION_CAP = 50_000

# posets ---------------------------------------------------------------------

# The one element cap of every poset route: the order star, both
# order-polytope oracles, `order` (before the poset is built) and the
# sampled poset survey (before any draw).  `strict_chain_code` passes once
# over the up-sets it reaches, at most 2^d = 1024 of them at d = 10, each
# step one shifted add of a packed code with d * d.bit_length() = 40-bit
# fields.  `hstar_via_descents` walks (order ideal, last element), at most
# 2^d * d states: 17.5 to 18.3 ms on the antichain at d = 10, which has the
# most of them (medians of 7 runs in three rounds; Python 3.11, 2 shared
# cores).  The costliest poset for the lattice-point walks found at d = 10,
# by random searches with hill-climbing over about 6,900 posets, has the
# covers (0,6) (1,8) (2,7) (3,9) (4,5) (4,6) (4,7) (5,8) (5,9): its walks
# charge 777,931 (closed) and 453,553 (interior), and `poset_checks` takes
# 0.30 to 0.32 s on it at 36 MB peak RSS, every check passing; the 10-crown
# takes 64 to 71 ms (5 runs each; Python 3.11, one process, 2 shared cores).
ORDER_POLY_ELEMENT_CAP = 10
# `lattice_point_counts` keeps one running total per call, each charge
# checked before its work: top + 1 for its counts, then per component each
# walk step its states times the values it may try (at most the states it
# builds), and the final pass its states times the values of the range.
# About 2.5 to 5 million are charged per second, so this bounds a call by a
# few seconds, and a top above it is refused before its counts are built.
# On the checking routes (closed at n = d, interior at n = d+2) a call
# charges at most 6,672 at d <= 7 and 28,665 at d = 8 (every class), and at
# most 2,125,871 at d = 10: after k of its n non-maximal elements are placed,
# a walk holds at most min(11^k, 11^(10-k)) states (tests/test_posets.py).
POINT_ENUMERATION_BUDGET = 10**7

# flows ----------------------------------------------------------------------

# `flow_analysis` refuses a larger graph before its first pass over the
# vertices.  Isolated vertices carry no flow, but they cost time: the one
# search of the graph, which finds its components, bridges and spanning
# forest, passes over every vertex.  The totally cyclic search and
# `in_degree_sequence_count` number only the ends of non-loop edges, so
# isolated vertices cost them nothing: a search step copies one adjacency
# mask per end.
# The costliest graph found within the other flow caps is the Petersen graph
# (1,920 orientations; 16 parallel edges have 65,534 but xi = 15, which
# FLOW_XI_CAP refuses first).  Padded with isolated vertices, its totally
# cyclic search takes 19 to 23 ms at d = 10, 1000 and 10,000 alike (20 to
# 34 ms, 57 to 59 ms and 324 to 342 ms when a step copied one mask per
# vertex), and `flow --json` on it takes 0.04 to 0.06 s at d = 10, 1000
# and 10,000 (this cap lifted), at 37 MB peak RSS (`cli.main` in a fresh
# interpreter, three runs each; Python 3.11, one process on 2 shared
# cores).  At d = 10^7, before this cap, `flow` took 8.1 s and 1.46 GB.
FLOW_VERTEX_CAP = 1000

# One flow count scans the product of its cotree value sets.  The budget
# admits the integral grid at xi = 7, 16^7 ~ 268M candidates, and not the
# 18^8 ~ 1.1e10 of xi = 8.
FLOW_CANDIDATE_BUDGET = 300_000_000
# `flow_analysis` makes one integral scan, at n = xi+2, over (2(xi+1))^xi
# candidates, so the cap is the largest xi whose grid fits the budget.  The
# scan tests at most half of those pairs (x and -x are counted together, and
# each half first drops the combinations that fail its local rows), but the
# budget is charged on the full grid.  At xi = 7, `flow_checks` on the
# octahedron (K6 less a perfect matching, 1,862 totally cyclic
# orientations) takes 0.37 to 0.39 s at 37 MB peak RSS, with 0 failures
# (three runs in a fresh interpreter; Python 3.11, one process on 2 shared
# cores).
FLOW_XI_CAP = 7

# surveys --------------------------------------------------------------------

# The exhaustive graph and flow surveys check every connected class on up to
# this many vertices: about 7.4 s and 2.1 s at d = 7 (medians of 6 runs).  The
# d <= 8 family alone takes 10 to 11 s and 68 MB peak RSS (12,113 classes),
# and a seeded 120-class sample of the 11,117 classes at d = 8 takes 0.042 s
# each in `graph_checks`, about 8 minutes for that graph survey (Python 3.11,
# one process on 2 shared cores).  Must not exceed CHROMATIC_VERTEX_CAP
# (`graph_checks`).
GRAPH_SURVEY_CAP = 7

# The exhaustive poset survey grows each level once (0.42 to 0.43 s for the
# 2450 classes of d <= 7), and `survey posets --max-size 7 --json` checks
# them in 3.0 to 3.3 s at 39 MB peak RSS (Python 3.11, one process on 2
# shared cores).  Must not exceed ORDER_POLY_ELEMENT_CAP (`poset_checks`).
POSET_SURVEY_CAP = 7
# The flow survey skips xi = 6 and 7.  One instance with xi = 6 (K5) takes
# about 0.02 s (`flow_checks`, median of 5), and the 9 bridgeless classes
# with xi = 6 at d <= 6 take 0.18 to 0.22 s together, more than the 0.13 to
# 0.15 s of the whole d <= 6 flow survey; the 97 bridgeless classes with
# xi = 6 at d = 7 take 1.9 to 2.0 s (3 runs).  The octahedron, with xi = 7,
# takes about 0.35 s (see FLOW_XI_CAP), and the 82 bridgeless classes with
# xi = 7 at d = 7 take about 35 s together (1 run), with 0 failures (Python
# 3.11, numpy 2.4, one process on 2 shared cores, `flow_checks` timed per
# class set in one interpreter).  Admitting them would also change the
# survey's output.
FLOW_XI_SURVEY_CAP = 5
