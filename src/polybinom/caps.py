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
    "LATTICE_POINT_ELEMENT_CAP",
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

# `strict_chain_code` passes once over the up-sets it reaches, at most
# 2^d = 1024 of them at d = 10, each step one shifted add of a packed code
# with d * d.bit_length() = 40-bit fields; `omega_star` enforces this cap.
# So does `hstar_via_descents`, whose walk over (order ideal, last element)
# has at most 2^d * d states: 17.5 to 18.3 ms on the antichain at d = 10,
# which has the most of them (medians of 7 runs in three rounds; Python
# 3.11, 2 shared cores).
ORDER_POLY_ELEMENT_CAP = 10
# The lattice-point oracle walks each component once, at the top dilate
# (closed at n = d, interior at n = d+2): on the checking routes a value box
# of at most 8^7 maps (d <= 7, d+1 values), of which it branches on the
# non-maximal elements only.  That takes about 0.6 ms per poset at d = 7,
# closed and interior together, and 3.4 ms at most; a seeded sample of 200
# of the 16,999 classes at d = 8 takes about 2 ms per poset and 11 ms at
# most (Python 3.11, one core).
# At d = 8 the closed 8th dilate has a 9^8 (about 43M) value box, which
# POINT_ENUMERATION_BUDGET admits, so the oracle declares its own cap;
# `order` checks it against the file's element count before building the
# poset.  It must not exceed ORDER_POLY_ELEMENT_CAP: `poset_checks` relies
# on hitting this cap first, and the sampled poset survey refuses a larger
# --max-size before any draw.
LATTICE_POINT_ELEMENT_CAP = 7
# `lattice_point_counts` refuses a top dilate whose value box span^d is
# larger than this.  No checking route reaches it; it bounds direct calls at
# a large dilate.
POINT_ENUMERATION_BUDGET = 10**8

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
# shared cores).  Must not exceed LATTICE_POINT_ELEMENT_CAP (`poset_checks`).
POSET_SURVEY_CAP = 7
# The flow survey skips xi = 6 and 7.  One instance with xi = 6 (K5) takes
# about 0.03 s (`flow_checks`, median of 5), and the 9 bridgeless classes
# with xi = 6 at d <= 6 take 0.25 to 0.29 s together, more than the 0.16 to
# 0.24 s of the whole d <= 6 flow survey; the 97 bridgeless classes with
# xi = 6 at d = 7 take about 3.5 s.  The octahedron, with xi = 7, takes about
# 0.4 s (see FLOW_XI_CAP), and the 82 bridgeless classes with xi = 7 at
# d = 7 take about 50 s together, with 0 failures (Python 3.11, one process
# on 2 shared cores).  Admitting them would also change the survey's output.
FLOW_XI_SURVEY_CAP = 5
