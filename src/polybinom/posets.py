"""Posets, order polynomials, order-polytope lattice counts, and generation.

The strict order count of a poset P on d elements,

    count(n) = #{maps f: P -> {1..n} with a < b in P  =>  f(a) < f(b)},

is a degree-d polynomial; its star vector has zero constant term and top
entry 1.  The associated 0/1 polytope (points of the unit cube whose
coordinates weakly respect the order) provides two independent oracles for
the same data: direct lattice-point counts and the descent statistic over
linear extensions.

The star vectors are integer finite differences of exact counts
(`star_from_values`), with one extra count as an overdetermination node
where it is cheap.  The strict order count comes from one pass over the
up-sets of P that can be reached, read off its ``above`` masks
(`strict_chain_code`, which also takes the bare masks of the
acyclic-orientation search; `omega_star`, d <= 10).  It counts the chains of
up-sets with nonempty steps by length, packed as the fields of one integer,
and `chain_code_counts` expands a code, or a sum of codes, into the counts
at n = 0..d+1.  The lattice-point counts are the independent oracle it is
checked against (`lattice_point_counts`, d <= 10, its budget charged on
the states it builds).  They come from one walk per component of the
comparability graph at the top dilate.  It places the non-maximal elements
one at a time and keeps the partial maps only as counts per tuple of lower
bounds on the elements left; the maximal elements left are pairwise
incomparable, so each final tuple of bounds counts its maps by a product in
closed form, bucketed by the largest value.  Cumulative sums give every
smaller dilate and products over the components give P's counts.  A `Poset`
is built and validated only where an order enters the program.  The descent
route is the fast cross-check of h*, with its convention (descents of the
extension word under the lexicographically smallest natural labeling)
frozen after calibration against the lattice-point oracle.  It lists no
extension: one walk over the order ideals, each with the last element
placed, counts them by descents (`hstar_via_descents`, d <= 10).

`poset_classes` grows each level of isomorphism classes once, from the one
before: a new maximal element above one order ideal of each smaller class.
A class has one canonical form, its smallest relabeling along a linear
extension (`_smallest_relabeling`); `poset_certificate` packs it into one
integer, which both deduplicates the classes and decodes into them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from math import comb, factorial
from typing import Iterable, Iterator, Sequence

from . import caps
from .errors import CapExceeded, InputFormatError
from .polynomials import StarVector, star_from_values

__all__ = [
    "Poset",
    "antichain",
    "chain",
    "chain_code_counts",
    "ehrhart_star",
    "hstar_via_descents",
    "interior_star",
    "lattice_point_counts",
    "omega_star",
    "parse_poset_file",
    "poset_certificate",
    "poset_classes",
    "strict_chain_code",
]

@dataclass(frozen=True)
class Poset:
    """Finite strict partial order on elements 0..d-1.

    ``above[i]`` is the bitmask of elements strictly greater than i under the
    full (transitively closed) order.
    """

    element_count: int
    above: tuple[int, ...]

    def __post_init__(self):
        d = self.element_count
        if len(self.above) != d:
            raise ValueError("above mask per element required")
        for i, mask in enumerate(self.above):
            if mask >> d:
                raise ValueError(f"relation mask for {i} exceeds element range")
            if (mask >> i) & 1:
                raise ValueError(f"order is not irreflexive at {i}")
            j = mask
            while j:
                b = (j & -j).bit_length() - 1
                if (self.above[b] >> i) & 1:
                    raise ValueError(f"order is not antisymmetric on ({i}, {b})")
                if self.above[b] & ~mask:
                    raise ValueError(f"order is not transitive above ({i}, {b})")
                j &= j - 1

    @classmethod
    def from_relation(cls, d: int, pairs: Sequence[tuple[int, int]]) -> "Poset":
        """Build from arbitrary strict pairs (a < b); closure is computed.

        Rejects cyclic input (which would force a < a).
        """
        above = [0] * d
        for a, b in pairs:
            if not (0 <= a < d and 0 <= b < d):
                raise ValueError(f"pair ({a}, {b}) out of range")
            if a != b:
                above[a] |= 1 << b
        changed = True
        while changed:
            changed = False
            for i in range(d):
                mask = acc = above[i]
                for b in _bits(mask):
                    acc |= above[b]
                if acc != mask:
                    above[i] = acc
                    changed = True
        for i in range(d):
            if (above[i] >> i) & 1:
                raise ValueError("relation contains a cycle; not a partial order")
        return cls(d, tuple(above))

    @cached_property
    def below(self) -> tuple[int, ...]:
        masks = [0] * self.element_count
        for i in range(self.element_count):
            for b in _bits(self.above[i]):
                masks[b] |= 1 << i
        return tuple(masks)

    def cover_pairs(self) -> tuple[tuple[int, int], ...]:
        """Transitive reduction: pairs a < b with nothing strictly between."""
        return tuple(
            (a, b)
            for a in range(self.element_count)
            for b in _bits(self.above[a])
            if not self.above[a] & self.below[b]
        )

    @property
    def is_antichain(self) -> bool:
        return all(m == 0 for m in self.above)

    @cached_property
    def natural_labeling(self) -> tuple[int, ...]:
        """Lexicographically smallest topological order of the elements,
        computed once per poset: both lattice walks and the descent walk
        read it."""
        d, below = self.element_count, self.below
        order, placed = [], 0
        while len(order) < d:
            for v in range(d):
                if not placed >> v & 1 and below[v] & ~placed == 0:
                    break
            else:
                raise AssertionError("no minimal element found; order is cyclic")
            order.append(v)
            placed |= 1 << v
        return tuple(order)

    @cached_property
    def _walk_plan(self) -> tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]:
        """Per component of the comparability graph, its size and, for each
        non-maximal element in placement order, the offsets of its successors
        among the elements after it: what the walks of `lattice_point_counts`
        read at every dilate and in both modes.  A component is placed in P's
        natural labeling filtered to it, its own natural labeling, with the
        non-maximal elements, an order ideal, moved first."""
        d, below = self.element_count, self.below
        related = [a | b for a, b in zip(self.above, below)]
        plan = []
        left = (1 << d) - 1
        while left:
            component = frontier = left & -left
            while frontier:
                step = 0
                for v in _bits(frontier):
                    step |= related[v]
                frontier = step & ~component
                component |= step
            left &= ~component
            order = [v for v in self.natural_labeling if component >> v & 1]
            non_maximal = 0
            for v in order:
                non_maximal |= below[v]
            order = [v for v in order if non_maximal >> v & 1] + [v for v in order if not non_maximal >> v & 1]
            successors = tuple(
                tuple(j - i - 1 for j, u in enumerate(order) if below[u] >> v & 1)
                for i, v in enumerate(order[:non_maximal.bit_count()])
            )
            plan.append((len(order), successors))
        return tuple(plan)

    def to_json(self) -> dict:
        return {
            "elements": self.element_count,
            "covers": [list(c) for c in self.cover_pairs()],
        }


def chain(d: int) -> Poset:
    return Poset.from_relation(d, [(i, i + 1) for i in range(d - 1)])


def antichain(d: int) -> Poset:
    return Poset.from_relation(d, [])


# ---------------------------------------------------------------------------
# counting maps


def _field_width(d: int) -> int:
    """Bits per field of a chain code on d elements.

    Field k of one order's code counts its surjective strict maps onto {1..k},
    and field k of a graph's summed code counts its surjective proper
    colourings onto {1..k} (each fixes one acyclic orientation, Stanley 1973).
    Either is at most k^d <= d^d < 2^(d * d.bit_length()), so no field
    carries into the next.  At d = 0 the one field holds the empty chain.
    """
    return d * d.bit_length() or 1


def strict_chain_code(above: Sequence[int]) -> int:
    """The chains of up-sets of P with nonempty steps, by length, packed into
    one integer, where ``above[v]`` masks the elements above v (`Poset.above`,
    or an order from `acyclic_orientations_up_to_reversal`).

    A strict map f: P -> {1..n} is the chain of up-sets F_j = f^-1({n-j+1..n}),
    and each step adds an antichain: a subset of the maximal elements of P
    minus F_{j-1}, empty where f skips a value.  So the strict maps onto
    exactly k values are the chains from the empty up-set to P in k nonempty
    steps (Stanley, *Ordered structures and partitions*, 1972).  The walk
    makes one pass over the up-sets it reaches, in order of size, and keeps
    each one's chain counts as fields of `_field_width(d)` bits, field k at
    bit k * width; a step adds the code shifted by one field.  Field k of the
    result is the number s_k of chains to P of length k, and
    `chain_code_counts` expands it into Omega(n) = sum_k s_k C(n, k).

    These are the walks on the order ideals of the dual of P, and
    f -> n+1-f maps the strict maps of P onto those of the dual, so no
    ``below`` mask is needed.  The walk needs no closed order, and a cyclic
    tuple never reaches the full set, so its code is 0.
    """
    d = len(above)
    width = _field_width(d)
    full = (1 << d) - 1
    by_size: list[dict[int, int]] = [{} for _ in range(d + 1)]
    by_size[0][0] = 1
    for size in range(d):
        for upset, ways in by_size[size].items():
            rest = full & ~upset
            maximal = 0
            free = rest
            while free:
                low = free & -free
                if not above[low.bit_length() - 1] & rest:
                    maximal |= low
                free ^= low
            ways <<= width
            added = maximal
            while added:
                reached = by_size[size + added.bit_count()]
                step = upset | added
                reached[step] = reached.get(step, 0) + ways
                added = (added - 1) & maximal
    return by_size[d].get(full, 0)


def chain_code_counts(code: int, d: int) -> list[int]:
    """Strict order counts at n = 0..d+1 from a chain code on d elements, or
    from a sum of such codes: sum_k s_k C(n, k) over every field k of the
    code.  No walk sets a field above k = d, but every field is expanded, so
    a set field d+1 moves the count at n = d+1 off every degree-d polynomial."""
    width = _field_width(d)
    mask = (1 << width) - 1
    counts = [0] * (d + 2)
    k = 0
    while code:
        chains = code & mask
        if chains:
            for n in range(k, d + 2):  # C(n, k) = 0 below n = k
                counts[n] += chains * comb(n, k)
        code >>= width
        k += 1
    return counts


def omega_star(p: Poset) -> StarVector:
    """Star vector of the strict order count: length d+1, zero constant term.

    Built from the d+2 counts at n = 0..d+1, one more than degree d needs.
    The count at n = 0 is 0, and that extra node checks that the counts at
    n >= 1 agree with it; so the series starting at n >= 1 and the start=0
    vector have the same numerator, and the start=0 convention keeps the
    vector at its true length d+1 (degree <= d, top entry 1).
    """
    d = p.element_count
    _check_element_cap(d)
    if d == 0:
        raise ValueError("the empty poset has no star vector in this convention")
    return star_from_values(chain_code_counts(strict_chain_code(p.above), d), d, start=0)


# ---------------------------------------------------------------------------
# order polytope oracles


def _check_element_cap(d: int) -> None:
    if d > caps.ORDER_POLY_ELEMENT_CAP:
        raise CapExceeded(f"poset cap is {caps.ORDER_POLY_ELEMENT_CAP} elements, got {d}")


def _charged(spent: int, work: int) -> int:
    """`spent` plus `work`, refused before that work if it passes the budget."""
    spent += work
    if spent > caps.POINT_ENUMERATION_BUDGET:
        raise CapExceeded(f"lattice-point budget is {caps.POINT_ENUMERATION_BUDGET} steps, got {spent}")
    return spent


def _maps_by_largest_value(
    size: int, successors: Sequence[Sequence[int]], low: int, high: int, strict: bool, spent: int
) -> tuple[list[int], int]:
    """``by_max[v]``: the maps f -> {low..high} of one component of `size`
    elements respecting its order (strictly or weakly) whose largest value
    is v, for v = 0..high; and `spent` with this walk's work charged.

    The component is one entry of `Poset._walk_plan`: the walk places its
    non-maximal elements one at a time, and `successors[i]` holds the
    offsets of element i's successors among the elements after it.  A partial
    map matters to the rest only through the lower bounds it puts on the
    elements not yet placed, so the walk keeps a dict from that tuple of
    bounds to the number of partial maps that give it.  Each placed element
    has a successor, so its values stop at ``high - bump``.  The maximal
    elements left are pairwise incomparable: a state bounding them by b_j
    has prod_j (v - b_j + 1) maps with every value <= v, and the largest
    value of a map is that of a maximal element.  So each final state adds
    the differences of that product over v to `by_max`, and no maximal
    element is branched on.  (Merging the final states by their sorted
    bounds first saves only about one product in eight at d <= 6, and the
    sorting costs more than that.)  Each step is charged its states times the
    values it may try, at most the states it builds, and the final pass its
    states times the values of the range.
    """
    bump = 1 if strict else 0
    stop = high - bump + 1
    # a state holds the bounds on elements i.. before element i is placed
    states = {(low,) * size: 1}
    for raised in successors:
        spent = _charged(spent, len(states) * max(stop - low, 0))
        grown: dict[tuple[int, ...], int] = {}
        get = grown.get
        for state, ways in states.items():
            # a successor's bound, once raised, is raised again by each larger value
            bounds = list(state[1:])
            for val in range(state[0], stop):
                bound = val + bump
                for j in raised:
                    if bounds[j] < bound:
                        bounds[j] = bound
                key = tuple(bounds)
                grown[key] = get(key, 0) + ways
        states = grown
    spent = _charged(spent, len(states) * max(high - low + 1, 0))
    by_max = [0] * (high + 1)
    for bounds, ways in states.items():
        below_v = 0  # the maps with every value < v
        for v in range(max(bounds), high + 1):
            fits = ways
            for b in bounds:
                fits *= v - b + 1
            by_max[v] += fits - below_v
            below_v = fits
    return by_max, spent


def lattice_point_counts(p: Poset, top: int, *, interior: bool = False) -> list[int]:
    """Lattice points of the n-th dilate of the order polytope (or of its
    interior), for n = 0..top.

    Closed: weakly order-preserving maps into {0..n}.  Interior: strictly
    order-preserving maps into {1..n-1}.  Each component of the comparability
    graph is walked once, at the top dilate, with every map bucketed by its
    largest value; the maps of a smaller dilate are those whose largest value
    fits it, so cumulative sums give every dilate.  Elements in different
    components constrain each other in no way, so P's counts are the
    products of the components' counts.  The components and their placement
    orders are P's `_walk_plan`, built once and read at every top and in both
    modes.  In each walk the non-maximal elements are placed one value at a
    time, with the partial maps merged by the lower bounds they leave on the
    elements not yet placed, and the maximal elements are never branched on:
    a product of their value ranges counts them (`_maps_by_largest_value`).
    The budget is charged top + 1 for the counts, then each walk's work, in
    one running total checked before the work it charges.
    """
    if top < 0:
        raise ValueError("dilation factor must be nonnegative")
    d = p.element_count
    _check_element_cap(d)
    spent = _charged(0, top + 1)
    counts = [1] * (top + 1)
    if d == 0:
        return counts
    low, high = (1, top - 1) if interior else (0, top)
    # the interior of the n-th dilate takes values up to n-1
    shift = [0] if interior else []
    for size, successors in p._walk_plan:
        by_max, spent = _maps_by_largest_value(size, successors, low, high, interior, spent)
        counts = [c * fits for c, fits in zip(counts, shift + list(accumulate(by_max)))]
    return counts


def ehrhart_star(p: Poset) -> StarVector:
    """h* of the order polytope from its lattice-point counts at n = 0..d."""
    d = p.element_count
    return star_from_values(lattice_point_counts(p, d), d, start=0)


def interior_star(p: Poset) -> StarVector:
    """Star vector (start=1) of the interior lattice-point counts at n = 1..d+2.

    The count at n = d+2 is the node, so the vector reproduces every count
    it was built from.
    """
    d = p.element_count
    return star_from_values(lattice_point_counts(p, d + 2, interior=True)[1:], d, start=1)


def hstar_via_descents(p: Poset) -> StarVector:
    """h* of the order polytope as the descent distribution of its linear
    extensions (Stanley, *Two poset polytopes*, 1986).

    Convention (frozen after calibration against the lattice-point oracle):
    write each linear extension as the word of its labels under the
    lexicographically smallest natural labeling and count positions where
    the label drops.  No extension is listed: a walk places one element at
    a time, and each of its at most 2^d * d states (the order ideal placed,
    the label of the last element) keeps its extensions counted by descents
    as the fields of one integer, field k at bit k * width, wide enough for
    d!.  Shares no code with the lattice-point route, which the
    `descents_match_lattice_hstar` check compares it against.
    """
    d = p.element_count
    _check_element_cap(d)
    if d == 0:
        raise ValueError("the empty poset has no h* vector in this convention")
    order, below = p.natural_labeling, p.below
    width = factorial(d).bit_length()
    states = {(0, -1): 1}  # nothing placed yet, so the first element is no drop
    for _ in range(d):
        grown: dict[tuple[int, int], int] = {}
        for (placed, last), code in states.items():
            for label, v in enumerate(order):
                if not placed >> v & 1 and below[v] & ~placed == 0:
                    key = (placed | 1 << v, label)
                    grown[key] = grown.get(key, 0) + (code << width if label < last else code)
        states = grown
    code = sum(states.values())
    return StarVector(tuple(code >> (k * width) & ((1 << width) - 1) for k in range(d + 1)), d, start=0)


# ---------------------------------------------------------------------------
# exhaustive generation up to isomorphism


def _bits(mask: int) -> Iterator[int]:
    while mask:
        b = (mask & -mask).bit_length() - 1
        yield b
        mask &= mask - 1


def poset_certificate(p: Poset) -> tuple[int, int]:
    """``(d, code)``, equal exactly for isomorphic posets: the rows of the
    class's smallest relabeling (`_smallest_relabeling`) packed into one
    integer, row i at bit i * d.  Bit i * d + j is the pair (i, j), so codes
    order as the relation masks they pack."""
    d = p.element_count
    return (d, sum(row << (i * d) for i, row in enumerate(_smallest_relabeling(p))))


def _rows(certificate: tuple[int, int]) -> tuple[int, ...]:
    """The ``above`` masks of the smallest relabeling a certificate packs."""
    d, code = certificate
    return tuple(code >> (i * d) & ((1 << d) - 1) for i in range(d))


def poset_classes(max_d: int) -> Iterator[list[Poset]]:
    """The isomorphism classes of posets on d = 1..max_d elements, a list per
    d, each class as the canonical form its certificate decodes into, ordered
    by certificate.

    Grows each level once, from the one yielded before it (`_grow`, after
    Brinkmann and McKay, *Posets on up to 16 points*, Order 2002): every poset
    on k elements is one on k-1 elements with a maximal element put back
    above the order ideal it covered.  Class counts for d = 1..7 are 1, 2, 5,
    16, 63, 318, 2045, which the test suite pins as a generator self-check.
    """
    level = [Poset(0, ())]
    for k in range(1, max_d + 1):
        level = [Poset(k, _rows(c)) for c in sorted(_grow(level, k))]
        yield level


def _grow(level: Iterable[Poset], k: int) -> set[tuple[int, int]]:
    """The certificates of the classes on k elements: each class on k-1
    elements, given as its smallest relabeling (which is naturally labeled),
    with a new top element k-1 above one of its order ideals.  The new
    element is maximal and its down-set is that ideal, so every class is
    reached, and one relabeling is computed per pair."""
    top = 1 << (k - 1)
    grown: set[tuple[int, int]] = set()
    for p in level:
        # a natural labeling puts everything below v before v
        ideals = [0]
        for v, under in enumerate(p.below):
            ideals += [ideal | 1 << v for ideal in ideals if under & ~ideal == 0]
        for ideal in ideals:
            q = Poset(k, tuple(m | top if ideal >> v & 1 else m for v, m in enumerate(p.above)) + (0,))
            grown.add(poset_certificate(q))
    return grown


def _smallest_relabeling(p: Poset) -> tuple[int, ...]:
    """The canonical form of p's class: its smallest upper-triangular
    relation mask, as ``above`` masks, where bit k of the mask is the k-th
    pair (i, j), i < j, in lexicographic order.

    Relabeling along a linear extension puts the element at position i in
    row i, whose bits are the positions above it; later rows are the higher
    bits.  So the extension is filled from the top position down, each
    position with a maximal unplaced element whose row (the positions above
    it) is smallest, and every tie is carried along.  Ties whose unplaced
    elements see the same positions above them have the same future, and are
    kept once.
    """
    d = p.element_count
    rows = [0] * d
    states = {((1 << d) - 1, (0,) * d)}  # (unplaced elements, positions above each)
    for i in range(d - 1, -1, -1):
        best, ties = None, []
        for unplaced, seen in states:
            rest = unplaced
            while rest:  # the set bits of `unplaced`, inline: this loop is the generator's hot path
                low = rest & -rest
                rest ^= low
                u = low.bit_length() - 1
                if p.above[u] & unplaced:
                    continue
                row = seen[u]
                if best is None or row < best:
                    best, ties = row, []
                if row == best:
                    ties.append((unplaced, seen, u))
        rows[i] = best
        states = set()
        for unplaced, seen, u in ties:
            after = list(seen)
            after[u] = 0
            rest = p.below[u]
            while rest:
                low = rest & -rest
                rest ^= low
                after[low.bit_length() - 1] |= 1 << i
            states.add((unplaced & ~(1 << u), tuple(after)))
    return tuple(rows)


# ---------------------------------------------------------------------------
# file format: `elements <d>` then `cover <a> <b>` lines; `#` comments


def parse_poset_file(text: str) -> Poset:
    element_count: int | None = None
    covers: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "elements":
            if element_count is not None:
                raise InputFormatError("duplicate 'elements' line", lineno)
            if len(fields) != 2 or not fields[1].isdecimal():
                raise InputFormatError("expected 'elements <d>'", lineno)
            try:
                element_count = int(fields[1])
            except ValueError:  # more digits than int() converts
                raise InputFormatError("element count is too large", lineno)
        elif fields[0] == "cover":
            if element_count is None:
                raise InputFormatError("'cover' before 'elements'", lineno)
            if len(fields) != 3:
                raise InputFormatError("expected 'cover <a> <b>'", lineno)
            try:
                a, b = int(fields[1]), int(fields[2])
            except ValueError:
                raise InputFormatError("cover endpoints must be integers", lineno)
            if not (0 <= a < element_count and 0 <= b < element_count):
                raise InputFormatError(
                    f"element out of range 0..{element_count - 1}", lineno
                )
            if a == b:
                raise InputFormatError("cover relation must be irreflexive", lineno)
            covers.append((a, b))
        else:
            raise InputFormatError(f"unknown directive {fields[0]!r}", lineno)
    if element_count is None:
        raise InputFormatError("missing 'elements <d>' line")
    # every route refuses a poset above the element cap, so a larger header
    # is refused before any per-element work
    _check_element_cap(element_count)
    try:
        return Poset.from_relation(element_count, covers)
    except ValueError as exc:
        raise InputFormatError(str(exc))


def format_poset_file(p: Poset) -> str:
    lines = [f"elements {p.element_count}"]
    lines += [f"cover {a} {b}" for a, b in p.cover_pairs()]
    return "\n".join(lines) + "\n"
