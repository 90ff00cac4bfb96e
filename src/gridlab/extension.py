"""Machinery for matching linear extensions on grids.

Hypercubes of a grid are identified with bit strings per axis; antipodal
point pairs correspond to 2-partitions of the axis set. Each linear
extension scores a hypercube's antipodal pair good (natural by coordinate)
or bad, giving G/B color strings. Once colors are uniform and a partition is
monochromatic, every digit must be good, or an alternating cycle falsifies
the extension; the good partition then drives a conforming embedding whose
heights come from one shared extension plus a realizer.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import ContractViolation, Record
from .grids import GridPoset, Subgrid, enumerate_subgrids, grid
from .poset import (
    LinearExtension,
    Poset,
    find_realizer,
    is_alternating_cycle,
    is_linear_extension,
    is_realizer,
    order_embedding_violation,
)
from .ramsey import (
    KIND_PARTITION,
    NODE_GUARD,
    ThresholdResult,
    Verdict,
    index_structures,
    induced_copies,
    run_engine,
    scan_threshold,
)

PARTITION_KEY_GUARD = 200_000


# -- partitions -----------------------------------------------------------------


class Partition(Record):
    """Ordered parts (disjoint, nonempty, exact cover of 0..ground-1)."""

    parts: tuple[tuple[int, ...], ...]

    def __init__(self, parts: tuple[tuple[int, ...], ...]):
        seen: set[int] = set()
        for part in parts:
            if not part:
                raise ContractViolation("partition parts must be nonempty")
            members = set(part)
            if tuple(sorted(members)) != part:
                raise ContractViolation("parts must be sorted and duplicate-free")
            if not seen.isdisjoint(members):
                raise ContractViolation("parts must be disjoint")
            seen |= members
        if seen != set(range(len(seen))):
            raise ContractViolation("parts must cover 0..ground-1 exactly")
        object.__setattr__(self, "parts", parts)

    @classmethod
    def of(cls, parts: Iterable[Iterable[int]]) -> "Partition":
        return cls(tuple(tuple(sorted(set(p))) for p in parts))

    @property
    def ground(self) -> int:
        return sum(len(p) for p in self.parts)

    def canonical(self) -> "Partition":
        return Partition(tuple(sorted(self.parts, key=lambda p: p[0])))

    def part_of(self, i: int) -> int:
        for idx, part in enumerate(self.parts):
            if i in part:
                return idx
        raise ContractViolation(f"{i} is not in the partition's ground set")


def set_partitions_into(items: Sequence, blocks: int) -> Iterator[tuple[tuple, ...]]:
    """All partitions of ``items`` into exactly ``blocks`` nonempty blocks.

    Deterministic: items are consumed in order and blocks are listed by
    their first (smallest-index) member.
    """
    items = list(items)
    n = len(items)
    if blocks < 1 or blocks > n:
        return
    acc: list[list] = []

    def rec(i: int) -> Iterator[tuple[tuple, ...]]:
        if i == n:
            if len(acc) == blocks:
                yield tuple(tuple(block) for block in acc)
            return
        remaining = n - i
        for block in acc:
            if len(acc) + remaining - 1 >= blocks:
                block.append(items[i])
                yield from rec(i + 1)
                block.pop()
        if len(acc) < blocks:
            acc.append([items[i]])
            yield from rec(i + 1)
            acc.pop()

    yield from rec(0)


def partitions_of_range(k: int, blocks: int) -> Iterator[Partition]:
    for parts in set_partitions_into(range(k), blocks):
        yield Partition.of(parts).canonical()


def coarsen(pi: Partition, grouping: Sequence[Sequence[int]]) -> Partition:
    """Union ``pi``'s parts per group; groups index into ``pi.parts``."""
    used: set[int] = set()
    new_parts = []
    for group in grouping:
        if not group:
            raise ContractViolation("coarsening groups must be nonempty")
        merged: set[int] = set()
        for idx in group:
            if idx in used or not 0 <= idx < len(pi.parts):
                raise ContractViolation("grouping must partition the part indices")
            used.add(idx)
            merged |= set(pi.parts[idx])
        new_parts.append(tuple(sorted(merged)))
    if used != set(range(len(pi.parts))):
        raise ContractViolation("grouping must cover every part")
    return Partition(tuple(new_parts))


def coarsenings(pi: Partition, s: int) -> Iterator[Partition]:
    """All s-partitions generated from ``pi`` by unifying parts."""
    for grouping in set_partitions_into(range(len(pi.parts)), s):
        yield coarsen(pi, grouping).canonical()


# -- antipodal pairs ---------------------------------------------------------------


class AntipodalPair(Record):
    """Two complementary non-constant bit strings; ``low`` starts with '0'."""

    low: str

    def __init__(self, low: str):
        if set(low) - {"0", "1"} or not low:
            raise ContractViolation("antipodal strings are nonempty over {0,1}")
        if low[0] != "0":
            raise ContractViolation("the representative string starts with 0")
        if set(low) == {"0"}:
            raise ContractViolation("the constant pair is not antipodal")
        object.__setattr__(self, "low", low)

    @property
    def high(self) -> str:
        return "".join("1" if b == "0" else "0" for b in self.low)

    @property
    def t(self) -> int:
        return len(self.low)


def antipodal_pairs(t: int) -> list[AntipodalPair]:
    """All 2^(t-1) - 1 antipodal pairs, ascending by representative."""
    if t < 2:
        raise ContractViolation("antipodal pairs need t >= 2")
    out = []
    for v in range(1, 1 << (t - 1)):
        low = format(v, f"0{t}b")
        out.append(AntipodalPair(low))
    return out


def pair_to_partition(pair: AntipodalPair) -> Partition:
    """Axis i joins the part of its bit; the zero part (with axis 0) is first."""
    zeros = tuple(i for i, b in enumerate(pair.low) if b == "0")
    ones = tuple(i for i, b in enumerate(pair.low) if b == "1")
    return Partition((zeros, ones))


def partition_to_pair(pi: Partition) -> AntipodalPair:
    if len(pi.parts) != 2:
        raise ContractViolation("antipodal pairs correspond to 2-partitions")
    canon = pi.canonical()
    zeros = set(canon.parts[0])
    low = "".join("0" if i in zeros else "1" for i in range(pi.ground))
    return AntipodalPair(low)


# -- hypercube colors --------------------------------------------------------------


def color_hypercube(g: GridPoset, cube: Subgrid, pair: AntipodalPair,
                    exts: Sequence[LinearExtension]) -> str:
    """G/B string: digit i is G iff ext i orders the antipodal points
    naturally by the i-th coordinate of their bit strings."""
    if cube.t != g.t or any(len(ax) != 2 for ax in cube.axes):
        raise ContractViolation("hypercubes are 2-side subgrids of the ambient grid")
    if pair.t != g.t:
        raise ContractViolation("antipodal string length must equal the grid dimension")
    if len(exts) > g.t:
        raise ContractViolation("more extensions than axes; raise t to at least k")
    low_pt = g.index(tuple(ax[int(b)] for ax, b in zip(cube.axes, pair.low)))
    high_pt = g.index(tuple(ax[1 - int(b)] for ax, b in zip(cube.axes, pair.low)))
    digits = []
    for i, ext in enumerate(exts):
        zero_pt, one_pt = (low_pt, high_pt) if pair.low[i] == "0" else (high_pt, low_pt)
        digits.append("G" if ext.before(zero_pt, one_pt) else "B")
    return "".join(digits)


def collect_uniform_pair_colors(g: GridPoset, exts: Sequence[LinearExtension]
                                ) -> dict[Partition, str]:
    """Replay the post-shrinking state: per antipodal pair, the one color all
    hypercubes carry. A non-uniform pair is a contract violation naming it."""
    for ext in exts:
        if not is_linear_extension(g, ext):
            raise ContractViolation("orders must be linear extensions of the grid")
    colors: dict[Partition, str] = {}
    cubes = list(enumerate_subgrids(g.k, g.t, 2))
    for pair in antipodal_pairs(g.t):
        seen: Optional[str] = None
        for cube in cubes:
            c = color_hypercube(g, cube, pair, exts)
            if seen is None:
                seen = c
            elif seen != c:
                raise ContractViolation(
                    f"pair {pair.low}/{pair.high} is not uniform: {seen} vs {c}")
        colors[pair_to_partition(pair).canonical()] = seen or ""
    return colors


# -- the all-good argument ------------------------------------------------------------


class AlternatingCycleCertificate(Record):
    """Names the parts and points that contradict a bad digit."""

    digit: int
    axis: int
    part_a: tuple[int, ...]
    part_b: tuple[int, ...]
    part_c: tuple[int, ...]
    string_b: str
    string_c: str
    cycle_pairs: tuple[tuple[int, int], tuple[int, int]]

    def cube(self) -> GridPoset:
        return grid(2, len(self.string_b))


class AllGoodResult(Record):
    verdict: bool
    color: str
    certificate: Optional[AlternatingCycleCertificate]


def two_coarsening_colors(psi: Partition, pair_colors: Mapping[Partition, str]
                          ) -> list[str]:
    out = []
    for idx in range(len(psi.parts)):
        rest = sorted(set(range(psi.ground)) - set(psi.parts[idx]))
        two = Partition.of([psi.parts[idx], rest]).canonical()
        if two not in pair_colors:
            raise ContractViolation(
                f"no color recorded for the 2-coarsening {two.parts}")
        out.append(pair_colors[two])
    return out


def all_good_check(psi: Partition, pair_colors: Mapping[Partition, str]
                   ) -> AllGoodResult:
    """Verdict true iff the partition's common color is all G.

    A bad digit i yields the proof's contradiction: two parts other than the
    one holding axis i give antipodal pairs forming an alternating cycle that
    extension i would have to reverse entirely. The certificate is validated
    with the alternating-cycle test before it is returned.
    """
    if len(psi.parts) < 3:
        raise ContractViolation("the all-good argument needs at least three parts")
    colors = two_coarsening_colors(psi, pair_colors)
    r0 = colors[0]
    if any(c != r0 for c in colors):
        raise ContractViolation("the partition is not monochromatic")
    t = psi.ground
    if len(r0) > t:
        raise ContractViolation("color length exceeds the axis count")
    bad = [i for i, d in enumerate(r0) if d == "B"]
    if not bad:
        return AllGoodResult(True, r0, None)
    i = bad[0]
    a_idx = psi.part_of(i)
    others = [j for j in range(len(psi.parts)) if j != a_idx]
    b_idx, c_idx = others[0], others[1]
    part_b, part_c = psi.parts[b_idx], psi.parts[c_idx]
    string_b = "".join("1" if j in set(part_b) else "0" for j in range(t))
    string_c = "".join("1" if j in set(part_c) else "0" for j in range(t))
    cube = grid(2, t)
    b_pt = cube.index(tuple(int(ch) for ch in string_b))
    b_comp = cube.index(tuple(1 - int(ch) for ch in string_b))
    c_pt = cube.index(tuple(int(ch) for ch in string_c))
    c_comp = cube.index(tuple(1 - int(ch) for ch in string_c))
    pairs = ((b_pt, b_comp), (c_pt, c_comp))
    if not is_alternating_cycle(cube, pairs):
        raise ContractViolation("constructed certificate failed the cycle test")
    cert = AlternatingCycleCertificate(
        digit=i, axis=i,
        part_a=psi.parts[a_idx], part_b=part_b, part_c=part_c,
        string_b=string_b, string_c=string_c,
        cycle_pairs=pairs)
    return AllGoodResult(False, r0, cert)


# -- conforming embeddings -------------------------------------------------------------


class ConformingEmbedding(Record):
    """x maps to (chi_1(x), .., chi_t(x)); chi_j is the 1-based height of x in
    the extension attached to the part containing axis j."""

    k: int
    partition: Partition
    extensions: tuple[LinearExtension, ...]
    heights: tuple[tuple[int, ...], ...]

    @property
    def t(self) -> int:
        return self.partition.ground

    def grid_coords(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(h - 1 for h in chi) for chi in self.heights)


def build_conforming_embedding(x: Poset, m: LinearExtension, k: int, psi: Partition,
                               realizer: Optional[Sequence[LinearExtension]] = None
                               ) -> ConformingEmbedding:
    """Embed x into grid(|x|, t) with the first k coordinate groups driven by m.

    psi's parts are labeled in order; the first k parts must jointly contain
    axes 0..k-1, parts k+1.. take a realizer of x (brute-forced when not
    supplied). Validates the order-embedding, the height bounds, and that
    every pair increasing in m has comparison digit 0 on every axis of the
    first k parts.
    """
    if k < 1:
        raise ContractViolation("k must be positive")
    if not is_linear_extension(x, m):
        raise ContractViolation("m is not a linear extension of x")
    s = len(psi.parts) - k
    if s < 1:
        raise ContractViolation("the partition needs more parts than k")
    first_axes = set()
    for part in psi.parts[:k]:
        first_axes |= set(part)
    if not set(range(k)) <= first_axes:
        raise ContractViolation("axes 0..k-1 must lie in the first k parts")
    if realizer is None:
        rz = find_realizer(x, s)
        if rz is None:
            raise ContractViolation(
                f"x has no realizer of size {s}; enlarge the partition")
        realizer = rz.extensions
    else:
        realizer = tuple(realizer)
        if len(realizer) != s:
            raise ContractViolation(f"the realizer must have exactly {s} extensions")
        if not is_realizer(x, realizer):
            raise ContractViolation("supplied extensions do not realize x")
    extensions = tuple([m] * k) + tuple(realizer)
    t = psi.ground
    axis_ext = [0] * t
    for part_idx, part in enumerate(psi.parts):
        for axis in part:
            axis_ext[axis] = part_idx
    heights = []
    for elt in range(x.n):
        chi = tuple(extensions[axis_ext[axis]].height(elt) for axis in range(t))
        if not all(1 <= h <= x.n for h in chi):
            raise ContractViolation("heights left the 1..|x| range")
        heights.append(chi)
    if order_embedding_violation(x, heights) is not None:
        raise ContractViolation("height map is not an order-embedding")
    for a in range(x.n):
        for b in range(x.n):
            if a == b or not m.before(a, b):
                continue
            for axis in range(t):
                if axis_ext[axis] < k and heights[a][axis] > heights[b][axis]:
                    raise ContractViolation(
                        "a pair increasing in m has a nonzero digit on a shared axis")
    return ConformingEmbedding(k, psi, extensions, tuple(heights))


# -- the Rothschild partition search ---------------------------------------------------


def _verify_partition_level(s: int, t: int, r: int, k: int, node_guard: int,
                            workers: int) -> Verdict:
    keys = [pi.parts for pi in partitions_of_range(k, s)]
    if len(keys) > PARTITION_KEY_GUARD:
        return Verdict("inconclusive",
                       reason=f"{len(keys)} s-partitions exceed the key guard")
    structures = index_structures(keys, ([c.parts for c in coarsenings(pi, s)]
                                         for pi in partitions_of_range(k, t)))
    return run_engine(keys, structures, r, KIND_PARTITION, node_guard, workers)


def partition_ramsey_search(s: int, t: int, r: int, k_max: int,
                            node_guard: int = NODE_GUARD,
                            workers: int = 1) -> ThresholdResult:
    """Least k in t..k_max such that every r-coloring of the s-partitions of
    [k] has a t-partition whose s-coarsenings all share a color. Colorings
    are keyed by the canonical ``Partition.parts`` tuples."""
    if s > t:
        raise ContractViolation("coarsening to s parts needs s <= t")
    if s < 1 or r < 1:
        raise ContractViolation("s and r must be positive")
    return scan_threshold(range(t, k_max + 1), lambda k: _verify_partition_level(
        s, t, r, k, node_guard, workers))


# -- the two-extension counterexample demo ----------------------------------------------


class NonuniformDemoReport(Record):
    conflict_pair: tuple[int, int]
    embeddings_checked: int


def nonuniform_counterexample_demo(x: Poset, m1: LinearExtension, m2: LinearExtension,
                                   q: Optional[Poset] = None,
                                   q_ext: Optional[LinearExtension] = None
                                   ) -> NonuniformDemoReport:
    """Why per-extension targets fail: with L_1 = L_2, no single embedded copy
    can conform to two extensions that disagree on an incomparable pair.

    Returns the first conflicting pair (a, b): a before b in m1, after in m2.
    With a candidate poset q and one extension of it, additionally scans
    every embedding of x into q and confirms none conforms to both.
    """
    if m1 == m2:
        raise ContractViolation("the demo needs two distinct extensions")
    for ext in (m1, m2):
        if not is_linear_extension(x, ext):
            raise ContractViolation("both orders must be linear extensions of x")
    conflict = None
    for a in range(x.n):
        for b in range(x.n):
            if a != b and m1.before(a, b) and m2.before(b, a):
                conflict = (a, b)
                break
        if conflict:
            break
    if conflict is None:
        raise ContractViolation("distinct extensions must disagree somewhere")
    checked = 0
    if q is not None:
        if q_ext is None or not is_linear_extension(q, q_ext):
            raise ContractViolation("supply a linear extension of the candidate poset")
        for image in induced_copies(q, x, guard_nodes=10_000_000):
            checked += 1
            conforms1 = all(q_ext.before(image[a], image[b])
                            for a in range(x.n) for b in range(x.n)
                            if a != b and m1.before(a, b))
            conforms2 = all(q_ext.before(image[a], image[b])
                            for a in range(x.n) for b in range(x.n)
                            if a != b and m2.before(a, b))
            if conforms1 and conforms2:
                raise ContractViolation(
                    "an embedding conformed to both extensions; demo premise broken")
    return NonuniformDemoReport(conflict, checked)
