"""Grid posets k^t, subgrids, lex/colex orders, casual embeddings and cores.

Grid elements are t-tuples over {0..k-1}, indexed in mixed radix with the
leftmost coordinate most significant, so index order equals lexicographic
order on coordinate tuples.
"""

from __future__ import annotations

import math
from itertools import accumulate, combinations, product as iproduct
from operator import or_
from typing import Iterator, Sequence

from .errors import ContractViolation, DomainError, GuardExceeded, Record
from .poset import (
    LinearExtension,
    Poset,
    count_linear_extensions,
    induced_subposet,
    is_realizer,
    linear_extensions,
    order_embedding_violation,
    realizer_tuples,
)

GRID_ELEMENT_GUARD = 4096
CASUAL_TUPLE_GUARD = 2_000_000


class GridPoset(Poset):
    """The product of the k-element chain with itself t times.

    Built by ``grid``, whose rows are a strict order by construction, so the
    rows are stored as given: ``Poset``'s check of every comparable pair is
    skipped, and ``inc`` is derived from ``up`` and ``dn``.
    """

    __slots__ = ("k", "t")

    def __init__(self, k: int, t: int, up: Sequence[int], dn: Sequence[int]):
        n = len(up)
        full = (1 << n) - 1
        self.n = n
        self.up = tuple(up)
        self.dn = tuple(dn)
        self.labels = None
        self.inc = tuple(full & ~(u | d | (1 << i))
                         for i, (u, d) in enumerate(zip(self.up, self.dn)))
        self.k = k
        self.t = t

    def coords(self, idx: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.t):
            idx, c = divmod(idx, self.k)
            out.append(c)
        return tuple(reversed(out))

    def index(self, coords: Sequence[int]) -> int:
        idx = 0
        for c in coords:
            if not 0 <= c < self.k:
                raise ContractViolation(f"coordinate {c} outside 0..{self.k - 1}")
            idx = idx * self.k + c
        return idx

    def proj(self, axis: int, idx: int) -> int:
        return self.coords(idx)[axis]

    def __repr__(self) -> str:
        return f"GridPoset(k={self.k}, t={self.t})"


def grid_size(k: int, t: int, guard_elements: int = GRID_ELEMENT_GUARD) -> int:
    """The number of elements of k^t, refused as ``grid`` refuses that grid."""
    if k < 1 or t < 1:
        raise ContractViolation("grid needs k >= 1 and t >= 1")
    n = k ** t
    if n > guard_elements:
        raise GuardExceeded(f"grid would have {n} elements (guard {guard_elements})")
    return n


def grid(k: int, t: int, guard_elements: int = GRID_ELEMENT_GUARD) -> GridPoset:
    """The k^t grid with componentwise order and projection accessors."""
    n = grid_size(k, t, guard_elements)
    # The closed up- and downsets, intersected axis by axis in index order.
    # On axis a, the elements with coordinate v form runs of k^(t-1-a)
    # indices, one run in every k^(t-a), so the mask of each value is one
    # run times ``repeat``, whose bits start those periods; ge and le are
    # the masks of the coordinates >= v and <= v.
    up, dn = [-1], [-1]
    for a in range(t):
        run = k ** (t - 1 - a)
        repeat = ((1 << n) - 1) // ((1 << (run * k)) - 1)
        at = [(((1 << run) - 1) << (v * run)) * repeat for v in range(k)]
        ge = list(accumulate(reversed(at), or_))[::-1]
        le = list(accumulate(at, or_))
        up = [row & mask for row in up for mask in ge]
        dn = [row & mask for row in dn for mask in le]
    return GridPoset(k, t, [row ^ (1 << i) for i, row in enumerate(up)],
                     [row ^ (1 << i) for i, row in enumerate(dn)])


# -- subgrids -------------------------------------------------------------------


class Subgrid(Record):
    """Coordinate sets S_1..S_t; induces an |S_1| x ... x |S_t| grid."""

    axes: tuple[tuple[int, ...], ...]

    def __init__(self, axes: tuple[tuple[int, ...], ...]):
        for s in axes:
            if not s:
                raise ContractViolation("subgrid axis sets must be nonempty")
            if tuple(sorted(set(s))) != s:
                raise ContractViolation("subgrid axis sets must be sorted and duplicate-free")
        object.__setattr__(self, "axes", axes)

    @classmethod
    def of(cls, *axes: Sequence[int]) -> "Subgrid":
        return cls(tuple(tuple(sorted(set(s))) for s in axes))

    @classmethod
    def full(cls, n: int, t: int) -> "Subgrid":
        return cls(tuple(tuple(range(n)) for _ in range(t)))

    @property
    def t(self) -> int:
        return len(self.axes)

    def sides(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.axes)

    def element_coords(self) -> Iterator[tuple[int, ...]]:
        yield from iproduct(*self.axes)

    def element_indices(self, g: GridPoset) -> tuple[int, ...]:
        if g.t != self.t:
            raise ContractViolation("subgrid dimension does not match the grid")
        return tuple(g.index(c) for c in self.element_coords())

    def induced(self, g: GridPoset) -> Poset:
        return induced_subposet(g, self.element_indices(g))

    def min_max_coords(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return tuple(s[0] for s in self.axes), tuple(s[-1] for s in self.axes)


def enumerate_subgrids(n: int, t: int, m: int) -> Iterator[Subgrid]:
    """All subgrids with |S_i| = m inside n^t, in deterministic order."""
    if not 1 <= m <= n:
        raise ContractViolation("need 1 <= m <= n for subgrid enumeration")
    for axes in iproduct(combinations(range(n), m), repeat=t):
        yield Subgrid(axes)


def count_subgrids(n: int, t: int, m: int) -> int:
    return math.comb(n, m) ** t


def subgrids_within(sub: Subgrid, m: int) -> Iterator[Subgrid]:
    """All m-side subgrids whose axis sets are subsets of ``sub``'s."""
    for axes in iproduct(*[combinations(s, m) for s in sub.axes]):
        yield Subgrid(axes)


# -- lex / colex orders -----------------------------------------------------------


def lex_order(s: int) -> LinearExtension:
    """Lexicographic (left-to-right) total order on the pairs of s^2."""
    if s < 1:
        raise ContractViolation("lex order needs s >= 1")
    return LinearExtension(tuple(range(s * s)))


def colex_order(s: int) -> LinearExtension:
    """Colexicographic (right-to-left) total order on the pairs of s^2."""
    if s < 1:
        raise ContractViolation("colex order needs s >= 1")
    return LinearExtension(tuple(s * i + j for j in range(s) for i in range(s)))


# -- casual embeddings -------------------------------------------------------------


class CasualEmbedding(Record):
    """An order-embedding of s^t into (s^t)^t with no coordinate ties.

    ``images[x]`` is the coordinate tuple of the image of source element x;
    per axis, the image coordinates are a bijection onto {0..s^t-1}.
    """

    s: int
    t: int
    images: tuple[tuple[int, ...], ...]

    def __init__(self, s: int, t: int, images: tuple[tuple[int, ...], ...]):
        Record.__init__(self, s, t, images)
        self.validate()

    @property
    def side(self) -> int:
        return self.s ** self.t

    def image_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.images)

    def validate(self) -> None:
        n = self.s ** self.t
        if len(self.images) != n:
            raise ContractViolation("casual embedding must map every source element")
        if any(len(img) != self.t for img in self.images):
            raise ContractViolation(
                f"each image must have t = {self.t} coordinates")
        for axis in range(self.t):
            seen = sorted(img[axis] for img in self.images)
            if seen != list(range(n)):
                raise ContractViolation(
                    f"axis {axis} coordinates are not a bijection onto 0..{n - 1}")
        bad = order_embedding_violation(grid(self.s, self.t), self.images)
        if bad is not None:
            raise ContractViolation(f"order-embedding property fails on source pair {bad}")


def casual_embeddings(s: int, t: int,
                      guard_tuples: int = CASUAL_TUPLE_GUARD) -> list[CasualEmbedding]:
    """All casual embeddings of s^t into (s^t)^t, deterministic order.

    Each embedding corresponds to an ordered t-tuple of linear extensions
    whose set is a realizer: coordinate i of the image of x is the position
    of x in the i-th extension. For t = 2 the uniqueness lemma makes the
    output a pair with a shared image set.
    """
    if s < 1 or t < 1:
        raise ContractViolation("casual embeddings need s >= 1 and t >= 1")
    source = grid(s, t, guard_elements=65536)
    exts = linear_extensions(source, cap=16)
    if len(exts) ** t > guard_tuples:
        raise GuardExceeded(
            f"{len(exts)}^{t} extension tuples exceed guard {guard_tuples}")
    return [CasualEmbedding(s, t, tuple(tuple(exts[i].index(x) for i in combo)
                                        for x in range(source.n)))
            for combo in realizer_tuples(source, t, exts)]


# -- cores ---------------------------------------------------------------------


def core(sub: Subgrid) -> frozenset[tuple[int, int]]:
    """The image of the casual embedding of s^2 into a subgrid of side s^2.

    Coordinates are ambient: local point (s*i+j, s*j+i) is routed through the
    subgrid's sorted axis sets. The result induces a copy of the s^2 grid.
    """
    if sub.t != 2:
        raise DomainError("cores are defined for 2-dimensional subgrids")
    side = sub.sides()
    if side[0] != side[1]:
        raise DomainError("cores need equal side lengths")
    l = side[0]
    s = math.isqrt(l)
    if s * s != l:
        raise DomainError(f"side {l} is not a perfect square")
    s1, s2 = sub.axes
    return frozenset(
        (s1[s * i + j], s2[s * j + i]) for i in range(s) for j in range(s))


def core_elements(sub: Subgrid, g: GridPoset) -> tuple[int, ...]:
    """Core as sorted ambient element indices of ``g``."""
    return tuple(sorted(g.index(c) for c in core(sub)))


# -- Lemma 6.3 exhaustive check -----------------------------------------------------


def obstruction_sets(s: int) -> tuple[tuple, tuple]:
    """The I_1 / I_2 incomparable-pair families forcing lex and colex.

    Every cross choice of one pair from each family is an alternating
    2-cycle, so no linear extension reverses members of both families.
    """
    i1 = tuple(((i + 1, 0), (i, s - 1)) for i in range(s - 1))
    i2 = tuple(((0, j + 1), (s - 1, j)) for j in range(s - 1))
    return i1, i2


class UniqueRealizerReport(Record):
    s: int
    extension_count: int
    pairs_checked: int
    realizer_pairs: tuple[tuple[LinearExtension, LinearExtension], ...]
    unique: bool
    matches_lex_colex: bool
    obstruction_i1: tuple
    obstruction_i2: tuple
    method: str


def unique_realizer_check(s: int) -> UniqueRealizerReport:
    """Enumerate extension pairs of s^2 and certify the two-extension realizer.

    For s <= 3 every unordered pair is tested by ``realizer_tuples``; for s = 4 each
    extension's unique candidate partner (reverse every incomparable pair)
    is constructed and validated, which checks all pairs implicitly. Both
    routes are cross-checked where both run.
    """
    if not 2 <= s <= 4:
        if s < 2:
            raise ContractViolation("the unique-realizer lemma needs s >= 2")
        raise GuardExceeded("unique_realizer_check enumeration capped at s = 4")
    g = grid(s, 2)
    exts = linear_extensions(g, cap=16)
    if len(exts) != count_linear_extensions(g):
        raise ContractViolation("extension enumeration disagrees with the recursive counter")

    forced = _forced_partner_pairs(g, exts)
    pairs_checked = len(exts) * (len(exts) - 1) // 2
    if len(exts) <= 50:
        direct = [(exts[i], exts[j]) for i, j in realizer_tuples(g, 2, exts) if i < j]
        if sorted(tuple(sorted((a.order, b.order))) for a, b in direct) != \
                sorted(tuple(sorted((a.order, b.order))) for a, b in forced):
            raise ContractViolation("pair scan and forced-partner scan disagree")
        found = tuple(direct)
        method = "pairs+forced"
    else:
        found = tuple(forced)
        method = "forced"

    expected = {lex_order(s).order, colex_order(s).order}
    matches = (len(found) == 1
               and {found[0][0].order, found[0][1].order} == expected)
    i1, i2 = obstruction_sets(s)
    return UniqueRealizerReport(
        s=s,
        extension_count=len(exts),
        pairs_checked=pairs_checked,
        realizer_pairs=found,
        unique=len(found) == 1,
        matches_lex_colex=matches,
        obstruction_i1=i1,
        obstruction_i2=i2,
        method=method,
    )


def _forced_partner_pairs(g: Poset, exts: Sequence[LinearExtension]):
    """For each extension, build the unique order reversing every incomparable
    pair and keep those that form realizers."""
    n = g.n
    by_order = {e.order: k for k, e in enumerate(exts)}
    seen = set()
    out = []
    for e in exts:
        above = e.above_masks()
        ranks = [(g.dn[x] | (g.inc[x] & above[x])).bit_count() for x in range(n)]
        if sorted(ranks) != list(range(n)):
            continue
        order = tuple(x for _, x in sorted((r, x) for x, r in enumerate(ranks)))
        partner_idx = by_order.get(order)
        if partner_idx is None:
            continue
        partner = exts[partner_idx]
        if partner.order == e.order:
            continue
        key = tuple(sorted((e.order, partner.order)))
        if key in seen:
            continue
        seen.add(key)
        if is_realizer(g, [e, partner]):
            out.append((e, partner))
    return out
