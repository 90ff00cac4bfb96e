"""Coloring reductions and desk-scale Ramsey searches over grids and posets.

Four kinds of colorings reach ``gridlab.engine`` through ``run_engine``:

* ``comparability`` -- keys are ordered pairs (a, b) with a < b;
* ``subgrid``       -- keys are m-side subgrids of n^t;
* ``subposet-copy`` -- keys are induced m^t-grid copies (element sets);
* ``partition``     -- keys are s-partitions of range(k) (``extension``).

A "structure" is the key set of a candidate monochromatic object. Verifying
a Ramsey witness means proving no r-coloring leaves every structure
non-monochromatic. This module builds the keys and structures of each kind,
declares the ``Symmetry`` of the subgrid and chain instances, and reads the
engine's coloring back as a verdict; guard exhaustion is a distinct
inconclusive verdict, never False.
"""

from __future__ import annotations

import hashlib
import math
from heapq import merge
from itertools import chain, combinations, compress, product as iproduct, repeat
from operator import add, eq, itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .engine import (
    NODE_GUARD,
    Symmetry,
    _check_deadline,
    box_symmetry,
    search_counterexample,
    vertex_symmetry,
)
from .errors import ChainStepFailure, ContractViolation, GuardExceeded, Record
from .grids import GridPoset, Subgrid, grid
from .poset import (
    Poset,
    induced_embeddings,
    orbit_checks,
    order_checks,
    order_embedding_violation,
)

# Bound here only because bench/spans.py traces these two through gridlab.ramsey.
from .engine import _parallel_counterexample
from .probe import realizer_type_probe

KIND_COMPARABILITY = "comparability"
KIND_SUBGRID = "subgrid"
KIND_SUBPOSET = "subposet-copy"
KIND_PARTITION = "partition"

COPY_GUARD = 2_000_000
STRUCTURE_GUARD = 5_000_000

# -- colorings ----------------------------------------------------------------


def _require_colors(r: int) -> None:
    if r < 1:
        raise ContractViolation("color count must be positive")


class Coloring:
    """A total map from canonical structure keys to colors 1..r."""

    def __init__(self, kind: str, r: int):
        if kind not in (KIND_COMPARABILITY, KIND_SUBGRID, KIND_SUBPOSET, KIND_PARTITION):
            raise ContractViolation(f"unknown coloring kind {kind!r}")
        _require_colors(r)
        self.kind = kind
        self.r = r

    def color_of(self, key) -> int:
        raise NotImplementedError

    def colors(self, keys: Iterable) -> Iterable[int]:
        """The colors of ``keys`` in order: one ``color_of`` call per key, made
        as the result is consumed, so a missing key raises where it stands."""
        return map(self.color_of, keys)


class MapColoring(Coloring):
    """Dict-backed coloring; keys must already be canonical."""

    def __init__(self, kind: str, r: int, assignment: Mapping):
        super().__init__(kind, r)
        self.assignment = dict(assignment)
        for key, color in self.assignment.items():
            if not 1 <= color <= r:
                raise ContractViolation(f"color {color} of key {key!r} outside 1..{r}")

    def color_of(self, key) -> int:
        try:
            return self.assignment[key]
        except KeyError:
            raise ContractViolation(f"coloring is not total: missing key {key!r}") from None

    def colors(self, keys: Iterable) -> list[int]:
        """The colors of ``keys``, read from the map in one pass; a missing key
        raises as in ``color_of``, once the keys before it are read."""
        try:
            return list(map(self.assignment.__getitem__, keys))
        except KeyError as exc:
            raise ContractViolation(f"coloring is not total: missing key {exc.args[0]!r}") from None

    def items(self):
        return sorted(self.assignment.items())


class FunctionColoring(Coloring):
    """Callable-backed coloring for universes too large to materialize."""

    def __init__(self, kind: str, r: int, fn: Callable):
        super().__init__(kind, r)
        self.fn = fn

    def color_of(self, key) -> int:
        color = self.fn(key)
        if not 1 <= color <= self.r:
            raise ContractViolation(f"function coloring produced color {color}")
        return color


def _hash_prefix(seed: int, tag: str):
    """A BLAKE2b state holding ``(seed, tag, `` -- the shared start of every
    ``repr((seed, tag, key))`` that ``_stable_hash`` finishes."""
    return hashlib.blake2b(f"({seed!r}, {tag!r}, ".encode(), digest_size=8)


def _stable_hash(prefix, key) -> int:
    """The 64-bit BLAKE2b digest of ``repr((seed, tag, key))``, given the
    ``_hash_prefix(seed, tag)`` state, which is copied, not consumed."""
    h = prefix.copy()
    h.update(f"{key!r})".encode())
    return int.from_bytes(h.digest(), "big")


def _key_format(length: int) -> str:
    """``fmt % key == repr(key) + ")"`` for a plain tuple of this length."""
    return "(%r,))" if length == 1 else "(" + ", ".join(["%r"] * length) + "))"


def hash_coloring(kind: str, r: int, seed: int, *,
                  bias_color: Optional[int] = None, bias: float = 0.0) -> FunctionColoring:
    """Seeded, run-stable pseudo-random coloring (blake2, not built-in hash).

    With ``bias`` > 0, each key takes ``bias_color`` with that probability,
    which keeps monochromatic events reachable in soundness sweeps. A bias
    lies in [0, 1], and a positive one needs a ``bias_color`` in 1..r.
    """
    if not 0.0 <= bias <= 1.0:  # NaN fails too
        raise ContractViolation(f"bias {bias!r} outside [0, 1]")
    if bias > 0.0 and bias_color is None:
        raise ContractViolation("a positive bias needs a bias color")
    if bias > 0.0 and not 1 <= bias_color <= r:
        raise ContractViolation(f"bias color {bias_color} outside 1..{r}")
    bias_prefix = _hash_prefix(seed, "bias")
    color_prefix = _hash_prefix(seed, "color")

    def fn(key):
        if bias > 0.0:
            u = _stable_hash(bias_prefix, key) / 2.0 ** 64
            if u < bias:
                return bias_color
        return 1 + _stable_hash(color_prefix, key) % r

    def colors(keys):
        # _stable_hash in one loop, not lazy: no key is ever missing. A plain
        # tuple key is written by a %r template, the same text as its repr
        # and quicker to make (see _key_format).
        copy, from_bytes = color_prefix.copy, int.from_bytes
        formats = {}
        out = []
        for key in keys:
            h = copy()
            if type(key) is tuple:
                fmt = formats.get(len(key))
                if fmt is None:
                    fmt = formats[len(key)] = _key_format(len(key))
                h.update((fmt % key).encode())
            else:
                h.update(f"{key!r})".encode())
            out.append(1 + from_bytes(h.digest(), "big") % r)
        return out

    coloring = FunctionColoring(kind, r, fn)
    coloring.color_of = fn  # fn cannot leave 1..r, so it needs no range check
    if bias == 0.0:
        coloring.colors = colors
    return coloring


def random_map_coloring(kind: str, keys: Iterable, r: int, rng) -> MapColoring:
    return MapColoring(kind, r, {key: rng.randint(1, r) for key in keys})


def comparability_keys(q: Poset) -> tuple[tuple[int, int], ...]:
    """All ordered pairs (a, b) with a < b in q, sorted by (a, b)."""
    return tuple(q.comparable_pairs())


# -- monochromatic witnesses -----------------------------------------------------


class MonoWitness(Record):
    """A substructure all of whose keys carry one color."""

    kind: str
    color: Optional[int]
    subgrid: Optional[Subgrid] = None
    elements: Optional[tuple[int, ...]] = None


# -- coloring reductions ----------------------------------------------------------


def reduce_comparability_product(coloring: Coloring, g: GridPoset) -> tuple[list, list]:
    """The comparability reduction as ``(axes per dimension, colors in product
    order)``: each 2^t subgrid takes the color of its (least, greatest) pair.

    The subgrids are the product of t copies of the sorted pair list, and
    their pairs are colored in that order.
    """
    if coloring.kind != KIND_COMPARABILITY:
        raise ContractViolation("reduction expects a comparability coloring")
    n = g.k
    if n < 2:
        raise ContractViolation(f"the comparability reduction needs n >= 2, got {n}")
    pairs = list(combinations(range(n), 2))
    # (least, greatest), one axis at a time: an index is mixed radix n with
    # the first axis most significant, and the order is the product order.
    ends = [(0, 0)]
    for _ in range(g.t):
        ends = [(lo * n + a, hi * n + b) for lo, hi in ends for a, b in pairs]
    return [pairs] * g.t, list(coloring.colors(ends))


def reduce_comparability_to_subgrid(coloring: Coloring, g: GridPoset) -> MapColoring:
    """Color each 2^t subgrid by the color of its (least, greatest) pair."""
    axes, colors = reduce_comparability_product(coloring, g)
    return MapColoring(KIND_SUBGRID, coloring.r, dict(zip(iproduct(*axes), colors)))


def check_core_reduction(n: int, t: int, m: int) -> None:
    """Refuse the sizes the core reduction cannot take: it lives in n^2 and
    needs 1 <= m with m*m <= n. Nothing is built, so a caller can refuse them
    before it builds the grid."""
    if t != 2:
        raise ContractViolation("the core reduction lives in two dimensions")
    if m < 1:
        raise ContractViolation(f"the core reduction needs m >= 1, got {m}")
    if m * m > n:
        raise ContractViolation(f"the core reduction needs m*m <= n, got m = {m}, n = {n}")


def reduce_subposet_product(c1: Coloring, g: GridPoset, m: int) -> tuple[list, list]:
    """The core reduction as ``(axes per dimension, colors in product order)``:
    each (m^2)-side subgrid (a, b) of n^2 takes c1's color at its core.

    The core of (a, b) is the points (a[m*i+j], b[m*j+i]), so its element
    indices are row offsets of a plus column values of b. Rows grow with
    m*i+j and columns stay below n, so the sums come out sorted.

    A row's cores are zipped from one ``map`` per core place over that
    place's column values, and c1 is handed them lazily, never as a list.
    """
    if c1.kind != KIND_SUBPOSET:
        raise ContractViolation("reduction expects a subposet-copy coloring")
    n = g.k
    check_core_reduction(n, g.t, m)
    axes = list(combinations(range(n), m * m))
    places = [(i, j) for i in range(m) for j in range(m)]
    rows = [[a[m * i + j] * n for i, j in places] for a in axes]
    cols = [[b[m * j + i] for b in axes] for i, j in places]
    cores = chain.from_iterable(
        zip(*[map(add, repeat(offset), col) for offset, col in zip(row, cols)])
        for row in rows)
    return [axes, axes], list(c1.colors(cores))


def reduce_subposet_to_subgrid(c1: Coloring, g: GridPoset, m: int) -> MapColoring:
    """Color each (m^2)-side subgrid of n^2 by c1 evaluated at its core."""
    axes, colors = reduce_subposet_product(c1, g, m)
    return MapColoring(KIND_SUBGRID, c1.r, dict(zip(iproduct(*axes), colors)))


# -- monochromatic-substructure search ---------------------------------------------


def _subsets_within(n: int, l: int, m: int) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """Each l-subset of range(n) mapped to its m-subsets, both in
    ``combinations`` order. The m-side subgrids inside an l-side subgrid of
    n^t are the product of the lists of its axis sets."""
    return {outer: list(combinations(outer, m)) for outer in combinations(range(n), l)}


def find_monochromatic_subgrid(n: int, t: int, m: int, l: int, coloring: Coloring
                               ) -> Optional[MonoWitness]:
    """First l^t subgrid whose m^t subgrids all share a color, else None.

    Subgrids are scanned in ``enumerate_subgrids`` order by per-row color
    bitmasks. A row is one choice of the first t-1 axes' m-subsets. It is read
    once, when first needed, with one ``coloring.colors`` call, and kept as one
    bitmask per color: bit i for the i-th m-subset of the last axis. Each outer
    prefix ANDs its inner rows color by color; the first last-axis l-subset
    whose m-subsets all lie in one color's mask completes the witness, in that
    color. A row that lacks a key raises ContractViolation for its first
    missing key when it is read, so a witness is returned only once every row
    of its outer prefix is read.
    """
    if coloring.kind != KIND_SUBGRID:
        raise ContractViolation("subgrid search expects a subgrid coloring")
    if t < 1 or not 1 <= m <= l <= n:
        raise ContractViolation(f"need t >= 1 and 1 <= m <= l <= n, got {(t, m, l, n)}")
    work = math.comb(n, l) ** t * math.comb(l, m) ** t
    if work > STRUCTURE_GUARD:
        raise GuardExceeded(f"subgrid scan of {work} cells exceeds guard")
    table = _subsets_within(n, l, m)
    subsets = list(combinations(range(n), m))
    powers = [1 << i for i in range(len(subsets))]
    bit = dict(zip(subsets, powers))
    lasts = [sum(map(bit.__getitem__, inners)) for inners in table.values()]
    need = math.comb(l, m)

    def fill(prefix: tuple) -> None:
        colors = list(coloring.colors(zip(*map(repeat, prefix), subsets)))
        rows[prefix] = {c: sum(compress(powers, map(eq, colors, repeat(c)))) for c in set(colors)}

    rows = _LazyRows()
    rows.fill = fill
    outers = list(table)
    for prefix in iproduct(outers, repeat=t - 1):
        inner = iproduct(*map(table.__getitem__, prefix))
        masks = rows[next(inner)]
        for key in inner:
            row = rows[key]
            masks = {c: bits & row[c] for c, bits in masks.items() if c in row}
        found = min(((j, c) for c, bits in masks.items() if bits.bit_count() >= need
                     for j, want in enumerate(lasts) if bits & want == want), default=None)
        if found is not None:
            j, color = found
            return MonoWitness(KIND_SUBGRID, color, subgrid=Subgrid(prefix + (outers[j],)))
    return None


def induced_copies(q: Poset, p: Poset, within: Optional[Sequence[int]] = None,
                   coloring: Optional[Coloring] = None,
                   guard_nodes: int = NODE_GUARD) -> Iterator[tuple[int, ...]]:
    """Induced copies of p inside q (restricted to ``within``), as image tuples
    indexed by p-element, in lexicographic order of the images.

    With a comparability coloring, only the monochromatic embeddings: one
    search per color over the rows of that color's pairs, merged. Each color's
    search is bounded by ``guard_nodes`` and visits at most the nodes of the
    uncolored walk over its whole tree. ``within`` must name elements of q
    (ContractViolation otherwise).
    """
    return _copy_search(q, p, within, coloring, guard_nodes, one_per_orbit=False)


class _LazyRows(dict):
    """A row table filled on first read at v by ``fill(v)``."""

    __slots__ = ("fill",)

    def __missing__(self, v):
        self.fill(v)
        return self[v]


def _color_tables(rows: Sequence[int], upward: bool, allowed: int,
                  coloring: Coloring) -> list[_LazyRows]:
    """Table c - 1 holds the w in ``rows[v] & allowed`` whose pair with v
    has color c; v's rows in every color are built at once."""
    color_of = coloring.color_of
    tables = [_LazyRows() for _ in range(coloring.r)]

    def fill(v: int) -> None:
        split = [0] * (coloring.r + 1)
        row = rows[v] & allowed
        while row:
            low = row & -row
            w = low.bit_length() - 1
            split[color_of((v, w) if upward else (w, v))] |= low
            row ^= low
        for table, bits in zip(tables, split[1:]):
            table[v] = bits

    for table in tables:
        table.fill = fill
    return tables


def _copy_search(q: Poset, p: Poset, within: Optional[Sequence[int]],
                 coloring: Optional[Coloring], guard_nodes: int,
                 one_per_orbit: bool) -> Iterator[tuple[int, ...]]:
    """``induced_copies``; with ``one_per_orbit``, only the first-found
    embedding of each element set (``orbit_checks``). A copy's pairs share a
    color or not as a set, so the color streams are disjoint."""
    steps = range(p.n)
    if within is not None and any(not 0 <= e < q.n for e in within):
        raise ContractViolation(f"within names an element outside the {q.n}-element host")
    if coloring is not None and coloring.kind != KIND_COMPARABILITY:
        raise ContractViolation("copy search expects a comparability coloring")
    allowed = (1 << q.n) - 1 if within is None else sum(1 << e for e in set(within))
    orbits = orbit_checks(p, steps, q.n) if one_per_orbit else [[]] * p.n

    def search(up: Optional[Sequence[int]] = None,
               dn: Optional[Sequence[int]] = None) -> Iterator[tuple[int, ...]]:
        checks = [c + o for c, o in zip(order_checks(p, steps, q, up=up, dn=dn), orbits)]
        return induced_embeddings(steps, checks, [allowed] * p.n, guard_nodes,
                                  "copy search exceeded its node guard", _check_deadline)

    if coloring is None or not p.relation_count():
        return search()
    ups = _color_tables(q.up, True, allowed, coloring)
    dns = _color_tables(q.dn, False, allowed, coloring)
    return merge(*map(search, ups, dns))


def enumerate_induced_copy_sets(q: Poset, p: Poset, within: Optional[Sequence[int]] = None,
                                guard_copies: int = COPY_GUARD,
                                guard_nodes: int = NODE_GUARD) -> list[tuple[int, ...]]:
    """Distinct element sets of q inducing copies of p, first-found order."""
    out = []
    for image in _copy_search(q, p, within, None, guard_nodes, one_per_orbit=True):
        out.append(tuple(sorted(image)))
        if len(out) > guard_copies:
            raise GuardExceeded("induced-copy enumeration exceeded its guard")
    return out


def find_monochromatic_copy(q: Poset, p: Poset, coloring: Coloring,
                            within: Optional[Sequence[int]] = None,
                            guard_nodes: int = NODE_GUARD) -> Optional[MonoWitness]:
    """First induced copy of p in q whose comparable pairs share one color
    (None if p has none). One search per color, each bounded by
    ``guard_nodes``, as in ``induced_copies``."""
    pair = next(p.comparable_pairs(), None)
    for image in _copy_search(q, p, within, coloring, guard_nodes, one_per_orbit=True):
        color = None if pair is None else coloring.color_of((image[pair[0]], image[pair[1]]))
        return MonoWitness(KIND_SUBPOSET, color, elements=image)
    return None


# -- verify / minimal-n -------------------------------------------------------------


class Verdict(Record):
    """Tri-state outcome of a Ramsey verification."""

    status: str  # "true" | "false" | "inconclusive"
    counterexample: Optional[MapColoring] = None
    reason: str = ""

    def is_true(self) -> bool:
        return self.status == "true"


def index_structures(keys: Sequence, groups: Iterable[Iterable]) -> list[tuple[int, ...]]:
    """Each group of keys as the sorted tuple of their indices in ``keys``, in
    first-seen order with repeats dropped: the structures ``run_engine`` takes."""
    index = {key: i for i, key in enumerate(keys)}
    return list(dict.fromkeys(tuple(sorted(index[key] for key in group)) for group in groups))


def run_engine(keys: Sequence, structures, r: int, kind: str,
               node_guard: int, workers: int, symmetry: Optional[Symmetry] = None) -> Verdict:
    """The verdict on structures over ``keys``: "true" when every r-coloring
    leaves one monochromatic, else "false" with a counterexample keyed by
    ``keys``, or "inconclusive" when a guard fires.

    A ``symmetry`` declares a group of key permutations that maps the
    structures onto themselves, so the search breaks it (refused with
    ContractViolation when the structures are not invariant) and the
    verdict's reason says so."""
    _require_colors(r)
    if any(len(s) == 0 for s in structures):
        return Verdict("true", reason="a key-free substructure is always monochromatic")
    if not structures:
        counter = MapColoring(kind, r, {key: 1 for key in keys})
        return Verdict("false", counterexample=counter,
                       reason="no candidate substructure exists")
    broken = "" if symmetry is None else \
        f"lex-leader symmetry breaking over {symmetry.name} x S_{r}"
    try:
        colors = search_counterexample(len(keys), structures, r, node_guard, symmetry, workers)
    except GuardExceeded as exc:
        return Verdict("inconclusive", reason="; ".join(filter(None, [str(exc), broken])))
    if colors is None:
        return Verdict("true", reason=broken)
    assignment = {key: colors[i] for i, key in enumerate(keys)}
    return Verdict("false", counterexample=MapColoring(kind, r, assignment), reason=broken)


def verify_comparability_ramsey(p: Poset, q: Poset, r: int, *,
                                node_guard: int = NODE_GUARD,
                                workers: int = 1) -> Verdict:
    """True iff every r-coloring of q's comparabilities has a mono copy of p."""
    keys = comparability_keys(q)
    try:
        structures = index_structures(keys, (
            [(a, b) if q.lt(a, b) else (b, a)
             for a, b in combinations(elements, 2) if q.comparable(a, b)]
            for elements in enumerate_induced_copy_sets(q, p)))
    except GuardExceeded as exc:
        return Verdict("inconclusive", reason=str(exc))
    # On a chain the keys are K_n's edges, and every permutation of the
    # elements maps the copies of p onto copies of p.
    symmetry = vertex_symmetry(q.n) if keys == tuple(combinations(range(q.n), 2)) else None
    return run_engine(keys, structures, r, KIND_COMPARABILITY, node_guard, workers, symmetry)


def verify_grid_ramsey(kind: str, t: int, r: int, m: int, l: int, n: int, *,
                       node_guard: int = NODE_GUARD,
                       workers: int = 1) -> Verdict:
    """Subgrid or subposet-copy Ramsey verification on n^t at sizes (m, l)."""
    if t < 1 or not 1 <= m <= l <= n:
        raise ContractViolation(f"need t >= 1 and 1 <= m <= l <= n, got {(t, m, l, n)}")
    if kind == KIND_SUBGRID:
        work = math.comb(n, l) ** t * math.comb(l, m) ** t
        if work > STRUCTURE_GUARD:
            return Verdict("inconclusive",
                           reason=f"subgrid structure universe {work} exceeds guard")
        keys = list(iproduct(combinations(range(n), m), repeat=t))
        table = _subsets_within(n, l, m)
        structures = index_structures(keys, (iproduct(*inners) for inners
                                             in iproduct(table.values(), repeat=t)))
        # At m = 1 the keys are the cells of n^t in row-major order, and
        # permuting the values on any axis maps the l^t boxes onto themselves;
        # at t = 1, m = 2 they are K_n's edges and the boxes its l-cliques.
        symmetry = box_symmetry((n,) * t) if m == 1 else \
            vertex_symmetry(n) if t == 1 and m == 2 else None
        return run_engine(keys, structures, r, KIND_SUBGRID, node_guard, workers, symmetry)
    if kind in (KIND_SUBPOSET, "subposet"):
        # A set induces m^t in n^t exactly when it does so in any hull holding
        # it, so a hull's keys are the m^t copies inside l^t mapped through the
        # hull's embedding, and each is found by its element set. At m = 1 key
        # i is element i, so a hull's keys are its elements.
        ambient, small, large = grid(n, t), grid(m, t), grid(l, t)
        try:
            keys = enumerate_induced_copy_sets(ambient, small)
            if m > 1:
                where = {frozenset(key): i for i, key in enumerate(keys)}
                picks = [itemgetter(*copy) for copy in enumerate_induced_copy_sets(large, small)]

            def hulls():
                embeddings = _copy_search(ambient, large, None, None, NODE_GUARD,
                                          one_per_orbit=True)
                for count, image in enumerate(embeddings, 1):
                    if count > COPY_GUARD:
                        raise GuardExceeded("induced-copy enumeration exceeded its guard")
                    _check_deadline()
                    if m > 1:
                        image = [where[frozenset(pick(image))] for pick in picks]
                    yield tuple(sorted(image))

            structures = list(dict.fromkeys(hulls()))  # as index_structures gives them
        except GuardExceeded as exc:
            return Verdict("inconclusive", reason=str(exc))
        return run_engine(keys, structures, r, KIND_SUBPOSET, node_guard, workers)
    raise ContractViolation(f"unknown kind {kind!r}")


def verify_at(kind: str, t: int, r: int, m: int, l: int, n: int, **guards) -> Verdict:
    """The verdict at size n: an l^t grid's comparabilities in n^t, or a grid
    kind. A color count below 1 is refused before any structure is built."""
    _require_colors(r)
    if kind == KIND_COMPARABILITY:
        return verify_comparability_ramsey(grid(l, t), grid(n, t), r, **guards)
    return verify_grid_ramsey(kind, t, r, m, l, n, **guards)


class ThresholdResult(Record):
    """The smallest size whose verdict is true, and every verdict up to it."""

    found: Optional[int]
    status: str  # "found" | "not-found" | "inconclusive"
    verdicts: dict  # every verdict scanned; a fresh dict by default, not hashed

    def __init__(self, found: Optional[int], status: str, verdicts: Optional[dict] = None):
        Record.__init__(self, found, status, {} if verdicts is None else verdicts)

    def __hash__(self):
        return hash((self.found, self.status))

    def counterexamples(self) -> dict:
        return {n: v.counterexample for n, v in self.verdicts.items()
                if v.status == "false"}


def scan_threshold(sizes: Iterable[int], verify: Callable[[int], Verdict]) -> ThresholdResult:
    """The first size whose verdict is true, counterexamples archived below.

    Inconclusive verdicts poison the result: minimality cannot be certified
    past a guard, so the status reports it instead of guessing.
    """
    verdicts: dict[int, Verdict] = {}
    for size in sizes:
        v = verdicts[size] = verify(size)
        if v.status == "inconclusive":
            return ThresholdResult(None, "inconclusive", verdicts)
        if v.status == "true":
            return ThresholdResult(size, "found", verdicts)
    return ThresholdResult(None, "not-found", verdicts)


def min_ramsey_n(t: int, r: int, m: int, l: int, kind: str, n_max: int,
                 **guards) -> ThresholdResult:
    """Smallest n in l..n_max passing ``verify_at``; see ``scan_threshold``. A
    color count below 1 is refused before any size is scanned."""
    _require_colors(r)
    return scan_threshold(range(l, n_max + 1),
                          lambda n: verify_at(kind, t, r, m, l, n, **guards))


# -- multicolor bootstrap (two colors suffice) ----------------------------------------


class BootstrapStep(Record):
    """One 2-color step: every 2-coloring of ``witness`` yields a mono ``base``."""

    base: Poset
    witness: Poset


class BootstrapResult(Record):
    witness: MonoWitness
    levels: int


def verify_bootstrap_chain(steps: Sequence[BootstrapStep], **guards) -> bool:
    """Check every chain step with the 2-color verifier (small posets only)."""
    for step in steps:
        if not verify_comparability_ramsey(step.base, step.witness, 2, **guards).is_true():
            return False
    return True


def multicolor_bootstrap(steps: Sequence[BootstrapStep], coloring: Coloring,
                         *, guard_nodes: int = NODE_GUARD) -> BootstrapResult:
    """Execute the blue/red recursion turning 2-color witnesses into r-color ones.

    ``steps[i].witness`` must be ``steps[i+1].base``; the coloring is an
    r-coloring of the top witness with r = len(steps) + 1. Descends on the
    blue (first-color) side, recurses with one color fewer on the red side,
    and never uses more than r - 1 levels. A step that fails to deliver its
    guaranteed structure raises ChainStepFailure.
    """
    if not steps:
        raise ContractViolation("the witness chain must contain at least one step")
    for a, b in zip(steps, steps[1:]):
        if a.witness != b.base:
            raise ContractViolation("chain steps do not compose")
    if coloring.kind != KIND_COMPARABILITY:
        raise ContractViolation("bootstrap expects a comparability coloring")
    r = len(steps) + 1
    if coloring.r != r:
        raise ContractViolation(f"chain of {len(steps)} steps serves r = {r}")

    top = steps[-1].witness
    carrier = tuple(range(top.n))
    colors = list(range(1, r + 1))
    level = 0
    remaining = list(steps)
    while True:
        level += 1
        if level > r - 1:
            raise ChainStepFailure("recursion exceeded r - 1 levels")
        if len(remaining) == 1:
            found = find_monochromatic_copy(top, remaining[0].base, coloring,
                                            within=carrier, guard_nodes=guard_nodes)
            if found is None:
                raise ChainStepFailure("base step failed to deliver a monochromatic copy")
            return BootstrapResult(found, level)
        blue = colors[0]
        split = FunctionColoring(
            KIND_COMPARABILITY, 2,
            lambda key, _blue=blue: 1 if coloring.color_of(key) == _blue else 2)
        target = remaining[-1].base
        found = find_monochromatic_copy(top, target, split,
                                        within=carrier, guard_nodes=guard_nodes)
        if found is None:
            raise ChainStepFailure("a chain step failed to deliver its structure")
        if found.color in (1, None):
            inner = find_monochromatic_copy(top, remaining[0].base, coloring,
                                            within=found.elements,
                                            guard_nodes=guard_nodes)
            if inner is None:
                raise ChainStepFailure("blue descent lost the base structure")
            return BootstrapResult(inner, level)
        carrier = tuple(sorted(found.elements))
        colors = colors[1:]
        remaining = remaining[:-1]


# -- Boolean-lattice embedding ----------------------------------------------------


class BooleanLatticeEmbedding(Record):
    """x maps to the characteristic vector of its closed downset in 2^d, d = |P|."""

    dimension: int
    vectors: tuple[tuple[int, ...], ...]

    def grid_coords(self) -> tuple[tuple[int, ...], ...]:
        return self.vectors


def boolean_lattice_embed(p: Poset) -> BooleanLatticeEmbedding:
    d = p.n
    vectors = []
    for x in range(d):
        closed = p.dn[x] | (1 << x)
        vectors.append(tuple((closed >> j) & 1 for j in range(d)))
    if order_embedding_violation(p, vectors) is not None:
        raise ContractViolation("downset embedding failed validation")
    return BooleanLatticeEmbedding(d, tuple(vectors))
