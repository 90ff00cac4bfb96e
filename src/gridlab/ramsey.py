"""Coloring reductions and desk-scale Ramsey searches over grids and posets.

Four kinds of colorings share one engine, ``run_engine``:

* ``comparability`` -- keys are ordered pairs (a, b) with a < b;
* ``subgrid``       -- keys are m-side subgrids of n^t;
* ``subposet-copy`` -- keys are induced m^t-grid copies (element sets);
* ``partition``     -- keys are s-partitions of range(k) (``extension``).

A "structure" is the key set of a candidate monochromatic object. Verifying
a Ramsey witness means proving no r-coloring leaves every structure
non-monochromatic; the search backtracks over keys in a fixed deterministic
order with monochromatic-forcing propagation and first-key color-symmetry
breaking, and with lex-leader symmetry breaking where the instance declares a
``Symmetry``: the vertices of K_n where the keys are its edges, and the
values on each axis of n^t where they are its cells. Guard exhaustion is a
distinct inconclusive verdict, never False.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from functools import lru_cache
from heapq import merge
from itertools import chain, combinations, compress, islice, product as iproduct, repeat
from operator import add, eq, itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .errors import ChainStepFailure, ContractViolation, GuardExceeded, Record
from .grids import GridPoset, Subgrid, grid
from .poset import (
    LinearExtension,
    Poset,
    automorphisms,
    induced_embeddings,
    induced_subposet,
    is_isomorphic,
    is_linear_extension,
    linear_extensions,
    orbit_checks,
    order_checks,
    order_embedding_violation,
    realizer_tuples,
)

KIND_COMPARABILITY = "comparability"
KIND_SUBGRID = "subgrid"
KIND_SUBPOSET = "subposet-copy"
KIND_PARTITION = "partition"

COPY_GUARD = 2_000_000
NODE_GUARD = 50_000_000
STRUCTURE_GUARD = 5_000_000

_DEADLINE: Optional[float] = None
_STOP = None  # in a shard worker: the event set once its result is not needed
_ENGINE = None  # in a shard worker: the engine over the instance being sharded


class _Stopped(Exception):
    """A shard worker's search was stopped by its caller."""


@contextmanager
def time_limit(seconds: Optional[float]):
    """Soft wall-clock guard for the search kernels in this module.

    Firing surfaces as GuardExceeded, i.e. an inconclusive verdict; results
    that finish within the limit are unaffected and stay deterministic.
    """
    global _DEADLINE
    old = _DEADLINE
    _DEADLINE = None if seconds is None else time.monotonic() + seconds
    try:
        yield
    finally:
        _DEADLINE = old


def _check_deadline() -> None:
    if _DEADLINE is not None and time.monotonic() > _DEADLINE:
        raise GuardExceeded("time limit exceeded")
    if _STOP is not None and _STOP.is_set():
        raise _Stopped


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


def subposet_copy_key(elements: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(elements))


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


# -- symmetry declarations -----------------------------------------------------------


class Symmetry:
    """A group of key permutations declared to map the structures onto
    themselves: ``name`` for the verdict's reason, ``generators`` as key
    permutations (``perm[k]`` is the image of key k), and ``constraints(colors)``
    returning the walk's ``(tries, passes)``. ``tries(col, k)`` lists the
    colors key k may take after the keys below it, colored as in ``col``;
    ``passes(col, k, assigned)`` says whether keys k, k+1, ... below the lowest
    uncolored key, colored by propagation, keep the constraints. It pickles as
    the call that built it, so a worker process rebuilds it.
    """

    def __init__(self, name: str, generators: list[list[int]],
                 constraints: Callable[[range], tuple], built_by: tuple):
        self.name = name
        self.generators = generators
        self.constraints = constraints
        self.built_by = built_by

    def __reduce__(self):
        return self.built_by


def _lex_leader(lex: list, colors: range, counted: Optional[int] = None):
    """The ``(tries, passes)`` of lex-leader constraints in key order, each
    the least coloring of an orbit compared with one image (README,
    "Symmetry declarations"):

    * lex: for each ``(p, a, d)`` in ``lex[k]``, if every key in the mask
      ``a`` has the color of the key d places above it, color(k) >= color(p);
    * value precedence: a color c > 1 appears only after c-1 has;
    * at key ``counted`` (the last key of K_n's row 0), no color is used
      more often in keys 0..counted than the color before it.

    Each reads only keys below k and k's color. Every key below the cursor
    keeps them, so the colors used below k are 1..m for some m.
    """
    r = len(colors)

    def agree(col: list, a: int, d: int) -> bool:
        """Whether the keys in ``a`` have the colors of those d places above;
        colors 1..r-1 decide it, since each of these keys has one color."""
        up = a << d
        for c in range(1, r):
            x = col[c]
            if (x & a) << d != x & up:
                return False
        return True

    def color(col: list, k: int) -> int:
        bit = 1 << k
        c = 1
        while not col[c] & bit:
            c += 1
        return c

    def counts_fall(col: list, k: int, c: int) -> bool:
        below = (1 << k) - 1
        counts = [(col[cc] & below).bit_count() + (cc == c) for cc in colors]
        return all(x >= y for x, y in zip(counts, counts[1:]))

    def tries(col: list, k: int):
        below = (1 << k) - 1
        top = 1
        while top < r and col[top] & below:
            top += 1
        low = 1
        for p, a, d in lex[k]:
            c = color(col, p)
            if c > low and agree(col, a, d):
                low = c
        todo = range(low, min(top, r) + 1)
        return [c for c in todo if counts_fall(col, k, c)] if k == counted else todo

    def passes(col: list, k: int, assigned: int) -> bool:
        stop = (~assigned & (assigned + 1)).bit_length() - 1
        for key in range(k, stop):
            if color(col, key) not in tries(col, key):
                return False
        return True

    return tries, passes


def _swap_and_cycle(n: int) -> list[list[int]]:
    """The transposition (0 1) and the cycle (0 1 ... n-1), which generate S_n."""
    return [[1, 0, *range(2, n)], [*range(1, n), 0]] if n > 1 else []


def vertex_symmetry(n: int) -> Symmetry:
    """S_n on the edges of K_n, key i being the i-th pair of
    ``combinations(range(n), 2)``. Lex at (v,u), u-1 > v: if columns u-1
    and u agree on the rows w < v, color(v,u) >= color(v,u-1)."""
    edges = list(combinations(range(n), 2))
    index = {edge: i for i, edge in enumerate(edges)}
    lex = [((index[v, u - 1], sum(1 << index[w, u - 1] for w in range(v)), 1),)
           if u - 1 > v else () for v, u in edges]
    generators = [[index[min(p[a], p[b]), max(p[a], p[b])] for a, b in edges]
                  for p in _swap_and_cycle(n)]
    return Symmetry(f"S_{n}", generators,
                    lambda colors: _lex_leader(lex, colors, n - 2),
                    (vertex_symmetry, (n,)))


def box_symmetry(sides: Sequence[int]) -> Symmetry:
    """S_a x S_b x ... on the cells of a box with these sides, keys in
    row-major order. Slice lex along axis d at cell x with x_d > 0: if slices
    x_d-1 and x_d agree on the cells before x, color(x) >= color(x - e_d)."""
    sides = tuple(sides)
    strides = [math.prod(sides[d + 1:]) for d in range(len(sides))]
    cells = list(iproduct(*map(range, sides)))
    seen = [[0] * side for side in sides]  # per axis and value: the keys so far
    lex = []
    for k, x in enumerate(cells):
        lex.append(tuple((k - s, seen[d][v] >> s, s)
                         for d, (v, s) in enumerate(zip(x, strides)) if v))
        for d, v in enumerate(x):
            seen[d][v] |= 1 << k
    generators = [[k + (p[x[d]] - x[d]) * strides[d] for k, x in enumerate(cells)]
                  for d, side in enumerate(sides) for p in _swap_and_cycle(side)]
    return Symmetry(" x ".join(f"S_{side}" for side in sides), generators,
                    lambda colors: _lex_leader(lex, colors), (box_symmetry, (sides,)))


# -- counterexample-coloring search engine -------------------------------------------


def search_counterexample(num_keys: int, structures: Sequence[tuple[int, ...]], r: int,
                          node_guard: int = NODE_GUARD, symmetry: Optional[Symmetry] = None,
                          workers: int = 1) -> Optional[tuple[int, ...]]:
    """A coloring of 0..num_keys-1 leaving no structure monochromatic, or None.

    Each structure is a tuple of keys; a repeated key counts once. Deterministic:
    keys are branched in index order, colors in increasing order, and the
    first key is pinned to color 1 (color permutations act on the
    counterexample space). A node is one attempt of a color not forbidden on
    its key; past ``node_guard`` nodes the search raises GuardExceeded.

    The state is a few big ints over the keys: ``assigned``, ``col[c]`` (keys
    colored c) and ``forb[c]`` (keys where c is forbidden), and a few over the
    structures: the counters ``ge[j]`` (structures with at least j colored
    keys) and ``dead[c]`` (structures holding a key of a color other than c).
    A structure of z keys starts at smax - z counted keys, smax being the
    largest size, so every structure is full at ``ge[smax]`` and has one hole
    at ``ge[smax - 1]``. The search is an explicit stack of frames, each
    holding the state it started from, so undoing an attempt is dropping its
    copy.

    Coloring k with c adds one to the counters of the structures holding k (a
    bitset over the structures, built once) and marks them dead for every
    other color. Of those still live for c, a full one is a monochromatic
    conflict, and one with one hole forbids c at its hole; a hole left with
    one color takes it, and one left with none is a conflict.

    A ``symmetry`` declares a group of key permutations that maps the
    structures onto themselves; the search then also breaks it (see
    ``Symmetry``).

    With ``workers`` > 1 the frontier past ``_HANDOFF`` nodes goes to
    ``_parallel_counterexample``; a search that ends sooner starts no pool.
    """
    engine = _Engine(num_keys, structures, r, symmetry)
    if not all(structures):
        return None  # an empty structure is monochromatic under every coloring
    shards = []  # (the walk's nodes before the shard, its state)
    try:
        for top, state, colors in engine.walk(node_guard, _HANDOFF if workers > 1 else math.inf):
            if colors is not None and not shards:
                return colors  # found before the first shard
            if state is None:
                break
            shards.append((top, state))
            if colors is not None:
                break  # the serial search ends at its first coloring
    except _NodeGuard:
        if not shards:
            raise  # the serial search's own guard
        top = node_guard + 1  # the frontier after the shards runs past the guard
    if not shards:
        return None  # the serial search ended without one
    return _parallel_counterexample(engine, shards, top, node_guard, workers)


def _structure_bits(num_keys: int, structures) -> tuple[list, list, list]:
    """The engine's tables, built in one pass over the structures: (holding,
    masks, counts).

    holding[k] is the bitset of the structures holding key k, masks[i] is the
    key mask of structure i, and counts[j] is the bitset of the structures
    with at least j keys counted before any is colored, for j in 0..smax: a
    structure of z distinct keys starts at smax - z. A structure may repeat
    keys; a key outside 0..num_keys-1 raises.
    """
    width = (len(structures) + 7) >> 3
    holding = [bytearray(width) for _ in range(num_keys)]
    by_size = {}  # size -> the bitset of the structures of that size, as bytes
    masks = []
    for i, keys in enumerate(structures):
        byte, bit = i >> 3, 1 << (i & 7)
        mask = 0
        for k in keys:
            mask |= 1 << k  # a negative key raises here, before a row read at it wraps
            holding[k][byte] |= bit
        masks.append(mask)
        size = mask.bit_count()
        if size not in by_size:
            by_size[size] = bytearray(width)
        by_size[size][byte] |= bit
    for k, row in enumerate(holding):
        holding[k] = int.from_bytes(row, "little")
    smax = max(by_size, default=0)
    counts = [(1 << len(structures)) - 1] + [0] * smax
    below = 0
    for size in range(smax):
        below |= int.from_bytes(by_size.get(size, b""), "little")
        counts[smax - size] = below
    return holding, masks, counts


def _images(perm: list, structures) -> set:
    """The key masks of the structures' images under ``perm``; a repeated key
    sets its image's bit once, as in ``_structure_bits``."""
    bits = [1 << p for p in perm]
    images = set()
    for keys in structures:
        mask = 0
        for k in keys:
            mask |= bits[k]
        images.add(mask)
    return images


class _NodeGuard(GuardExceeded):
    """The search ran past its node guard."""


class _Engine:
    """``search_counterexample``'s walk over one instance, its tables built once.

    ``walk(node_guard, handoff=math.inf, state=None)`` searches depth first
    from ``state`` (default: nothing colored). In search order it yields
    ``(nodes, state, coloring)`` for each complete coloring and, once more
    than ``handoff`` nodes are spent, ``(nodes, state, None)`` for each live
    state it reaches, whose subtree it skips: the untried siblings along the
    path, deepest first. Then it yields ``(nodes, None, None)``. ``nodes``
    counts the nodes so far. A state is one list of ints: ``assigned`` at 0,
    then ``col[1..r]``, ``forb[1..r]``, ``dead[1..r]`` and ``ge[0..smax]``
    (see ``search_counterexample``), so ``state[c]`` is ``col[c]``. No
    coloring makes an empty structure a conflict, so ``search_counterexample``
    answers an instance holding one before it walks.

    With a ``symmetry`` the walk keeps its constraints: a key is branched
    only on the colors they admit, and a state whose propagation colored a
    key they reject once the cursor passes it is a conflict. Both read only
    the state, so a shard resumed elsewhere prunes as the serial walk. The
    declaration is refused with ContractViolation unless each generator maps
    the structure set onto itself.
    """

    def __init__(self, num_keys: int, structures, r: int,
                 symmetry: Optional[Symmetry] = None):
        self.inputs = num_keys, structures, r, symmetry
        holding, masks, counts = _structure_bits(num_keys, structures)
        if symmetry is not None:
            given = set(masks)
            for perm in symmetry.generators:
                if len(perm) != num_keys or min(perm, default=0) < 0 or \
                        _images(perm, structures) != given:
                    raise ContractViolation(f"the structures over {num_keys} keys are not "
                                            f"invariant under {symmetry.name}")
        colors = range(1, r + 1)
        ge = 3 * r + 1  # state[ge + j] is ge[j]
        full = ge + len(counts) - 1  # ge[smax]
        # For color c: its forb and dead slots, and each other color with its own.
        slots = [None] + [(r + c, 2 * r + c,
                           [(cc, r + cc, 2 * r + cc) for cc in colors if cc != c])
                          for c in colors]

        def propagate(state: list, key: int, color: int) -> bool:
            """Color key and all that it forces, updating the state in place;
            False on conflict."""
            assigned = state[0]
            queue = [(key, color)]
            while queue:
                k, c = queue.pop()
                bit = 1 << k
                if assigned & bit:
                    if state[c] & bit:
                        continue
                    return False
                forb, dead, others = slots[c]
                forbc = state[forb]
                if forbc & bit:
                    return False
                assigned |= bit
                state[c] |= bit
                held = holding[k]
                # Count k in each structure holding it: ge[j] gains those at j - 1.
                carry, j = held, ge + 1
                while carry:
                    state[j], carry = state[j] | carry, state[j] & held
                    j += 1
                for _, _, other_dead in others:
                    state[other_dead] |= held
                live = held ^ (held & state[dead])  # with no key of another color
                if live & state[full]:
                    return False  # completed monochromatic
                holes = live & state[full - 1]
                free = ~assigned
                while holes:
                    i = holes.bit_length() - 1
                    holes ^= 1 << i
                    hole = masks[i] & free
                    if forbc & hole:
                        continue
                    forbc |= hole
                    left = 0
                    for cc, other_forb, _ in others:
                        if not state[other_forb] & hole:
                            left = -1 if left else cc
                    if not left:
                        return False
                    if left > 0:
                        queue.append((hole.bit_length() - 1, left))
                state[forb] = forbc
            state[0] = assigned
            return True

        def coloring(col: list) -> tuple[int, ...]:
            return tuple(next(c for c in colors if col[c] >> k & 1) for k in range(num_keys))

        tries, passes = (None, None) if symmetry is None else symmetry.constraints(colors)

        def walk(node_guard, handoff=math.inf, state=None):
            state = state or [0] + [0] * (3 * r) + counts
            done = (1 << num_keys) - 1
            # A frame: (the lowest uncolored key, its bit, its colors left to try, the
            # state before it). Only a walk that starts from nothing pins its first key,
            # and under symmetry breaking constraint (b) pins it.
            stack = []
            assigned = state[0]
            if assigned == done:
                yield 0, state, coloring(state)
            else:
                low = ~assigned & (assigned + 1)
                key = low.bit_length() - 1
                todo = tries(state, key) if tries else colors if assigned else colors[:1]
                stack.append((key, low, iter(todo), state))
            nodes = 0
            while stack:
                cursor, cbit, todo, before = stack[-1]
                for c in todo:
                    if before[r + c] & cbit:
                        continue
                    nodes += 1
                    if nodes > node_guard:
                        raise _NodeGuard(f"counterexample search exceeded its node guard "
                                         f"{node_guard} at depth {cursor}/{num_keys}")
                    if not nodes & 0xFFF:
                        _check_deadline()
                    state = before[:]
                    if propagate(state, cursor, c) and \
                            (not passes or passes(state, cursor + 1, state[0])):
                        break
                else:
                    stack.pop()
                    continue
                assigned = state[0]
                if assigned == done:
                    yield nodes, state, coloring(state)
                elif nodes > handoff:
                    yield nodes, state, None
                else:
                    low = ~assigned & (assigned + 1)
                    key = low.bit_length() - 1
                    stack.append((key, low, iter(tries(state, key) if tries else colors), state))
            yield nodes, None, None

        self.walk = walk

    def __reduce__(self):
        return _Engine, self.inputs  # rebuilt from its inputs where it is unpickled


def _init_shard(deadline: Optional[float], stop, engine: _Engine) -> None:
    """Pool initializer: the caller's deadline, the shared stop event and the
    engine, which a worker inherits by fork or else rebuilds once."""
    global _DEADLINE, _STOP, _ENGINE
    _DEADLINE, _STOP, _ENGINE = deadline, stop, engine


def _shard_worker(state, budget: int):
    """One shard's (coloring or None, nodes), or (None, budget + 1) past its
    budget; a time limit or stop raises its own exception."""
    try:
        _check_deadline()
        nodes, _, colors = next(_ENGINE.walk(budget, state=state))
        return colors, nodes
    except _NodeGuard:
        return None, budget + 1


# The node count past which a ``--workers`` search hands the frontier of its
# serial walk to a process pool: the walk's clock-check interval, so a search
# too short to check the clock forks nothing.
_HANDOFF = 0x1000


def _parallel_counterexample(engine: _Engine, shards: list, top: int,
                             node_guard: int, workers: int):
    """``search_counterexample`` past its handoff, in at most ``workers`` processes.

    Each shard ``(before, state)`` is a live state the serial walk reached
    after ``before`` nodes, in serial order (a coloring completed there is a
    last shard with nothing to search); the walk ended after ``top``. A
    worker searches a shard within ``node_guard - before`` nodes. The serial
    search reaches a shard after its ``before`` plus the earlier shards'
    nodes, so results are read and summed in shard order: node counts,
    witnesses and verdicts are the serial ones.
    """
    nodes = 0  # the shards' nodes so far
    context = multiprocessing.get_context()
    stop = context.Event()
    size = min(workers, len(shards), os.cpu_count() or 1)
    pool = ProcessPoolExecutor(size, mp_context=context, initializer=_init_shard,
                               initargs=(_DEADLINE, stop, engine))
    try:
        futures = [pool.submit(_shard_worker, state, node_guard - before)
                   for before, state in shards]
        for i, (before, _) in enumerate(shards):
            result, count = futures[i].result()
            nodes += count
            if before + nodes > node_guard:
                raise GuardExceeded(f"counterexample search exceeded its node guard "
                                    f"{node_guard} by shard {i + 1}/{len(shards)}")
            if result is not None:
                return result
    finally:
        # A worker still on a later shard stops at its next clock check; the
        # answer does not wait for it.
        stop.set()
        pool.shutdown(wait=False, cancel_futures=True)
    if top + nodes > node_guard:
        raise GuardExceeded(f"counterexample search exceeded its node guard {node_guard} "
                            f"after its {len(shards)} shards")
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


# -- realizer-type probe for the t = 3 counterexample idea -----------------------------


def _cube() -> GridPoset:
    return grid(2, 3)


@lru_cache(maxsize=None)
def _cube_pair_maps() -> tuple[tuple[tuple[int, int], ...], ...]:
    """The cube's incomparable pairs (a, b) as (s[a], s[b]), per s in Aut(2^3)."""
    cube = _cube()
    pairs = list(cube.incomparable_pairs())
    return tuple(tuple((s[a], s[b]) for a, b in pairs) for s in automorphisms(cube))


def _trace_type(g3: GridPoset, image: Sequence[int]) -> tuple[tuple, bool]:
    """``cube_trace_type`` of the embedding ``image``, whose copy's other
    embeddings are image o s; the least axis permutation sorts the rows."""
    axes = list(zip(*(g3.coords(e) for e in image)))
    best = min(tuple(sorted(tuple((v[b] > v[a]) - (v[b] < v[a]) for a, b in pairs)
                            for v in axes))
               for pairs in _cube_pair_maps())
    return best, all(0 not in row for row in best)


def cube_trace_type(g3: GridPoset, elements: Sequence[int]
                    ) -> tuple[tuple, bool]:
    """Canonical coordinate-trace type of an induced 2^3 copy, plus tie-freeness.

    The trace records, per ambient axis and per incomparable pair of the
    abstract cube, the sign of the coordinate difference; the type is the
    minimum encoding over cube relabelings and axis permutations. A copy is
    tie-free when no incomparable pair is tied on any axis, i.e. the
    coordinates induce a genuine realizer.
    """
    elems = sorted(set(elements))
    iso = is_isomorphic(_cube(), induced_subposet(g3, elems))
    if iso is None:
        raise ContractViolation("element set does not induce a 2^3 copy")
    return _trace_type(g3, [elems[i] for i in iso])


def product_trace_type() -> tuple:
    """The type induced by any 2^3 subgrid (the standard product realizer)."""
    return _trace_type(_cube(), range(8))[0]


class ProbeReport(Record):
    n: int
    copies_scanned: int
    census: tuple[tuple[tuple, int], ...]
    tie_free_census: tuple[tuple[tuple, int], ...]
    product_type: tuple

    @property
    def distinct_types(self) -> int:
        return len(self.census)


def enumerate_tie_free_cube_copies(g3: GridPoset,
                                   guard_nodes: int = NODE_GUARD
                                   ) -> list[tuple[int, ...]]:
    """Element sets of n^3 inducing 2^3 with no incomparable pair tied on any axis.

    Tie-freeness is exactly what lets the coordinates induce a realizer, so
    the incomparable rows handed to the kernel also exclude every element
    sharing a coordinate with the placed one.
    """
    return [tuple(sorted(image)) for image in _tie_free_cube_embeddings(g3, guard_nodes)]


def _tie_free_cube_embeddings(g3: GridPoset, guard_nodes: int) -> Iterator[tuple[int, ...]]:
    """One embedding of 2^3 per tie-free copy, indexed by cube element."""
    if g3.t != 3:
        raise ContractViolation("the probe works on 3-dimensional grids")
    coords = [g3.coords(e) for e in range(g3.n)]
    on_axis = [[0] * g3.k for _ in range(3)]  # on_axis[a][v]: coordinate a equals v
    for e, c in enumerate(coords):
        for a in range(3):
            on_axis[a][c[a]] |= 1 << e
    tie_free_inc = [row & ~(on_axis[0][x] | on_axis[1][y] | on_axis[2][z])
                    for row, (x, y, z) in zip(g3.inc, coords)]
    # Atoms and coatoms first: they carry all nine incomparability constraints.
    slot_order = (1, 2, 4, 3, 5, 6, 0, 7)
    cube = _cube()
    checks = [c + o for c, o in zip(order_checks(cube, slot_order, g3, tie_free_inc),
                                    orbit_checks(cube, slot_order, g3.n))]
    return induced_embeddings(slot_order, checks, [(1 << g3.n) - 1] * 8, guard_nodes,
                              "tie-free copy search exceeded its node guard")


def realizer_type_probe(n: int, scope: str = "tie-free",
                        guard_copies: int = 500_000,
                        guard_nodes: int = NODE_GUARD) -> ProbeReport:
    """Census the coordinate-trace types of 2^3 subposets of n^3.

    ``scope="tie-free"`` classifies exactly the copies whose coordinates
    induce a realizer (the colorable ones in the t = 3 counterexample idea);
    ``scope="all"`` additionally scans tied copies, which is feasible only
    for very small n. A monochromatic 8^3 subposet would need every tie-free
    copy inside it to generate one realizer type.
    """
    g3 = grid(n, 3)
    if scope == "all":
        images = _copy_search(g3, _cube(), None, None, guard_nodes, one_per_orbit=True)
    elif scope == "tie-free":
        images = _tie_free_cube_embeddings(g3, guard_nodes)
    else:
        raise ContractViolation(f"unknown probe scope {scope!r}")
    census, tie_census = Counter(), Counter()
    copies = 0
    for image in images:
        copies += 1
        if copies > guard_copies:
            raise GuardExceeded("probe census exceeded its copy guard")
        tkey, tie_free = _trace_type(g3, image)
        census[tkey] += 1
        if tie_free:
            tie_census[tkey] += 1
        elif scope == "tie-free":
            raise ContractViolation("tie-free enumerator produced a tied copy")
    return ProbeReport(
        n=n,
        copies_scanned=copies,
        census=tuple(sorted(census.items())),
        tie_free_census=tuple(sorted(tie_census.items())),
        product_type=product_trace_type(),
    )


def embed_cube_by_extensions(n: int, exts: Sequence[LinearExtension]) -> tuple[int, ...]:
    """Separated 2^3 copy of n^3 built from a realizer triple's positions.

    Axis i of the image of x is the position of x in exts[i], which needs
    n >= 8. The images are the indices in ``grid(n, 3)``, which refuses n as
    it refuses that grid.
    """
    cube = _cube()
    if len(exts) != 3:
        raise ContractViolation("a cube embedding needs exactly three orders")
    for ext in exts:
        if not is_linear_extension(cube, ext):
            raise ContractViolation("order is not a linear extension of the cube")
    g3 = grid(n, 3)
    return tuple(g3.index(tuple(ext.index(x) for ext in exts)) for x in range(8))


def cube_realizer_triples(limit: Optional[int] = None) -> list[tuple[LinearExtension, ...]]:
    """Ordered extension triples of 2^3 whose set is a realizer, the first
    ``limit`` of them in product order (all when None)."""
    if limit is not None and limit < 0:
        raise ContractViolation(f"limit must be non-negative, got {limit}")
    cube = _cube()
    exts = linear_extensions(cube, cap=8)
    return [tuple(exts[i] for i in combo)
            for combo in islice(realizer_tuples(cube, 3, exts), limit)]
