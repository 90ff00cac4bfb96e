"""Coloring reductions and desk-scale Ramsey searches over grids and posets.

Three kinds of colorings share one engine:

* ``comparability`` -- keys are ordered pairs (a, b) with a < b;
* ``subgrid``       -- keys are m-side subgrids of n^t;
* ``subposet-copy`` -- keys are induced m^t-grid copies (element sets).

A "structure" is the key set of a candidate monochromatic object. Verifying
a Ramsey witness means proving no r-coloring leaves every structure
non-monochromatic; the search backtracks over keys in a fixed deterministic
order with monochromatic-forcing propagation and first-key color-symmetry
breaking. Guard exhaustion is a distinct inconclusive verdict, never False.
"""

from __future__ import annotations

import hashlib
import math
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import combinations, permutations, product as iproduct
from operator import add
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .errors import ChainStepFailure, ContractViolation, GuardExceeded
from .grids import GridPoset, Subgrid, grid
from .poset import (
    LinearExtension,
    Poset,
    enumerate_isomorphisms,
    induced_embeddings,
    induced_subposet,
    is_linear_extension,
    linear_extensions,
    order_checks,
)

KIND_COMPARABILITY = "comparability"
KIND_SUBGRID = "subgrid"
KIND_SUBPOSET = "subposet-copy"

COPY_GUARD = 2_000_000
NODE_GUARD = 50_000_000
STRUCTURE_GUARD = 5_000_000

_DEADLINE: Optional[float] = None


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


# -- colorings ----------------------------------------------------------------


class Coloring:
    """A total map from canonical structure keys to colors 1..r."""

    def __init__(self, kind: str, r: int):
        if kind not in (KIND_COMPARABILITY, KIND_SUBGRID, KIND_SUBPOSET):
            raise ContractViolation(f"unknown coloring kind {kind!r}")
        if r < 1:
            raise ContractViolation("color count must be positive")
        self.kind = kind
        self.r = r

    def color_of(self, key) -> int:
        raise NotImplementedError


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


def hash_coloring(kind: str, r: int, seed: int, *,
                  bias_color: Optional[int] = None, bias: float = 0.0) -> FunctionColoring:
    """Seeded, run-stable pseudo-random coloring (blake2, not built-in hash).

    With ``bias`` > 0, each key takes ``bias_color`` with that probability,
    which keeps monochromatic events reachable in soundness sweeps.
    """
    bias_prefix = _hash_prefix(seed, "bias")
    color_prefix = _hash_prefix(seed, "color")

    def fn(key):
        if bias_color is not None and bias > 0.0:
            u = _stable_hash(bias_prefix, key) / 2.0 ** 64
            if u < bias:
                return bias_color
        return 1 + _stable_hash(color_prefix, key) % r

    return FunctionColoring(kind, r, fn)


def random_map_coloring(kind: str, keys: Iterable, r: int, rng) -> MapColoring:
    return MapColoring(kind, r, {key: rng.randint(1, r) for key in keys})


def comparability_keys(q: Poset) -> tuple[tuple[int, int], ...]:
    """All ordered pairs (a, b) with a < b in q, sorted by (a, b)."""
    return tuple(q.comparable_pairs())


def subposet_copy_key(elements: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(elements))


# -- monochromatic witnesses -----------------------------------------------------


@dataclass(frozen=True)
class MonoWitness:
    """A substructure all of whose keys carry one color."""

    kind: str
    color: Optional[int]
    subgrid: Optional[Subgrid] = None
    elements: Optional[tuple[int, ...]] = None


# -- coloring reductions ----------------------------------------------------------


def reduce_comparability_to_subgrid(coloring: Coloring, g: GridPoset) -> MapColoring:
    """Color each 2^t subgrid by the color of its (least, greatest) pair."""
    if coloring.kind != KIND_COMPARABILITY:
        raise ContractViolation("reduction expects a comparability coloring")
    n = g.k
    if n < 2:
        raise ContractViolation("need 1 <= m <= n for subgrid enumeration")
    pairs = list(combinations(range(n), 2))
    # (axes, least, greatest), one axis at a time: an index is mixed radix n
    # with the first axis most significant, and the order is the product order.
    cells = [((), 0, 0)]
    for _ in range(g.t):
        cells = [(axes + (pair,), lo * n + pair[0], hi * n + pair[1])
                 for axes, lo, hi in cells for pair in pairs]
    color_of = coloring.color_of
    assignment = {axes: color_of((lo, hi)) for axes, lo, hi in cells}
    return MapColoring(KIND_SUBGRID, coloring.r, assignment)


def reduce_subposet_to_subgrid(c1: Coloring, g: GridPoset, m: int) -> MapColoring:
    """Color each (m^2)-side subgrid of n^2 by c1 evaluated at its core.

    The core of (a, b) is the points (a[m*i+j], b[m*j+i]), so its element
    indices are row offsets of a plus column values of b. Rows grow with
    m*i+j and columns stay below n, so the sums come out sorted.
    """
    if c1.kind != KIND_SUBPOSET:
        raise ContractViolation("reduction expects a subposet-copy coloring")
    if g.t != 2:
        raise ContractViolation("the core reduction lives in two dimensions")
    if m < 1:
        raise ContractViolation(f"the core reduction needs m >= 1, got {m}")
    n = g.k
    side = m * m
    if side > n:
        raise ContractViolation("need 1 <= m <= n for subgrid enumeration")
    axes = list(combinations(range(n), side))
    places = [(i, j) for i in range(m) for j in range(m)]
    rows = [[a[m * i + j] * n for i, j in places] for a in axes]
    cols = [[b[m * j + i] for i, j in places] for b in axes]
    color_of = c1.color_of
    assignment = {}
    for a, row in zip(axes, rows):
        for b, col in zip(axes, cols):
            assignment[a, b] = color_of(tuple(map(add, row, col)))
    return MapColoring(KIND_SUBGRID, c1.r, assignment)


# -- monochromatic-substructure search ---------------------------------------------


def _subsets_within(n: int, l: int, m: int) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """Each l-subset of range(n) mapped to its m-subsets, both in
    ``combinations`` order. The m-side subgrids inside an l-side subgrid of
    n^t are the product of the lists of its axis sets."""
    return {outer: list(combinations(outer, m)) for outer in combinations(range(n), l)}


def find_monochromatic_subgrid(n: int, t: int, m: int, l: int, coloring: Coloring,
                               guard_structures: int = STRUCTURE_GUARD
                               ) -> Optional[MonoWitness]:
    """First l^t subgrid whose m^t subgrids all share a color, else None.

    Subgrids are scanned in ``enumerate_subgrids`` order and the inner ones
    in ``subgrids_within`` order; each scan stops at its first color mismatch.
    """
    if coloring.kind != KIND_SUBGRID:
        raise ContractViolation("subgrid search expects a subgrid coloring")
    if not 1 <= m <= l <= n:
        raise ContractViolation("need 1 <= m <= l <= n")
    work = math.comb(n, l) ** t * math.comb(l, m) ** t
    if work > guard_structures:
        raise GuardExceeded(f"subgrid scan of {work} cells exceeds guard")
    table = _subsets_within(n, l, m)
    color_of = coloring.color_of
    for outer in iproduct(table, repeat=t):
        inner = iproduct(*[table[axis] for axis in outer])
        color = color_of(next(inner))
        for key in inner:
            if color_of(key) != color:
                break
        else:
            return MonoWitness(KIND_SUBGRID, color, subgrid=Subgrid(outer))
    return None


def induced_copies(q: Poset, p: Poset, within: Optional[Sequence[int]] = None,
                   coloring: Optional[Coloring] = None,
                   guard_nodes: int = NODE_GUARD) -> Iterator[tuple[int, ...]]:
    """Induced copies of p inside q (restricted to ``within``), as image tuples
    indexed by p-element, in lexicographic order of the images.

    With a coloring, placements whose comparable pairs already disagree on a
    color are pruned, so the yields are exactly the monochromatic embeddings.
    ``within`` must name elements of q (ContractViolation otherwise).
    """
    steps = range(p.n)
    if within is not None and any(not 0 <= e < q.n for e in within):
        raise ContractViolation(f"within names an element outside the {q.n}-element host")
    allowed = (1 << q.n) - 1 if within is None else sum(1 << e for e in set(within))
    hook = None
    if coloring is not None:
        # below[s]: the earlier elements comparable to s, and whether each is below s.
        below = [[(y, p.lt(y, s)) for y in range(s) if p.comparable(y, s)] for s in steps]
        colors = [None] * (p.n + 1)  # colors[s]: the common color of steps < s

        def hook(step: int, cand: int, image: list[int]) -> bool:
            color = colors[step]
            for y, is_below in below[step]:
                a = image[y]
                c = coloring.color_of((a, cand) if is_below else (cand, a))
                if color is None:
                    color = c
                elif c != color:
                    return False
            colors[step + 1] = color
            return True

    return induced_embeddings(steps, order_checks(p, steps, q), [allowed] * p.n,
                              guard_nodes, "copy search exceeded its node guard",
                              hook, _check_deadline)


def enumerate_induced_copy_sets(q: Poset, p: Poset, within: Optional[Sequence[int]] = None,
                                guard_copies: int = COPY_GUARD,
                                guard_nodes: int = NODE_GUARD) -> list[tuple[int, ...]]:
    """Distinct element sets of q inducing copies of p, first-found order."""
    seen = set()
    out = []
    for image in induced_copies(q, p, within, guard_nodes=guard_nodes):
        key = tuple(sorted(image))
        if key not in seen:
            seen.add(key)
            out.append(key)
            if len(out) > guard_copies:
                raise GuardExceeded("induced-copy enumeration exceeded its guard")
    return out


def find_monochromatic_copy(q: Poset, p: Poset, coloring: Coloring,
                            within: Optional[Sequence[int]] = None,
                            guard_nodes: int = NODE_GUARD) -> Optional[MonoWitness]:
    """First induced copy of p in q whose comparable pairs share one color."""
    if coloring.kind != KIND_COMPARABILITY:
        raise ContractViolation("copy search expects a comparability coloring")
    for image in induced_copies(q, p, within, coloring, guard_nodes):
        color = None
        for a in range(p.n):
            for b in range(p.n):
                if p.lt(a, b):
                    color = coloring.color_of((min(image[a], image[b]),
                                               max(image[a], image[b])))
                    break
            if color is not None:
                break
        return MonoWitness(KIND_SUBPOSET, color, elements=tuple(image))
    return None


# -- counterexample-coloring search engine -------------------------------------------


def search_counterexample(num_keys: int, structures: Sequence[tuple[int, ...]], r: int,
                          node_guard: int = NODE_GUARD,
                          prefix: Sequence[tuple[int, int]] = (),
                          break_color_symmetry: bool = True
                          ) -> Optional[tuple[int, ...]]:
    """A coloring of 0..num_keys-1 leaving no structure monochromatic, or None.

    Each structure is a set of distinct keys. Deterministic: keys are branched
    in index order, colors in increasing order, and the first key is pinned to
    color 1 (color permutations act on the counterexample space). ``prefix``
    pins initial (key, color) choices, which is how parallel shards split the
    tree. A node is one attempt of a color not forbidden on its key; past
    ``node_guard`` nodes the search raises GuardExceeded.

    The state is a few big ints over the keys: ``assigned``, ``col[c]`` (keys
    colored c) and ``forb[c]`` (keys where c is forbidden), and each structure
    is one key mask. The search is an explicit stack of frames, each holding
    the state it started from, so undoing an attempt is dropping its copy.
    """
    if any(len(s) == 0 for s in structures):
        return None  # an empty structure is monochromatic under every coloring
    touching = [[] for _ in range(num_keys)]  # touching[k]: masks of structures holding k
    for keys in structures:
        mask = 0
        for k in keys:
            mask |= 1 << k
        for k in keys:
            touching[k].append(mask)
    colors = range(1, r + 1)

    def propagate(assigned: int, col: list, forb: list, key: int, color: int) -> int:
        """Color key and all that it forces, updating col and forb in place;
        the new assigned mask, or -1 on conflict."""
        queue = [(key, color)]
        while queue:
            k, c = queue.pop()
            bit = 1 << k
            if assigned & bit:
                if col[c] & bit:
                    continue
                return -1
            if forb[c] & bit:
                return -1
            assigned |= bit
            col[c] |= bit
            other = assigned ^ col[c]  # keys with a color other than c
            free = ~assigned
            for mask in touching[k]:
                if mask & other:
                    continue  # two colors: never monochromatic
                hole = mask & free
                if not hole:
                    return -1  # completed monochromatic
                if hole & (hole - 1) or forb[c] & hole:
                    continue
                forb[c] |= hole
                left = [cc for cc in colors if not forb[cc] & hole]
                if not left:
                    return -1
                if len(left) == 1:
                    queue.append((hole.bit_length() - 1, left[0]))
        return assigned

    def coloring(col: list) -> tuple[int, ...]:
        return tuple(next(c for c in colors if col[c] >> k & 1) for k in range(num_keys))

    assigned = 0
    col = [0] * (r + 1)
    forb = [0] * (r + 1)
    for k, c in prefix:
        assigned = propagate(assigned, col, forb, k, c)
        if assigned < 0:
            return None
    full = (1 << num_keys) - 1
    if assigned == full:
        return coloring(col)
    # A frame: (the lowest uncolored key, its colors left to try, the state
    # before it). Only a search that starts from nothing pins its first key.
    first = colors[:1] if break_color_symmetry and not assigned else colors
    stack = [((~assigned & (assigned + 1)).bit_length() - 1, iter(first),
              assigned, col, forb)]
    nodes = 0
    while stack:
        cursor, todo, assigned0, col0, forb0 = stack[-1]
        for c in todo:
            if forb0[c] >> cursor & 1:
                continue
            nodes += 1
            if nodes > node_guard:
                raise GuardExceeded(f"counterexample search exceeded its node guard "
                                    f"{node_guard} at depth {cursor}/{num_keys}")
            if not nodes & 0xFFF:
                _check_deadline()
            col = col0[:]
            forb = forb0[:]
            assigned = propagate(assigned0, col, forb, cursor, c)
            if assigned >= 0:
                break
        else:
            stack.pop()
            continue
        if assigned == full:
            return coloring(col)
        stack.append(((~assigned & (assigned + 1)).bit_length() - 1, iter(colors),
                      assigned, col, forb))
    return None


def _shard_worker(args):
    num_keys, structures, r, node_guard, prefix = args
    try:
        return ("done", search_counterexample(
            num_keys, structures, r, node_guard, prefix=prefix,
            break_color_symmetry=False))
    except GuardExceeded as exc:
        return ("guard", str(exc))


def _parallel_counterexample(num_keys: int, structures, r: int,
                             node_guard: int, workers: int):
    """Shard the first branching levels over processes; any hit is then
    canonicalized by re-running the deterministic serial search."""
    depth = 1
    while r ** depth < workers * 2 and depth < num_keys:
        depth += 1
    prefixes = []

    def build(prefix, k):
        if len(prefix) == depth or k >= num_keys:
            prefixes.append(tuple(prefix))
            return
        colors = (1,) if k == 0 else range(1, r + 1)
        for c in colors:
            prefix.append((k, c))
            build(prefix, k + 1)
            prefix.pop()

    build([], 0)
    guard_reasons = {}  # shard index -> why its search stopped
    with ProcessPoolExecutor(max_workers=workers) as pool:
        shard_of = {pool.submit(_shard_worker,
                                (num_keys, structures, r, node_guard, pre)): i
                    for i, pre in enumerate(prefixes)}
        futures = set(shard_of)
        found = None
        while futures:
            done, futures = wait(futures, return_when=FIRST_COMPLETED)
            for fut in done:
                status, result = fut.result()
                if status == "guard":
                    guard_reasons[shard_of[fut]] = result
                elif result is not None:
                    found = result
            if found is not None:
                for fut in futures:
                    fut.cancel()
                break
    if found is not None:
        # Canonical first-found witness comes from the serial order.
        return search_counterexample(num_keys, structures, r, node_guard)
    if guard_reasons:
        i = min(guard_reasons)  # every shard ran, so the first in shard order
        raise GuardExceeded(f"parallel shard {i + 1}/{len(prefixes)} "
                            f"(prefix {list(prefixes[i])}): {guard_reasons[i]}")
    return None


# -- verify / minimal-n -------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """Tri-state outcome of a Ramsey verification."""

    status: str  # "true" | "false" | "inconclusive"
    counterexample: Optional[MapColoring] = None
    reason: str = ""

    def is_true(self) -> bool:
        return self.status == "true"


def _run_engine(keys: Sequence, structures, r, kind, node_guard, workers) -> Verdict:
    if any(len(s) == 0 for s in structures):
        return Verdict("true", reason="a key-free substructure is always monochromatic")
    if not structures:
        counter = MapColoring(kind, r, {key: 1 for key in keys})
        return Verdict("false", counterexample=counter,
                       reason="no candidate substructure exists")
    try:
        if workers > 1:
            colors = _parallel_counterexample(len(keys), structures, r,
                                              node_guard, workers)
        else:
            colors = search_counterexample(len(keys), structures, r, node_guard)
    except GuardExceeded as exc:
        return Verdict("inconclusive", reason=str(exc))
    if colors is None:
        return Verdict("true")
    assignment = {key: colors[i] for i, key in enumerate(keys)}
    return Verdict("false", counterexample=MapColoring(kind, r, assignment))


def verify_comparability_ramsey(p: Poset, q: Poset, r: int, *,
                                guard_copies: int = COPY_GUARD,
                                node_guard: int = NODE_GUARD,
                                workers: int = 1) -> Verdict:
    """True iff every r-coloring of q's comparabilities has a mono copy of p."""
    keys = comparability_keys(q)
    key_index = {key: i for i, key in enumerate(keys)}
    copies = enumerate_induced_copy_sets(q, p, guard_copies=guard_copies)
    structures = []
    seen = set()
    for elements in copies:
        struct = []
        for a, b in combinations(elements, 2):
            if q.comparable(a, b):
                struct.append(key_index[(a, b) if q.lt(a, b) else (b, a)])
        key = tuple(sorted(struct))
        if key not in seen:
            seen.add(key)
            structures.append(key)
    return _run_engine(keys, structures, r, KIND_COMPARABILITY, node_guard, workers)


def verify_grid_ramsey(kind: str, t: int, r: int, m: int, l: int, n: int, *,
                       guard_structures: int = STRUCTURE_GUARD,
                       guard_copies: int = COPY_GUARD,
                       node_guard: int = NODE_GUARD,
                       workers: int = 1) -> Verdict:
    """Subgrid or subposet-copy Ramsey verification on n^t at sizes (m, l)."""
    if not 1 <= m <= l <= n:
        raise ContractViolation("need 1 <= m <= l <= n")
    if kind == KIND_SUBGRID:
        work = math.comb(n, l) ** t * math.comb(l, m) ** t
        if work > guard_structures:
            return Verdict("inconclusive",
                           reason=f"subgrid structure universe {work} exceeds guard")
        keys = list(iproduct(combinations(range(n), m), repeat=t))
        key_index = {key: i for i, key in enumerate(keys)}
        table = _subsets_within(n, l, m)
        structures = [tuple(key_index[inner]
                            for inner in iproduct(*[table[axis] for axis in outer]))
                      for outer in iproduct(table, repeat=t)]
        return _run_engine(keys, structures, r, KIND_SUBGRID, node_guard, workers)
    if kind in (KIND_SUBPOSET, "subposet"):
        ambient = grid(n, t)
        small = grid(m, t)
        large = grid(l, t)
        try:
            keys = enumerate_induced_copy_sets(ambient, small, guard_copies=guard_copies)
            key_index = {key: i for i, key in enumerate(keys)}
            structures = []
            seen = set()
            for hull in enumerate_induced_copy_sets(ambient, large,
                                                    guard_copies=guard_copies):
                inner = enumerate_induced_copy_sets(ambient, small, within=hull,
                                                    guard_copies=guard_copies)
                struct = tuple(sorted(key_index[e] for e in inner))
                if struct not in seen:
                    seen.add(struct)
                    structures.append(struct)
        except GuardExceeded as exc:
            return Verdict("inconclusive", reason=str(exc))
        return _run_engine(keys, structures, r, KIND_SUBPOSET, node_guard, workers)
    raise ContractViolation(f"unknown kind {kind!r}")


def verify_ramsey_witness(p: Poset, q: Poset, r: int,
                          kind: str = KIND_COMPARABILITY, *,
                          m: Optional[int] = None, **guards) -> Verdict:
    """Spec-facing wrapper: comparability over posets, grid kinds over grids."""
    if kind == KIND_COMPARABILITY:
        return verify_comparability_ramsey(p, q, r, **guards)
    if not isinstance(p, GridPoset) or not isinstance(q, GridPoset):
        raise ContractViolation("grid kinds need GridPoset arguments")
    if m is None:
        raise ContractViolation("grid kinds need the subobject side m")
    return verify_grid_ramsey(kind, q.t, r, m, p.k, q.k, **guards)


@dataclass(frozen=True)
class MinRamseyResult:
    kind: str
    params: tuple
    n_found: Optional[int]
    status: str  # "found" | "not-found" | "inconclusive"
    verdicts: dict = field(hash=False, default_factory=dict)

    def counterexamples(self) -> dict:
        return {n: v.counterexample for n, v in self.verdicts.items()
                if v.status == "false"}


def min_ramsey_n(t: int, r: int, m: int, l: int, kind: str, n_max: int,
                 *, workers: int = 1, **guards) -> MinRamseyResult:
    """Smallest n <= n_max passing verification, counterexamples archived below.

    Inconclusive verdicts poison the result: minimality cannot be certified
    past a guard, so the status reports it instead of guessing.
    """
    verdicts: dict[int, Verdict] = {}
    params = (t, r, m, l)
    for n in range(l, n_max + 1):
        if kind == KIND_COMPARABILITY:
            v = verify_comparability_ramsey(grid(l, t), grid(n, t), r,
                                            workers=workers, **guards)
        else:
            v = verify_grid_ramsey(kind, t, r, m, l, n, workers=workers, **guards)
        verdicts[n] = v
        if v.status == "inconclusive":
            return MinRamseyResult(kind, params, None, "inconclusive", verdicts)
        if v.status == "true":
            return MinRamseyResult(kind, params, n, "found", verdicts)
    return MinRamseyResult(kind, params, None, "not-found", verdicts)


# -- multicolor bootstrap (two colors suffice) ----------------------------------------


@dataclass(frozen=True)
class BootstrapStep:
    """One 2-color step: every 2-coloring of ``witness`` yields a mono ``base``."""

    base: Poset
    witness: Poset


@dataclass(frozen=True)
class BootstrapResult:
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


@dataclass(frozen=True)
class BooleanLatticeEmbedding:
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
    for x in range(d):
        for y in range(d):
            if x == y:
                continue
            below = all(a <= b for a, b in zip(vectors[x], vectors[y]))
            if below != p.le(x, y):
                raise ContractViolation("downset embedding failed validation")
    return BooleanLatticeEmbedding(d, tuple(vectors))


# -- realizer-type probe for the t = 3 counterexample idea -----------------------------


def _cube() -> GridPoset:
    return grid(2, 3)


def _cube_incomparable_pairs(cube: GridPoset) -> list[tuple[int, int]]:
    return list(cube.incomparable_pairs())


def cube_trace_type(g3: GridPoset, elements: Sequence[int]
                    ) -> tuple[tuple, bool]:
    """Canonical coordinate-trace type of an induced 2^3 copy, plus tie-freeness.

    The trace records, per ambient axis and per incomparable pair of the
    abstract cube, the sign of the coordinate difference; the type is the
    minimum encoding over cube relabelings and axis permutations. A copy is
    tie-free when no incomparable pair is tied on any axis, i.e. the
    coordinates induce a genuine realizer.
    """
    cube = _cube()
    sub = induced_subposet(g3, elements)
    elems = sorted(set(elements))
    isos = list(enumerate_isomorphisms(cube, sub))
    if not isos:
        raise ContractViolation("element set does not induce a 2^3 copy")
    pairs = _cube_incomparable_pairs(cube)
    coords = {e: g3.coords(e) for e in elems}
    best = None
    tie_free = True
    first = True
    for iso in isos:
        ambient = [coords[elems[iso[x]]] for x in range(8)]
        table = []
        for axis in range(3):
            row = []
            for a, b in pairs:
                diff = ambient[b][axis] - ambient[a][axis]
                sign = (diff > 0) - (diff < 0)
                row.append(sign)
            table.append(tuple(row))
        if first:
            tie_free = all(0 not in row for row in table)
            first = False
        for perm in permutations(range(3)):
            enc = tuple(table[axis] for axis in perm)
            if best is None or enc < best:
                best = enc
    return best, tie_free


def product_trace_type() -> tuple:
    """The type induced by any 2^3 subgrid (the standard product realizer)."""
    g3 = grid(3, 3)
    elements = [g3.index(c) for c in
                ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1),
                 (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1))]
    return cube_trace_type(g3, elements)[0]


@dataclass(frozen=True)
class ProbeReport:
    n: int
    copies_scanned: int
    census: tuple[tuple[tuple, int], ...]
    tie_free_census: tuple[tuple[tuple, int], ...]
    product_type: tuple

    @property
    def distinct_types(self) -> int:
        return len(self.census)

    def summary(self) -> str:
        lines = [f"2^3 subposet copies of {self.n}^3 scanned: {self.copies_scanned}",
                 f"distinct coordinate-trace types: {self.distinct_types}",
                 f"tie-free types: {len(self.tie_free_census)}"]
        for i, (tkey, count) in enumerate(self.census):
            flag = " (product)" if tkey == self.product_type else ""
            lines.append(f"type {i}: {count} copies{flag}")
        return "\n".join(lines)


def enumerate_tie_free_cube_copies(g3: GridPoset,
                                   guard_nodes: int = NODE_GUARD
                                   ) -> list[tuple[int, ...]]:
    """Element sets of n^3 inducing 2^3 with no incomparable pair tied on any axis.

    Tie-freeness is exactly what lets the coordinates induce a realizer, so
    the incomparable rows handed to the kernel also exclude every element
    sharing a coordinate with the placed one.
    """
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
    checks = order_checks(_cube(), slot_order, g3, tie_free_inc)
    seen = set()
    out = []
    for image in induced_embeddings(slot_order, checks, [(1 << g3.n) - 1] * 8, guard_nodes,
                                    "tie-free copy search exceeded its node guard"):
        key = tuple(sorted(image))
        if key not in seen:
            seen.add(key)
            out.append(key)
    return out


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
    census: dict[tuple, int] = {}
    tie_census: dict[tuple, int] = {}
    if scope == "all":
        copies = enumerate_induced_copy_sets(g3, _cube(), guard_copies=guard_copies,
                                             guard_nodes=guard_nodes)
        for elements in copies:
            tkey, tie_free = cube_trace_type(g3, elements)
            census[tkey] = census.get(tkey, 0) + 1
            if tie_free:
                tie_census[tkey] = tie_census.get(tkey, 0) + 1
    elif scope == "tie-free":
        copies = enumerate_tie_free_cube_copies(g3, guard_nodes=guard_nodes)
        if len(copies) > guard_copies:
            raise GuardExceeded("tie-free census exceeded its copy guard")
        for elements in copies:
            tkey, tie_free = cube_trace_type(g3, elements)
            if not tie_free:
                raise ContractViolation("tie-free enumerator produced a tied copy")
            census[tkey] = census.get(tkey, 0) + 1
            tie_census[tkey] = tie_census.get(tkey, 0) + 1
    else:
        raise ContractViolation(f"unknown probe scope {scope!r}")
    return ProbeReport(
        n=n,
        copies_scanned=len(copies),
        census=tuple(sorted(census.items())),
        tie_free_census=tuple(sorted(tie_census.items())),
        product_type=product_trace_type(),
    )


def embed_cube_by_extensions(n: int, exts: Sequence[LinearExtension],
                             value_sets: Optional[Sequence[Sequence[int]]] = None
                             ) -> tuple[int, ...]:
    """Separated 2^3 copy of n^3 built from a realizer triple's positions.

    Axis i of the image of x is value_sets[i][position of x in exts[i]];
    value sets default to 0..7, which needs n >= 8.
    """
    cube = _cube()
    if len(exts) != 3:
        raise ContractViolation("a cube embedding needs exactly three orders")
    for ext in exts:
        if not is_linear_extension(cube, ext):
            raise ContractViolation("order is not a linear extension of the cube")
    if value_sets is None:
        value_sets = [list(range(8))] * 3
    g3 = grid(n, 3)
    image = []
    for x in range(8):
        coordsx = tuple(sorted(value_sets[i])[exts[i].index(x)] for i in range(3))
        image.append(g3.index(coordsx))
    return tuple(image)


def cube_realizer_triples(limit: Optional[int] = None) -> list[tuple[LinearExtension, ...]]:
    """Ordered extension triples of 2^3 whose set is a realizer."""
    cube = _cube()
    exts = linear_extensions(cube, cap=8)
    above = [e.above_masks() for e in exts]
    out = []
    for i in range(len(exts)):
        for j in range(len(exts)):
            rows_ij = [a & b for a, b in zip(above[i], above[j])]
            for k in range(len(exts)):
                inter = tuple(a & b for a, b in zip(rows_ij, above[k]))
                if inter == cube.up:
                    out.append((exts[i], exts[j], exts[k]))
                    if limit is not None and len(out) >= limit:
                        return out
    return out
