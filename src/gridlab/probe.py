"""The cube probe for the paper's t = 3 counterexample idea.

Each induced copy of the cube 2^3 in n^3 is typed by its coordinate traces:
per ambient axis and per incomparable pair of the cube, the sign of the
coordinate difference, least over the cube's automorphisms and the axis
permutations. A copy is tie-free when no incomparable pair is tied on any
axis, so that its coordinates induce a realizer. ``realizer_type_probe``
takes the census of these types over one copy per element set, found by one
walk of the induced-embedding kernel.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import islice
from typing import Iterator, Optional, Sequence

from .engine import NODE_GUARD, _check_deadline
from .errors import ContractViolation, GuardExceeded, Record
from .grids import GridPoset, grid
from .poset import (
    LinearExtension,
    automorphisms,
    induced_embeddings,
    induced_subposet,
    is_isomorphic,
    is_linear_extension,
    linear_extensions,
    orbit_checks,
    order_checks,
    realizer_tuples,
)


@lru_cache(maxsize=None)
def _cube_pair_maps() -> tuple[tuple[tuple[int, int], ...], ...]:
    """The cube's incomparable pairs (a, b) as (s[a], s[b]), per s in Aut(2^3)."""
    cube = grid(2, 3)
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
    iso = is_isomorphic(grid(2, 3), induced_subposet(g3, elems))
    if iso is None:
        raise ContractViolation("element set does not induce a 2^3 copy")
    return _trace_type(g3, [elems[i] for i in iso])


def product_trace_type() -> tuple:
    """The type induced by any 2^3 subgrid (the standard product realizer)."""
    return _trace_type(grid(2, 3), range(8))[0]


class ProbeReport(Record):
    n: int
    copies_scanned: int
    census: tuple[tuple[tuple, int], ...]
    tie_free_census: tuple[tuple[tuple, int], ...]
    product_type: tuple

    @property
    def distinct_types(self) -> int:
        return len(self.census)


def _tie_free_rows(g3: GridPoset) -> list[int]:
    """g3's incomparable rows less every element that shares a coordinate
    with the row's own: the pairs a tie-free copy may map an incomparable
    pair of the cube to."""
    if g3.t != 3:
        raise ContractViolation("the probe works on 3-dimensional grids")
    coords = [g3.coords(e) for e in range(g3.n)]
    on_axis = [[0] * g3.k for _ in range(3)]  # on_axis[a][v]: coordinate a equals v
    for e, c in enumerate(coords):
        for a in range(3):
            on_axis[a][c[a]] |= 1 << e
    return [row & ~(on_axis[0][x] | on_axis[1][y] | on_axis[2][z])
            for row, (x, y, z) in zip(g3.inc, coords)]


def _cube_embeddings(g3: GridPoset, inc: Sequence[int],
                     guard_nodes: int) -> Iterator[tuple[int, ...]]:
    """One embedding of 2^3 in n^3 per copy whose incomparable pairs lie in
    the rows ``inc`` (``g3.inc``: every copy), indexed by cube element."""
    # Atoms and coatoms first: they carry all nine incomparability constraints.
    slot_order = (1, 2, 4, 3, 5, 6, 0, 7)
    cube = grid(2, 3)
    checks = [c + o for c, o in zip(order_checks(cube, slot_order, g3, inc),
                                    orbit_checks(cube, slot_order, g3.n))]
    what = "copy search" if inc is g3.inc else "tie-free copy search"
    return induced_embeddings(slot_order, checks, [(1 << g3.n) - 1] * 8, guard_nodes,
                              f"{what} exceeded its node guard", _check_deadline)


def enumerate_tie_free_cube_copies(g3: GridPoset,
                                   guard_nodes: int = NODE_GUARD
                                   ) -> list[tuple[int, ...]]:
    """Element sets of n^3 inducing 2^3 with no incomparable pair tied on any axis.

    Tie-freeness is exactly what lets the coordinates induce a realizer, so
    the incomparable rows handed to the kernel also exclude every element
    sharing a coordinate with the placed one.
    """
    return [tuple(sorted(image))
            for image in _cube_embeddings(g3, _tie_free_rows(g3), guard_nodes)]


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
    if scope not in ("all", "tie-free"):
        raise ContractViolation(f"unknown probe scope {scope!r}")
    inc = g3.inc if scope == "all" else _tie_free_rows(g3)
    census, tie_census = Counter(), Counter()
    copies = 0
    for image in _cube_embeddings(g3, inc, guard_nodes):
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
    cube = grid(2, 3)
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
    cube = grid(2, 3)
    exts = linear_extensions(cube, cap=8)
    return [tuple(exts[i] for i in combo)
            for combo in islice(realizer_tuples(cube, 3, exts), limit)]
