"""Finite strict partial orders on indexed elements, stored as bitmask rows.

Elements are the integers 0..n-1. Row ``up[i]`` is a Python-int bitmask of
every j with i < j, so comparability tests and intersections of relations
are single big-int operations. ``Poset(up)`` validates irreflexivity,
antisymmetry and transitivity, so every instance is a genuine strict order;
the one exception to the check is ``grids.grid``, whose ``GridPoset`` rows
are strict orders by construction and are stored as built. Instances are
immutable and safe for concurrent reads.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import and_, le
from typing import Callable, Generator, Iterable, Iterator, Optional, Sequence

from .errors import ContractViolation, GuardExceeded, Record

EXTENSION_CAP = 12
ISO_CAP = 16


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Poset:
    """Immutable strict order; ``up[i]``/``dn[i]``/``inc[i]`` are the bitmasks of
    the elements above, below and incomparable to i."""

    __slots__ = ("n", "up", "dn", "inc", "labels")

    def __init__(self, up: Sequence[int], labels: Optional[Sequence[str]] = None):
        n = len(up)
        self.n = n
        self.up = tuple(up)
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ContractViolation("label count does not match element count")
        self.labels = labels
        full = (1 << n) - 1
        dn = [0] * n
        for i, row in enumerate(self.up):
            if row & ~full:
                raise ContractViolation(f"relation row {i} has bits outside 0..{n - 1}")
            if (row >> i) & 1:
                raise ContractViolation(f"irreflexivity violated at element {i}")
            for j in iter_bits(row):
                if (self.up[j] >> i) & 1:
                    raise ContractViolation(f"antisymmetry violated on ({i}, {j})")
                if self.up[j] & ~row:
                    raise ContractViolation(f"transitivity violated below element {i}")
                dn[j] |= 1 << i
        self.dn = tuple(dn)
        self.inc = tuple(full & ~(u | d | (1 << i))
                         for i, (u, d) in enumerate(zip(self.up, dn)))

    # -- relation accessors -------------------------------------------------

    def lt(self, x: int, y: int) -> bool:
        return (self.up[x] >> y) & 1 == 1

    def le(self, x: int, y: int) -> bool:
        return x == y or (self.up[x] >> y) & 1 == 1

    def comparable(self, x: int, y: int) -> bool:
        return x != y and ((self.up[x] >> y) & 1 or (self.up[y] >> x) & 1)

    def incomparable(self, x: int, y: int) -> bool:
        return x != y and not self.comparable(x, y)

    def comparable_pairs(self) -> Iterator[tuple[int, int]]:
        """All ordered pairs (a, b) with a < b, sorted by (a, b)."""
        for a in range(self.n):
            yield from ((a, b) for b in iter_bits(self.up[a]))

    def incomparable_pairs(self) -> Iterator[tuple[int, int]]:
        """All unordered incomparable pairs as (a, b) with a < b numerically."""
        for a in range(self.n):
            for b in iter_bits(self.inc[a]):
                if b > a:
                    yield (a, b)

    def relation_count(self) -> int:
        return sum(row.bit_count() for row in self.up)

    def dual(self) -> "Poset":
        return Poset(self.dn, labels=self.labels)

    # -- structural dunders -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poset) and self.n == other.n and self.up == other.up

    def __hash__(self) -> int:
        return hash((self.n, self.up))

    def __repr__(self) -> str:
        return f"Poset(n={self.n}, relations={self.relation_count()})"

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_lt_pairs(cls, n: int, pairs: Iterable[tuple[int, int]],
                      labels: Optional[Sequence[str]] = None) -> "Poset":
        """Build from an already transitively closed strict relation."""
        up = [0] * n
        for a, b in pairs:
            up[a] |= 1 << b
        return cls(up, labels=labels)

    @classmethod
    def from_covers(cls, n: int, covers: Iterable[tuple[int, int]],
                    labels: Optional[Sequence[str]] = None) -> "Poset":
        """Build from cover pairs; the transitive closure is computed here.

        A cycle in the input surfaces as a ContractViolation.
        """
        up = [0] * n
        for a, b in covers:
            if a == b:
                raise ContractViolation(f"cover loop at element {a}")
            up[a] |= 1 << b
        for k in range(n):
            bit = 1 << k
            row_k = up[k]
            for i in range(n):
                if up[i] & bit:
                    up[i] |= row_k
        for i in range(n):
            if (up[i] >> i) & 1:
                raise ContractViolation("cover relation contains a cycle")
        return cls(up, labels=labels)


def make_chain(k: int) -> Poset:
    """The k-element chain 0 < 1 < ... < k-1."""
    if k < 1:
        raise ContractViolation("a chain needs at least one element")
    full = (1 << k) - 1
    return Poset([(full >> (i + 1)) << (i + 1) for i in range(k)])


def make_antichain(k: int) -> Poset:
    if k < 1:
        raise ContractViolation("an antichain needs at least one element")
    return Poset([0] * k)


def product(p: Poset, q: Poset) -> Poset:
    """Componentwise product; element (i, j) gets index i * q.n + j."""
    qn = q.n
    ge_q = [q.up[j] | (1 << j) for j in range(qn)]
    up = []
    for i in range(p.n):
        ge_p = p.up[i] | (1 << i)
        for j in range(qn):
            row = 0
            block = ge_q[j]
            for k in iter_bits(ge_p):
                row |= block << (k * qn)
            up.append(row & ~(1 << (i * qn + j)))
    return Poset(up)


# -- linear extensions --------------------------------------------------------


class LinearExtension(Record):
    """A total order of 0..n-1; position = size of the closed downset - 1."""

    order: tuple[int, ...]

    def __init__(self, order: tuple[int, ...]):
        n = len(order)
        pos = [-1] * n
        for p, x in enumerate(order):
            if not 0 <= x < n or pos[x] != -1:
                raise ContractViolation("order is not a permutation")
            pos[x] = p
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_pos", tuple(pos))

    def index(self, x: int) -> int:
        return self._pos[x]  # type: ignore[attr-defined]

    def height(self, x: int) -> int:
        """1-based position from below, the size of the closed downset."""
        return self.index(x) + 1

    def before(self, x: int, y: int) -> bool:
        return self.index(x) < self.index(y)

    def dual(self) -> "LinearExtension":
        return LinearExtension(tuple(reversed(self.order)))

    def above_masks(self) -> tuple[int, ...]:
        """Per element, the bitmask of elements strictly after it."""
        n = len(self.order)
        above = [0] * n
        seen = 0
        for x in reversed(self.order):
            above[x] = seen
            seen |= 1 << x
        return tuple(above)


def dual(ext: LinearExtension) -> LinearExtension:
    """Reversed order; an involution."""
    return ext.dual()


def is_linear_extension(p: Poset, ext: LinearExtension) -> bool:
    if len(ext.order) != p.n:
        return False
    placed = 0
    for x in ext.order:
        if p.up[x] & placed:
            return False
        placed |= 1 << x
    return True


def linear_extensions(p: Poset, cap: int = EXTENSION_CAP) -> list[LinearExtension]:
    """All linear extensions, lexicographic by element index.

    Guarded by ``cap`` on the element count; each output is re-validated
    against the extension invariant.
    """
    if p.n > cap:
        raise GuardExceeded(f"linear extension enumeration capped at {cap} elements")
    n, dn = p.n, p.dn
    full = (1 << n) - 1
    out: list[LinearExtension] = []
    order: list[int] = []

    def rec(placed: int) -> None:
        if placed == full:
            ext = LinearExtension(tuple(order))
            if not is_linear_extension(p, ext):
                raise ContractViolation("enumerated order failed extension validation")
            out.append(ext)
            return
        remaining = full & ~placed
        for x in iter_bits(remaining):
            if dn[x] & ~placed:
                continue
            order.append(x)
            rec(placed | (1 << x))
            order.pop()

    rec(0)
    return out


def count_linear_extensions(p: Poset) -> int:
    """Downset-DP count, independent of the enumerating search."""
    n, dn = p.n, p.dn
    full = (1 << n) - 1
    memo: dict[int, int] = {full: 1}

    def cnt(placed: int) -> int:
        got = memo.get(placed)
        if got is not None:
            return got
        total = 0
        for x in iter_bits(full & ~placed):
            if not dn[x] & ~placed:
                total += cnt(placed | (1 << x))
        memo[placed] = total
        return total

    return cnt(0)


# -- realizers ------------------------------------------------------------------


class Realizer(Record):
    """A tuple of linear extensions whose intersection is the poset."""

    extensions: tuple[LinearExtension, ...]

    def __len__(self) -> int:
        return len(self.extensions)


def is_realizer(p: Poset, extensions: Sequence[LinearExtension]) -> bool:
    """True iff the intersection of the extensions' orders equals ``p``.

    Supplying an order that is not a linear extension of ``p`` is a
    contract violation, not a False verdict.
    """
    if not extensions:
        raise ContractViolation("a realizer needs at least one extension")
    for ext in extensions:
        if not is_linear_extension(p, ext):
            raise ContractViolation("supplied order is not a linear extension of the poset")
    return tuple(reduce(and_, rows)
                 for rows in zip(*(ext.above_masks() for ext in extensions))) == p.up


def realizer_tuples(p: Poset, t: int, exts: Sequence[LinearExtension]
                    ) -> Iterator[tuple[int, ...]]:
    """The index t-tuples of ``exts``, in product order, whose orders intersect
    to ``p`` (Dushnik and Miller, 1941), each prefix's meet of ``above_masks``
    taken once; read as coordinates, each is an order-embedding into a grid."""
    if t < 1:
        raise ContractViolation("a realizer needs at least one extension")
    for ext in exts:
        if not is_linear_extension(p, ext):
            raise ContractViolation("supplied order is not a linear extension of the poset")
    above = [ext.above_masks() for ext in exts]

    def extend(prefix: tuple[int, ...], meet: tuple[int, ...],
               left: int) -> Iterator[tuple[int, ...]]:
        for i, rows in enumerate(above):
            rows = tuple(map(and_, meet, rows))
            if left > 1:
                yield from extend(prefix + (i,), rows, left - 1)
            elif rows == p.up:
                yield prefix + (i,)

    return extend((), (-1,) * p.n, t)


def order_embedding_violation(p: Poset, coords: Sequence[Sequence[int]]
                              ) -> Optional[tuple[int, int]]:
    """The first pair x != y, in row order, whose coordinates compare
    componentwise <= other than as x < y in ``p``; None when ``coords``
    order-embeds p."""
    if len(coords) != p.n:
        raise ContractViolation("an order-embedding needs one coordinate tuple per element")
    for x, cx in enumerate(coords):
        for y, cy in enumerate(coords):
            if x != y and all(map(le, cx, cy)) != p.lt(x, y):
                return x, y
    return None


def find_realizer(p: Poset, size: int,
                  ext_cap: int = EXTENSION_CAP) -> Optional[Realizer]:
    """Search a realizer with exactly ``size`` distinct-or-repeated extensions.

    Brute force with reversal-coverage pruning; intended for tiny posets.
    """
    if size < 1:
        raise ContractViolation("realizer size must be positive")
    exts = linear_extensions(p, cap=ext_cap)
    inc = list(p.incomparable_pairs())
    if not inc:
        return Realizer(tuple([exts[0]] * size))
    # Bit b of a coverage mask: ordered pair; even bits (x, y), odd bits (y, x).
    masks = []
    for ext in exts:
        m = 0
        for b, (x, y) in enumerate(inc):
            if ext.before(y, x):
                m |= 1 << (2 * b)
            else:
                m |= 1 << (2 * b + 1)
        masks.append(m)
    target = (1 << (2 * len(inc))) - 1
    suffix_or = [0] * (len(exts) + 1)
    for i in range(len(exts) - 1, -1, -1):
        suffix_or[i] = suffix_or[i + 1] | masks[i]
    chosen: list[int] = []

    def rec(start: int, covered: int, left: int) -> Optional[tuple[int, ...]]:
        if covered == target:
            return tuple(chosen)
        if left == 0 or covered | suffix_or[start] != target:
            return None
        for i in range(start, len(exts)):
            chosen.append(i)
            got = rec(i + 1, covered | masks[i], left - 1)
            if got is not None:
                return got
            chosen.pop()
        return None

    got = rec(0, 0, size)
    if got is None:
        return None
    picked = [exts[i] for i in got]
    while len(picked) < size:
        picked.append(picked[0])
    rz = Realizer(tuple(picked))
    if not is_realizer(p, rz.extensions):
        raise ContractViolation("realizer search produced an invalid witness")
    return rz


def dimension(p: Poset, max_d: int = 4, ext_cap: int = EXTENSION_CAP) -> int:
    """Dushnik-Miller dimension by brute-force realizer search."""
    for d in range(1, max_d + 1):
        if find_realizer(p, d, ext_cap=ext_cap) is not None:
            return d
    raise GuardExceeded(f"no realizer of size <= {max_d} found")


# -- induced subposets, isomorphism, alternating cycles -------------------------


def induced_subposet(p: Poset, subset: Iterable[int]) -> Poset:
    """Relation restricted to ``subset``; new index i is the i-th smallest
    original element."""
    elems = sorted(set(subset))
    if not elems:
        raise ContractViolation("induced subposet needs a nonempty subset")
    if elems[0] < 0 or elems[-1] >= p.n:
        raise ContractViolation("subset element out of range")
    where = {e: i for i, e in enumerate(elems)}
    up = [0] * len(elems)
    for i, e in enumerate(elems):
        row = p.up[e]
        for f in elems:
            if (row >> f) & 1:
                up[i] |= 1 << where[f]
    labels = None
    if p.labels is not None:
        labels = [p.labels[e] for e in elems]
    return Poset(up, labels=labels)


def _profiles(p: Poset) -> list[tuple[int, int]]:
    return [(p.dn[i].bit_count(), p.up[i].bit_count()) for i in range(p.n)]


def induced_embeddings(order: Sequence[int],
                       checks: Sequence[Sequence[tuple[int, Sequence[int]]]],
                       allowed: Sequence[int],
                       guard_nodes: Optional[int] = None,
                       guard_message: str = "embedding search exceeded its node guard",
                       periodic: Optional[Callable[[], None]] = None
                       ) -> Generator[tuple[int, ...], None, int]:
    """Every injective placement of pattern elements 0..k-1 that passes the masks.

    Step s places element ``order[s]``. Its candidates are the host elements
    in ``allowed[s]``, minus those already used, ANDed with
    ``table[image[y]]`` for each ``(y, table)`` in ``checks[s]`` (y an
    element placed earlier): the candidate refinement of Ullmann (1976) and
    VF2 (Cordella et al., 2004). Candidates are tried in increasing order,
    so yields come depth-first in lexicographic order of the step images.
    Each yield is the image tuple indexed by pattern element.

    A node is a placement that survived the masks. Counting only survivors, a
    search never visits more nodes than one that tests each candidate pair by
    pair, so a search that finished under ``guard_nodes`` that way still
    does. Past
    the guard, GuardExceeded(``guard_message``) is raised; ``periodic`` runs
    every 4096 nodes. The generator returns the number of nodes visited.
    """
    k = len(order)
    if k == 0:
        yield ()
        return 0
    limit = math.inf if guard_nodes is None else guard_nodes
    image = [-1] * k
    pending = [0] * k
    pending[0] = allowed[0]
    used = 0
    nodes = 0
    step = 0
    last = k - 1
    while True:
        mask = pending[step]
        if not mask:
            if step == 0:
                return nodes
            step -= 1
            used ^= 1 << image[order[step]]
            continue
        low = mask & -mask
        pending[step] = mask ^ low
        cand = low.bit_length() - 1
        nodes += 1
        if nodes > limit:
            raise GuardExceeded(guard_message)
        if periodic is not None and not nodes & 0xFFF:
            periodic()
        image[order[step]] = cand
        if step == last:
            yield tuple(image)
            continue
        used |= low
        step += 1
        mask = allowed[step] & ~used
        for y, table in checks[step]:
            mask &= table[image[y]]
        pending[step] = mask


def order_checks(p: Poset, order: Sequence[int], host: Poset,
                 inc: Optional[Sequence[int]] = None,
                 up: Optional[Sequence[int]] = None, dn: Optional[Sequence[int]] = None
                 ) -> list[list[tuple[int, Sequence[int]]]]:
    """``checks`` for ``induced_embeddings`` that keep a copy of p induced.

    The image of x must lie above, below or incomparable to the image of
    each earlier y as x does to y in p; ``inc``, ``up`` and ``dn`` narrow
    the host's rows.
    """
    inc = host.inc if inc is None else inc
    up = host.up if up is None else up
    dn = host.dn if dn is None else dn
    return [[(y, up if p.lt(y, x) else dn if p.lt(x, y) else inc)
             for y in order[:s]] for s, x in enumerate(order)]


def orbit_checks(p: Poset, order: Sequence[int], host_n: int
                 ) -> list[list[tuple[int, Sequence[int]]]]:
    """Extra ``checks`` that keep one embedding of p per Aut(p) orbit: the
    lex-least in step order, the one ``induced_embeddings`` finds first.

    The symmetry breaking of Grochow and Kellis (2007) along a stabilizer
    chain: for each b that an automorphism fixing ``order[:s]`` sends
    ``order[s]`` to, the image of ``order[s]`` must lie below that of b
    (host elements numbered ``0..host_n-1``). Each such automorphism is
    looked for by an existence search of p in itself through the kernel, so
    no ``ISO_CAP`` applies.
    """
    prof = _profiles(p)
    classes = [sum(1 << j for j in range(p.n) if prof[j] == prof[i]) for i in range(p.n)]
    self_checks = order_checks(p, order, p)
    step_of = {x: s for s, x in enumerate(order)}
    gt = [-(2 << v) for v in range(host_n)]  # gt[v]: the host elements above v
    out: list[list[tuple[int, Sequence[int]]]] = [[] for _ in order]
    allowed = [classes[x] for x in order]
    fixed = 0
    for s, x in enumerate(order):
        fixed |= 1 << x
        for b in iter_bits(allowed[s] & ~fixed):
            allowed[s] = 1 << b
            if next(induced_embeddings(order, self_checks, allowed), None) is not None:
                out[step_of[b]].append((x, gt))
        allowed[s] = 1 << x
    return out


def enumerate_isomorphisms(p: Poset, q: Poset,
                           cap: int = ISO_CAP) -> Iterator[tuple[int, ...]]:
    """Yield every relation-preserving bijection p -> q.

    Elements with fewer same-profile candidates (downset size, upset size)
    are placed first; guarded by ``cap``.
    """
    if max(p.n, q.n) > cap:
        raise GuardExceeded(f"isomorphism search capped at {cap} elements")
    if p.n != q.n or p.relation_count() != q.relation_count():
        return
    prof_p, prof_q = _profiles(p), _profiles(q)
    if sorted(prof_p) != sorted(prof_q):
        return
    n = p.n
    classes = [sum(1 << j for j in range(n) if prof_q[j] == prof_p[i]) for i in range(n)]
    order = sorted(range(n), key=lambda i: (classes[i].bit_count(), i))
    yield from induced_embeddings(order, order_checks(p, order, q),
                                  [classes[i] for i in order])


def is_isomorphic(p: Poset, q: Poset, cap: int = ISO_CAP) -> Optional[tuple[int, ...]]:
    """A witness bijection preserving the relation both ways, or None."""
    for mapping in enumerate_isomorphisms(p, q, cap=cap):
        return mapping
    return None


def automorphisms(p: Poset, cap: int = ISO_CAP) -> list[tuple[int, ...]]:
    return list(enumerate_isomorphisms(p, p, cap=cap))


def is_alternating_cycle(p: Poset, pairs: Sequence[tuple[int, int]]) -> bool:
    """True iff x_i <= y_{i+1} cyclically for the given incomparable pairs.

    An alternating cycle is the obstruction to reversing all the pairs in a
    single linear extension. Comparable input pairs are a contract violation.
    """
    if not pairs:
        raise ContractViolation("an alternating cycle needs at least one pair")
    for x, y in pairs:
        if not p.incomparable(x, y):
            raise ContractViolation(f"pair ({x}, {y}) is not incomparable")
    m = len(pairs)
    return all(p.le(pairs[i][0], pairs[(i + 1) % m][1]) for i in range(m))
