"""Boolean realizers: signatures, Boolean dimension, realizer reconstruction.

A Boolean realizer of P is a list of d linear orders of P's ground set
(arbitrary permutations, not necessarily extensions) together with an
accepted set S of length-d bit strings such that x < y in P exactly when
the pair's signature lies in S. The dimension search never enumerates
accepted sets: cutting the pairs by each order's bitset or its complement
leaves one cell per signature; a tuple realizes P iff no cell mixes pairs
x < y with other pairs, and S is then the signatures of the cells of x < y.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Optional, Sequence

from .errors import ContractViolation, GuardExceeded, Record
from .poset import (
    LinearExtension,
    Poset,
    Realizer,
    automorphisms,
    induced_subposet,
    is_realizer,
)

BOOLEAN_DIM_GUARD = 6


def _as_order(order) -> tuple[int, ...]:
    if isinstance(order, LinearExtension):
        return order.order
    return tuple(order)


def _positions(order: Sequence[int]) -> list[int]:
    pos = [-1] * len(order)
    for p, x in enumerate(order):
        if not 0 <= x < len(order) or pos[x] != -1:
            raise ContractViolation("order is not a permutation of the ground set")
        pos[x] = p
    return pos


def signature(x: int, y: int, orders: Sequence) -> str:
    """Bit i is 1 iff x precedes y in the i-th order. Needs x != y."""
    if x == y:
        raise ContractViolation("signatures are defined for distinct elements")
    bits = []
    for order in orders:
        pos = _positions(_as_order(order))
        bits.append("1" if pos[x] < pos[y] else "0")
    return "".join(bits)


class BooleanRealizer(Record):
    """d permutations of the ground set plus the accepted signature set."""

    orders: tuple[tuple[int, ...], ...]
    accepted: frozenset[str]

    @property
    def d(self) -> int:
        return len(self.orders)

    def signature(self, x: int, y: int) -> str:
        return signature(x, y, self.orders)


def is_boolean_realizer(p: Poset, br: BooleanRealizer) -> bool:
    """Check the defining equivalence over all ordered distinct pairs."""
    if not br.orders:
        raise ContractViolation("a Boolean realizer needs at least one order")
    pos = [_positions(order) for order in br.orders]
    for order in br.orders:
        if len(order) != p.n:
            raise ContractViolation("order length does not match the poset")
    for s in br.accepted:
        if len(s) != br.d or set(s) - {"0", "1"}:
            raise ContractViolation(f"malformed accepted string {s!r}")
    for x in range(p.n):
        for y in range(p.n):
            if x == y:
                continue
            sig = "".join("1" if q[x] < q[y] else "0" for q in pos)
            if (sig in br.accepted) != p.lt(x, y):
                return False
    return True


def from_dm_realizer(p: Poset, rz: Realizer) -> BooleanRealizer:
    """A Dushnik-Miller realizer becomes a Boolean realizer via S = {11...1}."""
    if not is_realizer(p, rz.extensions):
        raise ContractViolation("supplied extensions do not realize the poset")
    br = BooleanRealizer(tuple(e.order for e in rz.extensions),
                         frozenset({"1" * len(rz.extensions)}))
    if not is_boolean_realizer(p, br):
        raise ContractViolation("conversion produced an invalid Boolean realizer")
    return br


# -- dimension search ----------------------------------------------------------


def _pair_bits(perm: tuple[int, ...]) -> int:
    """Bit x*n + y is set iff ``perm`` puts x before y."""
    return sum(1 << x * len(perm) + y for i, x in enumerate(perm) for y in perm[i + 1:])


def _cells(bits: Sequence[int], cells: list[int]) -> list[int]:
    """Split each cell by each order in turn: cell j of the result holds the pairs of
    cell j >> len(bits) whose signature is j's last len(bits) binary digits."""
    for b in bits:
        cells = [part for cell in cells for part in (cell & ~b, cell & b)]
    return cells


def _orbit_minimal(perm: tuple[int, ...], auts) -> bool:
    for phi in auts:
        mapped = tuple(phi[x] for x in perm)
        if min(mapped, mapped[::-1]) < perm:
            return False
    return True


class BooleanDimResult(Record):
    dim: Optional[int]
    realizer: Optional[BooleanRealizer]
    d_max: int


def boolean_dim(p: Poset, d_max: int = 4,
                guard_elements: int = BOOLEAN_DIM_GUARD) -> BooleanDimResult:
    """Least d <= d_max admitting a Boolean realizer, with a witness.

    Search over permutation d-tuples with three sound symmetry cuts: every
    axis may be replaced by its dual (signatures complement bitwise), axes
    commute and a repeated one splits no cell (tuples are sorted sets, a
    repeat's tuple without it tried at a smaller d), and relabeling by an
    automorphism acts diagonally (the first axis is pinned to orbit minima).
    """
    if p.n > guard_elements:
        raise GuardExceeded(f"Boolean dimension search capped at {guard_elements} elements")
    n = p.n
    perms = [perm for perm in permutations(range(n)) if perm <= perm[::-1]]
    auts = automorphisms(p)
    reps = [i for i, perm in enumerate(perms) if _orbit_minimal(perm, auts)]
    bits = [_pair_bits(perm) for perm in perms]
    full = (1 << n * n) - 1 - sum(1 << x * (n + 1) for x in range(n))
    comp = sum(row << x * n for x, row in enumerate(p.up))
    other = full ^ comp

    for d in range(1, d_max + 1):
        for first in reps:
            prefix = None
            for rest in combinations(range(first + 1, len(perms)), d - 1):
                chosen = (first, *rest)
                if chosen[:-1] != prefix:
                    # A split keeps a pure cell pure: only mixed ones can fail.
                    prefix = chosen[:-1]
                    cells = _cells([bits[i] for i in prefix], [full])
                    mixed = [(c & comp, c & other) for c in cells if c & comp and c & other]
                last = bits[chosen[-1]]
                for c, o in mixed:
                    if c & last and o & last or c & ~last and o & ~last:
                        break
                else:
                    cells = _cells([bits[i] for i in chosen], [full])
                    got = BooleanRealizer(tuple(perms[i] for i in chosen), frozenset(
                        format(j, f"0{d}b") for j, cell in enumerate(cells) if cell & comp))
                    if not is_boolean_realizer(p, got):
                        raise ContractViolation("dimension search produced an invalid witness")
                    return BooleanDimResult(d, got, d_max)
    return BooleanDimResult(None, None, d_max)


# -- Boolean-coloring realizer reconstruction -----------------------------------------


def reconstruct_realizer(p: Poset, br: BooleanRealizer, copy: Sequence[int],
                         mono_signature: str) -> Realizer:
    """Rebuild a realizer of an induced copy from its monochromatic signature.

    Order i is restricted to the copy and kept when digit i is 1, dualized
    when it is 0; the result is validated against the induced subposet. A
    comparable pair of the copy whose signature differs from
    ``mono_signature`` raises a ContractViolation carrying the pair.
    """
    if len(mono_signature) != br.d or set(mono_signature) - {"0", "1"}:
        raise ContractViolation("signature length does not match the realizer")
    elems = sorted(set(copy))
    sub = induced_subposet(p, elems)
    for a in range(len(elems)):
        for b in range(len(elems)):
            if sub.lt(a, b):
                sig = br.signature(elems[a], elems[b])
                if sig != mono_signature:
                    exc = ContractViolation(
                        f"pair ({elems[a]}, {elems[b]}) has signature {sig}, "
                        f"not {mono_signature}")
                    exc.offending_pair = (elems[a], elems[b])
                    raise exc
    local = {e: i for i, e in enumerate(elems)}
    extensions = []
    for digit, order in zip(mono_signature, br.orders):
        restricted = tuple(local[x] for x in order if x in local)
        if digit == "0":
            restricted = restricted[::-1]
        extensions.append(LinearExtension(restricted))
    if not is_realizer(sub, extensions):
        raise ContractViolation(
            "reconstruction did not realize the copy; the signature is not "
            "an accepted comparability signature")
    return Realizer(tuple(extensions))
