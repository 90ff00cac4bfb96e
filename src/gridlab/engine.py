"""The counterexample-coloring engine: one search over keys and structures.

A structure is a tuple of key indices that must not end monochromatic;
``search_counterexample`` looks for an r-coloring of the keys that leaves
every structure with at least two colors, or proves there is none. It is the one
place where such a search starts, serially up to ``_HANDOFF`` nodes and, with
``workers`` > 1, in a process pool past it. A ``Symmetry`` declares a group
of key permutations that maps the structures onto themselves, as data: its
generators, which the engine checks, and its lex-leader table, from which it
builds the walk's constraints. The soft wall-clock guard ``time_limit`` and
its clock ``_check_deadline`` live here too, since the pool's workers must
inherit them; the other searches of the package call the same clock.

Nothing here knows what the keys are: the callers in ``ramsey`` and
``extension`` build the keys and structures and read the coloring back.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from itertools import combinations, product
from typing import Optional, Sequence

from .errors import ContractViolation, GuardExceeded, Record

NODE_GUARD = 50_000_000

_DEADLINE: Optional[float] = None
_STOP = None  # in a shard worker: the event set once its result is not needed
_ENGINE = None  # in a shard worker: the engine over the instance being sharded


class _Stopped(Exception):
    """A shard worker's search was stopped by its caller."""


@contextmanager
def time_limit(seconds: Optional[float]):
    """Soft wall-clock guard for every search that runs ``_check_deadline``.

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


# -- symmetry declarations -----------------------------------------------------------


class Symmetry(Record):
    """A group of key permutations declared to map the structures onto
    themselves, as data: ``name`` for the verdict's reason, ``generators``
    (``perm[k]`` is the image of key k), which the engine checks, and the
    lex-leader table ``lex`` with its ``counted`` key, from which the engine
    builds the walk's constraints (``_lex_leader``). It pickles as its fields.
    """

    name: str
    generators: tuple[tuple[int, ...], ...]
    lex: tuple[tuple[tuple[int, int, int], ...], ...]
    counted: Optional[int] = None


def _lex_leader(lex: Sequence, colors: range, counted: Optional[int] = None):
    """The walk's ``(tries, passes)`` for lex-leader constraints in key order,
    each the least coloring of an orbit compared with one image (README,
    "Symmetry declarations"). ``tries(col, k)`` lists the colors key k may
    take after the keys below it, colored as in ``col``; ``passes(col, k,
    assigned)`` says whether keys k, k+1, ... below the lowest uncolored key,
    colored by propagation, keep the constraints. The constraints are:

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


def _swap_and_cycle(n: int) -> tuple[tuple[int, ...], ...]:
    """The transposition (0 1) and the cycle (0 1 ... n-1), which generate S_n."""
    return ((1, 0, *range(2, n)), (*range(1, n), 0)) if n > 1 else ()


def vertex_symmetry(n: int) -> Symmetry:
    """S_n on the edges of K_n, key i being the i-th pair of
    ``combinations(range(n), 2)``. Lex at (v,u), u-1 > v: if columns u-1
    and u agree on the rows w < v, color(v,u) >= color(v,u-1)."""
    edges = list(combinations(range(n), 2))
    index = {edge: i for i, edge in enumerate(edges)}
    lex = tuple(((index[v, u - 1], sum(1 << index[w, u - 1] for w in range(v)), 1),)
                if u - 1 > v else () for v, u in edges)
    generators = tuple(tuple(index[min(p[a], p[b]), max(p[a], p[b])] for a, b in edges)
                       for p in _swap_and_cycle(n))
    return Symmetry(f"S_{n}", generators, lex, n - 2)


def box_symmetry(sides: Sequence[int]) -> Symmetry:
    """S_a x S_b x ... on the cells of a box with these sides, keys in
    row-major order. Slice lex along axis d at cell x with x_d > 0: if slices
    x_d-1 and x_d agree on the cells before x, color(x) >= color(x - e_d)."""
    sides = tuple(sides)
    strides = [math.prod(sides[d + 1:]) for d in range(len(sides))]
    cells = list(product(*map(range, sides)))
    seen = [[0] * side for side in sides]  # per axis and value: the keys so far
    lex = []
    for k, x in enumerate(cells):
        lex.append(tuple((k - s, seen[d][v] >> s, s)
                         for d, (v, s) in enumerate(zip(x, strides)) if v))
        for d, v in enumerate(x):
            seen[d][v] |= 1 << k
    generators = tuple(tuple(k + (p[x[d]] - x[d]) * strides[d] for k, x in enumerate(cells))
                       for d, side in enumerate(sides) for p in _swap_and_cycle(side))
    return Symmetry(" x ".join(f"S_{side}" for side in sides), generators, tuple(lex))


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

        tries, passes = (None, None) if symmetry is None else \
            _lex_leader(symmetry.lex, colors, symmetry.counted)

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

