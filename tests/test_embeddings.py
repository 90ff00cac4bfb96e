"""The induced-embedding kernel: pinned outputs, brute-force differentials, guards."""

import hashlib
import random
from collections import Counter
from itertools import combinations, permutations
from math import factorial, prod

import pytest

from gridlab import ramsey
from gridlab.cli import run
from gridlab.errors import ContractViolation, GuardExceeded
from gridlab.fileio import certificate_digest
from gridlab.graphs import (
    Graph,
    bipartite_edge_decomposition,
    degeneracy_coloring,
    find_mono_induced_subgraph,
)
from gridlab.grids import grid
from gridlab.poset import Poset, automorphisms, enumerate_isomorphisms, \
    induced_embeddings, iter_bits, make_chain, orbit_checks, order_checks
from gridlab.ramsey import (
    KIND_COMPARABILITY,
    NODE_GUARD,
    FunctionColoring,
    MapColoring,
    _copy_search,
    _tie_free_cube_embeddings,
    cube_trace_type,
    enumerate_induced_copy_sets,
    enumerate_tie_free_cube_copies,
    find_monochromatic_copy,
    hash_coloring,
    induced_copies,
)


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


# Digests of outputs of the pair-by-pair searches the kernel replaced: the
# kernel must keep their first-found order, and with it certificate bytes.
@pytest.mark.parametrize("call, digest", [
    (lambda: enumerate_induced_copy_sets(grid(7, 2), grid(2, 2)), "0768ea4562814d54"),
    (lambda: enumerate_induced_copy_sets(grid(3, 3), grid(2, 3)), "615af0de946db8f7"),
    (lambda: enumerate_tie_free_cube_copies(grid(4, 3)), "c96c748d529eb679"),
])
def test_copy_order_is_pinned(call, digest):
    assert _digest(call()) == digest


# The last digest is the one from when the certificates recorded "seed": 0;
# restoring that field gives it back, and it names the test.
@pytest.mark.parametrize("r, n, digest, with_seed", [
    pytest.param(2, 3, "d393d1a801336ff2", "2f721e5aa9bb3728", id="2-3-2f721e5aa9bb3728"),
    pytest.param(3, 5, "60f7d17bd96ebe14", "b928cd42a2f65dc7", id="3-5-b928cd42a2f65dc7")])
def test_subposet_certificates_are_pinned(r, n, digest, with_seed):
    result = run(["ramsey", "verify", "--kind", "subposet", "--t", "2", "--r", str(r),
                  "--m", "1", "--l", "2", "--n", str(n)])
    assert result.certificate["verdict"] == "false"
    assert result.certificate["digest"][:16] == digest
    restored = dict(result.certificate,
                    parameters={**result.certificate["parameters"], "seed": 0})
    assert certificate_digest(restored)[:16] == with_seed


def _random_poset(n, rng, density=0.4) -> Poset:
    up = [0] * n
    for i, j in combinations(range(n), 2):
        if rng.random() < density:
            up[i] |= 1 << j
    for k in range(n):
        for i in range(n):
            if (up[i] >> k) & 1:
                up[i] |= up[k]
    return Poset(up)


def _is_induced(p, q, image) -> bool:
    return all(p.lt(a, b) == q.lt(image[a], image[b])
               for a in range(p.n) for b in range(p.n) if a != b)


def _brute_copies(p, q, within=None):
    """Induced embeddings in lexicographic order of the image tuples."""
    pool = range(q.n) if within is None else sorted(within)
    return [image for image in permutations(pool, p.n) if _is_induced(p, q, image)]


def _first_found_sets(images):
    out = []
    for image in images:
        key = tuple(sorted(image))
        if key not in out:
            out.append(key)
    return out


def test_copies_match_brute_force():
    rng = random.Random(11)
    for _ in range(120):
        p = _random_poset(rng.randint(1, 5), rng)
        q = _random_poset(rng.randint(p.n, 7), rng)
        within = None
        if rng.random() < 0.5:
            within = rng.sample(range(q.n), rng.randint(p.n, q.n))
        brute = _brute_copies(p, q, within)
        assert list(induced_copies(q, p, within)) == brute
        assert enumerate_induced_copy_sets(q, p, within) == _first_found_sets(brute)


def test_monochromatic_copies_match_brute_force():
    rng = random.Random(12)
    for _ in range(80):
        p = _random_poset(rng.randint(2, 4), rng, density=0.6)
        q = _random_poset(rng.randint(p.n, 7), rng, density=0.6)
        r = rng.randint(1, 3)
        coloring = MapColoring(KIND_COMPARABILITY, r,
                               {pair: rng.randint(1, r) for pair in q.comparable_pairs()})
        mono = [image for image in _brute_copies(p, q)
                if len({coloring.color_of((min(image[a], image[b]), max(image[a], image[b])))
                        for a in range(p.n) for b in range(p.n) if p.lt(a, b)}) <= 1]
        assert list(induced_copies(q, p, coloring=coloring)) == mono
        found = find_monochromatic_copy(q, p, coloring)
        assert (found.elements if found else None) == (mono[0] if mono else None)


def test_one_embedding_per_orbit_matches_the_full_walk():
    # The full walk of induced_copies is the reference: the pruned searches
    # must keep its first embedding of each set, in its order.
    rng = random.Random(15)
    hosts = [grid(3, 2), grid(4, 2), grid(5, 2), grid(8, 1), grid(3, 3)]
    for _ in range(100):
        q = rng.choice(hosts)
        p = _random_poset(rng.randint(1, 5), rng, density=rng.choice([0.2, 0.4]))
        within = None
        if rng.random() < 0.5:
            within = rng.sample(range(q.n), rng.randint(p.n, q.n))
        first = {}
        for image in induced_copies(q, p, within):
            first.setdefault(tuple(sorted(image)), image)
        pruned = list(_copy_search(q, p, within, None, NODE_GUARD, one_per_orbit=True))
        assert pruned == list(first.values())
        assert enumerate_induced_copy_sets(q, p, within) == list(first)
        r = rng.randint(1, 3)
        coloring = MapColoring(KIND_COMPARABILITY, r,
                               {pair: rng.randint(1, r) for pair in q.comparable_pairs()})
        found = find_monochromatic_copy(q, p, coloring, within)
        expected = next(induced_copies(q, p, within, coloring), None)
        assert (found.elements if found else None) == expected


def _filtered_walk(q, p, coloring, within=None):
    """The plain walk of induced_copies, kept where the comparable pairs
    share a color, with that color (None for a pattern without pairs)."""
    out = []
    for image in induced_copies(q, p, within):
        colors = {coloring.color_of((image[a], image[b])) for a, b in p.comparable_pairs()}
        if len(colors) <= 1:
            out.append((image, next(iter(colors), None)))
    return out


@pytest.mark.parametrize("k, t", [(3, 2), (4, 2), (5, 2), (3, 3)])
def test_colored_searches_match_the_filtered_walk(k, t):
    q = grid(k, t)
    rng = random.Random(100 * k + t)
    hits = 0
    for r in range(1, 6):
        for _ in range(8):
            p = rng.choice([grid(2, 2), make_chain(2), make_chain(3),
                            _random_poset(rng.randint(2, 4), rng, density=0.5)])
            within = None
            if rng.random() < 0.5:
                within = rng.sample(range(q.n), rng.randint(p.n, q.n))
            # Color 1 takes most pairs, so monochromatic copies exist at every r.
            coloring = MapColoring(KIND_COMPARABILITY, r, {
                pair: 1 if rng.random() < 0.6 else rng.randint(1, r)
                for pair in q.comparable_pairs()})
            reference = _filtered_walk(q, p, coloring, within)
            assert list(induced_copies(q, p, within, coloring)) == \
                [image for image, _ in reference]
            found = find_monochromatic_copy(q, p, coloring, within)
            if not reference:
                assert found is None
                continue
            hits += 1
            assert (found.elements, found.color) == reference[0]
    assert hits > 20


def test_colored_search_colors_only_the_rows_it_reads():
    # Rows are built when the search first reads them: the early witness on
    # a 400-element host colors the up rows of five placed elements, each
    # pair once, and not the other 41,883 comparable pairs.
    q, p = grid(20, 2), grid(2, 2)
    base = hash_coloring(KIND_COMPARABILITY, 2, 7)
    keys = []

    def color_of(key):
        keys.append(key)
        return base.color_of(key)

    found = find_monochromatic_copy(q, p, FunctionColoring(KIND_COMPARABILITY, 2, color_of))
    assert (found.elements, found.color) == ((0, 1, 20, 27), 1)
    placed = {a for a, _ in keys}
    assert placed == {0, 1, 4, 20, 22}
    assert sorted(set(keys)) == [(v, w) for v in sorted(placed) for w in iter_bits(q.up[v])]
    assert len(keys) == len(set(keys)) + 1  # the witness's color, read once more


def test_each_color_search_has_its_own_node_guard():
    # Every pair colored 1: color 1's search is the uncolored walk, node for
    # node, and color 2's search only tries the first step's candidates.
    q, p = grid(4, 2), grid(2, 2)
    walk = induced_copies(q, p)
    while True:
        try:
            next(walk)
        except StopIteration as done:
            nodes = done.value
            break
    coloring = MapColoring(KIND_COMPARABILITY, 2, {pair: 1 for pair in q.comparable_pairs()})
    assert len(list(induced_copies(q, p, coloring=coloring, guard_nodes=nodes))) == \
        len(list(induced_copies(q, p)))
    with pytest.raises(GuardExceeded, match="copy search"):
        list(induced_copies(q, p, coloring=coloring, guard_nodes=nodes - 1))


def _chain_orders(p, order):
    """Per step of ``order``, 1 + the orbit conditions rooted there: the
    orbit-stabilizer factors of Aut(p) along that step order."""
    rooted = Counter(y for step in orbit_checks(p, order, p.n) for y, _ in step)
    return [1 + rooted[x] for x in order]


def test_orbit_conditions_follow_a_stabilizer_chain():
    # automorphisms() lists Aut(p) outright for posets within ISO_CAP.
    rng = random.Random(16)
    for _ in range(80):
        p = _random_poset(rng.randint(1, 8), rng, density=rng.choice([0.2, 0.4]))
        order = rng.sample(range(p.n), p.n)
        assert prod(_chain_orders(p, order)) == len(automorphisms(p))
        # Any step order keeps the first embedding of each set of that order's walk.
        q = grid(3, 2)
        full = order_checks(p, order, q)
        first = {}
        for image in induced_embeddings(order, full, [(1 << q.n) - 1] * p.n):
            first.setdefault(tuple(sorted(image)), image)
        pruned = [c + o for c, o in zip(full, orbit_checks(p, order, q.n))]
        assert list(induced_embeddings(order, pruned, [(1 << q.n) - 1] * p.n)) == \
            list(first.values())


@pytest.mark.parametrize("k, t", [(2, 1), (2, 2), (5, 2), (2, 3), (3, 3), (4, 3), (2, 4)])
def test_grid_automorphisms_are_the_axis_permutations(k, t):
    # 3^3 and 4^3 lie beyond ISO_CAP, which the orbit searches do not need.
    assert prod(_chain_orders(grid(k, t), range(k ** t))) == factorial(t)


def test_isomorphisms_and_automorphisms_match_brute_force():
    rng = random.Random(13)
    for _ in range(80):
        p = _random_poset(rng.randint(1, 5), rng)
        if rng.random() < 0.5:
            perm = list(range(p.n))
            rng.shuffle(perm)
            q = Poset.from_lt_pairs(p.n, [(perm[a], perm[b]) for a, b in p.comparable_pairs()])
        else:
            q = _random_poset(p.n, rng)
        brute = {image for image in permutations(range(q.n)) if _is_induced(p, q, image)}
        got = list(enumerate_isomorphisms(p, q))
        assert len(got) == len(set(got)) and set(got) == brute
        auto = automorphisms(p)
        assert len(auto) == len(set(auto))
        assert set(auto) == {image for image in permutations(range(p.n))
                             if _is_induced(p, p, image)}


def _random_graph(n, rng, density) -> Graph:
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < density])


def test_induced_graph_patterns_match_brute_force():
    rng = random.Random(14)
    hits = 0
    for _ in range(150):
        host = _random_graph(rng.randint(1, 8), rng, 0.5)
        pattern = _random_graph(rng.randint(1, min(4, host.n)), rng, 0.5)
        ec = bipartite_edge_decomposition(host, degeneracy_coloring(host))
        # The first color class holding a monochromatic induced copy, by brute force.
        expected = None
        for color in ec.color_set():
            cls = ec.class_graph(color)
            if any(all(cls.has_edge(image[a], image[b]) if pattern.has_edge(a, b)
                       else not host.has_edge(image[a], image[b])
                       for a, b in combinations(range(pattern.n), 2))
                   for image in permutations(range(host.n), pattern.n)):
                expected = color
                break
        found = find_mono_induced_subgraph(host, pattern, ec)
        if expected is None:
            assert found is None
            continue
        hits += 1
        color, image = found
        assert color == expected and len(set(image)) == pattern.n
        for a, b in combinations(range(pattern.n), 2):
            if pattern.has_edge(a, b):
                assert ec.color_of(image[a], image[b]) == color
            else:
                assert not host.has_edge(image[a], image[b])
    assert hits > 10


def _tie_free(g3, elements) -> bool:
    return all(all(a != b for a, b in zip(g3.coords(e), g3.coords(f)))
               for e, f in combinations(elements, 2) if g3.incomparable(e, f))


@pytest.mark.parametrize("n", [3, 4])
def test_tie_free_copies_are_the_tie_free_subset_of_all_copies(n):
    g3 = grid(n, 3)
    every = enumerate_induced_copy_sets(g3, grid(2, 3))
    tie_free = enumerate_tie_free_cube_copies(g3)
    assert len(tie_free) == len(set(tie_free))
    assert set(tie_free) == {e for e in every if _tie_free(g3, e)}
    if n == 3:
        assert set(tie_free) == {e for e in every if cube_trace_type(g3, e)[1]}


def test_empty_pattern_has_one_embedding():
    assert list(induced_embeddings((), (), ())) == [()]


def _walk(search):
    """The yields of a kernel search and the node count it returns."""
    images = []
    while True:
        try:
            images.append(next(search))
        except StopIteration as done:
            return images, done.value


# The kernel's accounting: the nodes it returns, where its guard fires and
# when its clock runs are part of what callers see, and stay put.
@pytest.mark.parametrize("search, yields, nodes", [
    (lambda: _copy_search(grid(7, 2), grid(2, 2), None, None, NODE_GUARD, True), 15876, 19796),
    (lambda: _copy_search(grid(3, 3), grid(2, 3), None, None, NODE_GUARD, True), 1331, 5575),
    (lambda: _copy_search(make_chain(16), make_chain(3), None, None, NODE_GUARD, True),
     560, 696),
    (lambda: _tie_free_cube_embeddings(grid(4, 3), NODE_GUARD), 64, 5569),
])
def test_kernel_node_counts_are_pinned(search, yields, nodes):
    images, visited = _walk(search())
    assert (len(images), visited) == (yields, nodes)


def test_the_clock_runs_every_4096_nodes(monkeypatch):
    # 19,796 nodes: the clock runs at nodes 4,096, 8,192, 12,288 and 16,384.
    seen = []
    monkeypatch.setattr(ramsey, "_check_deadline", lambda: seen.append(len(images)))
    images = []
    for image in _copy_search(grid(7, 2), grid(2, 2), None, None, NODE_GUARD, True):
        images.append(image)
    assert seen == [3571, 6911, 10291, 13525]


@pytest.mark.parametrize("guard, yields, clock", [(19795, 15876, 4), (19796, None, 4),
                                                  (100, 94, 0)])
def test_the_copy_guard_fires_past_its_node(monkeypatch, guard, yields, clock):
    # The clock runs at its own nodes only, never at the guard's.
    seen = []
    monkeypatch.setattr(ramsey, "_check_deadline", lambda: seen.append(None))
    images = []
    search = _copy_search(grid(7, 2), grid(2, 2), None, None, guard, True)
    if yields is None:
        assert len(list(search)) == 15876
    else:
        with pytest.raises(GuardExceeded, match="copy search"):
            for image in search:
                images.append(image)
        assert len(images) == yields
    assert len(seen) == clock


def test_a_one_element_pattern_takes_each_allowed_element():
    assert _walk(induced_embeddings([0], [[]], [0b1011])) == ([(0,), (1,), (3,)], 3)
    images = []
    with pytest.raises(GuardExceeded):
        for image in induced_embeddings([0], [[]], [0b1011], guard_nodes=2):
            images.append(image)
    assert images == [(0,), (1,)]


def _every_pair_checks(p, order, q, inc):
    return [[(y, q.up if p.lt(y, x) else q.dn if p.lt(x, y) else inc) for y in order[:s]]
            for s, x in enumerate(order)]


def test_order_checks_search_as_every_pair_checks_do():
    rng = random.Random(17)
    hosts = [grid(3, 2), grid(4, 2), grid(2, 3), grid(7, 1)]
    for _ in range(150):
        p = _random_poset(rng.randint(1, 5), rng, density=rng.choice([0.3, 0.6]))
        q = rng.choice(hosts + [_random_poset(rng.randint(p.n, 8), rng, density=0.5)])
        order = rng.sample(range(p.n), p.n)
        allowed = [rng.getrandbits(q.n) | rng.getrandbits(q.n) for _ in order]
        # Narrowed incomparability rows, as the tie-free search passes.
        inc = q.inc if rng.random() < 0.5 else [row & rng.getrandbits(q.n) for row in q.inc]
        assert _walk(induced_embeddings(order, order_checks(p, order, q, inc), allowed)) == \
            _walk(induced_embeddings(order, _every_pair_checks(p, order, q, inc), allowed))


def test_order_checks_drop_the_pairs_transitivity_implies():
    # Of the 28 pairs of 2^3, the 7 comparable pairs that are no cover; of the
    # top of 2^2's 3 pairs, the one with the bottom.
    assert sum(map(len, order_checks(grid(2, 3), range(8), grid(3, 3)))) == 21
    assert [len(c) for c in order_checks(grid(2, 2), range(4), grid(3, 2))] == [0, 1, 2, 2]
    # Rows passed in, such as one color's, keep every check.
    q = grid(3, 2)
    assert sum(map(len, order_checks(grid(2, 3), range(8), q, up=q.up, dn=q.dn))) == 28


def test_a_colored_copy_needs_every_pair_in_its_color():
    # (0, 1) and (1, 2) share color 1, but (0, 2), implied by them, is color 2.
    c = MapColoring(KIND_COMPARABILITY, 2, {(0, 1): 1, (1, 2): 1, (0, 2): 2})
    assert find_monochromatic_copy(make_chain(3), make_chain(3), c) is None


def test_node_guards_fire():
    with pytest.raises(GuardExceeded, match="copy search"):
        enumerate_induced_copy_sets(grid(4, 2), grid(2, 2), guard_nodes=5)
    with pytest.raises(GuardExceeded, match="tie-free"):
        enumerate_tie_free_cube_copies(grid(3, 3), guard_nodes=5)
    host = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    path = Graph(3, [(0, 1), (1, 2)])
    ec = bipartite_edge_decomposition(host, degeneracy_coloring(host))
    assert find_mono_induced_subgraph(host, path, ec) is not None
    with pytest.raises(GuardExceeded, match="induced-subgraph"):
        find_mono_induced_subgraph(host, path, ec, guard_nodes=2)


@pytest.mark.parametrize("pattern, within", [(make_chain(1), [99]),
                                             (make_chain(2), [0, 99]),
                                             (make_chain(1), [-1])])
def test_within_outside_the_host_is_rejected(pattern, within):
    with pytest.raises(ContractViolation, match="outside"):
        enumerate_induced_copy_sets(grid(2, 2), pattern, within=within)
