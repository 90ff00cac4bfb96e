"""The counterexample engine: brute-force differential, its structure bitsets
against a plain-set reference, pinned node counts, pinned certificates,
serial/parallel agreement, guard reasons, deep instances and lex-leader
symmetry breaking on chain hosts and cell boxes."""

import os
import pickle
import re
import subprocess
import sys
import time
from concurrent.futures import Future
from itertools import combinations, permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlab import ramsey
from gridlab.cli import run
from gridlab.errors import ContractViolation, GuardExceeded
from gridlab.fileio import certificate_digest
from gridlab.grids import grid
from gridlab.ramsey import (
    KIND_COMPARABILITY,
    KIND_SUBGRID,
    KIND_SUBPOSET,
    box_symmetry,
    enumerate_induced_copy_sets,
    find_monochromatic_copy,
    find_monochromatic_subgrid,
    index_structures,
    min_ramsey_n,
    run_engine,
    search_counterexample,
    verify_comparability_ramsey,
    verify_grid_ramsey,
    vertex_symmetry,
)


def _first_good_coloring(num_keys, structures, r):
    """Lexicographically first coloring that leaves no structure
    monochromatic, by enumerating all r^num_keys colorings."""
    for colors in product(range(1, r + 1), repeat=num_keys):
        if all(len({colors[k] for k in s}) > 1 for s in structures):
            return colors
    return None


@st.composite
def _instances(draw):
    num_keys = draw(st.integers(0, 9))
    r = draw(st.integers(1, 3))
    key = st.integers(0, max(num_keys - 1, 0))
    structure = st.sets(key, max_size=num_keys).map(lambda s: tuple(sorted(s)))
    if num_keys:
        # A key repeated in any position counts once toward the structure's
        # size, so the engine's pre-counted start of each size is tried.
        repeated = st.lists(key, min_size=1, max_size=num_keys).flatmap(
            lambda ks: st.permutations(ks + ks[:1])).map(tuple)
        structure = st.one_of(structure, repeated)
    return num_keys, draw(st.lists(structure, max_size=12)), r


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_instances())
def test_engine_matches_brute_force(instance):
    num_keys, structures, r = instance
    got = search_counterexample(num_keys, structures, r)
    # Branching in key and color order behind sound propagation finds the
    # lexicographically first good coloring; pinning the first key to color 1
    # keeps it, since a color permutation maps any good coloring to one that
    # starts with color 1.
    assert got == _first_good_coloring(num_keys, structures, r)
    if got is not None:
        assert all(len({got[k] for k in s}) > 1 for s in structures)


def _chain(n, guard=10 ** 6, r=3, workers=1, l=3):
    """Chain-l in the n-chain: l-cliques in r-colorings of K_n's edges."""
    return verify_comparability_ramsey(grid(l, 1), grid(n, 1), r, node_guard=guard,
                                       workers=workers)


def _chain11(guard):
    return _chain(11, guard)


def _box_rectangles(a, b):
    """The cells of an a x b box keyed as the subgrid kind keys them, row
    major, and the key groups of its rectangles."""
    keys = [((i,), (j,)) for i in range(a) for j in range(b)]
    return keys, [list(product(rows, cols)) for rows in combinations([(i,) for i in range(a)], 2)
                  for cols in combinations([(j,) for j in range(b)], 2)]


def _plain_cells(n, r, guard=10 ** 6, workers=1):
    """Cells and rectangles of the n x n box through the engine with no
    symmetry declared: the plain walk."""
    keys, groups = _box_rectangles(n, n)
    return ramsey.run_engine(keys, index_structures(keys, groups), r, KIND_SUBGRID, guard,
                             workers)


# A node is a (key, color) attempt, so each search finishes under exactly this
# guard. The plain walk keeps the counts of the engine before its state became
# key bitmasks (2699 and 8099 for cells and rectangles); the chain instances
# break the vertex symmetry (the plain search needs 10518 nodes for chain-3 in
# 11) and the cell instances the row and column symmetry. K_16 and K_17
# settle R(3,3,3) = 17.
@pytest.mark.parametrize("verify, nodes, status", [
    (_chain11, 203, "false"),
    (lambda g: _chain(16, g), 3761, "false"),
    (lambda g: _chain(17, g), 962, "true"),
    (lambda g: verify_grid_ramsey(KIND_SUBGRID, 2, 3, 1, 2, 6, node_guard=g), 276, "false"),
    (lambda g: _plain_cells(6, 3, g), 8099, "false"),
    (lambda g: verify_grid_ramsey(KIND_SUBPOSET, 2, 2, 1, 2, 6, node_guard=g), 391, "true"),
    (lambda g: verify_grid_ramsey(KIND_SUBGRID, 2, 2, 1, 2, 5, node_guard=g), 130, "true"),
    (lambda g: _plain_cells(5, 2, g), 2699, "true"),
    (lambda g: verify_grid_ramsey(KIND_SUBPOSET, 2, 2, 2, 3, 5, node_guard=g), 1064, "false"),
])
def test_node_counts_are_pinned(verify, nodes, status):
    assert verify(nodes).status == status
    assert verify(nodes - 1).status == "inconclusive"


_CHAIN11 = ["ramsey", "verify", "--kind", "comparability", "--t", "1", "--r", "3",
            "--p-chain", "3", "--n", "11"]


def _grid_argv(command, kind, r, n_flag, n):
    """The argv of a grid-kind request; the digest covers the flag order."""
    return ["ramsey", command, "--kind", kind, "--t", "2", "--r", str(r),
            "--m", "1", "--l", "2", n_flag, str(n)]


# (argv, digest, the digest from when ramsey verify/search certificates
# recorded "seed": 0). Restoring that field must give the earlier digest
# back, and the earlier digest names the test.
_PINNED = [
    (_grid_argv("search", "subgrid", 2, "--n-max", 6), "3c22c77abe475af4", "fecb0cbf30d1982b"),
    (["ramsey", "search", "--kind", "comparability", "--t", "1", "--r", "2",
      "--p-chain", "3", "--n-max", "7"], "d1ceb8741741cf66", "4544049fa354ea87"),
    (["extension", "partition-ramsey", "--s", "2", "--t", "3", "--r", "2", "--k-max", "7"],
     "d1a33e17f4024216", None),
    (_CHAIN11, "b2ccd4795735da72", "74937371d52540b7"),
    (["--workers", "2"] + _CHAIN11, "6e1ccdfda5f9b370", "9f41a2203e946dfe"),
    (_grid_argv("verify", "subgrid", 3, "--n", 6), "2096d6c6528ab32b", "d1513fcdb3037205"),
    # None: no certificate that recorded a seed had this verdict
    (["ramsey", "verify", "--kind", "comparability", "--t", "1", "--r", "3",
      "--p-chain", "3", "--n", "16", "--guard", "100000"], "eecea0843e13fab9", None),
    (_grid_argv("verify", "subposet", 2, "--n", 6), "8585d56b655ce01c", "5b594815f9e36d22"),
    (["ramsey", "verify", "--kind", "subposet", "--t", "2", "--r", "2", "--m", "2", "--l", "3",
      "--n", "5"], "15c1499479093c16", None),
]


@pytest.mark.parametrize("argv, digest, with_seed", [
    pytest.param(*pin, id=f"argv{i}-{pin[2] or pin[1]}") for i, pin in enumerate(_PINNED)])
def test_certificates_are_pinned(argv, digest, with_seed):
    cert = run(argv).certificate
    assert cert["digest"][:16] == digest
    if with_seed is not None:
        restored = dict(cert, parameters={**cert["parameters"], "seed": 0})
        assert certificate_digest(restored)[:16] == with_seed


def test_serial_and_parallel_witnesses_agree():
    serial = _chain11(10 ** 6)
    parallel = verify_comparability_ramsey(grid(3, 1), grid(11, 1), 3, workers=2)
    assert serial.status == parallel.status == "false"
    assert sorted(serial.counterexample.items()) == sorted(parallel.counterexample.items())


def test_guard_reasons_say_where_the_search_stopped(monkeypatch):
    symmetry = "lex-leader symmetry breaking over S_11 x S_3"
    serial = f"counterexample search exceeded its node guard 100 at depth 13/55; {symmetry}"
    assert _chain11(100).reason == serial
    # Within the handoff a --workers search is the serial one; past it, a shard
    # runs past the guard.
    assert _chain(11, 100, workers=2).reason == serial
    monkeypatch.setattr(ramsey, "_HANDOFF", 10)
    parallel = _chain(11, 100, workers=2)
    assert parallel.status == "inconclusive"
    assert re.fullmatch(r"counterexample search exceeded its node guard 100 "
                        rf"by shard \d+/\d+; {symmetry}", parallel.reason)
    cells = _cells6(100)
    assert cells.reason == ("counterexample search exceeded its node guard 100 at depth 21/36; "
                            "lex-leader symmetry breaking over S_6 x S_6 x S_3")
    assert _plain_cells(6, 3, 1000).reason == \
        "counterexample search exceeded its node guard 1000 at depth 24/36"


def test_search_deeper_than_the_recursion_limit():
    num_keys = 3000
    assert num_keys > sys.getrecursionlimit()
    structures = [(i, i + 1, i + 2) for i in range(num_keys - 2)]
    colors = search_counterexample(num_keys, structures, 3)
    assert len(colors) == num_keys
    assert all(len({colors[k] for k in s}) > 1 for s in structures)


def test_no_colors_leave_no_coloring_of_a_key():
    assert search_counterexample(0, [], 0) == ()
    assert search_counterexample(2, [], 0) is None


@pytest.mark.parametrize("workers", [1, 2])
def test_an_empty_structure_leaves_no_counterexample(workers):
    assert search_counterexample(0, [()], 2, workers=workers) is None
    assert search_counterexample(3, [(0, 1), ()], 2, workers=workers) is None
    # Bad keys and bad symmetry declarations are refused first.
    with pytest.raises(IndexError):
        search_counterexample(3, [(), (0, 5)], 2, workers=workers)
    with pytest.raises(ContractViolation, match="not invariant under S_2"):
        search_counterexample(2, [(), (1,)], 2, symmetry=box_symmetry((2,)), workers=workers)


def _cells6(guard=10 ** 6, workers=1):
    return verify_grid_ramsey(KIND_SUBGRID, 2, 3, 1, 2, 6, node_guard=guard, workers=workers)


def _subposet6(workers):
    return verify_grid_ramsey(KIND_SUBPOSET, 2, 2, 1, 2, 6, workers=workers)


def test_serial_and_parallel_agree_on_cells_and_subposets():
    serial, parallel = _cells6(), _cells6(workers=2)
    assert serial.status == parallel.status == "false"
    assert sorted(serial.counterexample.items()) == sorted(parallel.counterexample.items())
    assert _subposet6(1).status == _subposet6(2).status == "true"


# Shard 1 of chain-3 r=3 n=11 holds the serial witness, found at the serial
# search's 203rd node: one guard lower, the parallel search must not
# return it, but stop at its guard as the serial search does.
@pytest.mark.parametrize("verify, nodes", [
    (lambda g: _chain(11, g, workers=2), 203),
    (lambda g: _cells6(g, workers=2), 276),
    (lambda g: _plain_cells(6, 3, g, workers=2), 8099),
])
def test_parallel_verdicts_at_the_guard_edges(verify, nodes):
    assert verify(nodes).status == "false"
    below = verify(nodes - 1)
    assert below.status == "inconclusive"
    assert below.reason.startswith(f"counterexample search exceeded its node guard {nodes - 1}")


# (r, structure size) -> structures per key near the point where random
# instances stop being colorable, so that searches backtrack past small guards.
_DENSITY = {(2, 4): (5.0, 6.5), (3, 2): (2.3, 2.6), (3, 3): (8.0, 11.0)}


@st.composite
def _sharded_instances(draw):
    rnd = draw(st.randoms(use_true_random=False))
    num_keys = rnd.randint(12, 22)
    r, size = rnd.choice(sorted(_DENSITY))
    lo, hi = _DENSITY[r, size]
    structures = [rnd.sample(range(num_keys), size)
                  for _ in range(int(rnd.uniform(lo, hi) * num_keys))]
    structures += [rnd.sample(range(num_keys), rnd.randint(2, 4))
                   for _ in range(rnd.randint(0, 3))]
    guard = rnd.choice([50, 500, 10 ** 6])
    handoff = rnd.choice([0, 1, 5, 40, 400, ramsey._HANDOFF])
    return num_keys, [tuple(sorted(s)) for s in structures], r, guard, handoff


def _outcome(search, *args, **kwargs):
    try:
        return search(*args, **kwargs)
    except GuardExceeded:
        return "guard"


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_sharded_instances())
def test_parallel_search_matches_the_serial_search(instance):
    num_keys, structures, r, guard, handoff = instance
    serial = _outcome(search_counterexample, num_keys, structures, r, guard)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ramsey, "_HANDOFF", handoff)
        parallel = _outcome(search_counterexample, num_keys, structures, r, guard, workers=2)
    assert parallel == serial


class _RefusingPool:
    """Stands in for the process pool: records its size and starts nothing."""

    sizes = []

    def __init__(self, max_workers=None, **kwargs):
        self.sizes.append(max_workers)
        raise RuntimeError("no pool in this test")


@pytest.mark.parametrize("num_keys, structures, handoff, workers, cpus, size", [
    # Two shards past a handoff of 3 nodes: key 0 is pinned, coloring key 1
    # with 1 forces keys 2 and 3 to 2, a conflict, key 1 takes 2 at node 3,
    # and key 2 then takes either color.
    pytest.param(5, [(0, 1, 2), (0, 1, 3), (2, 3)], 3, 4, 64, 2, id="5-4-64-2"),
    # 11 shards past a handoff of 10, capped by the CPU count
    pytest.param(30, [(0, 1)], 10, 64, 3, 3, id="30-64-3-3"),
    # an unknown CPU count counts as one
    pytest.param(30, [(0, 1)], 10, 64, None, 1, id="30-64-None-1"),
])
def test_the_pool_is_never_larger_than_the_shards_or_cpus(monkeypatch, num_keys, structures,
                                                          handoff, workers, cpus, size):
    monkeypatch.setattr(ramsey, "ProcessPoolExecutor", _RefusingPool)
    monkeypatch.setattr(ramsey, "_HANDOFF", handoff)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    _RefusingPool.sizes.clear()
    with pytest.raises(RuntimeError, match="no pool"):
        search_counterexample(num_keys, structures, 2, 1000, workers=workers)
    assert _RefusingPool.sizes == [size]


def test_a_frontier_without_shards_starts_no_pool(monkeypatch):
    monkeypatch.setattr(ramsey, "ProcessPoolExecutor", _RefusingPool)
    monkeypatch.setattr(ramsey, "_HANDOFF", 1)
    _RefusingPool.sizes.clear()
    # Key 1 dies in both colors, so the walk passes the handoff at node 2 and
    # ends after 3 nodes with no live state past it: the serial search.
    triangle = [(1, 2), (1, 3), (2, 3)]
    assert search_counterexample(5, triangle, 2, 3, workers=2) is None
    with pytest.raises(GuardExceeded, match="node guard 2 at depth 1/5$"):
        search_counterexample(5, triangle, 2, 2, workers=2)
    assert _RefusingPool.sizes == []


def test_a_search_within_the_handoff_starts_no_pool(monkeypatch):
    monkeypatch.setattr(ramsey, "ProcessPoolExecutor", _RefusingPool)
    _RefusingPool.sizes.clear()
    # The 5 x 5 cells at r = 2 settle "true" in 130 nodes, and the 6 x 6 cells
    # at r = 3 "false" in 276.
    cells = verify_grid_ramsey(KIND_SUBGRID, 2, 2, 1, 2, 5, workers=2)
    assert cells.status == "true"
    assert _cells6(workers=2).status == "false"
    assert _RefusingPool.sizes == []


class _InlinePool:
    """Stands in for the process pool: runs the initializer, then each shard
    as it is submitted, in this process; restores the worker globals on
    shutdown."""

    def __init__(self, max_workers=None, mp_context=None, initializer=None, initargs=()):
        self.saved = ramsey._DEADLINE, ramsey._STOP, ramsey._ENGINE
        initializer(*initargs)

    def shutdown(self, wait=True, cancel_futures=False):
        ramsey._DEADLINE, ramsey._STOP, ramsey._ENGINE = self.saved

    def submit(self, fn, *args):
        fut = Future()
        fut.set_result(fn(*args))
        return fut


def _engine_inputs(monkeypatch, verify):
    """The (keys, structures, r, symmetry) that verify hands to the engine."""
    seen = []
    with monkeypatch.context() as patch:
        patch.setattr(ramsey, "run_engine",
                      lambda keys, structures, r, kind, guard, workers, symmetry=None:
                      seen.append((list(keys), structures, r, symmetry)))
        verify()
    return seen[0]


# (verify, the serial search's node count, whether it finds a counterexample);
# the chain instances break the vertex symmetry of K_8 and K_6, the 4x4 cells
# the row and column symmetry, and the plain walk over them none.
@pytest.mark.parametrize("verify, finish, found", [
    (lambda: verify_grid_ramsey(KIND_SUBGRID, 2, 2, 1, 2, 4), 23, True),
    (lambda: _plain_cells(4, 2), 34, True),
    (lambda: _chain(8), 47, True),
    (lambda: _chain(6, r=2), 8, False),
])
def test_shard_accounting_at_every_guard(monkeypatch, verify, finish, found):
    keys, structures, r, symmetry = _engine_inputs(monkeypatch, verify)
    num_keys = len(keys)
    monkeypatch.setattr(ramsey, "ProcessPoolExecutor", _InlinePool)
    for guard in range(finish + 1):
        serial = _outcome(search_counterexample, num_keys, structures, r, guard, symmetry)
        if guard < finish:
            assert serial == "guard"
        for handoff in range(finish + 1):
            monkeypatch.setattr(ramsey, "_HANDOFF", handoff)
            for workers in (2, 4):
                assert _outcome(search_counterexample, num_keys, structures, r, guard,
                                symmetry, workers) == serial, (guard, handoff, workers)
    assert (serial is not None) == found


@pytest.mark.parametrize("workers", [1, 2])
def test_a_verdict_at_the_guard_edge_does_not_depend_on_workers(workers):
    def cells(n, r, guard):
        return verify_grid_ramsey(KIND_SUBGRID, 2, r, 1, 2, n, node_guard=guard,
                                  workers=workers)

    assert cells(5, 2, 129).status == "inconclusive"
    assert cells(5, 2, 130).status == "true"
    assert cells(6, 3, 275).status == "inconclusive"
    assert cells(6, 3, 276).status == "false"


# 3-colorings of the 9x9 cells without a monochromatic rectangle: about 6 s
# to the 300,000-node guard serially, with the row and column symmetry broken.
_FORKSERVER_TIME_LIMIT = """
import multiprocessing, time
from gridlab.ramsey import KIND_SUBGRID, time_limit, verify_grid_ramsey

if __name__ == "__main__":
    multiprocessing.set_start_method("forkserver")
    start = time.monotonic()
    with time_limit(0.3):
        v = verify_grid_ramsey(KIND_SUBGRID, 2, 3, 1, 2, 9, node_guard=300000, workers=2)
    print(v.status, time.monotonic() - start, v.reason, sep="|")
"""


def test_the_time_limit_reaches_forkserver_workers():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    start = time.monotonic()
    out = subprocess.run([sys.executable, "-c", _FORKSERVER_TIME_LIMIT], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    status, seconds, reason = out.stdout.strip().split("|")
    # Without the deadline, the shards run on to their 300,000-node guard.
    assert status == "inconclusive"
    assert reason == ("time limit exceeded; "
                      "lex-leader symmetry breaking over S_9 x S_9 x S_3"), reason
    assert float(seconds) < 3.0 and time.monotonic() - start < 30


# (l, the largest n, r): chain-4 in the 11-chain takes the plain search 6 s at r = 2
@pytest.mark.parametrize("l, top, r", [(l, top, r) for l, top in ((2, 11), (3, 11), (4, 10))
                                       for r in (1, 2, 3)])
def test_symmetry_breaking_keeps_the_plain_search_result(monkeypatch, l, top, r):
    # The plain search returns the least good coloring in key order. Every
    # image of it under S_n x S_r is good too, so it is the least of its orbit
    # and keeps the lex-leader constraints: both searches return it.
    for n in range(l, top + 1):
        keys, structures, _, symmetry = _engine_inputs(monkeypatch, lambda: _chain(n, r=r, l=l))
        num_keys = len(keys)
        assert symmetry.name == f"S_{n}"
        plain = search_counterexample(num_keys, structures, r)
        assert search_counterexample(num_keys, structures, r, symmetry=symmetry) == plain, n
        verdict = _chain(n, r=r, l=l)
        assert verdict.status == ("true" if plain is None else "false"), n
        if plain is not None:
            assert find_monochromatic_copy(grid(n, 1), grid(l, 1),
                                           verdict.counterexample) is None, n


@st.composite
def _graph_orbits(draw):
    """The edge sets of every copy of a random graph H in K_n, as key sets."""
    n = draw(st.integers(2, 7))
    h = draw(st.integers(2, min(n, 4)))
    pattern = draw(st.sets(st.sampled_from(list(combinations(range(h), 2))), min_size=1))
    index = {e: i for i, e in enumerate(combinations(range(n), 2))}
    structures = {tuple(sorted(index[min(img[a], img[b]), max(img[a], img[b])]
                               for a, b in pattern))
                  for img in permutations(range(n), h)}
    return n, len(index), sorted(structures), draw(st.integers(1, 3))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_graph_orbits())
def test_symmetry_breaking_matches_the_plain_search_on_graph_orbits(instance):
    n, num_keys, structures, r = instance
    plain = search_counterexample(num_keys, structures, r)
    assert search_counterexample(num_keys, structures, r, symmetry=vertex_symmetry(n)) == plain
    verdict = run_engine(list(combinations(range(n), 2)), structures, r,
                         KIND_COMPARABILITY, 10 ** 6, 1, vertex_symmetry(n))
    assert verdict.reason == f"lex-leader symmetry breaking over S_{n} x S_{r}"
    assert verdict.status == ("true" if plain is None else "false")


def test_the_threshold_scan_finds_r333_17():
    res = min_ramsey_n(1, 3, 2, 3, KIND_COMPARABILITY, 17)
    assert (res.found, res.status) == (17, "found")
    assert res.verdicts[16].reason == "lex-leader symmetry breaking over S_16 x S_3"
    cex = res.counterexamples()
    assert sorted(cex) == list(range(3, 17))
    for n, coloring in cex.items():
        assert find_monochromatic_copy(grid(n, 1), grid(3, 1), coloring) is None, n


@pytest.mark.parametrize("n, structures, vertices", [
    pytest.param(4, [(0, 1, 3)], 4, id="one-triangle"),  # S_4 moves it to the others
    pytest.param(3, [(0, 1)], 3, id="one-path"),  # the cycle (0 1 2) moves it
    pytest.param(4, [(0, 1, 3)], 5, id="wrong-key-count"),  # K_5 has 10 edges, not 6
])
def test_a_vertex_symmetry_the_structures_lack_is_refused(n, structures, vertices):
    keys = list(combinations(range(n), 2))
    with pytest.raises(ContractViolation):
        run_engine(keys, structures, 2, KIND_COMPARABILITY, 1000, 1, vertex_symmetry(vertices))


def test_a_symmetry_is_checked_on_the_distinct_keys_of_each_structure():
    # (0, 0, 1) is the structure {0, 1}, which the swap of keys 0 and 1 fixes.
    assert search_counterexample(2, [(0, 0, 1)], 2, symmetry=box_symmetry((2,))) == (1, 2)
    with pytest.raises(ContractViolation, match="not invariant under S_2"):  # {1} -> {0}
        search_counterexample(2, [(0, 0, 1), (1, 1)], 2, symmetry=box_symmetry((2,)))
    broken = box_symmetry((2,))
    broken.generators = [[1, -1]]  # no permutation of the keys; -1 is no bit position
    with pytest.raises(ContractViolation, match="not invariant under S_2"):
        search_counterexample(2, [(0, 1)], 2, symmetry=broken)


def _box_orbit(a, b, pattern):
    """The images of the cell set ``pattern`` under every permutation of the
    rows and of the columns of the a x b box, as key groups."""
    return {tuple(sorted(((rows[i],), (cols[j],)) for i, j in pattern))
            for rows in permutations(range(a)) for cols in permutations(range(b))}


_PATTERNS = {
    "rectangle": [(0, 0), (0, 1), (1, 0), (1, 1)],
    "row-pair": [(0, 0), (0, 1)],
    "column-pair": [(0, 0), (1, 0)],
    "diagonal": [(0, 0), (1, 1)],
    "corner": [(0, 0), (0, 1), (1, 0)],
    "row-triple": [(0, 0), (0, 1), (0, 2)],
}


# Every 2-coloring of boxes up to 4x4 and every 3-coloring of 3x3: the
# brute force tries each coloring in lex order, so it tries them all when
# none is good. The least good coloring is the least of its orbit, so the
# symmetric walk must return it.
@pytest.mark.parametrize("a, b, r", [(2, 2, 2), (2, 3, 2), (3, 3, 2), (3, 4, 2), (4, 4, 2),
                                     (4, 2, 2), (3, 3, 3)])
@pytest.mark.parametrize("shapes", [["rectangle"], ["row-pair"], ["corner"],
                                    ["diagonal", "row-pair"], ["row-triple", "rectangle"],
                                    ["row-pair", "column-pair", "diagonal"]])
def test_grid_symmetry_matches_brute_force_on_tiny_boxes(a, b, r, shapes):
    keys = [((i,), (j,)) for i in range(a) for j in range(b)]
    fits = [_PATTERNS[shape] for shape in shapes
            if all(i < a and j < b for i, j in _PATTERNS[shape])]
    groups = [group for pattern in fits for group in sorted(_box_orbit(a, b, pattern))]
    structures = index_structures(keys, groups)
    want = _first_good_coloring(len(keys), structures, r)
    got = search_counterexample(len(keys), structures, r, symmetry=box_symmetry((a, b)))
    assert got == want
    verdict = run_engine(keys, structures, r, KIND_SUBGRID, 10 ** 6, 1, box_symmetry((a, b)))
    assert verdict.status == ("true" if want is None else "false")
    assert verdict.reason == f"lex-leader symmetry breaking over S_{a} x S_{b} x S_{r}"


@pytest.mark.parametrize("n, r, l", [(n, r, l) for n in range(3, 7) for r in (1, 2, 3)
                                     for l in (2, 3)])
def test_grid_symmetry_keeps_the_plain_walk_witness(monkeypatch, n, r, l):
    keys, structures, _, symmetry = _engine_inputs(
        monkeypatch, lambda: verify_grid_ramsey(KIND_SUBGRID, 2, r, 1, l, n))
    assert symmetry.name == f"S_{n} x S_{n}"
    plain = _outcome(search_counterexample, len(keys), structures, r, 20_000)
    if plain != "guard":
        assert search_counterexample(len(keys), structures, r, symmetry=symmetry) == plain
    verdict = verify_grid_ramsey(KIND_SUBGRID, 2, r, 1, l, n)
    if verdict.status == "false":
        assert find_monochromatic_subgrid(n, 2, 1, l, verdict.counterexample) is None


def test_a_grid_symmetry_the_structures_lack_is_refused():
    keys, groups = _box_rectangles(4, 4)
    structures = index_structures(keys, groups)
    assert run_engine(keys, structures, 2, KIND_SUBGRID, 1000, 1,
                      box_symmetry((4, 4))).status == "false"
    for dropped in (0, len(structures) - 1):
        with pytest.raises(ContractViolation, match="not invariant under S_4 x S_4"):
            run_engine(keys, structures[:dropped] + structures[dropped + 1:], 2, KIND_SUBGRID,
                       1000, 1, box_symmetry((4, 4)))
    with pytest.raises(ContractViolation):  # 20 keys declared, 16 given
        run_engine(keys, structures, 2, KIND_SUBGRID, 1000, 1, box_symmetry((4, 5)))


def _grid_symmetry_reference(a, b):
    """The two-axis declaration as written before ``box_symmetry``: the name,
    generators and lex table of S_a x S_b on the a x b cells."""
    def swap_and_cycle(n):
        return [[1, 0, *range(2, n)], [*range(1, n), 0]] if n > 1 else []

    cells = list(product(range(a), range(b)))
    lex = []
    for i, j in cells:
        k = i * b + j
        row = ((k - b, ((1 << j) - 1) << (k - j - b), b),) if i else ()
        column = ((k - 1, sum(1 << (w * b + j - 1) for w in range(i)), 1),) if j else ()
        lex.append(row + column)
    generators = [[p[i] * b + j for i, j in cells] for p in swap_and_cycle(a)] + \
        [[i * b + p[j] for i, j in cells] for p in swap_and_cycle(b)]
    return f"S_{a} x S_{b}", generators, lex


def test_box_symmetry_on_two_axes_is_the_grid_declaration(monkeypatch):
    monkeypatch.setattr(ramsey, "_lex_leader", lambda lex, colors, counted=None: lex)
    for a, b in product(range(1, 8), repeat=2):
        symmetry = box_symmetry((a, b))
        got = symmetry.name, symmetry.generators, symmetry.constraints(range(1, 3))
        assert got == _grid_symmetry_reference(a, b), (a, b)


def _cells(sides):
    """The cells of a box keyed as the subgrid kind keys them at m = 1, row major."""
    return [tuple((v,) for v in cell) for cell in product(*map(range, sides))]


def _axis_orbit(sides, pattern):
    """The images of the cell set ``pattern`` under every permutation of the
    values on each axis of the box with these sides, as key groups."""
    return {tuple(sorted(tuple((perm[v],) for perm, v in zip(perms, cell)) for cell in pattern))
            for perms in product(*(list(permutations(range(side))) for side in sides))}


_SOLIDS = {
    "box": list(product((0, 1), repeat=3)),
    "face": [(0, j, k) for j in (0, 1) for k in (0, 1)],
    "end-face": [(i, j, 0) for i in (0, 1) for j in (0, 1)],
}


# Every coloring of 2x2x2 and 2x2x3 under 2 colors and of 2x2x2 under 3, as
# for the two-axis boxes above.
@pytest.mark.parametrize("sides, r", [((2, 2, 2), 2), ((2, 2, 3), 2), ((2, 2, 2), 3)])
@pytest.mark.parametrize("shapes", [["box"], ["face"], ["box", "face"], ["face", "end-face"]])
def test_box_symmetry_matches_brute_force_on_tiny_3_axis_boxes(sides, r, shapes):
    keys = _cells(sides)
    groups = [group for shape in shapes for group in sorted(_axis_orbit(sides, _SOLIDS[shape]))]
    structures = index_structures(keys, groups)
    want = _first_good_coloring(len(keys), structures, r)
    assert search_counterexample(len(keys), structures, r, symmetry=box_symmetry(sides)) == want
    verdict = run_engine(keys, structures, r, KIND_SUBGRID, 10 ** 6, 1, box_symmetry(sides))
    assert verdict.status == ("true" if want is None else "false")
    names = " x ".join(f"S_{side}" for side in (*sides, r))
    assert verdict.reason == f"lex-leader symmetry breaking over {names}"


# The subgrid kind breaks the values on each axis at m = 1 and the vertices of
# K_n at t = 1, m = 2. The plain walk over 2x2x2 boxes in n^3 takes 64, 1,379
# and 733,972 nodes at n = 4, 5 and 6; the triangles of K_n take the chain
# kind's counts.
@pytest.mark.parametrize("t, r, m, l, n, nodes, status", [
    (3, 2, 1, 2, 4, 55, "false"),
    (3, 2, 1, 2, 5, 162, "false"),
    (3, 2, 1, 2, 6, 4858, "false"),
    (1, 3, 2, 3, 11, 203, "false"),
    (1, 3, 2, 3, 16, 3761, "false"),
    (1, 3, 2, 3, 17, 962, "true"),
])
def test_declared_subgrid_node_counts_are_pinned(t, r, m, l, n, nodes, status):
    verdict = verify_grid_ramsey(KIND_SUBGRID, t, r, m, l, n, node_guard=nodes)
    assert verdict.status == status
    assert verify_grid_ramsey(KIND_SUBGRID, t, r, m, l, n,
                              node_guard=nodes - 1).status == "inconclusive"
    if status == "false":
        assert find_monochromatic_subgrid(n, t, m, l, verdict.counterexample) is None


@pytest.mark.parametrize("t, r, m, l, n", [
    (3, 2, 1, 2, 3), (3, 2, 1, 2, 4), (3, 2, 1, 2, 5), (3, 3, 1, 2, 3), (1, 2, 1, 3, 5),
    (1, 2, 2, 3, 5), (1, 3, 2, 3, 11), (1, 2, 2, 4, 8)])
def test_box_and_edge_declarations_keep_the_plain_walk_witness(monkeypatch, t, r, m, l, n):
    keys, structures, _, symmetry = _engine_inputs(
        monkeypatch, lambda: verify_grid_ramsey(KIND_SUBGRID, t, r, m, l, n))
    assert symmetry.name == " x ".join([f"S_{n}"] * t)
    plain = search_counterexample(len(keys), structures, r, 20_000)
    assert search_counterexample(len(keys), structures, r, symmetry=symmetry) == plain


def _chain_structures(n):
    """The triangles of K_n as key indices."""
    keys = list(combinations(range(n), 2))
    return index_structures(keys, (combinations(t, 2) for t in combinations(range(n), 3)))


def test_symmetry_declarations_pickle_by_their_parameters():
    keys, groups = _box_rectangles(3, 5)
    structures = index_structures(keys, groups)
    cubes = index_structures(_cells((2, 3, 2)), _axis_orbit((2, 3, 2), _SOLIDS["box"]))
    for symmetry, num_keys, structs in ((box_symmetry((3, 5)), 15, structures),
                                        (box_symmetry((2, 3, 2)), 12, cubes),
                                        (vertex_symmetry(6), 15, _chain_structures(6))):
        data = pickle.dumps(symmetry)
        assert len(data) < 200  # the call that built it, not its tables
        copy = pickle.loads(data)
        assert (copy.name, copy.generators) == (symmetry.name, symmetry.generators)
        for r in (2, 3):
            assert search_counterexample(num_keys, structs, r, symmetry=copy) == \
                search_counterexample(num_keys, structs, r, symmetry=symmetry)


def test_index_structures_sorts_each_group_and_drops_repeats():
    keys = ["a", "b", "c", "d"]
    groups = [("c", "a"), ("d",), ["a", "c"], ("b", "d", "a"), ("d",)]
    assert index_structures(keys, groups) == [(0, 2), (3,), (0, 1, 3)]


def _subposet_reference(t, m, l, n):
    """The subposet kind's keys and structures, each hull's keys found by an
    induced-copy search inside the hull."""
    ambient, small = grid(n, t), grid(m, t)
    keys = enumerate_induced_copy_sets(ambient, small)
    index = {key: i for i, key in enumerate(keys)}
    structures = []
    for hull in enumerate_induced_copy_sets(ambient, grid(l, t)):
        inner = enumerate_induced_copy_sets(ambient, small, within=hull)
        struct = tuple(sorted(index[e] for e in inner))
        if struct not in structures:
            structures.append(struct)
    return keys, structures


@pytest.mark.parametrize("t, m, l, n", [
    (2, 1, 2, 6), (2, 1, 2, 4), (2, 2, 3, 4), (2, 2, 3, 5), (1, 2, 3, 8), (3, 1, 2, 3),
    (2, 1, 3, 5), (1, 1, 1, 3), (2, 2, 2, 3), (2, 2, 4, 5), (3, 2, 3, 3)])
def test_subposet_hulls_filled_by_lookup_match_the_kernel(monkeypatch, t, m, l, n):
    keys, structures, _, _ = _engine_inputs(
        monkeypatch, lambda: verify_grid_ramsey(KIND_SUBPOSET, t, 2, m, l, n))
    assert (keys, structures) == _subposet_reference(t, m, l, n)


def _subposet_by_lookup(t, m, l, n):
    """The subposet kind's keys and structures, each hull's keys looked up by
    their first and last element and kept if the hull holds them all."""
    ambient = grid(n, t)
    keys = enumerate_induced_copy_sets(ambient, grid(m, t))
    by_ends = {}
    for key in keys:
        by_ends.setdefault((key[0], key[-1]), []).append(key)

    def inside(hull):
        members = set(hull)
        return [key for i, low in enumerate(hull) for high in hull[i:]
                for key in by_ends.get((low, high), ()) if members.issuperset(key)]

    return keys, index_structures(keys, map(inside, enumerate_induced_copy_sets(
        ambient, grid(l, t))))


@pytest.mark.parametrize("t, m, l, n", [
    (2, 1, 2, 6), (2, 1, 2, 8), (2, 2, 3, 5), (2, 2, 3, 6), (3, 1, 2, 4), (2, 1, 3, 6)])
def test_subposet_hulls_mapped_from_the_pattern_match_the_lookup(monkeypatch, t, m, l, n):
    keys, structures, _, _ = _engine_inputs(
        monkeypatch, lambda: verify_grid_ramsey(KIND_SUBPOSET, t, 2, m, l, n))
    assert (keys, structures) == _subposet_by_lookup(t, m, l, n)


def test_subposet_hulls_keep_the_copy_guard(monkeypatch):
    # 3^2 holds 25 induced copies of 2^2: the hulls of its 9 cells.
    monkeypatch.setattr(ramsey, "run_engine", lambda *args: args[1])
    monkeypatch.setattr(ramsey, "COPY_GUARD", 25)
    assert len(verify_grid_ramsey(KIND_SUBPOSET, 2, 2, 1, 2, 3)) == 25
    monkeypatch.setattr(ramsey, "COPY_GUARD", 24)
    verdict = verify_grid_ramsey(KIND_SUBPOSET, 2, 2, 1, 2, 3)
    assert (verdict.status, verdict.reason) == \
        ("inconclusive", "induced-copy enumeration exceeded its guard")


def test_subposet_hull_lookup_keeps_the_time_limit(monkeypatch):
    # The copy searches of this small build check the clock only every 4096
    # nodes, so an expired limit is first seen while the hulls are filled.
    monkeypatch.setattr(ramsey, "run_engine", lambda *args, **kwargs: pytest.fail("built"))
    with ramsey.time_limit(0):
        verdict = verify_grid_ramsey(KIND_SUBPOSET, 2, 2, 1, 2, 4)
    assert (verdict.status, verdict.reason) == ("inconclusive", "time limit exceeded")


def test_the_comparability_build_keeps_the_time_limit(monkeypatch):
    # The copies of 2^2 in 6^2 are enumerated before any structure reaches the
    # engine; an expired limit there is an inconclusive verdict, as in the
    # subposet kind's build.
    monkeypatch.setattr(ramsey, "run_engine", lambda *args, **kwargs: pytest.fail("built"))
    with ramsey.time_limit(0):
        verdict = verify_comparability_ramsey(grid(2, 2), grid(6, 2), 2)
    assert (verdict.status, verdict.reason) == ("inconclusive", "time limit exceeded")


def _reference_bits(num_keys, structures):
    """The engine's tables from plain sets: the structures holding each key,
    each structure's key set, and for j in 0..smax the structures counted at
    least j times before any key is colored, a structure of z distinct keys
    starting at smax - z."""
    sets = [set(keys) for keys in structures]
    smax = max(map(len, sets), default=0)
    holding = [{i for i, keys in enumerate(sets) if k in keys} for k in range(num_keys)]
    counts = [{i for i, keys in enumerate(sets) if smax - len(keys) >= j}
              for j in range(smax + 1)]
    return holding, sets, counts


def _members(bits):
    return {i for i in range(bits.bit_length()) if bits >> i & 1}


def _assert_bits_match_the_reference(num_keys, structures):
    holding, masks, counts = ramsey._structure_bits(num_keys, structures)
    want = _reference_bits(num_keys, structures)
    assert ([_members(x) for x in holding], [_members(x) for x in masks],
            [_members(x) for x in counts]) == want


@st.composite
def _unsorted_structures(draw):
    num_keys = draw(st.integers(0, 10))
    if not num_keys:
        return 0, draw(st.lists(st.just(()), max_size=3))
    key = st.integers(0, num_keys - 1)
    return num_keys, draw(st.lists(st.lists(key, max_size=6).map(tuple), max_size=15))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_unsorted_structures())
def test_the_structure_bits_match_a_set_reference(instance):
    _assert_bits_match_the_reference(*instance)


@pytest.mark.parametrize("verify", [
    lambda: verify_grid_ramsey(KIND_SUBPOSET, 2, 2, 1, 2, 6),
    lambda: verify_grid_ramsey(KIND_SUBPOSET, 2, 2, 2, 3, 5),
    lambda: _chain(16),
], ids=["subposet-hulls-6x6", "subposet-m2-hulls-5x5", "triangles-K16"])
def test_the_structure_bits_match_on_verify_inputs(monkeypatch, verify):
    keys, structures, _, _ = _engine_inputs(monkeypatch, verify)
    _assert_bits_match_the_reference(len(keys), structures)


@pytest.mark.parametrize("structure", [(-1,), (0, -1, 2), (0, 1, 2, -3), (0, 1, 2, -3, 4),
                                       (5,), (0, 1, 5), (0, 2, 3, 5), (5, 0, 1, 2, 3)])
def test_the_index_refuses_keys_out_of_range(structure):
    # A negative shift raises ValueError and a key past the rows IndexError; a
    # list of rows or a bytearray read at a negative key would wrap instead.
    error = ValueError if min(structure) < 0 else IndexError
    with pytest.raises(error):
        ramsey._structure_bits(5, [(0, 1, 2), structure])
