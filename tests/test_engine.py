"""The counterexample engine: brute-force differential, pinned node counts,
pinned certificates, serial/parallel agreement, guard reasons and deep
instances."""

import os
import re
import subprocess
import sys
import time
from concurrent.futures import Future
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlab import ramsey
from gridlab.cli import run
from gridlab.errors import GuardExceeded
from gridlab.fileio import certificate_digest
from gridlab.grids import grid
from gridlab.ramsey import (
    KIND_SUBGRID,
    KIND_SUBPOSET,
    search_counterexample,
    verify_comparability_ramsey,
    verify_grid_ramsey,
)


def _first_good_coloring(num_keys, structures, r, prefix):
    """Lexicographically first coloring that agrees with prefix and leaves no
    structure monochromatic, by enumerating all r^num_keys colorings."""
    pinned = dict(prefix)
    for colors in product(range(1, r + 1), repeat=num_keys):
        if any(colors[k] != c for k, c in pinned.items()):
            continue
        if all(len({colors[k] for k in s}) > 1 for s in structures):
            return colors
    return None


@st.composite
def _instances(draw):
    num_keys = draw(st.integers(0, 9))
    r = draw(st.integers(1, 3))
    keys = st.sets(st.integers(0, max(num_keys - 1, 0)), max_size=num_keys)
    structures = [tuple(sorted(s)) for s in draw(st.lists(keys, max_size=12))]
    prefix = ()
    if num_keys:
        pinned = draw(st.sets(st.integers(0, num_keys - 1), max_size=3))
        prefix = tuple((k, draw(st.integers(1, r))) for k in sorted(pinned))
    return num_keys, structures, r, prefix


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_instances())
def test_engine_matches_brute_force(instance):
    num_keys, structures, r, prefix = instance
    got = search_counterexample(num_keys, structures, r, prefix=prefix)
    # Branching in key and color order behind sound propagation finds the
    # lexicographically first good coloring; pinning the first key to color 1
    # when there is no prefix keeps it, since a color permutation maps any
    # good coloring to one that starts with color 1.
    assert got == _first_good_coloring(num_keys, structures, r, prefix)
    if got is not None:
        assert all(len({got[k] for k in s}) > 1 for s in structures)


def _chain11(guard):
    return verify_comparability_ramsey(grid(3, 1), grid(11, 1), 3, node_guard=guard)


# Node counts of the engine before its state became key bitmasks: a node is a
# (key, color) attempt, so each search finishes under exactly this guard.
@pytest.mark.parametrize("verify, nodes, status", [
    (_chain11, 10518, "false"),
    (lambda g: verify_grid_ramsey(KIND_SUBGRID, 2, 3, 1, 2, 6, node_guard=g), 8099, "false"),
    (lambda g: verify_grid_ramsey(KIND_SUBPOSET, 2, 2, 1, 2, 6, node_guard=g), 391, "true"),
    (lambda g: verify_grid_ramsey(KIND_SUBGRID, 2, 2, 1, 2, 5, node_guard=g), 2699, "true"),
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
    (["ramsey", "verify", "--kind", "comparability", "--t", "1", "--r", "3",
      "--p-chain", "3", "--n", "16", "--guard", "100000"], "3f06465fe25a6557", "afc8fa8c11bffac4"),
    (_grid_argv("verify", "subposet", 2, "--n", 6), "8585d56b655ce01c", "5b594815f9e36d22"),
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


def test_guard_reasons_say_where_the_search_stopped():
    assert _chain11(1000).reason == \
        "counterexample search exceeded its node guard 1000 at depth 13/55"
    parallel = verify_comparability_ramsey(grid(3, 1), grid(11, 1), 3,
                                           node_guard=1000, workers=2)
    assert parallel.status == "inconclusive"
    assert re.fullmatch(r"counterexample search exceeded its node guard 1000 "
                        r"by shard \d+/\d+", parallel.reason)


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
# search's 10,518th node: one guard lower, the parallel search must not
# return it, but stop at its guard as the serial search does.
@pytest.mark.parametrize("verify, nodes", [
    (lambda g: verify_comparability_ramsey(grid(3, 1), grid(11, 1), 3, node_guard=g,
                                           workers=2), 10518),
    (lambda g: _cells6(g, workers=2), 8099),
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
    return num_keys, [tuple(sorted(s)) for s in structures], r, guard


def _outcome(search, *args):
    try:
        return search(*args)
    except GuardExceeded:
        return "guard"


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_sharded_instances())
def test_parallel_search_matches_the_serial_search(instance):
    num_keys, structures, r, guard = instance
    serial = _outcome(search_counterexample, num_keys, structures, r, guard)
    parallel = _outcome(ramsey._parallel_counterexample, num_keys, structures, r, guard, 2)
    assert parallel == serial


class _RefusingPool:
    """Stands in for the process pool: records its size and starts nothing."""

    sizes = []

    def __init__(self, max_workers=None, **kwargs):
        self.sizes.append(max_workers)
        raise RuntimeError("no pool in this test")


@pytest.mark.parametrize("num_keys, structures, workers, cpus, size", [
    # Two shards at split depth 3: key 0 is pinned, coloring key 1 with 1
    # forces keys 2 and 3 to 2, a conflict, and key 2 then takes either color.
    pytest.param(5, [(0, 1, 2), (0, 1, 3), (2, 3)], 4, 64, 2, id="5-4-64-2"),
    pytest.param(30, [(0, 1)], 64, 3, 3, id="30-64-3-3"),  # capped by the CPU count
    # an unknown CPU count counts as one
    pytest.param(30, [(0, 1)], 64, None, 1, id="30-64-None-1"),
])
def test_the_pool_is_never_larger_than_the_shards_or_cpus(monkeypatch, num_keys, structures,
                                                          workers, cpus, size):
    monkeypatch.setattr(ramsey, "ProcessPoolExecutor", _RefusingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    _RefusingPool.sizes.clear()
    with pytest.raises(RuntimeError, match="no pool"):
        ramsey._parallel_counterexample(num_keys, structures, 2, 1000, workers)
    assert _RefusingPool.sizes == [size]


def test_a_frontier_without_shards_starts_no_pool(monkeypatch):
    monkeypatch.setattr(ramsey, "ProcessPoolExecutor", _RefusingPool)
    _RefusingPool.sizes.clear()
    # Key 1 dies in both colors, so the walk ends after 3 nodes above the split.
    triangle = [(1, 2), (1, 3), (2, 3)]
    assert ramsey._parallel_counterexample(5, triangle, 2, 3, 2) is None
    with pytest.raises(GuardExceeded, match="node guard 2 after its 0 shards"):
        ramsey._parallel_counterexample(5, triangle, 2, 2, 2)
    assert _RefusingPool.sizes == []


class _InlinePool:
    """Stands in for the process pool: runs the initializer, then each shard
    as it is submitted, in this process; restores the worker globals on exit."""

    def __init__(self, max_workers=None, mp_context=None, initializer=None, initargs=()):
        self.saved = ramsey._DEADLINE, ramsey._STOP, ramsey._ENGINE
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        ramsey._DEADLINE, ramsey._STOP, ramsey._ENGINE = self.saved

    def submit(self, fn, *args):
        fut = Future()
        fut.set_result(fn(*args))
        return fut


# (verify, the serial search's node count, whether it finds a counterexample)
@pytest.mark.parametrize("verify, finish, found", [
    (lambda: verify_grid_ramsey(KIND_SUBGRID, 2, 2, 1, 2, 4), 34, True),
    (lambda: verify_comparability_ramsey(grid(3, 1), grid(8, 1), 3), 223, True),
    (lambda: verify_comparability_ramsey(grid(3, 1), grid(6, 1), 2), 19, False),
])
def test_shard_accounting_at_every_guard(monkeypatch, verify, finish, found):
    seen = []  # the (num_keys, structures, r) that verify hands to the engine
    monkeypatch.setattr(ramsey, "run_engine",
                        lambda keys, structures, r, *rest: seen.append((len(keys), structures, r)))
    verify()
    num_keys, structures, r = seen[0]
    monkeypatch.setattr(ramsey, "ProcessPoolExecutor", _InlinePool)
    for guard in range(finish + 1):
        serial = _outcome(search_counterexample, num_keys, structures, r, guard)
        if guard < finish:
            assert serial == "guard"
        for workers in (2, 4):
            assert _outcome(ramsey._parallel_counterexample, num_keys, structures, r,
                            guard, workers) == serial, (guard, workers)
    assert (serial is not None) == found


@pytest.mark.parametrize("workers", [1, 2])
def test_a_verdict_at_the_guard_edge_does_not_depend_on_workers(workers):
    def cells5(guard):
        return verify_grid_ramsey(KIND_SUBGRID, 2, 2, 1, 2, 5, node_guard=guard,
                                  workers=workers)

    assert cells5(2698).status == "inconclusive"
    assert cells5(2699).status == "true"


_FORKSERVER_TIME_LIMIT = """
import multiprocessing, time
from gridlab.grids import grid
from gridlab.ramsey import time_limit, verify_comparability_ramsey

if __name__ == "__main__":
    multiprocessing.set_start_method("forkserver")
    start = time.monotonic()
    with time_limit(0.3):
        v = verify_comparability_ramsey(grid(3, 1), grid(16, 1), 3, node_guard=300000,
                                        workers=2)
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
    assert reason.endswith("time limit exceeded"), reason
    assert float(seconds) < 3.0 and time.monotonic() - start < 30
