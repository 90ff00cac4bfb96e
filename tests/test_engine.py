"""The counterexample engine: brute-force differential, pinned node counts,
pinned certificates, serial/parallel agreement, guard reasons and deep
instances."""

import re
import sys
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlab.cli import run
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
    return num_keys, structures, r, prefix, draw(st.booleans())


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_instances())
def test_engine_matches_brute_force(instance):
    num_keys, structures, r, prefix, break_symmetry = instance
    got = search_counterexample(num_keys, structures, r, prefix=prefix,
                                break_color_symmetry=break_symmetry)
    # Branching in key and color order behind sound propagation finds the
    # lexicographically first good coloring; pinning the first key to color 1
    # keeps it, since a color permutation maps any good coloring to one that
    # starts with color 1.
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


@pytest.mark.parametrize("argv, digest", [
    (_grid_argv("search", "subgrid", 2, "--n-max", 6), "fecb0cbf30d1982b"),
    (["ramsey", "search", "--kind", "comparability", "--t", "1", "--r", "2",
      "--p-chain", "3", "--n-max", "7"], "4544049fa354ea87"),
    (["extension", "partition-ramsey", "--s", "2", "--t", "3", "--r", "2", "--k-max", "7"],
     "d1a33e17f4024216"),
    (_CHAIN11, "74937371d52540b7"),
    (["--workers", "2"] + _CHAIN11, "9f41a2203e946dfe"),
    (_grid_argv("verify", "subgrid", 3, "--n", 6), "d1513fcdb3037205"),
    (["ramsey", "verify", "--kind", "comparability", "--t", "1", "--r", "3",
      "--p-chain", "3", "--n", "16", "--guard", "100000"], "afc8fa8c11bffac4"),
    (_grid_argv("verify", "subposet", 2, "--n", 6), "5b594815f9e36d22"),
])
def test_certificates_are_pinned(argv, digest):
    assert run(argv).certificate["digest"][:16] == digest


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
    assert re.fullmatch(r"parallel shard \d+/\d+ \(prefix \[.*\]\): counterexample search "
                        r"exceeded its node guard 1000 at depth \d+/55", parallel.reason)


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
