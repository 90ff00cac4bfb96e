"""Antipodal machinery, G/B colors, all-good certificates, conforming embeddings."""

import random

import pytest

from gridlab.errors import ContractViolation
from gridlab.extension import (
    AntipodalPair,
    Partition,
    all_good_check,
    antipodal_pairs,
    build_conforming_embedding,
    coarsen,
    coarsenings,
    collect_uniform_pair_colors,
    color_hypercube,
    nonuniform_counterexample_demo,
    pair_to_partition,
    partition_ramsey_search,
    partition_to_pair,
    partitions_of_range,
    set_partitions_into,
)
from gridlab.grids import Subgrid, colex_order, grid, lex_order
from gridlab.poset import (
    LinearExtension,
    is_alternating_cycle,
    linear_extensions,
    make_antichain,
    make_chain,
)


def _weighted_extension(g, weights):
    order = sorted(range(g.n),
                   key=lambda e: (sum(w * c for w, c in zip(weights, g.coords(e))), e))
    return LinearExtension(tuple(order))


def test_antipodal_counts():
    assert len(antipodal_pairs(2)) == 1
    assert antipodal_pairs(2)[0].low == "01"
    assert len(antipodal_pairs(3)) == 3
    assert len(antipodal_pairs(6)) == 31
    for t in range(2, 11):
        assert len(antipodal_pairs(t)) == 2 ** (t - 1) - 1
    with pytest.raises(ContractViolation):
        antipodal_pairs(1)


def test_antipodal_strings_are_complementary():
    for pair in antipodal_pairs(5):
        assert all(a != b for a, b in zip(pair.low, pair.high))
        assert pair.low[0] == "0"


def test_pair_partition_bijection_paper_example():
    pair = AntipodalPair("001101")
    pi = pair_to_partition(pair)
    # 1-indexed {1,2,5},{3,4,6} reads 0-indexed as {0,1,4},{2,3,5}.
    assert pi.parts == ((0, 1, 4), (2, 3, 5))
    assert partition_to_pair(pi) == pair


def test_pair_partition_round_trip():
    for t in range(2, 9):
        for pair in antipodal_pairs(t):
            assert partition_to_pair(pair_to_partition(pair)) == pair
    assert pair_to_partition(AntipodalPair("01")).parts == ((0,), (1,))


def test_constant_string_rejected():
    with pytest.raises(ContractViolation):
        AntipodalPair("000")
    with pytest.raises(ContractViolation):
        AntipodalPair("100")
    with pytest.raises(ContractViolation):
        partition_to_pair(Partition.of([[0, 1, 2]]))


def test_partition_validation():
    with pytest.raises(ContractViolation):
        Partition.of([[0, 1], []])
    with pytest.raises(ContractViolation):
        Partition.of([[0, 1], [1, 2]])
    with pytest.raises(ContractViolation):
        Partition.of([[0], [2]])


def test_set_partition_counts():
    assert sum(1 for _ in set_partitions_into(range(4), 2)) == 7
    assert sum(1 for _ in set_partitions_into(range(7), 3)) == 301
    assert sum(1 for _ in partitions_of_range(5, 5)) == 1


def test_color_hypercube_paper_example():
    # Pair 001101/110010 with a < b in L1 and b < a in L2, L3 colors GBG.
    g = grid(2, 6)
    pair = AntipodalPair("001101")
    a = g.index((0, 0, 1, 1, 0, 1))
    b = g.index((1, 1, 0, 0, 1, 0))
    l1 = _weighted_extension(g, (9, 9, 1, 1, 9, 1))
    l23 = _weighted_extension(g, (1, 1, 9, 9, 1, 9))
    assert l1.before(a, b) and l23.before(b, a)
    color = color_hypercube(g, Subgrid.full(2, 6), pair, [l1, l23, l23])
    assert color == "GBG"


def test_color_hypercube_respecting_extension_is_good():
    g = grid(3, 2)
    pair = AntipodalPair("01")
    cube = Subgrid.of([0, 2], [1, 2])
    color = color_hypercube(g, cube, pair, [lex_order(3)])
    assert color == "G"


def test_dualizing_an_extension_flips_its_digit():
    rng = random.Random(12)
    g = grid(2, 3)
    exts = linear_extensions(g, cap=8)
    for _ in range(25):
        e1, e2 = rng.choice(exts), rng.choice(exts)
        pair = rng.choice(antipodal_pairs(3))
        cube = Subgrid.full(2, 3)
        base = color_hypercube(g, cube, pair, [e1, e2])
        flipped = color_hypercube(g, cube, pair, [e1, e2.dual()])
        assert flipped[0] == base[0]
        assert flipped[1] != base[1]


def test_color_hypercube_rejects_more_exts_than_axes():
    g = grid(2, 2)
    with pytest.raises(ContractViolation):
        color_hypercube(g, Subgrid.full(2, 2), AntipodalPair("01"),
                        [lex_order(2), colex_order(2), lex_order(2)])


def test_collect_uniform_pair_colors_lex():
    g = grid(3, 2)
    colors = collect_uniform_pair_colors(g, [lex_order(3)])
    pi = pair_to_partition(AntipodalPair("01")).canonical()
    assert colors == {pi: "G"}
    # Some extension of the grid is not uniform; the replayer must say so.
    uniform, broken = 0, 0
    for ext in linear_extensions(g):
        try:
            collect_uniform_pair_colors(g, [ext])
            uniform += 1
        except ContractViolation:
            broken += 1
    assert uniform >= 2 and broken > 0


def test_all_good_accepts_all_good():
    psi = Partition.of([[0, 1], [2], [3, 4]])
    colors = {two.canonical(): "GG" for two in coarsenings(psi, 2)}
    res = all_good_check(psi, colors)
    assert res.verdict and res.color == "GG" and res.certificate is None


def test_all_good_builds_cycle_certificate():
    psi = Partition.of([[0, 1], [2, 3], [4]])
    colors = {two.canonical(): "GB" for two in coarsenings(psi, 2)}
    res = all_good_check(psi, colors)
    assert not res.verdict
    cert = res.certificate
    assert cert.digit == 1 and cert.axis == 1
    assert cert.part_a == (0, 1)
    assert cert.string_b == "00110" and cert.string_c == "00001"
    assert is_alternating_cycle(cert.cube(), cert.cycle_pairs)
    # The bad axis lies outside both cycle parts, so both strings are 0 there.
    assert cert.string_b[cert.axis] == "0" and cert.string_c[cert.axis] == "0"


def test_all_good_with_k1_and_three_singletons():
    psi = Partition.of([[0], [1], [2]])
    colors = {two.canonical(): "B" for two in coarsenings(psi, 2)}
    res = all_good_check(psi, colors)
    assert not res.verdict and res.certificate is not None
    assert is_alternating_cycle(res.certificate.cube(), res.certificate.cycle_pairs)


def test_all_good_preconditions():
    psi = Partition.of([[0, 1], [2]])
    with pytest.raises(ContractViolation):
        all_good_check(psi, {})
    psi3 = Partition.of([[0], [1], [2]])
    colors = {two.canonical(): c for two, c in
              zip(coarsenings(psi3, 2), ("G", "G", "B"))}
    with pytest.raises(ContractViolation):
        all_good_check(psi3, colors)


def test_conforming_embedding_of_chain_is_diagonal():
    x = make_chain(4)
    (m,) = linear_extensions(x)
    psi = Partition.of([[0, 1], [2]])
    emb = build_conforming_embedding(x, m, 1, psi)
    for chi in emb.heights:
        assert len(set(chi)) == 1
    assert sorted(chi[0] for chi in emb.heights) == [1, 2, 3, 4]


def test_conforming_embedding_of_grid_with_padded_realizer():
    x = grid(2, 2)
    m = lex_order(2)
    psi = Partition.of([[0], [1], [2], [3]])
    emb = build_conforming_embedding(x, m, 1, psi)
    assert emb.t == 4
    coords = emb.grid_coords()
    assert len(set(coords)) == x.n
    # first-axis digits are 0 for every pair increasing in m
    for a in range(x.n):
        for b in range(x.n):
            if a != b and m.before(a, b):
                assert emb.heights[a][0] <= emb.heights[b][0]


def test_conforming_embedding_respects_supplied_realizer():
    x = grid(2, 2)
    m = lex_order(2)
    psi = Partition.of([[0, 3], [1], [2]])
    emb = build_conforming_embedding(x, m, 1, psi,
                                     realizer=[lex_order(2), colex_order(2)])
    assert emb.partition == psi
    with pytest.raises(ContractViolation):
        build_conforming_embedding(x, m, 1, psi, realizer=[lex_order(2), lex_order(2)])


def test_conforming_embedding_labeling_constraint():
    x = make_chain(3)
    (m,) = linear_extensions(x)
    bad = Partition.of([[1, 2], [0]])  # axis 0 missing from the first part
    with pytest.raises(ContractViolation):
        build_conforming_embedding(x, m, 1, bad)


def test_coarsen_and_counts():
    pi = Partition.of([[0, 1], [2], [3, 4]])
    assert coarsen(pi, [[0], [1], [2]]) == pi
    merged = coarsen(pi, [[0, 1], [2]])
    assert merged.parts == ((0, 1, 2), (3, 4))
    assert sum(1 for _ in coarsenings(pi, 2)) == 3
    with pytest.raises(ContractViolation):
        coarsen(pi, [[0, 1], []])


def test_partition_ramsey_trivial_cases():
    assert partition_ramsey_search(3, 3, 4, 5).found == 3
    assert partition_ramsey_search(2, 2, 1, 4).found == 2
    with pytest.raises(ContractViolation):
        partition_ramsey_search(3, 2, 2, 5)


def test_partition_ramsey_2_3_2_is_6():
    res = partition_ramsey_search(2, 3, 2, 7)
    assert res.found == 6 and res.status == "found"
    assert sorted(res.counterexamples()) == [3, 4, 5]
    # Independent check of the k = 5 escape: no 3-partition is monochromatic.
    cex = res.counterexamples()[5]
    for pi in partitions_of_range(5, 3):
        colors = {cex.color_of(c.parts) for c in coarsenings(pi, 2)}
        assert len(colors) > 1


def test_nonuniform_demo_antichain():
    x = make_antichain(2)
    report = nonuniform_counterexample_demo(
        x, LinearExtension((0, 1)), LinearExtension((1, 0)))
    assert report.conflict_pair == (0, 1)


def test_nonuniform_demo_grid_lex_vs_colex():
    x = grid(2, 2)
    report = nonuniform_counterexample_demo(x, lex_order(2), colex_order(2),
                                            q=grid(3, 2), q_ext=lex_order(3))
    assert report.conflict_pair == (1, 2)  # the incomparable diagonal pair
    assert x.incomparable(*report.conflict_pair)
    assert report.embeddings_checked > 0


def test_nonuniform_demo_rejects_equal_extensions():
    x = make_antichain(2)
    with pytest.raises(ContractViolation):
        nonuniform_counterexample_demo(
            x, LinearExtension((0, 1)), LinearExtension((0, 1)))
