"""Grid machinery: subgrids, lex/colex, casual embeddings, cores, Lemma 6.3/6.4."""

import itertools
import random

import pytest

from gridlab.errors import ContractViolation, DomainError, GuardExceeded
from gridlab.grids import (
    CasualEmbedding,
    Subgrid,
    casual_embeddings,
    colex_order,
    core,
    core_elements,
    count_subgrids,
    enumerate_subgrids,
    grid,
    lex_order,
    obstruction_sets,
    subgrids_within,
    unique_realizer_check,
)
from gridlab.poset import (
    Poset,
    induced_subposet,
    is_alternating_cycle,
    is_isomorphic,
    is_realizer,
    make_chain,
    product,
)


def test_grid_basic_shapes():
    g22 = grid(2, 2)
    assert g22.n == 4
    assert sum(1 for _ in g22.incomparable_pairs()) == 1
    g92 = grid(9, 2)
    assert g92.n == 81
    assert is_isomorphic(grid(4, 1), make_chain(4)) is not None


def test_grid_matches_chain_product():
    assert grid(3, 2) == product(make_chain(3), make_chain(3))
    assert grid(2, 3) == product(make_chain(2), product(make_chain(2), make_chain(2)))


def test_grid_rows_match_the_validated_poset():
    # grid() stores its rows without Poset's pair-by-pair check.
    for k in range(1, 7):
        for t in range(1, 4):
            g = grid(k, t)
            checked = Poset(g.up)
            assert (g.n, g.up, g.dn, g.inc) == (checked.n, checked.up, checked.dn, checked.inc)
            assert g.labels is None and (g.k, g.t) == (k, t)


def test_grid_guard_and_rejects():
    with pytest.raises(GuardExceeded):
        grid(10, 5)
    with pytest.raises(ContractViolation):
        grid(0, 2)


def test_grid_coord_round_trip():
    g = grid(3, 3)
    for idx in range(g.n):
        assert g.index(g.coords(idx)) == idx
    assert g.proj(1, g.index((2, 1, 0))) == 1


def test_subgrid_enumeration_counts():
    assert sum(1 for _ in enumerate_subgrids(3, 2, 2)) == 9
    assert sum(1 for _ in enumerate_subgrids(2, 2, 2)) == 1
    assert count_subgrids(9, 2, 4) == 126 ** 2 == 15876
    with pytest.raises(ContractViolation):
        list(enumerate_subgrids(3, 2, 4))


def test_subgrid_induces_grid():
    g = grid(4, 2)
    sub = Subgrid.of([0, 2], [1, 3])
    assert is_isomorphic(sub.induced(g), grid(2, 2)) is not None
    assert sub.min_max_coords() == ((0, 1), (2, 3))


def test_lex_and_colex_orders():
    assert [grid(2, 2).coords(x) for x in lex_order(2).order] == \
        [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert [grid(2, 2).coords(x) for x in colex_order(2).order] == \
        [(0, 0), (1, 0), (0, 1), (1, 1)]
    for s in (2, 3, 4):
        g = grid(s, 2)
        assert is_realizer(g, [lex_order(s), colex_order(s)])


def test_unique_realizer_check_s2_s3():
    for s, ext_count in ((2, 2), (3, 42)):
        report = unique_realizer_check(s)
        assert report.extension_count == ext_count
        assert report.unique and report.matches_lex_colex
        assert report.method == "pairs+forced"


def test_unique_realizer_obstruction_sets():
    report = unique_realizer_check(3)
    assert report.obstruction_i1 == (((1, 0), (0, 2)), ((2, 0), (1, 2)))
    assert report.obstruction_i2 == (((0, 1), (2, 0)), ((0, 2), (2, 1)))
    # Every cross choice is an alternating cycle in the grid.
    g = grid(3, 2)
    for (x1, y1), (x2, y2) in itertools.product(report.obstruction_i1,
                                                report.obstruction_i2):
        pairs = [(g.index(x1), g.index(y1)), (g.index(x2), g.index(y2))]
        assert is_alternating_cycle(g, pairs)


def test_unique_realizer_check_s4_via_forced_partners():
    # 24024 extensions; every pair is covered implicitly because a realizer
    # partner is forced once one extension is fixed.
    report = unique_realizer_check(4)
    assert report.extension_count == 24024
    assert report.unique and report.matches_lex_colex
    assert report.method == "forced"


def test_unique_realizer_check_guards():
    with pytest.raises(ContractViolation):
        unique_realizer_check(1)
    with pytest.raises(GuardExceeded):
        unique_realizer_check(5)


def test_casual_embeddings_s2_t2():
    embs = casual_embeddings(2, 2)
    assert len(embs) == 2
    assert embs[0].image_set() == embs[1].image_set()
    # The lex-first embedding realizes f((i,j)) = (s*i + j, s*j + i).
    g = grid(2, 2)
    lex_first = embs[0]
    for x in range(4):
        i, j = g.coords(x)
        assert lex_first.images[x] == (2 * i + j, 2 * j + i)
    assert lex_first.image_set() == {(0, 0), (1, 2), (2, 1), (3, 3)}


def test_casual_embeddings_swap_automorphism():
    # Precomposing with the coordinate swap of the source turns one
    # embedding into the other: g((i,j)) = f((j,i)) = (s*j + i, s*i + j).
    embs = casual_embeddings(2, 2)
    g = grid(2, 2)
    swapped = tuple(
        embs[0].images[g.index(tuple(reversed(g.coords(x))))] for x in range(4))
    assert swapped == embs[1].images


def test_casual_embeddings_s3_t2():
    embs = casual_embeddings(3, 2)
    assert len(embs) == 2
    assert embs[0].image_set() == embs[1].image_set()


def test_casual_embedding_validation_rejects_ties():
    with pytest.raises(ContractViolation):
        CasualEmbedding(2, 2, ((0, 0), (1, 2), (1, 1), (3, 3)))


@pytest.mark.parametrize("images", [
    ((0,), (1,), (2,), (3,)),
    ((0, 0, 9), (1, 2, 9), (2, 1, 9), (3, 3, 9)),
])
def test_casual_embedding_validation_rejects_wrong_coordinate_counts(images):
    with pytest.raises(ContractViolation, match=r"^each image must have t = 2 coordinates$"):
        CasualEmbedding(2, 2, images)


def test_core_of_4x4():
    sub = Subgrid.full(4, 2)
    assert core(sub) == {(0, 0), (1, 2), (2, 1), (3, 3)}


def test_core_of_9x9_matches_figure():
    sub = Subgrid.full(9, 2)
    pts = core(sub)
    assert pts == {(3 * i + j, 3 * j + i) for i in range(3) for j in range(3)}
    # Figure's marked dots are core points.
    assert {(0, 0), (3, 1), (2, 6), (8, 8)} <= pts


def test_core_in_ambient_coordinates():
    sub = Subgrid.of([0, 2, 3, 8], [0, 1, 6, 8])
    assert core(sub) == {(0, 0), (2, 6), (3, 1), (8, 8)}


def test_core_matches_casual_embedding_images():
    for s in (2, 3):
        embs = casual_embeddings(s, 2)
        assert core(Subgrid.full(s * s, 2)) == embs[0].image_set()


def test_core_induces_s_squared():
    g = grid(9, 2)
    elems = core_elements(Subgrid.full(9, 2), g)
    assert is_isomorphic(induced_subposet(g, elems), grid(3, 2)) is not None
    # the 4^2 core against the 2^2 grid: apply the formula, then search
    g4 = grid(4, 2)
    elems4 = core_elements(Subgrid.full(4, 2), g4)
    assert is_isomorphic(induced_subposet(g4, elems4), grid(2, 2)) is not None


def test_core_commutes_with_axis_relabeling():
    rng = random.Random(7)
    g = grid(9, 2)
    for _ in range(20):
        s1 = tuple(sorted(rng.sample(range(9), 4)))
        s2 = tuple(sorted(rng.sample(range(9), 4)))
        sub = Subgrid.of(s1, s2)
        local = core(Subgrid.full(4, 2))
        relabeled = {(s1[a], s2[b]) for a, b in local}
        assert core(sub) == relabeled


def test_core_domain_errors():
    with pytest.raises(DomainError):
        core(Subgrid.of([0, 1, 2], [0, 1, 2]))  # side 3 is not a square
    with pytest.raises(DomainError):
        core(Subgrid.of([0, 1], [0, 1, 2, 3]))  # unequal sides


def test_projection_rebuild_round_trip_figure_scale():
    # Every 2^2 subposet D of the core of the 9^2 grid projects onto a
    # 4-side subgrid S with core(S) = D.
    g = grid(9, 2)
    core_pts = sorted(core(Subgrid.full(9, 2)))
    g22 = grid(2, 2)
    count = 0
    for quad in itertools.combinations(core_pts, 4):
        elems = [g.index(c) for c in quad]
        if is_isomorphic(induced_subposet(g, elems), g22) is None:
            continue
        count += 1
        s1 = tuple(sorted(c[0] for c in quad))
        s2 = tuple(sorted(c[1] for c in quad))
        assert core(Subgrid.of(s1, s2)) == frozenset(quad)
    assert count > 0


def test_subgrids_within():
    sub = Subgrid.of([0, 2, 5], [1, 3, 4])
    inner = list(subgrids_within(sub, 2))
    assert len(inner) == 9
    assert all(set(i.axes[0]) <= {0, 2, 5} and set(i.axes[1]) <= {1, 3, 4}
               for i in inner)


def test_obstruction_sets_force_lex_colex():
    # lex reverses all of I1; colex reverses all of I2.
    s = 3
    g = grid(s, 2)
    i1, i2 = obstruction_sets(s)
    lex, colex = lex_order(s), colex_order(s)
    for x, y in i1:
        assert lex.before(g.index(y), g.index(x))
    for x, y in i2:
        assert colex.before(g.index(y), g.index(x))
