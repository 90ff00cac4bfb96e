"""Substrate checks: chains, products, extensions, realizers, isomorphism."""

import itertools
import random

import pytest

from gridlab.errors import ContractViolation, GuardExceeded
from gridlab.grids import grid
from gridlab.poset import (
    LinearExtension,
    Poset,
    automorphisms,
    count_linear_extensions,
    dimension,
    find_realizer,
    induced_subposet,
    is_alternating_cycle,
    is_isomorphic,
    is_linear_extension,
    is_realizer,
    linear_extensions,
    make_antichain,
    make_chain,
    order_embedding_violation,
    product,
    realizer_tuples,
)


def _brute_comparable_count(p):
    return sum(1 for a in range(p.n) for b in range(p.n) if p.lt(a, b))


def test_chain_pair_counts():
    assert _brute_comparable_count(make_chain(1)) == 0
    assert _brute_comparable_count(make_chain(3)) == 3
    assert _brute_comparable_count(make_chain(4)) == 6


def test_chain_rejects_zero():
    with pytest.raises(ContractViolation):
        make_chain(0)


def test_construction_validates_invariants():
    with pytest.raises(ContractViolation):
        Poset([0b001, 0])  # reflexive loop at 0
    with pytest.raises(ContractViolation):
        Poset([0b010, 0b001])  # 0 < 1 and 1 < 0
    with pytest.raises(ContractViolation):
        Poset([0b010, 0b100, 0])  # 0 < 1 < 2 without 0 < 2


def test_from_covers_closure_and_cycles():
    p = Poset.from_covers(3, [(0, 1), (1, 2)])
    assert p.lt(0, 2)
    with pytest.raises(ContractViolation):
        Poset.from_covers(3, [(0, 1), (1, 2), (2, 0)])


def test_product_of_two_chains():
    # Enumerating the six unordered pairs of the 2x2 grid by hand gives
    # five strict comparable ordered pairs and one incomparable pair.
    g = product(make_chain(2), make_chain(2))
    assert g.n == 4
    assert _brute_comparable_count(g) == 5
    inc = [(a, b) for a in range(4) for b in range(a + 1, 4) if g.incomparable(a, b)]
    assert inc == [(1, 2)]


def test_product_with_singleton_is_isomorphic():
    p = Poset.from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert is_isomorphic(product(make_chain(1), p), p) is not None


def test_three_by_three_grid_has_42_extensions():
    g = product(make_chain(3), make_chain(3))
    assert g.n == 9
    exts = linear_extensions(g)
    assert len(exts) == 42
    assert count_linear_extensions(g) == 42
    assert all(is_linear_extension(g, e) for e in exts)


def test_extension_enumeration_is_deterministic_and_lexicographic():
    p = make_antichain(3)
    exts = linear_extensions(p)
    assert [e.order for e in exts] == sorted(e.order for e in exts)
    assert len(exts) == 6


def test_extension_counts_match_independent_counter():
    cases = [
        make_chain(4),
        make_antichain(4),
        product(make_chain(2), make_chain(3)),
        Poset.from_covers(5, [(0, 2), (1, 2), (2, 3), (2, 4)]),
    ]
    for p in cases:
        assert len(linear_extensions(p)) == count_linear_extensions(p)


def test_chain_rigidity_and_antichain_freedom():
    assert len(linear_extensions(make_chain(4))) == 1
    assert len(linear_extensions(make_antichain(2))) == 2


def test_extension_cap_guard():
    with pytest.raises(GuardExceeded):
        linear_extensions(make_antichain(13))


def test_realizer_on_grid_lex_colex():
    g = product(make_chain(2), make_chain(2))
    lex = LinearExtension((0, 1, 2, 3))
    colex = LinearExtension((0, 2, 1, 3))
    assert is_realizer(g, [lex, colex])
    assert not is_realizer(g, [lex, lex])


def test_realizer_chain_single_extension():
    c = make_chain(3)
    (ext,) = linear_extensions(c)
    assert is_realizer(c, [ext])


def test_realizer_contract_violation_on_bad_extension():
    g = product(make_chain(2), make_chain(2))
    with pytest.raises(ContractViolation):
        is_realizer(g, [LinearExtension((3, 2, 1, 0))])


def test_every_incomparable_pair_reversed_somewhere():
    # Realizer existence at dimension <= |P|: the full extension list
    # reverses every incomparable pair at least once.
    for p in [product(make_chain(2), make_chain(2)), make_antichain(4),
              Poset.from_covers(5, [(0, 2), (1, 3), (2, 4)])]:
        exts = linear_extensions(p)
        for x, y in p.incomparable_pairs():
            assert any(e.before(y, x) for e in exts)
            assert any(e.before(x, y) for e in exts)


def test_dual_is_involution_and_maps_to_dual_poset():
    p = Poset.from_covers(4, [(0, 1), (0, 2), (1, 3)])
    for ext in linear_extensions(p):
        assert ext.dual().dual() == ext
        assert is_linear_extension(p.dual(), ext.dual())
    assert LinearExtension((0, 1, 2)).dual() == LinearExtension((2, 1, 0))


def test_induced_subposet():
    g = product(make_chain(3), make_chain(3))
    assert is_isomorphic(induced_subposet(g, range(9)), g) is not None
    single = induced_subposet(g, [5])
    assert single.n == 1 and single.relation_count() == 0
    with pytest.raises(ContractViolation):
        induced_subposet(g, [])


def test_figure_one_marked_dots_induce_2x2():
    # The four marked dots of the 9x9 grid: (0,0), (3,1), (2,6), (8,8).
    g = product(make_chain(9), make_chain(9))
    dots = [0 * 9 + 0, 3 * 9 + 1, 2 * 9 + 6, 8 * 9 + 8]
    d = induced_subposet(g, dots)
    assert is_isomorphic(d, product(make_chain(2), make_chain(2))) is not None


def test_isomorphism_identity_and_rejection():
    g = product(make_chain(2), make_chain(2))
    mapping = is_isomorphic(g, g)
    assert mapping is not None
    assert all(g.lt(a, b) == g.lt(mapping[a], mapping[b]) for a in range(4) for b in range(4))
    assert is_isomorphic(g, make_chain(4)) is None


def test_isomorphism_guard():
    with pytest.raises(GuardExceeded):
        is_isomorphic(make_antichain(17), make_antichain(17))


def test_automorphisms_of_grid():
    g = product(make_chain(2), make_chain(2))
    assert len(automorphisms(g)) == 2  # identity and the coordinate swap


def test_alternating_cycle_in_2x2():
    g = product(make_chain(2), make_chain(2))
    # (1,0) has index 2, (0,1) has index 1; both orders form the 2-cycle.
    assert is_alternating_cycle(g, [(2, 1), (1, 2)])
    assert not is_alternating_cycle(g, [(2, 1)])
    with pytest.raises(ContractViolation):
        is_alternating_cycle(g, [(0, 3)])


def test_alternating_cycle_cross_pairs_for_s3():
    # I1 x I2 cross pairs of the 3x3 grid: every combination is a 2-cycle.
    g = product(make_chain(3), make_chain(3))
    idx = lambda i, j: 3 * i + j
    i1 = [((i + 1, 0), (i, 2)) for i in range(2)]
    i2 = [((0, j + 1), (2, j)) for j in range(2)]
    for (x1, y1), (x2, y2) in itertools.product(i1, i2):
        pairs = [(idx(*x1), idx(*y1)), (idx(*x2), idx(*y2))]
        assert is_alternating_cycle(g, pairs)


def test_find_realizer_and_dimension():
    g = product(make_chain(2), make_chain(2))
    rz = find_realizer(g, 2)
    assert rz is not None and is_realizer(g, rz.extensions)
    assert find_realizer(g, 1) is None
    assert dimension(g) == 2
    assert dimension(make_chain(5)) == 1
    assert dimension(make_antichain(1)) == 1
    assert dimension(make_antichain(4)) == 2


def test_dimension_of_standard_example_s3():
    # Minimals a0,a1,a2 and maximals b0,b1,b2 with a_i < b_j iff i != j.
    pairs = [(i, 3 + j) for i in range(3) for j in range(3) if i != j]
    s3 = Poset.from_lt_pairs(6, pairs)
    assert dimension(s3) == 3


def test_random_closures_construct_and_corruptions_fail():
    rng = random.Random(2024)
    for _ in range(50):
        n = rng.randint(3, 8)
        covers = [(i, j) for i in range(n) for j in range(i + 1, n)
                  if rng.random() < 0.3]
        p = Poset.from_covers(n, covers)
        relations = list(p.comparable_pairs())
        if not relations:
            continue
        rows = list(p.up)
        a, b = rng.choice(relations)
        # dropping one strict pair from a closed relation breaks an invariant
        rows[a] &= ~(1 << b)
        if any(p.lt(a, z) and p.lt(z, b) for z in range(n)):
            with pytest.raises(ContractViolation):
                Poset(rows)


def test_induced_subposet_keeps_labels():
    p = Poset.from_covers(3, [(0, 1), (1, 2)], labels=["x", "y", "z"])
    sub = induced_subposet(p, [0, 2])
    assert sub.labels == ("x", "z")


def _random_labeled_poset(rng, n):
    perm = rng.sample(range(n), n)
    covers = [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)
              if rng.random() < 0.4]
    return Poset.from_covers(n, covers)


def _brute_realizer_tuples(p, t, exts):
    return [c for c in itertools.product(range(len(exts)), repeat=t)
            if is_realizer(p, [exts[i] for i in c])]


def _first_violation_by_pairs(p, coords):
    for x in range(p.n):
        for y in range(p.n):
            if x == y:
                continue
            below = all(a <= b for a, b in zip(coords[x], coords[y]))
            if below != p.lt(x, y):
                return (x, y)
    return None


_REALIZER_CASES = [(grid(2, 2), 2), (grid(2, 2), 3), (grid(3, 2), 2),
                   (make_chain(3), 2), (make_antichain(3), 2)]


@pytest.mark.parametrize("p, t", _REALIZER_CASES)
def test_realizer_tuples_match_a_brute_force_filter(p, t):
    exts = linear_extensions(p)
    got = list(realizer_tuples(p, t, exts))
    assert got == _brute_realizer_tuples(p, t, exts)
    assert got  # every case here has dimension <= t


def test_realizer_tuples_match_brute_force_on_random_posets():
    rng = random.Random(25)
    for _ in range(20):
        p = _random_labeled_poset(rng, rng.randint(1, 6))
        exts = linear_extensions(p)
        assert list(realizer_tuples(p, 2, exts)) == _brute_realizer_tuples(p, 2, exts)


def test_realizer_tuples_keep_the_realizer_contract():
    g = grid(2, 2)
    exts = linear_extensions(g)
    with pytest.raises(ContractViolation, match="at least one extension"):
        realizer_tuples(g, 0, exts)
    with pytest.raises(ContractViolation, match="not a linear extension"):
        realizer_tuples(g, 2, exts + [exts[0].dual()])
    assert list(realizer_tuples(g, 2, [])) == []


@pytest.mark.parametrize("p, t", _REALIZER_CASES)
def test_extension_positions_embed_exactly_the_realizers(p, t):
    exts = linear_extensions(p)
    realizers = set(realizer_tuples(p, t, exts))
    for combo in itertools.product(range(len(exts)), repeat=t):
        coords = [tuple(exts[i].index(x) for i in combo) for x in range(p.n)]
        got = order_embedding_violation(p, coords)
        assert got == _first_violation_by_pairs(p, coords)
        assert (got is None) == (combo in realizers)


def test_order_embedding_violation_matches_a_pair_scan_on_random_maps():
    rng = random.Random(26)
    outcomes = set()
    for _ in range(200):
        p = _random_labeled_poset(rng, rng.randint(1, 6))
        t, side = rng.randint(1, 3), rng.randint(1, 4)
        coords = [tuple(rng.randrange(side) for _ in range(t)) for _ in range(p.n)]
        got = order_embedding_violation(p, coords)
        assert got == _first_violation_by_pairs(p, coords)
        outcomes.add(got is None)
    assert outcomes == {True, False}
    with pytest.raises(ContractViolation, match="one coordinate tuple per element"):
        order_embedding_violation(make_chain(3), [(0,), (1,)])
