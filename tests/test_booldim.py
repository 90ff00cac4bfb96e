"""Boolean realizers: signature laws, dimension search, reconstruction."""

import hashlib
import random
from itertools import permutations

import pytest

from gridlab import booldim
from gridlab.acceptance import _all_posets_up_to_iso
from gridlab.booldim import (
    BooleanDimResult,
    BooleanRealizer,
    _cells,
    _pair_bits,
    boolean_dim,
    from_dm_realizer,
    is_boolean_realizer,
    reconstruct_realizer,
    signature,
)
from gridlab.errors import ContractViolation, GuardExceeded
from gridlab.grids import colex_order, grid, lex_order
from gridlab.poset import (
    Poset,
    Realizer,
    dimension,
    find_realizer,
    induced_subposet,
    is_realizer,
    linear_extensions,
    make_antichain,
    make_chain,
)


def test_signature_basics():
    order = (0, 1, 2)
    assert signature(0, 1, [order]) == "1"
    assert signature(1, 0, [order]) == "0"
    assert signature(0, 1, [order, (1, 0, 2)]) == "10"
    with pytest.raises(ContractViolation):
        signature(1, 1, [order])


def test_signature_complement_law():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(2, 6)
        orders = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(1, 3))]
        x, y = rng.sample(range(n), 2)
        sig = signature(x, y, orders)
        flipped = "".join("1" if b == "0" else "0" for b in sig)
        assert signature(y, x, orders) == flipped


def test_antichain_accepts_empty_set():
    p = make_antichain(3)
    br = BooleanRealizer(((0, 1, 2),), frozenset())
    assert is_boolean_realizer(p, br)


def test_chain_with_own_order():
    p = make_chain(4)
    br = BooleanRealizer(((0, 1, 2, 3),), frozenset({"1"}))
    assert is_boolean_realizer(p, br)
    assert not is_boolean_realizer(p, BooleanRealizer(((0, 1, 2, 3),), frozenset({"0"})))


def test_grid_has_no_single_order_realizer():
    g = grid(2, 2)
    subsets = [frozenset(), frozenset({"0"}), frozenset({"1"}), frozenset({"0", "1"})]
    for perm in permutations(range(4)):
        for accepted in subsets:
            assert not is_boolean_realizer(g, BooleanRealizer((perm,), accepted))


def test_malformed_accepted_strings():
    p = make_chain(2)
    with pytest.raises(ContractViolation):
        is_boolean_realizer(p, BooleanRealizer(((0, 1),), frozenset({"11"})))


def test_from_dm_realizer_grid_and_chain():
    g = grid(2, 2)
    br = from_dm_realizer(g, Realizer((lex_order(2), colex_order(2))))
    assert br.accepted == {"11"}
    assert is_boolean_realizer(g, br)
    c = make_chain(3)
    (ext,) = linear_extensions(c)
    assert from_dm_realizer(c, Realizer((ext,))).accepted == {"1"}
    with pytest.raises(ContractViolation):
        from_dm_realizer(g, Realizer((lex_order(2), lex_order(2))))


def test_from_dm_realizer_standard_example():
    pairs = [(i, 3 + j) for i in range(3) for j in range(3) if i != j]
    s3 = Poset.from_lt_pairs(6, pairs)
    rz = find_realizer(s3, 3)
    assert rz is not None
    br = from_dm_realizer(s3, rz)
    assert br.accepted == {"111"}
    assert is_boolean_realizer(s3, br)


def test_boolean_dim_chain_and_antichain():
    for k in (2, 5):
        res = boolean_dim(make_chain(k), d_max=2)
        assert res.dim == 1 and is_boolean_realizer(make_chain(k), res.realizer)
        res = boolean_dim(make_antichain(k), d_max=2)
        assert res.dim == 1 and is_boolean_realizer(make_antichain(k), res.realizer)


def test_boolean_dim_of_grid_is_two():
    g = grid(2, 2)
    res = boolean_dim(g, d_max=3)
    assert res.dim == 2
    assert is_boolean_realizer(g, res.realizer)


def test_boolean_dim_guard_and_not_found():
    with pytest.raises(GuardExceeded):
        boolean_dim(make_chain(7))
    res = boolean_dim(grid(2, 2), d_max=1)
    assert res.dim is None and res.realizer is None


def test_each_pair_lies_in_the_cell_of_its_signature():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 6)
        orders = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(1, 3))]
        full = sum(1 << x * n + y for x in range(n) for y in range(n) if x != y)
        cells = _cells([_pair_bits(order) for order in orders], [full])
        assert len(cells) == 2 ** len(orders)
        for x in range(n):
            for y in range(n):
                if x != y:
                    holding = [j for j, cell in enumerate(cells) if cell >> x * n + y & 1]
                    assert holding == [int(signature(x, y, orders), 2)]


def test_boolean_dim_of_the_standard_example_s3():
    s3 = Poset.from_lt_pairs(6, [(i, 3 + j) for i in range(3) for j in range(3) if i != j])
    assert boolean_dim(s3, d_max=2) == BooleanDimResult(None, None, 2)
    want = BooleanRealizer(((0, 1, 5, 2, 3, 4), (0, 2, 4, 1, 3, 5), (1, 2, 3, 0, 4, 5)),
                           frozenset({"111"}))
    assert boolean_dim(s3, d_max=3) == BooleanDimResult(3, want, 3)


def test_boolean_dim_never_splits_cells_by_an_order_twice(monkeypatch):
    # A repeated order cuts the pairs as the tuple without it, which was tried
    # at a smaller d.
    splits = []
    cells = booldim._cells

    def recorder(bits, start):
        splits.append(list(bits))
        return cells(bits, start)

    monkeypatch.setattr(booldim, "_cells", recorder)
    s3 = Poset.from_lt_pairs(6, [(i, 3 + j) for i in range(3) for j in range(3) if i != j])
    assert boolean_dim(s3, d_max=3).dim == 3
    assert any(len(bits) == 2 for bits in splits)
    assert all(len(set(bits)) == len(bits) for bits in splits)


def test_boolean_dim_of_every_small_poset_is_pinned():
    # Digest of the results, witnesses included, on the 87 posets of up to 5
    # elements up to isomorphism, as the per-pair search before the cell sweep
    # gave them: a witness that moves changes it.
    results = [boolean_dim(p, d_max=3) for n in range(1, 6) for p in _all_posets_up_to_iso(n)]
    assert len(results) == 87
    digest = hashlib.sha256(repr(results).encode()).hexdigest()[:16]
    assert digest == "2c48a919a2860fe7"


def test_boolean_dim_never_exceeds_dm_dimension():
    cases = [make_chain(4), make_antichain(4), grid(2, 2),
             Poset.from_covers(5, [(0, 2), (1, 2), (2, 3), (2, 4)])]
    for p in cases:
        d = dimension(p)
        res = boolean_dim(p, d_max=d)
        assert res.dim is not None and res.dim <= d


def test_reconstruct_all_ones_restriction():
    g = grid(4, 2)
    br = from_dm_realizer(g, Realizer((lex_order(4), colex_order(4))))
    copy = [g.index(c) for c in ((0, 0), (1, 2), (2, 1), (3, 3))]
    rz = reconstruct_realizer(g, br, copy, "11")
    sub = induced_subposet(g, copy)
    assert is_realizer(sub, rz.extensions)


def test_reconstruct_chain_copy_any_signature():
    g = grid(4, 2)
    br = from_dm_realizer(g, Realizer((lex_order(4), colex_order(4))))
    chain_copy = [g.index((0, 0)), g.index((1, 1)), g.index((3, 3))]
    for sig in ("11",):
        rz = reconstruct_realizer(g, br, chain_copy, sig)
        assert is_realizer(induced_subposet(g, chain_copy), rz.extensions)


def test_reconstruct_with_dualized_axis():
    # Hand-built Boolean realizer of 4^2 whose comparabilities sign "10".
    g = grid(4, 2)
    orders = (lex_order(4).order, colex_order(4).dual().order)
    accepted = frozenset({"10"})
    br = BooleanRealizer(orders, accepted)
    assert is_boolean_realizer(g, br)
    copy = [g.index(c) for c in ((0, 0), (1, 2), (2, 1), (3, 3))]
    rz = reconstruct_realizer(g, br, copy, "10")
    assert is_realizer(induced_subposet(g, copy), rz.extensions)


def test_reconstruct_raises_offending_pair():
    # Signatures differ across the chain's comparabilities for these orders.
    p = make_chain(3)
    br = BooleanRealizer(((0, 1, 2), (1, 0, 2)), frozenset({"10", "11"}))
    assert is_boolean_realizer(p, br)
    with pytest.raises(ContractViolation) as exc:
        reconstruct_realizer(p, br, [0, 1, 2], "10")
    assert exc.value.offending_pair == (0, 2)


def test_reconstruct_rejects_bad_signature_length():
    p = make_chain(2)
    br = BooleanRealizer(((0, 1),), frozenset({"1"}))
    with pytest.raises(ContractViolation):
        reconstruct_realizer(p, br, [0, 1], "11")
