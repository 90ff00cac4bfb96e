"""Coloring reductions, monochromatic search, Ramsey verification, bootstrap."""

import random
import re
from collections import Counter
from itertools import combinations, permutations

import pytest

from gridlab import probe
from gridlab.errors import ChainStepFailure, ContractViolation, GuardExceeded
from gridlab.grids import Subgrid, casual_embeddings, core_elements, grid
from gridlab.poset import enumerate_isomorphisms, induced_subposet, make_antichain, make_chain
from gridlab.probe import (
    cube_realizer_triples,
    cube_trace_type,
    embed_cube_by_extensions,
    enumerate_tie_free_cube_copies,
    product_trace_type,
    realizer_type_probe,
)
from gridlab.ramsey import (
    KIND_COMPARABILITY,
    KIND_SUBGRID,
    KIND_SUBPOSET,
    BootstrapStep,
    FunctionColoring,
    MapColoring,
    boolean_lattice_embed,
    comparability_keys,
    enumerate_induced_copy_sets,
    find_monochromatic_copy,
    find_monochromatic_subgrid,
    hash_coloring,
    induced_copies,
    min_ramsey_n,
    multicolor_bootstrap,
    random_map_coloring,
    reduce_comparability_to_subgrid,
    reduce_subposet_to_subgrid,
    verify_at,
    verify_bootstrap_chain,
    verify_comparability_ramsey,
    verify_grid_ramsey,
)

# Engine-found 2-coloring of the 4x4 cells with no monochromatic rectangle,
# checked rectangle-free by brute force below; witnesses the n = 4 escape.
RECTANGLE_FREE_4 = [
    [1, 1, 1, 2],
    [1, 2, 2, 1],
    [2, 1, 2, 1],
    [2, 2, 1, 1],
]


def _cell_coloring(matrix):
    n = len(matrix)
    return MapColoring(KIND_SUBGRID, 2, {
        ((i,), (j,)): matrix[i][j] for i in range(n) for j in range(n)})


def test_comparability_key_counts():
    assert len(comparability_keys(make_chain(3))) == 3
    assert len(comparability_keys(grid(2, 2))) == 5
    assert len(comparability_keys(make_antichain(4))) == 0


def test_map_coloring_validation():
    with pytest.raises(ContractViolation):
        MapColoring(KIND_SUBGRID, 2, {((0,), (0,)): 3})
    c = MapColoring(KIND_COMPARABILITY, 2, {(0, 1): 1})
    with pytest.raises(ContractViolation):
        c.color_of((0, 2))


def test_hash_coloring_is_run_stable():
    c = hash_coloring(KIND_SUBPOSET, 3, seed=11)
    values = [c.color_of((0, 4, 8, 12)) for _ in range(3)]
    assert len(set(values)) == 1
    again = hash_coloring(KIND_SUBPOSET, 3, seed=11)
    assert again.color_of((0, 4, 8, 12)) == values[0]
    assert hash_coloring(KIND_SUBPOSET, 3, seed=12).r == 3


def test_reduce_comparability_constant():
    g = grid(3, 2)
    const = FunctionColoring(KIND_COMPARABILITY, 2, lambda key: 1)
    reduced = reduce_comparability_to_subgrid(const, g)
    assert set(reduced.assignment.values()) == {1}
    assert len(reduced.assignment) == 9


def test_reduce_comparability_single_subgrid():
    g = grid(2, 2)
    c = MapColoring(KIND_COMPARABILITY, 2, dict.fromkeys(comparability_keys(g), 1)
                    | {(0, 3): 2})
    reduced = reduce_comparability_to_subgrid(c, g)
    # The only 2^2 subgrid takes the color of pair ((0,0),(1,1)) = elements (0,3).
    assert reduced.assignment == {((0, 1), (0, 1)): 2}


def test_reduce_comparability_spot_key():
    g = grid(4, 2)
    rng = random.Random(5)
    c = random_map_coloring(KIND_COMPARABILITY, comparability_keys(g), 2, rng)
    reduced = reduce_comparability_to_subgrid(c, g)
    key = ((0, 2), (1, 3))
    a, b = g.index((0, 1)), g.index((2, 3))
    assert reduced.assignment[key] == c.color_of((a, b))


def test_reduce_subposet_constant_and_spot():
    g = grid(9, 2)
    const = FunctionColoring(KIND_SUBPOSET, 2, lambda key: 2)
    c2 = reduce_subposet_to_subgrid(const, g, 2)
    assert set(c2.assignment.values()) == {2}
    seeded = hash_coloring(KIND_SUBPOSET, 3, seed=3)
    c2 = reduce_subposet_to_subgrid(seeded, g, 2)
    sub = Subgrid.of(range(4), range(4))
    core_key = tuple(sorted(g.index(c) for c in
                            ((0, 0), (1, 2), (2, 1), (3, 3))))
    assert c2.assignment[sub.axes] == seeded.color_of(core_key)
    assert core_key == core_elements(sub, g)


def test_reduce_subposet_figure_one_subgrid():
    g = grid(9, 2)
    seeded = hash_coloring(KIND_SUBPOSET, 2, seed=8)
    c2 = reduce_subposet_to_subgrid(seeded, g, 2)
    s = Subgrid.of([0, 2, 3, 8], [0, 1, 6, 8])
    d_key = tuple(sorted(g.index(c) for c in
                         ((0, 0), (3, 1), (2, 6), (8, 8))))
    assert c2.assignment[s.axes] == seeded.color_of(d_key)


def test_find_monochromatic_subgrid_constant():
    c = FunctionColoring(KIND_SUBGRID, 2, lambda key: 1)
    w = find_monochromatic_subgrid(4, 2, 1, 2, c)
    assert w is not None and w.color == 1
    assert w.subgrid.axes == ((0, 1), (0, 1))  # lexicographically first


def test_find_monochromatic_subgrid_pigeonhole():
    colors = {((0,),): 1, ((1,),): 2, ((2,),): 1}
    c = MapColoring(KIND_SUBGRID, 2, colors)
    w = find_monochromatic_subgrid(3, 1, 1, 2, c)
    assert w.subgrid.axes == ((0, 2),) and w.color == 1


@pytest.mark.parametrize("bad", [0, 3])
def test_function_colorings_check_their_range(bad):
    c = FunctionColoring(KIND_SUBGRID, 2, lambda key: bad)
    with pytest.raises(ContractViolation, match=f"produced color {bad}"):
        c.color_of(((0,), (0,)))


def test_hash_colorings_answer_with_their_own_function():
    c = hash_coloring(KIND_SUBGRID, 2, 7)
    assert c.color_of is c.fn  # it cannot leave 1..r, so nothing re-checks it
    assert {c.color_of(((i,), (j,))) for i in range(5) for j in range(5)} == {1, 2}
    biased = hash_coloring(KIND_SUBGRID, 3, 7, bias_color=3, bias=0.5)
    assert {biased.color_of(((i,), (j,))) for i in range(5) for j in range(5)} == {1, 2, 3}
    with pytest.raises(ContractViolation, match="bias color 4"):
        hash_coloring(KIND_SUBGRID, 3, 7, bias_color=4, bias=0.5)


def test_find_monochromatic_subgrid_needs_a_dimension():
    with pytest.raises(ContractViolation, match="t >= 1"):
        find_monochromatic_subgrid(4, 0, 1, 2, FunctionColoring(KIND_SUBGRID, 2, lambda key: 1))


def test_rectangle_escape_at_4_and_forced_at_5():
    for r1, r2 in combinations(range(4), 2):
        for c1, c2 in combinations(range(4), 2):
            cells = {RECTANGLE_FREE_4[r1][c1], RECTANGLE_FREE_4[r1][c2],
                     RECTANGLE_FREE_4[r2][c1], RECTANGLE_FREE_4[r2][c2]}
            assert len(cells) > 1
    assert find_monochromatic_subgrid(4, 2, 1, 2, _cell_coloring(RECTANGLE_FREE_4)) is None
    # At n = 5 every 2-coloring of cells has a monochromatic 2x2 subgrid.
    rng = random.Random(1)
    for _ in range(25):
        matrix = [[rng.randint(1, 2) for _ in range(5)] for _ in range(5)]
        n5 = MapColoring(KIND_SUBGRID, 2, {
            ((i,), (j,)): matrix[i][j] for i in range(5) for j in range(5)})
        assert find_monochromatic_subgrid(5, 2, 1, 2, n5) is not None


def test_find_monochromatic_copy_single_comparability():
    q = grid(2, 2)
    c = random_map_coloring(KIND_COMPARABILITY, comparability_keys(q), 2,
                            random.Random(0))
    w = find_monochromatic_copy(q, make_chain(2), c)
    assert w is not None and len(w.elements) == 2
    assert find_monochromatic_copy(make_antichain(3), make_chain(2), c) is None


def test_copy_searches_refuse_another_kind():
    q, p = grid(3, 2), grid(2, 2)
    coloring = hash_coloring(KIND_SUBPOSET, 2, 1)
    with pytest.raises(ContractViolation, match="comparability coloring"):
        list(induced_copies(q, p, coloring=coloring))
    with pytest.raises(ContractViolation, match="comparability coloring"):
        find_monochromatic_copy(q, p, coloring)


def test_pattern_without_comparable_pairs_keeps_color_none():
    q, p = grid(3, 2), make_antichain(2)
    coloring = hash_coloring(KIND_COMPARABILITY, 3, 2)
    assert list(induced_copies(q, p, coloring=coloring)) == list(induced_copies(q, p))
    found = find_monochromatic_copy(q, p, coloring)
    assert found.color is None and found.elements == next(induced_copies(q, p))


def test_function_coloring_finds_the_witness_of_its_map():
    q, p = grid(6, 2), grid(2, 2)
    for seed in range(4):
        fn = hash_coloring(KIND_COMPARABILITY, 3, seed)
        values = MapColoring(KIND_COMPARABILITY, 3,
                             {key: fn.color_of(key) for key in comparability_keys(q)})
        found = find_monochromatic_copy(q, p, fn)
        assert found is not None and found == find_monochromatic_copy(q, p, values)


def test_missing_pair_raises_once_the_search_reads_it():
    q, p = grid(3, 2), grid(2, 2)
    partial = MapColoring(KIND_COMPARABILITY, 2,
                          {key: 1 for key in comparability_keys(q) if key != (0, 4)})
    with pytest.raises(ContractViolation, match="not total"):
        find_monochromatic_copy(q, p, partial)
    # Without element 4 the search never reads the missing pair.
    found = find_monochromatic_copy(q, p, partial, within=[0, 1, 2, 3, 5, 6, 7, 8])
    assert (found.elements, found.color) == ((0, 1, 3, 5), 1)


def test_chain6_all_two_colorings_have_mono_chain3():
    # Exhaustive over all 2^15 comparability colorings of the 6-chain.
    q = make_chain(6)
    keys = comparability_keys(q)
    p = make_chain(3)
    for bits in range(1 << 15):
        assignment = {key: 1 + ((bits >> i) & 1) for i, key in enumerate(keys)}
        c = MapColoring(KIND_COMPARABILITY, 2, assignment)
        assert find_monochromatic_copy(q, p, c) is not None


def test_chain5_escape_coloring_exists():
    q = make_chain(5)
    v = verify_comparability_ramsey(make_chain(3), q, 2)
    assert v.status == "false"
    assert find_monochromatic_copy(q, make_chain(3), v.counterexample) is None


def test_verify_examples():
    assert verify_comparability_ramsey(make_chain(3), make_chain(6), 2).is_true()
    assert verify_comparability_ramsey(make_chain(3), make_chain(5), 2).status == "false"
    for r in (1, 2, 5):
        assert verify_comparability_ramsey(make_chain(2), make_chain(2), r).is_true()


def test_verify_wrapper_kinds():
    assert verify_at(KIND_COMPARABILITY, 1, 2, None, 3, 6).is_true()
    assert verify_at(KIND_SUBGRID, 1, 2, 1, 2, 3).is_true()


def test_verify_inconclusive_on_tiny_guard():
    # The symmetry-breaking search refutes every 2-coloring of K_6 in 8 nodes.
    v = verify_comparability_ramsey(make_chain(3), make_chain(6), 2, node_guard=5)
    assert v.status == "inconclusive"


def test_verify_antichain_pattern_is_vacuously_true():
    # grid(2,2) contains an induced 2-antichain, which has no keys at all.
    assert verify_comparability_ramsey(make_antichain(2), grid(2, 2), 7).is_true()
    # chain(3) contains no induced antichain: every coloring is an escape.
    assert verify_comparability_ramsey(make_antichain(2), make_chain(3), 7).status == "false"


def test_verify_false_when_no_copy_exists():
    v = verify_comparability_ramsey(make_chain(4), make_chain(3), 2)
    assert v.status == "false" and v.counterexample is not None


def test_min_ramsey_pigeonhole():
    res = min_ramsey_n(1, 2, 1, 2, KIND_SUBGRID, 6)
    assert res.found == 3 and res.status == "found"
    assert res.verdicts[2].status == "false"
    assert res.verdicts[3].status == "true"


def test_min_ramsey_classical_triangle():
    res = min_ramsey_n(1, 2, 2, 3, KIND_SUBGRID, 7)
    assert res.found == 6
    assert sorted(res.counterexamples()) == [3, 4, 5]


def test_min_ramsey_grid_cells():
    res = min_ramsey_n(2, 2, 1, 2, KIND_SUBGRID, 6)
    assert res.found == 5
    for n, cex in res.counterexamples().items():
        assert find_monochromatic_subgrid(n, 2, 1, 2, cex) is None


def test_min_ramsey_comparability_chain3():
    res = min_ramsey_n(1, 2, 2, 3, KIND_COMPARABILITY, 7)
    assert res.found == 6
    cex5 = res.verdicts[5].counterexample
    assert find_monochromatic_copy(make_chain(5), make_chain(3), cex5) is None


def test_subposet_kind_matches_subgrid_kind_on_chains():
    for n in range(3, 7):
        vg = verify_grid_ramsey(KIND_SUBGRID, 1, 2, 2, 3, n)
        vp = verify_grid_ramsey(KIND_SUBPOSET, 1, 2, 2, 3, n)
        assert vg.status == vp.status


def test_subposet_kind_threshold_beats_subgrid_at_t2():
    # Induced 2^2 copies outnumber 2-side subgrids, so the subposet variant
    # of the cell-coloring question already holds at n = 4 (subgrids need 5).
    res = min_ramsey_n(2, 2, 1, 2, KIND_SUBPOSET, 5)
    assert res.found == 4
    assert min_ramsey_n(2, 2, 1, 2, KIND_SUBGRID, 6).found == 5


def test_verify_parallel_workers_agree():
    serial = verify_grid_ramsey(KIND_SUBGRID, 2, 2, 1, 2, 4)
    parallel = verify_grid_ramsey(KIND_SUBGRID, 2, 2, 1, 2, 4, workers=2)
    assert serial.status == parallel.status == "false"
    assert serial.counterexample.items() == parallel.counterexample.items()


def test_verify_true_implies_random_colorings_have_witness():
    assert verify_comparability_ramsey(make_chain(3), make_chain(6), 2).is_true()
    q = make_chain(6)
    keys = comparability_keys(q)
    rng = random.Random(99)
    for _ in range(1000):
        c = random_map_coloring(KIND_COMPARABILITY, keys, 2, rng)
        assert find_monochromatic_copy(q, make_chain(3), c) is not None


def _chain_steps():
    return [BootstrapStep(make_chain(2), make_chain(3)),
            BootstrapStep(make_chain(3), make_chain(6))]


def test_bootstrap_chain_is_valid():
    assert verify_bootstrap_chain(_chain_steps())


def test_bootstrap_base_case():
    steps = [BootstrapStep(make_chain(2), make_chain(3))]
    c = MapColoring(KIND_COMPARABILITY, 2,
                    {(0, 1): 2, (0, 2): 1, (1, 2): 2})
    res = multicolor_bootstrap(steps, c)
    assert res.levels == 1 and res.witness.color in (1, 2)


def test_bootstrap_three_colors_on_chain6():
    q = make_chain(6)
    keys = comparability_keys(q)
    rng = random.Random(17)
    for _ in range(50):
        c = random_map_coloring(KIND_COMPARABILITY, keys, 3, rng)
        res = multicolor_bootstrap(_chain_steps(), c)
        assert res.levels <= 2
        x, y = sorted(res.witness.elements)
        assert c.color_of((x, y)) == res.witness.color


def test_bootstrap_constant_coloring_descends_once():
    c = FunctionColoring(KIND_COMPARABILITY, 3, lambda key: 1)
    res = multicolor_bootstrap(_chain_steps(), c)
    assert res.levels == 1 and res.witness.color == 1


def test_bootstrap_rejects_broken_chains():
    steps = [BootstrapStep(make_chain(2), make_chain(3)),
             BootstrapStep(make_chain(4), make_chain(6))]
    c = FunctionColoring(KIND_COMPARABILITY, 3, lambda key: 1)
    with pytest.raises(ContractViolation):
        multicolor_bootstrap(steps, c)
    with pytest.raises(ContractViolation):
        multicolor_bootstrap(_chain_steps(),
                             FunctionColoring(KIND_COMPARABILITY, 4, lambda k: 1))


def test_bootstrap_surfaces_invalid_step():
    # chain(3) is not a 2-color witness for chain(3): descent must fail loudly
    # for a coloring with no monochromatic triangle in the split.
    steps = [BootstrapStep(make_chain(3), make_chain(3)),
             BootstrapStep(make_chain(3), make_chain(5))]
    v = verify_comparability_ramsey(make_chain(3), make_chain(5), 2)
    base = v.counterexample
    c = FunctionColoring(KIND_COMPARABILITY, 3,
                         lambda key: 1 if base.color_of(key) == 1 else 3)
    with pytest.raises(ChainStepFailure):
        multicolor_bootstrap(steps, c)


def test_boolean_lattice_embed_small():
    emb = boolean_lattice_embed(make_chain(2))
    assert emb.vectors == ((1, 0), (1, 1))
    emb = boolean_lattice_embed(make_antichain(2))
    v1, v2 = emb.vectors
    assert not all(a <= b for a, b in zip(v1, v2))
    assert not all(b <= a for a, b in zip(v1, v2))


def test_boolean_lattice_embed_grid_into_2_4():
    g = grid(2, 2)
    emb = boolean_lattice_embed(g)
    assert emb.dimension == 4
    target = grid(2, 4)
    idx = [target.index(v) for v in emb.vectors]
    for x in range(4):
        for y in range(4):
            if x != y:
                assert g.lt(x, y) == target.lt(idx[x], idx[y])


def test_copy_enumeration_counts():
    q = make_chain(4)
    assert len(enumerate_induced_copy_sets(q, make_chain(2))) == 6
    g = grid(2, 2)
    assert len(enumerate_induced_copy_sets(g, make_antichain(2))) == 1


def test_prop52_reduction_soundness_n4():
    # Every casually embedded 2^2 inside a monochromatic 4-side subgrid is
    # monochromatic under the original comparability coloring.
    g = grid(4, 2)
    keys = comparability_keys(g)
    embeddings = casual_embeddings(2, 2)
    mono_seen = 0
    for seed in range(40):
        if seed % 4 == 0:
            c = FunctionColoring(KIND_COMPARABILITY, 2, lambda key: 1 + seed % 2)
        elif seed % 4 == 1:
            c = hash_coloring(KIND_COMPARABILITY, 2, seed, bias_color=1, bias=0.93)
        else:
            c = hash_coloring(KIND_COMPARABILITY, 2, seed)
        reduced = reduce_comparability_to_subgrid(c, g)
        if len(set(reduced.assignment.values())) > 1:
            continue
        mono_seen += 1
        r0 = next(iter(reduced.assignment.values()))
        for emb in embeddings:
            elems = [g.index(coords) for coords in emb.images]
            for i, a in enumerate(elems):
                for b in elems[i + 1:]:
                    if g.comparable(a, b):
                        key = (a, b) if g.lt(a, b) else (b, a)
                        assert c.color_of(key) == r0
    assert mono_seen >= 10


def test_thm62_reduction_soundness_sampled():
    g = grid(9, 2)
    rng = random.Random(4242)
    for seed in range(5):
        c1 = hash_coloring(KIND_SUBPOSET, 3, seed)
        c2 = reduce_subposet_to_subgrid(c1, g, 2)
        for _ in range(200):
            s1 = tuple(sorted(rng.sample(range(9), 4)))
            s2 = tuple(sorted(rng.sample(range(9), 4)))
            sub = Subgrid.of(s1, s2)
            assert c2.assignment[sub.axes] == c1.color_of(core_elements(sub, g))


def test_probe_tie_free_census():
    rep3 = realizer_type_probe(3)
    assert rep3.copies_scanned == 0
    rep4 = realizer_type_probe(4)
    assert rep4.copies_scanned == 64
    assert rep4.distinct_types == 12  # at least two fundamentally different
    assert all(count > 0 for _, count in rep4.census)


def _isomorphism_minimum_type(g3, elements):
    """The probe's former per-copy typing: every isomorphism of the cube onto
    the copy's induced subposet, every axis permutation, the least encoding."""
    cube = grid(2, 3)
    sub = induced_subposet(g3, elements)
    elems = sorted(set(elements))
    isos = list(enumerate_isomorphisms(cube, sub))
    assert isos
    pairs = list(cube.incomparable_pairs())
    best = None
    tie_free = True
    first = True
    for iso in isos:
        ambient = [g3.coords(elems[iso[x]]) for x in range(8)]
        table = []
        for axis in range(3):
            row = []
            for a, b in pairs:
                diff = ambient[b][axis] - ambient[a][axis]
                row.append((diff > 0) - (diff < 0))
            table.append(tuple(row))
        if first:
            tie_free = all(0 not in row for row in table)
            first = False
        for perm in permutations(range(3)):
            enc = tuple(table[axis] for axis in perm)
            if best is None or enc < best:
                best = enc
    return best, tie_free


@pytest.mark.parametrize("n, scope", [(3, "all"), (4, "tie-free")])
def test_trace_types_match_the_isomorphism_minimum(n, scope):
    g3 = grid(n, 3)
    if scope == "all":
        copies = enumerate_induced_copy_sets(g3, grid(2, 3))
    else:
        copies = enumerate_tie_free_cube_copies(g3)
    census = Counter()
    for elements in copies:
        want = _isomorphism_minimum_type(g3, elements)
        assert cube_trace_type(g3, elements) == want
        census[want[0]] += 1
    # The probe types each copy from the embedding its search found.
    assert realizer_type_probe(n, scope=scope).census == tuple(sorted(census.items()))


def test_trace_types_match_the_isomorphism_minimum_on_sampled_4_cube_copies():
    # All 262,144 copies of 2^3 in 4^3 take minutes by the reference typing.
    g4 = grid(4, 3)
    copies = enumerate_induced_copy_sets(g4, grid(2, 3))
    assert len(copies) == 262_144
    for elements in random.Random(3).sample(copies, 1500):
        assert cube_trace_type(g4, elements) == _isomorphism_minimum_type(g4, elements)
    subgrid = [0, 1, 3, 4, 9, 10, 12, 13]  # {0, 1}^3 in 3^3
    assert product_trace_type() == _isomorphism_minimum_type(grid(3, 3), subgrid)[0]


def test_probe_refuses_a_tied_copy_and_counts_its_guard(monkeypatch):
    assert realizer_type_probe(4, guard_copies=64).copies_scanned == 64
    with pytest.raises(GuardExceeded, match="copy guard"):
        realizer_type_probe(4, guard_copies=63)
    subgrid = [0, 1, 3, 4, 9, 10, 12, 13]
    monkeypatch.setattr(probe, "_cube_embeddings", lambda g3, inc, guard: [subgrid])
    with pytest.raises(ContractViolation, match="tied copy"):
        realizer_type_probe(3)


def test_probe_all_scope_small():
    rep = realizer_type_probe(3, scope="all")
    assert rep.copies_scanned == 1331
    assert rep.distinct_types == 25
    assert any(t == rep.product_type for t, _ in rep.census)


def test_probe_subgrid_has_product_type():
    g3 = grid(3, 3)
    elements = [g3.index((a, b, c)) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    tkey, tie_free = cube_trace_type(g3, elements)
    assert tkey == product_trace_type()
    assert not tie_free  # subgrids tie incomparable pairs on shared axes


def test_probe_separated_types_distinguish_realizers():
    g8 = grid(8, 3)
    triples = cube_realizer_triples()
    assert len(triples) == 384
    first = embed_cube_by_extensions(8, triples[0])
    t_first, tf = cube_trace_type(g8, first)
    assert tf
    seen = {t_first}
    for tri in triples[1:60]:
        tkey, tf = cube_trace_type(g8, embed_cube_by_extensions(8, tri))
        assert tf
        seen.add(tkey)
    assert len(seen) >= 2


def _embed_through_the_grid(g3, exts):
    """The cube image indexed by the built grid n^3."""
    return tuple(g3.index(tuple(ext.index(x) for ext in exts)) for x in range(8))


@pytest.mark.parametrize("n", [8, 11])
def test_cube_embedding_indexes_as_the_grid_does(n):
    g3 = grid(n, 3)
    for tri in cube_realizer_triples()[::37]:
        assert embed_cube_by_extensions(n, tri) == _embed_through_the_grid(g3, tri)


@pytest.mark.parametrize("n, error, message", [
    (7, ContractViolation, "coordinate 7 outside 0..6"),
    (0, ContractViolation, "grid needs k >= 1 and t >= 1"),
    (17, GuardExceeded, "grid would have 4913 elements (guard 4096)"),
])
def test_cube_embedding_refuses_as_the_grid_does(n, error, message):
    tri = cube_realizer_triples(limit=1)[0]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        embed_cube_by_extensions(n, tri)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        _embed_through_the_grid(grid(n, 3), tri)
    with pytest.raises(ContractViolation, match="exactly three orders"):
        embed_cube_by_extensions(n, tri[:2])
    with pytest.raises(ContractViolation, match="not a linear extension"):
        embed_cube_by_extensions(n, (tri[0], tri[1], tri[2].dual()))


def test_cube_realizer_triples_limit():
    triples = cube_realizer_triples()
    assert cube_realizer_triples(limit=0) == []
    assert cube_realizer_triples(limit=5) == triples[:5]
    assert cube_realizer_triples(limit=1000) == triples
    with pytest.raises(ContractViolation, match="^limit must be non-negative, got -1$"):
        cube_realizer_triples(limit=-1)


def test_probe_axis_swap_same_type():
    g8 = grid(8, 3)
    tri = cube_realizer_triples()[0]
    a = embed_cube_by_extensions(8, tri)
    swapped = tuple(g8.index(tuple(reversed(g8.coords(e)))) for e in a)
    assert cube_trace_type(g8, a)[0] == cube_trace_type(g8, swapped)[0]
